"""Command-line surface: argument parsing and output formatting for
enumeration, counting, order queries, Hasse/DOT export, folding, partition
conversion and the verification harness.  The count tables and the checks
themselves live in `rooks.verify`.

The commands and their flags are defined once, in `COMMANDS`.  `main` reads
a plain command line, a command and then `--flag value` pairs, with
`_plain_args`, and argparse (`build_parser`, built from the same table)
only reads what that returns None on: help, usage errors and the forms that
argparse alone accepts, such as abbreviated flags or `--n=3`.  So a plain
command line does not load argparse, nor the `gettext` and `locale` it
loads, and both routes give the same namespace.

Each command loads only the modules it runs.  The table needs the check
names of `rooks.verify` (and `count` its `count_reports`), so this module
loads `rooks.verify` with `rooks.counting`, `rooks.rook` and
`rooks.symplectic`, which is all that `enum` and `count` run.  `order` and
`hasse` import `rooks.order` when they run, `fold` and `unfold`
`rooks.folding`, `partition` `rooks.partitions`, and each verify check the
modules it uses (see `rooks.verify`): the inrsn and standard-form checks
load `rooks.standard`, the standard-form route of the order, and
`rooks.weyl`.  `--format json` loads only `_json`, the C module whose
quoting function `json.encoder` uses, and no command loads the `json`
package (`json_lines`).

Output depends only on the command line: identical invocations print
identical bytes.

Exit codes: 0 on success (including verify runs that log disagreements with
printed closed forms), 1 when verify finds an oracle vs proof-form mismatch,
2 on usage errors, exceeded resource bounds (including a `hasse` family of
more than HASSE_LIMIT = 25,000 elements, whose order rows, one row of m bits
for each of its m elements, m^2/8 bytes in all, would take more than
HASSE_ROW_BYTES, counted with `count_family` and refused before it is
enumerated) and output errors (an `--out` file that cannot be opened, a
stdout pipe closed by its reader, a stdout closed before the start), 3 on an
internal error (a RuntimeError, such as a standard form that is not unique).
"""

from __future__ import annotations

import math
import os
import sys
from itertools import chain, repeat
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .rook import format_one_line, parse_one_line
from .symplectic import (
    FAMILIES,
    FamilySpec,
    ResourceLimitError,
    count_family,
    enum_family,
    line_blocks,
)
from .verify import (
    VERIFY_CHECKS,
    count_reports,
    proof_agreement,
    run_check,
)

if TYPE_CHECKING:
    import argparse

    from .order import HasseDiagram

# Largest family `hasse` accepts, from the memory of the order rows: the
# poset build holds one bitset row of m bits per element (the elements below
# it), m^2/8 bytes in all, and the layers and covers are read off them.  The
# size is `count_family`'s, checked before the family is enumerated: its
# memoised walk over the column states builds no member and visits no prefix
# twice, so a family that is refused costs a few milliseconds (rook n=8 in
# 3-5 ms).  At this bound every family at n <= 8 runs except rook n >= 7
# (130,922 and 1,441,729 elements).  On one 2-CPU Xeon with Python 3.11,
# writing the DOT text to /dev/null, rook n = 6 (13,327 elements, 87,415
# covers) takes about 0.28 s and 32 MB resident, and borel n = 8 (21,147
# and 126,320) about 0.46 s and 53 MB: medians of 7 runs of the whole
# process, start-up included, the resident size its peak (ru_maxrss).
HASSE_ROW_BYTES = 78_125_000
HASSE_LIMIT = math.isqrt(8 * HASSE_ROW_BYTES)  # 25,000 elements

# Lines per write of `_emit_lines`, which joins whole items (a line, or
# the lines of one block of the family walk) until a write holds this many.
# One write per line took about a third of the time of
# `enum --n 8 --family rook --format oneline` into /dev/null (0.62-0.97 s
# against 0.45-0.64 s in process); 4096 lines per write were no faster than
# 256 and raised the peak resident size by about 0.7 MB.  With one item per
# block, 256 items per write (about 3,600 lines at rook n=7) raised the
# VmHWM of `enum --n 7 --family rook` from 14,952 to 16,268 KB (median of
# 7 on a 2-CPU Xeon); counted by lines, it peaks at 14,936 KB.
CHUNK_LINES = 256


def dot_export(h: HasseDiagram):
    """The lines of the DOT text of a Hasse diagram as items for
    `_emit_lines`: one node statement per element, one edge per cover
    (lower -> upper), in items of at most CHUNK_LINES lines, each formatted
    and joined in one call, so the writer counts the lines once per item.
    Each item of edges takes its pairs of indices from CHUNK_LINES cover
    ints i m + j by `divmod`, so no pair outlives its item.  The lines come
    in the order of the diagram, which is the order of the names:
    `build_poset` sorts the elements once and the cover ints, which sort
    as their pairs of indices and so as their pairs of elements, and with
    one-digit entries (n <= DESK_LIMIT = 8) the names sort as the rooks
    do."""
    names = [format_one_line(x) for x in h.elements]
    name = names.__getitem__
    yield "digraph hasse {"
    for start in range(0, len(names), CHUNK_LINES):
        yield '  "' + '";\n  "'.join(names[start : start + CHUNK_LINES]) + '";'
    covers, m = h.covers, repeat(len(names))
    for start in range(0, len(covers), CHUNK_LINES):
        lower, upper = zip(*map(divmod, covers[start : start + CHUNK_LINES], m))
        edges = map('" -> "'.join, zip(map(name, lower), map(name, upper)))
        yield '  "' + '";\n  "'.join(edges) + '";'
    yield "}"


def _emit_lines(lines, out: str | None) -> None:
    """Write each item with a newline after it, to `out` or stdout, in
    chunks of whole items joined into one write, each chunk holding at
    least CHUNK_LINES lines (or the rest of the stream): the one writer,
    which `main` calls with the output of every command.  An item may hold
    several lines, which are counted (`json_lines` gives a whole list of
    numbers as one item, and a listing one item per block of the family
    walk).  An empty stream writes a single newline.  The first item is
    drawn before `out` is opened, so an enumeration that is refused leaves
    no file behind.  A regular `out` is written under a sibling name and renamed
    onto `out` once every item is written, so output that fails part way
    leaves no file and an old file at `out` as it was; a device or a pipe
    at `out` is written in place.  Python sets `sys.stdout` to None when
    the process starts with file descriptor 1 closed; stdout output then
    fails as an output error, and `--out` never touches stdout."""
    lines = iter(lines)
    chunk = [next(lines, "")]
    renamed = out and (os.path.isfile(out) or not os.path.exists(out))
    target = os.path.realpath(out) if renamed else out  # a link stays a link
    path = f"{target}.{os.getpid()}.part" if renamed else out
    stream = open(path, "w", encoding="utf-8") if out else sys.stdout
    if stream is None:
        raise OSError("stdout is closed")
    try:
        while chunk:
            chunk.append("")  # the newline after the chunk's last line
            stream.write("\n".join(chunk))
            chunk, held = [], 0
            for item in lines:
                chunk.append(item)
                held += item.count("\n") + 1
                if held >= CHUNK_LINES:
                    break
        stream.flush()
        if renamed:
            stream.close()
            os.replace(path, target)
    except BaseException:
        if renamed:
            os.unlink(path)
        raise
    finally:
        if out:
            stream.close()


class PairKeys:
    """A list of pairs (i, j) of ints with 0 <= j < m, held as the ints
    i m + j, such as the covers of a Hasse diagram: `json_lines` writes it
    as the list of its pairs, in the order of `keys`, making the pairs of
    CHUNK_LINES keys at a time by `divmod`, without checking the type of
    each key."""

    __slots__ = ("keys", "m")

    def __init__(self, keys, m: int):
        self.keys = keys
        self.m = m


class JsonStream(NamedTuple):
    """A JSON list of `count` strings that `json_lines` draws from `blocks`
    one block at a time, so the list is never held.  Each block is a pair
    `(prefix, tails)` standing for the strings `prefix + tail`, as
    `symplectic.line_blocks` gives them, and becomes one item: its lines
    joined by one quoted, indented separator.  The strings are written as
    they are, so none may hold a character that JSON escapes (one-line
    forms hold digits, commas and parentheses).  Blocks that hold other
    than `count` strings in all are a RuntimeError once the writer passes
    the count or reaches the end."""

    count: int
    blocks: Iterable[tuple[str, list[str]]]


def json_lines(value, head: str = "", indent: str = "", tail: str = ""):
    """The text of `json.dumps(value, indent=2, sort_keys=True)` as items
    for `_emit_lines`, the first after `head` and the last before `tail`,
    at the depth of `indent`.  `value` holds dicts with str keys, lists,
    tuples, `PairKeys`, `JsonStream`s and scalars.

    A list of ints or of strs is one item, formatted by one join, and a
    `PairKeys` one item per CHUNK_LINES pairs, each formatted in one step
    from a template of as many pairs on the pairs of that many keys, so no
    item grows with the covers and no pair outlives its item; only other
    lists and dicts recurse.  A `JsonStream` gives one item per
    block.  Strings are quoted by `_json.encode_basestring_ascii`, the C
    function of `json.encoder`, and None, booleans and ints are written
    directly, so the `json` package loads only for a value of another type
    (a float), which no command writes.

    >>> stream = JsonStream(2, [("(0,", ["0)", "1)"])])
    >>> for item in json_lines({"b": PairKeys((1,), 2), "a": stream}):
    ...     print(item)
    {
      "a": [
        "(0,0)",
        "(0,1)"
      ],
      "b": [
        [
          0,
          1
        ]
      ]
    }
    """
    quote = _quoter()
    inner = indent + "  "
    if isinstance(value, JsonStream):
        count = value.count
        held = 0
        if count:
            yield head + "["
        opening = inner + '"'
        for prefix, tails in value.blocks:
            held += len(tails)
            if held > count:
                break
            # the comma after the block's last line, unless the list ends there
            end = '",' if held < count else '"'
            yield opening + prefix + ('",\n' + opening + prefix).join(tails) + end
        if held != count:
            raise RuntimeError(
                f"a JSON list counted at {count} items held {'more' if held > count else 'fewer'}"
            )
        yield indent + "]" + tail if count else head + "[]" + tail
    elif isinstance(value, dict):
        if not value:
            yield head + "{}" + tail
            return
        yield head + "{"
        keys = sorted(value)
        last = keys[-1]
        for key in keys:
            yield from json_lines(value[key], f"{inner}{quote(key)}: ", inner, "," if key != last else "")
        yield indent + "}" + tail
    elif isinstance(value, PairKeys):
        keys, m = value.keys, repeat(value.m)
        if not keys:
            yield head + "[]" + tail
            return
        yield head + "["
        pair = f"{inner}[\n{inner}  %d,\n{inner}  %d\n{inner}]"
        for start in range(0, len(keys), CHUNK_LINES):
            chunk = keys[start : start + CHUNK_LINES]
            comma = "," if start + CHUNK_LINES < len(keys) else ""
            yield ",\n".join([pair] * len(chunk)) % tuple(chain.from_iterable(map(divmod, chunk, m))) + comma
        yield indent + "]" + tail
    elif isinstance(value, (list, tuple)):
        if not value:
            yield head + "[]" + tail
            return
        yield head + "["
        if (types := set(map(type, value))) == {int} or types == {str}:
            yield inner + f",\n{inner}".join(map(str if types == {int} else quote, value))
        else:
            last = len(value) - 1
            for i, item in enumerate(value):
                yield from json_lines(item, inner, inner, "," if i < last else "")
        yield indent + "]" + tail
    elif value is None or isinstance(value, bool):
        yield head + ("null" if value is None else "true" if value else "false") + tail
    elif isinstance(value, int):
        yield head + int.__repr__(value) + tail
    elif isinstance(value, str):
        yield head + quote(value) + tail
    else:
        import json

        yield head + json.dumps(value) + tail


def _quoter():
    """The C function that quotes a string for `json.dumps`, imported
    without the `json` package, or from it where `_json` is missing."""
    try:
        from _json import encode_basestring_ascii
    except ImportError:
        from json.encoder import encode_basestring_ascii
    return encode_basestring_ascii


# --- subcommands: each returns its output, lines or a dict for `json_lines` ---


def _cmd_enum(args):
    spec = FamilySpec(args.n, args.family, args.rank)
    if args.format == "count":
        return [str(count_family(spec))]
    if args.format == "oneline":
        # one item per block of the walk: its lines, joined in one call
        return (prefix + ("\n" + prefix).join(tails) for prefix, tails in line_blocks(spec))
    count = count_family(spec)
    return {
        "n": args.n,
        "family": args.family,
        "rank": args.rank,
        "count": count,
        "elements": JsonStream(count, line_blocks(spec)),
    }


def _cmd_count(args):
    if args.n is not None and args.l is not None:
        raise ValueError("count takes --n or --l, not both")
    n = args.n if args.n is not None else (2 * args.l if args.l is not None else None)
    if n is None:
        raise ValueError("count needs --n or --l")
    reports = count_reports(FamilySpec(n, args.family, args.rank))
    if args.format == "json":
        return {
            "family": args.family,
            "n": n,
            "reports": [rep.to_json_dict() for rep in reports],
        }
    return [rep.text_row() for rep in reports]


def _cmd_order(args):
    from .order import bcr_le

    x = parse_one_line(args.x, args.n)
    y = parse_one_line(args.y, args.n)
    result = bcr_le(x, y)
    if args.format == "json":
        return {
            "n": args.n,
            "x": format_one_line(x),
            "y": format_one_line(y),
            "le": result,
        }
    return ["true" if result else "false"]


def _cmd_hasse(args):
    from .order import build_poset

    spec = FamilySpec(args.n, args.family, args.rank)
    size = count_family(spec)
    if size > HASSE_LIMIT:
        raise ResourceLimitError(
            f"hasse supports up to {HASSE_LIMIT} elements, got {size}; "
            "select a rank slice with --rank"
        )
    poset = build_poset(enum_family(spec))
    if args.format == "dot":
        return dot_export(poset)
    if args.format == "count":
        return [f"nodes={len(poset.elements)}", f"edges={len(poset.covers)}"]
    return {
        "n": args.n,
        "family": args.family,
        "rank": args.rank,
        "elements": [format_one_line(x) for x in poset.elements],
        "covers": PairKeys(poset.covers, len(poset.elements)),
        "rank_of": poset.rank_of,
        "minimals": poset.minimals,
        "maximals": poset.maximals,
        "graded": poset.graded,
    }


def _cmd_fold(args):
    from .folding import fold

    x = parse_one_line(args.x, args.n)
    tb = fold(x, "tb")
    lr = fold(x, "lr")
    both = fold(x, "both")
    if args.format == "json":
        return {
            "n": args.n,
            "x": format_one_line(x),
            "tb": tb.to_json_dict(),
            "lr": lr.to_json_dict(),
            "both": format_one_line(both),
        }
    return [f"TB {tb.text()}", f"LR {lr.text()}", f"both {format_one_line(both)}"]


def _cmd_unfold(args):
    from .folding import unfold_preimages

    a = parse_one_line(args.x, args.l)
    preimages = unfold_preimages(a)
    if args.format == "count":
        return [str(len(preimages))]
    if args.format == "json":
        return {
            "l": args.l,
            "x": format_one_line(a),
            "count": len(preimages),
            "preimages": [format_one_line(x) for x in preimages],
        }
    return map(format_one_line, preimages)


def _cmd_partition(args):
    from .partitions import (
        parse_partition,
        partition_standard_string,
        partition_to_rook,
        rook_to_partition,
    )

    text = args.x.strip()
    if text.startswith("("):
        x = parse_one_line(text, args.n)
        partition = rook_to_partition(x)
    else:
        partition = parse_partition(text)
        if sum(len(b) for b in partition) != args.n:
            raise ValueError(f"partition does not cover 1..{args.n}")
        x = partition_to_rook(partition)
    rook_text = format_one_line(x)
    partition_text = partition_standard_string(partition)
    if args.format == "json":
        return {
            "n": args.n,
            "input": text,
            "rook": rook_text,
            "partition": partition_text,
        }
    return [partition_text if text.startswith("(") else rook_text]


def _cmd_verify(args):
    """The report and the exit code: 1 on an oracle vs proof-form mismatch."""
    reports = run_check(args.check, args.n, args.l)
    agreement = proof_agreement(reports)
    code = 0 if agreement else 1
    if args.format == "json":
        return {
            "check": args.check,
            "proof_agreement": agreement,
            "reports": [rep.to_json_dict() for rep in reports],
        }, code
    return [
        f"check: {args.check}",
        *(rep.text_row() for rep in reports),
        "result: ok" if agreement else "result: PROOF MISMATCH",
    ], code


# The commands, in the order `rooks --help` lists them: name -> (function,
# formats, default format, flags).  Each flag maps to its keyword arguments
# of `add_argument`, of which only `type`, `choices`, `required` and
# `default` occur.  `_flags` adds `--format` and `--out` to every command.
_REQUIRED = dict(required=True)
_REQUIRED_INT = dict(type=int, required=True)
_OPTIONAL_INT = dict(type=int, default=None)
_SPEC_FLAGS = dict(family=dict(choices=FAMILIES, required=True), rank=_OPTIONAL_INT)
COMMANDS = {
    "enum": (_cmd_enum, ("count", "oneline", "json"), "oneline", dict(n=_REQUIRED_INT, **_SPEC_FLAGS)),
    "count": (_cmd_count, ("report", "json"), "report", dict(n=_OPTIONAL_INT, l=_OPTIONAL_INT, **_SPEC_FLAGS)),
    "order": (_cmd_order, ("oneline", "json"), "oneline", dict(n=_REQUIRED_INT, x=_REQUIRED, y=_REQUIRED)),
    "hasse": (_cmd_hasse, ("dot", "count", "json"), "dot", dict(n=_REQUIRED_INT, **_SPEC_FLAGS)),
    "fold": (_cmd_fold, ("oneline", "json"), "oneline", dict(n=_REQUIRED_INT, x=_REQUIRED)),
    "unfold": (_cmd_unfold, ("oneline", "count", "json"), "oneline", dict(l=_REQUIRED_INT, x=_REQUIRED)),
    "partition": (_cmd_partition, ("oneline", "json"), "oneline", dict(n=_REQUIRED_INT, x=_REQUIRED)),
    "verify": (
        _cmd_verify,
        ("report", "json"),
        "report",
        dict(check=dict(choices=VERIFY_CHECKS, required=True), n=_OPTIONAL_INT, l=_OPTIONAL_INT),
    ),
}


def _flags(command: str) -> dict:
    """Every flag of `command` with its keyword arguments of
    `add_argument`: its own flags, then `--format` and `--out`."""
    _, formats, default, flags = COMMANDS[command]
    return {**flags, "format": dict(choices=formats, default=default), "out": dict(default=None)}


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of `COMMANDS`, which reads every command line
    that `_plain_args` does not: help, usage errors and the forms that
    argparse alone accepts."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="rooks",
        description="Exact combinatorics of rook and symplectic Renner monoids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, *_) in COMMANDS.items():
        p = sub.add_parser(name)
        for flag, kwargs in _flags(name).items():
            p.add_argument(f"--{flag}", **kwargs)
        p.set_defaults(func=func)
    return parser


def _plain_args(argv) -> SimpleNamespace | None:
    """The namespace that `build_parser().parse_args(argv)` gives, read
    without argparse when argv is plain: a command, then `--flag value`
    pairs, each flag one of the command's, spelled in full and given once,
    no value starting with "-", each value of its flag's type and among its
    choices, and every required flag given.  None for any other argv, which
    argparse reads: help, usage errors, abbreviations, `--flag=value`,
    repeated flags and negative numbers."""
    if len(argv) % 2 == 0 or argv[0] not in COMMANDS:
        return None
    given = {}  # "--flag" -> value; a name no flag of the command has is left over
    for name, value in zip(argv[1::2], argv[2::2]):
        if name in given or value[:1] == "-":
            return None
        given[name] = value
    args = SimpleNamespace(command=argv[0], func=COMMANDS[argv[0]][0])
    for flag, spec in _flags(argv[0]).items():
        value = given.pop(f"--{flag}", None)
        if value is None:
            if spec.get("required"):
                return None
            value = spec.get("default")
        else:
            try:
                value = spec.get("type", str)(value)
            except ValueError:
                return None
            if "choices" in spec and value not in spec["choices"]:
                return None
        setattr(args, flag, value)
    return None if given else args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_args(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
    try:
        output = args.func(args)
        output, code = output if isinstance(output, tuple) else (output, 0)
        _emit_lines(json_lines(output) if isinstance(output, dict) else output, args.out)
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        if isinstance(exc, BrokenPipeError) and args.out is None:
            # stdout's reader is gone: send what is still buffered nowhere,
            # so the interpreter's flush at exit does not fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
