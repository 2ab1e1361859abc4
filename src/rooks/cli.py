"""Command-line surface: argument parsing and output formatting for
enumeration, counting, order queries, Hasse/DOT export, folding, partition
conversion and the verification harness.  The count tables and the checks
themselves live in `rooks.verify`.

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

import argparse
import json
import math
import os
import sys

from .folding import fold, unfold_preimages
from .order import HasseDiagram, bcr_le, build_poset
from .partitions import (
    parse_partition,
    partition_standard_string,
    partition_to_rook,
    rook_to_partition,
)
from .rook import format_one_line, parse_one_line
from .symplectic import (
    FAMILIES,
    FamilySpec,
    ResourceLimitError,
    count_family,
    enum_family,
    iter_family,
)
from .verify import (
    VERIFY_CHECKS,
    count_reports,
    proof_agreement,
    run_check,
)

# Largest family `hasse` accepts, from the memory of the order rows: the
# poset build holds one bitset row of m bits per element (the elements below
# it), m^2/8 bytes in all, and the layers and covers are read off them.  The
# size is `count_family`'s, which builds no member, checked before the family
# is enumerated.  At this bound every family at n <= 8 runs except rook n >= 7
# (130,922 and 1,441,729 elements).  On one 2-CPU Xeon with Python 3.11,
# rook n = 6 (13,327 elements) takes about 1.0 s and 56 MB resident, and
# borel n = 8 (21,147) about 2.0 s and 111 MB.
HASSE_ROW_BYTES = 78_125_000
HASSE_LIMIT = math.isqrt(8 * HASSE_ROW_BYTES)  # 25,000 elements


def dot_export(h: HasseDiagram) -> str:
    """Serialize a Hasse diagram as DOT text: one node statement per
    element, one edge per cover (lower -> upper), everything in
    lexicographic order."""
    names = [format_one_line(x) for x in h.elements]
    lines = ["digraph hasse {"]
    for name in sorted(names):
        lines.append(f'  "{name}";')
    for a, b in sorted((names[i], names[j]) for i, j in h.covers):
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines)


def _emit_lines(lines, out: str | None) -> None:
    """Write each line with its newline as it comes, to `out` or stdout: the
    one writer, which `main` calls with the output of every command.  An
    empty stream writes a single newline.  The first line is drawn before
    `out` is opened, so an enumeration that is refused leaves no file behind.
    Python sets `sys.stdout` to None when the process starts with file
    descriptor 1 closed; stdout output then fails as an output error, and
    `--out` never touches stdout."""
    lines = iter(lines)
    first = next(lines, "")
    stream = open(out, "w", encoding="utf-8") if out else sys.stdout
    if stream is None:
        raise OSError("stdout is closed")
    try:
        stream.write(first + "\n")
        stream.writelines(line + "\n" for line in lines)
        stream.flush()
    finally:
        if out:
            stream.close()


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


# --- subcommands: each returns its output, lines or a dict for `_json` ---


def _cmd_enum(args):
    spec = FamilySpec(args.n, args.family, args.rank)
    if args.format == "count":
        return [str(count_family(spec))]
    if args.format == "oneline":
        return map(format_one_line, iter_family(spec))
    elements = enum_family(spec)
    return {
        "n": args.n,
        "family": args.family,
        "rank": args.rank,
        "count": len(elements),
        "elements": [format_one_line(x) for x in elements],
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
    spec = FamilySpec(args.n, args.family, args.rank)
    size = count_family(spec)
    if size > HASSE_LIMIT:
        raise ResourceLimitError(
            f"hasse supports up to {HASSE_LIMIT} elements, got {size}; "
            "select a rank slice with --rank"
        )
    poset = build_poset(enum_family(spec))
    if args.format == "dot":
        return [dot_export(poset)]
    if args.format == "count":
        return [f"nodes={len(poset.elements)}", f"edges={len(poset.covers)}"]
    return {
        "n": args.n,
        "family": args.family,
        "rank": args.rank,
        "elements": [format_one_line(x) for x in poset.elements],
        "covers": [list(c) for c in poset.covers],
        "rank_of": list(poset.rank_of),
        "minimals": list(poset.minimals),
        "maximals": list(poset.maximals),
        "graded": poset.graded,
    }


def _cmd_fold(args):
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rooks",
        description="Exact combinatorics of rook and symplectic Renner monoids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, formats, default=None, **flags):
        """A subcommand with `flags`, then `--format` (by default the first
        of `formats`) and `--out`."""
        p = sub.add_parser(name)
        for flag, kwargs in flags.items():
            p.add_argument(f"--{flag}", **kwargs)
        p.add_argument("--format", choices=formats, default=default or formats[0])
        p.add_argument("--out", default=None)
        p.set_defaults(func=func)

    spec_flags = dict(family=dict(choices=FAMILIES, required=True), rank=dict(type=int, default=None))
    add(
        "enum",
        _cmd_enum,
        ("count", "oneline", "json"),
        default="oneline",
        n=dict(type=int, required=True),
        **spec_flags,
    )
    add(
        "count",
        _cmd_count,
        ("report", "json"),
        n=dict(type=int, default=None),
        l=dict(type=int, default=None),
        **spec_flags,
    )
    add(
        "order",
        _cmd_order,
        ("oneline", "json"),
        n=dict(type=int, required=True),
        x=dict(required=True),
        y=dict(required=True),
    )
    add(
        "hasse",
        _cmd_hasse,
        ("dot", "count", "json"),
        n=dict(type=int, required=True),
        **spec_flags,
    )
    add(
        "fold",
        _cmd_fold,
        ("oneline", "json"),
        n=dict(type=int, required=True),
        x=dict(required=True),
    )
    add(
        "unfold",
        _cmd_unfold,
        ("oneline", "count", "json"),
        l=dict(type=int, required=True),
        x=dict(required=True),
    )
    add(
        "partition",
        _cmd_partition,
        ("oneline", "json"),
        n=dict(type=int, required=True),
        x=dict(required=True),
    )
    add(
        "verify",
        _cmd_verify,
        ("report", "json"),
        check=dict(choices=VERIFY_CHECKS, required=True),
        n=dict(type=int, default=None),
        l=dict(type=int, default=None),
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        output = args.func(args)
        output, code = output if isinstance(output, tuple) else (output, 0)
        _emit_lines([_json(output)] if isinstance(output, dict) else output, args.out)
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):
            # the reader is gone: send what is still buffered nowhere, so
            # the interpreter's flush at exit does not fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
