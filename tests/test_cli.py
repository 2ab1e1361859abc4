import hashlib
import json
import os
import re
import subprocess
import sys
from functools import lru_cache
from itertools import chain, combinations, groupby
from pathlib import Path

import pytest
from jsonschema import Draft7Validator

import rooks.cli as cli
import rooks.counting as counting
import rooks.folding as folding
import rooks.nilpotent as nilpotent
import rooks.order as order
import rooks.partitions as partitions
import rooks.standard as standard
import rooks.symplectic as symplectic
import rooks.verify as verify
import rooks.weyl as weyl
from fresh_peak import fresh_peak
from patch_everywhere import patch_everywhere
from rooks.counting import CountReport
from rooks.rook import format_one_line, multiply
from rooks.symplectic import FAMILIES, FamilySpec, count_family, enum_family

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "report_schema.json").read_text()
)
VALIDATOR = Draft7Validator(SCHEMA)

# SHA-256 of the default report of every verify check and of `count` per
# family: the report tables are frozen byte for byte.
VERIFY_DIGESTS = {
    "admissible": "6229ce8d255d7eb6882076e4f97d58a0247859fba4a884b480bd07cbab028c6e",
    "rank-counts": "1da7e4a4eb061794f850445da1d5179dd06515721825fb32a65da3205ac384d8",
    "stirling-borel": "25bd49bcc784f10bb0a40e4a433a10b0621dfc99c4b679b2ab241bea26a7e677",
    "inrsn": "ba84e6b7852e4d4ed89958431de0813c5f49907acb7ae645be1da771760c6dcc",
    "maxelements": "39d643bd129912f536b31b05cc5b09fb8c900d56334f98cb44789f1a8ef4f924",
    "triangular": "6b4a3df8ef9f788d3fe5020def5d4ef1c58c08ac07e366d1a4fc70a93386d3dd",
    "formula": "b892fa87acbaded1b6d5806d04ff36f4955006df1d38dbcec9bc1b6a0cd3ba66",
    "folding": "3888c30038e1de813c815705bd82a0f8292ababebf0ead981c6b06e040fec2da",
    "nilpotent": "115c39fe3b7879af042e24dbed8aee732a3a45b22637ba8fd0e986ab08379e8d",
    "parabolic": "6902930b343fc756cdcb171ed307b874abd6bff94dc14e400e6012895152e4a4",
    "standard-form": "fb49a6b286bb415becd13daa42b81a0e9c477b868991d31838d431eaffca120d",
}
# SHA-256 of verify reports at the largest size each check accepts: inrsn
# at n = 6, taken with its limit lifted on the code whose commands still
# loaded every module at start-up; admissible, maxelements and parabolic,
# taken with their old limits lifted while route two still found each
# member's slot by searching its standard form; and standard-form at n = 7, taken with its limit lifted while the Bruhat table
# was still read off a product table of all pairs of S_7.
VERIFY_LARGEST_DIGESTS = {
    "inrsn --n 6": "af57df0fec0eb4bb69de5f483599c9fe541f64bbf114447b880f9b255a4dda11",
    "admissible --l 8": "0adbb6cc69438387654381c18a3bb713718f0c7fb93acc701973bae09294f30f",
    "maxelements --l 4": "323250724f28b7a610ca001d58593d6c2281222ecac1b387b571f3ab0150f140",
    "parabolic --l 6": "6b40cf6a1f7d1d9de7acb16b607a4d2c7bf1ebb318b0c678d2771002adb5ae5e",
    "standard-form --n 7": "e74b78b2061decaddadc99b151acd1b7513a0d15a3ae16cb3f76e78d3cc36732",
}
COUNT_N4_DIGESTS = {
    "rook": "f2515254dc25c544aea479448081ae547a128d0582d543b4b82968ac52f0433e",
    "borel": "dc03e53d9abb349d5256ac26526639089cf637046f731ec27c8c04a699bf1cc3",
    "borel-nil": "14506e85f2d1315beeb822bc84995d010a4a58a87ec90ec31c43820e8ed9284e",
    "renner-sp": "37fd24ccc8b72e50c23c68bbaa1cb6e71efdd9dd19940ccf6945deaadde84273",
    "borel-sp": "7ade69b270cd86a86770c36a86d154f55325e6ed4b2363443a1a79ee7e142fd9",
    "borel-sp-nil": "fd72428b854430d6daefda3a66bd9f0a2227d9a3f425f280d66d892c8dae7cb2",
}
COUNT_N6_BOREL_SP_DIGEST = "c992fe2ea4775ed69ff833109bd843b1df7d52581c36414aed44172abd35b062"
# SHA-256 of the symplectic families at n = 8, taken while they were still
# enumerated by filtering every rook.
SP_N8_DIGESTS = {
    "count --n 8 --family renner-sp": "0f8443cefc24f2765c1f010f73b74a008928cf22eea213223821223a91e92b3c",
    "count --n 8 --family borel-sp": "6e64316efe734bc51488b669f47321c4084b0169ed0df9a5d8f351116472084c",
    "enum --n 8 --family borel-sp-nil --format oneline": "889d29c41f11df4a83735c714d8c820213b8bfb3d1b8867b3fcb3a56c2e13c06",
}
# SHA-256 of the borel-sp rank tables at l = 4 (n = 8) from both commands,
# taken while `verify --check formula` still counted each rank with its own
# `count_family` walk, apart from the rows of `count`.
BOREL_SP_L4_DIGESTS = {
    "verify --check formula --l 4": "ba74fb6e5bcfc0907c62d3b916e917d6f45bb531bdbba03323ba684e0270c3b9",
    "verify --check formula --l 4 --format json": "c0c046fb4cf70004815f933ef855276d79843aaf29d31c4a60882e77f76e2c3c",
    "count --n 8 --family borel-sp --format json": "4f5921cd84e62aaa0367fdfad6c8a5b70f0d5bcf661c581c0f0e7511f2c8b516",
}

# SHA-256 of `enum --format oneline` for each family at its largest size
# below the n = 8 rook list, taken while the descent still built a list.
ENUM_ONELINE_DIGESTS = {
    "enum --n 7 --family rook": "9218548b6c2ecd806b5f14f4b5c67ab3b8aa62cbab4e7ba36295287c11d06ec8",
    "enum --n 7 --family borel": "d4a78a8d206e0f8bd14a126bfdee5c77a1f9d57ee425b40822c1671df9418154",
    "enum --n 7 --family borel-nil": "400a1d1285643db478ce06e15526b6f68e719eb0fc86233febd5ae46725f091a",
    "enum --n 8 --family renner-sp": "bcec991d965de28031323e441b9b8e3719c7e8c613f131fe7bd94a0ff8bc9942",
    "enum --n 8 --family borel-sp": "97b2d60ff4d3bf95747ff8f9022f13b23baf2715f608be8cd8090866c084457d",
    "enum --n 8 --family borel-sp-nil": "889d29c41f11df4a83735c714d8c820213b8bfb3d1b8867b3fcb3a56c2e13c06",
}
# SHA-256 of `--format json` of the two commands that print long lists,
# taken while the JSON text was one `json.dumps(indent=2, sort_keys=True)`
# string.
JSON_DIGESTS = {
    "hasse --n 5 --family rook": "0d4f323f973f3e04111af8c91c0d9421be58a74a02c86e0584ce3d6a379bdd3e",
    "hasse --n 6 --family renner-sp": "61aca34b6820ebab5e609cf02daf1d5fdad213eb8d411d60d7d012fa3dc59ed6",
    "hasse --n 8 --family borel-sp-nil": "cd21893cea29bf49f306999141e609eb0867d38ec27c6df0ff84566879516197",
    "hasse --n 8 --family renner-sp": "39e075c745fbf7491c4756838e73131a867b0010bd9bf1efa4ff7eb81c697472",
    "hasse --n 8 --family borel-nil": "5f27a2a486ca67268c09709cf75741cec41a235f451d04fff87de0c472b01557",
    "hasse --n 7 --family rook --rank 3": "d7d66837ba8efe5412712761661d308801c079942c13625d0672ec7264009086",
    "hasse --n 8 --family borel-sp --rank 2": "3d7e724c796e5d3d4d1ca5ab2b72d0110845c82fb07d6c3206665ff4aee284ba",
    "enum --n 8 --family renner-sp": "05d9d60e31f6ee44e35bd2be0933ac5cd2f10cbef41c54f5b5e915bcaf0a94f9",
}


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def check_json(text):
    obj = json.loads(text)
    VALIDATOR.validate(obj)
    return obj


def test_enum_count(capsys):
    code, out = run(capsys, "enum", "--n", "4", "--family", "borel-sp", "--rank", "2", "--format", "count")
    assert code == 0 and out == "13\n"


def test_enum_oneline(capsys):
    code, out = run(capsys, "enum", "--n", "2", "--family", "rook")
    assert code == 0
    assert out.splitlines() == [
        "(0,0)",
        "(0,1)",
        "(0,2)",
        "(1,0)",
        "(1,2)",
        "(2,0)",
        "(2,1)",
    ]


def test_enum_oneline_unchanged(capsys):
    for command, digest in ENUM_ONELINE_DIGESTS.items():
        code, out = run(capsys, *command.split(), "--format", "oneline")
        assert code == 0 and sha256(out) == digest, command


def test_enum_empty_slice_prints_one_newline(capsysbinary, tmp_path):
    argv = ["enum", "--n", "1", "--family", "borel-nil", "--rank", "1"]
    assert cli.main(argv) == 0
    assert capsysbinary.readouterr().out == b"\n"
    path = tmp_path / "empty.txt"
    assert cli.main([*argv, "--out", str(path)]) == 0
    assert path.read_bytes() == b"\n"


def test_enum_out_matches_stdout(capsys, tmp_path):
    path = tmp_path / "borel.txt"
    argv = ["enum", "--n", "5", "--family", "borel"]
    assert cli.main([*argv, "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    code, out = run(capsys, *argv)
    assert code == 0 and path.read_text(encoding="utf-8") == out
    refused = tmp_path / "refused.txt"
    for fmt in ("oneline", "json"):
        argv = ["enum", "--n", "9", "--family", "rook", "--format", fmt, "--out", str(refused)]
        assert cli.main(argv) == 2, fmt
        assert not refused.exists(), fmt


def dropping_last_line(blocks):
    # the blocks of a listing without its last line (and without the last
    # block, if that was its only line)
    *front, (prefix, tails) = blocks
    return front + [(prefix, tails[:-1])] if len(tails) > 1 else front


def test_out_that_fails_part_way_leaves_no_file(monkeypatch, tmp_path):
    # the listing fails after `{` is written: no file at `--out`, an old
    # file there keeps its bytes, and no sibling file is left behind
    blocks = cli.line_blocks
    monkeypatch.setattr(cli, "line_blocks", lambda spec: dropping_last_line(blocks(spec)))
    argv = ["enum", "--n", "3", "--family", "rook", "--format", "json", "--out"]
    fresh = tmp_path / "fresh.json"
    assert cli.main([*argv, str(fresh)]) == 3
    assert not fresh.exists()
    old = tmp_path / "old.json"
    old.write_bytes(b"old bytes\n")
    assert cli.main([*argv, str(old)]) == 3
    assert old.read_bytes() == b"old bytes\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["old.json"]


def test_out_writes_through_a_link_and_into_a_pipe(capsys, tmp_path):
    # only a regular file is replaced by the renamed sibling: a link to one
    # stays a link, and a pipe (or a device such as /dev/null) is written
    # in place, never replaced by a file
    argv = ["enum", "--n", "2", "--family", "rook"]
    _, expected = run(capsys, *argv)
    real = tmp_path / "real.txt"
    real.write_text("old\n")
    link = tmp_path / "link.txt"
    link.symlink_to(real)
    assert cli.main([*argv, "--out", str(link)]) == 0
    assert link.is_symlink() and real.read_text(encoding="utf-8") == expected
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = subprocess.Popen(["cat", str(fifo)], stdout=subprocess.PIPE, text=True)
    try:
        assert cli.main([*argv, "--out", str(fifo)]) == 0
        assert reader.communicate(timeout=10)[0] == expected
    finally:
        reader.kill()
    assert fifo.is_fifo()
    assert sorted(path.name for path in tmp_path.iterdir()) == ["fifo", "link.txt", "real.txt"]


@pytest.mark.parametrize("m", [1, 2, cli.CHUNK_LINES, cli.CHUNK_LINES + 1, 3 * cli.CHUNK_LINES + 7])
def test_lines_are_written_in_chunks(monkeypatch, m):
    # the first item alone (it is drawn before the file is opened), then
    # whole items until a write holds CHUNK_LINES lines: the same bytes as
    # one write per line, in few writes, whether an item is one line or a
    # block of three
    class Stream:
        def __init__(self):
            self.writes = []

        def write(self, text):
            self.writes.append(text)

        def flush(self):
            pass

    for width in (1, 3):
        stream = Stream()
        monkeypatch.setattr(sys, "stdout", stream)
        lines = ["\n".join(f"line {i}.{j}" for j in range(width)) for i in range(m)]
        cli._emit_lines(iter(lines), None)
        assert "".join(stream.writes) == "".join(line + "\n" for line in lines)
        per_write = -(-cli.CHUNK_LINES // width)  # items per write after the first
        assert len(stream.writes) == 1 + -(-(m - 1) // per_write), width


def test_out_into_a_missing_directory_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "x.txt"
    assert cli.main(["enum", "--n", "2", "--family", "rook", "--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not target.parent.exists()


def test_closed_stdout_exits_2_without_a_traceback():
    # the reader of a pipe stops after one line, as `| head -n 1` does
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    argv = [sys.executable, "-m", "rooks.cli", "enum", "--n", "7", "--family", "rook"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"(0,0,0,0,0,0,0)\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 2
        err = proc.stderr.read().decode()
    assert "Traceback" not in err and "Exception ignored" not in err, err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_a_broken_out_pipe_with_stdout_closed_exits_2(tmp_path):
    # the reader of a pipe at --out stops after 10 bytes, in a process that
    # starts with file descriptor 1 closed: the error is the pipe's, and
    # stdout, which is not written, is left alone
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    command = [sys.executable, "-m", "rooks.cli", "enum", "--n", "8", "--family", "rook"]
    argv = ["sh", "-c", 'exec "$@" >&-', "sh", *command, "--out", str(fifo)]
    reader = subprocess.Popen(["head", "-c", "10", str(fifo)], stdout=subprocess.PIPE)
    try:
        result = subprocess.run(argv, stderr=subprocess.PIPE, env=env, timeout=60)
        assert reader.communicate(timeout=10)[0] == b"(0,0,0,0,0"
    finally:
        reader.kill()
    err = result.stderr.decode()
    assert result.returncode == 2, err
    assert "Traceback" not in err and "Exception ignored" not in err, err
    assert err.startswith("error: ") and err.count("\n") == 1, err


# one small run of every command
EVERY_COMMAND = [
    ["enum", "--n", "2", "--family", "rook"],
    ["count", "--n", "2", "--family", "rook"],
    ["order", "--n", "2", "--x", "(1,0)", "--y", "(1,2)"],
    ["hasse", "--n", "2", "--family", "rook"],
    ["fold", "--n", "8", "--x", "(1,0,5,0,2,0,6,0)"],
    ["unfold", "--l", "2", "--x", "(2,1)"],
    ["partition", "--n", "9", "--x", "18|2569|37|4"],
    ["verify", "--check", "inrsn", "--n", "2"],
]


@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda argv: argv[0])
def test_stdout_closed_at_start_exits_2(capsys, monkeypatch, argv):
    # Python sets sys.stdout to None when file descriptor 1 starts closed
    monkeypatch.setattr(sys, "stdout", None)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err == "error: stdout is closed\n", err


@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda argv: argv[0])
def test_out_needs_no_stdout(capsys, monkeypatch, tmp_path, argv):
    code, expected = run(capsys, *argv)
    path = tmp_path / "out.txt"
    monkeypatch.setattr(sys, "stdout", None)
    assert cli.main([*argv, "--out", str(path)]) == code == 0
    assert path.read_text(encoding="utf-8") == expected
    assert capsys.readouterr().err == ""


# a small run of each subcommand, to be written in each of its formats
SMALL_RUNS = {
    "enum": "--n 3 --family rook",
    "count": "--n 3 --family borel",
    "order": "--n 3 --x (1,0,2) --y (1,2,3)",
    "hasse": "--n 3 --family rook",
    "fold": "--n 8 --x (1,0,5,0,2,0,6,0)",
    "unfold": "--l 2 --x (2,1)",
    "partition": "--n 9 --x 18|2569|37|4",
    "verify": "--check inrsn --n 2",
}


def every_format():
    """`[command, *flags, "--format", format]` for each subcommand of the
    parser and each format it accepts."""
    (commands,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    return [
        [name, *SMALL_RUNS[name].split(), "--format", fmt]
        for name, sub in commands.choices.items()
        for action in sub._actions
        if action.dest == "format"
        for fmt in action.choices
    ]


def out_matches_stdout(capsysbinary, tmp_path, argv):
    """The exit code of `argv`, once `--out` has given the same code and
    written the same bytes as the run on stdout."""
    code, expected = run(capsysbinary, *argv)
    path = tmp_path / "out.txt"
    assert cli.main([*argv, "--out", str(path)]) == code
    assert path.read_bytes() == expected
    assert capsysbinary.readouterr() == (b"", b"")
    return code


@pytest.mark.parametrize("argv", every_format(), ids=" ".join)
def test_out_holds_what_stdout_prints(capsysbinary, tmp_path, argv):
    assert out_matches_stdout(capsysbinary, tmp_path, argv) == 0


@pytest.mark.parametrize("fmt", ["report", "json"])
def test_out_holds_a_proof_mismatch(capsysbinary, monkeypatch, tmp_path, fmt):
    # one bit of the first rows of each run flipped, as in
    # test_inrsn_counts_a_flipped_pair
    rank_rows, run_check = order.rank_rows, cli.run_check
    calls = []

    def flip_first(*args):
        calls.append(args)
        rows = rank_rows(*args)
        return flip_a_pair(rows) if len(calls) == 1 else rows

    def fresh_run(*args):
        calls.clear()
        return run_check(*args)

    patch_everywhere(monkeypatch, rank_rows, flip_first)
    monkeypatch.setattr(cli, "run_check", fresh_run)
    argv = ["verify", "--check", "inrsn", "--n", "2", "--format", fmt]
    assert out_matches_stdout(capsysbinary, tmp_path, argv) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["enum", "--n", "7", "--family", "rook", "--format", "count"],
        ["count", "--n", "7", "--family", "rook"],
    ],
)
def test_counting_a_family_streams(argv):
    # the 130,922 rooks of size 7 take about 15 MB as a list; the command
    # peaks at 0.25 MiB (enum) and 0.27 MiB (count) in a fresh interpreter
    peak, out = fresh_peak("from rooks import cli", f"assert cli.main({argv!r}) == 0")
    counts = re.findall(r"oracle=(\d+)", out) if argv[0] == "count" else [out]
    assert sum(map(int, counts)) == 130922
    assert peak < 2 * 2**20, peak


def test_listing_a_family_as_json_streams():
    # the lines are drawn block by block from `line_blocks`, and the
    # command peaks at 0.43 MiB in a fresh interpreter; holding them all and
    # then one `json.dumps` string peaked at 22 MiB
    argv = ["enum", "--n", "7", "--family", "rook", "--format", "json"]
    peak, out = fresh_peak("from rooks import cli", f"assert cli.main({argv!r}) == 0")
    obj = json.loads(out)
    assert obj["count"] == len(obj["elements"]) == 130922
    assert peak < 2 * 2**20, peak


def test_json_output_unchanged(capsys):
    for command, digest in JSON_DIGESTS.items():
        code, out = run(capsys, *command.split(), "--format", "json")
        assert code == 0 and sha256(out) == digest, command


EMPTY_SLICES = [
    [command, "--n", "2", "--family", "borel-nil", "--rank", "2", "--format", "json"]
    for command in ("enum", "hasse")
]


@pytest.mark.parametrize(
    "argv", [a for a in every_format() if a[-1] == "json"] + EMPTY_SLICES, ids=" ".join
)
def test_json_is_what_json_dumps_writes(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    assert out == json.dumps(check_json(out), indent=2, sort_keys=True) + "\n"


def test_empty_slices_print_empty_lists(capsys):
    enum, hasse = (check_json(run(capsys, *argv)[1]) for argv in EMPTY_SLICES)
    assert enum["count"] == 0 and enum["elements"] == []
    assert hasse["covers"] == hasse["elements"] == []


def test_every_empty_slice_at_n4_lists_nothing(capsys):
    # a prefix with no completion is no block: the listing prints no bare
    # prefix such as "(" or "(0,1,", only the newline of an empty stream
    empty = [
        (family, n, k)
        for family, kind in FAMILIES.items()
        for n in range(1, 5)
        if n % 2 == 0 or not kind.symplectic
        for k in range(n + 1)
        if count_family(FamilySpec(n, family, rank=k)) == 0
    ]
    assert len(empty) == 9
    for family, n, k in empty:
        argv = ["enum", "--n", str(n), "--family", family, "--rank", str(k)]
        assert run(capsys, *argv) == (0, "\n"), argv
        expected = {"count": 0, "elements": [], "family": family, "n": n, "rank": k}
        code, out = run(capsys, *argv, "--format", "json")
        assert (code, out) == (0, json.dumps(expected, indent=2, sort_keys=True) + "\n"), argv


@pytest.mark.parametrize("fmt, other_items", [("oneline", 0), ("json", 8)])
def test_a_listing_gives_the_writer_one_item_per_block(monkeypatch, fmt, other_items):
    # the 130,922 rooks of size 7 reach the writer as the 9,276 blocks of
    # the family walk, each block's lines joined in one call (the JSON
    # object adds its braces and its other keys)
    items = []
    monkeypatch.setattr(cli, "_emit_lines", lambda lines, out: items.extend(lines))
    assert cli.main(["enum", "--n", "7", "--family", "rook", "--format", fmt]) == 0
    assert len(items) == 9276 + other_items
    assert sum(item.count("\n") + 1 for item in items) == 130922 + other_items


@pytest.mark.parametrize(
    "value",
    [
        (),
        None,
        True,
        {},
        {"b": {"d": {"e": []}, "c": None}, "a": [False, 1.5, "\u00e9\"\n"]},
        [{"k": (1, 2)}, {}, {"j": [[3, 4], (5, True)]}],
        {"covers": ((0, 1), (0, 2)), "ints": (3, 1, 2), "strs": ["(0,1)", "x"]},
        # covers across two chunk boundaries, the last chunk part full
        pytest.param({"covers": tuple((i, i + 1) for i in range(600))}, id="600 covers"),
        # the scalars that the writer writes without the json package
        [0, -7, 10**40, -(10**40), [None, [True, False]], {"t": True, "f": False, "z": None}],
        {'"\\': 'a"b\\c', "\x00\t\x1f\x7f": "\x01\n\r\u2028", "\u00e9\u4e2d": "\U0001f600 \u00fc"},
        ["\u00e9", 'q"', "\\", "\x1b"],
        # a float goes to json.dumps
        {"x": 0.1, "y": [-2.5e-300, 1e300]},
    ],
    ids=repr,
)
def test_json_lines_matches_json_dumps(value):
    assert "\n".join(cli.json_lines(value)) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "pairs, m",
    [
        # across two chunk boundaries, the last chunk part full
        pytest.param([(i, i + 1) for i in range(600)], 601, id="600 pairs"),
        pytest.param([], 1, id="no pairs"),
        # a key past one machine word, and one whose j is 0
        pytest.param([(2, 10**40), (3, 0)], 10**40 + 1, id="big keys"),
    ],
)
def test_pair_keys_are_written_as_json_dumps_writes_their_pairs(pairs, m):
    # the writer takes the keys i m + j of the pairs, and `json.dumps` the
    # pairs themselves
    keys = tuple(i * m + j for i, j in pairs)
    value = {"covers": cli.PairKeys(keys, m), "b": [cli.PairKeys(keys[:1], m)]}
    expected = {"covers": pairs, "b": [pairs[:1]]}
    assert "\n".join(cli.json_lines(value)) == json.dumps(expected, indent=2, sort_keys=True)


def test_strings_are_quoted_by_json_encoder_without_the_c_module(monkeypatch):
    # an interpreter built without `_json` quotes with `json.encoder`
    monkeypatch.setitem(sys.modules, "_json", None)
    value = {"\u00e9\"": ["a\\", "\x00"], "k": "\u4e2d\n"}
    assert "\n".join(cli.json_lines(value)) == json.dumps(value, indent=2, sort_keys=True)


def test_covers_are_written_in_chunks():
    # no item of the writer holds more than CHUNK_LINES covers; `hasse`
    # hands its covers over as `PairKeys`, whose pairs the writer makes
    # one item at a time
    count = 2 * cli.CHUNK_LINES + 88
    keys = tuple(i * (count + 1) + i + 1 for i in range(count))  # the pairs (i, i + 1)
    items = list(cli.json_lines({"covers": cli.PairKeys(keys, count + 1)}))
    assert [item.count("[") for item in items[2:-2]] == [cli.CHUNK_LINES] * 2 + [88]


def test_hasse_json_hands_its_covers_over_as_pair_keys(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "json_lines", seen.append)
    monkeypatch.setattr(cli, "_emit_lines", lambda lines, out: None)
    assert cli.main(["hasse", "--n", "3", "--family", "rook", "--format", "json"]) == 0
    [report] = seen
    covers = report["covers"]
    assert type(covers) is cli.PairKeys and len(covers.keys) == 79 and covers.m == 34
    assert type(covers.keys) is tuple and set(map(type, covers.keys)) == {int}


@pytest.mark.parametrize("items", [[], ["(0)"], ["(0,1)", "(1,0)", "x", "xy"], ["x"] * 300])
def test_a_json_stream_writes_a_list(items):
    # the items in blocks by their first character, each block one item
    blocks = [(a, [x[1:] for x in group]) for a, group in groupby(items, lambda x: x[:1])]
    streamed = cli.json_lines({"elements": cli.JsonStream(len(items), iter(blocks))})
    assert "\n".join(streamed) == json.dumps({"elements": items}, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "listed, held",
    [(dropping_last_line, "fewer"), (lambda blocks: chain(blocks, [("(3,3,", ["3)"])]), "more")],
    ids=["last line dropped", "one line added"],
)
def test_enum_json_that_misses_its_count_exits_3(capsys, monkeypatch, listed, held):
    # the count comes from `count_family` and the lines from `line_blocks`:
    # a listing of another length is an internal error
    blocks = cli.line_blocks
    monkeypatch.setattr(cli, "line_blocks", lambda spec: listed(blocks(spec)))
    assert cli.main(["enum", "--n", "3", "--family", "rook", "--format", "json"]) == 3
    err = capsys.readouterr().err
    assert err == f"error: internal: a JSON list counted at 34 items held {held}\n", err


def test_enum_json_schema(capsys):
    code, out = run(capsys, "enum", "--n", "2", "--family", "rook", "--format", "json")
    assert code == 0
    obj = check_json(out)
    assert obj["count"] == 7 and len(obj["elements"]) == 7


def test_order_worked_example(capsys):
    code, out = run(capsys, "order", "--n", "5", "--x", "(3,1,5,2,4)", "--y", "(5,2,4,3,1)")
    assert code == 0 and out == "true\n"
    code, out = run(capsys, "order", "--n", "4", "--x", "(0,0,0,2)", "--y", "(0,0,1,0)")
    assert code == 0 and out == "false\n"


def test_order_json(capsys):
    code, out = run(capsys, "order", "--n", "4", "--x", "(0,0,1,2)", "--y", "(0,0,2,1)", "--format", "json")
    assert code == 0
    assert check_json(out)["le"] is True


def test_hasse_dot(capsys):
    code, out = run(capsys, "hasse", "--n", "4", "--family", "borel-sp")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "digraph hasse {" and lines[-1] == "}"
    edge_lines = [ln for ln in lines if "->" in ln]
    node_lines = [ln for ln in lines if ln.endswith('";') and "->" not in ln]
    assert len(node_lines) == 25
    assert len(edge_lines) == 49
    assert '  "(0,0,0,0)" -> "(0,0,0,1)";' in lines


def test_hasse_nil_dot(capsys):
    code, out = run(capsys, "hasse", "--n", "4", "--family", "borel-sp-nil")
    assert code == 0
    lines = out.splitlines()
    assert len([ln for ln in lines if ln.endswith('";') and "->" not in ln]) == 12


def test_dot_export_joins_at_most_chunk_lines_per_item():
    # rook n=5: 1,546 nodes and 7,714 edges, each run of statements cut
    # into items of CHUNK_LINES lines and a last part-full one; the text is
    # that of one statement per line
    poset = order.build_poset(enum_family(FamilySpec(5, "rook")))
    items = list(cli.dot_export(poset))
    names = [format_one_line(x) for x in poset.elements]
    covers = sorted((names[i], names[j]) for i, j in poset.cover_pairs())
    lines = ["digraph hasse {", *(f'  "{x}";' for x in sorted(names))]
    lines += [f'  "{x}" -> "{y}";' for x, y in covers] + ["}"]
    assert "\n".join(items) == "\n".join(lines)
    sizes = [item.count("\n") + 1 for item in items]
    full_nodes, nodes_left = divmod(1546, cli.CHUNK_LINES)
    full_edges, edges_left = divmod(7714, cli.CHUNK_LINES)
    assert sizes == (
        [1] + [cli.CHUNK_LINES] * full_nodes + [nodes_left]
        + [cli.CHUNK_LINES] * full_edges + [edges_left] + [1]
    )


def test_hasse_names_come_sorted_for_every_size_accepted():
    # dot_export writes the names in the order of the elements: every
    # family and rank slice `hasse` builds is enumerated in the order of
    # its names, since every entry is one digit up to DESK_LIMIT
    assert symplectic.DESK_LIMIT <= 9
    for family, record in FAMILIES.items():
        step = 2 if record.symplectic else 1  # symplectic sizes are even
        for n in range(step, symplectic.DESK_LIMIT + 1, step):
            for rank in (None, *range(n + 1)):
                spec = FamilySpec(n, family, rank)
                if count_family(spec) > cli.HASSE_LIMIT:
                    continue
                names = [format_one_line(x) for x in enum_family(spec)]
                assert names == sorted(names), spec


def test_hasse_singleton(capsys):
    code, out = run(capsys, "hasse", "--n", "4", "--family", "borel-sp", "--rank", "4")
    assert code == 0
    assert out == 'digraph hasse {\n  "(1,2,3,4)";\n}\n'


def test_hasse_json(capsys):
    code, out = run(capsys, "hasse", "--n", "4", "--family", "borel-sp-nil", "--format", "json")
    assert code == 0
    obj = check_json(out)
    assert obj["graded"] is False or obj["graded"] is True
    assert len(obj["elements"]) == 12


def test_fold_text(capsys):
    code, out = run(capsys, "fold", "--n", "8", "--x", "(1,0,5,0,2,0,6,0)")
    assert code == 0
    assert out == "TB 4 8; 1,3 2,7 3,5 4,1\nLR 8 4; 1,4 2,1 5,2 6,3\nboth (3,1,2,4)\n"


def test_fold_json(capsys):
    code, out = run(capsys, "fold", "--n", "8", "--x", "(1,0,5,0,2,0,6,0)", "--format", "json")
    assert code == 0
    obj = check_json(out)
    assert obj["both"] == "(3,1,2,4)"


def test_unfold(capsys):
    code, out = run(capsys, "unfold", "--l", "2", "--x", "(2,1)")
    assert code == 0
    assert out.splitlines() == ["(0,0,1,2)", "(0,0,1,3)", "(0,1,0,2)", "(0,1,0,3)"]
    code, out = run(capsys, "unfold", "--l", "2", "--x", "(2,1)", "--format", "count")
    assert code == 0 and out == "4\n"
    code, out = run(capsys, "unfold", "--l", "2", "--x", "(2,1)", "--format", "json")
    assert code == 0 and check_json(out)["count"] == 4


def test_partition_both_ways(capsys):
    code, out = run(capsys, "partition", "--n", "9", "--x", "(0,0,0,0,2,5,3,1,6)")
    assert code == 0 and out == "18|2569|37|4\n"
    code, out = run(capsys, "partition", "--n", "9", "--x", "18|2569|37|4")
    assert code == 0 and out == "(0,0,0,0,2,5,3,1,6)\n"
    code, out = run(capsys, "partition", "--n", "9", "--x", "18|2569|37|4", "--format", "json")
    assert code == 0
    obj = check_json(out)
    assert obj["rook"] == "(0,0,0,0,2,5,3,1,6)" and obj["partition"] == "18|2569|37|4"


@pytest.mark.parametrize("m", [10, 12])
def test_partition_reads_its_own_output_past_nine(capsys, m):
    zero = "(" + ",".join(["0"] * m) + ")"
    code, out = run(capsys, "partition", "--n", str(m), "--x", zero)
    assert code == 0 and out == "|".join(map(str, range(1, m + 1))) + "\n"
    code, out = run(capsys, "partition", "--n", str(m), "--x", out.strip())
    assert code == 0 and out == zero + "\n"


@pytest.mark.parametrize("text", ["x", "1|2,x", "12|3a"])
def test_partition_with_a_non_integer_entry_exits_2(capsys, text):
    assert cli.main(["partition", "--n", "3", "--x", text]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: non-integer entry in {text!r}\n"


def test_count_reports(capsys):
    code, out = run(capsys, "count", "--l", "2", "--family", "borel-sp", "--format", "json")
    assert code == 0
    obj = check_json(out)
    by_k = {rep["parameters"]["k"]: rep for rep in obj["reports"]}
    assert by_k[1]["oracle"] == 10 and by_k[1]["paper_form"] == 18
    assert by_k[1]["agree_oracle_paper"] is False
    assert by_k[4]["oracle"] == 1


def test_count_renner_sp_rank_profile(capsys):
    code, out = run(capsys, "count", "--n", "4", "--family", "renner-sp", "--format", "json")
    assert code == 0
    obj = check_json(out)
    profile = [rep["oracle"] for rep in obj["reports"]]
    assert profile == [1, 16, 32, 0, 8]  # singular slices plus the Weyl group
    assert sum(profile) == 57
    assert all(rep["agree_oracle_proof"] for rep in obj["reports"])


def test_count_single_rank(capsys):
    code, out = run(capsys, "count", "--n", "4", "--family", "rook", "--rank", "2")
    assert code == 0
    assert out == "n=4 k=2  oracle=72 proof=72 paper=-  proof:ok paper:-\n"
    code, out = run(capsys, "count", "--n", "8", "--family", "rook", "--rank", "0")
    assert code == 0
    assert out == "n=8 k=0  oracle=1 proof=1 paper=-  proof:ok paper:-\n"


def test_verify_folding_report(capsys):
    code, out = run(capsys, "verify", "--check", "folding", "--l", "2")
    assert code == 0
    assert "# (2,1)" in out
    j2_line = next(ln for ln in out.splitlines() if ln.endswith("# (2,1)"))
    assert "oracle=4" in j2_line and "proof=4" in j2_line
    assert out.splitlines()[-1] == "result: ok"


def test_verify_json_schema(capsys):
    for check, args in [
        ("formula", ["--l", "2"]),
        ("nilpotent", ["--n", "4"]),
        ("admissible", ["--l", "3"]),
    ]:
        code, out = run(capsys, "verify", "--check", check, *args, "--format", "json")
        assert code == 0
        obj = check_json(out)
        assert obj["check"] == check and obj["proof_agreement"] is True


def test_every_verify_check_passes(capsys):
    assert set(cli.VERIFY_CHECKS) == set(VERIFY_DIGESTS)
    for check in cli.VERIFY_CHECKS:
        code, out = run(capsys, "verify", "--check", check)
        assert code == 0, (check, out.splitlines()[-1:])
        assert out.splitlines()[-1] == "result: ok"
        assert sha256(out) == VERIFY_DIGESTS[check], check


def test_verify_reports_at_the_largest_sizes_unchanged(capsys):
    for command, digest in VERIFY_LARGEST_DIGESTS.items():
        check, flag, size = command.split()
        assert (flag, int(size)) == ("--" + verify.CHECKS[check][0], verify.CHECKS[check][3])
        code, out = run(capsys, "verify", "--check", check, flag, size)
        assert code == 0 and sha256(out) == digest, command


def test_count_reports_unchanged(capsys):
    assert set(FAMILIES) == set(COUNT_N4_DIGESTS)
    for family in FAMILIES:
        code, out = run(capsys, "count", "--n", "4", "--family", family)
        assert code == 0 and sha256(out) == COUNT_N4_DIGESTS[family], family
    code, out = run(capsys, "count", "--n", "6", "--family", "borel-sp")
    assert code == 0 and sha256(out) == COUNT_N6_BOREL_SP_DIGEST


def test_sp_families_at_n8_unchanged(capsys):
    for command, digest in SP_N8_DIGESTS.items():
        code, out = run(capsys, *command.split())
        assert code == 0 and sha256(out) == digest, command


def test_borel_sp_rank_tables_at_l4_unchanged(capsys):
    for command, digest in BOREL_SP_L4_DIGESTS.items():
        code, out = run(capsys, *command.split())
        assert code == 0 and sha256(out) == digest, command


def test_count_rejects_both_sizes(capsys):
    assert cli.main(["count", "--n", "4", "--l", "3", "--family", "rook"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: count takes --n or --l, not both\n"


def test_verify_proof_mismatch_exits_1(capsys, monkeypatch):
    def fake_check(size):
        return [CountReport((("n", 1),), 1, proof_form=2)]

    monkeypatch.setitem(verify.CHECKS, "formula", verify.CHECKS["formula"][:4] + (fake_check,))
    code, out = run(capsys, "verify", "--check", "formula")
    assert code == 1
    assert out.splitlines()[-1] == "result: PROOF MISMATCH"


def test_internal_error_exits_3(capsys, monkeypatch):
    def broken_check(size):
        raise RuntimeError("standard form of (1, 0) is not unique: 2 candidates")

    monkeypatch.setitem(
        verify.CHECKS, "standard-form", verify.CHECKS["standard-form"][:4] + (broken_check,)
    )
    assert cli.main(["verify", "--check", "standard-form"]) == 3
    err = capsys.readouterr().err
    assert err == "error: internal: standard form of (1, 0) is not unique: 2 candidates\n"


def test_census_that_misses_a_rank_exits_1(capsys, monkeypatch):
    # a census that fails to partition a rank is a proof mismatch in the
    # report rows, not an internal error
    census = counting._census

    def one_too_many(n):
        counts = census(n)
        counts[(0, 0, 0)] += 1
        return counts

    monkeypatch.setattr(counting, "_census", one_too_many)
    code, out = run(capsys, "verify", "--check", "triangular", "--n", "3")
    assert code == 1
    lines = out.splitlines()
    assert lines[-1] == "result: PROOF MISMATCH"
    assert "n=3 k=0  oracle=2 proof=1 paper=-  proof:MISMATCH paper:-  # census sum" in lines


def flip_a_pair(rows):
    # bit 1 of row 0: one pair, and not a member with itself
    return [rows[0] ^ 0b10, *rows[1:]]


@pytest.mark.parametrize("builder", ["rank_rows", "standard_form_rows"])
def test_inrsn_counts_a_flipped_pair(monkeypatch, builder):
    # one wrong bit in the rows of either route must show as one
    # disagreement, so the check cannot be comparing a route with itself;
    # only the first rows built, the rook route's, are changed
    original = {"rank_rows": order.rank_rows, "standard_form_rows": standard.standard_form_rows}[builder]
    built = []

    def flip_first(*args):
        made = original(*args)
        built.append(args)
        if len(built) > 1:
            return made
        if builder == "standard_form_rows":
            members, rows = made
            return members, flip_a_pair(rows)
        return flip_a_pair(made)

    patch_everywhere(monkeypatch, original, flip_first)
    reports = verify.run_check("inrsn", n=2)
    rows = {rep.label: rep.oracle for rep in reports}
    assert rows["one-line vs standard-form disagreements"] == 1
    assert rows["ambient vs intrinsic symplectic disagreements"] == 0
    assert verify.proof_agreement(reports) is False


def test_the_inrsn_check_makes_no_pair_test(capsys, monkeypatch):
    # both routes build rows: no pair test of either route runs, under any
    # name a module holds it by, and the report is the pinned one; the
    # standard-form pair tests (bcr_le_ppr, forms_le) live only beside the
    # tests, out of the library's reach
    def refused(*args):
        raise AssertionError(f"pair test called on {args}")

    for pair_test in (order.bcr_le, order.rank_count_le):
        patch_everywhere(monkeypatch, pair_test, refused)
    code, out = run(capsys, "verify", "--check", "inrsn", "--n", "4")
    assert code == 0
    assert sha256(out) == VERIFY_DIGESTS["inrsn"]


def reversed_nonzero_products(right_product):
    def broken(y):
        times_y = right_product(y)

        def product(row):
            p = times_y(row)
            return p[::-1] if any(p) else p

        return product

    return broken


def dropping_last_preimage(unfold_preimages):
    return lambda a: unfold_preimages(a)[:-1]


def one_more_at_rank_0(rank_count_rook):
    return lambda n, k: rank_count_rook(n, k) + (k == 0)


def dropping_last_member(stream):
    return lambda spec: iter(list(stream(spec))[:-1])


def weak_order(dominance):
    # the group's table with `below` closed over the simple reflections
    # alone: the weak order, which is the Bruhat order on S_2 and Sp_2 and
    # strictly inside it from S_3 on.  A cache of its own, so that
    # `clear_standard_caches` can empty it while it is patched in
    @lru_cache(maxsize=None)
    def broken(kind, n):
        table = dominance(kind, n)
        ctx = weyl.group_context(kind, n)
        length = [ctx.lengths[w] for w in ctx.elements]
        below = [0] * len(length)
        for v in sorted(range(len(length)), key=length.__getitem__):
            below[v] = 1 << v
            for s in ctx.generators:
                u = table.index[multiply(ctx.elements[v], s)]
                if length[u] < length[v]:
                    below[v] |= below[u]
        return table._replace(below=tuple(below))

    return broken


def one_more_at_k_1(form):
    return lambda n, k: form(n, k) + (k == 1)


def one_more(count):
    return lambda *args: count(*args) + 1


def dropping_last(listing):
    return lambda *args: listing(*args)[:-1]


def reversed_result(make):
    return lambda *args: make(*args)[::-1]


def complemented(rows):
    full = (1 << len(rows)) - 1
    return [full ^ row for row in rows]


def complemented_rank_rows(rank_rows):
    return lambda elems: complemented(rank_rows(elems))


def complemented_form_rows(standard_form_rows):
    def broken(elems, ctx):
        members, rows = standard_form_rows(elems, ctx)
        return members, complemented(rows)

    return broken


def dropping_one_image_of_each(fold_images):
    return lambda l: {a: preimages[:-1] for a, preimages in fold_images(l).items()}


# each breaks `build_poset` or `poset_ranks`, whose records both hold the
# ranks and the extrema
def losing_a_maximal(poset_of):
    def broken(elements):
        poset = poset_of(elements)
        return poset._replace(maximals=poset.maximals[:-1])

    return broken


def ranks_one_higher(poset_of):
    def broken(elements):
        poset = poset_of(elements)
        return poset._replace(rank_of=tuple(r + 1 for r in poset.rank_of))

    return broken


# one break of one route per row, at the smallest size where it shows:
# (check, size flag, size, module, name, the broken function made from the
# original)
BROKEN_ROUTES = [
    ("nilpotent", "--n", 3, nilpotent, "right_product", reversed_nonzero_products),
    ("folding", "--l", 1, folding, "unfold_preimages", dropping_last_preimage),
    ("triangular", "--n", 1, counting, "rank_count_rook", one_more_at_rank_0),
    ("rank-counts", "--n", 1, symplectic, "iter_family_ranks", dropping_last_member),
    ("standard-form", "--n", 3, standard, "_dominance", weak_order),
    ("admissible", "--l", 1, counting, "admissible_count", one_more_at_k_1),
    ("admissible", "--l", 1, symplectic, "enum_admissible", dropping_last),
    ("formula", "--l", 1, symplectic, "count_family", one_more),
    ("stirling-borel", "--n", 1, counting, "stirling2", one_more_at_k_1),
    ("maxelements", "--l", 2, symplectic, "rank_slice_minimum", reversed_result),
    ("parabolic", "--l", 2, weyl, "generated_subgroup", dropping_last),
    ("inrsn", "--n", 1, standard, "standard_form_rows", complemented_form_rows),
    ("inrsn", "--n", 1, order, "rank_rows", complemented_rank_rows),
    ("standard-form", "--n", 2, weyl, "min_coset_reps", dropping_last),
    ("inrsn", "--n", 3, standard, "_dominance", weak_order),
    ("folding", "--l", 1, folding, "fold_images", dropping_one_image_of_each),
    ("folding", "--l", 1, counting, "preimage_weight", one_more),
    ("stirling-borel", "--n", 1, partitions, "rook_to_partition", dropping_last),
    ("maxelements", "--l", 2, order, "build_poset", losing_a_maximal),
    ("nilpotent", "--n", 3, order, "poset_ranks", ranks_one_higher),
]


def test_every_check_has_a_broken_route():
    assert set(verify.CHECKS) - {row[0] for row in BROKEN_ROUTES} == set()


def clear_standard_caches():
    for cached in (
        standard._dominance,
        standard._coset_data,
    ):
        cached.cache_clear()


def test_route_two_keeps_no_table_between_calls(monkeypatch):
    # route two reads the group's Bruhat table afresh in each call: with the
    # weak order patched in after a first call, the rows of the rooks of
    # size 3 lose the pairs that only the Bruhat order holds, and with the
    # Bruhat table back they are the first call's again
    ctx = weyl.group_context(weyl.SYMMETRIC, 3)
    elems = enum_family(FamilySpec(3, "rook"))
    members, rows = standard.standard_form_rows(elems, ctx)
    with monkeypatch.context() as patch:
        patch.setattr(standard, "_dominance", weak_order(standard._dominance))
        weak_members, weak_rows = standard.standard_form_rows(elems, ctx)
    assert weak_members == members
    assert all(weak & ~row == 0 for weak, row in zip(weak_rows, rows))
    assert sum((row ^ weak).bit_count() for row, weak in zip(rows, weak_rows)) == 42
    assert standard.standard_form_rows(elems, ctx) == (members, rows)


@pytest.mark.parametrize("check,flag,size,module,name,breaker", BROKEN_ROUTES)
def test_a_broken_route_is_a_proof_mismatch(capsys, monkeypatch, check, flag, size, module, name, breaker):
    # the break is patched under every name a module holds the function by,
    # and the caches of `standard` are emptied on both sides of it, so no
    # result of the unbroken route is read during the run, nor one of the
    # broken route after it
    original = getattr(module, name)
    patch_everywhere(monkeypatch, original, breaker(original))
    clear_standard_caches()
    try:
        code, out = run(capsys, "verify", "--check", check, flag, str(size))
    finally:
        clear_standard_caches()
    assert code == 1
    assert out.splitlines()[-1] == "result: PROOF MISMATCH"


def test_a_poset_without_a_maximal_element_is_an_internal_error(capsys, monkeypatch):
    # borel-nil n = 3 has one maximal element; a poset that loses it is a
    # fault of the library, not of the command line
    original = order.poset_ranks
    patch_everywhere(monkeypatch, original, losing_a_maximal(original))
    assert cli.main(["verify", "--check", "nilpotent", "--n", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal: the borel-nil poset of size 3 has no maximal element\n"


def test_the_nilpotent_check_reads_no_covers(capsys, monkeypatch):
    # the maximal elements and the longest chain come from the ranks pass;
    # the covers pass belongs to `build_poset` alone
    calls = 0
    covers_pass = order._hasse_from_rows

    def counted(*args):
        nonlocal calls
        calls += 1
        return covers_pass(*args)

    monkeypatch.setattr(order, "_hasse_from_rows", counted)
    code, out = run(capsys, "verify", "--check", "nilpotent", "--n", "5")
    assert (code, out.splitlines()[-1], calls) == (0, "result: ok", 0)
    order.build_poset([(0, 0), (0, 1)])
    assert calls == 1


def test_check_sizes_bound_each_check(capsys):
    for check, (flag, least, default, limit, func) in verify.CHECKS.items():
        assert flag in ("n", "l") and 1 <= least <= default <= limit, check
        assert callable(func), check
    code, out = run(capsys, "verify", "--check", "admissible", "--l", "6")
    assert code == 0 and out == run(capsys, "verify", "--check", "admissible")[1]
    assert cli.main(["verify", "--check", "formula", "--l", "5"]) == 2
    assert "formula supports l up to 4" in capsys.readouterr().err
    assert cli.main(["verify", "--check", "admissible", "--l", "9"]) == 2
    assert cli.main(["verify", "--check", "admissible", "--n", "4"]) == 2
    assert "takes --l only" in capsys.readouterr().err


@pytest.mark.parametrize("check", sorted(verify.CHECKS))
def test_check_sizes_refuse_below_the_smallest(capsys, check):
    # below its smallest size a check compares nothing and would pass vacuously
    flag, least, _, _, _ = verify.CHECKS[check]
    assert cli.main(["verify", "--check", check, f"--{flag}", str(least - 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: check {check} needs {flag} at least {least}, got {least - 1}\n"
    )
    code, out = run(capsys, "verify", "--check", check, f"--{flag}", str(least))
    assert code == 0 and out.splitlines()[-1] == "result: ok"


def test_paper_mismatch_keeps_exit_zero(capsys):
    code, out = run(capsys, "verify", "--check", "triangular", "--n", "2")
    assert code == 0
    assert "MISMATCH" in out  # printed-form deltas are logged, not fatal


def test_usage_errors_exit_2(capsys):
    assert cli.main(["nonsense"]) == 2
    capsys.readouterr()
    assert cli.main(["enum", "--n", "4"]) == 2  # missing --family
    capsys.readouterr()
    assert cli.main(["enum", "--n", "4", "--family", "bogus"]) == 2
    capsys.readouterr()
    assert cli.main(["order", "--n", "3", "--x", "(1,2)", "--y", "(1,2,3)"]) == 2
    capsys.readouterr()


def plain_lines(command):
    """Plain command lines of `command`: with each of its formats and with
    none, with and without each flag that is not required, each line with
    its flags in two orders; then one line for each choice of each flag
    with choices."""
    flags = cli._flags(command)

    def value(flag):
        spec = flags[flag]
        if "choices" in spec:
            return next(iter(spec["choices"]))
        return "3" if spec.get("type") is int else f"{flag}.txt"

    required = [flag for flag, spec in flags.items() if spec.get("required")]
    optional = [flag for flag in flags if flag not in required and flag != "format"]
    given = []
    for fmt in (None, *flags["format"]["choices"]):
        for k in range(len(optional) + 1):
            for chosen in combinations(optional, k):
                pairs = [(flag, value(flag)) for flag in (*required, *chosen)]
                pairs += [("format", fmt)] if fmt else []
                given += [pairs, pairs[::-1]]
    for flag, spec in flags.items():
        for choice in spec.get("choices", ()):
            given.append([(other, value(other)) for other in required if other != flag] + [(flag, choice)])
    return [[command, *chain.from_iterable((f"--{flag}", v) for flag, v in pairs)] for pairs in given]


def reads_as_argparse(reader, command):
    """Whether `reader` gives the namespace of argparse on every plain
    command line of `command`."""
    parser = cli.build_parser()
    return all(
        (args := reader(argv)) is not None and vars(args) == vars(parser.parse_args(argv))
        for argv in plain_lines(command)
    )


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_plain_command_lines_read_as_argparse_reads_them(command):
    assert reads_as_argparse(cli._plain_args, command)


def test_a_reader_that_drops_a_default_is_caught():
    def dropping_defaults(argv):
        # the namespace without the flags not given, whose defaults it drops
        args = cli._plain_args(argv)
        for flag in cli._flags(argv[0]):
            if f"--{flag}" not in argv:
                delattr(args, flag)
        return args

    for command in cli.COMMANDS:
        assert not reads_as_argparse(dropping_defaults, command), command


# command lines that are not plain, each with the exit code and the last
# line of stderr that argparse gives it
NOT_PLAIN = [
    (["-h"], 0, ""),
    (["enum", "-h"], 0, ""),
    (["enum", "--fam", "rook", "--n", "3", "--format", "count"], 0, ""),
    (["enum", "--n=3", "--family", "rook", "--format", "count"], 0, ""),
    (["enum", "--n", "3", "--n", "4", "--family", "rook", "--format", "count"], 0, ""),
    (["enum", "--n", "3", "--family", "rook", "--rank", "-1"], 2, "error: rank -1 out of range 0..3"),
    (["enum", "--n", "3"], 2, "rooks enum: error: the following arguments are required: --family"),
    (["enum", "--n", "x", "--family", "rook"], 2, "rooks enum: error: argument --n: invalid int value: 'x'"),
    (
        ["enum", "--n", "3", "--family", "bogus"],
        2,
        "rooks enum: error: argument --family: invalid choice: 'bogus' (choose from 'rook', 'borel', "
        "'borel-nil', 'renner-sp', 'borel-sp', 'borel-sp-nil')",
    ),
    (
        ["enum", "--n", "3", "--family", "rook", "--format", "xml"],
        2,
        "rooks enum: error: argument --format: invalid choice: 'xml' (choose from 'count', 'oneline', 'json')",
    ),
    (["enum", "--n", "3", "--family", "rook", "--bogus", "1"], 2, "rooks: error: unrecognized arguments: --bogus 1"),
    (["enum", "--n", "3", "--family", "rook", "extra"], 2, "rooks: error: unrecognized arguments: extra"),
    (
        ["bogus", "--n", "3"],
        2,
        "rooks: error: argument command: invalid choice: 'bogus' (choose from 'enum', 'count', 'order', "
        "'hasse', 'fold', 'unfold', 'partition', 'verify')",
    ),
    ([], 2, "rooks: error: the following arguments are required: command"),
]


@pytest.mark.parametrize("argv,code,error", NOT_PLAIN, ids=[" ".join(argv) or "none" for argv, _, _ in NOT_PLAIN])
def test_other_command_lines_go_to_argparse(capsys, argv, code, error):
    assert cli._plain_args(argv) is None
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    assert (captured.err.splitlines() or [""])[-1] == error
    assert captured.out.startswith("usage: rooks") == (argv[-1:] == ["-h"])


@pytest.mark.parametrize(
    "argv",
    [
        ["partition", "--n", "0", "--x", "()"],
        ["unfold", "--l", "0", "--x", "()"],
        ["order", "--n", "0", "--x", "()", "--y", "()"],
    ],
)
def test_size_zero_exits_2(capsys, argv):
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: size must be positive\n"


def test_resource_bounds_exit_2(capsys):
    assert cli.main(["enum", "--n", "9", "--family", "rook"]) == 2
    capsys.readouterr()
    assert cli.main(["verify", "--check", "formula", "--l", "5"]) == 2
    capsys.readouterr()
    assert cli.main(["verify", "--check", "inrsn", "--n", "7"]) == 2
    capsys.readouterr()


def test_hasse_size_limit(capsys):
    assert cli.HASSE_LIMIT == 25000
    assert cli.main(["hasse", "--n", "7", "--family", "rook"]) == 2
    assert "130922" in capsys.readouterr().err  # refused before the poset build
    code, out = run(capsys, "hasse", "--n", "7", "--family", "rook", "--rank", "1")
    assert code == 0
    assert len([ln for ln in out.splitlines() if ln.endswith('";') and "->" not in ln]) == 49


def test_hasse_rook_n6_within_the_limit(capsys):
    # 87,415 covers, as counted both by rank layers and by local moves
    code, out = run(capsys, "hasse", "--n", "6", "--family", "rook", "--format", "count")
    assert code == 0
    assert out == "nodes=13327\nedges=87415\n"


def test_hasse_refuses_before_enumerating(capsys, monkeypatch):
    def no_enumeration(spec):
        raise AssertionError(f"enumerated {spec}")

    monkeypatch.setattr(cli, "enum_family", no_enumeration)
    for argv, size in [
        (["--n", "8", "--family", "rook"], 1441729),
        (["--n", "7", "--family", "rook"], 130922),
        (["--n", "7", "--family", "rook", "--rank", "4"], 29400),
        (["--n", "8", "--family", "rook", "--rank", "5"], 376320),
    ]:
        assert cli.main(["hasse", *argv]) == 2, argv
        assert f"got {size};" in capsys.readouterr().err


def test_rank_forms_sum_to_the_family_count():
    # every proof form of `count`, summed over the ranks, against the size
    # that `hasse` judges by
    for family, (proof_form, _) in verify.RANK_FORMS.items():
        for n in (2, 4, 6, 8):
            size = count_family(FamilySpec(n, family))
            assert sum(proof_form(n, k) for k in range(n + 1)) == size, (family, n)


def test_hasse_refuses_sizes_beyond_enumeration(capsys, monkeypatch):
    # refused by `FamilySpec` before anything is counted
    def no_count(spec):
        raise AssertionError(f"counted {spec}")

    monkeypatch.setattr(cli, "count_family", no_count)
    for argv in (["--n", "9", "--family", "rook"],
                 ["--n", "40", "--family", "borel"],
                 ["--n", "2000", "--family", "borel-nil"],
                 ["--n", "100000", "--family", "rook", "--rank", "1"]):
        assert cli.main(["hasse", *argv]) == 2, argv
        n = argv[1]
        assert f"enumeration supports sizes up to 8, got {n}" in capsys.readouterr().err


def test_hasse_limit_holds_for_a_family_without_a_form(capsys, monkeypatch):
    monkeypatch.setattr(cli, "HASSE_LIMIT", 10)
    size = len(enum_family(FamilySpec(4, "borel-sp-nil")))
    assert size > 10
    assert cli.main(["hasse", "--n", "4", "--family", "borel-sp-nil"]) == 2
    assert f"got {size};" in capsys.readouterr().err
    code, _ = run(capsys, "hasse", "--n", "4", "--family", "borel-sp-nil",
                  "--rank", "0")
    assert code == 0


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    code = cli.main(["enum", "--n", "4", "--family", "borel-sp", "--rank", "2",
                     "--format", "count", "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    assert target.read_text() == "13\n"

