"""The records of the package: what a caller may rely on, whatever class
machinery builds them, and a start-up that does not load `dataclasses`,
`inspect` or `fractions` for them, nor a module the command does not run."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rooks
from rooks.counting import CountReport
from rooks.folding import PartialMatrix
from rooks.nilpotent import nilpotent_analysis
from rooks.order import build_poset
from rooks.standard import standard_form
from rooks.symplectic import FamilySpec, ResourceLimitError, enum_family
from rooks.weyl import SYMMETRIC, group_context, parabolic_data

# The same check runs as a step of .github/workflows/tests.yml.  `-S` keeps
# the machine's `site` from loading any of these modules first.  The command
# table needs `rooks.verify` (the check names), which loads
# `rooks.counting`, `rooks.rook` and `rooks.symplectic`; every other module
# of the package loads only for a command that runs it.  `--format json`
# loads `_json` for its quoting function, and no command loads `json`.
# `build_parser` loads argparse, which a plain command line never does.
STARTUP_CHECK = (
    "import sys, rooks.cli; rooks.cli.build_parser(); "
    "heavy = {'dataclasses', 'inspect', 'fractions', 'decimal', 'json', 'rooks.order', 'rooks.standard', "
    "'rooks.weyl', 'rooks.folding', 'rooks.nilpotent', 'rooks.partitions'} & set(sys.modules); "
    "sys.exit(f'loaded at start-up: {sorted(heavy)}' if heavy else 0)"
)
# Runs the command of its arguments and writes the names of the modules
# then loaded to stderr.  Each command line below is plain, so argparse, and
# the `gettext` and `locale` it loads, must not be among them.
COMMAND_CHECK = (
    "import sys, rooks.cli; code = rooks.cli.main(sys.argv[1:]); "
    "sys.stderr.write(' '.join(sorted(sys.modules))); sys.exit(code)"
)


def fresh_python(code: str, *args: str) -> subprocess.CompletedProcess:
    # a fresh interpreter: pytest itself has loaded dataclasses, inspect
    # and json, and this process every module of the package
    src = Path(rooks.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-S", "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
    )


def test_cli_startup_loads_no_dataclasses_inspect_or_fractions():
    result = fresh_python(STARTUP_CHECK)
    assert (result.returncode, result.stderr) == (0, "")


@pytest.mark.parametrize(
    "command,loads,refuses",
    [
        ("enum --n 3 --family rook --format count", set(), {"json", "rooks.order", "rooks.weyl"}),
        (
            "hasse --n 3 --family rook --format dot",
            {"rooks.order"},
            {"json", "rooks.standard", "rooks.weyl", "rooks.folding", "rooks.nilpotent", "rooks.partitions"},
        ),
        ("verify --check triangular --n 3", set(), {"rooks.order", "rooks.weyl"}),
        # JSON output quotes its strings with `_json` alone
        (
            "hasse --n 3 --family rook --format json",
            {"rooks.order", "_json"},
            {"json", "json.encoder", "rooks.standard", "rooks.weyl"},
        ),
        # the one-line route and the Hasse stage load no Weyl group code;
        # the standard-form route loads only for the checks that run it
        ("order --n 2 --x (1,0) --y (0,1)", {"rooks.order"}, {"rooks.standard", "rooks.weyl"}),
        ("verify --check nilpotent --n 3", {"rooks.order"}, {"rooks.standard", "rooks.weyl"}),
        ("verify --check maxelements --l 2", {"rooks.order"}, {"rooks.standard", "rooks.weyl"}),
        ("verify --check inrsn --n 2", {"rooks.order", "rooks.standard", "rooks.weyl"}, set()),
    ],
    ids=["enum", "hasse", "verify", "hasse json", "order", "nilpotent", "maxelements", "inrsn"],
)
def test_a_command_loads_only_the_modules_it_runs(command, loads, refuses):
    result = fresh_python(COMMAND_CHECK, *command.split())
    assert result.returncode == 0, result.stderr
    loaded = set(result.stderr.split())
    assert "rooks.cli" in loaded and loads <= loaded
    assert (refuses | {"argparse", "gettext", "locale"}) & loaded == set()


def replaced(record, **changes):
    """The record with `changes`, by the record's own copy-with-changes."""
    if hasattr(record, "_replace"):
        return record._replace(**changes)
    return dataclasses.replace(record, **changes)


@pytest.mark.parametrize(
    "args,error,text",
    [
        ((4, "bogus"), ValueError, "unknown family 'bogus'; choose from ("),
        ((0, "rook"), ValueError, "size must be positive"),
        ((2.5, "rook"), ValueError, "size must be an integer, got 2.5"),
        ((3, "renner-sp"), ValueError, "size must be even and positive, got 3"),
        ((4, "rook", 5), ValueError, "rank 5 out of range 0..4"),
        ((4, "rook", "2"), ValueError, "rank must be an integer, got '2'"),
        ((9, "rook"), ResourceLimitError, "enumeration supports sizes up to 8, got 9"),
    ],
)
def test_family_spec_checks_every_construction(args, error, text):
    with pytest.raises(error) as direct:
        FamilySpec(*args)
    assert str(direct.value).startswith(text)
    if direct.type is not ResourceLimitError:
        assert not isinstance(direct.value, ResourceLimitError)
    changes = dict(zip(("n", "family", "rank"), args))
    with pytest.raises(error) as copied:
        replaced(FamilySpec(4, "rook"), **changes)
    assert str(copied.value) == str(direct.value)
    if hasattr(FamilySpec, "_make"):
        with pytest.raises(error):
            FamilySpec._make((*args, None)[:3])


def test_family_spec_keeps_its_values():
    spec = FamilySpec(6, "borel-sp", 2)
    assert (spec.n, spec.family, spec.rank) == (6, "borel-sp", 2)
    assert FamilySpec(6, "borel-sp").rank is None
    assert replaced(spec, rank=None) == FamilySpec(6, "borel-sp")
    assert repr(spec) == "FamilySpec(n=6, family='borel-sp', rank=2)"


def test_partial_matrix_sorts_and_checks_every_construction():
    pm = PartialMatrix(2, 3, [(2, 1), (1, 3)])
    assert pm.cells == ((1, 3), (2, 1))
    assert replaced(pm, cells=((2, 3), (1, 1))).cells == ((1, 1), (2, 3))
    for args, text in (
        ((2, 3, ((3, 1),)), "cell (3,1) outside 2x3"),
        ((2, 3, ((1, 1), (1, 2))), "two cells share a line at (1,2)"),
        ((2, 3, ((1, 1), (2, 1))), "two cells share a line at (2,1)"),
    ):
        with pytest.raises(ValueError) as excinfo:
            PartialMatrix(*args)
        assert str(excinfo.value) == text
    with pytest.raises(ValueError) as excinfo:
        replaced(pm, rows=1)
    assert str(excinfo.value) == "cell (2,1) outside 1x3"
    if hasattr(PartialMatrix, "_make"):
        with pytest.raises(ValueError):
            PartialMatrix._make((1, 3, pm.cells))


def test_nilpotent_report_count_is_the_field():
    report = nilpotent_analysis(FamilySpec(3, "borel-nil"))
    # as a NamedTuple the field shadows tuple.count; it must read the field
    assert report.count == len(enum_family(FamilySpec(3, "borel-nil"))) == 5


def all_records():
    ctx = group_context(SYMMETRIC, 2)
    return [
        CountReport((("n", 1),), 1),
        PartialMatrix(2, 2, ((2, 1),)),
        nilpotent_analysis(FamilySpec(3, "borel-nil")),
        standard_form((0, 1), ctx),
        build_poset(enum_family(FamilySpec(2, "borel"))),
        FamilySpec(4, "rook"),
        ctx,
        parabolic_data(ctx.chain[1], ctx),
    ]


@pytest.mark.parametrize("record", all_records(), ids=lambda r: type(r).__name__)
def test_every_record_refuses_attribute_assignment(record):
    if hasattr(record, "_fields"):
        names = record._fields
    else:
        names = [field.name for field in dataclasses.fields(record)]
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1
