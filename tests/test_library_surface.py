"""The library holds only what it runs: every top-level function and class in
`rooks` is referenced by some module of the library other than through its
own body.  Reference routes that only the tests call live beside the tests,
in `rook_oracles.py`, `poset_oracles.py` and `exact.py`.  The package's namespace gives
the same objects as when `import rooks` loaded every module, though it now
loads each on first use."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import rooks

# Hooks that the interpreter calls, not the library: the package's PEP 562
# `__getattr__`, which imports a public name's module when it is first used.
INTERPRETER_HOOKS = {"__init__.__getattr__"}

# The public names of `rooks`, as the package imported them all when it
# loaded every module.
PUBLIC_NAMES = {
    "CountReport", "admissible_count", "bell", "preimage_weight", "rank_count_rook",
    "stirling2", "triangular_census", "PartialMatrix", "fold", "unfold_preimages",
    "NilpotentReport", "nilpotent_analysis", "HasseDiagram", "StandardForm", "bcr_le",
    "build_poset", "standard_form", "standard_form_rows", "SetPartition", "parse_partition",
    "partition_standard_string", "partition_to_rook", "rook_to_partition", "Rook",
    "diagonal_idempotent", "format_one_line", "multiply", "parse_one_line", "rank",
    "FamilySpec", "ResourceLimitError", "count_family", "enum_admissible", "enum_family",
    "is_admissible", "is_symplectic_rook", "iter_family", "iter_family_ranks", "line_blocks",
    "GroupContext", "ParabolicData", "coxeter_length", "group_context", "min_coset_reps",
    "parabolic_data", "symplectic_generators", "theta_perm",
}


def unreferenced_definitions(package: Path) -> set[str]:
    """`module.name` of each top-level def or class of the package whose name
    no Name or Attribute node of the package uses outside its own body;
    imports and exports do not count as uses."""
    definitions = []
    uses = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((path.stem, node))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                uses.append((path.stem, name, node.lineno))
    return {
        f"{module}.{node.name}"
        for module, node in definitions
        if not any(
            name == node.name
            and not (where == module and node.lineno <= line <= node.end_lineno)
            for where, name, line in uses
        )
    }


def test_every_library_definition_is_used_by_the_library():
    unused = unreferenced_definitions(Path(rooks.__file__).parent)
    assert sorted(unused - INTERPRETER_HOOKS) == []


def top_level_homes(package: Path) -> dict[str, list[str]]:
    """The modules of the package that bind each name at top level, by a
    def, a class or an assignment."""
    homes = defaultdict(list)
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                homes[node.name].append(path.stem)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        homes[target.id].append(path.stem)
    return homes


def test_every_public_name_resolves_to_its_own_modules_object():
    assert len(rooks.__all__) == len(PUBLIC_NAMES) and set(rooks.__all__) == PUBLIC_NAMES
    homes = top_level_homes(Path(rooks.__file__).parent)
    for name in rooks.__all__:
        assert len(homes[name]) == 1, (name, homes[name])
        module = importlib.import_module(f"rooks.{homes[name][0]}")
        assert getattr(rooks, name) is vars(module)[name], name
    namespace = {}
    exec("from rooks import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        getattr(rooks, "no_such_name")
    with pytest.raises(ImportError):
        exec("from rooks import no_such_name", {})


def test_the_modules_the_package_loaded_resolve_on_first_use():
    # in a fresh interpreter, where `import rooks` has loaded none of them
    src = Path(rooks.__file__).resolve().parents[1]
    check = (
        "import sys, rooks; names = sys.argv[1:]; "
        "assert not {f'rooks.{name}' for name in names} & set(sys.modules); "
        "assert all(getattr(rooks, name) is sys.modules[f'rooks.{name}'] for name in names)"
    )
    modules = [
        "counting", "folding", "nilpotent", "order", "partitions", "rook", "standard", "symplectic", "weyl",
    ]
    result = subprocess.run(
        [sys.executable, "-S", "-c", check, *modules],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
    )
    assert (result.returncode, result.stderr) == (0, "")


def imported_modules(module: str) -> set[str]:
    """The modules of the package that `rooks.<module>` reaches through its
    imports, at the top of a module or inside a function, read off the
    source: `from .weyl import x` and `from . import weyl` both reach
    `rooks.weyl`."""
    package = Path(rooks.__file__).parent
    reached, todo = set(), [f"rooks.{module}"]
    while todo:
        name = todo.pop()
        path = package / f"{name.removeprefix('rooks.')}.py"
        if name in reached or not name.startswith("rooks.") or not path.exists():
            continue  # seen, outside the package, or a name, not a module
        reached.add(name)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                todo.extend(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = ".".join(filter(None, ["rooks" if node.level else "", node.module]))
                todo.append(base)
                todo.extend(f"{base}.{alias.name}" for alias in node.names)
    return reached - {f"rooks.{module}"}


@pytest.mark.parametrize(
    "module,reaches,refuses",
    [
        ("order", {"rooks.rook"}, {"rooks.standard", "rooks.weyl"}),
        ("standard", {"rooks.rook", "rooks.weyl"}, {"rooks.order"}),
    ],
    ids=["order", "standard"],
)
def test_the_two_order_routes_import_nothing_of_each_other(module, reaches, refuses):
    # the one-line route (`order`) and the standard-form route (`standard`)
    # are checked against each other by `verify --check inrsn`, so neither
    # may reach the other's code, nor the one-line route the Weyl groups
    imported = imported_modules(module)
    assert reaches <= imported
    assert imported & refuses == set()


def test_the_only_caches_are_keyed_by_group_or_rank():
    # every cache of the library, by the module that defines it, with its
    # key: a group (kind, n) or one of its ranks.  No cache is keyed by an
    # element, so none grows with the monoid
    package = Path(rooks.__file__).parent
    caches = {}
    for path in sorted(package.glob("*.py")):
        module = importlib.import_module(f"rooks.{path.stem}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                caches[f"{path.stem}.{name}"] = list(inspect.signature(value).parameters)
    assert caches == {
        "weyl.group_context": ["kind", "n"],
        "standard._dominance": ["kind", "n"],
        "standard._coset_data": ["kind", "n", "r"],
    }
