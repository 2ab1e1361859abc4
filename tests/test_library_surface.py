"""The library holds only what it runs: every top-level function and class in
`rooks` is referenced by some module of the library other than through its
own body.  Reference routes that only the tests call live beside the tests,
in `rook_oracles.py` and `poset_oracles.py`."""

import ast
import importlib
import inspect
from pathlib import Path

import rooks

# The exact-rational module.  ROADMAP item 4 turns it into the exact
# linear-algebra module behind a verify check; until then only the tests
# call it.
FRACTION_BLOCK = {"exact.rational_matrix", "exact.rook_matrix", "exact.msp_membership"}


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
    assert sorted(unused - FRACTION_BLOCK) == []


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
        "order._dominance": ["kind", "n"],
        "order._coset_data": ["kind", "n", "r"],
        "order._slot_table": ["kind", "n", "r"],
    }
