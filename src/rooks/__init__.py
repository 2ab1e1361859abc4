"""Exact combinatorics of rook monoids, symplectic Renner monoids, and the
Bruhat-Chevalley-Renner order.

`import rooks` loads none of the package's modules.  A public name is
imported from the module that defines it when it is first used, through the
module `__getattr__` of PEP 562 (https://peps.python.org/pep-0562/):
`rooks.count_family` loads `rooks.symplectic` and `rooks.rook`, and
`rooks.build_poset` loads `rooks.order`, which loads `rooks.weyl` only when
its standard-form route runs.  So `from rooks import X` and `rooks.X` give
the object that X's module defines, as do `rooks.order` and the other
modules named in `_EXPORTS`, and `rooks.cli` loads, command by command,
only the modules it runs.
"""

# module -> the public names it defines
_EXPORTS = {
    "counting": (
        "CountReport",
        "admissible_count",
        "bell",
        "preimage_weight",
        "rank_count_rook",
        "stirling2",
        "triangular_census",
    ),
    "folding": ("PartialMatrix", "fold", "unfold_preimages"),
    "nilpotent": ("NilpotentReport", "nilpotent_analysis"),
    "order": (
        "HasseDiagram",
        "StandardForm",
        "bcr_le",
        "build_poset",
        "standard_form",
        "standard_form_rows",
    ),
    "partitions": (
        "SetPartition",
        "parse_partition",
        "partition_standard_string",
        "partition_to_rook",
        "rook_to_partition",
    ),
    "rook": (
        "Rook",
        "diagonal_idempotent",
        "format_one_line",
        "multiply",
        "parse_one_line",
        "rank",
    ),
    "symplectic": (
        "FamilySpec",
        "ResourceLimitError",
        "count_family",
        "enum_admissible",
        "enum_family",
        "is_admissible",
        "is_symplectic_rook",
        "iter_family",
        "iter_family_ranks",
        "line_blocks",
        "theta_perm",
    ),
    "weyl": (
        "GroupContext",
        "ParabolicData",
        "coxeter_length",
        "group_context",
        "min_coset_reps",
        "parabolic_data",
        "symplectic_generators",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    from importlib import import_module

    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
