"""Exact combinatorics of rook monoids, symplectic Renner monoids, and the
Bruhat-Chevalley-Renner order."""

from .counting import (
    CountReport,
    admissible_count,
    bell,
    preimage_weight,
    rank_count_rook,
    stirling2,
    triangular_census,
)
from .folding import PartialMatrix, fold, unfold_preimages
from .nilpotent import NilpotentReport, nilpotent_analysis
from .order import (
    HasseDiagram,
    StandardForm,
    bcr_le,
    build_poset,
    standard_form,
    standard_form_rows,
)
from .partitions import (
    SetPartition,
    parse_partition,
    partition_standard_string,
    partition_to_rook,
    rook_to_partition,
)
from .rook import (
    Rook,
    diagonal_idempotent,
    format_one_line,
    multiply,
    parse_one_line,
    rank,
)
from .symplectic import (
    FamilySpec,
    ResourceLimitError,
    count_family,
    enum_admissible,
    enum_family,
    is_admissible,
    is_symplectic_rook,
    iter_family,
    iter_family_ranks,
    line_blocks,
)
from .weyl import (
    GroupContext,
    ParabolicData,
    coxeter_length,
    group_context,
    min_coset_reps,
    parabolic_data,
    symplectic_generators,
    theta_perm,
)

__version__ = "0.1.0"
