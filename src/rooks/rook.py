"""Exact arithmetic on rooks: partial permutation matrices in one-line notation.

A rook of size n is a 0/1 matrix with at most one nonzero entry in each row
and each column.  It is stored as the tuple ``(x_1, ..., x_n)`` where ``x_j``
is the row index of the entry in column j, or 0 when column j is empty.
Plain tuples keep every value hashable and lexicographically comparable,
which the enumeration and poset code relies on for deterministic output.

The same convention is shared by every module in the package: ``x_j`` is a
row index, the column set is the domain and the row set is the range of the
underlying injective partial map, and ``multiply`` is the 0/1 matrix product.

Everything here is integer tuple work.  The exact-rational matrices of a rook
and the symplectic-monoid membership test live beside the tests
(`tests/exact.py`), which alone call them, so the library loads no
`fractions`.
"""

from __future__ import annotations

from operator import index, itemgetter
from typing import Optional, Sequence

Rook = tuple[int, ...]


def check_int(value, what: str) -> int:
    """`value` as an int by `operator.index`; a non-integer is a ValueError."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def check_rook(values: Sequence[int], n: Optional[int] = None) -> Rook:
    """Validate one-line data and return it as a canonical tuple.

    >>> check_rook([3, 0, 4, 0])
    (3, 0, 4, 0)
    """
    x = tuple(check_int(v, "entry") for v in values)
    if n is not None and len(x) != check_int(n, "size"):
        raise ValueError(f"expected {n} entries, got {len(x)}")
    size = len(x)
    if size == 0:
        raise ValueError("a rook needs positive size")
    for v in x:
        if not 0 <= v <= size:
            raise ValueError(f"entry {v} out of range 0..{size}")
    nonzero = [v for v in x if v]
    if len(set(nonzero)) != len(nonzero):
        raise ValueError("duplicate nonzero entry breaks injectivity")
    return x


def parse_one_line(text: str, n: int) -> Rook:
    """Parse the text form "(x1,x2,...,xn)"; spaces are tolerated."""
    if check_int(n, "size") < 1:
        raise ValueError("size must be positive")
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"expected a parenthesized list, got {text!r}")
    parts = s[1:-1].split(",")
    if len(parts) != n:
        raise ValueError(f"expected {n} entries, got {len(parts)}")
    try:
        values = [int(p.strip()) for p in parts]
    except ValueError:
        raise ValueError(f"non-integer entry in {text!r}") from None
    return check_rook(values, n)


def format_one_line(x: Rook) -> str:
    return "(" + ",".join(str(v) for v in x) + ")"


def one_line_tail(tail: Rook) -> str:
    """The text of the one-line form from the first column of `tail` on:
    the text of the columns before it, each as "v,", after "(", joined to
    this is `format_one_line` of the whole rook.

    >>> "(3,0," + one_line_tail((4, 0))
    '(3,0,4,0)'
    """
    return ",".join(str(v) for v in tail) + ")"


def identity_rook(n: int) -> Rook:
    return tuple(range(1, n + 1))


def domain(x: Rook) -> tuple[int, ...]:
    """Column indices of the nonzero entries, increasing."""
    return tuple(j for j, v in enumerate(x, start=1) if v)


def range_of(x: Rook) -> tuple[int, ...]:
    """Row indices of the nonzero entries, increasing."""
    return tuple(sorted(v for v in x if v))


def rank(x: Rook) -> int:
    """The number of nonzero entries, counted by one C-level `count` of the
    zeros (`symplectic.iter_family_ranks` calls it once per memoised tail)."""
    return len(x) - x.count(0)


def cells(x: Rook) -> tuple[tuple[int, int], ...]:
    """Nonzero positions as (row, column) pairs, sorted."""
    return tuple(sorted((v, j) for j, v in enumerate(x, start=1) if v))


def is_permutation(x: Rook) -> bool:
    return 0 not in x


def gather(positions):
    """The map row -> (row[p] for p in positions) as a tuple, or as bytes on
    bytes, in one C-level call.  `itemgetter` of one index returns the item
    itself and of none is a TypeError, so one or no position gathers a
    slice instead.

    >>> gather((2, 0))("abc"), gather((1,))((5, 6)), gather(())((5, 6))
    (('c', 'a'), (6,), ())
    """
    if len(positions) > 1:
        return itemgetter(*positions)
    return itemgetter(slice(positions[0], positions[0] + 1) if positions else slice(0))


def right_product(y: Rook):
    """The map (0,) + x -> multiply(x, y) as one C-level gather.

    Entry j of the product is x_{y_j}, or 0 when y_j = 0, which is entry
    y_j of the padded row (0,) + x.
    """
    return gather(y)


def multiply(x: Rook, y: Rook) -> Rook:
    """The 0/1 matrix product: column j of the result hits row x_{y_j}."""
    if len(x) != len(y):
        raise ValueError(f"size mismatch: {len(x)} vs {len(y)}")
    return right_product(y)((0,) + x)


def transpose(x: Rook) -> Rook:
    """Matrix transpose; the inverse of the underlying partial injection."""
    out = [0] * len(x)
    for j, v in enumerate(x, start=1):
        if v:
            out[v - 1] = j
    return tuple(out)


def triangular_ranks(x: Rook) -> tuple[int, int, int]:
    """The ranks (lower, diag, upper) of the parts of x strictly below, on and
    strictly above the diagonal, counted in one pass without building them."""
    lower = diag = upper = 0
    for j, v in enumerate(x, start=1):
        if v > j:
            lower += 1
        elif v == j:
            diag += 1
        elif v:
            upper += 1
    return (lower, diag, upper)


def diagonal_idempotent(n: int, support) -> Rook:
    """The diagonal 0/1 matrix with ones exactly on the given support."""
    out = [0] * n
    for j in support:
        if not 1 <= j <= n:
            raise ValueError(f"support element {j} out of range 1..{n}")
        out[j - 1] = j
    return tuple(out)


def is_upper_triangular(x: Rook) -> bool:
    """All nonzero cells on or above the main diagonal."""
    return all(v == 0 or v <= j for j, v in enumerate(x, start=1))


def is_strictly_upper_triangular(x: Rook) -> bool:
    return all(v == 0 or v < j for j, v in enumerate(x, start=1))
