"""Exact rational matrices and membership in the symplectic monoid.

`rook_matrix` turns a rook into its 0/1 matrix with `Fraction` entries, and
`msp_membership` decides whether a square matrix A lies in the symplectic
monoid MSp_n: whether A^T J A and A J A^T are one scalar multiple c J of the
symplectic form J, in exact rational arithmetic.  Only the tests call this
module so far; it is kept off `rooks/__init__.py` and `rooks.cli`, whose
start-up would otherwise load `fractions` and `decimal` for every command.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .rook import Rook

RationalMatrix = tuple[tuple[Fraction, ...], ...]


def rational_matrix(rows) -> RationalMatrix:
    """Build a square matrix of exact rationals from `int` and `Fraction`
    entries; any other entry, a float say, is a ValueError."""
    out = []
    for row in rows:
        row = tuple(row)
        for v in row:
            if not isinstance(v, (int, Fraction)):
                raise ValueError(f"matrix entry {v!r} is not an int or a Fraction")
        out.append(tuple(Fraction(v) for v in row))
    n = len(out)
    if n == 0 or any(len(row) != n for row in out):
        raise ValueError("matrix must be square and nonempty")
    return tuple(out)


def rook_matrix(x: Rook) -> RationalMatrix:
    """The 0/1 matrix of a rook, with exact rational entries."""
    n = len(x)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for j, v in enumerate(x, start=1):
        if v:
            rows[v - 1][j - 1] = Fraction(1)
    return tuple(tuple(row) for row in rows)


def symplectic_form(n: int) -> RationalMatrix:
    """The block matrix [[0, J_l], [-J_l, 0]] with J_l the antidiagonal
    permutation matrix of size l = n/2."""
    if n % 2:
        raise ValueError(f"size must be even, got {n}")
    rows = [[Fraction(0)] * n for _ in range(n)]
    l = n // 2
    for i in range(n):
        rows[i][n - 1 - i] = Fraction(1) if i < l else Fraction(-1)
    return tuple(tuple(row) for row in rows)


def _matmul(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _mat_transpose(a: RationalMatrix) -> RationalMatrix:
    n = len(a)
    return tuple(tuple(a[j][i] for j in range(n)) for i in range(n))


def msp_membership(a: RationalMatrix) -> Optional[Fraction]:
    """Exact membership in the symplectic monoid.

    Returns the scalar c such that both A^T J A and A J A^T equal c J, or
    None when no single scalar works.  Everything is computed in exact
    rational arithmetic.
    """
    n = len(a)
    if n % 2:
        raise ValueError(f"size must be even, got {n}")
    j = symplectic_form(n)
    left = _matmul(_matmul(_mat_transpose(a), j), a)
    right = _matmul(_matmul(a, j), _mat_transpose(a))
    c: Optional[Fraction] = None
    for product in (left, right):
        for r in range(n):
            for s in range(n):
                if j[r][s] == 0:
                    if product[r][s] != 0:
                        return None
                    continue
                ratio = product[r][s] / j[r][s]
                if c is None:
                    c = ratio
                elif ratio != c:
                    return None
    return c
