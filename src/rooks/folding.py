"""Folding operators on rook matrices and their preimages.

Folding halves a matrix by reflecting one half onto the other.  With h the
number of row pairs, the top-to-bottom fold sends a cell in row r to row
r - h when r > h, and to row h + 1 - r otherwise (the top half is flipped
onto the bottom half's index range); the left-to-right fold acts the same
way on columns.  The tests pin both conventions down cell-exactly on
8x8 worked examples.

Folding is only defined when no two cells land on the same row or column,
i.e. when the occupied rows (for TB) or columns (for LR) form an admissible
set; anything else raises instead of merging silently.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

from .rook import Rook, cells, is_permutation
from .symplectic import FamilySpec, iter_family

DIRECTIONS = ("tb", "lr", "both")


class _PartialMatrixFields(NamedTuple):
    rows: int
    cols: int
    cells: tuple[tuple[int, int], ...]


class PartialMatrix(_PartialMatrixFields):
    """A rectangular 0/1 matrix with at most one cell per row and column,
    its cells sorted.  Every construction is checked, `_replace` too, which
    builds through `_make`; only `_fold_half`, whose collision check leaves
    nothing to find, builds its folds around the checks."""

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, cells):
        ordered = tuple(sorted(cells))
        seen_rows = set()
        seen_cols = set()
        for r, c in ordered:
            if not (1 <= r <= rows and 1 <= c <= cols):
                raise ValueError(f"cell ({r},{c}) outside {rows}x{cols}")
            if r in seen_rows or c in seen_cols:
                raise ValueError(f"two cells share a line at ({r},{c})")
            seen_rows.add(r)
            seen_cols.add(c)
        return super().__new__(cls, rows, cols, ordered)

    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    def text(self) -> str:
        body = " ".join(f"{r},{c}" for r, c in self.cells)
        head = f"{self.rows} {self.cols};"
        return f"{head} {body}" if body else head

    def to_json_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "cells": [list(cell) for cell in self.cells],
        }


def from_rook(x: Rook) -> PartialMatrix:
    n = len(x)
    return PartialMatrix(n, n, cells(x))


def to_rook(pm: PartialMatrix) -> Rook:
    if pm.rows != pm.cols:
        raise ValueError("only square partial matrices convert to rooks")
    out = [0] * pm.cols
    for r, c in pm.cells:
        out[c - 1] = r
    return tuple(out)


def _fold_index(i: int, half: int) -> int:
    return i - half if i > half else half + 1 - i


def _fold_half(pm: PartialMatrix, axis: int) -> PartialMatrix:
    """Fold the first half of the rows (axis 0, TB) or of the columns
    (axis 1, LR) onto the second half's index range."""
    size, name = (pm.cols, "columns") if axis else (pm.rows, "rows")
    if size % 2:
        raise ValueError(f"cannot fold {size} {name} in half")
    h = size // 2
    occupied = {cell[axis] for cell in pm.cells}
    for i in occupied:
        if i <= h and size + 1 - i in occupied:
            raise ValueError(f"{name} {i} and {size + 1 - i} collide under folding")
    # no two occupied lines meet and pm is checked, so the folded cells
    # are one per line inside the half: they are only sorted, not checked
    # again by the constructor
    if axis:
        fields = (pm.rows, h, tuple(sorted((r, _fold_index(c, h)) for r, c in pm.cells)))
    else:
        fields = (h, pm.cols, tuple(sorted((_fold_index(r, h), c) for r, c in pm.cells)))
    return tuple.__new__(PartialMatrix, fields)


def fold(x, direction: str = "both"):
    """Apply a folding operator.

    Accepts a rook (square tuple) or a PartialMatrix.  Directions "tb" and
    "lr" return a PartialMatrix; "both" needs a square input of even size
    and returns a rook of half the size.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}; choose from {DIRECTIONS}")
    pm = x if isinstance(x, PartialMatrix) else from_rook(tuple(x))
    if direction != "both":
        return _fold_half(pm, DIRECTIONS.index(direction))
    if pm.rows != pm.cols:
        raise ValueError("the full fold needs a square matrix")
    return to_rook(_fold_half(_fold_half(pm, 0), 1))


def _candidate_cells(r: int, c: int, l: int) -> list[tuple[int, int]]:
    """The unfolded positions of a cell of the half-size matrix that keep
    the result upper triangular."""
    options = [
        (l + 1 - r, l + 1 - c),
        (l + 1 - r, c + l),
        (r + l, l + 1 - c),
        (r + l, c + l),
    ]
    return [cell for cell in options if cell[0] <= cell[1]]


def unfold_preimages(a: Rook) -> list[Rook]:
    """All upper-triangular symplectic rooks of doubled size (bounded as
    borel-sp is) folding onto the given rook, in lexicographic order, built
    cell by cell: each cell takes any of its reflected positions that keep
    the result upper triangular.  `fold_images` is the exhaustive oracle."""
    l = len(a)
    n = FamilySpec(2 * l, "borel-sp").n
    per_cell = [_candidate_cells(r, c, l) for r, c in cells(a)]
    out = []
    for choice in product(*per_cell):
        x = [0] * n
        for r, c in choice:
            x[c - 1] = r
        out.append(tuple(x))
    return sorted(out)


def fold_images(l: int) -> dict[Rook, list[Rook]]:
    """The singular upper-triangular symplectic rooks of size 2l grouped by
    their full fold, image -> preimages in lexicographic order, by folding
    every member: the exhaustive route."""
    images: dict[Rook, list[Rook]] = {}
    for x in iter_family(FamilySpec(2 * l, "borel-sp")):
        if is_permutation(x):
            continue  # full-rank elements do not fold (cells collide)
        images.setdefault(fold(x, "both"), []).append(x)
    return images

