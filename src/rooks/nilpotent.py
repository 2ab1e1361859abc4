"""Nilpotent slices of the Borel submonoids: closure, extrema, chains.

A full-matrix Borel submonoid has a single dense nilpotent class topped by
the superdiagonal rook (0, 1, ..., n-1); the symplectic one splits into
several maximal elements.  The report exposes the computed facts (a unique
maximum or not, product closure, the longest chain from zero) and makes no
geometric claims beyond them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .order import build_poset
from .rook import Rook, format_one_line, right_product
from .symplectic import FAMILIES, FamilySpec, enum_family


@dataclass(frozen=True)
class NilpotentReport:
    family: str
    n: int
    count: int
    maximals: tuple[Rook, ...]
    unique_max: bool
    closed_under_product: bool
    longest_chain: int

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "count": self.count,
            "maximals": [format_one_line(x) for x in self.maximals],
            "unique_max": self.unique_max,
            "closed_under_product": self.closed_under_product,
            "longest_chain": self.longest_chain,
        }

    def text_row(self) -> str:
        tops = ",".join(format_one_line(x) for x in self.maximals)
        return (
            f"family={self.family} n={self.n}  count={self.count}"
            f" unique_max={'yes' if self.unique_max else 'no'}"
            f" closed={'yes' if self.closed_under_product else 'no'}"
            f" longest_chain={self.longest_chain}  maximals={tops}"
        )


def nilpotent_analysis(spec: FamilySpec) -> NilpotentReport:
    """Enumerate a nilpotent family, check product closure, and locate its
    maximal elements and longest chain inside the ambient order.

    The closure test forms every product x y as `multiply` does, with the
    per-element work done once: the padded row (0,) + x of each left factor
    and the gather `right_product(y)` of each right factor.  Each pair then
    costs one C-level gather and one set lookup.  The tests check the
    result against `multiply` on every pair.
    """
    if FAMILIES[spec.family].lag != 1:
        raise ValueError(f"family {spec.family!r} is not a nilpotent family")
    if spec.rank is not None:
        raise ValueError(f"nilpotent analysis needs the whole family, got rank {spec.rank}")
    elements = enum_family(spec)
    members = set(elements)
    padded = [(0,) + x for x in elements]
    closed = all(
        members.issuperset(map(right_product(y), padded)) for y in elements
    )
    poset = build_poset(elements)
    maximals = tuple(elements[i] for i in poset.maximals)
    longest = max(poset.rank_of[i] for i in poset.maximals)
    return NilpotentReport(
        family=spec.family,
        n=spec.n,
        count=len(elements),
        maximals=maximals,
        unique_max=len(maximals) == 1,
        closed_under_product=closed,
        longest_chain=longest,
    )
