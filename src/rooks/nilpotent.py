"""Nilpotent slices of the Borel submonoids: closure, extrema, chains.

A full-matrix Borel submonoid has a single dense nilpotent class topped by
the superdiagonal rook (0, 1, ..., n-1); the symplectic one splits into
several maximal elements.  The report exposes the computed facts (a unique
maximum or not, product closure, the longest chain from zero) and makes no
geometric claims beyond them.
"""

from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple

from .order import poset_ranks
from .rook import Rook, format_one_line, gather, right_product
from .symplectic import FAMILIES, FamilySpec, enum_family


class NilpotentReport(NamedTuple):
    family: str
    n: int
    count: int  # the field shadows tuple.count: report.count reads it
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


def _closed_under_product(elements) -> bool:
    """Whether every product x y of two of `elements` is one of them, by
    the grouping of the right factors by their image that
    `nilpotent_analysis` describes.  The images are visited depth first in
    the binomial tree of the subsets of the used values, each image's
    restrictions projected from its parent's, and only the sets on the
    current path are held."""
    members = set(elements)
    by_image = defaultdict(list)
    for y in elements:
        by_image[tuple(sorted(filter(None, y)))].append(y)
    used = tuple(sorted(set().union(*by_image)))
    # the tree's nodes: every image and its parents up to `used`, the parent
    # of a subset being the subset with its largest missing value put back
    nodes = set()
    for image in by_image:
        while image not in nodes:
            nodes.add(image)
            missing = set(used).difference(image)
            if not missing:
                break
            image = tuple(sorted(image + (max(missing),)))

    def walk(image, start, restricted) -> bool:
        # restricted: the distinct rows (0, x_{i_1}, ..., x_{i_k}) of image
        slots = dict(zip((0,) + image, range(len(image) + 1)))
        for y in by_image.get(image, ()):
            times_y = right_product(tuple(map(slots.__getitem__, y)))
            if not members.issuperset(map(times_y, restricted)):
                return False
        # a child drops one value at or after the last one dropped, so each
        # subset of `used` is one node, reached from its parent
        for t in range(start, len(image)):
            child = image[:t] + image[t + 1 :]
            if child in nodes:
                keep = gather([s for s in range(len(image) + 1) if s != t + 1])
                if not walk(child, t, set(map(keep, restricted))):
                    return False
        return True

    return walk(used, 0, set(map(gather((0,) + used), ((0,) + x for x in elements))))


def nilpotent_analysis(spec: FamilySpec, elements=None) -> NilpotentReport:
    """Enumerate a nilpotent family, check product closure, and locate its
    maximal elements and longest chain inside the ambient order.  A caller
    that has listed the family already passes its members as `elements`.

    The maximal elements and their ranks come from the ranks pass of the
    order (`poset_ranks`) alone: the longest chain from zero ends at a
    maximal element, and no cover of the poset is read.

    The closure test forms every distinct product x y, but not pair by
    pair.  Entry j of x y is x_{y_j}, or 0 when y_j = 0, so x y depends on x
    only through x restricted to the image of y: the row
    r = (0, x_{i_1}, ..., x_{i_k}), where i_1 < ... < i_k are the nonzero
    values of y.  The right factors are grouped by that sorted image.  For
    each image the distinct restrictions of the left factors are formed
    once, and each y of the group, relabelled onto their slots (i_s -> s,
    0 -> 0), is one gather `right_product` per distinct restriction.  At
    borel-nil n = 7 (877 elements) that is 19,470 gathers, against 769,129
    pair by pair; at n = 8, 234,623 against 17,139,600.

    The restrictions come from the members once, for the union of the
    images; every other image's are the distinct projections of its
    parent's in a depth-first walk of the subsets, one slot dropped.  That
    builds 6,782 restriction rows at borel-nil n = 7, against
    64 x 877 = 56,128 when each of the 64 images restricts every member;
    at n = 8, 42,921 against 128 x 4,140 = 529,920.  The tests check the
    result against `multiply` on every pair.
    """
    if FAMILIES[spec.family].lag != 1:
        raise ValueError(f"family {spec.family!r} is not a nilpotent family")
    if spec.rank is not None:
        raise ValueError(f"nilpotent analysis needs the whole family, got rank {spec.rank}")
    if elements is None:
        elements = enum_family(spec)
    closed = _closed_under_product(elements)
    ranks = poset_ranks(elements)
    if not ranks.maximals:
        raise RuntimeError(f"the {spec.family} poset of size {spec.n} has no maximal element")
    maximals = tuple(ranks.elements[i] for i in ranks.maximals)
    longest = max(ranks.rank_of[i] for i in ranks.maximals)
    return NilpotentReport(
        family=spec.family,
        n=spec.n,
        count=len(elements),
        maximals=maximals,
        unique_max=len(maximals) == 1,
        closed_under_product=closed,
        longest_chain=longest,
    )
