"""The Bruhat-Chevalley-Renner order, by two independent routes, and poset
construction.

Route one is the one-line criterion: x <= y iff for every i in 1..n the
decreasing rearrangement of the length-i prefix of x (zeros included) is
dominated entrywise by that of y.  Route two goes through the standard
factorization x = a e b^{-1} with e a cross-section idempotent and (a, b)
unique minimal coset representatives, comparing via an exhaustive witness
search.  The two routes are validated against each other exhaustively in the
tests; neither is ever substituted for the other.

Each route is a per-element step followed by a pair test: route one takes
the prefix profile of each element (`prefix_profile`) and compares two
profiles (`profile_le`); route two takes the standard form of each element
(`standard_form`) and compares two forms (`forms_le`).  `bcr_le` and
`bcr_le_ppr` are those compositions on one pair.  Both per-element steps are
cached, so a caller comparing many pairs, such as the verify check of the
two routes, computes each element's profile and form once and pays for
little more than the pair tests on each pair.  The products that do not
depend on the element are held once per rank: the standard-form search
reads the coset products a e and the inverses b^{-1} of each rank
(`_coset_data`), and the pair test reads each witness w as the gather
of c w and the padded row of w^{-1} (`_witness_set`), so a candidate pair
or a witness costs one or two C-level gathers.

`build_poset` applies route one in its rank-matrix form: prefix dominance is
entrywise comparison of the counts c_x(i, k) = #{j <= i : x_j >= k}, so the
elements below x are the intersection, over the n^2 fields (i, k), of the
elements whose count is at most c_x(i, k).  It builds one order row per
element from those sets, an integer bitset of the elements below it, instead
of comparing pairs: m rows of m bits, m^2/8 bytes for m elements.  `bcr_le`
keeps the pairwise profile comparison, and the tests check the rows against
it.  The Hasse diagram is read off the rows in one pass over the rank
layers: each layer is found with one bitset test per remaining element, and
the covers of x are its row on the layer just below; only a cover that
skips a layer, which a graded poset has none of, takes a further bitset
step.  The standard-form route enters no poset: the tests build its rows
pair by pair and feed them to the same reduction.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from operator import le
from typing import NamedTuple

from .rook import (
    Rook,
    check_rook,
    multiply,
    rank,
    right_product,
    transpose,
)
from .symplectic import is_symplectic_rook
from .weyl import (
    SYMPLECTIC,
    GroupContext,
    group_context,
    min_coset_reps,
    parabolic_data,
)


# Bound of the per-element caches below, which a library caller could
# otherwise fill with one entry per rook (or pair of permutations) at any n.
# The verify checks fill them with at most 266 standard forms (the 209 rooks
# and 57 symplectic rooks of size 4), 576 dominance pairs (S_4 x S_4) and
# 209 prefix profiles that they reuse.  Only the nilpotent check at n = 8
# overflows the profile cache: it compares each of about 5,300 rooks once
# with one fixed rook, so it evicts only profiles it never asks for again.
ELEMENT_CACHE_SIZE = 4096


@lru_cache(maxsize=ELEMENT_CACHE_SIZE)
def prefix_profile(x: Rook) -> tuple[int, ...]:
    """The decreasing rearrangements of the prefixes of length 1..n, zeros
    kept as values, concatenated: the per-element step of the one-line
    route, cached.  Profiles of one size line up position by position."""
    return tuple(
        chain.from_iterable(sorted(x[:i], reverse=True) for i in range(1, len(x) + 1))
    )


def profile_le(p, q) -> bool:
    """The pair test of the one-line route on two prefix profiles of one
    size: every rearranged prefix of p is entrywise at most that of q."""
    return all(map(le, p, q))


def ehresmann_le(u: Rook, v: Rook) -> bool:
    """Classical Bruhat-Chevalley dominance for permutations."""
    if len(u) != len(v):
        raise ValueError(f"size mismatch: {len(u)} vs {len(v)}")
    n = len(u)
    for i in range(1, n):
        us = sorted(u[:i], reverse=True)
        vs = sorted(v[:i], reverse=True)
        if any(a > b for a, b in zip(us, vs)):
            return False
    return True


def bcr_le(x: Rook, y: Rook) -> bool:
    """The one-line criterion, extended to singular rooks by comparing
    prefix multisets (zeros retained) for every i in 1..n.

    The final prefix i = n is not redundant here: (0,0,0,2) and (0,0,1,0)
    separate only at i = 4.
    """
    if len(x) != len(y):
        raise ValueError(f"size mismatch: {len(x)} vs {len(y)}")
    return profile_le(prefix_profile(x), prefix_profile(y))


@lru_cache(maxsize=ELEMENT_CACHE_SIZE)
def _dominance(u: Rook, v: Rook) -> bool:
    return ehresmann_le(u, v)


class StandardForm(NamedTuple):
    """The unique factorization x = a e b^{-1} with e the cross-section
    idempotent of equal rank, a and b minimal coset representatives; the
    rank of e (and of x) and b^{-1} are kept for `forms_le`, which runs on
    every pair of a check and would otherwise recompute them there."""

    a: Rook
    e: Rook
    b: Rook
    rank: int
    b_inv: Rook


@lru_cache(maxsize=None)
def _coset_data(kind: str, n: int, r: int):
    """(e, left, right) for the chain idempotent e of rank r: left pairs
    each a in D_*(e) with the product a e, and right pairs each b in D(e)
    with b^{-1}, so each candidate (a, b) of the search costs one
    `multiply`."""
    ctx = group_context(kind, n)
    for e in ctx.chain:
        if rank(e) == r:
            data = parabolic_data(e, ctx)
            d_star = min_coset_reps(data.stabilizer_generators, ctx)
            d = min_coset_reps(data.commuting_generators, ctx)
            left = [(a, multiply(a, e)) for a in d_star]
            right = [(b, transpose(b)) for b in d]
            return e, left, right
    raise ValueError(f"no cross-section idempotent of rank {r} for {kind} size {n}")


@lru_cache(maxsize=ELEMENT_CACHE_SIZE)
def _standard_form_cached(kind: str, n: int, x: Rook) -> StandardForm:
    x = check_rook(x, n)
    if kind == SYMPLECTIC and not is_symplectic_rook(x):
        raise ValueError(f"{x} is not in the {kind} monoid of size {n}")
    r = rank(x)
    e, left, right = _coset_data(kind, n, r)
    matches = [
        (a, b, b_inv)
        for a, a_e in left
        for b, b_inv in right
        if multiply(a_e, b_inv) == x
    ]
    if len(matches) != 1:
        raise RuntimeError(
            f"standard form of {x} is not unique: {len(matches)} candidates"
        )
    a, b, b_inv = matches[0]
    return StandardForm(a, e, b, r, b_inv)


def standard_form(x: Rook, ctx: GroupContext) -> StandardForm:
    """Factor x over the cross-section chain of the context, by exhaustive
    search over the coset representatives, with a uniqueness check: the
    per-element step of the standard-form route.  The check of x and the
    search are cached, so each runs once per element."""
    return _standard_form_cached(ctx.kind, ctx.n, tuple(x))


@lru_cache(maxsize=None)
def _witness_set(kind: str, n: int, f: Rook, e: Rook) -> tuple:
    """The product set W(f) W(e) of the two centralizers, each w held as
    the gather `right_product(w)` and the padded row (0,) + w^{-1}: the two
    halves of `multiply(c, w)` and `multiply(w^{-1}, d^{-1})`."""
    ctx = group_context(kind, n)
    zf = parabolic_data(f, ctx).centralizer
    ze = parabolic_data(e, ctx).centralizer
    witnesses = sorted({multiply(u, v) for u in zf for v in ze})
    return tuple((right_product(w), (0,) + transpose(w)) for w in witnesses)


def forms_le(sx: StandardForm, sy: StandardForm, ctx: GroupContext) -> bool:
    """The pair test of the standard-form route: with x = a e b^{-1} and
    y = c f d^{-1} (forms from `standard_form` in ctx), x <= y iff e <= f on
    the chain and some witness w in W(f)W(e) has a <= cw and
    w^{-1} d^{-1} <= b^{-1} in the Bruhat order.

    The products are `multiply`'s gathers with the per-pair halves taken
    once: the padded row of c and the gather of d^{-1}.
    """
    if sx.rank > sy.rank:
        return False
    a, b_inv = sx.a, sx.b_inv
    c_row = (0,) + sy.a
    times_d_inv = right_product(sy.b_inv)
    for times_w, w_inv_row in _witness_set(ctx.kind, ctx.n, sy.e, sx.e):
        if _dominance(a, times_w(c_row)) and _dominance(times_d_inv(w_inv_row), b_inv):
            return True
    return False


def bcr_le_ppr(x: Rook, y: Rook, ctx: GroupContext) -> bool:
    """The standard-form criterion: `forms_le` on the standard forms of x
    and y."""
    return forms_le(standard_form(x, ctx), standard_form(y, ctx), ctx)


class HasseDiagram(NamedTuple):
    """A finite poset: elements, covering edges (as index pairs, lower
    first), longest-chain ranks from the minimal elements, and extrema."""

    elements: tuple[Rook, ...]
    covers: tuple[tuple[int, int], ...]
    rank_of: tuple[int, ...]
    minimals: tuple[int, ...]
    maximals: tuple[int, ...]
    graded: bool


def _rank_rows(elems: list[Rook]) -> list[int]:
    """The one-line order as bitset rows: bit i of down[j] is set iff
    elems[i] < elems[j].

    Each element keeps one row of its n rank counts c(i, k), k = 1..n,
    advanced by x_i for each i in turn.  For each field (i, k), le[v] is the
    set of elements whose count there is at most v; row j is the AND of
    le[c_j(i, k)] over all fields, without bit j.
    """
    m = len(elems)
    full = (1 << m) - 1
    down = [full ^ (1 << j) for j in range(m)]
    counts = [[0] * len(x) for x in elems]
    for i in range(len(elems[0]) if elems else 0):
        for x, c in zip(elems, counts):
            for k in range(x[i]):
                c[k] += 1
        for column in zip(*counts):
            top = max(column)
            if min(column) == top:
                continue  # le[top] holds every element
            le = [0] * (top + 1)
            for j, v in enumerate(column):
                le[v] |= 1 << j
            for v in range(1, top + 1):
                le[v] |= le[v - 1]
            for j, v in enumerate(column):
                down[j] &= le[v]
    return down


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _hasse_from_rows(elems: list[Rook], down: list[int]) -> HasseDiagram:
    """Reduce strict order rows (bit i of down[j] iff elems[i] < elems[j])
    to a Hasse diagram, in one pass that peels the rank layers.

    Layer k is every element not yet taken whose row lies inside layers
    0..k-1, so an element's layer is the length of a longest chain from a
    minimal element up to it.  As j is taken, the elements of its row on
    the layer just below are covers of j: anything strictly between would
    sit on a layer in between, and nothing below them is a cover.  What is
    left of the row holds everything strictly between its own elements and
    j, so its covers are those below none of the rest.  It is empty on
    every element exactly when the poset is graded.
    """
    m = len(elems)
    rank_of = [0] * m
    covers = []
    graded = True
    untaken = (1 << m) - 1
    previous = 0  # the layer taken last
    level = 0
    remaining = range(m)
    while remaining:
        layer = 0
        rest = []
        for j in remaining:
            row = down[j]
            if row & untaken:
                rest.append(j)
                continue
            layer |= 1 << j
            rank_of[j] = level
            near = row & previous
            reached = near
            for i in _bits(near):
                covers.append((i, j))
                reached |= down[i]
            skipped = row & ~reached
            if skipped:
                graded = False
                beneath = 0
                for k in _bits(skipped):
                    beneath |= down[k]
                covers.extend((i, j) for i in _bits(skipped & ~beneath))
        untaken ^= layer
        previous = layer
        level += 1
        remaining = rest

    minimals = sorted((i for i in range(m) if not down[i]), key=lambda i: elems[i])
    lower_ends = {i for i, _ in covers}
    maximals = sorted((i for i in range(m) if i not in lower_ends), key=lambda i: elems[i])
    covers.sort(key=lambda ij: (elems[ij[0]], elems[ij[1]]))
    return HasseDiagram(
        tuple(elems),
        tuple(covers),
        tuple(rank_of),
        tuple(minimals),
        tuple(maximals),
        graded,
    )


def build_poset(elements) -> HasseDiagram:
    """The Hasse diagram of the one-line order on distinct rooks of one
    size: order rows from rank-count bitsets (`_rank_rows`), then rank
    layers and covers in one pass (`_hasse_from_rows`).  Ranks are
    longest-chain lengths from the minimal elements, and everything is a
    deterministic function of the rows."""
    elems = [tuple(x) for x in elements]
    if len(set(elems)) != len(elems):
        raise ValueError("duplicate elements")
    if elems and len({len(x) for x in elems}) != 1:
        raise ValueError("elements must share one size")
    return _hasse_from_rows(elems, _rank_rows(elems))
