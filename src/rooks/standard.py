"""The Bruhat-Chevalley-Renner order by the standard form of
Pennell-Putcha-Renner: route two, independent of the one-line route of
`rooks.order`.

Every member x of a rook monoid or of a symplectic Renner monoid factors
as x = a e b^{-1}, with e the cross-section idempotent of its rank and
(a, b) unique minimal coset representatives.  `standard_form` finds that
factorization by exhaustive search, with a uniqueness check: it maps each
product a e of a rank to its a (`_coset_data`) and finds a e b^{-1} = x as
a e = x b, one gather per b.  The search is the uniqueness check of
`verify` and the tests' oracle of the slots below.

Route two has no pair test in the library: `standard_form_rows` builds its
order on a whole monoid as one bitset row per member, and the criterion on
one pair of forms lives beside the tests as the oracle of those rows.  The
rows search for no form: the slot of a chain idempotent f, a c in D_*(f)
and a d in D(f) makes its member c f d^{-1}, and the slots are a bijection
onto the monoid exactly when every member has one standard form.  The rows
run on the positions of the Weyl group's elements in
`group_context(kind, n).elements`: one table per group (`_dominance`),
read off the group's lengths and its products by reflections alone, holds
for each element the bitset of the elements below it in the Bruhat order.
Each witness w is held as the positions of w and w^{-1}, and per rank two
tables read off the Bruhat bitsets turn each witness into one block of a
row.  Those tables and the products of any two elements, which only the
rows read whole, are built by `standard_form_rows` for its own call and
dropped after it.  Only tables per group or per rank are cached, never a
result per element.

Nothing of route one enters this module, and `rooks.order` imports nothing
of it or of `rooks.weyl`; a test reads the import graph.  Of the CLI's
commands, only the verify checks inrsn and standard-form load it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .rook import Rook, check_rook, multiply, rank, right_product, transpose
from .symplectic import is_symplectic_rook
from .weyl import SYMPLECTIC, GroupContext, group_context, min_coset_reps, parabolic_data


class Dominance(NamedTuple):
    """The Bruhat order of one Weyl group on the positions of its elements:
    index[w] is the position of w, and bit i of below[j] is set iff
    el_i <= el_j."""

    index: dict
    below: tuple


@lru_cache(maxsize=None)
def _dominance(kind: str, n: int) -> Dominance:
    """The table of the Weyl group of one kind and size, over the elements
    of `group_context(kind, n)` in their order, from the group's lengths
    and its products by reflections alone: nothing of the one-line route
    enters it.  Bruhat order is the closure of vt < v over the reflections
    t = w s w^{-1} with l(vt) < l(v) (Bjorner-Brenti, 2.1), on Sp_n that of
    S_n restricted (8.1), so in order of length below[v] is bit v OR
    below[vt].  The reflections are the simple generators closed under
    conjugation s t s by them, 2 |T| |S| products, not 2 |W| |S| over
    every w.  The rows take the |W| |T| products v t, one gather each, not
    the |W|^2 of a product table: 0.034-0.037 s for S_7 once its group
    context is built, 0.05 s with it (5,040 elements, 21 reflections;
    2-CPU Xeon, Python 3.11)."""
    ctx = group_context(kind, n)
    elements = ctx.elements
    index = {w: i for i, w in enumerate(elements)}
    length = [ctx.lengths[w] for w in elements]
    reflections = set(ctx.generators)
    fresh = list(reflections)
    while fresh:
        conjugates = {multiply(multiply(s, t), s) for t in fresh for s in ctx.generators}
        fresh = conjugates - reflections
        reflections |= fresh
    times_t = [right_product(t) for t in reflections]
    below = [0] * len(elements)
    for v in sorted(range(len(elements)), key=length.__getitem__):
        row = (0,) + elements[v]
        below[v] = 1 << v
        for u in (index[times(row)] for times in times_t):
            if length[u] < length[v]:
                below[v] |= below[u]
    return Dominance(index, tuple(below))


class StandardForm(NamedTuple):
    """The unique factorization x = a e b^{-1} with e the cross-section
    idempotent of equal rank, a and b minimal coset representatives; the
    rank of e (and of x) and b^{-1} are kept for the criterion on a pair
    of forms, which the tests hold as the oracle of `standard_form_rows`."""

    a: Rook
    e: Rook
    b: Rook
    rank: int
    b_inv: Rook


def _chain_idempotent(ctx: GroupContext, r: int) -> Rook:
    for e in ctx.chain:
        if rank(e) == r:
            return e
    raise ValueError(f"no cross-section idempotent of rank {r} for {ctx.kind} size {ctx.n}")


@lru_cache(maxsize=None)
def _coset_data(kind: str, n: int, r: int):
    """(e, left_of, right, centralizer) for the chain idempotent e of rank
    r: left_of maps each product a e, a in D_*(e), to its a, right pairs
    each b in D(e) with b^{-1}, and centralizer is W(e) = {w : we = ew}.
    The a e are distinct: a e = a' e puts a^{-1} a' in the stabilizer of e,
    so a = a' for minimal representatives, and a collision is a
    RuntimeError.  Since b is a permutation, a e b^{-1} = x iff a e = x b,
    so the search for x costs one gather x b per b and one dict lookup."""
    ctx = group_context(kind, n)
    e = _chain_idempotent(ctx, r)
    data = parabolic_data(e, ctx)
    lefts = min_coset_reps(data.stabilizer_generators, ctx)
    left_of = {multiply(a, e): a for a in lefts}
    if len(left_of) != len(lefts):
        raise RuntimeError(f"two products a e coincide for the idempotent {e} of {kind} size {n}")
    right = [(b, transpose(b)) for b in min_coset_reps(data.commuting_generators, ctx)]
    return e, left_of, right, data.centralizer


def standard_form(x: Rook, ctx: GroupContext) -> StandardForm:
    """Factor x over the cross-section chain of the context, by exhaustive
    search over the coset representatives, with a uniqueness check: the
    per-element step of the standard-form route.  The per-rank coset data
    (`_coset_data`) is cached; the check of x and its search are not."""
    kind, n = ctx.kind, ctx.n
    x = check_rook(x, n)
    if kind == SYMPLECTIC and not is_symplectic_rook(x):
        raise ValueError(f"{x} is not in the {kind} monoid of size {n}")
    r = rank(x)
    e, left_of, right, _ = _coset_data(kind, n, r)
    matches = [(left_of[ae], b, b_inv) for b, b_inv in right if (ae := multiply(x, b)) in left_of]
    if len(matches) != 1:
        raise RuntimeError(
            f"standard form of {x} is not unique: {len(matches)} candidates"
        )
    a, b, b_inv = matches[0]
    return StandardForm(a, e, b, r, b_inv)


def standard_form_rows(elems, ctx: GroupContext) -> tuple[list[Rook], list[int]]:
    """The standard-form order on the whole monoid of ctx as bitset rows:
    the members in slot order, and bit i of rows[j] set iff
    members[i] <= members[j].

    The members are made from the slots, not searched for: the slot
    offset(rank f) + i |D(f)| + j holds c f d^{-1}, where f is the chain
    idempotent, c the i-th element of D_*(f) and d the j-th of D(f)
    (`_coset_data`), and offset(r) is the size of the blocks of lower rank.
    Unless the members made are distinct and are the elements of elems,
    as many, it is a RuntimeError: the slots are a bijection onto the
    monoid exactly when every member has one standard form.  With
    x = a e b^{-1}, x <= y = c f d^{-1} iff rank e <= rank f and some
    witness w in W(f)W(e) has a <= cw and w^{-1} d^{-1} <= b^{-1}, so the
    block of y's row on rank e is the union over the witnesses of
    spread[cw] * right[w^{-1} d^{-1}]: one product and one OR per witness,
    no pair test.  On the positions of the group's elements, bit i |D(e)|
    of spread[g] is set iff a_i <= g, and bit j of right[h] iff
    h <= b_j^{-1}, both read off the Bruhat bitsets (`_dominance`); right[h]
    is below 2^|D(e)|, so the product is the block {a <= g} x {b^{-1} >= h}
    with no carries.

    These products are read off a table of all |W|^2 products of the
    group, times[u][v] the position of el_u el_v, built row by row with one
    gather per v on the padded el_u; each witness w, in the lexicographic
    order of w, is held with the position of w^{-1} from one table of |W|
    inverses.  One walk up the chain makes each rank's record (offset,
    spread, right, W(f)), then its members and rows against the records so
    far.  No other reader needs these tables, so they live for this call
    alone; the product table takes 4.3 MB for S_6.
    """
    kind, n = ctx.kind, ctx.n
    elements = ctx.elements
    index, below = _dominance(kind, n)
    times_by = [right_product(v) for v in elements]
    times = [tuple(index[t(row)] for t in times_by) for row in ((0,) + u for u in elements)]
    inverse = [index[transpose(w)] for w in elements]
    ranks, members, rows = [], [], []  # ranks: (offset, spread, right, W(e)) of each rank so far
    for f in ctx.chain:
        _, left_of, right_reps, centralizer = _coset_data(kind, n, rank(f))
        cs = [index[c] for c in left_of.values()]
        d_invs = [index[d_inv] for _, d_inv in right_reps]
        width = len(d_invs)
        spread = [sum(1 << i * width for i, c in enumerate(cs) if row >> c & 1) for row in below]
        right = [
            sum(1 << j for j, d_inv in enumerate(d_invs) if below[d_inv] >> h & 1)
            for h in range(len(below))
        ]
        zf = [index[u] for u in centralizer]
        ranks.append((len(members), spread, right, zf))
        lower = [  # each rank e up to f, with its witnesses w in W(f)W(e) and w^{-1}
            (offset, spread, right, [(w, inverse[w]) for w in sorted({times[u][v] for u in zf for v in ze})])
            for offset, spread, right, ze in ranks
        ]
        for c in cs:
            cf = multiply(elements[c], f)
            times_c = times[c]
            for d_inv in d_invs:
                members.append(multiply(cf, elements[d_inv]))
                row = 0
                for offset, spread, right, witnesses in lower:
                    block = 0
                    for w, w_inv in witnesses:
                        block |= spread[times_c[w]] * right[times[w_inv][d_inv]]
                    row |= block << offset
                rows.append(row)
    made = set(members)
    if not len(made) == len(members) == len(elems) or made != set(elems):
        raise RuntimeError(
            f"the {len(members)} standard-form slots of {kind} size {n} give {len(made)} "
            f"distinct members, not the {len(elems)} given"
        )
    return members, rows
