"""Slow reference routes for `rooks.order`: the one-line criterion on
sorted prefixes, pair by pair (the oracle of `rank_count_le` and of
`rank_rows`), the Bruhat order of permutations by sorted prefixes (the
oracle of the group's table, `_dominance`), the standard-form criterion on
one pair (the oracle of `standard_form_rows`), order rows from a comparator
on every ordered pair, and the transitive reduction that tests every
comparable pair on its own, with ranks by longest chains (the oracle of
`build_poset`)."""

from functools import cache
from itertools import chain
from operator import le

from rooks.order import HasseDiagram, _dominance, standard_form
from rooks.rook import multiply, transpose
from rooks.weyl import group_context, parabolic_data


def prefix_profile(x) -> tuple[int, ...]:
    """The decreasing rearrangements of the prefixes of length 1..n, zeros
    kept as values, concatenated.  Profiles of one size line up position
    by position."""
    return tuple(
        chain.from_iterable(sorted(x[:i], reverse=True) for i in range(1, len(x) + 1))
    )


def profile_le(p, q) -> bool:
    """The one-line criterion on two prefix profiles of one size: every
    rearranged prefix of p is entrywise at most that of q."""
    return all(map(le, p, q))


def ehresmann_le(u, v) -> bool:
    """Classical Bruhat-Chevalley dominance for permutations: every
    decreasingly sorted prefix of u is entrywise at most that of v."""
    if len(u) != len(v):
        raise ValueError(f"size mismatch: {len(u)} vs {len(v)}")
    for i in range(1, len(u)):
        us = sorted(u[:i], reverse=True)
        vs = sorted(v[:i], reverse=True)
        if any(a > b for a, b in zip(us, vs)):
            return False
    return True


@cache
def plain_witnesses(kind, n, f, e):
    """W(f)W(e) from the centralizers of the chain idempotents f and e,
    through multiply, each w mapped to w^{-1}."""
    ctx = group_context(kind, n)
    zf = parabolic_data(f, ctx).centralizer
    ze = parabolic_data(e, ctx).centralizer
    return {w: transpose(w) for w in {multiply(u, v) for u in zf for v in ze}}


def forms_le(sx, sy, ctx) -> bool:
    """The standard-form criterion on one pair: with x = a e b^{-1} and
    y = c f d^{-1} (forms from `standard_form` in ctx), x <= y iff e <= f on
    the chain and some witness w in W(f)W(e) has a <= cw and
    w^{-1} d^{-1} <= b^{-1} in the Bruhat order.  The witnesses and the
    products cw and w^{-1} d^{-1} are taken through multiply, apart from
    the product table of `standard_form_rows`; both comparisons are bit
    tests on the group's Bruhat table."""
    if sx.rank > sy.rank:
        return False
    table = _dominance(ctx.kind, ctx.n)
    index, below = table.index, table.below
    a = index[sx.a]
    below_b_inv = below[index[sx.b_inv]]
    return any(
        below[index[multiply(sy.a, w)]] >> a & 1
        and below_b_inv >> index[multiply(w_inv, sy.b_inv)] & 1
        for w, w_inv in plain_witnesses(ctx.kind, ctx.n, sy.e, sx.e).items()
    )


def bcr_le_ppr(x, y, ctx) -> bool:
    """The standard-form criterion: `forms_le` on the standard forms of x
    and y."""
    return forms_le(standard_form(x, ctx), standard_form(y, ctx), ctx)


def bcr_le_ppr_on(elems, ctx):
    """`bcr_le_ppr` on the pairs of elems, with the standard form of each
    element taken once, for the callers that compare all pairs."""
    forms = {x: standard_form(x, ctx) for x in elems}
    return lambda x, y: forms_le(forms[x], forms[y], ctx)


def pairwise_rows(elems, le):
    """Strict order rows, bit i of down[j] iff le(elems[i], elems[j]) with
    i != j; the layout of `order.rank_rows`."""
    m = len(elems)
    return [
        sum(1 << i for i in range(m) if i != j and le(elems[i], elems[j]))
        for j in range(m)
    ]


def per_pair_poset(elems, down) -> HasseDiagram:
    """The Hasse diagram of strict order rows, j covering i iff j is in
    up[i] (the transpose of down) and nothing of up[i] is below j; a rank is
    the longest chain of covers down to a minimal element, taken in order of
    the size of down."""
    m = len(elems)
    up = [sum(1 << j for j in range(m) if down[j] >> i & 1) for i in range(m)]
    covers = []
    for i in range(m):
        mask = up[i]
        while mask:
            low = mask & -mask
            j = low.bit_length() - 1
            mask ^= low
            if not (up[i] & down[j]):
                covers.append((i, j))
    rank_of = [0] * m
    parents = {j: [] for j in range(m)}
    for i, j in covers:
        parents[j].append(i)
    for j in sorted(range(m), key=lambda j: bin(down[j]).count("1")):
        if parents[j]:
            rank_of[j] = max(rank_of[i] + 1 for i in parents[j])
    minimals = sorted((i for i in range(m) if not down[i]), key=lambda i: elems[i])
    maximals = sorted((i for i in range(m) if not up[i]), key=lambda i: elems[i])
    graded = all(rank_of[j] == rank_of[i] + 1 for i, j in covers)
    covers.sort(key=lambda ij: (elems[ij[0]], elems[ij[1]]))
    return HasseDiagram(
        tuple(elems),
        tuple(covers),
        tuple(rank_of),
        tuple(minimals),
        tuple(maximals),
        graded,
    )
