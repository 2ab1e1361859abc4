"""Slow reference routes for `rooks.order.build_poset`: order rows from a
comparator on every ordered pair, and the transitive reduction that tests
every comparable pair on its own, with ranks by longest chains."""

from rooks.order import HasseDiagram


def pairwise_rows(elems, le):
    """Strict order rows, bit i of down[j] iff le(elems[i], elems[j]) with
    i != j; the layout of `order._rank_rows`."""
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
