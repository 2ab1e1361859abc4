"""The Bruhat-Chevalley-Renner order, by two independent routes, and poset
construction.

Route one is the one-line criterion: x <= y iff for every i in 1..n the
decreasing rearrangement of the length-i prefix of x (zeros included) is
dominated entrywise by that of y.  Route two goes through the standard
factorization x = a e b^{-1} with e a cross-section idempotent and (a, b)
unique minimal coset representatives, comparing via an exhaustive witness
search.  The two routes are validated against each other exhaustively in the
tests; neither is ever substituted for the other.

Each route has one plain per-element step: route one takes the rank counts
of an element (`rank_counts`), route two factors it into its standard form
(`standard_form`).  Prefix dominance is entrywise comparison of the counts
c_x(i, k) = #{j <= i : x_j >= k}, and `rank_counts` holds an element's
n^2 counts as the bytes of one int.  Only tables per group, per rank or per
pair of ranks are cached, never a result per element.  `bcr_le` compares
the count ints of one pair in one big-int step (`rank_count_le`); the
sorted prefixes compared entry by entry live beside the tests as its
oracle.  Route two has no pair test in the library: `standard_form_rows`
builds its order on a whole monoid as one bitset row per member, and the
pair-by-pair criterion on two forms lives beside the tests as the oracle
of those rows.  The rows search for no form: the slot of a chain idempotent
f, a c in D_*(f) and a d in D(f) makes its member c f d^{-1}, and the
slots are a bijection onto the monoid exactly when every member has one
standard form.  The search stays as the uniqueness check of `verify` and as
the tests' oracle of the slots.  The rows run on the positions of the Weyl
group's elements in `group_context(kind, n).elements`: one table per group
(`_dominance`), read off the group's lengths and its products by
reflections alone (0.035 s for S_7), holds for each element the bitset of
the elements below it in the Bruhat order.  Each witness w is held as
the positions of w and w^{-1}, and per rank two tables read off the
Bruhat bitsets turn each witness into one block of a row.  Those tables
and the products of any two elements, which only the rows read whole,
are built by `standard_form_rows` for its own call and dropped after it.
The standard-form search reads no table of the group: it maps each
product a e of a rank to its a (`_coset_data`) and finds a e b^{-1} = x
as a e = x b, one gather per b.

`build_poset` applies route one by fields, not by pairs: the elements
below x are the intersection, over the n^2 fields (i, k), of the elements
whose count is at most c_x(i, k).  It builds one order row per element from
those sets, an integer bitset of the elements below it: m rows of m bits,
m^2/8 bytes for m elements.  `rank_rows` takes the counts from the
members' one-line columns, not element by element, so `rank_counts` is
the pair test's per-element step alone: each step of `rank_rows` over the
elements is one C-level call over a whole column or a whole row.  Each
field's column of counts is one `translate` of a column of entries added to
a running int, each set one parse of that column, each group of fields one
column of byte codes, one per element, made by big-int steps on whole
columns, and each row one reduce of ANDs over the groups, one mask per
group at the element's code.  So it takes O(n^2) steps over columns, O(m)
over rows and at most 256 more per field, one per code, none per element
and field, and a row takes a few ANDs (3 at rook n=5, 7 at renner-sp n=8),
not one per varying field (25 and 64).  The tests check the rows against
the pair test and its oracle.

`build_poset` sorts its elements once, so an index is its element's
lexicographic ordinal, and reads the Hasse diagram off the rows in two
passes.  The ranks pass (`poset_ranks`) visits the elements in order of
row size: an element's rank is one more than the highest rank layer its
row meets, the minimals are the empty rows and the maximals the bits in no
row.  The covers pass (`_hasse_from_rows`) reads each element's covers off
its row on the layer just below, by their top bits; only a cover that
skips a layer, which a graded poset has none of, takes a further bitset
step.  A reader of ranks and extrema alone, such as `nilpotent_analysis`,
takes the ranks pass and no covers.  The verify check of the two routes
sets the rows, built on the members in the order `standard_form_rows`
makes them from their slots, against route two's rows, row by row.

Route two's `_dominance` and `_coset_data` import `rooks.weyl` where they
run, so `build_poset` and route one load no Weyl group code.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import compress
from operator import and_, eq, getitem, lshift, not_, or_
from typing import TYPE_CHECKING, NamedTuple

from .rook import (
    Rook,
    check_rook,
    multiply,
    rank,
    right_product,
    transpose,
)
from .symplectic import SYMPLECTIC, is_symplectic_rook

if TYPE_CHECKING:
    from .weyl import GroupContext


def _count_size(elems) -> int:
    """The size n of the rooks in elems, whose rank counts each take one
    byte: a ValueError past n = 255."""
    n = len(elems[0]) if elems else 0
    if n > 255:
        raise ValueError(f"rank counts of rooks of size {n} do not fit in one byte (n <= 255)")
    return n


def rank_counts(elems) -> list[int]:
    """Each element's n^2 rank counts c(i, k) = #{j <= i : x_j >= k} as the
    bytes of one int, field (i, k) at byte (i - 1) n + k - 1: the
    per-element step of the one-line route.

    The ints are made by C-level steps alone: block i of the sum of
    ones[x_i] << 8 n (i - 1) holds a 1 in byte k for each k <= x_i, and one
    product with the int that has a 1 in the low byte of every block adds
    up blocks 1..i into block i.  Each count is at most n, so no byte
    carries into the next while n <= 255 (a ValueError past it).  The
    tables stay at n + 1 ints of n bytes; a table per position and value
    with the shift and the sum folded in would hold about n^4/2 bytes, 2 GB
    at n = 255.
    """
    n = _count_size(elems)
    ones = [((1 << 8 * v) - 1) // 255 for v in range(n + 1)]  # a 1 in bytes 0..v-1
    shifts = [8 * n * i for i in range(n)]
    prefix = sum(1 << s for s in shifts)
    low = (1 << 8 * n * n) - 1
    return [sum(map(lshift, map(ones.__getitem__, x), shifts)) * prefix & low for x in elems]


def rank_count_le(n: int):
    """The pair test of the one-line route on the `rank_counts` ints of two
    rooks of size n: x <= y iff every count of x is at most that of y.

    All n^2 bytes are compared in one big-int step.  With H the int that
    has the high bit of every byte set, byte b of (c_y | H) - c_x is
    128 + c_y(b) - c_x(b), between 1 and 255 while every count is at most
    127, so no byte borrows from the next and its high bit is set iff
    c_x(b) <= c_y(b).  Counts are at most n, so sizes past 127 are a
    ValueError.

    >>> le = rank_count_le(4)
    >>> x, y, z = rank_counts([(0, 0, 0, 2), (0, 0, 1, 0), (0, 0, 1, 2)])
    >>> le(x, z), le(z, x), le(x, y), le(y, x), le(x, x)
    (True, False, False, False, True)
    """
    if n > 127:
        raise ValueError(f"the pair test on rank counts needs n <= 127, got {n}")
    high = ((1 << 8 * n * n) - 1) // 255 * 128
    return lambda cx, cy: (cy | high) - cx & high == high


def bcr_le(x: Rook, y: Rook) -> bool:
    """The one-line criterion, extended to singular rooks by comparing
    prefix multisets (zeros retained) for every i in 1..n, as the rank
    counts of the two rooks (`rank_count_le`).

    The final prefix i = n is not redundant here: (0,0,0,2) and (0,0,1,0)
    separate only at i = 4.
    """
    if len(x) != len(y):
        raise ValueError(f"size mismatch: {len(x)} vs {len(y)}")
    return rank_count_le(len(x))(*rank_counts((x, y)))


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
    from .weyl import group_context

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
    from .weyl import group_context, min_coset_reps, parabolic_data

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


class HasseDiagram(NamedTuple):
    """A finite poset: elements, covering edges (as index pairs, lower
    first), longest-chain ranks from the minimal elements, and extrema.
    `build_poset` gives the elements in lexicographic order, and the
    covers and extrema in the order of their indices."""

    elements: tuple[Rook, ...]
    covers: tuple[tuple[int, int], ...]
    rank_of: tuple[int, ...]
    minimals: tuple[int, ...]
    maximals: tuple[int, ...]
    graded: bool


def rank_rows(elems: list[Rook]) -> list[int]:
    """The one-line order as bitset rows: bit i of down[j] is set iff
    elems[i] < elems[j].

    The counts are taken field by field, not element by element.  Position
    i of every element is one bytes object, element 0 last, and one
    `translate` makes it the 0/1 column of x_i >= k.  A running int per k
    adds that column at each position, so after position i its bytes are
    the counts c(i, k) = #{j <= i : x_j >= k}, element j at the j-th last
    byte, with no carry while n <= 255 (a ValueError past it).
    The fields come in the order of the `rank_counts` bytes, (i, k) with k
    inner.  For a field that is not constant and each value v in its column
    below the max, the set of elements whose count there is at most v is
    one C-level parse, int(column.translate(table_v), 2), table_v sending
    the bytes 0..v to "1" and the rest to "0"; at the max it is every
    element.

    Consecutive varying fields are packed into groups, and each element's
    values on a group's fields become one byte code.  A group's column of
    codes takes a field with values up to top in one big-int step,
    codes (top + 1) + column over the two columns as ints, which carries
    no byte while the codes stay below 256, and one `bytes.translate`
    renumbers the codes that occur as 0, 1, ...; so a group takes one more
    field while (codes that occur) (top + 1) <= 256.  Only a code that
    occurs keeps a mask, the AND of its fields' sets: rook n=5 packs its
    25 varying fields into 3 groups with 191 masks, and renner-sp n=8 its
    64 into 7 with 600, where a mask for every possible code would hold
    256 per group.  Row j is one reduce: the AND of the masks at element
    j's codes, group by group in field order, without bit j.
    """
    n = _count_size(elems)
    m = len(elems)
    full = (1 << m) - 1
    at_least = [bytes(k) + b"\1" * (256 - k) for k in range(1, n + 1)]
    tables = [b"1" * (v + 1) + b"0" * (255 - v) for v in range(n)]
    counts = [0] * n  # counts[k - 1]: the column of c(i, k) so far, as an int
    groups = []  # (column of codes, mask of each code) of each full group
    codes, masks = bytes(m), [full]  # the group being filled: no field yet
    for entry in map(bytes, zip(*reversed(elems))):
        for k, table in enumerate(at_least):
            counts[k] += int.from_bytes(entry.translate(table), "big")
            column = counts[k].to_bytes(m, "big")
            values = set(column)
            if len(values) == 1:
                continue  # a constant column: every element passes this field
            top = max(values)
            wide = top + 1
            if len(masks) * wide > 256:
                groups.append((codes, masks))
                codes, masks = bytes(m), [full]
            codes = (int.from_bytes(codes, "big") * wide + counts[k]).to_bytes(m, "big")
            present = bytes(sorted(set(codes)))
            passing = {v: int(column.translate(tables[v]), 2) if v < top else full for v in values}
            masks = [masks[c // wide] & passing[c % wide] for c in present]
            codes = codes.translate(bytes.maketrans(present, bytes(range(len(present)))))
    groups.append((codes, masks))
    table = [masks for _, masks in groups]
    element_codes = zip(*(column[::-1] for column, _ in groups))  # element 0 first
    return [reduce(and_, map(getitem, table, c), full ^ 1 << j) for j, c in enumerate(element_codes)]


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Ranks(NamedTuple):
    """The ranks pass over strict order rows on sorted distinct elements:
    the rows (bit i of down[j] iff elements[i] < elements[j]), each
    element's longest-chain rank from the minimal elements, the bitset of
    each rank's elements, and the extrema in the order of their indices.
    `_hasse_from_rows` reads the covers off it."""

    elements: tuple[Rook, ...]
    down: list[int]
    rank_of: tuple[int, ...]
    layers: list[int]
    minimals: tuple[int, ...]
    maximals: tuple[int, ...]


def _ranks(elems: list[Rook], down: list[int]) -> Ranks:
    """Rank strict order rows on sorted distinct elements in one pass over
    the elements in order of the size of their rows.

    If i < j, down[i] is a proper subset of down[j], so that order is a
    linear extension, and each element comes after everything below it.
    layers[k] holds the elements of rank k placed so far; an element's rank
    is one more than the highest layer its row meets, found by scanning down
    from the top, so it is the length of a longest chain from a minimal
    element up to it.  The minimals are the empty rows, and the maximals
    the bits in no row.
    """
    m = len(elems)
    rank_of = [0] * m
    layers = []  # layers[k]: the elements of rank k placed so far
    for j in sorted(range(m), key=[row.bit_count() for row in down].__getitem__):
        row = down[j]
        level = len(layers)
        while level and not row & layers[level - 1]:
            level -= 1
        rank_of[j] = level
        if level == len(layers):
            layers.append(0)
        layers[level] |= 1 << j
    below_some = f"{reduce(or_, down, 0):0{m}b}"[::-1]  # "1" at i iff i is in a row
    return Ranks(
        tuple(elems),
        down,
        tuple(rank_of),
        layers,
        tuple(compress(range(m), map(not_, down))),
        tuple(compress(range(m), map("0".__eq__, below_some))),
    )


def _hasse_from_rows(ranks: Ranks) -> HasseDiagram:
    """The Hasse diagram of ranked order rows (`_ranks`): each element's
    covers are read off its row.

    The elements of its row on the layer just below are covers: anything
    strictly between would sit on a layer in between, and nothing below
    them is a cover.  The layers are final here, and they meet a row as the
    layers placed before it did, since a row holds only elements with
    smaller rows.  The covers are read off that part of the row by its top
    bit, i = near.bit_length() - 1, each found bit cleared, so a step costs
    the length of what is left of it, not the m bits that near & -near
    takes.  What is left of the row holds everything strictly between its
    own elements and j, so its covers are those below none of the rest
    (`_bits`, lowest bit first).  It is empty on every element exactly when
    the poset is graded.

    Index order is the lexicographic order of the elements, so the covers
    are sorted by the one int i m + j, not by pairs of rooks.
    """
    elems, down, rank_of, layers, minimals, maximals = ranks
    m = len(elems)
    covers = []
    graded = True
    for j, level in enumerate(rank_of):
        if not level:
            continue
        row = down[j]
        near = row & layers[level - 1]
        reached = near
        while near:  # each cover by the top bit, so near shrinks as it goes
            i = near.bit_length() - 1
            near ^= 1 << i
            covers.append((i, j))
            reached |= down[i]
        skipped = row & ~reached
        if skipped:
            graded = False
            beneath = 0
            for k in _bits(skipped):
                beneath |= down[k]
            covers.extend((i, j) for i in _bits(skipped & ~beneath))
    covers.sort(key=lambda ij: ij[0] * m + ij[1])
    return HasseDiagram(elems, tuple(covers), rank_of, minimals, maximals, graded)


def poset_ranks(elements) -> Ranks:
    """The ranks pass of the one-line order on distinct rooks of one size,
    on the elements sorted once, so each index is its element's
    lexicographic ordinal: order rows from rank-count bitsets
    (`rank_rows`), then each element's rank and the extrema (`_ranks`), and
    no covers.

    >>> from rooks.symplectic import FamilySpec, enum_family
    >>> ranks = poset_ranks(enum_family(FamilySpec(3, "borel-nil")))
    >>> ranks.elements
    ((0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0), (0, 1, 2))
    >>> ranks.rank_of, ranks.minimals, ranks.maximals
    ((0, 1, 2, 2, 3), (0,), (4,))
    """
    elems = sorted(map(tuple, elements))
    if any(map(eq, elems, elems[1:])):
        raise ValueError("duplicate elements")
    if elems and len({len(x) for x in elems}) != 1:
        raise ValueError("elements must share one size")
    return _ranks(elems, rank_rows(elems))


def build_poset(elements) -> HasseDiagram:
    """The Hasse diagram of the one-line order on distinct rooks of one
    size: the ranks pass (`poset_ranks`), then the covers read off the rows
    (`_hasse_from_rows`).  Ranks are longest-chain lengths from the minimal
    elements, and everything is a deterministic function of the rows."""
    return _hasse_from_rows(poset_ranks(elements))
