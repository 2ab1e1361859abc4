"""The Bruhat-Chevalley-Renner order by the one-line criterion (route
one), and the Hasse diagram built from it.

The one-line criterion: x <= y iff for every i in 1..n the decreasing
rearrangement of the length-i prefix of x (zeros included) is dominated
entrywise by that of y.  Prefix dominance is entrywise comparison of the
counts c_x(i, k) = #{j <= i : x_j >= k}, and `rank_counts` holds an
element's n^2 counts as the bytes of one int, the route's one per-element
step.  `bcr_le` compares the count ints of one pair in one big-int step
(`rank_count_le`); the sorted prefixes compared entry by entry live beside
the tests as its oracle.  The standard-form route, `rooks.standard`, is
the independent second route: this module imports nothing of it or of
`rooks.weyl`, so `hasse`, `order`, `maxelements` and `nilpotent` load no
Weyl group code, and a test reads the import graph.

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
the pair test and its oracle, and the verify check of the two routes sets
them, on the members in the order `rooks.standard` makes them, against
route two's rows, row by row.

`build_poset` sorts its elements once, so an index is its element's
lexicographic ordinal, and reads the Hasse diagram off the rows in two
passes.  The ranks pass (`poset_ranks`) visits the elements in order of
row size: an element's rank is one more than the highest rank layer its
row meets, the minimals are the empty rows and the maximals the bits in no
row.  The covers pass (`_hasse_from_rows`) reads each element's covers off
its row on the layer just below, by their top bits; only a cover that
skips a layer, which a graded poset has none of, takes a further bitset
step.  Each cover (i, j) is held as the one int i m + j, and the ints are
sorted.  A reader of ranks and extrema alone, such as `nilpotent_analysis`,
takes the ranks pass and no covers.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress, repeat
from operator import and_, eq, getitem, lshift, not_, or_
from typing import NamedTuple

from .rook import Rook


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


class HasseDiagram(NamedTuple):
    """A finite poset: elements, covering edges, longest-chain ranks from
    the minimal elements, and extrema.  Each cover of i by j is held as the
    one int i m + j, m the number of elements, and `covers` is those ints
    sorted, so in the order of the pairs (i, j); `cover_pairs` gives the
    pairs.  `build_poset` gives the elements in lexicographic order, and
    the extrema in the order of their indices."""

    elements: tuple[Rook, ...]
    covers: tuple[int, ...]
    rank_of: tuple[int, ...]
    minimals: tuple[int, ...]
    maximals: tuple[int, ...]
    graded: bool

    def cover_pairs(self):
        """The covers as index pairs (i, j), lower first, in their order."""
        return map(divmod, self.covers, repeat(len(self.elements)))


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

    Each cover is the one int i m + j, and one plain sort puts the ints in
    the order of the pairs (i, j), which is the order of the pairs of
    rooks, since index order is the lexicographic order of the elements.
    An int per cover takes about a third of what a pair of ints does (two
    int objects in a tuple): at borel n=7 the call peaks at 1.10 m^2/8
    bytes under `tracemalloc` against 1.97 with pairs.
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
            covers.append(i * m + j)
            reached |= down[i]
        skipped = row & ~reached
        if skipped:
            graded = False
            beneath = 0
            for k in _bits(skipped):
                beneath |= down[k]
            covers.extend(i * m + j for i in _bits(skipped & ~beneath))
    covers.sort()
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
    (`_hasse_from_rows`), each the int i m + j of its pair of indices.
    Ranks are longest-chain lengths from the minimal elements, and
    everything is a deterministic function of the rows.

    >>> poset = build_poset([(0, 1), (1, 0), (0, 0)])
    >>> poset.covers, list(poset.cover_pairs())
    ((1, 5), [(0, 1), (1, 2)])
    """
    return _hasse_from_rows(poset_ranks(elements))
