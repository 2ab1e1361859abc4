"""Admissible subsets, symplectic rooks and rook families.

For even n and the index involution theta(i) = n+1-i, a subset S of
{1, ..., n} is admissible when theta(S) and S are disjoint.  The symplectic
Renner monoid consists of the singular rooks whose domain and range are both
admissible, together with the theta-fixed permutations.

A family is fixed column by column in lexicographic order by one rule,
`_rules`: `choices` gives the values a column may take after a prefix, and
`key` is the part of the prefix that `choices` reads from then on (the used
rows, and for a symplectic family the mirror columns still ahead).  Two
walks share it: `_blocks` lists the members, and `count_family` counts them.

- `_blocks` lists: it walks the first n-2 columns, growing each prefix's
  head by one column per node of the walk, and yields each head with the
  list of its two-column tails, which come from a memo keyed by `key` that
  lives for one call.  Every consumer pays once per block and does the
  work per member inside one C call: `iter_family` streams the members as
  tuples (a caller that folds over a family holds one prefix and the memo,
  not the family) and `iter_family_ranks` their ranks, each by a mapped
  `__add__` of head and tails; `line_blocks` hands out each block's
  one-line text, which `enum --format oneline` and `--format json` print
  with one string join per block (rook n=8, 1,441,729 lines in 93,289
  blocks, in about 0.2-0.35 s through a pipe on a 2-CPU Xeon, start-up
  included).  `enum_family` is the tuple stream as a list, for callers
  that index or pair the elements.
- `count_family` counts: it memoises the number of completions of each
  column per `key`, so its work grows with the states, not the members or
  the prefixes (rook n=8 in 3-5 ms in process on a 2-CPU Xeon), and it
  builds no member.  Weighted, it gives the census of `counting._census`.

For the symplectic families the rule only extends a prefix that can still
complete to a member, so no member is tested; `is_symplectic_rook` stays as
the independent membership oracle, and the tests compare the descent with
it, with the group-orbit description and with the leaf-by-leaf descent it
replaced.  `FamilySpec` refuses a size beyond DESK_LIMIT, so every consumer
refuses it before any work.  `FAMILIES` is the one place a family is defined:
its `Family` record, which the descent, the CLI, `nilpotent` and `verify` read.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain, combinations
from typing import Callable, Iterator, NamedTuple, Optional

from .rook import (
    Rook,
    check_int,
    domain,
    is_permutation,
    one_line_tail,
    range_of,
    rank,
)

DESK_LIMIT = 8

# The kind of the symplectic Weyl group, as `rooks.weyl` names it (it takes
# the name from here), so that `rooks.order` tests it on every standard form
# without loading `weyl`.
SYMPLECTIC = "symplectic"


class Family(NamedTuple):
    """Column j takes rows 1..j-lag (lag 0: Borel, 1: nilpotent), or 1..n
    when lag is None; a symplectic family keeps only members of MSp_n."""

    lag: Optional[int]
    symplectic: bool


FAMILIES = {
    "rook": Family(None, False),
    "borel": Family(0, False),
    "borel-nil": Family(1, False),
    "renner-sp": Family(None, True),
    "borel-sp": Family(0, True),
    "borel-sp-nil": Family(1, True),
}


class ResourceLimitError(ValueError):
    """Raised when an enumeration exceeds the supported desk-scale bounds."""


def _check_even(n: int) -> int:
    if n < 2 or n % 2:
        raise ValueError(f"size must be even and positive, got {n}")
    return n


def theta_index(i: int, n: int) -> int:
    return n + 1 - i


def is_admissible(members, n: int) -> bool:
    """True iff no element of the set pairs with another under i -> n+1-i."""
    _check_even(n)
    s = set(members)
    for i in s:
        if not 1 <= i <= n:
            raise ValueError(f"member {i} out of range 1..{n}")
    return all(theta_index(i, n) not in s for i in s)


def enum_admissible(n: int, k: int) -> list[tuple[int, ...]]:
    """All admissible k-subsets of {1, ..., n}, lexicographically sorted."""
    _check_even(n)
    if not 0 <= k <= n:
        raise ValueError(f"k out of range 0..{n}")
    return [s for s in combinations(range(1, n + 1), k) if is_admissible(s, n)]


def theta_perm(w: Rook) -> Rook:
    """The involution (n+1-w_n, n+1-w_{n-1}, ..., n+1-w_1); its fixed
    points are exactly the symplectic Weyl group."""
    n = len(w)
    if n % 2:
        raise ValueError(f"size must be even, got {n}")
    return tuple(n + 1 - w[n - 1 - i] for i in range(n))


def is_symplectic_rook(x: Rook) -> bool:
    """Membership in the symplectic Renner monoid: a singular rook with
    admissible domain and range, or a theta-fixed permutation."""
    n = len(x)
    _check_even(n)
    if is_permutation(x):
        return theta_perm(x) == x
    return is_admissible(domain(x), n) and is_admissible(range_of(x), n)


class _FamilySpecFields(NamedTuple):
    n: int
    family: str
    rank: Optional[int]


class FamilySpec(_FamilySpecFields):
    """A named enumeration: family, matrix size, optional rank slice.

    A NamedTuple, as every record of the package is: a dataclass would load
    `dataclasses` and `inspect` at the start of every CLI process.  Every
    construction is checked, `_replace` too, which builds through `_make`."""

    __slots__ = ()

    def __new__(cls, n: int, family: str, rank: Optional[int] = None):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}; choose from {tuple(FAMILIES)}")
        if check_int(n, "size") < 1:
            raise ValueError("size must be positive")
        if FAMILIES[family].symplectic:
            _check_even(n)
        if rank is not None and not 0 <= check_int(rank, "rank") <= n:
            raise ValueError(f"rank {rank} out of range 0..{n}")
        if n > DESK_LIMIT:
            raise ResourceLimitError(f"enumeration supports sizes up to {DESK_LIMIT}, got {n}")
        return super().__new__(cls, n, family, rank)

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


def _rules(spec: FamilySpec) -> tuple[Callable, Callable]:
    """The one rule of the family descent, as two functions of the state of
    a walk that is about to fill column j: `used`, the bitmask of used rows
    (bit v set while row v is in use; a 0 entry uses none), and `column`,
    the entries so far (columns j..n still 0).

    `choices(j, used, column)` gives the values column j may take: 0 or an
    unused row up to the family's bound, pruned to completions of the
    requested rank and, for a symplectic family, to prefixes that can still
    complete to a member, so every completion is one.  It reads the rows
    from a table keyed by `used` alone, filled on first use: 0 and every
    unused row, and for a symplectic family only the rows whose mirror row
    n+1-v is unused too (the singular route's values).  The table holds at
    most 2^n lists, which live as long as the two functions (one call of
    `_blocks` or `count_family`).  A symplectic column whose mirror column
    is filled reads no table: it takes 0, the mirror's partner row, both or
    neither, returned as a constant tuple.  What it returns may be one of
    the table's lists, so a caller only reads it.

    `key(j, used, column)` is all of that state that `choices` reads at
    columns j..n: `used` (which also gives the rank so far), and for a
    symplectic family the mirror columns still ahead, `column[:n+1-j]`.  Two
    prefixes of length j-1 with one key have the same completions."""
    n = spec.n
    target = spec.rank
    lag, symplectic = FAMILIES[spec.family]

    # used -> [0, every row v that is unused and, for a symplectic family,
    # whose mirror row n+1-v is unused]: the values of the singular route
    free: dict[int, list[int]] = {}

    def choices(j: int, used: int, column: list[int]):
        # A symplectic member is either singular, with admissible domain and
        # range, or a theta-fixed permutation, x_{n+1-j} = n+1-x_j; so a
        # prefix stays open on one of two routes, both read off the prefix
        # itself:
        #
        # - singular: column j may be nonzero only if its mirror column
        #   n+1-j is empty or 0, and may take row v only if row n+1-v is
        #   unused.  This route is open while some column is 0 or no mirror
        #   pair is filled.
        # - permutation: no column is 0, and a column whose mirror is filled
        #   takes n+1-x_{n+1-j}.  The first-half values also avoid each
        #   other's mirrors, since those are the second half's values.
        #
        # Every leaf is therefore a member, and the lexicographic order is
        # that of the unpruned descent.
        filled = used.bit_count()
        # 0 is open unless every remaining column must be nonzero to reach
        # the rank, and a row unless the rank is reached
        zero = target is None or target - filled != n - j + 1
        mirror = column[n - j] if symplectic and 2 * j > n else 0
        if mirror:
            if filled < j - 1:
                # a 0 so far: the singular route alone, which leaves column j 0
                return (0,) if zero else ()
            # no 0 so far: the permutation route takes the partner row, which
            # no column has taken (the first half avoids its values' mirrors,
            # and the second half takes the partners of the first) and which
            # is in bound (a Borel family gets here only on the identity,
            # whose partner is row j; a nilpotent one never), and the
            # singular route a 0 while column j is the first one with a
            # filled mirror
            partner = n + 1 - mirror
            row = target != filled
            if zero and 2 * j == n + 2:
                return (0, partner) if row else (0,)
            return (partner,) if row else ()
        values = free.get(used)
        if values is None:
            values = free[used] = [0] + [
                v
                for v in range(1, n + 1)
                if not used >> v & 1 and not (symplectic and used >> (n + 1 - v) & 1)
            ]
        if lag is not None:
            values = values[: bisect_right(values, j - lag)]
        if not zero:
            values = values[1:]
        elif target == filled:
            values = values[:1]
        return values

    def key(j: int, used: int, column: list[int]):
        return (used, *column[: n + 1 - j]) if symplectic else used

    return choices, key


def _blocks(spec: FamilySpec, head, piece: Callable, finish: Callable) -> Iterator[tuple]:
    """Yield the members of a family as blocks `(head, tails)`, in
    lexicographic order: the block's members are `head + tail` for each
    tail in turn.  `head` is the given start grown by `piece(v)` for each
    value v of the prefix, and each tail is stored as `finish` of the list
    of its entries, once per memo entry: tuples (`()`, `(v,)` and `tuple`)
    for `iter_family`, ranks (`0`, `v != 0` and `rank`) for
    `iter_family_ranks`, or one-line text (`"("`, `"v,"` and
    `one_line_tail`) for `line_blocks`.  A prefix with no completion (on an
    empty rank slice) yields no block, so every block holds a member.  This
    walk only lists; `count_family` counts.

    One recursive generator, `walk(j, stop, used, head)`, fills columns
    j..stop with each value `choices` of `_rules` allows, growing `head` by
    one piece per column, and yields `(used, head)` once per completion,
    with `column` holding it; the last column's values are yielded from its
    own loop, with no generator below it.  So a head costs one join per
    node of the walk, not one per column of each member.  The prefixes are
    the completions of the first n-2 columns (a single empty one when
    n <= 2).
    The tails of the last two columns depend only on the `key` of `_rules`
    at column n-1 (`used`, with the first two columns, their mirrors, for a
    symplectic family), so they are walked once per key into a memo that
    lives for one call.  The memo holds at most 2^(n+1) keys (times the
    (n+1)^2 mirror pairs for a symplectic family), each with at most
    (n+1)^2 tails, all dropped when the stream ends."""
    n = spec.n
    choices, key = _rules(spec)
    column = [0] * n
    pieces = [piece(v) for v in range(n + 1)]
    bit = [0] + [1 << v for v in range(1, n + 1)]

    def walk(j: int, stop: int, used: int, head) -> Iterator[tuple]:
        if j > stop:
            yield used, head
            return
        for v in choices(j, used, column):
            column[j - 1] = v
            if j < stop:
                yield from walk(j + 1, stop, used | bit[v], head + pieces[v])
            else:
                yield used | bit[v], head + pieces[v]
        column[j - 1] = 0

    depth = max(n - 2, 0)
    memo: dict = {}
    for used, prefix in walk(1, depth, 0, head):
        k = key(depth + 1, used, column)
        tails = memo.get(k)
        if tails is None:
            tails = memo[k] = [finish(column[depth:]) for _ in walk(depth + 1, n, used, head)]
        if tails:
            yield prefix, tails


def iter_family(spec: FamilySpec) -> Iterator[Rook]:
    """Yield the members of a family in lexicographic order, one at a time:
    each block of `_blocks` in turn, its prefix joined to every memoised
    two-column tail.  The stream holds the current prefix and the memo, not
    the family."""
    blocks = _blocks(spec, (), lambda v: (v,), tuple)
    return chain.from_iterable(map(prefix.__add__, tails) for prefix, tails in blocks)


def iter_family_ranks(spec: FamilySpec) -> Iterator[int]:
    """The rank of each member of a family, in the order of `iter_family`:
    the walk of `_blocks` grows each prefix's rank by one per filled column,
    each memoised tail holds its own rank, and a member's rank is one sum,
    mapped over the tails in C.  It builds no member; `count_reports` counts
    it as the enumerated histogram, one entry per member.

    >>> list(iter_family_ranks(FamilySpec(2, "borel-nil")))
    [0, 1]
    """
    blocks = _blocks(spec, 0, lambda v: int(v != 0), rank)
    return chain.from_iterable(map(prefix.__add__, tails) for prefix, tails in blocks)


def line_blocks(spec: FamilySpec) -> Iterator[tuple[str, list[str]]]:
    """The one-line text of a family, block by block, in the order of
    `iter_family`: pairs `(prefix, tails)` whose lines are `prefix + tail`
    for each tail in turn.  The walk of `_blocks` grows each prefix's text
    by one `"v,"` per column and formats each memoised tail once per memo
    entry, so a caller that joins a block's lines in one call does Python
    work per block, not per member.  The text holds only digits, commas
    and parentheses.

    >>> list(line_blocks(FamilySpec(2, "borel-nil")))
    [('(', ['0,0)', '0,1)'])]
    """
    return _blocks(spec, "(", "{},".format, one_line_tail)


def enum_family(spec: FamilySpec) -> list[Rook]:
    """Every member of a family (or of its rank slice), as a lexicographic
    list: the stream of `iter_family`, for callers that index or pair the
    elements."""
    return list(iter_family(spec))


def count_family(spec: FamilySpec, weight: Callable[[int, int], int] = lambda j, v: 0) -> int:
    """The number of members of a family (or of its rank slice), counted
    without building any member: the completions of columns j..n are
    counted once per `key` of `_rules`, by the same `choices` as the
    enumeration, and summed.

    A member counts 2 to the sum of `weight(j, v)` over its columns (column
    j holding v, 0 when empty), not 1; the memo stays exact, as that sum
    over columns j..n depends only on the completion.  With weight w per
    filled cell, the count of rank k is the base-2^w digit k while no count
    reaches 2^w (rook n=2 has 1, 4 and 2 members of ranks 0, 1 and 2):

    >>> oct(count_family(FamilySpec(2, "rook"), lambda j, v: 3 * (v != 0)))
    '0o241'

    A non-symplectic family's key is the used rows, so the memo holds at
    most 2^n counts per column.  A symplectic family's key also carries the
    n+1-j mirror columns still ahead of column j; it is shorter than the
    prefix only from column n/2+2 on, so the columns before that are walked
    without storing anything.  The memo lives for one call; at n=8 the
    count's `tracemalloc` peak is about 62 KiB for rook and 330 KiB for
    renner-sp.

    >>> count_family(FamilySpec(4, "rook"))
    209
    """
    n = spec.n
    choices, key = _rules(spec)
    first = n // 2 + 2 if FAMILIES[spec.family].symplectic else 1
    shifts = [[weight(j, v) for v in range(n + 1)] for j in range(1, n + 1)]
    column = [0] * n
    bit = [0] + [1 << v for v in range(1, n + 1)]
    memo: list[dict] = [{} for _ in range(n + 1)]  # memo[j]: key -> count

    def count(j: int, used: int) -> int:
        if j >= first:
            k = key(j, used, column)
            total = memo[j].get(k)
            if total is not None:
                return total
        total = 0
        shift = shifts[j - 1]
        for v in choices(j, used, column):
            column[j - 1] = v
            # a member ends at column n and counts 1 before its shifts
            total += (count(j + 1, used | bit[v]) if j < n else 1) << shift[v]
        column[j - 1] = 0
        if j >= first:
            memo[j][k] = total
        return total

    return count(1, 0)


def rank_slice_minimum(n: int, k: int) -> Rook:
    """(0, ..., 0, 1, 2, ..., k): the unique minimum of the rank-k slice
    of the upper-triangular rooks (symplectic or not)."""
    if not 0 <= k <= n:
        raise ValueError(f"rank {k} out of range 0..{n}")
    return (0,) * (n - k) + tuple(range(1, k + 1))
