"""Admissible subsets, symplectic rooks and rook families.

For even n and the index involution theta(i) = n+1-i, a subset S of
{1, ..., n} is admissible when theta(S) and S are disjoint.  The symplectic
Renner monoid consists of the singular rooks whose domain and range are both
admissible, together with the theta-fixed permutations.

Families are enumerated by one walk over the columns in lexicographic order,
`_blocks`.  It walks the first n-2 columns and yields each prefix with the
list of its two-column tails, which the same walk fills; the tails depend
only on the rows the prefix uses (and, for a symplectic family, on the first
two columns, which the last two mirror), so they come from a memo that lives
for one call.  `iter_family` streams the members, each prefix joined to each
tail: a caller that folds over a family holds one prefix and the memo, not
the family.  `count_family` adds up the tail lengths and builds no member.
`iter_family_lines` streams the one-line text that `enum --format oneline`
and `--format json` print: the memo holds each tail's text, so each prefix
is formatted once and each memoised tail once, and a member's line is one
string join (rook n=8, 1,441,729 lines, in about 2 s to /dev/null on a
2-CPU Xeon, against about 5 s formatting member by member).
`enum_family` is the stream as a list, for callers that index or pair the
elements.  For the symplectic families the descent itself only extends a
prefix that can still complete to a member (the choice function inside
`_blocks`), so no member is tested; `is_symplectic_rook` stays as the
independent membership oracle, and the tests compare the descent with it,
with the group-orbit description and with the leaf-by-leaf descent it
replaced.  `FamilySpec` refuses a size beyond DESK_LIMIT, so every consumer
refuses it before any work.  `FAMILIES` is the one place a family is defined:
its `Family` record, which the descent, the CLI, `nilpotent` and `verify` read.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import Callable, Iterator, NamedTuple, Optional

from .rook import (
    Rook,
    check_int,
    domain,
    is_permutation,
    one_line_head,
    one_line_tail,
    range_of,
)
from .weyl import theta_perm

DESK_LIMIT = 8


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


def is_symplectic_rook(x: Rook) -> bool:
    """Membership in the symplectic Renner monoid: a singular rook with
    admissible domain and range, or a theta-fixed permutation."""
    n = len(x)
    _check_even(n)
    if is_permutation(x):
        return theta_perm(x) == x
    return is_admissible(domain(x), n) and is_admissible(range_of(x), n)


@dataclass(frozen=True)
class FamilySpec:
    """A named enumeration: family, matrix size, optional rank slice."""

    n: int
    family: str
    rank: Optional[int] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {tuple(FAMILIES)}")
        if check_int(self.n, "size") < 1:
            raise ValueError("size must be positive")
        if FAMILIES[self.family].symplectic:
            _check_even(self.n)
        if self.rank is not None and not 0 <= check_int(self.rank, "rank") <= self.n:
            raise ValueError(f"rank {self.rank} out of range 0..{self.n}")
        if self.n > DESK_LIMIT:
            raise ResourceLimitError(
                f"enumeration supports sizes up to {DESK_LIMIT}, got {self.n}"
            )


def _blocks(spec: FamilySpec, finish: Callable = tuple) -> Iterator[tuple[Rook, list]]:
    """Yield the members of a family as blocks `(prefix, tails)`, in
    lexicographic order: the block's members are `prefix + tail` for each
    tail in turn.  Each tail is stored as `finish` of the list of its
    entries, once per memo entry: a tuple by default, or whatever a
    consumer folds a tail into (its one-line text, its triangular ranks).

    One recursive generator, `walk(j, stop)`, fills columns j..stop with
    each value `choices(j)` allows and yields once per completion, with
    `column` and the bitmask `used` of used rows holding it.  `choices(j)`
    gives the values column j may take after the current prefix: 0 or an
    unused row up to the family's bound, pruned to completions of the
    requested rank and, for a symplectic family, to prefixes that can still
    complete to a member, so every completion is one.  The prefixes are the
    completions of the first n-2 columns (a single empty one when n <= 2).
    For the last two columns `choices` reads only `used` and, for a
    symplectic family, their mirrors, the first two columns; so their tails
    are walked once per key (`used`, with `prefix[:2]` for a symplectic
    family) into a memo that lives for one call.  The memo holds at most
    2^(n+1) keys (times the (n+1)^2 mirror pairs for a symplectic family),
    each with at most (n+1)^2 tails, all dropped when the stream ends."""
    n = spec.n
    target = spec.rank
    lag, symplectic = FAMILIES[spec.family]
    column = [0] * n
    used = 0  # bit v set while row v is in use

    def choices(j: int) -> list[int]:
        top = n if lag is None else j - lag
        values = [0] + [v for v in range(1, top + 1) if not used >> v & 1]
        if target is not None:
            # only 0 once the rank is reached, no 0 when every remaining
            # column must be nonzero to reach it
            need = target - used.bit_count()
            if need == 0:
                values = values[:1]
            elif need == n - j + 1:
                values = values[1:]
        if not symplectic:
            return values
        # A member is either singular, with admissible domain and range, or
        # a theta-fixed permutation, x_{n+1-j} = n+1-x_j; so a prefix stays
        # open on one of two routes, both read off the prefix itself:
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
        mirror = column[n - j] if 2 * j > n else 0
        if mirror and used.bit_count() == j - 1:
            # no 0 so far: the permutation route, and the singular route (a 0
            # here) while column j is the first one with a filled mirror
            partner = n + 1 - mirror
            return [v for v in values if v == partner or (not v and 2 * j == n + 2)]
        if mirror:
            return [v for v in values if not v]
        return [v for v in values if not v or not used >> (n + 1 - v) & 1]

    def walk(j: int, stop: int) -> Iterator[None]:
        nonlocal used
        if j > stop:
            yield
            return
        for v in choices(j):
            bit = v and 1 << v  # a 0 entry uses no row
            column[j - 1] = v
            used ^= bit
            yield from walk(j + 1, stop)
            used ^= bit
        column[j - 1] = 0

    depth = max(n - 2, 0)
    memo: dict = {}
    for _ in walk(1, depth):
        key = (used, column[0], column[1]) if symplectic else used
        tails = memo.get(key)
        if tails is None:
            tails = memo[key] = [finish(column[depth:]) for _ in walk(depth + 1, n)]
        yield tuple(column[:depth]), tails


def iter_family(spec: FamilySpec) -> Iterator[Rook]:
    """Yield the members of a family in lexicographic order, one at a time:
    each block of `_blocks` in turn, its prefix joined to every memoised
    two-column tail.  The stream holds the current prefix and the memo, not
    the family."""
    return chain.from_iterable(map(prefix.__add__, tails) for prefix, tails in _blocks(spec))


def iter_family_lines(spec: FamilySpec) -> Iterator[str]:
    """The one-line text of each member of a family, in the order of
    `iter_family`: each block's prefix is formatted once, each memoised tail
    once per memo entry, and a member's line is the one joined to the other.

    >>> list(iter_family_lines(FamilySpec(2, "borel-nil")))
    ['(0,0)', '(0,1)']
    """
    return chain.from_iterable(
        map(one_line_head(prefix).__add__, tails)
        for prefix, tails in _blocks(spec, one_line_tail)
    )


def enum_family(spec: FamilySpec) -> list[Rook]:
    """Every member of a family (or of its rank slice), as a lexicographic
    list: the stream of `iter_family`, for callers that index or pair the
    elements."""
    return list(iter_family(spec))


def count_family(spec: FamilySpec) -> int:
    """The number of members of a family (or of its rank slice), summed over
    the blocks of `_blocks` without building any member.

    >>> count_family(FamilySpec(4, "rook"))
    209
    """
    return sum(len(tails) for _, tails in _blocks(spec))


def rank_slice_minimum(n: int, k: int) -> Rook:
    """(0, ..., 0, 1, 2, ..., k): the unique minimum of the rank-k slice
    of the upper-triangular rooks (symplectic or not)."""
    if not 0 <= k <= n:
        raise ValueError(f"rank {k} out of range 0..{n}")
    return (0,) * (n - k) + tuple(range(1, k + 1))
