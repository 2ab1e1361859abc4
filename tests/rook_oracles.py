"""Slow reference routes that the tests compare the library with: powers of a
rook, its split into triangular parts, inversion counts of permutations, the
inclusion-exclusion form of the Stirling numbers and the leaf-by-leaf family
descent."""

from dataclasses import dataclass
from math import comb, factorial
from typing import Iterator

from rooks.rook import Rook, identity_rook, multiply, rank
from rooks.symplectic import FAMILIES, FamilySpec


def power(x, m):
    """x multiplied by itself m times, starting from the identity."""
    out = identity_rook(len(x))
    for _ in range(m):
        out = multiply(out, x)
    return out


@dataclass(frozen=True)
class TriangularParts:
    """The unique split of a rook into strictly lower, diagonal, and
    strictly upper pieces (entrywise, with pairwise disjoint supports)."""

    lower: tuple
    diag: tuple
    upper: tuple

    @property
    def ranks(self):
        return (rank(self.lower), rank(self.diag), rank(self.upper))


def triangular_decompose(x) -> TriangularParts:
    n = len(x)
    lower = [0] * n
    diag = [0] * n
    upper = [0] * n
    for j, v in enumerate(x, start=1):
        if not v:
            continue
        if v > j:
            lower[j - 1] = v
        elif v == j:
            diag[j - 1] = v
        else:
            upper[j - 1] = v
    return TriangularParts(tuple(lower), tuple(diag), tuple(upper))


def inversions(w) -> int:
    """The pairs i < j with w_i > w_j: the Coxeter length in S_n."""
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def stirling2_inclusion_exclusion(m: int, k: int) -> int:
    """The alternating-sum formula for S(m, k); out-of-range arguments are 0."""
    if m < 0 or k < 0 or k > m:
        return 0
    total = sum((-1) ** i * comb(k, i) * (k - i) ** m for i in range(k + 1))
    q, r = divmod(total, factorial(k))
    if r:
        raise ArithmeticError(f"inclusion-exclusion sum not divisible at ({m},{k})")
    return q


def iter_family_by_leaves(spec: FamilySpec) -> Iterator[Rook]:
    """Yield the members of a family in lexicographic order, one at a time:
    the oracle of `symplectic.iter_family`, which reads the last two
    columns from a memo instead.

    The descent runs over the columns with an explicit stack of choice
    iterators, one per open column; the last column's choices are yielded
    straight from the innermost loop, so only the current prefix and its
    choice lists are held.  `choices(j)` gives the values column j may take
    after the current prefix: 0 or an unused row up to the family's bound,
    pruned to completions of the requested rank and, for a symplectic
    family, to prefixes that can still complete to a member, so every leaf
    is one."""
    n = spec.n
    target = spec.rank
    lag, symplectic = FAMILIES[spec.family]
    column = [0] * n
    used: set[int] = set()

    def choices(j: int) -> list[int]:
        top = n if lag is None else j - lag
        values = [0] + [v for v in range(1, top + 1) if v not in used]
        if target is not None:
            # only 0 once the rank is reached, no 0 when every remaining
            # column must be nonzero to reach it
            need = target - len(used)
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
        if mirror and len(used) == j - 1:
            # no 0 so far: the permutation route, and the singular route (a 0
            # here) while column j is the first one with a filled mirror
            partner = n + 1 - mirror
            return [v for v in values if v == partner or (not v and 2 * j == n + 2)]
        if mirror:
            return [v for v in values if not v]
        return [v for v in values if not v or n + 1 - v not in used]

    stack = [iter(choices(1))]
    while stack:
        j = len(stack)
        if j == n:
            for v in stack.pop():
                column[-1] = v
                yield tuple(column)
            continue
        if column[j - 1]:
            used.discard(column[j - 1])
        v = next(stack[-1], None)
        if v is None:
            column[j - 1] = 0
            stack.pop()
            continue
        column[j - 1] = v
        if v:
            used.add(v)
        stack.append(iter(choices(j + 1)))
