"""Slow reference routes that the tests compare the library with: powers of a
rook, its split into triangular parts, inversion counts of permutations and
the inclusion-exclusion form of the Stirling numbers."""

from dataclasses import dataclass
from math import comb, factorial

from rooks.rook import identity_rook, multiply, rank


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
