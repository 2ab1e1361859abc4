"""Symmetric groups and the symplectic Weyl group.

Permutations are total rooks: tuples ``(w_1, ..., w_n)`` with every value
1..n present once.  Both kinds of group are materialized the same way, by
breadth-first closure over their simple generators, which is cheap at desk
scale and keeps lengths, cosets, centralizers, and stabilizers exact: the
closure's table of word lengths answers membership and Coxeter length for
either kind, and `inversions` in tests/rook_oracles.py checks it in S_n.  Only
`group_context` branches on the kind: it picks the generators and the
cross-section chain together, and the rest reads both from the context.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .rook import Rook, diagonal_idempotent, identity_rook, multiply

Perm = Rook

SYMMETRIC = "symmetric"
SYMPLECTIC = "symplectic"


def theta_perm(w: Perm) -> Perm:
    """The involution (n+1-w_n, n+1-w_{n-1}, ..., n+1-w_1); its fixed
    points are exactly the symplectic Weyl group."""
    n = len(w)
    if n % 2:
        raise ValueError(f"size must be even, got {n}")
    return tuple(n + 1 - w[n - 1 - i] for i in range(n))


def simple_transposition(n: int, j: int) -> Perm:
    """r_j = (j, j+1) in one-line notation."""
    if not 1 <= j <= n - 1:
        raise ValueError(f"r_{j} undefined for size {n}")
    w = list(range(1, n + 1))
    w[j - 1], w[j] = w[j], w[j - 1]
    return tuple(w)


def symplectic_generators(l: int) -> list[Perm]:
    """The generators s_1, ..., s_l of the symplectic Weyl group of size
    n = 2l: s_j = r_j r_{n-j} for j < l, and s_l = r_l."""
    if l < 1:
        raise ValueError("l must be positive")
    n = 2 * l
    gens = []
    for j in range(1, l):
        gens.append(multiply(simple_transposition(n, j), simple_transposition(n, n - j)))
    gens.append(simple_transposition(n, l))
    return gens


def _bfs_closure(n: int, gens: tuple[Perm, ...]) -> dict[Perm, int]:
    """All products of the generators, with word-length (Cayley) distance."""
    ident = identity_rook(n)
    dist = {ident: 0}
    frontier = [ident]
    while frontier:
        new = []
        for w in frontier:
            for s in gens:
                u = multiply(w, s)
                if u not in dist:
                    dist[u] = dist[w] + 1
                    new.append(u)
        frontier = new
    return dist


class GroupContext(NamedTuple):
    """A materialized Weyl group of one kind, with its cross-section chain.

    Two contexts are equal, and hash alike, by (kind, n, generators) alone:
    the rest is determined by them, and `lengths`, a dict, has no hash."""

    kind: str
    n: int
    generators: tuple[Perm, ...]
    elements: tuple[Perm, ...]
    lengths: dict
    chain: tuple[Rook, ...]

    def _key(self):
        return (self.kind, self.n, self.generators)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (
            f"GroupContext(kind={self.kind!r}, n={self.n!r}, generators={self.generators!r},"
            f" elements={self.elements!r}, chain={self.chain!r})"
        )


@lru_cache(maxsize=None)
def group_context(kind: str, n: int) -> GroupContext:
    """The Weyl group of one kind and size, by breadth-first closure over
    its simple generators: r_1, ..., r_{n-1} for the symmetric group, and
    s_1, ..., s_l for the symplectic one of size n = 2l.  `lengths` maps
    every element to its Coxeter length, and `elements` lists them in
    lexicographic order.  `chain` holds the diagonal idempotents e_k (ones
    in the first k places) that act as orbit representatives: e_0 < ... < e_n
    for the rook monoid, e_0 < ... < e_l < e_n for the symplectic one."""
    if kind == SYMMETRIC:
        if n < 1:
            raise ValueError("size must be positive")
        gens = tuple(simple_transposition(n, j) for j in range(1, n))
        ranks = range(n + 1)
    elif kind == SYMPLECTIC:
        if n < 2 or n % 2:
            raise ValueError(f"symplectic size must be even and positive, got {n}")
        gens = tuple(symplectic_generators(n // 2))
        ranks = [*range(n // 2 + 1), n]
    else:
        raise ValueError(f"unknown group kind {kind!r}")
    lengths = _bfs_closure(n, gens)
    chain = tuple(diagonal_idempotent(n, range(1, k + 1)) for k in ranks)
    return GroupContext(kind, n, gens, tuple(sorted(lengths)), lengths, chain)


def coxeter_length(w: Perm, ctx: GroupContext) -> int:
    """Minimal word length in the simple generators of the context, read
    from its length table; a ValueError if w is not in the group."""
    if w not in ctx.lengths:
        raise ValueError(f"{w} is not in the {ctx.kind} group of size {ctx.n}")
    return ctx.lengths[w]


def generated_subgroup(gens, ctx: GroupContext) -> tuple[Perm, ...]:
    """The subgroup generated by a subset of the simple generators."""
    gens = tuple(gens)
    for s in gens:
        if s not in ctx.generators:
            raise ValueError(f"{s} is not a simple generator of the context")
    return tuple(sorted(_bfs_closure(ctx.n, gens)))


def min_coset_reps(gens, ctx: GroupContext) -> tuple[Perm, ...]:
    """Minimal-length representatives of the left cosets of the parabolic
    subgroup generated by ``gens``; each coset has a unique one.
    """
    subgroup = generated_subgroup(gens, ctx)
    assigned = set()
    reps = []
    for x in ctx.elements:
        if x in assigned:
            continue
        coset = sorted(multiply(x, w) for w in subgroup)
        lengths = [coxeter_length(y, ctx) for y in coset]
        best = min(lengths)
        if lengths.count(best) != 1:
            raise RuntimeError(f"coset of {x} has no unique shortest element")
        reps.append(coset[lengths.index(best)])
        assigned.update(coset)
    return tuple(sorted(reps))


class ParabolicData(NamedTuple):
    """Centralizer and stabilizer data of a cross-section idempotent."""

    commuting_generators: tuple[Perm, ...]
    centralizer: tuple[Perm, ...]
    stabilizer_generators: tuple[Perm, ...]
    stabilizer: tuple[Perm, ...]


def parabolic_data(e: Rook, ctx: GroupContext) -> ParabolicData:
    """Exhaustive centralizer {a : ae = ea} and stabilizer
    {a : ae = ea = e} of a chain idempotent.

    The listed generators are the simple generators in each set, read off
    the same definitions; the tests check that they do generate the
    centralizer and the stabilizer.
    """
    if e not in ctx.chain:
        raise ValueError(f"{e} is not an idempotent of the cross-section chain")
    commuting = tuple(s for s in ctx.generators if multiply(s, e) == multiply(e, s))
    centralizer = tuple(
        a for a in ctx.elements
        if multiply(a, e) == multiply(e, a)
    )
    stabilizer = tuple(
        a for a in centralizer if multiply(a, e) == e
    )
    stab_gens = tuple(s for s in commuting if multiply(s, e) == e)
    return ParabolicData(commuting, centralizer, stab_gens, stabilizer)
