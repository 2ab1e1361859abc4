from itertools import combinations, permutations

import pytest

from rook_oracles import inversions
from rooks.rook import diagonal_idempotent, identity_rook, multiply
from rooks.symplectic import theta_perm
from rooks.weyl import (
    SYMMETRIC,
    SYMPLECTIC,
    coxeter_length,
    generated_subgroup,
    group_context,
    min_coset_reps,
    parabolic_data,
    simple_transposition,
    symplectic_generators,
)


def all_perms(n):
    return [tuple(p) for p in permutations(range(1, n + 1))]


def test_theta_examples():
    assert theta_perm((1, 2, 3, 4)) == (1, 2, 3, 4)
    assert theta_perm((2, 1, 3, 4)) == (1, 2, 4, 3)
    assert theta_perm((2, 1, 4, 3)) == (2, 1, 4, 3)
    with pytest.raises(ValueError):
        theta_perm((1, 3, 2))


@pytest.mark.parametrize("n", [2, 4, 6])
def test_theta_is_involution(n):
    for w in all_perms(n):
        assert theta_perm(theta_perm(w)) == w


def test_symplectic_generators_examples():
    assert symplectic_generators(2) == [(2, 1, 4, 3), (1, 3, 2, 4)]
    assert symplectic_generators(1) == [(2, 1)]
    gens3 = symplectic_generators(3)
    assert len(gens3) == 3
    for s in gens3:
        assert multiply(s, s) == identity_rook(6)
    assert len(group_context(SYMPLECTIC, 6).elements) == 48


@pytest.mark.parametrize("l", [1, 2, 3])
def test_generated_group_is_theta_fixed_set(l):
    n = 2 * l
    ctx = group_context(SYMPLECTIC, n)
    fixed = {w for w in all_perms(n) if theta_perm(w) == w}
    assert set(ctx.elements) == fixed
    assert len(ctx.elements) == 2**l * __import__("math").factorial(l)


def test_generators_satisfy_defining_products():
    l = 3
    n = 6
    gens = symplectic_generators(l)
    for j in range(1, l):
        expected = multiply(simple_transposition(n, j), simple_transposition(n, n - j))
        assert gens[j - 1] == expected
    assert gens[l - 1] == simple_transposition(n, l)


def test_coxeter_length():
    s4 = group_context(SYMMETRIC, 4)
    sp4 = group_context(SYMPLECTIC, 4)
    assert coxeter_length(identity_rook(4), s4) == 0
    assert coxeter_length(identity_rook(4), sp4) == 0
    assert coxeter_length((2, 1, 4, 3), s4) == 2
    assert coxeter_length((2, 1, 4, 3), sp4) == 1
    with pytest.raises(ValueError):
        coxeter_length((2, 1, 3, 4), sp4)  # not theta-fixed
    for w in [(1, 1, 2, 3), (5, 1, 2, 3), (2, 2, 2, 2)]:
        with pytest.raises(ValueError):
            coxeter_length(w, s4)  # not a permutation of 1..4


def test_symmetric_length_is_inversions_and_matches_words():
    # spot check: r_1 r_2 has two inversions
    s4 = group_context(SYMMETRIC, 4)
    w = multiply(simple_transposition(4, 1), simple_transposition(4, 2))
    assert coxeter_length(w, s4) == inversions(w) == 2
    # the closure over r_1..r_{n-1} against itertools and inversion counts
    for n in range(1, 7):
        ctx = group_context(SYMMETRIC, n)
        assert ctx.elements == tuple(permutations(range(1, n + 1)))
        for w in ctx.elements:
            assert coxeter_length(w, ctx) == inversions(w)


def test_parabolic_rook_monoid_example():
    ctx = group_context(SYMMETRIC, 4)
    data = parabolic_data(diagonal_idempotent(4, [1, 2]), ctx)
    r1 = simple_transposition(4, 1)
    r3 = simple_transposition(4, 3)
    assert set(data.commuting_generators) == {r1, r3}
    assert set(data.stabilizer_generators) == {r3}
    assert set(data.stabilizer) == set(generated_subgroup([r3], ctx))
    assert set(data.centralizer) == set(generated_subgroup([r1, r3], ctx))


def test_parabolic_symplectic_examples():
    ctx = group_context(SYMPLECTIC, 4)
    s1, s2 = ctx.generators
    data1 = parabolic_data(diagonal_idempotent(4, [1]), ctx)
    assert data1.commuting_generators == (s2,)
    assert set(data1.stabilizer) == set(generated_subgroup([s2], ctx))
    data2 = parabolic_data(diagonal_idempotent(4, [1, 2]), ctx)
    assert data2.commuting_generators == (s1,)
    assert data2.stabilizer == (identity_rook(4),)


@pytest.mark.parametrize("l", [2, 3])
def test_parabolic_structure(l):
    # centralizer of e_d is generated by the s_j with j != d, and the
    # stabilizer by s_{d+1}, ..., s_l
    n = 2 * l
    ctx = group_context(SYMPLECTIC, n)
    gens = ctx.generators
    for d in range(1, l + 1):
        e = diagonal_idempotent(n, range(1, d + 1))
        data = parabolic_data(e, ctx)
        expected_centralizer = generated_subgroup(
            [gens[j] for j in range(l) if j != d - 1], ctx
        )
        expected_stabilizer = generated_subgroup([gens[j] for j in range(d, l)], ctx)
        assert set(data.centralizer) == set(expected_centralizer)
        assert set(data.stabilizer) == set(expected_stabilizer)
        assert set(data.stabilizer) <= set(data.centralizer)
        assert set(data.stabilizer_generators) == set(gens[d:])


@pytest.mark.parametrize(
    "kind, n",
    [(SYMMETRIC, n) for n in range(1, 6)] + [(SYMPLECTIC, n) for n in (2, 4, 6, 8)],
)
def test_parabolic_generators_generate_centralizer_and_stabilizer(kind, n):
    ctx = group_context(kind, n)
    for e in ctx.chain:
        data = parabolic_data(e, ctx)
        assert generated_subgroup(data.stabilizer_generators, ctx) == data.stabilizer
        assert generated_subgroup(data.commuting_generators, ctx) == data.centralizer


def test_parabolic_rejects_non_chain_idempotent():
    ctx = group_context(SYMMETRIC, 4)
    with pytest.raises(ValueError):
        parabolic_data(diagonal_idempotent(4, [2, 4]), ctx)


def test_cross_section_chain():
    assert group_context(SYMMETRIC, 2).chain == ((0, 0), (1, 0), (1, 2))
    assert group_context(SYMPLECTIC, 2).chain == ((0, 0), (1, 0), (1, 2))
    assert group_context(SYMPLECTIC, 4).chain == (
        (0, 0, 0, 0),
        (1, 0, 0, 0),
        (1, 2, 0, 0),
        (1, 2, 3, 4),
    )
    with pytest.raises(ValueError):
        group_context(SYMPLECTIC, 3)


def test_min_coset_reps_examples():
    ctx = group_context(SYMMETRIC, 4)
    assert min_coset_reps([], ctx) == tuple(sorted(all_perms(4)))
    assert min_coset_reps(ctx.generators, ctx) == (identity_rook(4),)
    reps = min_coset_reps(
        [simple_transposition(4, 1), simple_transposition(4, 3)], ctx
    )
    assert len(reps) == 6
    assert (3, 4, 1, 2) in reps
    for w in reps:
        assert w[0] < w[1] and w[2] < w[3]
    with pytest.raises(ValueError):
        min_coset_reps([(2, 3, 1, 4)], ctx)  # not a simple generator


# the six hand-picked cases first, so their ids stay subset0..subset5, then
# every other subset of the simple generators of S_4, S_5, Sp_4, Sp_6, Sp_8
PICKED_SUBSETS = [
    (SYMMETRIC, 4, (1,)),
    (SYMMETRIC, 4, (1, 3)),
    (SYMMETRIC, 5, (2, 4)),
    (SYMPLECTIC, 4, (1,)),
    (SYMPLECTIC, 6, (1, 3)),
    (SYMPLECTIC, 6, (2,)),
]
EVERY_SUBSET = [
    (kind, n, subset)
    for kind, n, rank in [(SYMMETRIC, 4, 3), (SYMMETRIC, 5, 4)]
    + [(SYMPLECTIC, n, n // 2) for n in (4, 6, 8)]
    for size in range(rank + 1)
    for subset in combinations(range(1, rank + 1), size)
]


@pytest.mark.parametrize(
    "kind,n,subset",
    PICKED_SUBSETS + [case for case in EVERY_SUBSET if case not in PICKED_SUBSETS],
)
def test_min_coset_reps_properties(kind, n, subset):
    ctx = group_context(kind, n)
    gens = [ctx.generators[i - 1] for i in subset]
    reps = min_coset_reps(gens, ctx)
    subgroup = generated_subgroup(gens, ctx)
    # cosets partition the group
    assert len(reps) * len(subgroup) == len(ctx.elements)
    seen = set()
    for x in reps:
        coset = {multiply(x, w) for w in subgroup}
        assert not (coset & seen)
        seen |= coset
        # the representative is the unique length minimizer of its coset
        lx = coxeter_length(x, ctx)
        assert all(coxeter_length(y, ctx) > lx for y in coset if y != x)
    assert seen == set(ctx.elements)
    # length-additivity definition
    defined = {
        x
        for x in ctx.elements
        if all(
            coxeter_length(multiply(x, w), ctx)
            == coxeter_length(x, ctx) + coxeter_length(w, ctx)
            for w in subgroup
        )
    }
    assert defined == set(reps)


def test_min_coset_reps_refuses_a_corrupted_length_table():
    # with every length 0 no element has l(ws) > l(w), so the count of
    # descent-free elements cannot be the number of cosets
    ctx = group_context(SYMMETRIC, 4)
    flat = ctx._replace(lengths=dict.fromkeys(ctx.lengths, 0))
    with pytest.raises(RuntimeError):
        min_coset_reps(ctx.generators[:1], flat)
    assert min_coset_reps(ctx.generators[:1], ctx) != ()
