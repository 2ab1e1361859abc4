import hashlib
import tracemalloc
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from poset_oracles import pairwise_rows, per_pair_poset
from rooks.order import (
    _rank_rows,
    bcr_le,
    bcr_le_ppr,
    build_poset,
    ehresmann_le,
    prefix_profile,
    profile_le,
    standard_form,
)
from rooks.rook import identity_rook, is_upper_triangular, multiply, transpose
from rooks.symplectic import FAMILIES, FamilySpec, enum_family, rank_slice_minimum
from rooks.weyl import SYMMETRIC, SYMPLECTIC, group_context

SP_FAMILIES = [name for name, family in FAMILIES.items() if family.symplectic]


def all_rooks(n):
    return enum_family(FamilySpec(n, "rook"))


def all_perms(n):
    return [tuple(p) for p in permutations(range(1, n + 1))]


def test_ehresmann_examples():
    assert ehresmann_le((2, 1, 4, 3), (4, 3, 2, 1))
    assert not ehresmann_le((3, 1, 2, 4), (2, 4, 1, 3))
    for v in all_perms(4):
        assert ehresmann_le(identity_rook(4), v)
    with pytest.raises(ValueError):
        ehresmann_le((1, 2), (1, 2, 3))


def test_bcr_examples():
    assert bcr_le((3, 1, 5, 2, 4), (5, 2, 4, 3, 1))
    assert bcr_le((0, 0, 1, 2), (0, 0, 2, 1))
    assert not bcr_le((0, 0, 0, 2), (0, 0, 1, 0))
    assert not bcr_le((0, 0, 1, 0), (0, 0, 0, 2))
    with pytest.raises(ValueError):
        bcr_le((1, 2), (1, 2, 3))


def test_final_prefix_is_decisive():
    # these agree on every prefix of length < n and separate only at i = n
    assert not bcr_le((0, 0, 0, 2), (0, 0, 1, 0))
    x, y = (0, 0, 0, 2), (0, 0, 1, 0)
    for i in range(1, 4):
        xs = sorted(x[:i], reverse=True)
        ys = sorted(y[:i], reverse=True)
        assert all(a <= b for a, b in zip(xs, ys))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bcr_is_partial_order_small(n):
    rooks = all_rooks(n)
    for x in rooks:
        assert bcr_le(x, x)
    for x, y in product(rooks, repeat=2):
        if bcr_le(x, y) and bcr_le(y, x):
            assert x == y
    for x, y, z in product(rooks, repeat=3):
        if bcr_le(x, y) and bcr_le(y, z):
            assert bcr_le(x, z)


def test_bcr_is_partial_order_r4():
    # exhaustive on all 209 elements, with the relation as bitmasks
    rooks = all_rooks(4)
    m = len(rooks)
    up = []
    for x in rooks:
        mask = 0
        for j, y in enumerate(rooks):
            if bcr_le(x, y):
                mask |= 1 << j
        up.append(mask)
    for i in range(m):
        assert up[i] & (1 << i)  # reflexive
        rest = up[i]
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            rest ^= low
            if i != j:
                assert not (up[j] & (1 << i))  # antisymmetric
            assert up[j] & ~up[i] == 0  # transitive: up[j] subset of up[i]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_bcr_restricts_to_ehresmann_on_permutations(n):
    perms = all_perms(n)
    for u, v in product(perms, repeat=2):
        assert bcr_le(u, v) == ehresmann_le(u, v)


def test_standard_form_examples():
    ctx = group_context(SYMMETRIC, 4)
    form = standard_form((0, 0, 1, 2), ctx)
    assert form.a == (1, 2, 3, 4)
    assert form.e == (1, 2, 0, 0)
    assert form.b == (3, 4, 1, 2)
    ident = identity_rook(4)
    assert standard_form(ident, ctx) == standard_form(ident, ctx)
    assert standard_form(ident, ctx).e == ident
    e2 = (1, 2, 0, 0)
    form = standard_form(e2, ctx)
    assert (form.a, form.e, form.b) == (ident, e2, ident)
    zero = (0,) * 4
    form = standard_form(zero, ctx)
    assert (form.a, form.e, form.b) == (ident, zero, ident)


def test_standard_form_reconstructs_and_is_unique():
    for kind, family in ((SYMMETRIC, "rook"), (SYMPLECTIC, "renner-sp")):
        ctx = group_context(kind, 4)
        for x in enum_family(FamilySpec(4, family)):
            form = standard_form(x, ctx)
            assert multiply(multiply(form.a, form.e), transpose(form.b)) == x


def test_standard_form_scales_past_the_chain_jump():
    # at n = 6 the cross-section chain runs e_0..e_3 then jumps to e_6
    ctx = group_context(SYMPLECTIC, 6)
    for x in enum_family(FamilySpec(6, "renner-sp")):
        form = standard_form(x, ctx)
        assert multiply(multiply(form.a, form.e), transpose(form.b)) == x


def test_comparators_agree_on_sample_at_n6():
    sp6 = enum_family(FamilySpec(6, "renner-sp"))
    sample = sp6[::13]  # deterministic stratified slice, 59 elements
    ctx = group_context(SYMPLECTIC, 6)
    for x in sample:
        for y in sample:
            assert bcr_le(x, y) == bcr_le_ppr(x, y, ctx)


def test_standard_form_rejects_non_members():
    ctx = group_context(SYMPLECTIC, 4)
    with pytest.raises(ValueError):
        standard_form((0, 0, 2, 3), ctx)  # range not admissible
    with pytest.raises(ValueError):
        standard_form((2, 1, 3, 4), ctx)  # not theta-fixed


def test_ppr_examples():
    ctx = group_context(SYMPLECTIC, 4)
    assert bcr_le_ppr((0, 0, 0, 1), (0, 0, 1, 0), ctx)
    assert bcr_le_ppr((0, 0, 1, 0), (0, 0, 1, 0), ctx)
    assert not bcr_le_ppr((0, 0, 1, 0), (0, 0, 0, 4), ctx)
    assert not bcr_le_ppr((0, 0, 0, 4), (0, 0, 1, 0), ctx)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_comparators_agree_small(n):
    ctx = group_context(SYMMETRIC, n)
    rooks = all_rooks(n)
    for x, y in product(rooks, repeat=2):
        assert bcr_le(x, y) == bcr_le_ppr(x, y, ctx)


def test_weyl_group_order_is_induced():
    # on theta-fixed permutations the intrinsic symplectic order agrees
    # with the ambient one
    ctx = group_context(SYMPLECTIC, 4)
    for u, v in product(ctx.elements, repeat=2):
        assert bcr_le_ppr(u, v, ctx) == ehresmann_le(u, v)


def test_triangularity_iff_a_le_b():
    ctx = group_context(SYMMETRIC, 4)
    for x in all_rooks(4):
        form = standard_form(x, ctx)
        assert is_upper_triangular(x) == ehresmann_le(form.a, form.b)


def test_build_poset_borel_sp_slice():
    poset = build_poset(enum_family(FamilySpec(4, "borel-sp", rank=2)))
    assert [poset.elements[i] for i in poset.minimals] == [rank_slice_minimum(4, 2)]
    maximals = [poset.elements[i] for i in poset.maximals]
    assert maximals == [(0, 0, 3, 4), (0, 2, 0, 4), (1, 0, 3, 0), (1, 2, 0, 0)]
    assert poset.graded


def test_build_poset_singleton_and_errors():
    poset = build_poset([(1, 0)])
    assert len(poset.elements) == 1 and not poset.covers
    assert poset.minimals == poset.maximals == (0,)
    with pytest.raises(ValueError):
        build_poset([(1, 0), (1, 0)])
    with pytest.raises(ValueError):
        build_poset([(1, 0), (1, 0, 0)])
    with pytest.raises(TypeError):  # one order, no comparator to choose
        build_poset([(1, 0)], comparator="one-line")


def test_build_poset_covers_are_reduced():
    elements = enum_family(FamilySpec(4, "borel-sp"))
    poset = build_poset(elements)
    less = {
        (i, j)
        for i in range(len(elements))
        for j in range(len(elements))
        if i != j and bcr_le(elements[i], elements[j])
    }
    for i, j in poset.covers:
        assert (i, j) in less
        assert not any(
            (i, k) in less and (k, j) in less for k in range(len(elements))
        )
    # every strict relation is reachable through covers
    reach = {i: {i} for i in range(len(elements))}
    changed = True
    while changed:
        changed = False
        for i, j in poset.covers:
            new = reach[j] - reach[i]
            if new:
                reach[i] |= new
                changed = True
    for i, j in less:
        assert j in reach[i]


def profile_rows(elems):
    """The order rows of `_rank_rows`, from `profile_le` on all pairs."""
    profiles = {x: prefix_profile(x) for x in elems}
    return pairwise_rows(elems, lambda x, y: profile_le(profiles[x], profiles[y]))


def poset_covers(poset):
    return sorted((poset.elements[i], poset.elements[j]) for i, j in poset.covers)


def bcr_le_covers(elems):
    """Covers of the one-line order by an all-pairs `bcr_le` reduction, as
    sorted (lower, upper) element pairs."""
    return poset_covers(per_pair_poset(elems, pairwise_rows(elems, bcr_le)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rank_rows_match_profile_rows(n):
    # the borel families have count fields that are constant on the family
    families = ["rook", "borel", "borel-nil"] + (["borel-sp"] if n % 2 == 0 else [])
    for family in families:
        elems = enum_family(FamilySpec(n, family))
        assert _rank_rows(elems) == profile_rows(elems), family


def _as_rook(values):
    """Zero every repeat of a nonzero value, keeping its first occurrence."""
    seen = set()
    out = []
    for v in values:
        out.append(0 if v in seen else v)
        if v:
            seen.add(v)
    return tuple(out)


@st.composite
def rook_sets(draw):
    n = draw(st.integers(1, 8))
    rook = st.lists(st.integers(0, n), min_size=n, max_size=n).map(_as_rook)
    return draw(st.lists(rook, min_size=2, max_size=40, unique=True))


@settings(max_examples=200, deadline=None)
@given(rook_sets())
def test_rank_rows_match_profile_rows_on_random_sets(elems):
    assert _rank_rows(elems) == profile_rows(elems)


def test_build_poset_covers_match_bcr_le_borel_sp_n6():
    elements = enum_family(FamilySpec(6, "borel-sp"))
    assert poset_covers(build_poset(elements)) == bcr_le_covers(elements)


# SHA-256 of repr(bcr_le_covers(all_rooks(5))): 7714 covers, computed once
# with the all-pairs reduction above (about 2.4 million bcr_le calls, too
# slow to repeat on every run).
ROOK_N5_COVERS_DIGEST = "4c13b82756c81e53d4711f64080376386e742bc7a01e95470bcf7317bd14f134"


def test_build_poset_covers_match_bcr_le_rook_n5():
    covers = poset_covers(build_poset(all_rooks(5)))
    assert len(covers) == 7714
    assert hashlib.sha256(repr(covers).encode()).hexdigest() == ROOK_N5_COVERS_DIGEST


def test_build_poset_holds_one_row_per_element():
    # m rows of m bits each take m^2/8 bytes; a second set of rows (the
    # transpose) would take the peak past that bound
    elements = enum_family(FamilySpec(7, "borel"))
    m = len(elements)
    assert m == 4140
    tracemalloc.start()
    try:
        build_poset(elements)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.8 * m * m / 8


def test_rank_rows_hold_one_count_row_per_element():
    # the rows take m^2/8 bytes; next to them each element keeps one row of
    # n rank counts, not all n^2 of them (those took the peak to 2.3 x m^2/8)
    elements = enum_family(FamilySpec(7, "borel"))
    m = len(elements)
    tracemalloc.start()
    try:
        _rank_rows(elements)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.8 * m * m / 8


def poset_fields(poset):
    return (poset.elements, poset.covers, poset.rank_of, poset.minimals,
            poset.maximals, poset.graded)


@pytest.mark.parametrize(
    "family, n",
    [(f, n) for f in FAMILIES for n in range(1, 6) if f not in SP_FAMILIES or n % 2 == 0]
    + [("borel-sp", 6)],
)
def test_layer_reduction_matches_per_pair_reduction(family, n):
    elements = enum_family(FamilySpec(n, family))
    expected = per_pair_poset(elements, _rank_rows(elements))
    assert poset_fields(build_poset(elements)) == poset_fields(expected)


@st.composite
def rook_subsets(draw):
    n = draw(st.integers(1, 5))
    return draw(st.lists(st.sampled_from(all_rooks(n)), min_size=1, max_size=40, unique=True))


@settings(max_examples=200, deadline=None)
@given(rook_subsets())
def test_layer_reduction_matches_per_pair_on_random_subsets(elems):
    # many such subsets are ungraded (77 of a sample of 200), so this
    # reaches the step that finds the covers that skip a layer
    expected = per_pair_poset(elems, profile_rows(elems))
    assert poset_fields(build_poset(elems)) == poset_fields(expected)


def test_layer_reduction_finds_a_cover_that_skips_a_layer():
    # (0,1,0) is minimal and covered by (0,1,3), which sits two layers up,
    # above the chain (0,0,2) < (0,0,3)
    elements = [(0, 0, 2), (0, 0, 3), (0, 1, 0), (0, 1, 3)]
    poset = build_poset(elements)
    assert poset.rank_of == (0, 1, 0, 2)
    assert poset.covers == ((0, 1), (1, 3), (2, 3))
    assert not poset.graded
    expected = per_pair_poset(elements, profile_rows(elements))
    assert poset_fields(poset) == poset_fields(expected)
