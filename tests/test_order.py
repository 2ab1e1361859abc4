import hashlib
import pickle
import random
import sys
from functools import cache
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from fresh_peak import fresh_peak
from patch_everywhere import patch_everywhere
from poset_oracles import (
    bcr_le_ppr,
    bcr_le_ppr_on,
    ehresmann_le,
    forms_le,
    pairwise_rows,
    per_pair_poset,
    plain_witnesses,
    prefix_profile,
    profile_le,
)
from rooks import order, rook, standard, verify
from rooks.order import bcr_le, build_poset, poset_ranks, rank_count_le, rank_counts, rank_rows
from rooks.rook import identity_rook, is_upper_triangular, multiply, rank, transpose
from rooks.standard import _dominance, standard_form, standard_form_rows
from rooks.symplectic import FAMILIES, FamilySpec, enum_family, rank_slice_minimum
from rooks.weyl import SYMMETRIC, SYMPLECTIC, group_context, min_coset_reps, parabolic_data

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
    ppr = bcr_le_ppr_on(sample, group_context(SYMPLECTIC, 6))
    for x in sample:
        for y in sample:
            assert bcr_le(x, y) == ppr(x, y)


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
    rooks = all_rooks(n)
    ppr = bcr_le_ppr_on(rooks, group_context(SYMMETRIC, n))
    for x, y in product(rooks, repeat=2):
        assert bcr_le(x, y) == ppr(x, y)


def forms_le_with_plain_products(sx, sy, ctx):
    # the standard-form criterion as written: each witness taken through
    # multiply and transpose, each comparison through ehresmann_le
    if sx.rank > sy.rank:
        return False
    return any(
        ehresmann_le(sx.a, multiply(sy.a, w))
        and ehresmann_le(multiply(transpose(w), transpose(sy.b)), transpose(sx.b))
        for w in plain_witnesses(ctx.kind, ctx.n, sy.e, sx.e)
    )


@pytest.mark.parametrize(
    "kind,family,n",
    [
        (SYMMETRIC, "rook", 1),
        (SYMMETRIC, "rook", 2),
        (SYMMETRIC, "rook", 3),
        (SYMPLECTIC, "renner-sp", 4),
        (SYMPLECTIC, "renner-sp", 6),
    ],
)
def test_forms_le_matches_the_criterion_with_plain_products(kind, family, n):
    ctx = group_context(kind, n)
    elems = enum_family(FamilySpec(n, family))
    if n == 6:
        elems = elems[::13]  # the 59-element sample of test_comparators_agree_on_sample_at_n6
    forms = [standard_form(x, ctx) for x in elems]
    for sx, sy in product(forms, repeat=2):
        assert forms_le(sx, sy, ctx) == forms_le_with_plain_products(sx, sy, ctx), (sx, sy)


@pytest.mark.parametrize(
    "kind,n",
    [(SYMMETRIC, n) for n in range(1, 7)] + [(SYMPLECTIC, n) for n in (2, 4, 6, 8)],
)
def test_dominance_table_matches_ehresmann_le_and_multiply(kind, n):
    elements = group_context(kind, n).elements
    table = _dominance(kind, n)
    assert table.index == {w: i for i, w in enumerate(elements)}
    for j, v in enumerate(elements):
        expect = sum(1 << i for i, u in enumerate(elements) if ehresmann_le(u, v))
        assert table.below[j] == expect, v


@pytest.mark.parametrize("kind,n", [(SYMMETRIC, 7), (SYMPLECTIC, 10)])
def test_dominance_table_matches_ehresmann_le_on_a_sample(kind, n):
    # 5,040 and 3,840 elements, past the reach of a |W|^2 product table:
    # below against ehresmann_le on 20,000 pairs drawn with a fixed seed,
    # the pairs of the same element included
    elements = group_context(kind, n).elements
    table = _dominance(kind, n)
    draw = random.Random(7).randrange
    for _ in range(20_000):
        i, j = draw(len(elements)), draw(len(elements))
        expect = ehresmann_le(elements[i], elements[j])
        assert table.below[j] >> i & 1 == expect, (elements[i], elements[j])


@cache
def coset_representatives(kind, n, r):
    # (e, D_*(e), D(e)) for the chain idempotent e of rank r
    ctx = group_context(kind, n)
    e = next(f for f in ctx.chain if rank(f) == r)
    data = parabolic_data(e, ctx)
    return (
        e,
        min_coset_reps(data.stabilizer_generators, ctx),
        min_coset_reps(data.commuting_generators, ctx),
    )


def standard_forms_by_scan(x, ctx):
    # every (a, b) in D_*(e) x D(e) with a e b^{-1} = x, by the exhaustive
    # left x right scan with plain products
    e, d_star, d = coset_representatives(ctx.kind, ctx.n, rank(x))
    return [(a, b) for a in d_star for b in d if multiply(multiply(a, e), transpose(b)) == x]


@pytest.mark.parametrize(
    "kind,family,n",
    [(SYMMETRIC, "rook", n) for n in range(1, 5)]
    + [(SYMPLECTIC, "renner-sp", n) for n in (2, 4, 6)],
)
def test_standard_form_matches_the_left_right_scan(kind, family, n):
    ctx = group_context(kind, n)
    for x in enum_family(FamilySpec(n, family)):
        form = standard_form(x, ctx)
        assert standard_forms_by_scan(x, ctx) == [(form.a, form.b)], x
        assert form.b_inv == transpose(form.b)


def forms_rows(members, ctx):
    # bit i of row j iff forms_le on (members[i], members[j]), pair by pair
    forms = [standard_form(x, ctx) for x in members]
    return [sum(1 << i for i, sx in enumerate(forms) if forms_le(sx, sy, ctx)) for sy in forms]


@pytest.mark.parametrize(
    "kind,family,n",
    [(SYMMETRIC, "rook", n) for n in range(1, 5)]
    + [(SYMPLECTIC, "renner-sp", n) for n in (2, 4, 6)],
)
def test_standard_form_rows_match_forms_le(kind, family, n):
    ctx = group_context(kind, n)
    members, rows = standard_form_rows(enum_family(FamilySpec(n, family)), ctx)
    assert rows == forms_rows(members, ctx)


@pytest.mark.parametrize(
    "kind,family,n",
    [(SYMMETRIC, "rook", n) for n in range(1, 6)]
    + [(SYMPLECTIC, "renner-sp", n) for n in (2, 4, 6)],
)
def test_standard_form_slots_are_a_bijection(kind, family, n):
    # the members are made from the slots, and the search is the oracle of
    # that: the member in the slot of (f, c, d) has the standard form
    # c f d^{-1}, so the slots of D_*(f) x D(f) over the chain hold one
    # member each, in slot order, and the members are the family's
    ctx = group_context(kind, n)
    elems = enum_family(FamilySpec(n, family))
    slots = [
        (c, f, d)
        for f in ctx.chain
        for c in coset_representatives(kind, n, rank(f))[1]
        for d in coset_representatives(kind, n, rank(f))[2]
    ]
    members, rows = standard_form_rows(elems, ctx)
    assert len(members) == len(rows) == len(slots)
    assert sorted(members) == sorted(elems)
    for x, (c, f, d) in zip(members, slots):
        form = standard_form(x, ctx)
        assert (form.a, form.e, form.b) == (c, f, d), x


def test_one_member_in_two_slots_raises(monkeypatch):
    # coset data of rank 1 that lists its last b twice makes the members of
    # that b twice: 34 + 3 slots give 34 distinct members
    ctx = group_context(SYMMETRIC, 3)
    original = standard._coset_data

    def repeating(kind, n, r):
        e, left_of, right, centralizer = original(kind, n, r)
        return e, left_of, (right + right[-1:] if r == 1 else right), centralizer

    monkeypatch.setattr(standard, "_coset_data", repeating)
    with pytest.raises(RuntimeError, match="the 37 standard-form slots .* give 34 distinct members"):
        standard_form_rows(all_rooks(3), ctx)


def test_a_member_short_of_the_slots_raises():
    ctx = group_context(SYMMETRIC, 3)
    with pytest.raises(
        RuntimeError, match="the 34 standard-form slots .* give 34 distinct members, not the 33 given"
    ):
        standard_form_rows(all_rooks(3)[:-1], ctx)


def count_right_products(monkeypatch):
    # every call of rook.right_product, under every name a module holds it
    # by, multiply's included
    gather = rook.right_product
    made = [0]

    def counted(y):
        made[0] += 1
        return gather(y)

    patch_everywhere(monkeypatch, gather, counted)
    return made


def test_a_warm_inrsn_check_gathers_once_per_left_representative_and_member(monkeypatch):
    # with the Bruhat and coset tables cached, the only products are
    # those of the rows' own product table, one gather per group element
    # over all the padded elements, and those that make the members from
    # their slots: c f once per c in D_*(f) on each rank, then c f d^{-1}
    # once per member; the witnesses are read off the product table, the
    # centralizers off the cached coset data, and the rows are bit work.  A
    # standard-form search per member gathers once per b in D(e_x),
    # 905 + 201 times at n = 4; a pair test that gathers its products makes
    # at least one on each pair with rank(x) <= rank(y) (31,754 at n = 4),
    # and a rebuilt Bruhat table 42 at S_4: two per reflection t and simple
    # reflection s to close the simple reflections under s t s, then one per
    # reflection
    routes = [(SYMMETRIC, "rook"), (SYMPLECTIC, "renner-sp")]
    expected = [
        sum(len(coset_representatives(kind, 4, rank(f))[1]) for f in group_context(kind, 4).chain)
        + len(enum_family(FamilySpec(4, family)))
        + len(group_context(kind, 4).elements)
        for kind, family in routes
    ]
    assert expected == [65 + 209 + 24, 21 + 57 + 8]
    verify._check_inrsn(4)
    made = count_right_products(monkeypatch)
    verify._check_inrsn(4)
    assert made[0] == sum(expected)


def test_a_standard_form_gathers_once_per_right_representative(monkeypatch):
    # the search for x reads a e = x b, one gather per b in D(e_x); the
    # left x right scan gathers once per pair (a, b), 15,233 times over the
    # rooks of size 4.  The search reads no group table, so emptying the
    # cache of S_4's Bruhat table, whose rebuild takes 42 gathers, adds none
    ctx = group_context(SYMMETRIC, 4)
    elems = all_rooks(4)
    for x in elems:
        standard_form(x, ctx)  # the per-rank coset data, built once
    expected = sum(len(coset_representatives(SYMMETRIC, 4, rank(x))[2]) for x in elems)
    assert expected == 905
    standard._dominance.cache_clear()
    made = count_right_products(monkeypatch)
    for x in elems:
        standard_form(x, ctx)
    assert made[0] == expected


def test_weyl_group_order_is_induced():
    # on theta-fixed permutations the intrinsic symplectic order agrees
    # with the ambient one
    ctx = group_context(SYMPLECTIC, 4)
    ppr = bcr_le_ppr_on(ctx.elements, ctx)
    for u, v in product(ctx.elements, repeat=2):
        assert ppr(u, v) == ehresmann_le(u, v)


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
    pairs = list(poset.cover_pairs())
    for i, j in pairs:
        assert (i, j) in less
        assert not any(
            (i, k) in less and (k, j) in less for k in range(len(elements))
        )
    # every strict relation is reachable through covers
    reach = {i: {i} for i in range(len(elements))}
    changed = True
    while changed:
        changed = False
        for i, j in pairs:
            new = reach[j] - reach[i]
            if new:
                reach[i] |= new
                changed = True
    for i, j in less:
        assert j in reach[i]


def profile_rows(elems):
    """The order rows of `rank_rows`, from `profile_le` on all pairs."""
    profiles = {x: prefix_profile(x) for x in elems}
    return pairwise_rows(elems, lambda x, y: profile_le(profiles[x], profiles[y]))


def poset_covers(poset):
    return sorted((poset.elements[i], poset.elements[j]) for i, j in poset.cover_pairs())


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
        assert rank_rows(elems) == profile_rows(elems), family


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
    assert rank_rows(elems) == profile_rows(elems)


def varying_count_fields(elems):
    """The number of rank-count fields c(i, k) = #{j <= i : x_j >= k} that
    are not constant on elems."""
    n = len(elems[0]) if elems else 0
    columns = zip(*(
        [sum(v >= k for v in x[:i]) for i in range(1, n + 1) for k in range(1, n + 1)]
        for x in elems
    ))
    return sum(len(set(column)) > 1 for column in columns)


@pytest.mark.parametrize(
    "elems, varying",
    [
        ([], 0),
        ([(0, 2, 1)], 0),
        ([(0, 1), (0, 1)], 0),  # a repeat is below the other copy, as with profile_le
        ([(0, 0), (0, 1)], 1),  # only c(2, 1) varies
        ([(0, 0, 1), (0, 0, 0), (0, 0, 1)], 1),
        ([(0, 0, 0), (0, 0, 1), (0, 0, 2)], 2),
    ],
)
def test_rank_rows_with_at_most_one_varying_field(elems, varying):
    assert varying_count_fields(elems) == varying
    assert rank_rows(elems) == profile_rows(elems)


@pytest.mark.parametrize(
    "n,family", [(1, "rook"), (2, "rook"), (3, "rook"), (4, "rook"), (5, "borel"), (6, "renner-sp")]
)
def test_rank_count_le_matches_the_profile_oracle_on_every_pair(n, family):
    elems = enum_family(FamilySpec(n, family))
    le = rank_count_le(n)
    counts = rank_counts(elems)
    profiles = [prefix_profile(x) for x in elems]
    for cx, px in zip(counts, profiles):
        assert [le(cx, cy) for cy in counts] == [profile_le(px, py) for py in profiles]


def test_rank_count_le_is_exact_up_to_127_and_refuses_more():
    # c(127, 1) is 127 on the permutations: one more and the high bit of a
    # count byte would be set before the subtraction
    n = 127
    elems = [tuple(range(n, 0, -1)), tuple(range(1, n + 1)), (0,) * n, (0,) * (n - 1) + (1,)]
    le = rank_count_le(n)
    counts = rank_counts(elems)
    profiles = [prefix_profile(x) for x in elems]
    pairs = [(i, j) for i in range(4) for j in range(4)]
    assert [le(counts[i], counts[j]) for i, j in pairs] == [
        profile_le(profiles[i], profiles[j]) for i, j in pairs
    ]
    with pytest.raises(ValueError, match="n <= 127"):
        rank_count_le(128)
    with pytest.raises(ValueError, match="n <= 127"):
        bcr_le((0,) * 128, (0,) * 128)


def test_rank_rows_hold_counts_up_to_255_in_one_byte():
    # c(255, 1) is 255 on the permutations: a carry out of its byte would
    # show in the rows
    n = 255
    elems = [tuple(range(n, 0, -1)), tuple(range(1, n + 1)), (0,) * n, (0,) * (n - 1) + (1,)]
    assert rank_rows(elems) == profile_rows(elems) == [0b1110, 0b1100, 0, 0b0100]
    with pytest.raises(ValueError, match="n <= 255"):
        rank_rows([(0,) * 256])


# SHA-256 of pickle.dumps(rank_rows(elements), protocol=4), computed with
# the rows of one AND per varying field, before the fields were grouped
RANK_ROWS_DIGESTS = {
    ("rook", 5): "b17cec32cb5a24a41be11f03c9edf8b40ba3e168e099429551acabcf9e72eb42",
    ("rook", 6): "fd957d1bca79997fb638adcac4f2096c603534795a96b4a88d0e7f7fee988f6a",
    ("borel", 8): "68bfbd2325d1eb3a2d63240942296d282ff81a2e1bf462af124656bf2ac2a3a7",
    ("renner-sp", 8): "5c362819a14e764f7acc645984e37f019f2f137ece28222fb32307b59a310263",
}


@pytest.mark.parametrize("family, n", list(RANK_ROWS_DIGESTS))
def test_rank_rows_match_their_pinned_digests(family, n):
    rows = rank_rows(enum_family(FamilySpec(n, family)))
    assert hashlib.sha256(pickle.dumps(rows, protocol=4)).hexdigest() == RANK_ROWS_DIGESTS[family, n]


@pytest.mark.parametrize(
    "elems, rows",
    [([], []), ([(0,)], [0]), ([(0,), (1,)], [0, 0b1]), ([(1, 2), (0, 0)], [0b10, 0])],
)
def test_rank_rows_of_at_most_two_elements(elems, rows):
    assert rank_rows(elems) == rows == profile_rows(elems)


def test_rank_rows_take_one_and_per_group_of_fields(monkeypatch):
    # rook n=5 has 25 varying count fields, packed into 3 groups of byte
    # codes; one AND per field and row would be 25 per row (38,650 in all)
    calls = 0

    def counted_and(a, b):
        nonlocal calls
        calls += 1
        return a & b

    elems = all_rooks(5)
    monkeypatch.setattr(order, "and_", counted_and)
    rows = rank_rows(elems)
    monkeypatch.undo()
    assert varying_count_fields(elems) == 25
    assert 0 < calls <= 3 * len(elems)
    assert hashlib.sha256(pickle.dumps(rows, protocol=4)).hexdigest() == RANK_ROWS_DIGESTS["rook", 5]


def test_rank_rows_take_no_rank_counts(monkeypatch):
    # the rows take the counts column by column from the entries; the
    # count int of each element is the pair test's encoding alone
    calls = 0
    counts = order.rank_counts

    def counted_counts(elems):
        nonlocal calls
        calls += 1
        return counts(elems)

    monkeypatch.setattr(order, "rank_counts", counted_counts)
    rows = rank_rows(all_rooks(5))
    assert calls == 0
    assert hashlib.sha256(pickle.dumps(rows, protocol=4)).hexdigest() == RANK_ROWS_DIGESTS["rook", 5]


def test_rank_rows_take_no_python_step_per_element_and_field():
    # counted in line events: one Python step per element and field, as a
    # loop over the n^2 fields of each element takes, is m n^2 = 31,572
    # events here (103,177 read with such a loop); the columns of counts,
    # the masks of the codes that occur and the reduces take about 2 per
    # element (1,862 read, of which some 900 are per field and code)
    elems = enum_family(FamilySpec(6, "borel"))
    m, n = len(elems), 6
    events = 0

    def count_lines(frame, event, arg):
        nonlocal events
        events += event == "line"
        return count_lines

    previous = sys.gettrace()
    sys.settrace(count_lines)
    try:
        rank_rows(elems)
    finally:
        sys.settrace(previous)
    assert m == 877
    assert events < 8 * (m + n**3)


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


BOREL_7 = """\
from rooks.order import build_poset, rank_rows
from rooks.symplectic import FamilySpec, enum_family
elements = enum_family(FamilySpec(7, "borel"))
assert len(elements) == 4140"""


def test_build_poset_holds_one_row_per_element():
    # m rows of m bits each take m^2/8 bytes, and each of the 20,484
    # covers one int i m + j; 1.10 x m^2/8 read in a fresh interpreter.
    # Covers held as (i, j) tuples read 1.97 x, and a second set of rows
    # (the transpose) would add another m^2/8
    m = 4140
    peak, _ = fresh_peak(BOREL_7, "build_poset(elements)")
    assert peak < 1.4 * m * m / 8


def test_rank_rows_hold_one_count_row_per_element():
    # the rows take at most m^2/8 bytes; next to them are n columns of m
    # count bytes, one per threshold, a column of codes per group of fields
    # and m/8 bytes of mask per code that occurs (0.71 x m^2/8 read in a
    # fresh interpreter); a list of n^2 count ints per element takes the
    # peak to 2.3 x m^2/8
    m = 4140
    peak, _ = fresh_peak(BOREL_7, "rank_rows(elements)")
    assert peak < 1.8 * m * m / 8


ROOK_6_BELOW_RANK_3 = """\
from rooks.standard import _coset_data, _dominance, standard_form_rows
from rooks.rook import rank
from rooks.symplectic import FamilySpec, enum_family
from rooks.weyl import group_context
ctx = group_context("symmetric", 6)
ctx = ctx._replace(chain=ctx.chain[:3])
elements = [x for x in enum_family(FamilySpec(6, "rook")) if rank(x) < 3]
assert len(elements) == 487
_dominance("symmetric", 6)
for r in range(3):
    _coset_data("symmetric", 6, r)"""


def test_standard_form_rows_hold_one_product_table():
    # the ranks below 3 of the rooks of size 6 are an ideal with few rows,
    # but their rows read the whole product table of S_6, 8 |W|^2 bytes of
    # slots; built row by row it is held once (1.09 x 8 |W|^2 read in a
    # fresh interpreter), built as columns and transposed it is held twice
    # (2.15 x).  On the whole monoid the rows' big-int steps take some 45 s
    # under tracemalloc, so the call is traced on the ideal.
    w = 720
    peak, _ = fresh_peak(ROOK_6_BELOW_RANK_3, "standard_form_rows(elements, ctx)")
    assert peak < 1.5 * 8 * w * w


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
    expected = per_pair_poset(elements, rank_rows(elements))
    assert poset_fields(build_poset(elements)) == poset_fields(expected)


def test_graded_posets_read_their_covers_without_bits(monkeypatch):
    # every cover of a graded poset is on the layer just below, read off
    # by its top bit; `_bits` only walks the covers that skip a layer
    calls = 0
    bits = order._bits

    def counted_bits(mask):
        nonlocal calls
        calls += 1
        return bits(mask)

    monkeypatch.setattr(order, "_bits", counted_bits)
    for family in FAMILIES:
        assert build_poset(enum_family(FamilySpec(4, family))).graded, family
    assert calls == 0
    elems = sorted(random.Random(7).sample(all_rooks(4), 40))
    poset = build_poset(elems)
    assert not poset.graded and calls > 0
    assert poset_fields(poset) == poset_fields(per_pair_poset(elems, profile_rows(elems)))


@st.composite
def rook_subsets(draw):
    n = draw(st.integers(1, 5))
    return draw(st.lists(st.sampled_from(all_rooks(n)), min_size=1, max_size=40, unique=True))


@settings(max_examples=200, deadline=None)
@given(rook_subsets())
def test_layer_reduction_matches_per_pair_on_random_subsets(elems):
    # many such subsets are ungraded (77 of a sample of 200), so this
    # reaches the step that finds the covers that skip a layer; build_poset
    # gives its diagram on the sorted elements
    elems = sorted(elems)
    expected = per_pair_poset(elems, profile_rows(elems))
    assert poset_fields(build_poset(elems)) == poset_fields(expected)


def ranks_fields(record):
    return record.elements, record.rank_of, record.minimals, record.maximals


@pytest.mark.parametrize(
    "family, n", [(f, n) for f in FAMILIES for n in range(1, 6) if f not in SP_FAMILIES or n % 2 == 0]
)
def test_the_ranks_pass_gives_the_ranks_and_extrema_of_build_poset(family, n):
    # on the whole family and on each rank slice
    for k in (None, *range(n + 1)):
        elements = enum_family(FamilySpec(n, family, rank=k))
        ranks = poset_ranks(elements)
        assert ranks_fields(ranks) == ranks_fields(build_poset(elements)), k
        assert ranks.down == rank_rows(list(ranks.elements))


@settings(max_examples=200, deadline=None)
@given(rook_subsets())
def test_the_ranks_pass_matches_the_per_pair_poset_on_random_subsets(elems):
    # ungraded subsets included: a rank is the longest chain, not the
    # layer of a cover
    expected = per_pair_poset(sorted(elems), profile_rows(sorted(elems)))
    ranks = poset_ranks(elems)
    assert ranks_fields(ranks) == ranks_fields(build_poset(elems)) == ranks_fields(expected)


def test_build_poset_of_a_shuffled_list_is_that_of_the_sorted_list():
    elements = enum_family(FamilySpec(4, "rook"))
    shuffled = elements[:]
    random.Random(3).shuffle(shuffled)
    assert shuffled != elements
    poset = build_poset(shuffled)
    assert poset.elements == tuple(elements)
    assert poset_fields(poset) == poset_fields(build_poset(elements))


def test_layer_reduction_scans_past_a_layer_the_row_misses():
    # (1,2,3) has rank 1 but three elements below it, more than the two
    # below (3,0,0) of rank 2, so it comes later in order of row size and
    # its scan from the top passes layers 2 and 1 before it meets layer 0
    elements = [(0, 0, 3), (0, 2, 1), (0, 3, 0), (1, 0, 2), (1, 2, 3), (3, 0, 0)]
    poset = build_poset(elements)
    assert [row.bit_count() for row in rank_rows(elements)] == [0, 0, 1, 0, 3, 2]
    assert poset.rank_of == (0, 0, 1, 0, 1, 2)
    assert tuple(poset.cover_pairs()) == ((0, 2), (0, 4), (1, 4), (2, 5), (3, 4))
    assert poset.graded
    expected = per_pair_poset(elements, profile_rows(elements))
    assert poset_fields(poset) == poset_fields(expected)


def test_layer_reduction_finds_a_cover_that_skips_a_layer():
    # (0,1,0) is minimal and covered by (0,1,3), which sits two layers up,
    # above the chain (0,0,2) < (0,0,3)
    elements = [(0, 0, 2), (0, 0, 3), (0, 1, 0), (0, 1, 3)]
    poset = build_poset(elements)
    assert poset.rank_of == (0, 1, 0, 2)
    assert tuple(poset.cover_pairs()) == ((0, 1), (1, 3), (2, 3))
    assert not poset.graded
    expected = per_pair_poset(elements, profile_rows(elements))
    assert poset_fields(poset) == poset_fields(expected)
