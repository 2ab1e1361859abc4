from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from exact import msp_membership, rational_matrix, rook_matrix
from rook_oracles import power, rank_by_entries, triangular_decompose
from rooks.rook import (
    check_rook,
    diagonal_idempotent,
    format_one_line,
    identity_rook,
    multiply,
    one_line_tail,
    parse_one_line,
    rank,
    transpose,
    triangular_ranks,
)
from rooks.symplectic import FamilySpec, enum_family, is_symplectic_rook


def all_rooks(n):
    return enum_family(FamilySpec(n, "rook"))


@st.composite
def rook_values(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    perm = draw(st.permutations(list(range(1, n + 1))))
    mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return tuple(v if keep else 0 for v, keep in zip(perm, mask))


def test_parse_examples():
    assert parse_one_line("(3,0,4,0)", 4) == (3, 0, 4, 0)
    assert parse_one_line("(0,0,0,0)", 4) == (0, 0, 0, 0)
    assert parse_one_line(" ( 3, 0 ,4,0 ) ", 4) == (3, 0, 4, 0)


@pytest.mark.parametrize(
    "text,n",
    [
        ("(1,1,0)", 3),  # duplicate nonzero entry
        ("(1,2)", 3),  # wrong length
        ("(4,0,0)", 3),  # out of range
        ("1,2,3", 3),  # no parentheses
        ("(1,x,3)", 3),  # junk entry
    ],
)
def test_parse_rejects(text, n):
    with pytest.raises(ValueError):
        parse_one_line(text, n)


@given(rook_values())
def test_format_parse_round_trip(x):
    assert parse_one_line(format_one_line(x), len(x)) == x


def test_round_trip_exhaustive_small():
    for n in (1, 2, 3):
        for x in all_rooks(n):
            assert parse_one_line(format_one_line(x), n) == x


def test_multiply_examples():
    assert multiply((0, 0, 1, 2), (0, 0, 0, 3)) == (0, 0, 0, 1)
    assert multiply((0, 1, 0, 3), (0, 0, 2, 1)) == (0, 0, 1, 0)
    for x in all_rooks(3):
        assert multiply(identity_rook(3), x) == x
        assert multiply(x, identity_rook(3)) == x


def test_multiply_size_mismatch():
    with pytest.raises(ValueError):
        multiply((1, 2), (1, 2, 3))


def test_multiply_matches_matrix_product():
    # 0/1 matrix-product oracle on all pairs at n = 1..4, over the integers;
    # size 1 is the gather's case of its own
    def matrix(x):
        return [[int(v == i + 1) for v in x] for i in range(len(x))]

    for n in (1, 2, 3, 4):
        rooks = all_rooks(n)
        matrices = {x: matrix(x) for x in rooks}
        for x, y in product(rooks, repeat=2):
            mx, my = matrices[x], matrices[y]
            prod = [
                [sum(mx[i][k] * my[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)
            ]
            got = multiply(x, y)
            assert type(got) is tuple and len(got) == n
            assert matrix(got) == prod


def test_multiply_associative_exhaustive():
    rooks3 = all_rooks(3)
    for x, y, z in product(rooks3, repeat=3):
        assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))


@st.composite
def rook_triples(draw, max_n=6):
    n = draw(st.integers(1, max_n))

    def one():
        perm = draw(st.permutations(list(range(1, n + 1))))
        mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        return tuple(v if keep else 0 for v, keep in zip(perm, mask))

    return one(), one(), one()


@given(rook_triples())
def test_multiply_associative_random(xyz):
    x, y, z = xyz
    assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))


def test_nilpotency_examples():
    assert power((0, 1, 0, 3), 4) == (0,) * 4
    assert power((1, 0, 0, 0), 4) == (1, 0, 0, 0)
    assert power((2, 0), 2) == (0, 0)


def test_head_and_tail_join_to_the_one_line_form():
    # every split of every rook up to size 5, the empty head included: the
    # head is "(" and one "v," per column, as the family walk grows it
    for n in range(1, 6):
        for x in all_rooks(n):
            for i in range(n):
                head = "(" + "".join(f"{v}," for v in x[:i])
                assert head + one_line_tail(x[i:]) == format_one_line(x)


def test_rank_counts_the_nonzero_entries():
    # the zero count against the entry-by-entry oracle, on every rook up to
    # size 5, as a tuple and as a list
    for n in range(1, 6):
        for x in all_rooks(n):
            assert rank(x) == rank(list(x)) == rank_by_entries(x), x


def test_triangular_examples():
    t = triangular_decompose((3, 1, 5, 2, 4))
    assert t.lower == (3, 0, 5, 0, 0)
    assert t.diag == (0, 0, 0, 0, 0)
    assert t.upper == (0, 1, 0, 2, 4)
    assert t.ranks == (2, 0, 3)
    t = triangular_decompose(identity_rook(4))
    assert (t.lower, t.diag, t.upper) == ((0,) * 4, identity_rook(4), (0,) * 4)
    t = triangular_decompose((2, 1))
    assert (t.lower, t.diag, t.upper) == ((2, 0), (0, 0), (0, 1))
    assert t.ranks == (1, 0, 1)


def test_triangular_recombines():
    for n in (1, 2, 3, 4):
        for x in all_rooks(n):
            t = triangular_decompose(x)
            supports = [set(j for j, v in enumerate(p) if v) for p in (t.lower, t.diag, t.upper)]
            assert not (supports[0] & supports[1] or supports[0] & supports[2] or supports[1] & supports[2])
            combined = tuple(a + b + c for a, b, c in zip(t.lower, t.diag, t.upper))
            assert combined == x
            assert all(v == 0 or v > j for j, v in enumerate(t.lower, start=1))
            assert all(v == 0 or v == j for j, v in enumerate(t.diag, start=1))
            assert all(v == 0 or v < j for j, v in enumerate(t.upper, start=1))


def test_triangular_ranks_match_the_decomposition():
    for n in (1, 2, 3, 4, 5):
        for x in all_rooks(n):
            assert triangular_ranks(x) == triangular_decompose(x).ranks


def test_diagonal_idempotent():
    assert diagonal_idempotent(4, {1, 2}) == (1, 2, 0, 0)
    assert diagonal_idempotent(4, {2, 4}) == (0, 2, 0, 4)
    with pytest.raises(ValueError):
        diagonal_idempotent(4, {5})
    e = diagonal_idempotent(5, {1, 3, 5})
    assert multiply(e, e) == e


def test_transpose_is_partial_inverse():
    for x in all_rooks(3):
        y = transpose(x)
        assert transpose(y) == x
        # x . x^T . x == x  (inverse on the range)
        assert multiply(multiply(x, y), x) == x


def test_msp_membership_examples():
    n = 4
    identity = rational_matrix(
        [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    )
    assert msp_membership(identity) == Fraction(1)
    assert msp_membership(rook_matrix((0, 0, 2, 1))) == Fraction(0)
    diag = rational_matrix(
        [[0] * i + [1] + [0] * (n - i - 1) for i in range(n - 1)] + [[0, 0, 0, 2]]
    )
    assert msp_membership(diag) is None
    with pytest.raises(ValueError):
        msp_membership(rational_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))


def test_msp_membership_scaled_identity():
    scaled = rational_matrix(
        [[Fraction(3, 2) if i == j else 0 for j in range(4)] for i in range(4)]
    )
    assert msp_membership(scaled) == Fraction(9, 4)


@pytest.mark.parametrize("rows", [[[0.1]], [[0.5, 0], [0, 2.0]]])
def test_rational_matrix_refuses_floats(rows):
    # a float is not exact: Fraction(0.1) is 3602879701896397 / 2**55
    with pytest.raises(ValueError, match="is not an int or a Fraction"):
        rational_matrix(rows)


def test_singular_symplectic_rooks_have_zero_scalar():
    for x in enum_family(FamilySpec(4, "renner-sp")):
        if rank(x) < 4:
            assert msp_membership(rook_matrix(x)) == Fraction(0)


def signed_lifts(x):
    """Every matrix with one entry +-1 at each nonzero cell (x_j, j) of the
    rook x, and 0 elsewhere."""
    n = len(x)
    cells = [(v - 1, j) for j, v in enumerate(x) if v]
    for signs in product((1, -1), repeat=len(cells)):
        rows = [[0] * n for _ in range(n)]
        for (i, j), sign in zip(cells, signs):
            rows[i][j] = sign
        yield rational_matrix(rows)


@pytest.mark.parametrize("n,unsigned_misses", [(2, 0), (4, 4)])
def test_symplectic_rooks_are_the_rooks_with_a_signed_lift_in_msp(n, unsigned_misses):
    # the matrix definition of MSp_n, A^T J A = A J A^T = c J, holds for some
    # signing of x's 0/1 matrix exactly when `is_symplectic_rook` says x is a
    # member; the 0/1 matrix alone misses the theta-fixed permutations that
    # need signs, 4 of the 8 at n = 4
    misses = 0
    for x in all_rooks(n):
        lifted = any(msp_membership(a) is not None for a in signed_lifts(x))
        assert is_symplectic_rook(x) == lifted, x
        misses += lifted and msp_membership(rook_matrix(x)) is None
    assert misses == unsigned_misses


def test_check_rook_rejects_empty():
    with pytest.raises(ValueError):
        check_rook(())


@pytest.mark.parametrize(
    "values,n",
    [
        ([2.7, 0], None),  # would truncate to (2, 0)
        ([2.0, 0], None),  # integral, but a float all the same
        (["1", 0], None),  # would parse to (1, 0)
        ([1, 0], 2.0),  # size given as a float
    ],
)
def test_check_rook_rejects_non_integers(values, n):
    with pytest.raises(ValueError, match="must be an integer"):
        check_rook(values, n)
