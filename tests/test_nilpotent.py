from math import comb

import pytest

import rooks.nilpotent as nilpotent
from rook_oracles import power
from rooks.nilpotent import nilpotent_analysis
from rooks.order import bcr_le
from rooks.rook import multiply
from rooks.symplectic import FamilySpec, enum_family


def superdiagonal(n):
    return (0,) + tuple(range(1, n))


def test_borel_nil_n4():
    report = nilpotent_analysis(FamilySpec(4, "borel-nil"))
    assert report.count == 15
    assert report.unique_max
    assert report.maximals == (superdiagonal(4),)
    assert report.longest_chain == 6 == comb(4, 2)
    assert report.closed_under_product


def test_borel_sp_nil_n4():
    report = nilpotent_analysis(FamilySpec(4, "borel-sp-nil"))
    assert report.count == 12
    assert report.maximals == ((0, 0, 2, 1), (0, 1, 0, 3))
    assert not report.unique_max
    assert report.closed_under_product
    # the two maximal elements sit at different heights
    assert report.longest_chain == 5


def test_borel_nil_n2():
    report = nilpotent_analysis(FamilySpec(2, "borel-nil"))
    assert report.unique_max
    assert report.maximals == ((0, 1),)


def test_rejects_non_nil_family():
    with pytest.raises(ValueError):
        nilpotent_analysis(FamilySpec(4, "borel"))


@pytest.mark.parametrize("spec", [FamilySpec(4, "borel-nil", rank=4), FamilySpec(4, "borel-nil", rank=2)])
def test_rejects_a_rank_slice(spec):
    # an empty slice has no maximal element, and a longest chain inside a
    # slice is not counted from zero: only a whole family is analysed
    with pytest.raises(ValueError, match=f"rank {spec.rank}"):
        nilpotent_analysis(spec)


@pytest.mark.parametrize(
    "n,family", [(3, "borel-nil"), (4, "borel-nil"), (5, "borel-nil"), (4, "borel-sp-nil"), (6, "borel-sp-nil")]
)
def test_closure(n, family):
    elements = enum_family(FamilySpec(n, family))
    members = set(elements)
    for x in elements:
        for y in elements:
            product = multiply(x, y)
            assert product in members
            assert power(product, n) == (0,) * n


def test_closure_fails_on_a_family_that_is_not_closed(monkeypatch):
    # (0,1,0)(0,0,2) = (0,0,1) is not in the family
    monkeypatch.setattr(nilpotent, "enum_family", lambda spec: [(0, 1, 0), (0, 0, 2)])
    assert not nilpotent_analysis(FamilySpec(3, "borel-nil")).closed_under_product


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_closure_matches_pairwise_multiply(monkeypatch, n):
    # the family and nonempty slices of it, most of them not closed, against
    # products taken pair by pair with multiply
    family = enum_family(FamilySpec(n, "borel-nil"))
    slices = (family, family[::2], family[1::3], family[-2:])
    for elements in filter(None, slices):
        members = set(elements)
        expected = all(multiply(x, y) in members for x in elements for y in elements)
        monkeypatch.setattr(nilpotent, "enum_family", lambda spec: list(elements))
        report = nilpotent_analysis(FamilySpec(n, "borel-nil"))
        assert report.closed_under_product is expected


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_superdiagonal_dominates(n):
    top = superdiagonal(n)
    for x in enum_family(FamilySpec(n, "borel-nil")):
        assert bcr_le(x, top)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_longest_chain_is_binomial(n):
    report = nilpotent_analysis(FamilySpec(n, "borel-nil"))
    assert report.longest_chain == comb(n, 2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_mixed_products_stay_nilpotent(n):
    upper = enum_family(FamilySpec(n, "borel"))
    nil = enum_family(FamilySpec(n, "borel-nil"))
    for b in upper:
        for r in nil:
            assert power(multiply(b, r), n) == (0,) * n
            assert power(multiply(r, b), n) == (0,) * n


def test_report_serialization():
    report = nilpotent_analysis(FamilySpec(4, "borel-sp-nil"))
    obj = report.to_json_dict()
    assert obj["family"] == "borel-sp-nil"
    assert obj["maximals"] == ["(0,0,2,1)", "(0,1,0,3)"]
    row = report.text_row()
    assert "unique_max=no" in row and "longest_chain=" in row
