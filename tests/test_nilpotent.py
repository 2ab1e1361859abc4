from math import comb

import pytest

import rooks.nilpotent as nilpotent
from fresh_peak import fresh_peak
from rook_oracles import power
from rooks.nilpotent import nilpotent_analysis
from rooks.order import bcr_le
from rooks.rook import gather, multiply
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


def closed_pair_by_pair(elements):
    members = set(elements)
    return all(multiply(x, y) in members for x in elements for y in elements)


def closure_of(monkeypatch, elements, n, family="borel-nil"):
    monkeypatch.setattr(nilpotent, "enum_family", lambda spec: list(elements))
    return nilpotent_analysis(FamilySpec(n, family)).closed_under_product


@pytest.mark.parametrize(
    "n,family",
    [pytest.param(n, "borel-nil", id=str(n)) for n in (1, 2, 3, 4, 5)]
    + [pytest.param(n, "borel-sp-nil", id=f"{n}-borel-sp-nil") for n in (4, 6)],
)
def test_closure_matches_pairwise_multiply(monkeypatch, n, family):
    # the family and nonempty slices of it, most of them not closed, against
    # products taken pair by pair with multiply
    members = enum_family(FamilySpec(n, family))
    slices = (members, members[::2], members[1::3], members[-2:])
    for elements in filter(None, slices):
        assert closure_of(monkeypatch, elements, n, family) is closed_pair_by_pair(elements)


# (0,0,1,2) and (0,0,2,1) share the image {1, 2} in two orders; with the left
# factor (0,1,0,0) they give (0,0,0,1) and (0,0,1,0), and every other
# product of these members is zero
SHARED_IMAGE = [(0, 0, 0, 0), (0, 0, 1, 2), (0, 0, 2, 1), (0, 1, 0, 0)]


@pytest.mark.parametrize(
    "extra,closed", [([(0, 0, 0, 1)], False), ([(0, 0, 1, 0)], False), ([(0, 0, 0, 1), (0, 0, 1, 0)], True)]
)
def test_closure_tells_apart_right_factors_with_one_image(monkeypatch, extra, closed):
    # with only one of the two products a member, only one of the two right
    # factors leaves the set: the relabelling must keep the order of y
    elements = SHARED_IMAGE + extra
    assert closed_pair_by_pair(elements) is closed
    assert closure_of(monkeypatch, elements, 4) is closed


def test_closure_gathers_far_fewer_rows_than_pairs(monkeypatch):
    # x y depends on x only through x restricted to the image of y, so each
    # right factor meets only the distinct restrictions: 19,470 rows at
    # borel-nil n=7 against m^2 = 769,129 when every pair is gathered
    gather = nilpotent.right_product
    fed = [0]

    def counted(y):
        times_y = gather(y)

        def product(row):
            fed[0] += 1
            return times_y(row)

        return product

    monkeypatch.setattr(nilpotent, "right_product", counted)
    report = nilpotent_analysis(FamilySpec(7, "borel-nil"))
    m = report.count
    assert m == 877 and report.closed_under_product
    assert 0 < fed[0] < m * m / 10, fed[0]


def test_closure_projects_each_image_from_its_parent(monkeypatch):
    # every restriction row is built by a gather of the module: the used
    # values' rows of the 877 members once, then each image's rows from its
    # parent's distinct rows, 6,782 in all at borel-nil n=7.  Restricting
    # every member to each of the 64 images builds 64 x 877 = 56,128
    made = [0]

    def counted(slots):
        take = gather(slots)

        def row(x):
            made[0] += 1
            return take(x)

        return row

    monkeypatch.setattr(nilpotent, "gather", counted)
    elements = enum_family(FamilySpec(7, "borel-nil"))
    m = len(elements)
    assert m == 877 and nilpotent._closed_under_product(elements)
    assert m <= made[0] < 10 * m, made[0]


BOREL_NIL_7 = """\
from rooks.nilpotent import _closed_under_product, nilpotent_analysis
from rooks.symplectic import FamilySpec, enum_family
spec = FamilySpec(7, "borel-nil")
elements = enum_family(spec)"""


def test_closure_holds_one_image_at_a_time():
    # the restrictions of one image at a time: the closure peaks at 0.27 MiB
    # and the whole analysis, whose peak is the poset build's, at 0.95 MiB in
    # a fresh interpreter; with every image's restrictions held at once they
    # read 0.56 and 1.10 MiB
    peak, _ = fresh_peak(BOREL_NIL_7, "assert _closed_under_product(elements)")
    assert peak < 0.4 * 2**20, peak
    peak, _ = fresh_peak(BOREL_NIL_7, "nilpotent_analysis(spec)")
    assert peak < 2**20, peak


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
