import json

import pytest

import rooks.cli as cli
import rooks.symplectic as symplectic
from patch_everywhere import patch_everywhere
from rook_oracles import (
    borel_sp_proof_form_by_members,
    census_by_members,
    stirling2_inclusion_exclusion,
)
from rooks.counting import (
    CountReport,
    _census,
    admissible_count,
    bell,
    borel_sp_paper_form,
    borel_sp_proof_form,
    rank_count_rook,
    stirling2,
    triangular_census,
)
from rooks.rook import rank
from rooks.symplectic import FamilySpec, ResourceLimitError, enum_admissible, enum_family
from rooks.verify import count_reports


def test_stirling_examples():
    assert stirling2(0, 0) == 1
    assert stirling2(3, 2) == 3
    assert stirling2(5, 3) == 25
    assert stirling2(4, 0) == 0
    assert stirling2(3, 5) == 0
    assert stirling2(-1, 0) == 0
    assert stirling2(5, -1) == 0


def test_stirling_matches_inclusion_exclusion():
    for m in range(31):
        for k in range(m + 2):
            assert stirling2(m, k) == stirling2_inclusion_exclusion(m, k)


def test_stirling_of_a_long_row():
    # deeper than Python's recursion limit
    assert stirling2(3000, 2) == 2**2999 - 1


def test_bell_examples():
    assert bell(0) == 1
    assert bell(1) == 1
    assert bell(3) == 5
    assert bell(5) == 52
    assert bell(7) == 877
    with pytest.raises(ValueError):
        bell(-1)


def test_admissible_count_examples():
    assert admissible_count(4, 2) == 4
    assert admissible_count(4, 3) == 0
    assert sum(admissible_count(6, k) for k in range(7)) == 27
    with pytest.raises(ValueError):
        admissible_count(5, 1)


@pytest.mark.parametrize("l", [1, 2, 3, 4, 5, 6])
def test_admissible_count_matches_enumeration(l):
    n = 2 * l
    for k in range(n + 1):
        assert admissible_count(n, k) == len(enum_admissible(n, k))


def test_rank_count_examples():
    assert rank_count_rook(4, 0) == 1
    assert rank_count_rook(2, 1) == 4
    assert rank_count_rook(4, 2) == 72
    with pytest.raises(ValueError):
        rank_count_rook(4, 5)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rank_count_matches_enumeration(n):
    hist = {}
    for x in enum_family(FamilySpec(n, "rook")):
        hist[rank(x)] = hist.get(rank(x), 0) + 1
    for k in range(n + 1):
        assert hist.get(k, 0) == rank_count_rook(n, k)


def test_triangular_census_small():
    rows = {tuple(dict(r.parameters)[k] for k in "abc"): r for r in triangular_census(2)}
    assert rows[(1, 0, 1)].oracle == 1  # the transposition
    assert rows[(1, 1, 0)].oracle == 0
    assert rows[(1, 1, 0)].paper_form == 6  # printed form disagrees, recorded
    assert rows[(1, 1, 0)].agree_oracle_paper is False
    assert rows[(0, 0, 0)].oracle == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_census_by_states_matches_the_census_by_members(n):
    assert _census(n) == census_by_members(n)


@pytest.mark.parametrize("l", [1, 2, 3, 4, 5, 6])
def test_proof_form_by_census_matches_the_sum_by_members(l):
    # n = 12 at l = 6, past `FamilySpec`: the form reads only `_census(l)`
    for k in range(l + 1):
        assert borel_sp_proof_form(2 * l, k) == borel_sp_proof_form_by_members(l, k), k


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_census_sums_to_rank_counts(n):
    sums = {}
    for r in triangular_census(n):
        p = dict(r.parameters)
        k = p["a"] + p["b"] + p["c"]
        sums[k] = sums.get(k, 0) + r.oracle
    for k in range(n + 1):
        assert sums.get(k, 0) == rank_count_rook(n, k)


def test_census_desk_bound():
    with pytest.raises(ResourceLimitError):
        triangular_census(9)


def test_census_enumerates_no_member(capsys, monkeypatch):
    # the census walks the column states only: with the block descent and
    # the member stream raising under every name a module holds them by, it
    # and its verify check still run at n = 8
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated a family")

    for original in (symplectic._blocks, symplectic.iter_family):
        patch_everywhere(monkeypatch, original, no_enumeration)
    with pytest.raises(AssertionError):
        symplectic.enum_family(FamilySpec(2, "rook"))
    assert sum(_census(8).values()) == sum(rank_count_rook(8, k) for k in range(9))
    assert cli.main(["verify", "--check", "triangular", "--n", "8"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "result: ok"


def test_borel_sp_rank_count_l2():
    expected = [1, 10, 13, 0, 1]
    rows = count_reports(FamilySpec(4, "borel-sp"))
    assert [rep.oracle for rep in rows] == [rep.proof_form for rep in rows] == expected
    assert all(rep.agree_oracle_proof for rep in rows)
    assert rows[1].paper_form == 18
    assert rows[1].agree_oracle_paper is False
    assert [rep.paper_form is None for rep in rows] == [False, False, False, True, True]


@pytest.mark.parametrize("l", [1, 2, 3])
def test_borel_sp_rank_sums(l):
    # ranks 0..l plus the identity account for the whole family
    total = sum(rep.oracle for rep in count_reports(FamilySpec(2 * l, "borel-sp"))[: l + 1])
    assert total + 1 == len(enum_family(FamilySpec(2 * l, "borel-sp")))


def test_borel_sp_rank_count_validation():
    # the forms take any rank of size n; the rows refuse what `FamilySpec` does
    assert [borel_sp_proof_form(6, k) for k in range(4, 7)] == [0, 0, 1]
    assert [borel_sp_paper_form(6, k) for k in range(4, 7)] == [None, None, None]
    with pytest.raises(ValueError):
        count_reports(FamilySpec(0, "borel-sp"))
    with pytest.raises(ResourceLimitError):
        count_reports(FamilySpec(10, "borel-sp"))
    with pytest.raises(ValueError):
        count_reports(FamilySpec(4, "borel-sp", rank=5))


def test_report_serialization():
    rep = CountReport((("l", 2), ("k", 1)), 10, proof_form=10, paper_form=18, label="demo")
    row = rep.text_row()
    assert "l=2 k=1" in row and "oracle=10" in row and "MISMATCH" in row and "# demo" in row
    obj = rep.to_json_dict()
    assert obj["parameters"] == {"l": 2, "k": 1}
    assert obj["agree_oracle_proof"] is True
    assert obj["agree_oracle_paper"] is False
    assert obj["label"] == "demo"
    json.dumps(obj)  # serializable
    bare = CountReport((("n", 1),), 3)
    assert bare.agree_oracle_proof is None and bare.agree_oracle_paper is None
    assert "proof=-" in bare.text_row() and "paper:-" in bare.text_row()
