"""Acceptance suite: one test per criterion, exact integer comparisons
throughout.  Run with ``pytest tests/test_acceptance.py -v -s`` to see one
pass/fail line per criterion."""

import json
from math import comb, factorial
from pathlib import Path

from jsonschema import Draft7Validator

import rooks.cli as cli
from poset_oracles import bcr_le_ppr_on, ehresmann_le, pairwise_rows
from rooks.counting import bell, stirling2, triangular_census
from rooks.folding import fold, fold_images, to_rook, unfold_preimages
from rooks.nilpotent import nilpotent_analysis
from rooks.order import _hasse_from_rows, _ranks, bcr_le, build_poset
from rooks.partitions import enum_partitions, partition_to_rook, rook_to_partition
from rooks.rook import (
    diagonal_idempotent,
    identity_rook,
    is_permutation,
    is_upper_triangular,
    multiply,
    rank,
    transpose,
    triangular_ranks,
)
from rooks.standard import standard_form
from rooks.symplectic import (
    FamilySpec,
    enum_admissible,
    enum_family,
    is_admissible,
    rank_slice_minimum,
)
from rooks.verify import count_reports
from rooks.weyl import SYMMETRIC, SYMPLECTIC, group_context


def announce(number, name):
    print(f"criterion {number} ({name}): PASS")


# expected cover edges of the Bruhat-Chevalley-Renner order on the
# upper-triangular symplectic rooks at n = 4 (25 vertices, 49 edges),
# frozen as test data
BSP4_COVER_EDGES = {
    ((0, 0, 0, 0), (0, 0, 0, 1)),
    ((0, 0, 0, 1), (0, 0, 0, 2)),
    ((0, 0, 0, 1), (0, 0, 1, 0)),
    ((0, 0, 0, 2), (0, 0, 0, 3)),
    ((0, 0, 0, 2), (0, 0, 1, 2)),
    ((0, 0, 0, 2), (0, 0, 2, 0)),
    ((0, 0, 1, 0), (0, 0, 1, 2)),
    ((0, 0, 1, 0), (0, 0, 2, 0)),
    ((0, 0, 1, 0), (0, 1, 0, 0)),
    ((0, 0, 0, 3), (0, 0, 0, 4)),
    ((0, 0, 0, 3), (0, 0, 1, 3)),
    ((0, 0, 0, 3), (0, 0, 3, 0)),
    ((0, 0, 1, 2), (0, 0, 1, 3)),
    ((0, 0, 1, 2), (0, 0, 2, 1)),
    ((0, 0, 1, 2), (0, 1, 0, 2)),
    ((0, 0, 2, 0), (0, 0, 2, 1)),
    ((0, 0, 2, 0), (0, 0, 3, 0)),
    ((0, 0, 2, 0), (0, 2, 0, 0)),
    ((0, 1, 0, 0), (0, 1, 0, 2)),
    ((0, 1, 0, 0), (0, 2, 0, 0)),
    ((0, 1, 0, 0), (1, 0, 0, 0)),
    ((0, 0, 0, 4), (0, 0, 2, 4)),
    ((0, 0, 1, 3), (0, 0, 2, 4)),
    ((0, 0, 1, 3), (0, 0, 3, 1)),
    ((0, 0, 1, 3), (0, 1, 0, 3)),
    ((0, 0, 2, 1), (0, 0, 2, 4)),
    ((0, 0, 2, 1), (0, 0, 3, 1)),
    ((0, 0, 2, 1), (0, 2, 0, 1)),
    ((0, 0, 2, 1), (1, 0, 2, 0)),
    ((0, 0, 3, 0), (0, 0, 3, 1)),
    ((0, 1, 0, 2), (0, 1, 0, 3)),
    ((0, 1, 0, 2), (0, 2, 0, 1)),
    ((0, 1, 0, 2), (1, 0, 2, 0)),
    ((0, 2, 0, 0), (0, 2, 0, 1)),
    ((1, 0, 0, 0), (1, 0, 2, 0)),
    ((0, 0, 2, 4), (0, 0, 3, 4)),
    ((0, 0, 2, 4), (0, 2, 0, 4)),
    ((0, 0, 3, 1), (0, 0, 3, 4)),
    ((0, 0, 3, 1), (1, 0, 3, 0)),
    ((0, 1, 0, 3), (0, 2, 0, 4)),
    ((0, 1, 0, 3), (1, 0, 3, 0)),
    ((0, 2, 0, 1), (0, 2, 0, 4)),
    ((0, 2, 0, 1), (1, 2, 0, 0)),
    ((1, 0, 2, 0), (1, 0, 3, 0)),
    ((1, 0, 2, 0), (1, 2, 0, 0)),
    ((0, 0, 3, 4), (1, 2, 3, 4)),
    ((0, 2, 0, 4), (1, 2, 3, 4)),
    ((1, 0, 3, 0), (1, 2, 3, 4)),
    ((1, 2, 0, 0), (1, 2, 3, 4)),
}

# cover edges of the nilpotent slice at n = 4 (12 vertices, 17 edges)
BSP4_NIL_COVER_EDGES = {
    ((0, 0, 0, 0), (0, 0, 0, 1)),
    ((0, 0, 0, 1), (0, 0, 0, 2)),
    ((0, 0, 0, 1), (0, 0, 1, 0)),
    ((0, 0, 0, 2), (0, 0, 0, 3)),
    ((0, 0, 0, 2), (0, 0, 1, 2)),
    ((0, 0, 0, 2), (0, 0, 2, 0)),
    ((0, 0, 1, 0), (0, 0, 1, 2)),
    ((0, 0, 1, 0), (0, 0, 2, 0)),
    ((0, 0, 1, 0), (0, 1, 0, 0)),
    ((0, 0, 0, 3), (0, 0, 1, 3)),
    ((0, 0, 1, 2), (0, 0, 1, 3)),
    ((0, 0, 1, 2), (0, 0, 2, 1)),
    ((0, 0, 1, 2), (0, 1, 0, 2)),
    ((0, 0, 2, 0), (0, 0, 2, 1)),
    ((0, 1, 0, 0), (0, 1, 0, 2)),
    ((0, 0, 1, 3), (0, 1, 0, 3)),
    ((0, 1, 0, 2), (0, 1, 0, 3)),
}


def test_criterion_1_admissible_counts():
    for l in range(1, 7):
        n = 2 * l
        total = 0
        for k in range(n + 1):
            count = len(enum_admissible(n, k))
            assert count == comb(l, k) * 2**k
            total += count
        assert total == 3**l
    announce(1, "admissible counts")


def test_criterion_2_rook_rank_counts():
    for n in range(1, 7):
        hist = {}
        for x in enum_family(FamilySpec(n, "rook")):
            hist[rank(x)] = hist.get(rank(x), 0) + 1
        for k in range(n + 1):
            assert hist.get(k, 0) == comb(n, k) * factorial(n) // factorial(n - k)
    announce(2, "rook rank counts")


def test_criterion_3_stirling_bridge():
    for n in range(1, 7):
        hist = {}
        for a in enum_family(FamilySpec(n, "borel")):
            hist[rank(a)] = hist.get(rank(a), 0) + 1
        for k in range(1, n + 2):
            assert hist.get(n + 1 - k, 0) == stirling2(n + 1, k)
    for m in range(1, 8):
        partitions = enum_partitions(m)
        assert len(partitions) == bell(m)
        for p in partitions:
            assert rook_to_partition(partition_to_rook(p)) == p
    assert len(enum_partitions(7)) == 877
    announce(3, "Stirling bridge and partition round-trip")


def test_criterion_4_order_equivalence():
    rooks4 = enum_family(FamilySpec(4, "rook"))
    ppr = bcr_le_ppr_on(rooks4, group_context(SYMMETRIC, 4))
    disagreements = sum(
        1
        for x in rooks4
        for y in rooks4
        if bcr_le(x, y) != ppr(x, y)
    )
    assert disagreements == 0
    symplectic = enum_family(FamilySpec(4, "renner-sp"))
    assert len(symplectic) == 57
    ppr_sp = bcr_le_ppr_on(symplectic, group_context(SYMPLECTIC, 4))
    disagreements_sp = sum(
        1
        for x in symplectic
        for y in symplectic
        if bcr_le(x, y) != ppr_sp(x, y)
    )
    assert disagreements_sp == 0
    announce(4, "order equivalence on R_4 and R_Sp4")


def test_criterion_5_figure_reproduction():
    elements = enum_family(FamilySpec(4, "borel-sp"))
    poset = build_poset(elements)
    assert len(poset.elements) == 25
    assert [poset.elements[i] for i in poset.minimals] == [(0,) * 4]
    assert [poset.elements[i] for i in poset.maximals] == [identity_rook(4)]
    edges = {(poset.elements[i], poset.elements[j]) for i, j in poset.cover_pairs()}
    assert len(edges) == 49
    assert edges == BSP4_COVER_EDGES
    # the standard-form route: rows from bcr_le_ppr on every pair, through
    # the same reduction
    poset_ppr = _hasse_from_rows(
        _ranks(elements, pairwise_rows(elements, bcr_le_ppr_on(elements, group_context(SYMPLECTIC, 4))))
    )
    edges_ppr = {(poset_ppr.elements[i], poset_ppr.elements[j]) for i, j in poset_ppr.cover_pairs()}
    assert edges_ppr == edges

    nil = build_poset(enum_family(FamilySpec(4, "borel-sp-nil")))
    assert len(nil.elements) == 12
    assert [nil.elements[i] for i in nil.maximals] == [(0, 0, 2, 1), (0, 1, 0, 3)]
    nil_edges = {(nil.elements[i], nil.elements[j]) for i, j in nil.cover_pairs()}
    assert nil_edges == BSP4_NIL_COVER_EDGES
    announce(5, "figure reproduction at n = 4")


def test_criterion_6_symplectic_stirling_posets():
    for l in (2, 3):
        n = 2 * l
        for k in range(1, l + 1):
            poset = build_poset(enum_family(FamilySpec(n, "borel-sp", rank=k)))
            assert poset.graded
            assert [poset.elements[i] for i in poset.minimals] == [rank_slice_minimum(n, k)]
            maximals = [poset.elements[i] for i in poset.maximals]
            assert len(maximals) == comb(l, k) * 2**k
            for x in maximals:
                support = [v for v in x if v]
                assert x == diagonal_idempotent(n, support)
                assert is_admissible(support, n)
    announce(6, "symplectic Stirling posets")


def test_criterion_7_folding():
    x8 = (1, 0, 5, 0, 2, 0, 6, 0)
    tb = fold(x8, "tb")
    assert (tb.rows, tb.cols) == (4, 8)
    assert set(tb.cells) == {(4, 1), (3, 5), (1, 3), (2, 7)}
    lr = fold(x8, "lr")
    assert (lr.rows, lr.cols) == (8, 4)
    assert set(lr.cells) == {(1, 4), (2, 1), (5, 2), (6, 3)}

    for n in (4, 6):
        for x in enum_family(FamilySpec(n, "renner-sp")):
            if is_permutation(x):
                # full-rank elements collide under either fold, so both
                # composition orders are undefined in the same way
                for first in ("tb", "lr"):
                    try:
                        fold(x, first)
                        raise AssertionError(f"fold should collide on {x}")
                    except ValueError:
                        pass
                continue
            tb_lr = fold(fold(x, "tb"), "lr")
            lr_tb = fold(fold(x, "lr"), "tb")
            assert tb_lr == lr_tb
            assert to_rook(tb_lr) == fold(x, "both")

    assert unfold_preimages((2, 1)) == [
        (0, 0, 1, 2),
        (0, 0, 1, 3),
        (0, 1, 0, 2),
        (0, 1, 0, 3),
    ]

    for l in (1, 2, 3):
        covered = set()
        images = fold_images(l)
        for a in enum_family(FamilySpec(l, "rook")):
            preimages = images.get(a, [])
            assert preimages == unfold_preimages(a)
            a_l, b_l, c_l = triangular_ranks(a)
            assert len(preimages) == 2 ** (a_l + c_l) * 3**b_l
            as_set = set(preimages)
            assert not (as_set & covered)
            covered |= as_set
        borel = enum_family(FamilySpec(2 * l, "borel-sp"))
        assert covered == {x for x in borel if not is_permutation(x)}
    announce(7, "folding operators and preimages")


def test_criterion_8_counting_audit():
    frozen = {(2, 0): 1, (2, 1): 10, (2, 2): 13}
    for l in range(1, 5):
        for k, report in enumerate(count_reports(FamilySpec(2 * l, "borel-sp"))[: l + 1]):
            assert report.agree_oracle_proof is True
            assert report.paper_form is not None
            if (l, k) in frozen:
                assert report.oracle == frozen[(l, k)]
    # the printed closed form is evaluated and its delta recorded
    report = count_reports(FamilySpec(4, "borel-sp", rank=1))[0]
    assert report.paper_form == 18
    assert report.agree_oracle_paper is False
    census = triangular_census(4)
    assert all(r.paper_form is not None for r in census)
    announce(8, "counting audit (oracle == proof form)")


def test_criterion_9_parabolic_and_standard_forms():
    from rooks.weyl import generated_subgroup, parabolic_data

    for l in (2, 3):
        n = 2 * l
        ctx = group_context(SYMPLECTIC, n)
        gens = ctx.generators
        for d in range(1, l + 1):
            e = diagonal_idempotent(n, range(1, d + 1))
            data = parabolic_data(e, ctx)
            assert set(data.centralizer) == set(
                generated_subgroup([gens[j] for j in range(l) if j != d - 1], ctx)
            )
            assert set(data.stabilizer) == set(
                generated_subgroup([gens[j] for j in range(d, l)], ctx)
            )
    ctx4 = group_context(SYMMETRIC, 4)
    for x in enum_family(FamilySpec(4, "rook")):
        form = standard_form(x, ctx4)  # raises if not unique
        assert multiply(multiply(form.a, form.e), transpose(form.b)) == x
        assert is_upper_triangular(x) == ehresmann_le(form.a, form.b)
    announce(9, "parabolic structure and standard forms")


def test_criterion_10_nilpotent_semigroups():
    for n in (3, 4, 5):
        report = nilpotent_analysis(FamilySpec(n, "borel-nil"))
        assert report.closed_under_product
        assert report.unique_max
        assert report.maximals == ((0,) + tuple(range(1, n)),)
        assert report.longest_chain == comb(n, 2)
    report = nilpotent_analysis(FamilySpec(4, "borel-sp-nil"))
    assert report.closed_under_product
    assert report.maximals == ((0, 0, 2, 1), (0, 1, 0, 3))
    announce(10, "nilpotent semigroups")


CLI_MATRIX = [
    ["enum", "--n", "4", "--family", "borel-sp", "--rank", "2", "--format", "count"],
    ["enum", "--n", "4", "--family", "renner-sp"],
    ["enum", "--n", "2", "--family", "rook", "--format", "json"],
    ["count", "--l", "2", "--family", "borel-sp", "--format", "json"],
    ["order", "--n", "5", "--x", "(3,1,5,2,4)", "--y", "(5,2,4,3,1)"],
    ["hasse", "--n", "4", "--family", "borel-sp"],
    ["hasse", "--n", "4", "--family", "borel-sp-nil", "--format", "json"],
    ["fold", "--n", "8", "--x", "(1,0,5,0,2,0,6,0)"],
    ["unfold", "--l", "2", "--x", "(2,1)"],
    ["partition", "--n", "9", "--x", "(0,0,0,0,2,5,3,1,6)"],
    ["partition", "--n", "9", "--x", "18|2569|37|4"],
    ["verify", "--check", "folding", "--l", "2"],
    ["verify", "--check", "formula", "--l", "2", "--format", "json"],
]


def test_criterion_11_cli_determinism(capsys):
    schema = json.loads(
        (Path(__file__).resolve().parent.parent / "docs" / "report_schema.json").read_text()
    )
    validator = Draft7Validator(schema)
    for argv in CLI_MATRIX:
        outputs = []
        for _ in range(3):
            code = cli.main(list(argv))
            captured = capsys.readouterr()
            assert code == 0, argv
            outputs.append(captured.out.encode())
        assert outputs[0] == outputs[1] == outputs[2], argv
        if "json" in argv:
            validator.validate(json.loads(outputs[0].decode()))
    announce(11, "CLI determinism across repeated runs")
