import pytest

from rooks.folding import PartialMatrix, fold, fold_images, from_rook, to_rook, unfold_preimages
from rooks.counting import preimage_weight
from rooks.rook import identity_rook, is_permutation, rank
from rooks.symplectic import FamilySpec, ResourceLimitError, enum_family

# an 8x8 worked example and its two folds, frozen cell-exactly
X8 = (1, 0, 5, 0, 2, 0, 6, 0)
X8_TB_CELLS = {(4, 1), (3, 5), (1, 3), (2, 7)}
X8_LR_CELLS = {(1, 4), (2, 1), (5, 2), (6, 3)}


def test_partial_matrix_invariants():
    pm = PartialMatrix(2, 3, ((1, 2), (2, 1)))
    assert pm.cells == ((1, 2), (2, 1))  # canonically sorted
    with pytest.raises(ValueError):
        PartialMatrix(2, 3, ((1, 1), (1, 2)))  # two cells in a row
    with pytest.raises(ValueError):
        PartialMatrix(2, 3, ((1, 1), (2, 1)))  # two cells in a column
    with pytest.raises(ValueError):
        PartialMatrix(2, 3, ((3, 1),))  # out of bounds


def test_partial_matrix_text():
    pm = PartialMatrix(4, 8, tuple(sorted(X8_TB_CELLS)))
    assert pm.text() == "4 8; 1,3 2,7 3,5 4,1"
    assert PartialMatrix(2, 2, ()).text() == "2 2;"


def test_worked_example_fold_top_bottom():
    tb = fold(X8, "tb")
    assert (tb.rows, tb.cols) == (4, 8)
    assert set(tb.cells) == X8_TB_CELLS


def test_worked_example_fold_left_right():
    lr = fold(X8, "lr")
    assert (lr.rows, lr.cols) == (8, 4)
    assert set(lr.cells) == X8_LR_CELLS


def test_worked_example_fold_composed():
    assert fold(X8, "both") == (3, 1, 2, 4)


def test_fold_validation():
    with pytest.raises(ValueError):
        fold(X8, "sideways")
    with pytest.raises(ValueError):
        fold((1, 0, 0), "tb")  # odd size
    with pytest.raises(ValueError):
        fold(PartialMatrix(2, 3, ()), "lr")  # odd column count
    with pytest.raises(ValueError):
        fold(PartialMatrix(2, 3, ()), "both")  # not square


def test_fold_collisions_raise():
    # theta-paired cells of a full permutation always collide
    with pytest.raises(ValueError):
        fold(identity_rook(2), "both")
    with pytest.raises(ValueError):
        fold((2, 1, 4, 3), "both")
    # a single direction can be fine while the other collides
    x = (0, 2, 0, 3)  # rows {2,3} collide under TB, columns {2,4} do not
    with pytest.raises(ValueError):
        fold(x, "tb")
    assert set(fold(x, "lr").cells) == {(2, 1), (3, 2)}


def test_fold_commutes_on_singular_symplectic_n4():
    for x in enum_family(FamilySpec(4, "renner-sp")):
        if is_permutation(x):
            for direction in ("tb", "lr", "both"):
                with pytest.raises(ValueError):
                    fold(x, direction)
            continue
        tb_lr = fold(fold(x, "tb"), "lr")
        lr_tb = fold(fold(x, "lr"), "tb")
        both = fold(x, "both")
        assert tb_lr == lr_tb
        assert to_rook(tb_lr) == both
        assert rank(both) == rank(x)  # no cells lost


def fold_by_constructor(pm, axis):
    """The half fold of pm along axis (0 TB, 1 LR) built by the checked
    constructor, which raises where two folded cells share a line."""
    h = (pm.cols if axis else pm.rows) // 2
    half = [i - h if i > h else h + 1 - i for i in range(2 * h + 1)]
    if axis:
        return PartialMatrix(pm.rows, h, [(r, half[c]) for r, c in pm.cells])
    return PartialMatrix(h, pm.cols, [(half[r], c) for r, c in pm.cells])


@pytest.mark.parametrize("n", [2, 4, 6])
def test_folds_match_the_checked_constructor(n):
    # folds are built around the constructor's checks: on every renner-sp
    # member, each fold and each fold of a fold is the checked
    # constructor's, and raises exactly when that construction does
    for x in enum_family(FamilySpec(n, "renner-sp")):
        pending = [from_rook(x)]
        while pending:
            pm = pending.pop()
            for axis, direction in enumerate(("tb", "lr")):
                if (pm.cols if axis else pm.rows) % 2:
                    continue
                try:
                    expected = fold_by_constructor(pm, axis)
                except ValueError:
                    with pytest.raises(ValueError, match="collide"):
                        fold(pm, direction)
                    continue
                got = fold(pm, direction)
                assert type(got) is PartialMatrix and got == expected
                pending.append(got)


def test_unfold_j2_worked_example():
    assert unfold_preimages((2, 1)) == [
        (0, 0, 1, 2),
        (0, 0, 1, 3),
        (0, 1, 0, 2),
        (0, 1, 0, 3),
    ]
    assert preimage_weight((2, 1)) == 4


def test_unfold_zero_and_identity():
    assert unfold_preimages((0, 0)) == [(0,) * 4]
    assert preimage_weight((0, 0)) == 1
    nine = unfold_preimages((1, 2))
    assert len(nine) == 9
    assert preimage_weight((1, 2)) == 9


def test_unfold_routes_agree_l2():
    images = fold_images(2)
    for a in enum_family(FamilySpec(2, "rook")):
        exhaustive = images.get(a, [])
        assert exhaustive == unfold_preimages(a)
        assert len(exhaustive) == preimage_weight(a)


def test_preimages_partition_singular_borel_l2():
    borel = enum_family(FamilySpec(4, "borel-sp"))
    singular = [x for x in borel if not is_permutation(x)]
    seen = set()
    for a in enum_family(FamilySpec(2, "rook")):
        pre = set(unfold_preimages(a))
        assert not (pre & seen)
        seen |= pre
    assert seen == set(singular)


def test_unfold_refuses_a_doubled_size_past_the_bound():
    with pytest.raises(ResourceLimitError):
        unfold_preimages((0,) * 5)


def test_from_rook_round_trip():
    pm = from_rook((0, 0, 2, 1))
    assert to_rook(pm) == (0, 0, 2, 1)
    with pytest.raises(ValueError):
        to_rook(PartialMatrix(2, 3, ()))
