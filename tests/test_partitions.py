import pytest

from rooks.counting import bell, stirling2
from rooks.partitions import (
    check_partition,
    enum_partitions,
    parse_partition,
    partition_standard_string,
    partition_to_rook,
    rook_to_partition,
)
from rooks.rook import is_strictly_upper_triangular, rank
from rooks.symplectic import FamilySpec, enum_family


def test_check_partition_canonicalizes():
    assert check_partition([(3, 7), (8, 1), (9, 2, 6, 5), (4,)]) == (
        (1, 8),
        (2, 5, 6, 9),
        (3, 7),
        (4,),
    )
    with pytest.raises(ValueError):
        check_partition([(1, 2), (2, 3)])  # overlap
    with pytest.raises(ValueError):
        check_partition([(1,), (3,)])  # gap
    with pytest.raises(ValueError):
        check_partition([(1,), ()])  # empty block


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 5, 6])
def test_enum_partitions_counts(m):
    assert len(enum_partitions(m)) == bell(m)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_embed_is_rank_preserving_bijection(n):
    # prepending a zero column maps the upper-triangular rooks of size n onto
    # the nilpotent ones of size n + 1, in order; dropping it is the inverse
    upper = enum_family(FamilySpec(n, "borel"))
    nilpotents = enum_family(FamilySpec(n + 1, "borel-nil"))
    images = [(0,) + a for a in upper]
    assert images == nilpotents
    assert [x[1:] for x in nilpotents] == upper
    for a, image in zip(upper, images):
        assert is_strictly_upper_triangular(image)
        assert rank(image) == rank(a)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_stirling_bridge(n):
    # rank n+1-k upper-triangular rooks of size n correspond to partitions
    # of n+1 into k blocks
    hist = {}
    for a in enum_family(FamilySpec(n, "borel")):
        hist[rank(a)] = hist.get(rank(a), 0) + 1
    for k in range(1, n + 2):
        assert hist.get(n + 1 - k, 0) == stirling2(n + 1, k)


def test_arc_diagram_worked_example():
    x = (0, 0, 0, 0, 2, 5, 3, 1, 6)
    partition = rook_to_partition(x)
    assert partition == ((1, 8), (2, 5, 6, 9), (3, 7), (4,))
    assert partition_standard_string(partition) == "18|2569|37|4"
    assert partition_to_rook(partition) == x


def test_partition_to_rook_worked_example():
    assert partition_to_rook(parse_partition("136|2459|78")) == (0, 0, 1, 2, 4, 3, 0, 7, 5)


def test_singletons_give_zero_rook():
    assert partition_to_rook(((1,), (2,), (3,))) == (0,) * 3
    assert rook_to_partition((0,) * 3) == ((1,), (2,), (3,))


def test_rook_to_partition_rejects_non_nilpotent():
    with pytest.raises(ValueError):
        rook_to_partition((1, 0, 0))  # diagonal cell
    with pytest.raises(ValueError):
        rook_to_partition((2, 0))  # below the diagonal


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7])
def test_round_trips(m):
    for p in enum_partitions(m):
        x = partition_to_rook(p)
        assert rook_to_partition(x) == p
        assert rank(x) == m - len(p)
    for x in enum_family(FamilySpec(m, "borel-nil")):
        p = rook_to_partition(x)
        assert partition_to_rook(p) == x
        assert len(p) + rank(x) == m


def test_standard_string_forms():
    assert partition_standard_string(((1,), (2,), (3,))) == "1|2|3"
    big = check_partition([tuple(range(1, 10)), (10, 11), (12,)])
    text = partition_standard_string(big)
    assert text == "1,2,3,4,5,6,7,8,9|10,11|12"
    assert parse_partition(text) == big
    # "1|2|...|10" has no comma, but its 11 digits put it in the comma form
    for m in (10, 12):
        singletons = tuple((i,) for i in range(1, m + 1))
        text = partition_standard_string(singletons)
        assert text == "|".join(map(str, range(1, m + 1)))
        assert parse_partition(text) == singletons


def test_parse_partition_errors():
    with pytest.raises(ValueError):
        parse_partition("")
    with pytest.raises(ValueError):
        parse_partition("12||3")
    with pytest.raises(ValueError):
        parse_partition("1|3")
