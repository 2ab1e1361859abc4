import hashlib
from collections import Counter
from itertools import chain, islice, product
from math import comb, factorial

import pytest

from fresh_peak import fresh_peak
from rook_oracles import iter_family_by_leaves, rank_by_entries
from rooks import symplectic
from rooks.order import bcr_le
from rooks.rook import (
    domain,
    format_one_line,
    identity_rook,
    is_strictly_upper_triangular,
    is_upper_triangular,
    multiply,
    range_of,
    rank,
)
from rooks.symplectic import (
    FAMILIES,
    FamilySpec,
    ResourceLimitError,
    count_family,
    enum_admissible,
    enum_family,
    is_admissible,
    is_symplectic_rook,
    iter_family,
    iter_family_ranks,
    line_blocks,
    rank_slice_minimum,
    theta_perm,
)
from rooks.verify import _renner_sp_proof
from rooks.weyl import SYMPLECTIC, group_context

SP_FAMILIES = [name for name, family in FAMILIES.items() if family.symplectic]

# what the memory tests run in a fresh interpreter before tracing starts
FAMILY_IMPORTS = """\
from collections import deque
from rooks.counting import _census
from rooks.symplectic import FamilySpec, count_family, iter_family, line_blocks"""


def test_is_admissible_examples():
    assert is_admissible({1, 3}, 4)
    assert not is_admissible({2, 3}, 4)
    assert is_admissible(set(), 4)
    with pytest.raises(ValueError):
        is_admissible({1}, 3)
    with pytest.raises(ValueError):
        is_admissible({5}, 4)


def test_enum_admissible_examples():
    assert enum_admissible(4, 2) == [(1, 2), (1, 3), (2, 4), (3, 4)]
    assert enum_admissible(4, 3) == []
    assert enum_admissible(4, 0) == [()]
    with pytest.raises(ValueError):
        enum_admissible(4, 5)


@pytest.mark.parametrize("l", [1, 2, 3, 4, 5, 6])
def test_admissible_counts(l):
    n = 2 * l
    total = 0
    for k in range(n + 1):
        count = len(enum_admissible(n, k))
        assert count == comb(l, k) * 2**k
        total += count
    assert total == 3**l


def test_is_symplectic_rook_examples():
    assert is_symplectic_rook((0, 0, 2, 1))
    assert not is_symplectic_rook((0, 0, 2, 3))
    assert is_symplectic_rook((1, 2, 3, 4))
    assert not is_symplectic_rook((2, 1, 3, 4))  # not theta-fixed
    with pytest.raises(ValueError):
        is_symplectic_rook((1, 2, 3))


def test_enum_family_counts():
    assert len(enum_family(FamilySpec(2, "rook"))) == 7
    assert len(enum_family(FamilySpec(4, "borel-sp"))) == 25
    assert len(enum_family(FamilySpec(4, "borel-sp-nil"))) == 12
    assert len(enum_family(FamilySpec(4, "renner-sp"))) == 57


def _in_family(x, family):
    nonzero = [v for v in x if v]
    if len(set(nonzero)) != len(nonzero):
        return False
    if family in ("borel", "borel-sp") and not is_upper_triangular(x):
        return False
    if family in ("borel-nil", "borel-sp-nil") and not is_strictly_upper_triangular(x):
        return False
    return family not in SP_FAMILIES or is_symplectic_rook(x)


@pytest.mark.parametrize(
    "family, n",
    [(f, n) for f in FAMILIES for n in ((2, 4) if f in SP_FAMILIES else (1, 2, 3, 4, 5))],
)
def test_enum_family_matches_brute_force(family, n):
    oracle = sorted(
        x for x in product(range(n + 1), repeat=n) if _in_family(x, family)
    )
    assert enum_family(FamilySpec(n, family)) == oracle
    for k in range(n + 1):
        assert enum_family(FamilySpec(n, family, rank=k)) == [
            x for x in oracle if rank(x) == k
        ]


@pytest.mark.parametrize("family", SP_FAMILIES)
def test_sp_descent_matches_filtered_rook_family_n6(family):
    # the unpruned rook descent, filtered by the membership oracle
    oracle = [x for x in enum_family(FamilySpec(6, "rook")) if _in_family(x, family)]
    assert enum_family(FamilySpec(6, family)) == oracle
    for k in range(7):
        assert enum_family(FamilySpec(6, family, rank=k)) == [
            x for x in oracle if rank(x) == k
        ]


def test_iter_family_is_lazy():
    # the first rook of size 8 comes without the other 1,441,728 (about
    # 190 MB as a list)
    peak, out = fresh_peak(FAMILY_IMPORTS, "print(next(iter_family(FamilySpec(8, 'rook'))))")
    assert out == f"{(0,) * 8}\n"
    assert peak < 2**20, peak


def lines_of(spec):
    """The one-line text of each member, from the blocks of `line_blocks`."""
    return chain.from_iterable(map(prefix.__add__, tails) for prefix, tails in line_blocks(spec))


@pytest.mark.parametrize("spec", [FamilySpec(5, "rook"), FamilySpec(6, "renner-sp")])
def test_concurrent_streams_keep_separate_state(spec):
    # two live streams of one spec, of one kind or of two (tuples, lines
    # and ranks), one taking two steps to the other's one, and a count of
    # the spec in the middle of a third: each walk keeps its own columns,
    # rows, heads and memo
    expected = {iter_family: enum_family(spec)}
    expected[lines_of] = list(map(format_one_line, expected[iter_family]))
    expected[iter_family_ranks] = list(map(rank, expected[iter_family]))
    for fast, slow in product(expected, repeat=2):
        a, b = fast(spec), slow(spec)
        seen_a, seen_b = [], []
        for x in a:
            seen_a.append(x)
            if len(seen_a) % 2:
                seen_b.append(next(b))
        assert seen_a == expected[fast] and seen_b + list(b) == expected[slow]
    for stream, listed in expected.items():
        c = stream(spec)
        head = list(islice(c, len(listed) // 2))
        assert count_family(spec) == len(listed)
        assert head + list(c) == listed


@pytest.mark.parametrize(
    "family, n, ranks",
    [
        (f, n, (None, *range(n + 1)))
        for f in FAMILIES
        for n in ((2, 4, 6, 8) if f in SP_FAMILIES else range(1, 8))
    ]
    # the whole of rook n=8 is the slow oracle's 1,441,729 leaves
    + [("rook", 8, (0, 1, 7, 8))],
)
def test_block_descent_matches_the_leaf_descent(family, n, ranks):
    for k in ranks:
        spec = FamilySpec(n, family, rank=k)
        oracle = list(iter_family_by_leaves(spec))
        assert list(iter_family(spec)) == oracle, k
        assert count_family(spec) == len(oracle), k


@pytest.mark.parametrize("family, size", [("rook", 1441729), ("renner-sp", 13889)])
def test_count_walks_no_block(family, size, monkeypatch):
    # the count is a walk of its own over the states, not a sum over the
    # blocks of the enumeration
    def no_blocks(*args):
        raise AssertionError("count_family entered _blocks")

    monkeypatch.setattr(symplectic, "_blocks", no_blocks)
    assert count_family(FamilySpec(8, family)) == size


@pytest.mark.parametrize(
    "family, form",
    [("rook", lambda k: comb(8, k) ** 2 * factorial(k)), ("renner-sp", lambda k: _renner_sp_proof(8, k))],
)
def test_rank_slice_counts_at_n8(family, form):
    for k in range(9):
        assert count_family(FamilySpec(8, family, rank=k)) == form(k), k


@pytest.mark.parametrize(
    "family, n",
    [(f, n) for f in FAMILIES for n in range(1, 7) if n % 2 == 0 or f not in SP_FAMILIES]
    # the mirror-column keys of n=8, which the rook census never reaches
    + [(f, 8) for f in SP_FAMILIES],
)
def test_weighted_count_reads_the_rank_histogram(family, n):
    # weight w per filled cell: member x counts 2^(w rank(x)), so the count
    # of rank k is the base-2^w digit k, and no digit reaches 2^w
    for k in (None, *range(n + 1)):
        spec = FamilySpec(n, family, rank=k)
        w = count_family(spec).bit_length()
        total = count_family(spec, lambda j, v: w * (v != 0))
        digits = [(total >> w * r) & ((1 << w) - 1) for r in range(n + 1)]
        hist = Counter(rank(x) for x in iter_family(spec))
        assert total >> w * (n + 1) == 0, k
        assert digits == [hist[r] for r in range(n + 1)], k


@pytest.mark.parametrize(
    "family, n",
    [
        (f, n)
        for f in FAMILIES
        for n in (range(1, 7) if f == "rook" else (*range(1, 7), 8))
        if n % 2 == 0 or f not in SP_FAMILIES
    ],
)
def test_line_stream_formats_each_member(family, n):
    # n = 1 and n = 2 have an empty prefix, so every line is head "(" and a
    # whole one-line form as its tail; no block is empty
    for k in (None, *range(n + 1)):
        spec = FamilySpec(n, family, rank=k)
        assert list(lines_of(spec)) == list(map(format_one_line, iter_family(spec))), k
        assert all(tails for _, tails in line_blocks(spec)), k


@pytest.mark.parametrize(
    "family, n",
    [(f, n) for f in FAMILIES for n in range(1, 7) if n % 2 == 0 or f not in SP_FAMILIES]
    + [("rook", 7)],
)
def test_rank_stream_counts_each_member(family, n):
    # one rank per member, in the order of the members, as the oracle
    # counts the nonzero entries of each one: so `count_reports`, which
    # counts the stream, reads the enumerated histogram
    for k in (None, *range(n + 1)):
        spec = FamilySpec(n, family, rank=k)
        assert list(iter_family_ranks(spec)) == list(map(rank_by_entries, iter_family(spec))), k


# SHA-256 of the one-line listing of every rank slice of a symplectic
# family at n = 2, 4, 6 and 8, each slice headed by "n k" (k "None" for the
# whole family), taken while `_rules.choices` filtered the unused rows by
# their mirrors on every call, before the singular route had its table
SP_LISTING_DIGESTS = {
    "renner-sp": "fad20a0fe5dfbddda369d0e8767ceffdcf196508fd58e88d8c90fcad6c1e2661",
    "borel-sp": "c20431e50c05da052866811f4fc178325ee55eec7179c39c063d6dd1dd1ff7ad",
    "borel-sp-nil": "54cb97688d4b0fe49e0e57df79e5166cb9091b200f3585fbaf48d7f654c18992",
}


@pytest.mark.parametrize("family", SP_FAMILIES)
def test_symplectic_listings_are_unchanged(family):
    digest = hashlib.sha256()
    for n in (2, 4, 6, 8):
        for k in (None, *range(n + 1)):
            digest.update(f"{n} {k}\n".encode())
            for line in lines_of(FamilySpec(n, family, rank=k)):
                digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == SP_LISTING_DIGESTS[family]


def _traced_peak(work: str) -> int:
    return fresh_peak(FAMILY_IMPORTS, work)[0]


def test_tail_memo_stays_bounded():
    # the memos are bounded by n, not by the family, each peak read in a
    # fresh interpreter: a count of all 1,441,729 rooks of size 8 keeps
    # less than 256 KiB (about 63 KiB measured), a count of renner-sp n=8,
    # whose keys carry the mirror columns, less than 512 KiB (about 332
    # KiB; about 590 KiB when every column is memoised, not only those from
    # n/2+2 on), the census of size 8, whose memo holds one int of 26-bit
    # digits per used-row state, less than 512 KiB (about 423 KiB), and a
    # drain of the 130,922 rooks of size 7, as tuples or as the joined text
    # of each block, less than 1 MiB (about 172 KiB each)
    assert _traced_peak("count_family(FamilySpec(8, 'rook'))") < 2**18
    assert _traced_peak("count_family(FamilySpec(8, 'renner-sp'))") < 2**19
    assert _traced_peak("_census(8)") < 2**19
    assert _traced_peak("deque(iter_family(FamilySpec(7, 'rook')), 0)") < 2**20
    assert _traced_peak(
        "deque((p + ('\\n' + p).join(t) for p, t in line_blocks(FamilySpec(7, 'rook'))), 0)"
    ) < 2**20


def test_enum_family_rank_filter():
    slice2 = enum_family(FamilySpec(4, "borel-sp", rank=2))
    assert len(slice2) == 13
    assert all(rank(x) == 2 for x in slice2)


def test_extreme_rank_slices_at_n8():
    assert enum_family(FamilySpec(8, "rook", rank=0)) == [(0,) * 8]
    assert enum_family(FamilySpec(8, "borel", rank=8)) == [tuple(range(1, 9))]


@pytest.mark.parametrize(
    "n, family", [(7, "rook")] + [(8, family) for family in FAMILIES]
)
def test_rank_slices_match_the_filtered_stream(n, family):
    # every rank slice against the unsliced descent, at the largest size:
    # each member of the stream is checked off against the stream of its
    # rank slice (its rank is n minus its zeros), so rook n=8 runs without
    # holding its 1,441,729 members
    slices = [iter_family(FamilySpec(n, family, rank=k)) for k in range(n + 1)]
    for x in iter_family(FamilySpec(n, family)):
        assert next(slices[n - x.count(0)], None) == x
    for k in range(n + 1):
        assert next(slices[k], None) is None, k


def test_family_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec(3, "renner-sp")  # odd size for a symplectic family
    with pytest.raises(ValueError):
        FamilySpec(4, "no-such-family")
    with pytest.raises(ValueError):
        FamilySpec(4, "rook", rank=9)


@pytest.mark.parametrize(
    "n,k",
    [
        (4, 1.5),  # a fractional rank would slice nothing and stream every rook
        (4, 2.0),
        (4, "2"),
        (2.5, None),
        (4.0, None),
        ("4", None),
    ],
)
def test_family_spec_rejects_non_integers(n, k):
    with pytest.raises(ValueError, match="must be an integer"):
        FamilySpec(n, "rook", rank=k)


def test_desk_bound():
    with pytest.raises(ResourceLimitError):
        enum_family(FamilySpec(9, "rook"))
    # refused by the spec itself, before anything is drawn
    for n, family in [(9, "rook"), (10, "borel-sp")]:
        with pytest.raises(ResourceLimitError, match=f"^enumeration supports sizes up to 8, got {n}$"):
            FamilySpec(n, family)
    with pytest.raises(ValueError, match="^size must be even and positive, got 9$"):
        FamilySpec(9, "renner-sp")


def test_cross_section_lattice():
    assert group_context(SYMPLECTIC, 4).chain == (
        (0, 0, 0, 0),
        (1, 0, 0, 0),
        (1, 2, 0, 0),
        (1, 2, 3, 4),
    )
    assert group_context(SYMPLECTIC, 2).chain == ((0, 0), (1, 0), (1, 2))
    with pytest.raises(ValueError):
        group_context(SYMPLECTIC, 3)


def test_borel_sp_equals_lower_interval_of_identity():
    # upper-triangularity coincides with x <= 1 inside the symplectic rooks
    renner = enum_family(FamilySpec(4, "renner-sp"))
    borel = set(enum_family(FamilySpec(4, "borel-sp")))
    ident = identity_rook(4)
    assert {x for x in renner if bcr_le(x, ident)} == borel


@pytest.mark.parametrize("n", [4, 6])
def test_members_have_admissible_domain_and_range(n):
    for x in enum_family(FamilySpec(n, "renner-sp")):
        if rank(x) < n:
            assert is_admissible(domain(x), n)
            assert is_admissible(range_of(x), n)
        else:
            assert theta_perm(x) == x


def test_renner_sp_closed_under_product():
    members = enum_family(FamilySpec(4, "renner-sp"))
    member_set = set(members)
    for x in members:
        for y in members:
            assert multiply(x, y) in member_set


def test_renner_sp_matches_orbit_description():
    # the filtered enumeration equals the union of W_G e W_G over the chain
    n = 4
    ctx = group_context(SYMPLECTIC, n)
    orbit_union = set()
    for e in ctx.chain:
        for a in ctx.elements:
            for b in ctx.elements:
                orbit_union.add(multiply(multiply(a, e), b))
    assert orbit_union == set(enum_family(FamilySpec(n, "renner-sp")))


def test_rank_slice_minimum():
    assert rank_slice_minimum(4, 2) == (0, 0, 1, 2)
    assert rank_slice_minimum(4, 0) == (0, 0, 0, 0)
    assert is_symplectic_rook(rank_slice_minimum(6, 3))
