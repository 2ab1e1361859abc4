"""The verification harness: count tables and property checks that set a
brute-force oracle against a proof-derived form, and, where one exists,
against the closed form as printed.

Every check takes its one size, n or l as its entry in CHECKS names it, and
returns a list of report rows; a row whose oracle and proof form disagree
is an implementation bug, a disagreement with a printed form is only
logged.

`rooks.counting`, `rooks.rook` and `rooks.symplectic` load with this
module, which is all that `count` and the admissible, rank-counts,
triangular and formula checks run.  Each other check imports the rest of
what it uses when it runs: stirling-borel `rooks.partitions`, inrsn and
standard-form `rooks.order` and `rooks.weyl`, maxelements `rooks.order`,
folding `rooks.folding`, nilpotent `rooks.nilpotent` and `rooks.order`,
and parabolic `rooks.weyl`.
"""

from __future__ import annotations

from collections import Counter
from math import comb, factorial

from .counting import (
    CountReport,
    admissible_count,
    bell,
    borel_sp_paper_form,
    borel_sp_proof_form,
    preimage_weight,
    rank_count_rook,
    stirling2,
    triangular_census,
)
from .rook import diagonal_idempotent, format_one_line, is_permutation, is_upper_triangular
from .symplectic import (
    FAMILIES,
    FamilySpec,
    ResourceLimitError,
    count_family,
    enum_admissible,
    enum_family,
    is_admissible,
    iter_family,
    iter_family_ranks,
    rank_slice_minimum,
)


# --- rank counts ---


def _renner_sp_proof(n: int, k: int) -> int:
    l = n // 2
    if k == n:
        return 2**l * factorial(l)
    return admissible_count(n, k) ** 2 * factorial(k) if k <= l else 0


# family -> (proof form, printed form) of the rank-k count at size n; a
# missing family (borel-sp-nil) or printed form has no closed form to audit.
RANK_FORMS = {
    "rook": (rank_count_rook, None),
    "borel": (lambda n, k: stirling2(n + 1, n + 1 - k), None),
    "borel-nil": (lambda n, k: stirling2(n, n - k), None),
    "renner-sp": (_renner_sp_proof, None),
    "borel-sp": (borel_sp_proof_form, borel_sp_paper_form),
}


def count_reports(spec: FamilySpec) -> list[CountReport]:
    """One row per rank of the family (or the one rank of the spec): the
    enumerated count, a histogram of `iter_family_ranks` with one entry per
    member, against the forms in RANK_FORMS."""
    n = spec.n
    hist = Counter(iter_family_ranks(spec))
    proof_form, paper_form = RANK_FORMS.get(spec.family, (None, None))
    return [
        CountReport(
            (("n", n), ("k", k)),
            hist[k],
            proof_form=None if proof_form is None else proof_form(n, k),
            paper_form=None if paper_form is None else paper_form(n, k),
        )
        for k in (range(n + 1) if spec.rank is None else [spec.rank])
    ]


# --- checks ---


def _zero_row(params, violations: int, label: str) -> CountReport:
    return CountReport(tuple(params), violations, proof_form=0, label=label)


def _check_admissible(l) -> list:
    reports = []
    for li in range(1, l + 1):
        ni = 2 * li
        total = 0
        for k in range(ni + 1):
            count = len(enum_admissible(ni, k))
            total += count
            reports.append(
                CountReport((("l", li), ("k", k)), count, proof_form=admissible_count(ni, k))
            )
        reports.append(CountReport((("l", li),), total, proof_form=3**li, label="total"))
    return reports


def _check_rank_counts(n) -> list:
    return [rep for ni in range(1, n + 1) for rep in count_reports(FamilySpec(ni, "rook"))]


def _check_stirling_borel(n) -> list:
    from .partitions import enum_partitions, partition_to_rook, rook_to_partition

    reports = []
    for ni in range(1, n + 1):
        reps = count_reports(FamilySpec(ni, "borel"))
        reports.extend(
            reps[r]._replace(parameters=(("n", ni), ("k", ni + 1 - r)), label=f"rank {r}")
            for r in range(ni, -1, -1)
        )
    for m in range(1, min(n, 6) + 2):
        partitions = enum_partitions(m)
        bad = sum(
            1
            for p in partitions
            if rook_to_partition(partition_to_rook(p)) != p
        )
        reports.append(_zero_row((("m", m),), bad, "partition round-trip failures"))
        reports.append(
            CountReport((("m", m),), len(partitions), proof_form=bell(m), label="partition count")
        )
    return reports


def _check_inrsn(ni) -> list:
    """Count the pairs on which the one-line route and the standard-form
    route disagree, over all rooks of size ni and, at even ni, all
    symplectic rooks in the symplectic group context.  Each route builds
    its order as one bitset row per member: `standard_form_rows` makes the
    members from their standard-form slots, in slot order, with route
    two's rows, and checks that they are the enumerated family; route
    one's rows come from `rank_rows` on the members in that order, with
    each member's own bit set (every member is below itself).  The
    disagreements are the popcount of the XOR of the two rows, summed over
    the members."""
    from .order import rank_rows, standard_form_rows
    from .weyl import SYMMETRIC, SYMPLECTIC, group_context

    routes = [("rook", "one-line vs standard-form disagreements")]
    if ni % 2 == 0:
        routes.append(("renner-sp", "ambient vs intrinsic symplectic disagreements"))
    reports = []
    for family, label in routes:
        elems = enum_family(FamilySpec(ni, family))
        ctx = group_context(SYMPLECTIC if FAMILIES[family].symplectic else SYMMETRIC, ni)
        members, form_rows = standard_form_rows(elems, ctx)
        profile_rows = rank_rows(members)
        bad = sum(
            ((profile_row | 1 << j) ^ form_row).bit_count()
            for j, (profile_row, form_row) in enumerate(zip(profile_rows, form_rows))
        )
        reports.append(_zero_row((("n", ni),), bad, label))
    return reports


def _check_maxelements(l) -> list:
    from .order import build_poset

    reports = []
    for li in range(2, l + 1):
        ni = 2 * li
        for k in range(1, li + 1):
            poset = build_poset(enum_family(FamilySpec(ni, "borel-sp", rank=k)))
            maximals = [poset.elements[i] for i in poset.maximals]
            minimals = [poset.elements[i] for i in poset.minimals]
            params = (("l", li), ("k", k))
            reports.append(
                CountReport(params, len(maximals), proof_form=comb(li, k) * 2**k, label="maximals")
            )
            bad_max = sum(
                1
                for x in maximals
                if x != diagonal_idempotent(ni, [v for v in x if v])
                or not is_admissible([v for v in x if v], ni)
            )
            reports.append(_zero_row(params, bad_max, "non-idempotent maximals"))
            reports.append(CountReport(params, len(minimals), proof_form=1, label="minimals"))
            ok_min = int(minimals == [rank_slice_minimum(ni, k)])
            reports.append(CountReport(params, ok_min, proof_form=1, label="minimum is id(k)"))
            reports.append(CountReport(params, int(poset.graded), proof_form=1, label="graded"))
    return reports


def _check_triangular(ni) -> list:
    reports = list(triangular_census(ni))
    by_k: dict[int, int] = {}
    for rep in reports:
        params = dict(rep.parameters)
        k = params["a"] + params["b"] + params["c"]
        by_k[k] = by_k.get(k, 0) + rep.oracle
    for k in range(ni + 1):
        reports.append(
            CountReport(
                (("n", ni), ("k", k)),
                by_k.get(k, 0),
                proof_form=rank_count_rook(ni, k),
                label="census sum",
            )
        )
    return reports


def _check_formula(l) -> list:
    reports = []
    for li in range(1, l + 1):
        spec = FamilySpec(2 * li, "borel-sp")
        rows = count_reports(spec)[: li + 1]
        reports.extend(rep._replace(parameters=(("l", li), ("k", k))) for k, rep in enumerate(rows))
        reports.append(
            CountReport(
                (("l", li),),
                sum(rep.oracle for rep in rows) + 1,
                proof_form=count_family(spec),
                label="ranks 0..l plus identity",
            )
        )
    return reports


def _check_folding(l_val) -> list:
    from .folding import fold, fold_images, unfold_preimages

    n_val = 2 * l_val
    reports = []
    images = fold_images(l_val)
    mismatched_constructive = 0
    for i, a in enumerate(iter_family(FamilySpec(l_val, "rook"))):
        found = images.get(a, [])
        if found != unfold_preimages(a):
            mismatched_constructive += 1
        reports.append(
            CountReport(
                (("l", l_val), ("i", i)),
                len(found),
                proof_form=preimage_weight(a),
                label=format_one_line(a),
            )
        )
    reports.append(
        _zero_row((("l", l_val),), mismatched_constructive, "constructive vs exhaustive")
    )
    covered = sum(len(v) for v in images.values())
    members = count_family(FamilySpec(n_val, "borel-sp"))
    reports.append(
        CountReport(
            (("l", l_val),),
            covered,
            proof_form=members - 1,
            label="preimages cover the singular part",
        )
    )
    bad_commute = 0
    for x in iter_family(FamilySpec(n_val, "renner-sp")):
        if is_permutation(x):
            continue
        tb_lr = fold(fold(x, "tb"), "lr")
        lr_tb = fold(fold(x, "lr"), "tb")
        if tb_lr != lr_tb:
            bad_commute += 1
    reports.append(_zero_row((("n", n_val),), bad_commute, "folds fail to commute"))
    return reports


def _check_nilpotent(n) -> list:
    from .nilpotent import nilpotent_analysis
    from .order import rank_count_le, rank_counts

    reports: list = []
    for ni in range(3, n + 1):
        spec = FamilySpec(ni, "borel-nil")
        members = enum_family(spec)
        rep = nilpotent_analysis(spec, members)
        reports.append(rep)
        params = (("n", ni),)
        reports.append(CountReport(params, int(rep.closed_under_product), proof_form=1, label="closed"))
        reports.append(CountReport(params, len(rep.maximals), proof_form=1, label="unique maximum"))
        r0 = (0,) + tuple(range(1, ni))
        reports.append(CountReport(params, int(rep.maximals == (r0,)), proof_form=1, label="maximum is r0"))
        reports.append(CountReport(params, rep.longest_chain, proof_form=comb(ni, 2), label="longest chain"))
        le = rank_count_le(ni)
        top, *counts = rank_counts([r0, *members])
        dominated = sum(1 for c in counts if not le(c, top))
        reports.append(_zero_row(params, dominated, "elements above r0"))
    rep = nilpotent_analysis(FamilySpec(4, "borel-sp-nil"))
    reports.append(rep)
    reports.append(
        CountReport((("n", 4),), int(rep.closed_under_product), proof_form=1, label="symplectic closed")
    )
    reports.append(
        CountReport((("n", 4),), len(rep.maximals), paper_form=2, label="symplectic maximals")
    )
    return reports


def _check_parabolic(l) -> list:
    from .weyl import (
        SYMMETRIC,
        SYMPLECTIC,
        generated_subgroup,
        group_context,
        parabolic_data,
        simple_transposition,
    )

    reports = []
    for li in range(2, l + 1):
        ni = 2 * li
        ctx = group_context(SYMPLECTIC, ni)
        gens = ctx.generators
        for d in range(1, li + 1):
            e = diagonal_idempotent(ni, range(1, d + 1))
            data = parabolic_data(e, ctx)
            expect_centralizer = generated_subgroup(
                [gens[j] for j in range(li) if j != d - 1], ctx
            )
            expect_stabilizer = generated_subgroup(
                [gens[j] for j in range(d, li)], ctx
            )
            params = (("l", li), ("d", d))
            diff_c = len(set(data.centralizer) ^ set(expect_centralizer))
            diff_s = len(set(data.stabilizer) ^ set(expect_stabilizer))
            reports.append(_zero_row(params, diff_c, "centralizer vs <s_j : j != d>"))
            reports.append(_zero_row(params, diff_s, "stabilizer vs <s_{d+1}..s_l>"))
            not_inside = len(set(data.stabilizer) - set(data.centralizer))
            reports.append(_zero_row(params, not_inside, "stabilizer inside centralizer"))
    ctx4 = group_context(SYMMETRIC, 4)
    data = parabolic_data(diagonal_idempotent(4, [1, 2]), ctx4)
    r1 = simple_transposition(4, 1)
    r3 = simple_transposition(4, 3)
    ok = int(
        set(data.commuting_generators) == {r1, r3}
        and set(data.stabilizer_generators) == {r3}
    )
    reports.append(CountReport((("n", 4), ("d", 2)), ok, proof_form=1, label="rook-monoid e_2"))
    return reports


def _check_standard_form(ni) -> list:
    from .order import _dominance, standard_form
    from .weyl import SYMMETRIC, SYMPLECTIC, group_context

    reports = []
    ctx = group_context(SYMMETRIC, ni)
    table = _dominance(SYMMETRIC, ni)
    failures = 0
    triangular_mismatch = 0
    for x in iter_family(FamilySpec(ni, "rook")):
        try:
            form = standard_form(x, ctx)
        except RuntimeError:
            failures += 1
            continue
        if is_upper_triangular(x) != table.below[table.index[form.b]] >> table.index[form.a] & 1:
            triangular_mismatch += 1
    reports.append(_zero_row((("n", ni),), failures, "non-unique standard forms"))
    reports.append(
        _zero_row((("n", ni),), triangular_mismatch, "x <= 1 iff a <= b violations")
    )
    if ni % 2 == 0:
        ctx_sp = group_context(SYMPLECTIC, ni)
        failures_sp = 0
        for x in iter_family(FamilySpec(ni, "renner-sp")):
            try:
                standard_form(x, ctx_sp)
            except RuntimeError:
                failures_sp += 1
        reports.append(
            _zero_row((("n", ni),), failures_sp, "non-unique symplectic standard forms")
        )
    return reports


# check -> (the one size it takes, its smallest, its default and its largest
# accepted value, the check).  Below the smallest size a check would compare
# nothing and pass vacuously.  Run as one process at its largest size
# (2-CPU Xeon, Python 3.11), the exhaustive comparator check takes about
# 2.3-2.6 s and 46 MB (rook n = 6, 13,327 members, by bitset rows, most of
# it route two's witness loop; rook n = 7, 130,922 members, would take
# rows of m^2/8 = 2.1 GB), the standard-form check 2.9 s (rook
# n = 7, 130,922 members), parabolic 1.0 s (l = 6), admissible 0.35 s
# (l = 8) and the borel-sp slice posets of maxelements 0.2 s (l = 4, as
# far as enumeration goes: n = 8).
CHECKS = {
    "admissible": ("l", 1, 6, 8, _check_admissible),
    "rank-counts": ("n", 1, 6, 8, _check_rank_counts),
    "stirling-borel": ("n", 1, 6, 8, _check_stirling_borel),
    "inrsn": ("n", 1, 4, 6, _check_inrsn),
    "maxelements": ("l", 2, 3, 4, _check_maxelements),
    "triangular": ("n", 1, 4, 8, _check_triangular),
    "formula": ("l", 1, 2, 4, _check_formula),
    "folding": ("l", 1, 2, 4, _check_folding),
    "nilpotent": ("n", 3, 5, 8, _check_nilpotent),
    "parabolic": ("l", 2, 3, 6, _check_parabolic),
    "standard-form": ("n", 1, 4, 7, _check_standard_form),
}
VERIFY_CHECKS = tuple(CHECKS)


def run_check(name: str, n=None, l=None) -> list:
    """Run one named check at its size (its default when none is given),
    within that check's bounds."""
    if name not in CHECKS:
        raise ValueError(f"unknown check {name!r}; choose from {VERIFY_CHECKS}")
    flag, least, default, limit, check = CHECKS[name]
    size, other = (n, l) if flag == "n" else (l, n)
    if other is not None:
        raise ValueError(f"check {name} takes --{flag} only")
    if size is None:
        size = default
    if size < least:
        raise ValueError(f"check {name} needs {flag} at least {least}, got {size}")
    if size > limit:
        raise ResourceLimitError(f"check {name} supports {flag} up to {limit}, got {size}")
    return check(size)


def proof_agreement(reports) -> bool:
    """False iff some count row has an oracle vs proof-form mismatch."""
    return all(
        rep.agree_oracle_proof is not False
        for rep in reports
        if isinstance(rep, CountReport)
    )
