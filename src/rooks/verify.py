"""The verification harness: count tables and property checks that set a
brute-force oracle against a proof-derived form, and, where one exists,
against the closed form as printed.

Every check takes its one size, n or l as its entry in CHECKS names it, and
returns a list of report rows; a row whose oracle and proof form disagree
is an implementation bug, a disagreement with a printed form is only
logged.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from math import comb, factorial

from .counting import (
    CountReport,
    admissible_count,
    bell,
    borel_sp_paper_form,
    borel_sp_proof_form,
    borel_sp_rank_count,
    preimage_weight,
    rank_count_rook,
    stirling2,
    triangular_census,
)
from .folding import fold, fold_images, unfold_preimages_constructive
from .nilpotent import nilpotent_analysis
from .order import bcr_le, bcr_le_ppr, build_poset, ehresmann_le, standard_form
from .partitions import enum_partitions, partition_to_rook, rook_to_partition
from .rook import diagonal_idempotent, format_one_line, is_permutation, is_upper_triangular, rank
from .symplectic import (
    FAMILIES,
    FamilySpec,
    ResourceLimitError,
    count_family,
    enum_admissible,
    enum_family,
    is_admissible,
    iter_family,
    rank_slice_minimum,
)
from .weyl import (
    SYMMETRIC,
    SYMPLECTIC,
    generated_subgroup,
    group_context,
    parabolic_data,
    simple_transposition,
)


# --- rank counts ---


def _renner_sp_proof(n: int, k: int) -> int:
    l = n // 2
    if k == n:
        return 2**l * factorial(l)
    return admissible_count(n, k) ** 2 * factorial(k) if k <= l else 0


def _borel_sp_proof(n: int, k: int) -> int:
    if k <= n // 2:
        return borel_sp_proof_form(n // 2, k)
    return 1 if k == n else 0


def _borel_sp_paper(n: int, k: int):
    return borel_sp_paper_form(n // 2, k) if k <= n // 2 else None


# family -> (proof form, printed form) of the rank-k count at size n; a
# missing family (borel-sp-nil) or printed form has no closed form to audit.
RANK_FORMS = {
    "rook": (rank_count_rook, None),
    "borel": (lambda n, k: stirling2(n + 1, n + 1 - k), None),
    "borel-nil": (lambda n, k: stirling2(n, n - k), None),
    "renner-sp": (_renner_sp_proof, None),
    "borel-sp": (_borel_sp_proof, _borel_sp_paper),
}


def count_reports(spec: FamilySpec) -> list[CountReport]:
    """One row per rank of the family (or the one rank of the spec): the
    enumerated count against the forms in RANK_FORMS."""
    n = spec.n
    hist = Counter(rank(x) for x in iter_family(spec))
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
    reports = []
    for ni in range(1, n + 1):
        reps = count_reports(FamilySpec(ni, "borel"))
        reports.extend(
            replace(reps[r], parameters=(("n", ni), ("k", ni + 1 - r)), label=f"rank {r}")
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
    """Count the pairs on which the one-line route (`bcr_le`) and the
    standard-form route (`bcr_le_ppr`) disagree, over all rooks of size ni
    and, at even ni, all symplectic rooks in the symplectic group context.
    The per-element steps of the routes, the prefix profile and the
    standard form, are cached, so each runs once per element; a pair costs
    two cache lookups and one pair test per route."""
    routes = [("rook", "one-line vs standard-form disagreements")]
    if ni % 2 == 0:
        routes.append(("renner-sp", "ambient vs intrinsic symplectic disagreements"))
    reports = []
    for family, label in routes:
        elems = enum_family(FamilySpec(ni, family))
        ctx = group_context(SYMPLECTIC if FAMILIES[family].symplectic else SYMMETRIC, ni)
        bad = sum(
            1
            for x in elems
            for y in elems
            if bcr_le(x, y) != bcr_le_ppr(x, y, ctx)
        )
        reports.append(_zero_row((("n", ni),), bad, label))
    return reports


def _check_maxelements(l) -> list:
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
        total = 0
        for k in range(li + 1):
            rep = borel_sp_rank_count(li, k)
            total += rep.oracle
            reports.append(rep)
        members = count_family(FamilySpec(2 * li, "borel-sp"))
        reports.append(
            CountReport(
                (("l", li),), total + 1, proof_form=members, label="ranks 0..l plus identity"
            )
        )
    return reports


def _check_folding(l_val) -> list:
    n_val = 2 * l_val
    reports = []
    images = fold_images(l_val)
    mismatched_constructive = 0
    for i, a in enumerate(iter_family(FamilySpec(l_val, "rook"))):
        found = images.get(a, [])
        if found != unfold_preimages_constructive(a):
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
    reports: list = []
    for ni in range(3, n + 1):
        rep = nilpotent_analysis(FamilySpec(ni, "borel-nil"))
        reports.append(rep)
        params = (("n", ni),)
        reports.append(CountReport(params, int(rep.closed_under_product), proof_form=1, label="closed"))
        reports.append(CountReport(params, len(rep.maximals), proof_form=1, label="unique maximum"))
        r0 = (0,) + tuple(range(1, ni))
        reports.append(CountReport(params, int(rep.maximals == (r0,)), proof_form=1, label="maximum is r0"))
        reports.append(CountReport(params, rep.longest_chain, proof_form=comb(ni, 2), label="longest chain"))
        dominated = sum(
            1 for x in iter_family(FamilySpec(ni, "borel-nil")) if not bcr_le(x, r0)
        )
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
    reports = []
    ctx = group_context(SYMMETRIC, ni)
    failures = 0
    triangular_mismatch = 0
    for x in iter_family(FamilySpec(ni, "rook")):
        try:
            form = standard_form(x, ctx)
        except RuntimeError:
            failures += 1
            continue
        if is_upper_triangular(x) != ehresmann_le(form.a, form.b):
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
# nothing and pass vacuously.  The exhaustive comparator and standard-form
# checks stop at n = 4, the borel-sp slice posets at l = 3; enumeration stops
# at n = 8 (l = 4).
CHECKS = {
    "admissible": ("l", 1, 6, 6, _check_admissible),
    "rank-counts": ("n", 1, 6, 8, _check_rank_counts),
    "stirling-borel": ("n", 1, 6, 8, _check_stirling_borel),
    "inrsn": ("n", 1, 4, 4, _check_inrsn),
    "maxelements": ("l", 2, 3, 3, _check_maxelements),
    "triangular": ("n", 1, 4, 8, _check_triangular),
    "formula": ("l", 1, 2, 4, _check_formula),
    "folding": ("l", 1, 2, 4, _check_folding),
    "nilpotent": ("n", 3, 5, 8, _check_nilpotent),
    "parabolic": ("l", 2, 3, 4, _check_parabolic),
    "standard-form": ("n", 1, 4, 4, _check_standard_form),
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
