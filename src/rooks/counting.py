"""Exact integer combinatorics, the triangular census and the three-way
counting reports.

Every count is reported as a comparison of up to three values: a brute-force
enumeration oracle, a form reconstructed from a proof (expected to agree),
and the closed form as printed (audited, allowed to disagree).  This module
holds the forms and the `CountReport` row.  The rank-k forms of a family at
size n are functions of (n, k), `borel_sp_proof_form` and
`borel_sp_paper_form` among them; `verify.RANK_FORMS` names them per family,
and `verify.count_reports` is the one producer of rank-count rows, for
`count` and `verify --check formula` alike.  Nothing is asserted here; the
reports carry agreement flags and the callers decide.  All arithmetic uses
unbounded integers.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from math import comb, factorial
from typing import NamedTuple, Optional

from .rook import Rook, triangular_ranks
from .symplectic import FamilySpec, _check_even, count_family


class CountReport(NamedTuple):
    """One row of a verification table."""

    parameters: tuple[tuple[str, int], ...]
    oracle: int
    proof_form: Optional[int] = None
    paper_form: Optional[int] = None
    label: str = ""

    @property
    def agree_oracle_proof(self) -> Optional[bool]:
        return None if self.proof_form is None else self.oracle == self.proof_form

    @property
    def agree_oracle_paper(self) -> Optional[bool]:
        return None if self.paper_form is None else self.oracle == self.paper_form

    def to_json_dict(self) -> dict:
        out = {
            "parameters": dict(self.parameters),
            "oracle": self.oracle,
            "proof_form": self.proof_form,
            "paper_form": self.paper_form,
            "agree_oracle_proof": self.agree_oracle_proof,
            "agree_oracle_paper": self.agree_oracle_paper,
        }
        if self.label:
            out["label"] = self.label
        return out

    def text_row(self) -> str:
        params = " ".join(f"{k}={v}" for k, v in self.parameters)
        forms = f"oracle={self.oracle}"
        forms += f" proof={'-' if self.proof_form is None else self.proof_form}"
        forms += f" paper={'-' if self.paper_form is None else self.paper_form}"
        flags = []
        for name, flag in (
            ("proof", self.agree_oracle_proof),
            ("paper", self.agree_oracle_paper),
        ):
            flags.append(f"{name}:{'-' if flag is None else 'ok' if flag else 'MISMATCH'}")
        line = f"{params}  {forms}  {' '.join(flags)}"
        if self.label:
            line += f"  # {self.label}"
        return line


def stirling2(m: int, k: int) -> int:
    """Stirling numbers of the second kind by the recurrence
    S(i, j) = S(i-1, j-1) + j S(i-1, j), one row i at a time over the
    columns 0..k; out-of-range arguments are 0."""
    if m < 0 or k < 0 or k > m:
        return 0
    row = [1] + [0] * k  # S(0, 0..k)
    for _ in range(m):
        row = [0] + [row[j - 1] + j * row[j] for j in range(1, k + 1)]
    return row[k]


def bell(m: int) -> int:
    if m < 0:
        raise ValueError("Bell numbers need a nonnegative index")
    return sum(stirling2(m, k) for k in range(m + 1))


def admissible_count(n: int, k: int) -> int:
    """C(l, k) 2^k with l = n/2; the tests compare it with enumeration."""
    _check_even(n)
    if k < 0:
        raise ValueError("k must be nonnegative")
    l = n // 2
    return comb(l, k) * 2**k


def rank_count_rook(n: int, k: int) -> int:
    """C(n, k) n! / (n-k)!, the number of size-n rooks of rank k."""
    if not 0 <= k <= n:
        raise ValueError(f"rank {k} out of range 0..{n}")
    return comb(n, k) * factorial(n) // factorial(n - k)


def _census(n: int) -> Counter:
    """The number of size-n rooks with each triple (a, b, c) of triangular
    ranks, from one `count_family` walk over the rook states: a cell's shift
    is 0 when empty and w, w (n+1) or w (n+1)^2 above, on or below the
    diagonal, so the total is the census polynomial at 2^w, whose base-2^w
    digit a (n+1)^2 + b (n+1) + c is the count of (a, b, c)."""
    base = n + 1
    # (n+1)^n bounds the family, so no w-bit digit carries into the next; a
    # cell's power of n+1 is 0, 1 or 2 above, on or below the diagonal
    w = (base**n).bit_length()
    total = count_family(FamilySpec(n, "rook"), lambda j, v: v and w * base ** ((v >= j) + (v > j)))
    digits = ((total >> w * p) & ((1 << w) - 1) for p in range(base**3))
    return Counter({abc: m for abc, m in zip(product(range(base), repeat=3), digits) if m})


def triangular_census(n: int) -> list[CountReport]:
    """Per-triple counts of rooks by (lower, diagonal, upper) ranks.

    oracle: the census by states (`_census`).  paper_form: the printed
    factored product C(n,b) S(n+1,n+1-a) S(n+1,n+1-c), recorded even where
    it disagrees.
    Whether the census partitions each rank is the verify check's to report
    (its `census sum` rows), not an error here.
    """
    counts = _census(n)
    reports = []
    for a in range(n + 1):
        for b in range(n + 1 - a):
            for c in range(n + 1 - a - b):
                printed = comb(n, b) * stirling2(n + 1, n + 1 - a) * stirling2(n + 1, n + 1 - c)
                reports.append(
                    CountReport(
                        parameters=(("n", n), ("a", a), ("b", b), ("c", c)),
                        oracle=counts.get((a, b, c), 0),
                        paper_form=printed,
                    )
                )
    return reports


def preimage_weight(x: Rook) -> int:
    """2^(a+c) 3^b for the triangular ranks (a, b, c) of x: the number of
    upper-triangular symplectic rooks folding onto x."""
    a, b, c = triangular_ranks(x)
    return 2 ** (a + c) * 3**b


def borel_sp_proof_form(n: int, k: int) -> int:
    """Rank-k count of upper-triangular symplectic rooks of size n = 2l from
    the proof: up to rank l, the preimage weight 2^(a+c) 3^b over the census
    rows of size l with a + b + c = k; above it only the identity, at k = n."""
    l = n // 2
    if k > l:
        return int(k == n)
    return sum(m * 2 ** (a + c) * 3**b for (a, b, c), m in _census(l).items() if a + b + c == k)


def borel_sp_paper_form(n: int, k: int) -> Optional[int]:
    """The same count by the printed closed form, summed over the
    triangular splits k = a + b + c; None above rank l = n/2, where nothing
    is printed."""
    l = n // 2
    if k > l:
        return None
    printed = 0
    for a in range(k + 1):
        for b in range(k + 1 - a):
            c = k - a - b
            printed += (
                2 ** (a + c)
                * 3**b
                * comb(l, b)
                * stirling2(l + 1, l + 1 - a)
                * stirling2(l + 1, l + 1 - c)
            )
    return printed
