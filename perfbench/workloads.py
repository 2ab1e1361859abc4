"""The fixed `rooks` CLI jobs of each workload, their reference outputs and
the independent checks the benchmark applies to every job's stdout.

The reference digests are the SHA-256 of each job's stdout at the commit
that defined the benchmark.  The independent checks recompute the expected
sizes with `math.comb` and `math.factorial` only, never with `rooks`.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from math import comb, factorial
from typing import Callable, Optional


def rook_count(n: int) -> int:
    """Number of n x n rooks: sum over k of C(n, k)^2 k!."""
    return sum(comb(n, k) ** 2 * factorial(k) for k in range(n + 1))


def renner_sp_count(n: int) -> int:
    """Number of symplectic rooks of size n = 2l: singular ones of rank
    k <= l have admissible domain and range (C(l, k) 2^k choices each), and
    the full-rank ones form the hyperoctahedral group of order 2^l l!."""
    l = n // 2
    singular = sum((comb(l, k) * 2**k) ** 2 * factorial(k) for k in range(l + 1))
    return singular + 2**l * factorial(l)


def _expect(condition: bool, message: str) -> Optional[str]:
    return None if condition else message


def check_hasse_json(nodes: int, edges: int) -> Callable[[bytes], Optional[str]]:
    def check(out: bytes) -> Optional[str]:
        obj = json.loads(out)
        got = (len(obj["elements"]), len(obj["covers"]))
        return _expect(got == (nodes, edges), f"nodes/edges {got} != {(nodes, edges)}")

    return check


def check_hasse_dot(nodes: int, edges: int) -> Callable[[bytes], Optional[str]]:
    def check(out: bytes) -> Optional[str]:
        lines = out.decode().splitlines()
        got_edges = sum(1 for line in lines if " -> " in line)
        got_nodes = sum(1 for line in lines if line.endswith('";') and " -> " not in line)
        got = (got_nodes, got_edges)
        return _expect(got == (nodes, edges), f"nodes/edges {got} != {(nodes, edges)}")

    return check


def check_count(total: int) -> Callable[[bytes], Optional[str]]:
    def check(out: bytes) -> Optional[str]:
        return _expect(out == f"{total}\n".encode(), f"count {out[:40]!r} != {total}")

    return check


def check_lines(total: int) -> Callable[[bytes], Optional[str]]:
    def check(out: bytes) -> Optional[str]:
        got = out.count(b"\n")
        return _expect(got == total, f"{got} lines != {total}")

    return check


def check_oracle_sum(total: int) -> Callable[[bytes], Optional[str]]:
    """A `count` report: the per-rank oracle column must sum to the family size."""

    def check(out: bytes) -> Optional[str]:
        got = sum(int(v) for v in re.findall(rb"oracle=(\d+)", out))
        return _expect(got == total, f"oracle sum {got} != {total}")

    return check


def check_verify_ok(out: bytes) -> Optional[str]:
    last = out.rstrip(b"\n").rsplit(b"\n", 1)[-1]
    return _expect(last == b"result: ok", f"last line {last[:40]!r} != b'result: ok'")


@dataclass(frozen=True)
class Job:
    """One CLI invocation: its argv, its reference stdout, a time budget and
    an independent check of its output."""

    argv: tuple[str, ...]
    sha256: str
    stdout_bytes: int
    budget_s: float
    check: Callable[[bytes], Optional[str]]

    @property
    def name(self) -> str:
        return " ".join(self.argv)


def _job(cmd: str, sha256: str, stdout_bytes: int, budget_s: float, check) -> Job:
    return Job(tuple(cmd.split()), sha256, stdout_bytes, budget_s, check)


# Budgets are about four times the job's time at the defining commit
# (one 2-CPU machine, Python 3.11.7), and at least 5 s.
WORKLOADS: dict[str, tuple[Job, ...]] = {
    "hasse": (
        _job(
            "hasse --n 5 --family rook --format json",
            "0d4f323f973f3e04111af8c91c0d9421be58a74a02c86e0584ce3d6a379bdd3e",
            308778,
            50,
            check_hasse_json(rook_count(5), 7714),
        ),
        _job(
            "hasse --n 6 --family renner-sp --format dot",
            "7b6906411c93ac7938e2e2ecaaac0a16550c0f42c9068e60ed45a74d150b2e1b",
            140979,
            20,
            check_hasse_dot(renner_sp_count(6), 3331),
        ),
    ),
    "enum": (
        _job(
            "enum --n 8 --family rook --format count",
            "e71d456860c73709b50115421297e44c1e3abbb46a019242386ae5da0b089b07",
            8,
            15,
            check_count(rook_count(8)),
        ),
        _job(
            "count --n 8 --family renner-sp",
            "0f8443cefc24f2765c1f010f73b74a008928cf22eea213223821223a91e92b3c",
            492,
            40,
            check_oracle_sum(renner_sp_count(8)),
        ),
        _job(
            "enum --n 7 --family rook --format oneline",
            "9218548b6c2ecd806b5f14f4b5c67ab3b8aa62cbab4e7ba36295287c11d06ec8",
            2094752,
            5,
            check_lines(rook_count(7)),
        ),
    ),
    "verify": (
        _job(
            "verify --check inrsn --n 4",
            "ba84e6b7852e4d4ed89958431de0813c5f49907acb7ae645be1da771760c6dcc",
            212,
            10,
            check_verify_ok,
        ),
        _job(
            "verify --check nilpotent --n 7",
            "ed4101ea3a1dee5f97ace2d86120ba1bc24bc48fa62136f7f6c20b109dfb2422",
            2373,
            35,
            check_verify_ok,
        ),
        _job(
            "verify --check maxelements --l 3",
            "39d643bd129912f536b31b05cc5b09fb8c900d56334f98cb44789f1a8ef4f924",
            1737,
            5,
            check_verify_ok,
        ),
        _job(
            "verify --check triangular --n 7",
            "4e2a13bee4f5e056dd246befa915b14aeafc31f7d4c335e8c2d83cf264aebdc0",
            9092,
            8,
            check_verify_ok,
        ),
        _job(
            "verify --check folding --l 3",
            "23bbdd722d65ea999df9033a2db5018a73919af7aca9bb0b70bcdcfea76ab374",
            2440,
            5,
            check_verify_ok,
        ),
        _job(
            "verify --check standard-form --n 4",
            "fb49a6b286bb415becd13daa42b81a0e9c477b868991d31838d431eaffca120d",
            277,
            5,
            check_verify_ok,
        ),
    ),
}
