"""Tests of the benchmark's own logic.  Run from the root of the repository:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import hashlib
import resource
import textwrap
from pathlib import Path

import pytest

import run
from workloads import Job, renner_sp_count, rook_count

FAKE_CLI = textwrap.dedent(
    """
    import sys, time

    def main(argv=None):
        argv = sys.argv[1:] if argv is None else argv
        if argv[0] == "sleep":
            time.sleep(60)
        sys.stdout.write(argv[1] + "\\n")
        return 0

    if __name__ == "__main__":
        sys.exit(main())
    """
)


@pytest.fixture
def fake_root(tmp_path: Path) -> Path:
    """A checkout whose `rooks.cli` echoes its second argument or sleeps."""
    package = tmp_path / "src" / "rooks"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(FAKE_CLI)
    return tmp_path


def echo_job(word: str, expected: bytes, budget_s: float = 20, check=lambda out: None) -> Job:
    return Job(("echo", word), hashlib.sha256(expected).hexdigest(), len(expected), budget_s, check)


def run_fake(job: Job, root: Path):
    return run.run_job(job, run.job_env(root), run.CLI, root=root)


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("d", 5.0, 6.0, 0),
    ]
    assert run.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 5.0, 0), ("c", 3.0, 7.0, 0), ("d", 9.0, 12.0, 0)]
    assert run.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_quartiles_follow_statistics_quantiles():
    values = [float(v) for v in range(1, 11)]
    assert run.quartiles(values) == (2.75, 5.5, 8.25)
    assert run.spread(values) == pytest.approx(1.0)
    assert run.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert run.quartiles([4.0, 1.0, 3.0, 2.0, 5.0])[1] == 3.0


def test_layer_metrics_sum_self_time_calls_and_counters():
    trace = {
        "spans": [
            ["cli.main", 0.0, 4.0, -1],
            ["symplectic.enum_family", 0.5, 1.5, 0],
            ["order.build_poset", 2.0, 3.5, 0],
        ],
        "counts": {
            "order.pairs": 12,
            "order.standard_form_cache.size": 5,
            "symplectic.filter_tests": 40,
            "symplectic.sp_elements": 10,
        },
    }
    other = {"spans": [], "counts": {"order.pairs": 8, "order.standard_form_cache.size": 3}}
    values = run.layer_metrics([trace, other], output_bytes=99)
    assert values["cli.main.self_s"] == pytest.approx(1.5)
    assert values["order.build_poset.self_s"] == pytest.approx(1.5)
    assert values["order.build_poset.calls"] == 1
    assert values["order.pairs"] == 20
    assert values["order.standard_form_cache.size"] == 5
    assert values["symplectic.filter_yield"] == 0.25
    assert values["cli.output_bytes"] == 99
    assert list(values) == list(run.metric_units("per_layer"))


def test_matching_output_passes(fake_root):
    result, spawned = run_fake(echo_job("hello", b"hello\n"), fake_root)
    assert result.error is None
    assert spawned.stdout == b"hello\n"
    assert result.rss_mb > 0


def test_peak_rss_is_the_job_s_own(fake_root):
    """A bare interpreter's peak reads below that of the test process that
    spawned it, which rusage of the child would not show."""
    ballast = bytearray(64 << 20)  # raise this process's peak by 64 MB
    ballast[:: 4096] = b"x" * len(ballast[:: 4096])
    result, _ = run_fake(echo_job("hello", b"hello\n"), fake_root)
    del ballast
    harness_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    assert 0 < result.rss_mb < harness_mb - 32


def test_reference_clock_scales_by_loop_speed(monkeypatch):
    loop_times = iter([2 * run.REFERENCE_S, 2 * run.REFERENCE_S, 4 * run.REFERENCE_S])
    monkeypatch.setattr(run, "reference_loop", lambda: next(loop_times))
    clock = run.ReferenceClock()
    assert clock.scale(3.0) == pytest.approx(1.5)  # the machine ran at half speed
    assert clock.scale(3.0) == pytest.approx(1.0)  # the mean of 2x and 4x is 3x


def test_corrupted_output_is_failed(fake_root):
    result, _ = run_fake(echo_job("hellp", b"hello\n"), fake_root)
    assert result.error == "stdout differs from the reference digest"


def test_failed_independent_check_is_failed(fake_root):
    job = echo_job("hello", b"hello\n", check=lambda out: "wrong count")
    result, _ = run_fake(job, fake_root)
    assert result.error == "wrong count"


def test_job_over_budget_is_killed_and_failed(fake_root):
    job = Job(("sleep",), "", 0, 0.5, lambda out: None)
    result, spawned = run_fake(job, fake_root)
    assert spawned.timed_out
    assert spawned.code == -9
    assert result.wall_s < 10
    assert "budget" in result.error


def test_job_env_drops_worker_count_and_interpreter_settings(monkeypatch, tmp_path):
    monkeypatch.setenv("ROOKS_WORKERS", "2")
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    env = run.job_env(tmp_path)
    assert "ROOKS_WORKERS" not in env and "PYTHONDONTWRITEBYTECODE" not in env
    assert env["PYTHONPATH"] == str(tmp_path / "src")


def test_missing_program_is_a_setup_error(tmp_path):
    with pytest.raises(run.SetupError):
        run.check_layout(tmp_path)


def test_independent_counts():
    assert rook_count(5) == 1546
    assert rook_count(7) == 130922
    assert rook_count(8) == 1441729
    assert renner_sp_count(6) == 757
    assert renner_sp_count(8) == 13889


def test_traced_stdout_matches_untraced_on_a_small_job():
    job = Job(("verify", "--check", "inrsn", "--n", "2"), "", 0, 30, lambda out: None)
    env = run.job_env()
    _, plain = run.run_job(job, env, run.CLI)
    _, traced = run.run_job(job, env, run.TRACED_CLI)
    assert plain.code == traced.code == 0
    assert traced.stdout == plain.stdout
    values = run.layer_metrics([run.read_trace(traced.stderr)], len(traced.stdout))
    assert values["order.bcr_le_ppr.calls"] == values["order.bcr_le.calls"] > 0
    assert values["symplectic.enum_family.calls"] == 2  # rook and renner-sp at n = 2
    assert values["cli.main.self_s"] > 0
