"""Benchmark of the `rooks` CLI: fixed workloads of CLI jobs, each job in a
fresh process, every output checked.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload hasse --seed 1 --seconds 40 --trace 0

With `--trace 0` it times the workload's job list, pass after pass, until
`--seconds` is used up, and reports the end-to-end metrics, with every time
scaled to a reference speed (see REFERENCE_S).  With
`--trace 1` it runs each job once untraced and once under
`perfbench/traced_job.py`, and reports the per-layer metrics and the tracing
overhead.  The seed only sets the order of the jobs in each pass; the
program receives nothing but its argv.  Jobs run one at a time, with
every ROOKS_* and PYTHON* variable removed from their environment.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The exit code is 0 when every job
produced its reference output, 1 when any job failed, and 2 when the
program is missing or cannot start.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import random
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from plain_job import RSS_MARK
from traced_job import TRACE_MARK
from workloads import WORKLOADS, Job

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

CLI = [sys.executable, str(HERE / "plain_job.py")]
TRACED_CLI = [sys.executable, str(HERE / "traced_job.py")]
SETUP_CODE = "import rooks.cli as cli; cli.build_parser()"
SETUP_SPAWNS = 11
SETUP_BUDGET_S = 5.0
# A shared machine's speed drifts by tens of percent over seconds and
# minutes.  A timed run therefore keeps itself and its children on one CPU,
# times a fixed pure-Python loop of REFERENCE_ROUNDS rounds before and after
# each timed spawn, and scales the spawn's wall time by REFERENCE_S over the
# mean of the two loop times: the time it would take at the speed at which
# the loop takes REFERENCE_S (about its time on the 2-CPU Xeon of
# baseline.json).
REFERENCE_ROUNDS = 600_000
REFERENCE_S = 0.35
# No new pass starts once a run has used this long, so a run ends well
# inside three minutes whatever --seconds says.
HARD_LIMIT_S = 120.0


def metric_units(group: str) -> dict[str, str]:
    """Name and unit of each `end_to_end` or `per_layer` metric, in the
    order BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[group]}


class SetupError(Exception):
    """The program is missing or does not start; no result is printed."""


@dataclass(frozen=True)
class Spawned:
    """One finished (or killed) child process."""

    wall_s: float
    code: int
    stdout: bytes
    stderr: bytes
    timed_out: bool


def spawn(cmd: list[str], env: dict, budget_s: float, cwd: Path = ROOT) -> Spawned:
    """Run a command to completion, or kill it once it exceeds its budget.

    The wall time ends when the child has exited and been reaped.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=cwd)
    chunks: dict = {proc.stdout: [], proc.stderr: []}
    timed_out = False
    try:
        with selectors.DefaultSelector() as selector:
            for pipe in chunks:
                selector.register(pipe, selectors.EVENT_READ)
            while selector.get_map():
                remaining = start + budget_s - time.perf_counter()
                if remaining <= 0:
                    timed_out = True
                    proc.kill()
                    break
                for key, _ in selector.select(remaining):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        selector.unregister(key.fileobj)
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    return Spawned(
        wall_s=time.perf_counter() - start,
        code=proc.returncode,
        stdout=b"".join(chunks[proc.stdout]),
        stderr=b"".join(chunks[proc.stderr]),
        timed_out=timed_out,
    )


def job_env(root: Path = ROOT) -> dict:
    """The caller's environment without ROOKS_* and PYTHON* variables, so
    neither the worker count nor interpreter settings (bytecode caching,
    buffering, hash seed) depend on who runs the benchmark."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("ROOKS_", "PYTHON"))}
    env["PYTHONPATH"] = str(root / "src")
    return env


def check_output(job: Job, run: Spawned) -> Optional[str]:
    """None when the job met its budget, exited 0, passed its independent
    check and printed exactly its reference stdout; else the reason."""
    if run.timed_out:
        return f"killed after its {job.budget_s} s budget"
    if run.code != 0:
        return f"exit code {run.code}"
    try:
        problem = job.check(run.stdout)
    except (ValueError, KeyError, TypeError) as exc:
        problem = f"unparsable output ({exc})"
    if problem:
        return problem
    if len(run.stdout) != job.stdout_bytes or hashlib.sha256(run.stdout).hexdigest() != job.sha256:
        return "stdout differs from the reference digest"
    return None


@dataclass(frozen=True)
class JobResult:
    """What a run keeps of one job; its output is dropped once checked."""

    job: Job
    wall_s: float
    rss_mb: float
    error: Optional[str]


def read_mark(stderr: bytes, mark: str) -> Optional[str]:
    """The rest of the last stderr line that starts with `mark`."""
    for line in reversed(stderr.decode(errors="replace").splitlines()):
        if line.startswith(mark):
            return line[len(mark) :]
    return None


def run_job(job: Job, env: dict, prefix: list[str], root: Path = ROOT) -> tuple[JobResult, Spawned]:
    """Run a job under a launcher that reports the job's own peak RSS."""
    run = spawn([*prefix, *job.argv], env, job.budget_s, cwd=root)
    error = check_output(job, run)
    peak_kb = read_mark(run.stderr, RSS_MARK)
    if error is None and peak_kb is None:
        error = "no peak RSS on stderr"
    rss_mb = int(peak_kb) / 1024 if peak_kb is not None else 0.0
    return JobResult(job, run.wall_s, rss_mb, error), run


# --- statistics ---


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), by statistics.quantiles'
    default (exclusive) method; one value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    A span is (name, start, end, parent index), the parent index -1 at the
    top level.  Overlapping children are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_metrics(traces: list[dict], output_bytes: int) -> dict[str, float]:
    """Sum the self times, call counts and counters of all traced jobs into
    the per-layer metrics; cache sizes take the largest over jobs."""
    values: dict[str, float] = {name: 0 for name in metric_units("per_layer")}
    for trace in traces:
        for (name, *_), own in zip(trace["spans"], self_times(trace["spans"])):
            for key, amount in ((f"{name}.self_s", own), (f"{name}.calls", 1)):
                if key in values:
                    values[key] += amount
        for key, amount in trace["counts"].items():
            if key.endswith(".size"):
                values[key] = max(values[key], amount)
            elif key in values:
                values[key] += amount
    tests = sum(trace["counts"].get("symplectic.filter_tests", 0) for trace in traces)
    kept = sum(trace["counts"].get("symplectic.sp_elements", 0) for trace in traces)
    values["symplectic.filter_yield"] = kept / tests if tests else 0
    values["cli.output_bytes"] = output_bytes
    return values


# --- runs ---


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": cpu,
    }


def check_layout(root: Path = ROOT) -> None:
    if not (root / "src" / "rooks" / "cli.py").is_file():
        raise SetupError(f"no rooks package under {root / 'src'}")


def reference_loop() -> float:
    """Wall time of a fixed loop of tuple, dict and integer work, the kind
    of work the jobs do, that does not depend on `rooks`."""
    start = time.perf_counter()
    seen: dict = {}
    for i in range(REFERENCE_ROUNDS):
        key = (i % 7, i % 11, i % 13)
        seen[key] = seen.get(key, 0) + (i ^ (i >> 3))
    return time.perf_counter() - start


class ReferenceClock:
    """Scales wall times to the reference speed; see REFERENCE_S."""

    def __init__(self):
        self.before = reference_loop()

    def scale(self, wall_s: float) -> float:
        """`wall_s`, just measured, at the reference speed."""
        after = reference_loop()
        factor = REFERENCE_S / ((self.before + after) / 2)
        self.before = after
        return wall_s * factor


def setup_times(env: dict, count: int) -> list[float]:
    """Wall times of fresh interpreters that import rooks.cli and build its
    parser.  One untimed spawn first writes the bytecode caches."""
    times = []
    for index in range(count + 1):
        run = spawn([sys.executable, "-c", SETUP_CODE], env, SETUP_BUDGET_S)
        if run.code != 0 or run.timed_out:
            raise SetupError(f"rooks.cli does not import: {run.stderr.decode(errors='replace')}")
        if index:
            times.append(run.wall_s)
    return times


def report_job(result: JobResult, label: str = "", scaled_s: Optional[float] = None) -> None:
    status = "ok" if result.error is None else f"FAILED: {result.error}"
    scaled = "" if scaled_s is None else f" ({scaled_s:.3f} s at reference speed)"
    print(
        f"  {label}{result.job.name}: {result.wall_s:.3f} s{scaled},"
        f" {result.rss_mb:.1f} MB, {status}"
    )


def timed_run(jobs: tuple[Job, ...], seed: int, seconds: float) -> tuple[list[JobResult], dict]:
    """After the set-up spawns, passes over the job list in seeded order
    until the next pass would overrun `seconds`; always at least one pass.
    Every time is at the reference speed."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = job_env()
    rng = random.Random(seed)
    clock = ReferenceClock()
    setup = clock.scale(statistics.median(setup_times(env, SETUP_SPAWNS)))
    results: list[JobResult] = []
    pass_walls: list[float] = []
    start = time.perf_counter()
    while True:
        order = list(jobs)
        rng.shuffle(order)
        pass_start = time.perf_counter()
        batch = []
        for job in order:
            result = run_job(job, env, CLI)[0]
            batch.append(dataclasses.replace(result, wall_s=clock.scale(result.wall_s)))
            report_job(result, f"pass {len(pass_walls) + 1}: ", batch[-1].wall_s)
        pass_walls.append(sum(r.wall_s for r in batch))
        results.extend(batch)
        elapsed = time.perf_counter() - start
        next_end = elapsed + time.perf_counter() - pass_start
        if any(r.error for r in batch) or next_end > min(seconds, HARD_LIMIT_S):
            break
    per_job = {
        job.name: statistics.median(r.wall_s for r in results if r.job is job) for job in jobs
    }
    metrics = {
        "wall_s": statistics.median(pass_walls),
        "slowest_job_s": max(per_job.values()),
        "peak_rss_mb": max(r.rss_mb for r in results),
        "setup_s": setup,
    }
    print(f"passes: {len(pass_walls)}, setup spawns: {SETUP_SPAWNS}")
    return results, metrics


def read_trace(stderr: bytes) -> Optional[dict]:
    """The spans and counters a traced job wrote to stderr when it ended."""
    trace = read_mark(stderr, TRACE_MARK)
    return json.loads(trace) if trace is not None else None


def traced_run(jobs: tuple[Job, ...], seed: int) -> tuple[list[JobResult], dict, float]:
    """Each job once untraced and once traced, in seeded order.  A traced
    job fails unless its stdout is byte-identical to the untraced one."""
    env = job_env()
    setup_times(env, 0)
    order = list(jobs)
    random.Random(seed).shuffle(order)
    results: list[JobResult] = []
    traces = []
    output_bytes = 0
    overhead = 0.0
    for job in order:
        plain, plain_run = run_job(job, env, CLI)
        traced, traced_run = run_job(job, env, TRACED_CLI)
        trace = read_trace(traced_run.stderr)
        error = traced.error
        if error is None and traced_run.stdout != plain_run.stdout:
            error = "traced stdout differs from untraced stdout"
        if error is None and trace is None:
            error = "no trace on stderr"
        traced = dataclasses.replace(traced, error=error)
        report_job(plain, "untraced: ")
        report_job(traced, "traced:   ")
        results += [plain, traced]
        if error is None:
            traces.append(trace)
            output_bytes += len(traced_run.stdout)
        overhead += traced.wall_s - plain.wall_s
    return results, layer_metrics(traces, output_bytes), overhead


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    jobs = WORKLOADS[args.workload]
    try:
        check_layout()
        print(json.dumps({"environment": environment(), "workload": args.workload, "seed": args.seed}))
        if args.trace:
            results, values, overhead = traced_run(jobs, args.seed)
            units = metric_units("per_layer")
        else:
            results, values = timed_run(jobs, args.seed, args.seconds)
            units = metric_units("end_to_end")
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    failed = sum(1 for r in results if r.error)
    summary = " ".join(f"{name}={values[name]:.6g} {unit}" for name, unit in units.items())
    print(f"{args.workload}: {summary} failed_share={failed / len(results):.6g} ratio")
    if args.trace:
        print(f"{args.workload}: tracing overhead {overhead:.3f} s (traced minus untraced wall)")
    result = {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
