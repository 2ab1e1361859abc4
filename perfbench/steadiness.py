"""Run the benchmark several times with different seeds and report, for
each metric, the median and the quartile spread as a share of the median,
next to the bound BENCHMARK.json gives it.

Usage (from the root of the repository):

    python3 perfbench/steadiness.py --workload hasse --runs 10 [--first-seed 1]

The benchmark is steady when every spread except that of setup_s is below
its bound (and comfortably so: below a third of it).  Prints one JSON line
per run and a summary object as the last line.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import quartiles, spread

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [
            *spec["command"],
            *("--workload", args.workload, "--seed", str(seed)),
            *("--seconds", str(spec["run_seconds"]), "--trace", "0"),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(json.dumps({"seed": seed, "exit": proc.returncode, **result}), flush=True)
        if proc.returncode != 0 or not result["correct"]:
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    summary = {}
    for name, series in values.items():
        q1, median, q3 = quartiles(series)
        summary[name] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": spread(series),
            "bound": bounds[name],
        }
    print(json.dumps({"workload": args.workload, "runs": args.runs, "summary": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
