"""Run the `run:` steps of a GitHub Actions workflow on this machine.

    python tools/run_workflow.py [WORKFLOW]

WORKFLOW defaults to `.github/workflows/tests.yml`.  Run it from the root
of the repository, where the steps expect to start.  Each `run:` step runs
in turn under `bash -e`, which is how a runner runs a `run:` step that sets
no `shell:`, with RUNNER_TEMP pointing at a temporary directory that is
removed at the end.  Steps that install packages (`pip install`) are
skipped, so the steps use the interpreter and packages already here; `uses:`
steps have nothing to run.  After each step one line reports `ok`,
`FAILED (exit N)` or `skipped`.  Every step runs even after a failure, and
the exit code is 1 if any step failed, else 0.  Needs PyYAML.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

import yaml


def run_steps(workflow: str) -> int:
    with open(workflow, encoding="utf-8") as f:
        jobs = yaml.safe_load(f)["jobs"]
    steps = [step for job in jobs.values() for step in job["steps"] if "run" in step]
    failed = 0
    with tempfile.TemporaryDirectory() as temp:
        env = dict(os.environ, RUNNER_TEMP=temp)
        for step in steps:
            name = step.get("name", step["run"].splitlines()[0])
            if "pip install" in step["run"]:
                print(f"skipped: {name}", flush=True)
                continue
            print(f"== {name}", flush=True)
            code = subprocess.run(["bash", "-e", "-c", step["run"]], env=env).returncode
            failed += code != 0
            print(f"{'ok' if code == 0 else f'FAILED (exit {code})'}: {name}", flush=True)
    print(f"{len(steps)} steps, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run_steps(sys.argv[1] if len(sys.argv) > 1 else ".github/workflows/tests.yml"))
