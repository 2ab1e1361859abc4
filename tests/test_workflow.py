"""The CI workflow stays runnable: it loads as YAML, every `run:` script
parses as bash, and `tools/run_workflow.py`, which runs the steps here, fails
when a step does."""

import subprocess
import sys
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


def test_every_run_step_parses_as_bash():
    workflow = yaml.safe_load(WORKFLOW.read_text())
    steps = [step for job in workflow["jobs"].values() for step in job["steps"] if "run" in step]
    assert steps
    for step in steps:
        result = subprocess.run(["bash", "-n"], input=step["run"], capture_output=True, text=True)
        assert result.returncode == 0, (step["name"], result.stderr)


RUNNER = WORKFLOW.parents[2] / "tools" / "run_workflow.py"

TWO_STEPS = """\
jobs:
  tests:
    runs-on: ubuntu-latest
    steps:
      - name: Install
        run: false python -m pip install pytest
      - name: A file in the runner's temporary directory
        run: |
          echo kept > "$RUNNER_TEMP/kept.txt"
          grep -x kept "$RUNNER_TEMP/kept.txt"
      - name: Count of rook n=2
        run: PYTHONPATH=src python -m rooks.cli enum --n 2 --family rook --format count | grep -x {count}
"""


@pytest.mark.parametrize("count, code", [(7, 0), (8, 1)])
def test_workflow_runner_fails_on_a_wrong_count(tmp_path, count, code):
    # rook n=2 has 7 members: the step that expects 8 fails, and so does the
    # run; the install step is skipped (were it run, `false` would fail it
    # before anything is installed)
    workflow = tmp_path / "two_steps.yml"
    workflow.write_text(TWO_STEPS.format(count=count))
    result = subprocess.run(
        [sys.executable, str(RUNNER), str(workflow)],
        cwd=WORKFLOW.parents[2], capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == code, result.stdout + result.stderr
    report = [line for line in result.stdout.splitlines() if ": " in line and not line.startswith("==")]
    expected_last = "ok" if code == 0 else "FAILED (exit 1)"
    assert report == [
        "skipped: Install",
        "ok: A file in the runner's temporary directory",
        f"{expected_last}: Count of rook n=2",
    ], result.stdout
