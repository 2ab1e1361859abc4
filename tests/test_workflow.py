"""The CI workflow stays runnable: it loads as YAML and every `run:` script
parses as bash."""

import subprocess
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
