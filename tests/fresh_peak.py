"""The `tracemalloc` peak of one piece of work, measured in a fresh
interpreter.  In the test process a bound would read a lower peak after
other tests have run: tuples and dicts taken from CPython's free lists are
not new allocations.  A new interpreter reads the same peak whatever ran
before."""

import subprocess
import sys
from pathlib import Path

import rooks

PATH = [str(Path(rooks.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]


def fresh_peak(setup: str, work: str) -> tuple[int, str]:
    """Run the statements `setup` untraced and then `work` under
    `tracemalloc` in a new interpreter that imports `rooks` from where this
    process does; return the peak of `work` in bytes and what it printed.
    A failure in either is an AssertionError carrying the child's stderr."""
    script = "\n".join(
        [
            "import sys, tracemalloc",
            f"sys.path[:0] = {PATH!r}",
            setup,
            "tracemalloc.start()",
            work,
            "sys.stderr.write(f'{tracemalloc.get_traced_memory()[1]}\\n')",
        ]
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return int(result.stderr.split()[-1]), result.stdout
