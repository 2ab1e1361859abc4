"""Run one `rooks` CLI job as `python -m rooks.cli` does, then write the
process's own peak resident size to stderr.

Usage: python perfbench/plain_job.py <rooks cli arguments...>

The max-RSS in a child's rusage is at least the peak of the process that
spawned it, because exec keeps the larger of the old and the new memory
map's peak; it cannot show a job smaller than the harness.  VmHWM in
/proc/self/status is the peak of the memory map that exec made for this
interpreter alone.
"""

from __future__ import annotations

import atexit
import os
import runpy
import sys

# The line on stderr that carries the peak, after everything the job wrote.
RSS_MARK = "perfbench-peak-kb "


def write_peak() -> None:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                sys.stderr.write("\n" + RSS_MARK + line.split()[1] + "\n")
                sys.stderr.flush()
                return


if __name__ == "__main__":
    # `python -m` puts the working directory, not this script's, first on
    # the path.
    sys.path[0] = os.getcwd()
    atexit.register(write_peak)
    runpy.run_module("rooks.cli", run_name="__main__", alter_sys=True)
