"""Run one `rooks` CLI job in this process with timing wrappers around the
public functions of each layer, then write the spans and counters to stderr.

Usage: python perfbench/traced_job.py <rooks cli arguments...>

Modules import each other's functions by name, so a wrapper replaces the
function under every name that refers to it in every loaded `rooks` module:
`rooks.cli._enum_family`, `rooks.nilpotent.enum_family` and
`rooks.counting.enum_family` all become the same wrapper.  Stdout is left to
the program, so it must be byte-identical to an untraced run.  The process is
single-threaded (the benchmark removes ROOKS_WORKERS), so one stack of open
spans gives each span its parent.
"""

from __future__ import annotations

import atexit
import importlib
import json
import sys
import time

from plain_job import write_peak

# The line on stderr that carries the trace, after everything the job wrote.
TRACE_MARK = "perfbench-trace "

# (span name, module that defines the function, attribute name).  The first
# word of the span name is the layer.
SPANS = (
    ("cli.main", "rooks.cli", "main"),
    ("cli.dot_export", "rooks.cli", "dot_export"),
    ("order.build_poset", "rooks.order", "build_poset"),
    ("order.bcr_le", "rooks.order", "bcr_le"),
    ("order.bcr_le_ppr", "rooks.order", "bcr_le_ppr"),
    ("order.standard_form", "rooks.order", "standard_form"),
    ("symplectic.enum_family", "rooks.symplectic", "enum_family"),
    ("weyl.group_context", "rooks.weyl", "group_context"),
    ("weyl.min_coset_reps", "rooks.weyl", "min_coset_reps"),
    ("weyl.parabolic_data", "rooks.weyl", "parabolic_data"),
    ("counting.triangular_census", "rooks.counting", "triangular_census"),
    ("counting.borel_sp_rank_count", "rooks.counting", "borel_sp_rank_count"),
    ("folding.fold", "rooks.folding", "fold"),
    ("folding.unfold_preimages_constructive", "rooks.folding", "unfold_preimages_constructive"),
    ("nilpotent.nilpotent_analysis", "rooks.nilpotent", "nilpotent_analysis"),
)

# lru_caches whose cache_info() is read when the job ends.
CACHES = (
    ("order.standard_form_cache", "rooks.order", "_standard_form_cached"),
    ("order.dominance_cache", "rooks.order", "_dominance"),
)

SP_FAMILIES = ("renner-sp", "borel-sp", "borel-sp-nil")


class Tracer:
    """Spans as (name, start, end, parent index) plus named counters, all
    kept in memory until the job ends."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn, observe=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if observe is not None:
                try:
                    observe(args, kwargs, result)
                except (AttributeError, KeyError, TypeError):
                    pass  # a result of another shape is timed but not counted
            return result

        return traced

    def count_calls(self, key: str, fn):
        counts = self.counts
        counts.setdefault(key, 0)

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted


def _replace_everywhere(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "rooks" or name.startswith("rooks.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every layer function that exists; a missing one is skipped and
    its metrics read 0."""
    importlib.import_module("rooks.cli")

    def observe_poset(args, kwargs, poset):
        m = len(poset.elements)
        tracer.add("order.poset_elements", m)
        tracer.add("order.pairs", m * (m - 1))
        tracer.add("order.covers", len(poset.covers))

    def observe_enum(args, kwargs, elements):
        spec = args[0] if args else kwargs["spec"]
        tracer.add("symplectic.elements", len(elements))
        if spec.family in SP_FAMILIES:
            tracer.add("symplectic.sp_elements", len(elements))

    observers = {"order.build_poset": observe_poset, "symplectic.enum_family": observe_enum}
    for span, module_name, attr in SPANS:
        original = getattr(sys.modules.get(module_name), attr, None)
        if original is not None:
            wrapper = tracer.wrap(span, original, observers.get(span))
            _replace_everywhere(original, wrapper)
    # Enumeration looks the filter up in its own module; other callers of
    # is_symplectic_rook are not filter tests.
    symplectic = sys.modules.get("rooks.symplectic")
    if hasattr(symplectic, "is_symplectic_rook"):
        symplectic.is_symplectic_rook = tracer.count_calls(
            "symplectic.filter_tests", symplectic.is_symplectic_rook
        )


def read_caches(tracer: Tracer) -> None:
    for key, module_name, attr in CACHES:
        cached = getattr(sys.modules.get(module_name), attr, None)
        info = cached.cache_info() if hasattr(cached, "cache_info") else None
        tracer.add(f"{key}.hits", info.hits if info else 0)
        tracer.add(f"{key}.misses", info.misses if info else 0)
        tracer.add(f"{key}.size", info.currsize if info else 0)


def main(argv: list[str]) -> int:
    tracer = Tracer()
    install(tracer)
    cli = sys.modules["rooks.cli"]
    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        read_caches(tracer)
        payload = {"spans": tracer.spans, "counts": tracer.counts}
        sys.stderr.write("\n" + TRACE_MARK + json.dumps(payload) + "\n")
        sys.stderr.flush()
    return code


if __name__ == "__main__":
    atexit.register(write_peak)
    sys.exit(main(sys.argv[1:]))
