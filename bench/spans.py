"""Spans and counts around the public functions of every nilorbits module.

The tracer wraps functions from outside the program.  Modules bind names
at import (``from .paving import enumerate_cells`` in ``cli`` and
``checks``), so a wrapper is rebound under every name in every module
that holds the original, including class aliases such as
``IntMatrix.__matmul__``.  Spans live in memory as tuples
``(name, parent, request, start_ns, end_ns)``, the span id being the
index; ``self_times`` turns them into per-name self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter

# Public functions that get a span; each yields "<name>.self_ms" and "<name>.calls".
TIMED = (
    "cli.main",
    "paving.enumerate_cells",
    "paving.max_cell_dimension",
    "paving.phi_w",
    "paving.phi_w_x",
    "paving.labeled_diagrams",
    "jordan.IntMatrix.matmul",
    "jordan.IntMatrix.rank",
    "orbits.center_fiber",
    "orbits.orbit_partition",
    "orbits.fundamental_groups",
    "orbits.kernel_check",
    "orbits.orbit_dimension_type_a",
    "core.syt_count",
    "core.classify_subdiagram",
    "decomposition.summand_report",
    "tables.validate_tables",
    "tables.table_lookup",
    "tables.records_as_dicts",
    "tables.dump_tsv",
)
# The suites that checks.run_all calls, as checks.check_<suite>.
SUITES = (
    "conjugate_involution",
    "syt_symmetry",
    "subdiagram_classification",
    "formula_oracle",
    "oracle_rank_profile",
    "kernel_identity",
    "type_a_exactness",
    "partition_totals",
    "center_divisibility",
    "full_subset_zero_orbit",
    "paving_identities",
    "paving_structure",
    "dimension_identity",
    "decomposition",
    "tables",
)
# Counts that are not a call count of a timed function.
COUNTS = (
    "cli.stdout_bytes",
    "paving.cells_returned",
    "paving.TableauPermutation.count",
    "jordan.matmul.dim3",
    "jordan.rank.dim3",
    "jordan.representative_matrix.calls",
    "core.Partition.count",
    "core.partitions_of.yielded",
    "decomposition.records",
)
MODULES = ("core", "orbits", "jordan", "paving", "decomposition", "tables", "checks", "cli")


def metric_names() -> list[str]:
    """Every per-layer metric, in report order."""
    names = []
    for name in TIMED:
        names += [name + ".self_ms", name + ".calls"]
    for suite in SUITES:
        names += ["checks.%s.self_ms" % suite, "checks.%s.checked" % suite]
    return names + list(COUNTS) + ["trace.overhead_ratio"]


def self_times(spans) -> Counter:
    """Per-name self time in ns: each span's duration minus its direct children's.

    Spans run on one thread, so the children of a span never overlap and
    their durations add up to the part of the parent they cover.
    """
    covered = [0] * len(spans)
    for _, parent, _, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: Counter = Counter()
    for i, (name, _, _, start, end) in enumerate(spans):
        out[name] += end - start - covered[i]
    return out


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.request = -1
        self._stack = [-1]
        self._clock = clock

    def span(self, name: str, fn, tally=None):
        """``fn`` wrapped to record a span and a call count; ``tally(counts, args, result)`` adds counts."""
        spans, stack, counts, clock = self.spans, self._stack, self.counts, self._clock
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, parent, self.request, start, end)
                counts[calls] += 1
            if tally is not None:
                tally(counts, args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        """``fn`` wrapped to count its calls only, for constructors in inner loops."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def yield_counter(self, name: str, fn):
        """Generator ``fn`` wrapped to count the items it yields."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return wrapper

    def metrics(self) -> dict[str, float]:
        """Self time in ms per timed function and suite, plus every count."""
        selfs = self_times(self.spans)
        out = {}
        for name in TIMED:
            out[name + ".self_ms"] = selfs[name] / 1e6
            out[name + ".calls"] = self.counts[name + ".calls"]
        for suite in SUITES:
            out["checks.%s.self_ms" % suite] = selfs["checks." + suite] / 1e6
            out["checks.%s.checked" % suite] = self.counts["checks.%s.checked" % suite]
        for name in COUNTS:
            out[name] = self.counts[name]
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines: id, parent, request, name, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, parent, request, start, end) in enumerate(self.spans):
                fh.write(json.dumps([sid, parent, request, name, start, end]) + "\n")


def _rebind(owners, original, replacement) -> int:
    """Replace ``original`` under every name in every owner; returns the bindings replaced."""
    replaced = 0
    for owner in owners:
        for key, value in list(vars(owner).items()):
            if value is original:
                setattr(owner, key, replacement)
                replaced += 1
    return replaced


def _count_cells(counts, args, result) -> None:
    counts["paving.cells_returned"] += len(result.cells)


def _dim3(key):
    def tally(counts, args, result) -> None:
        counts[key] += args[0].dim ** 3

    return tally


def _records(counts, args, result) -> None:
    counts["decomposition.records"] += len(result)


def _checked(suite):
    def tally(counts, args, result) -> None:
        counts["checks.%s.checked" % suite] += result.checked

    return tally


TALLIES = {
    "paving.enumerate_cells": _count_cells,
    "jordan.IntMatrix.matmul": _dim3("jordan.matmul.dim3"),
    "jordan.IntMatrix.rank": _dim3("jordan.rank.dim3"),
    "decomposition.summand_report": _records,
}


def install(tracer: Tracer) -> None:
    """Wrap every traced function of an imported nilorbits and rebind it everywhere."""
    package = importlib.import_module("nilorbits")
    modules = {name: importlib.import_module("nilorbits." + name) for name in MODULES}
    owners = [package, *modules.values()]

    def wrap(owner, attr: str, wrapper_of) -> None:
        original = getattr(owner, attr)
        if not _rebind(owners + [owner], original, wrapper_of(original)):
            raise RuntimeError("no binding of %s.%s to replace" % (owner.__name__, attr))

    for name in TIMED:
        module, *path = name.split(".")
        owner = modules[module]
        for attr in path[:-1]:
            owner = getattr(owner, attr)
        wrap(owner, path[-1], lambda f, n=name: tracer.span(n, f, TALLIES.get(n)))
    for suite in SUITES:
        wrap(modules["checks"], "check_" + suite,
             lambda f, s=suite: tracer.span("checks." + s, f, _checked(s)))
    wrap(modules["jordan"], "representative_matrix",
         lambda f: tracer.counter("jordan.representative_matrix.calls", f))
    wrap(modules["core"].Partition, "__post_init__", lambda f: tracer.counter("core.Partition.count", f))
    wrap(modules["paving"].TableauPermutation, "__post_init__",
         lambda f: tracer.counter("paving.TableauPermutation.count", f))
    wrap(modules["core"], "partitions_of", lambda f: tracer.yield_counter("core.partitions_of.yielded", f))
