"""Span tracing for the traced benchmark run.

The tracer wraps psilab's public functions from outside the package, at the
names the callers look up: ``from .linalg import qr_thin_counted`` binds the
function in ``psilab.integrators``, so patching ``psilab.linalg`` alone would
record nothing. Each call becomes a span (name, start, end, parent, run id)
kept in memory; spans are written out once, when the run ends. A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import math
import os
import statistics
from collections import defaultdict
from time import perf_counter

#: Per-layer metrics with their units, in the order BENCHMARK.json lists them.
LAYER_METRICS: dict[str, str] = {
    "linalg.qr.calls": "count",
    "linalg.qr.self_s": "s",
    "linalg.qr.rank_events": "count",
    "linalg.qr.completion_share": "fraction",
    "linalg.solve.calls": "count",
    "linalg.solve.self_s": "s",
    "linalg.solve.gflop_computed": "GFLOP",
    "linalg.eig.calls": "count",
    "linalg.eig.self_s": "s",
    "discretize.setup_s": "s",
    "discretize.xgrid_mb_computed": "MB",
    "integrators.step.calls": "count",
    "integrators.step.self_s": "s",
    "integrators.step.ms_p50": "ms",
    "integrators.step.ms_p99": "ms",
    "amplification.multiplier.calls": "count",
    "amplification.multiplier.self_s": "s",
    "amplification.boundary.sweeps": "count",
    "amplification.boundary.self_s": "s",
    "amplification.contour.self_s": "s",
    "harness.csv.rows": "count",
    "harness.csv.bytes": "bytes",
    "harness.csv.self_s": "s",
    "harness.run.self_s": "s",
    "harness.oracle.self_s": "s",
    "harness.setup.self_s": "s",
    "trace.overhead_s": "s",
}


def _note_step(tracer, args, result):
    tracer.count("linalg.qr.rank_events", result.qr_rank_events)


def _note_solve(tracer, args, result):
    n = args[0].shape[0]
    tracer.count("linalg.solve.gflop_computed", 2.0 * n**3 / 3.0 / 1e9)


def _note_xgrid(tracer, args, result):
    # Two dense n_x x n_x float64 stencil matrices.
    mb = 2.0 * args[0] ** 2 * 8 / 1e6
    key = (tracer.run_id, "discretize.xgrid_mb_computed")
    tracer.counts[key] = max(tracer.counts[key], mb)


def _note_boundary(tracer, args, result):
    tracer.count("amplification.boundary.sweeps", result.evaluations)


def _note_csv(tracer, args, result):
    tracer.count("harness.csv.rows", len(args[1]))
    tracer.count("harness.csv.bytes", os.path.getsize(args[0]))


# (name in the module, span group, note run after the call)
_INTEGRATORS_WRAPS = (
    ("qr_thin_counted", "linalg.qr", None),
    ("qr_thin", "linalg.qr", None),
    ("solve_dense", "linalg.solve", _note_solve),
    ("sym_eig", "linalg.eig", None),
    ("matrix_abs", "linalg.eig", None),
)
_HARNESS_WRAPS = (
    ("step", "integrators.step", _note_step),
    ("mode_multiplier", "amplification.multiplier", None),
    ("find_boundary", "amplification.boundary", _note_boundary),
    ("contour_grid", "amplification.contour", None),
    ("write_contour_csv", "harness.csv", _note_csv),
    ("write_boundary_csv", "harness.csv", _note_csv),
    ("write_history_csv", "harness.csv", _note_csv),
    ("build_problem", "harness.setup", None),
    ("initial_state", "harness.setup", None),
    ("build_xgrid", "discretize", _note_xgrid),
    ("build_vdisc", "discretize", None),
    ("run_oracle_suite", "harness.oracle", None),
    ("qr_thin", "linalg.qr", None),
    # Called by the benchmark itself through the module attribute.
    ("run_simulation", "harness.run", None),
)
_CLI_WRAPS = (
    ("write_boundary_csv", "harness.csv", _note_csv),
    ("main", "cli", None),
)


class Tracer:
    """In-memory span recorder with counters keyed by run id."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def count(self, key: str, amount: float) -> None:
        self.counts[(self.run_id, key)] += amount

    def install(self, integrators, harness, cli) -> None:
        for module, table in ((integrators, _INTEGRATORS_WRAPS),
                              (harness, _HARNESS_WRAPS), (cli, _CLI_WRAPS)):
            for attr, group, note in table:
                original = getattr(module, attr)
                self._patches.append((module, attr, original))
                setattr(module, attr, self._wrap(original, f"{group}:{attr}", note))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, original, name: str, note):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if note is not None:
                note(self, args, result)
            return result

        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("index,name,start,end,parent,run_id\n")
            for index, (name, start, end, parent, run_id) in enumerate(self.spans):
                handle.write(f"{index},{name},{start!r},{end!r},{parent},{run_id}\n")

    def layer_metrics(self, run_ids: list[int]) -> dict[str, float]:
        """Per-unit medians over the traced units ``run_ids``.

        Calls, counts and self times are totals per unit of work; step
        percentiles pool every traced step.
        """
        children = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        self_s: dict[tuple[int, str], float] = defaultdict(float)
        calls: dict[tuple[int, str], int] = defaultdict(int)
        step_ms: list[float] = []
        for (name, start, end, _, run_id), child in zip(self.spans, children):
            group = name.split(":", 1)[0]
            self_s[(run_id, group)] += (end - start) - child
            calls[(run_id, group)] += 1
            if group == "integrators.step":
                step_ms.append((end - start) * 1e3)

        def per_unit(table, key):
            return statistics.median(table.get((rid, key), 0.0) for rid in run_ids)

        out = {
            "linalg.qr.calls": per_unit(calls, "linalg.qr"),
            "linalg.qr.self_s": per_unit(self_s, "linalg.qr"),
            "linalg.qr.rank_events": per_unit(self.counts, "linalg.qr.rank_events"),
            "linalg.solve.calls": per_unit(calls, "linalg.solve"),
            "linalg.solve.self_s": per_unit(self_s, "linalg.solve"),
            "linalg.solve.gflop_computed": per_unit(self.counts, "linalg.solve.gflop_computed"),
            "linalg.eig.calls": per_unit(calls, "linalg.eig"),
            "linalg.eig.self_s": per_unit(self_s, "linalg.eig"),
            "discretize.setup_s": per_unit(self_s, "discretize"),
            "discretize.xgrid_mb_computed": per_unit(self.counts, "discretize.xgrid_mb_computed"),
            "integrators.step.calls": per_unit(calls, "integrators.step"),
            "integrators.step.self_s": per_unit(self_s, "integrators.step"),
            "integrators.step.ms_p50": _percentile(step_ms, 50),
            "integrators.step.ms_p99": _percentile(step_ms, 99),
            "amplification.multiplier.calls": per_unit(calls, "amplification.multiplier"),
            "amplification.multiplier.self_s": per_unit(self_s, "amplification.multiplier"),
            "amplification.boundary.sweeps": per_unit(self.counts, "amplification.boundary.sweeps"),
            "amplification.boundary.self_s": per_unit(self_s, "amplification.boundary"),
            "amplification.contour.self_s": per_unit(self_s, "amplification.contour"),
            "harness.csv.rows": per_unit(self.counts, "harness.csv.rows"),
            "harness.csv.bytes": per_unit(self.counts, "harness.csv.bytes"),
            "harness.csv.self_s": per_unit(self_s, "harness.csv"),
            "harness.run.self_s": per_unit(self_s, "harness.run"),
            "harness.oracle.self_s": per_unit(self_s, "harness.oracle"),
            "harness.setup.self_s": per_unit(self_s, "harness.setup"),
        }
        calls_qr = out["linalg.qr.calls"]
        out["linalg.qr.completion_share"] = (
            out["linalg.qr.rank_events"] / calls_qr if calls_qr else 0.0
        )
        out["step_samples"] = len(step_ms)
        return out


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    # Nearest rank.
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]
