"""Wrap targets for the traced run and the per-layer metrics derived from them.

Targets are public functions as bound in the modules that call them, plus the
scipy solvers bound in `pfaffinc.intersect` (`brentq` for crossings and
vertical tangents, `minimize_scalar` for touching points) and in
`pfaffinc.incidence` (`minimize_scalar`, one per distance refinement).
`*_s` metrics sum span durations; `cutting.self_s`, `incidence.split_s` and
`cli.self_s` are self times, a span minus its traced children (for the CLI:
scene load, tracing and `intersect_curves`).  Cutting sizes, the margin
`max_crossings / (n/r)` and boundary points come from the traced
iteration's outputs.  A metric whose layer does not run on a workload reads 0.
"""

from __future__ import annotations

import math

from tracer import summarize

TARGETS = [
    # called by the benchmark
    ("pfaffinc.curves", "trace_curve", "curves.trace", lambda tr: tr.n_samples),
    ("pfaffinc.incidence", "count_incidences", "incidence.count", lambda g: g.count()),
    ("pfaffinc.cutting", "build_cutting", "cutting.build", None),
    ("pfaffinc.incidence", "count_via_cutting", "incidence.split", None),
    ("pfaffinc.cli", "main", "cli.main", None),
    # called inside the program
    ("pfaffinc.cli", "load_scene", "scene.load", None),
    ("pfaffinc.intersect", "intersect_curves", "intersect.curves", len),
    ("pfaffinc.intersect", "monotone_branches", "intersect.branches", len),
    ("pfaffinc.cutting", "monotone_branches", "intersect.branches", len),
    ("pfaffinc.intersect", "branch_intersections", "intersect.pair", len),
    ("pfaffinc.cutting", "branch_intersections", "intersect.pair", len),
    ("pfaffinc.intersect", "vertical_tangent_ts", "intersect.tangent", len),
    ("pfaffinc.intersect", "brentq", "intersect.root", None),
    ("pfaffinc.intersect", "minimize_scalar", "intersect.touch", None),
    ("pfaffinc.incidence", "minimize_scalar", "incidence.refine", None),
    ("pfaffinc.incidence", "locate_point", "incidence.locate", None),
]

# name -> unit, in the order BENCHMARK.json lists them
METRICS = {
    "setup.import_pfaffinc_s": "s",
    "setup.import_scipy_optimize_s": "s",
    "setup.import_scipy_integrate_s": "s",
    "curves.trace_s": "s",
    "curves.trace_samples": "count",
    "intersect.branches_calls": "count",
    "intersect.branches_s": "s",
    "intersect.pair_calls": "count",
    "intersect.pair_s": "s",
    "intersect.pair_p50_ms": "ms",
    "intersect.pair_p99_ms": "ms",
    "intersect.root_calls": "count",
    "intersect.touch_calls": "count",
    "intersect.points": "count",
    "intersect.tangent_s": "s",
    "cutting.build_s": "s",
    "cutting.self_s": "s",
    "cutting.attempts": "count",
    "cutting.sample": "count",
    "cutting.sample_frac": "ratio",
    "cutting.events": "count",
    "cutting.slabs": "count",
    "cutting.cells": "count",
    "cutting.cell_constant": "ratio",
    "cutting.margin": "ratio",
    "incidence.count_s": "s",
    "incidence.refine_calls": "count",
    "incidence.refine_s": "s",
    "incidence.edges": "count",
    "incidence.refine_yield": "ratio",
    "incidence.split_s": "s",
    "incidence.locate_calls": "count",
    "incidence.locate_s": "s",
    "incidence.boundary_points": "count",
    "incidence.crossing_repairs": "count",
    "scene.load_s": "s",
    "cli.self_s": "s",
    "cli.csv_identical": "count",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
    "trace.absent_targets": "count",
}


def _percentile_ms(durations, q):
    """Nearest-rank percentile in milliseconds; 0 without samples."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    return 1000.0 * ordered[min(len(ordered) - 1, max(0, int(round(q * len(ordered))) - 1))]


def span_metrics(spans):
    """Per-layer metrics that come from spans alone."""
    agg = summarize(spans)

    def get(name, key):
        return agg[name][key] if name in agg else 0

    pair_durations = agg["intersect.pair"]["durations"] if "intersect.pair" in agg else []
    refine_calls = get("incidence.refine", "calls")
    return {
        "curves.trace_s": get("curves.trace", "total_s"),
        "curves.trace_samples": get("curves.trace", "size"),
        "intersect.branches_calls": get("intersect.branches", "calls"),
        "intersect.branches_s": get("intersect.branches", "total_s"),
        "intersect.pair_calls": get("intersect.pair", "calls"),
        "intersect.pair_s": get("intersect.pair", "total_s"),
        "intersect.pair_p50_ms": _percentile_ms(pair_durations, 0.50),
        "intersect.pair_p99_ms": _percentile_ms(pair_durations, 0.99),
        "intersect.root_calls": get("intersect.root", "calls"),
        "intersect.touch_calls": get("intersect.touch", "calls"),
        "intersect.points": get("intersect.pair", "size"),
        "intersect.tangent_s": get("intersect.tangent", "total_s"),
        "cutting.build_s": get("cutting.build", "total_s"),
        "cutting.self_s": get("cutting.build", "self_s"),
        "incidence.count_s": get("incidence.count", "total_s"),
        "incidence.refine_calls": refine_calls,
        "incidence.refine_s": get("incidence.refine", "total_s"),
        "incidence.edges": get("incidence.count", "size"),
        "incidence.refine_yield": get("incidence.count", "size") / refine_calls if refine_calls else 0.0,
        "incidence.split_s": get("incidence.split", "self_s"),
        "incidence.locate_calls": get("incidence.locate", "calls"),
        "incidence.locate_s": get("incidence.locate", "total_s"),
        "scene.load_s": get("scene.load", "total_s"),
        "cli.self_s": get("cli.main", "self_s"),
        "trace.spans": len(spans),
    }


def output_metrics(wl, out):
    """Per-layer metrics read from a pipeline iteration's outputs."""
    if out is None:
        return {}
    return {
        "cutting.attempts": out["attempts"],
        "cutting.sample": out["sample"],
        "cutting.sample_frac": out["sample"] / wl.n,
        "cutting.events": out["events"],
        "cutting.slabs": out["slabs"],
        "cutting.cells": out["cells"],
        "cutting.cell_constant": out["cells"] / (wl.r ** 2 * math.log(wl.n) ** 2),
        "cutting.margin": out["max_crossings"] / (wl.n / wl.r),
        "incidence.boundary_points": out["boundary_points"],
        "incidence.crossing_repairs": out["crossing_repairs"],
    }


def import_times(stderr_text):
    """setup.* metrics from `python -X importtime` output (cumulative, in s)."""
    wanted = {"pfaffinc": "setup.import_pfaffinc_s",
              "scipy.optimize": "setup.import_scipy_optimize_s",
              "scipy.integrate": "setup.import_scipy_integrate_s"}
    out = {v: 0.0 for v in wanted.values()}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = [p.strip() for p in line[len("import time:"):].split("|")]
        if len(parts) == 3 and parts[2] in wanted and parts[1].isdigit():
            out[wanted[parts[2]]] = int(parts[1]) / 1e6
    return out
