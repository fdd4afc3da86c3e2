"""Workloads: inputs made from a seed, one closed-loop iteration, output checks.

Every workload draws a scene with `pfaffinc.generators.random_scene` over the
eight acceptance kinds and writes it to scene JSON before anything is timed;
the timed code only reads that file.

- cutting-scale: n = 800 curves, m = 1,600 points, r = 4.  The cutting's
  sample (123 of 800 curves at cutting seed 7) is far below n, the scale
  where the cutting is not degenerate.  Building the cutting dominates.
- points-dense: n = 60, m = 20,000, r = 2.  The same pipeline read-heavy: a
  cheap cutting queried by many points, so brute-force refinement and point
  location dominate and cutting construction barely shows.
- intersect-cli: `pfaffinc intersect` on 160 curves (12,720 pairs), run
  in-process through `pfaffinc.cli.main`.  Only the intersect, scene and CLI
  layers run; cutting and incidence are bypassed.

The two small workloads hold too few curves for a fresh draw per seed to
average out: with new curves per seed, points-dense peak RSS (set by the
largest point box times trace length) ranged 349-492 MB over seeds 1-5 and
intersect-cli wall time spread 10% over seeds 1-10.  Their curve set is
drawn once (`curve_seed`).  On points-dense `--seed` draws the points; on
intersect-cli it draws the curve order.  Permuting the points-dense curves
as well made its wall time spread 17% and its peak RSS 9%, because the
cutting samples curves by index.  cutting-scale draws everything from
`--seed`, so a change tuned to one curve set still meets fresh ones there.

The cutting seed is the workload's default seed on every run, so the sample
size stays fixed while `--seed` varies the scene.  The `duality` and `chains`
modules are not measured: no hot path named in the ROADMAP runs through them.
The `scipy.integrate` import that chains pull in still shows in `setup_s`.

This module imports only the standard library at import time; the program is
imported by `import_program`, inside the set-up that `setup_s` measures.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from dataclasses import dataclass

KINDS = ["line", "circle", "parabola", "exp", "log", "reciprocal", "exp-of-poly", "tan"]
PLANTED = 0.5
COUNT_TOL = 1e-7  # pfaffinc's default incidence tolerance
POINT_MATCH = 1e-9  # intersection points agree when every coordinate is this close
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")


@dataclass(frozen=True)
class Workload:
    name: str
    n: int  # curves
    m: int  # points
    r: int  # cutting parameter; 0 runs `pfaffinc intersect` instead
    default_seed: int  # also the cutting seed of every run
    curve_seed: int | None = None  # fixes the curve set (see above)

    @property
    def uses_cli(self):
        return self.r == 0

    @property
    def ops(self):
        """Checked operations per iteration: points, or curve pairs."""
        return self.n * (self.n - 1) // 2 if self.uses_cli else self.m


WORKLOADS = {w.name: w for w in (
    Workload("cutting-scale", n=800, m=1600, r=4, default_seed=7),
    Workload("points-dense", n=60, m=20000, r=2, default_seed=11, curve_seed=11),
    Workload("intersect-cli", n=160, m=0, r=0, default_seed=7, curve_seed=7),
)}


# -- inputs ---------------------------------------------------------------------


def draw_scene(wl, seed):
    import numpy as np
    from pfaffinc import generators
    from pfaffinc.scene import Scene

    if wl.curve_seed is None:
        return generators.random_scene(KINDS, wl.m, wl.n, PLANTED, seed=seed)
    base = generators.random_scene(KINDS, 0, wl.n, PLANTED, seed=wl.curve_seed)
    rng = np.random.default_rng(seed)
    if wl.uses_cli:
        # `pfaffinc intersect` ignores points: the seed orders the curves,
        # which sets each pair's argument order and the CSV rows
        curves = [base.curves[i] for i in rng.permutation(base.n)]
        points = np.zeros((0, 2))
    else:
        # the cutting samples curves by index, so their order stays fixed
        curves = base.curves
        points = plant_points(curves, base.viewport, wl.m, rng)
    return Scene(points, curves, base.viewport, seed,
                 dict(base.meta, planted=PLANTED, curve_seed=wl.curve_seed))


def plant_points(curves, viewport, m, rng):
    """m points: a PLANTED share at uniform parameters of uniformly chosen
    curves, the way `random_scene` plants them, the rest uniform."""
    import numpy as np

    x0, x1, y0, y1 = viewport
    pts = []
    while len(pts) < round(PLANTED * m):
        curve = curves[int(rng.integers(0, len(curves)))]
        lo, hi = curve.t_window(viewport)
        x, y = curve.point_at(float(rng.uniform(lo, hi)))
        if x0 < x < x1 and y0 < y < y1:
            pts.append((float(x), float(y)))
    pts.extend(rng.uniform((x0, y0), (x1, y1), size=(m - len(pts), 2)).tolist())
    return np.array(pts, dtype=float).reshape(-1, 2)


def write_scene(wl, seed, path):
    """Draw the workload's scene at `seed`, save it, and return its digest."""
    from pfaffinc import scene

    scene.save_scene(draw_scene(wl, seed), path)
    return input_digest(path)


def input_digest(path):
    """sha256 of the scene JSON in canonical form (sorted keys, no spaces)."""
    with open(path) as fh:
        data = json.load(fh)
    canon = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# -- one iteration ----------------------------------------------------------------


def import_program(wl):
    """Import what the workload calls; part of the measured set-up."""
    import pfaffinc  # noqa: F401
    from pfaffinc import scene

    if wl.uses_cli:
        from pfaffinc import cli  # noqa: F401
    return scene


def iterate(wl, loaded, scene_path, csv_path):
    """One closed-loop iteration.  Calls go through module attributes, so a
    tracer that wraps them sees every call.  Returns the raw results."""
    if wl.uses_cli:
        from pfaffinc import cli

        return cli.main(["intersect", "--scene", scene_path, "--out", csv_path])
    from pfaffinc import curves, cutting, incidence

    traces = [curves.trace_curve(c, loaded.viewport) for c in loaded.curves]
    graph = incidence.count_incidences(loaded.points, loaded.curves, traces)
    cut = cutting.build_cutting(loaded.curves, traces, loaded.viewport, wl.r,
                                seed=wl.default_seed)
    split = incidence.count_via_cutting(loaded.points, loaded.curves, traces, cut,
                                        graph=graph)
    return graph, cut, split


def extract(raw):
    """JSON-able outputs of one pipeline iteration (not used for the CLI,
    whose output is its CSV file)."""
    graph, cut, split = raw
    return {
        "edges": sorted([int(p), int(c)] for p, c in graph.edges),
        "count": graph.count(),
        "split_total": split.total,
        "max_crossings": cut.max_crossings(),
        "attempts": cut.retries_used + 1,
        "sample": len(cut.sample),
        "events": (len(cut.rays) + len(cut.aux_walls)) // 2,
        "slabs": len(cut.slab_xs) - 1,
        "cells": len(cut.cells),
        "boundary_points": split.boundary_points,
        "crossing_repairs": split.crossing_repairs,
    }


# -- checks -------------------------------------------------------------------------


def incidence_sets(wl, edges):
    sets = [set() for _ in range(wl.m)]
    for p, c in edges:
        sets[p].add(c)
    return sets


def parse_csv(text):
    """{(i, j): [(x, y), ...]} from `pfaffinc intersect` output."""
    rows = [line for line in text.splitlines() if line and not line.startswith("#")]
    pairs = {}
    for i, j, x, y in csv.reader(io.StringIO("\n".join(rows[1:]))):
        pairs.setdefault((int(i), int(j)), []).append((float(x), float(y)))
    return pairs


def points_match(a, b):
    if len(a) != len(b):
        return False
    return all(abs(p[0] - q[0]) <= POINT_MATCH and abs(p[1] - q[1]) <= POINT_MATCH
               for p, q in zip(sorted(a), sorted(b)))


def pipeline_failures(wl, out, expected_sets):
    """Points whose incidence set differs from `expected_sets`; every point
    fails when an invariant breaks.  `expected_sets` None checks invariants only."""
    if out["split_total"] != out["count"] or out["max_crossings"] > wl.n / wl.r:
        return wl.m
    if expected_sets is None:
        return 0
    got = incidence_sets(wl, out["edges"])
    return sum(g != e for g, e in zip(got, expected_sets))


def pair_failures(wl, pairs, expected):
    """Curve pairs whose points differ from `expected` ({(i, j): points})."""
    failed = 0
    for i in range(wl.n):
        for j in range(i + 1, wl.n):
            if not points_match(pairs.get((i, j), []), expected.get((i, j), [])):
                failed += 1
    return failed


def pair_invariant_failures(wl, pairs, scene_path):
    """Pairs with more points than `pfaffian_bezout_bound`, or with a point
    farther than the incidence tolerance from either curve."""
    from pfaffinc import curves, incidence, intersect, scene

    loaded = scene.load_scene(scene_path)
    traces = [curves.trace_curve(c, loaded.viewport) for c in loaded.curves]
    failed = 0
    for (i, j), pts in pairs.items():
        ci, cj = loaded.curves[i], loaded.curves[j]
        ok = len(pts) <= intersect.pfaffian_bezout_bound(ci.pf_degree, cj.pf_degree)
        ok = ok and all(
            incidence.point_curve_distance(c, traces[k], p, COUNT_TOL) <= COUNT_TOL
            for p in pts for c, k in ((ci, i), (cj, j)))
        failed += not ok
    return failed


# -- references -----------------------------------------------------------------


def reference_path(wl, seed, directory=REFERENCE_DIR):
    return os.path.join(directory, f"{wl.name}-seed{seed}.json")


def load_reference(wl, seed, directory=REFERENCE_DIR):
    """The recorded reference for this seed, or None."""
    path = reference_path(wl, seed, directory)
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def make_reference(wl, seed, digest, output):
    """Reference record: input digest plus per-point incidence sets, or
    per-pair intersection points and the CSV digest."""
    ref = {"workload": wl.name, "seed": seed, "input_sha256": digest}
    if wl.uses_cli:
        ref["csv_sha256"] = hashlib.sha256(output.encode()).hexdigest()
        ref["pairs"] = [[i, j, [[x, y] for x, y in pts]]
                        for (i, j), pts in sorted(parse_csv(output).items())]
    else:
        ref["incidences"] = output["edges"]
    return ref


def reference_pairs(ref):
    return {(i, j): [tuple(p) for p in pts] for i, j, pts in ref["pairs"]}
