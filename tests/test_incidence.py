import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pfaffinc as pf
from pfaffinc import generators as gen
from pfaffinc import incidence as inc
from pfaffinc.curves import CurveTrace, apply_linear_transform, refine_roots, trace_table
from pfaffinc.errors import ComplexityGuard, InconsistentScene

from conftest import refine_root, zero_sum_line_scene

KINDS = ["line", "circle", "parabola", "exp", "log", "reciprocal", "exp-of-poly", "tan"]


def _count(scene, tol=1e-7):
    return inc.count_incidences(scene.points, scene.curves, scene.traces(), tol)


# -- count_incidences ---------------------------------------------------------

def test_four_points_five_curves_thirteen_incidences():
    p = np.array([(0.0, 0.0), (1.0, 2.0), (2.0, 1.0), (-1.0, 1.5)])

    def para_through(i, j, k):
        a = np.array([[p[t][0] ** 2, p[t][0], 1.0] for t in (i, j, k)])
        b = np.array([p[t][1] for t in (i, j, k)])
        return pf.parabola(*np.linalg.solve(a, b))

    def circle_through(i, j, k):
        m = 2 * np.array([p[j] - p[i], p[k] - p[j]])
        b = np.array([p[j] @ p[j] - p[i] @ p[i], p[k] @ p[k] - p[j] @ p[j]])
        c = np.linalg.solve(m, b)
        return pf.circle(c[0], c[1], float(np.linalg.norm(p[i] - c)))

    curves = [
        para_through(0, 1, 2),
        para_through(0, 1, 3),
        circle_through(1, 2, 3),
        pf.line(-1.5, 0.0),         # through p0, p3
        pf.line(-1 / 6, 4 / 3),     # through p2, p3
    ]
    viewport = (-3.0, 3.0, -2.0, 3.0)
    traces = [pf.trace_curve(c, viewport) for c in curves]
    graph = inc.count_incidences(p, curves, traces)
    assert graph.count() == 13


def test_no_points_no_incidences():
    scene = gen.random_scene(["line"], m=0, n=5, planted=0.0, seed=1)
    assert _count(scene).count() == 0


def test_zero_sum_construction_has_exactly_sixty():
    scene = zero_sum_line_scene()
    graph = _count(scene)
    assert graph.count() == 60
    degrees = [len(v) for v in graph.point_adj().values()]
    assert degrees == [3] * 20


def _refine_distance(curve, comp, iv, px, py):
    """The scalar refiner that `inc._refined_distances` replaced, kept as its
    oracle: distance to (px, py) near sample iv of the trace component comp,
    (xs, ys, ts), the least over the samples and the minima, the - to +
    roots of (P - p) . V, each refined alone."""
    win = slice(max(0, iv - 2), iv + 3)
    xs, ys, ts = (v[win] for v in comp)
    vx, vy = curve.field_at(xs, ys)
    g = (xs - px) * vx + (ys - py) * vy
    best = float(np.min(np.hypot(xs - px, ys - py)))
    v2 = 0.0

    def along(t):
        nonlocal v2
        x, y = curve.point_at(t)
        vx, vy = curve.field_at(x, y)
        v2 = float(vx * vx + vy * vy)
        return float((x - px) * vx + (y - py) * vy)

    for i in np.nonzero((g[:-1] < 0) & (g[1:] > 0))[0]:
        t = refine_root(along, float(ts[i]), float(ts[i + 1]), lambda t: v2,
                        float(g[i]), float(g[i + 1]))
        x, y = curve.point_at(t)
        best = min(best, math.hypot(x - px, y - py))
    return best


def _dense_candidates(pts, trace, tol):
    """(component index, component (xs, ys, ts), point indices, nearest
    samples) of the points within the search radius of their nearest sample,
    found by one |points in box| x samples distance matrix per component."""
    for c, comp in enumerate(trace.pieces()):
        xs, ys, _ = comp
        radius = _radius(xs, ys, tol)
        box = np.nonzero((pts[:, 0] >= xs.min() - radius) & (pts[:, 0] <= xs.max() + radius)
                         & (pts[:, 1] >= ys.min() - radius) & (pts[:, 1] <= ys.max() + radius))[0]
        if len(box) == 0:
            continue
        d2 = (pts[box, 0, None] - xs) ** 2 + (pts[box, 1, None] - ys) ** 2
        iv = np.argmin(d2, axis=1)
        keep = np.sqrt(d2[np.arange(len(box)), iv]) <= radius
        yield c, comp, box[keep], iv[keep]


def _count_by_dense_scan(points, curves, traces, tol=1e-7):
    """count_incidences by the dense scan and the scalar refiner."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    edges = set()
    for ci, (curve, trace) in enumerate(zip(curves, traces)):
        for _, comp, near, iv in _dense_candidates(pts, trace, tol):
            for pi, v in zip(near.tolist(), iv.tolist()):
                if (pi, ci) not in edges and _refine_distance(
                        curve, comp, v, pts[pi, 0], pts[pi, 1]) <= tol:
                    edges.add((pi, ci))
    return edges


def _radius(xs, ys, tol):
    seg = float(np.hypot(np.diff(xs), np.diff(ys)).max()) if len(xs) > 1 else 0.0
    return seg / 2 + max(100 * tol, 1e-6)


def _edge_case_points(traces, tol, rng):
    """Points at exactly the search radius from a sample (toward the next
    sample, i.e. along the trace, and in random directions), and points on
    the lines of the grid of side 2 * radius anchored at the component's box."""
    out = []
    for trace in traces:
        for xs, ys, _ in trace.pieces():
            if len(xs) < 2:
                continue
            radius = _radius(xs, ys, tol)
            x0, y0, h = xs.min() - radius, ys.min() - radius, 2 * radius
            for i in rng.choice(len(xs) - 1, size=4, replace=False):
                sx, sy = xs[i], ys[i]
                step = np.array([xs[i + 1] - sx, ys[i + 1] - sy])
                theta = rng.uniform(0, 2 * np.pi, size=3)
                dirs = [step / np.hypot(*step)] + list(zip(np.cos(theta), np.sin(theta)))
                out += [(sx + radius * u, sy + radius * v) for u, v in dirs]
                gx = x0 + np.round((sx - x0) / h) * h
                gy = y0 + np.round((sy - y0) / h) * h
                out += [(gx, sy), (sx, gy), (gx, gy)]
    return out


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_grid_filter_matches_dense_scan(seed):
    scene = gen.random_scene(KINDS, m=150, n=16, planted=0.6, seed=seed)
    traces = scene.traces()
    rng = np.random.default_rng(seed)
    for tol in (1e-7, 1e-4):
        pts = np.vstack([scene.points, _edge_case_points(traces, tol, rng)])
        graph = inc.count_incidences(pts, scene.curves, traces, tol)
        assert graph.edges == _count_by_dense_scan(pts, scene.curves, traces, tol)
        assert graph.count() >= 0.6 * 150


def _dense_rows(pts, traces, tol):
    """`inc._candidates` by the dense scan `_dense_candidates`: rows (point,
    piece, row) of the traces' `trace_table`, whose pieces and rows follow
    trace by trace, component by component."""
    piece0 = np.cumsum([0] + [len(trace) for trace in traces])
    row0 = np.cumsum([0] + [trace.n_samples for trace in traces])
    rows = [(p, piece0[ci] + c, row0[ci] + trace.start[c] + v) for ci, trace in enumerate(traces)
            for c, _, near, iv in _dense_candidates(pts, trace, tol)
            for p, v in zip(near.tolist(), iv.tolist())]
    return np.array(rows, dtype=np.int64).reshape(-1, 3).T


def _scaled(scene, s):
    return pf.Scene(scene.points * s, [apply_linear_transform(c, s, 0, 0, s) for c in scene.curves],
                    tuple(s * v for v in scene.viewport), scene.seed)


FAR = [(x, y) for v in (1e6, 1e300, np.finfo(float).max) for x, y in
       [(v, 0.0), (-v, 0.0), (0.0, v), (0.0, -v), (v, -v), (-v, v)]]


def _beyond(traces, tol):
    """Points past the extent of the samples of each grid side of
    `inc._candidates`, along each axis and at the corners, by 1/2, 1, 2, 4,
    8 and 16 cells: one cell beyond, and one coarse cell of a bitmap
    coarsened by 2 to 16."""
    comps = [comp for trace in traces for comp in trace.pieces()]
    xs, ys = (np.concatenate([comp[v] for comp in comps]) for v in (0, 1))
    floor = max(np.ptp(xs), np.ptp(ys)) / 2**24
    sides = [2.0 ** np.ceil(np.log2(max(_radius(cx, cy, tol) * (1 + 2**-19), floor)))
             for cx, cy, _ in comps]
    out = []
    for side in set(sides):
        on = [comp for comp, s in zip(comps, sides) if s == side]
        x0, x1, y0, y1 = (f(np.concatenate([comp[v] for comp in on]))
                          for v in (0, 1) for f in (np.min, np.max))
        for d in side * 2.0 ** np.arange(-1, 5):
            out += [(x, y) for x in (x0 - d, (x0 + x1) / 2, x1 + d)
                    for y in (y0 - d, (y0 + y1) / 2, y1 + d)]
    return out


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e6])
@pytest.mark.parametrize("seed", [5, 6])
def test_candidates_match_dense_scan(seed, scale, monkeypatch):
    scene = _scaled(gen.random_scene(KINDS, m=120, n=12, planted=0.6, seed=seed), scale)
    traces = scene.traces()
    rng = np.random.default_rng(seed)
    kept, prune = [], inc._prune

    def spy(ks, kp):  # the points and the number of samples each grid side keeps
        p, keep = prune(ks, kp)
        kept.append((p, np.count_nonzero(keep)))
        return p, keep

    monkeypatch.setattr(inc, "_prune", spy)
    for tol in (1e-7, 1e-4):
        pts = np.vstack([scene.points, _edge_case_points(traces, tol, rng), _beyond(traces, tol),
                         FAR])
        kept.clear()
        table = trace_table(traces)
        rows = inc._candidates(pts, table, tol)
        assert rows.dtype == np.int64 and np.array_equal(rows, _dense_rows(pts, traces, tol))
        assert len(set(table.curve[rows[1]].tolist())) == scene.n
        # the far points at 1e300 and beyond, clipped to the grid's edge, are
        # kept by no side
        assert all(p.max(initial=0) < len(pts) - 12 for p, _ in kept)
        # a single point: on a curve, where a side keeps neither points nor
        # samples (unless one side holds every sample), or far away, where no
        # side keeps any
        for point in pts[[0, 1, -1]]:
            kept.clear()
            rows = inc._candidates(point[None], trace_table(traces), tol)
            assert np.array_equal(rows, _dense_rows(point[None], traces, tol))
            assert len(kept) == 1 or any(len(p) == n == 0 for p, n in kept)
        assert rows.shape == (3, 0) and all(len(p) == n == 0 for p, n in kept)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_candidates_break_distance_ties_to_the_lower_sample():
    # samples 1/4 apart on y = 0 and on a square; points halfway between two
    # samples are exactly as far from both
    xs = np.arange(-8, 9) / 4
    sq = np.array([(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)]) / 4 + 1
    traces = [CurveTrace(xs, np.zeros_like(xs), xs, [len(xs)], 0.25, (-3, 3, -3, 3)),
              CurveTrace(sq[:, 0], sq[:, 1], np.arange(5.0), [5], 1.0, (-3, 3, -3, 3))]
    mid = (xs[:-1] + xs[1:]) / 2
    pts = np.vstack([np.column_stack((mid, np.zeros_like(mid))),
                     np.column_stack((mid, np.full_like(mid, 1e-7))),
                     [(1.125, 1.0), (1.25, 1.125), (1.125, 1.25), (1.0, 1.125)]])
    for tol in (1e-7, 1e-4):
        rows = inc._candidates(pts, trace_table(traces), tol)
        assert np.array_equal(rows, _dense_rows(pts, traces, tol))
        on_line = rows[:, rows[1] == 0]
        assert np.array_equal(on_line[0], np.arange(2 * len(mid)))
        assert np.array_equal(on_line[2], np.tile(np.arange(len(mid)), 2))
        # the square's edge midpoints, its rows after the line's; the last
        # ties on samples 0, 3 and 4
        assert (rows[2, rows[1] == 1] - len(xs)).tolist() == [0, 1, 2, 0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_candidates_at_the_radius_across_a_cell_boundary():
    # samples 1/4 apart on y = 0 lie on the lines of the grid of side 1/4;
    # points a search radius away along an axis lie in the neighbouring cells
    xs = np.arange(-8, 9) / 4
    traces = [CurveTrace(xs, np.zeros_like(xs), xs, [len(xs)], 0.25, (-3, 3, -3, 3))]
    for tol in (1e-7, 1e-5):
        r = _radius(xs, np.zeros_like(xs), tol)
        pts = np.vstack([np.column_stack((xs + dx, np.full_like(xs, dy)))
                         for dx, dy in [(-r, 0), (r, 0), (0, -r), (0, r)]])
        rows = inc._candidates(pts, trace_table(traces), tol)
        assert np.array_equal(rows, _dense_rows(pts, traces, tol))
        assert len(rows[0]) >= 2 * len(xs)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_candidates_of_a_tiny_circle_in_a_wide_viewport(monkeypatch):
    viewport = (-1e6, 1e6, -1e6, 1e6)
    curves = [pf.circle(3e3, -2e3, 1e-3), pf.circle(-7e5, 4e5, 2e-3), pf.line(0.3, 5.0),
              pf.parabola(1e-6, 0.0, -5e5)]
    traces = [pf.trace_curve(c, viewport) for c in curves]
    tol = 1e-7
    side = 2.0 ** np.ceil(np.log2(_radius(traces[0].xs, traces[0].ys, tol)))
    assert (2e6 / side) ** 2 > 2.0 ** 63  # cells keyed over the viewport would overflow
    rng = np.random.default_rng(4)
    pts = [curves[k].point_at(rng.uniform(*curves[k].t_window(viewport), size=20))
           for k in range(4)]
    pts = np.vstack([np.column_stack(p) for p in pts]
                    + [(3e3, -2e3) + rng.normal(scale=1e-3, size=(40, 2)),
                       rng.uniform(-1e6, 1e6, size=(40, 2)), FAR])
    # the tiny circles share a grid side whose cells span far more than 2^20
    # entries, so its bitmaps are coarsened
    spans, sizes, prune, dilated = [], [], inc._prune, inc._dilated
    monkeypatch.setattr(inc, "_prune", lambda ks, kp: spans.append(np.prod(np.ptp(ks, axis=1) + 1))
                        or prune(ks, kp))
    monkeypatch.setattr(inc, "_dilated", lambda cells, shape: sizes.append(np.prod(shape))
                        or dilated(cells, shape))
    rows = inc._candidates(pts, trace_table(traces), tol)
    assert max(spans) > 2**40 and max(sizes) <= (2**10 + 2) ** 2
    assert np.array_equal(rows, _dense_rows(pts, traces, tol))
    assert set(rows[1].tolist()) == {0, 1, 2, 3}
    graph = inc.count_incidences(pts, curves, traces, tol)
    assert {(p, c) for p in range(80) for c in [p // 20]} <= graph.edges


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("block", [1, 50, 2000])
def test_candidates_in_small_blocks_match_dense_scan(block, monkeypatch):
    scene = gen.random_scene(KINDS, m=120, n=12, planted=0.6, seed=8)
    traces = scene.traces()
    pts = np.vstack([scene.points, FAR])
    monkeypatch.setattr(inc, "_BLOCK", block)
    for tol in (1e-7, 1e-4, 1e-2):
        assert np.array_equal(inc._candidates(pts, trace_table(traces), tol), _dense_rows(pts, traces, tol))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_wide_search_radius_memory_is_bounded():
    # at tol 1e-2 the search radius exceeds 1 and a point's cells hold about a
    # quarter of the samples: 14 million (point, sample) pairs in all
    scene = gen.random_scene(KINDS, m=2000, n=30, planted=0.5, seed=9)
    traces = scene.traces()
    samples = sum(trace.n_samples for trace in traces)
    tracemalloc.start()
    try:
        rows = inc._candidates(scene.points, trace_table(traces), 1e-2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * (inc._BLOCK + samples)
    assert np.array_equal(rows, _dense_rows(scene.points, traces, 1e-2))
    small = gen.random_scene(KINDS, m=400, n=12, planted=0.5, seed=9)
    graph = inc.count_incidences(small.points, small.curves, small.traces(), 1e-2)
    assert graph.edges == _count_by_dense_scan(small.points, small.curves, small.traces(), 1e-2)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_points_are_rejected(bad):
    scene = gen.grid_lines(2, 2)
    traces = scene.traces()
    cut = pf.decompose([], scene.curves, traces, scene.viewport)
    graph = _count(scene)
    for p in [(bad, 0.0), (0.0, bad)]:
        with pytest.raises(ValueError, match="finite"):
            inc.count_incidences(np.vstack([scene.points, p]), scene.curves, traces)
        with pytest.raises(ValueError, match="finite"):
            inc.count_via_cutting(np.vstack([scene.points[1:], p]), scene.curves, traces, cut,
                                  graph=graph)
        with pytest.raises(ValueError, match="finite"):
            inc.count_incidences([p], [], [])
        with pytest.raises(ValueError, match="finite"):
            inc.point_curve_distance(scene.curves[0], traces[0], p)


def _threshold_points(curves, traces, tol, rng):
    """Points off each curve along its normal by tol * (1 -+ 1e-3), at random
    parameters between samples, so that decisions land at the threshold; and
    points by the first, second, second-to-last and last samples of each
    component, whose windows are clipped."""
    out = []
    for curve, trace in zip(curves, traces):
        for xs, ys, ts in trace.pieces():
            i = rng.choice(len(ts) - 1, size=min(4, len(ts) - 1), replace=False)
            t = ts[i] + rng.uniform(size=len(i)) * (ts[i + 1] - ts[i])
            ends = np.array([0, 1, len(ts) - 2, len(ts) - 1])
            for (x, y), scales in (
                    (curve.point_at(t), [1 - 1e-3, 1 + 1e-3]),
                    ((xs[ends], ys[ends]), [0.5, 2.0])):
                vx, vy = np.broadcast_arrays(*curve.field_at(x, y), x)[:2]
                v = np.hypot(vx, vy)
                for s in scales:
                    out += list(zip(x - s * tol * vy / v, y + s * tol * vx / v))
    return out


@pytest.mark.parametrize("seed", [1, 12])  # 12 has circles of 2 and 3 components
@pytest.mark.parametrize("tol", [1e-7, 1e-4])
def test_batched_refinement_matches_scalar_oracle(seed, tol):
    scene = gen.random_scene(KINDS, m=150, n=16, planted=0.6, seed=seed)
    traces = scene.traces()
    pts = np.vstack([scene.points,
                     _threshold_points(scene.curves, traces, tol, np.random.default_rng(seed))])
    at_threshold, clipped, multi, lanes, parts = set(), 0, 0, [], []
    for ci, (curve, trace) in enumerate(zip(scene.curves, traces)):
        # one kernel call over all of the curve's components
        found = [(c, pi, v) for c, _, near, iv in _dense_candidates(pts, trace, tol)
                 for pi, v in zip(near.tolist(), iv.tolist())]
        if not found:
            continue
        comp, near, iv = np.array(found).T
        got = inc._refined_distances([curve], trace_table([trace]), comp, trace.start[comp] + iv,
                                     pts[near, 0], pts[near, 1])
        comps = trace.pieces()
        want = [_refine_distance(curve, comps[c], v, pts[pi, 0], pts[pi, 1]) for c, pi, v in found]
        assert np.max(np.abs(got - want)) <= 1e-15
        lanes += [(ci, *row) for row in found]
        parts.append(got)
        at_threshold |= {d <= tol for d in got if abs(d / tol - 1) <= 2e-3}
        size = trace.size[comp]
        clipped += np.count_nonzero((iv < 2) | (iv >= size - 2))
        multi += len(set(comp.tolist())) > 1
    assert at_threshold == {True, False} and clipped > 0 and (multi > 0) == (seed == 12)
    # the lanes are independent: one call over every curve, as in counting,
    # gives the single-curve results bit for bit
    cid, comp, near, iv = np.array(lanes).T
    table = trace_table(traces)
    piece = table.first(cid) + comp
    row = table.start[piece] + iv
    assert np.array_equal(inc._refined_distances(scene.curves, table, piece, row,
                                                 pts[near, 0], pts[near, 1]),
                          np.concatenate(parts))
    graph = inc.count_incidences(pts, scene.curves, traces, tol)
    assert graph.edges == _count_by_dense_scan(pts, scene.curves, traces, tol)
    for p in pts[::7]:
        for curve, trace in zip(scene.curves, traces):
            got = inc.point_curve_distance(curve, trace, p, tol)
            assert abs(got - _scalar_point_distance(curve, trace, p, tol)) <= 1e-15


@pytest.mark.parametrize("side", [1, -1])
def test_refinement_window_reaches_two_samples_out(side):
    # on a coarse trace of y = x^2, a point above the axis at height
    # m^2 + 1/2 has two local minima of distance, at x = -m and x = +m; the
    # point leans to +m (side 1), where the curve passes closest, but the
    # nearest sample sits at -m and +m lies two samples further on
    s, m, lean = 0.5, 0.375, 0.005
    curve = pf.parabola(1.0, 0.0, 0.0)
    ts = np.sort(side * (s * np.arange(-3, 5) - m))
    xs, ys = curve.point_at(ts)
    trace = CurveTrace(xs, ys, ts, [len(ts)], s, (-2.0, 2.0, -1.0, 4.0))
    px, py = side * lean, m * m + 0.5
    iv = int(np.argmin(np.hypot(xs - px, ys - py)))
    assert ts[iv] == -side * m
    got = inc._refined_distances([curve], trace_table([trace]), np.array([0]), np.array([iv]),
                                 np.array([px]), np.array([py]))[0]
    assert abs(got - _refine_distance(curve, (xs, ys, ts), iv, px, py)) <= 1e-15
    assert got < np.hypot(xs - px, ys - py).min() - 1e-3
    assert inc.point_curve_distance(curve, trace, (px, py)) == got


def test_count_refines_in_one_run(monkeypatch):
    scene = gen.random_scene(KINDS, m=150, n=16, planted=0.6, seed=3)
    runs = []

    def counting(*args, **kwargs):
        runs.append(len(args[1]))
        return refine_roots(*args, **kwargs)

    monkeypatch.setattr(inc, "refine_roots", counting)
    graph = _count(scene)
    assert len(runs) == 1 and runs[0] > 0
    assert len({c for _, c in graph.edges}) > 1


def _scalar_point_distance(curve, trace, p, tol):
    """point_curve_distance by the scalar refiner."""
    best = math.inf
    for comp in trace.pieces():
        d2 = (comp[0] - p[0]) ** 2 + (comp[1] - p[1]) ** 2
        iv = int(np.argmin(d2))
        coarse = math.sqrt(d2[iv])
        if coarse <= _radius(comp[0], comp[1], tol):
            coarse = _refine_distance(curve, comp, iv, p[0], p[1])
        best = min(best, coarse)
    return best


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0])
def test_non_finite_tolerance_is_rejected(tol):
    scene = gen.grid_lines(2, 2)
    traces = scene.traces()
    cut = pf.decompose([], scene.curves, traces, scene.viewport)
    graph = _count(scene)
    with pytest.raises(ValueError, match="tolerance"):
        inc.count_incidences(scene.points, scene.curves, traces, tol)
    with pytest.raises(ValueError, match="tolerance"):
        inc.point_curve_distance(scene.curves[0], traces[0], scene.points[0], tol)
    with pytest.raises(ValueError, match="tolerance"):
        inc.count_via_cutting(scene.points, scene.curves, traces, cut, tol, graph=graph)


# -- kst_free -------------------------------------------------------------------

def test_distinct_lines_are_k22_free():
    scene = gen.grid_lines(3, 3)
    assert inc.kst_free(_count(scene), 2, 2)


def test_two_curves_through_two_points_fail_k22():
    pts = np.array([(0.0, 0.0), (1.0, 1.0)])
    curves = [pf.parabola(1, 0, 0), pf.parabola(2, -1, 0)]
    traces = [pf.trace_curve(c, (-2, 2, -2, 2)) for c in curves]
    graph = inc.count_incidences(pts, curves, traces)
    assert graph.count() == 4
    assert not inc.kst_free(graph, 2, 2)


def test_unit_circle_scene_is_k32_free():
    scene = gen.unit_circles(60, 14, seed=3, planted=0.9)
    assert inc.kst_free(_count(scene), 3, 2)


def test_complexity_guard_fires():
    edges = {(i, j) for i in range(600) for j in range(600) if (i + j) % 7 == 0}
    graph = inc.IncidenceGraph(edges, 600, 600)
    with pytest.raises(ComplexityGuard):
        inc.kst_free(graph, 5, 5)


@given(st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=20),
       st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_kst_free_matches_exhaustive_search(edges, s, t):
    graph = inc.IncidenceGraph(edges, 6, 6)
    brute = True
    for ps in itertools.combinations(range(6), s):
        for cs in itertools.combinations(range(6), t):
            if all((a, b) in edges for a in ps for b in cs):
                brute = False
    assert inc.kst_free(graph, s, t) == brute


def test_degree_one_corpus_avoids_k_9_2(corpus):
    curves, traces, _vp = corpus
    low = [(c, t) for c, t in zip(curves, traces) if c.pf_degree <= 1]
    pts = []
    for (c1, t1), (c2, t2) in itertools.combinations(low, 2):
        pts.extend(pf.intersect_curves(c1, c2, t1, t2))
    pts = np.array(pts).reshape(-1, 2)
    cs = [c for c, _t in low]
    ts = [t for _c, t in low]
    graph = inc.count_incidences(pts, cs, ts)
    assert inc.kst_free(graph, 9, 2)


# -- count_via_cutting ------------------------------------------------------------

def _split_by_edge(points, graph, cut, tol=1e-7):
    """The per-edge loop that `inc.count_via_cutting` replaced, kept as its
    oracle: per-cell counts, the boundary incidences on unsampled and on
    sampled curves, the boundary points, and the (cell, curve) pairs of the
    interior incidences."""
    sample = set(cut.sample)
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    on_sample = {pi for pi, ci in graph.edges if ci in sample}
    rest = np.array([pi for pi in range(len(pts)) if pi not in on_sample], dtype=np.int64)
    cell_of = np.full(len(pts), -1, dtype=np.int64)
    cell_of[rest] = pf.locate_points(cut, pts[rest], tol)
    boundary = int(np.count_nonzero(cell_of < 0))
    per_cell = [0] * len(cut.cells)
    b_sample = b_nonsample = 0
    interior = set()
    for pi, ci in graph.edges:
        cell = int(cell_of[pi])
        if cell < 0:
            if ci in sample:
                b_sample += 1
            else:
                b_nonsample += 1
        else:
            per_cell[cell] += 1
            interior.add((cell, ci))
    return per_cell, b_nonsample, b_sample, boundary, interior


def _split(points, curves, traces, cut, graph):
    """count_via_cutting, checked against the per-edge oracle."""
    per_cell, b_nonsample, b_sample, boundary, _pairs = _split_by_edge(points, graph, cut)
    bd = inc.count_via_cutting(points, curves, traces, cut, graph=graph)
    assert bd.per_cell == per_cell
    assert (bd.on_boundary_vs_nonsample, bd.on_boundary_vs_sample, bd.boundary_points) == \
        (b_nonsample, b_sample, boundary)
    return bd


def _conflicts(cut):
    """The (cell, curve) pairs of the cutting's conflict lists, as serialised."""
    return {(cell["id"], c) for cell in cut.to_dict()["cells"] for c in cell["crossings"]}


def test_split_repairs_the_conflict_lists_it_finds_short():
    scene = gen.random_scene(KINDS, m=1000, n=100, planted=0.5, seed=2)
    traces = scene.traces()
    graph = _count(scene)
    cut = pf.build_cutting(scene.curves, traces, scene.viewport, r=4, seed=2)
    before = _conflicts(cut)
    missing = _split_by_edge(scene.points, graph, cut)[-1] - before
    assert missing
    bd = _split(scene.points, scene.curves, traces, cut, graph)
    assert bd.crossing_repairs == len(missing)
    assert bd.total == graph.count()
    assert _conflicts(cut) == before | missing
    assert _split(scene.points, scene.curves, traces, cut, graph).crossing_repairs == 0
    assert _conflicts(cut) == before | missing
    assert type(cut.max_crossings()) is int


def test_unplanted_points_all_fall_in_cells():
    scene = gen.random_scene(["line"], m=80, n=12, planted=0.0, seed=6)
    traces = scene.traces()
    cut = pf.build_cutting(scene.curves, traces, scene.viewport, r=2, seed=0)
    graph = _count(scene)
    bd = _split(scene.points, scene.curves, traces, cut, graph)
    assert bd.total == graph.count()
    assert bd.on_boundary_vs_sample + bd.on_boundary_vs_nonsample == 0


def test_points_on_sampled_curves_leave_cells_empty():
    curves = [pf.line(0.0, -1.0), pf.line(0.5, 0.5)]
    traces = [pf.trace_curve(c, (-2, 2, -2, 2)) for c in curves]
    for seed in range(20):
        cut = pf.build_cutting(curves, traces, (-2, 2, -2, 2), r=1, seed=seed)
        if sorted(cut.sample) == [0, 1]:
            break
    else:
        pytest.skip("no seed sampled both lines")
    points = np.array([(0.2, -1.0), (1.0, 1.0), (-1.0, 0.0)])
    graph = inc.count_incidences(points, curves, traces)
    bd = _split(points, curves, traces, cut, graph)
    assert sum(bd.per_cell) == 0
    assert bd.total == graph.count() == 3
    assert bd.on_boundary_vs_sample == 3


def test_breakdown_total_matches_brute_force_exactly():
    scene = gen.random_scene(["line"], m=200, n=50, planted=0.5, seed=12)
    traces = scene.traces()
    graph = _count(scene)
    cut = pf.build_cutting(scene.curves, traces, scene.viewport, r=4, seed=2)
    bd = _split(scene.points, scene.curves, traces, cut, graph)
    assert bd.total == graph.count()
    assert bd.total == sum(bd.per_cell) + bd.on_boundary_vs_nonsample + bd.on_boundary_vs_sample


@given(st.integers(0, 10**6), st.integers(2, 5), st.integers(5, 40),
       st.integers(10, 80))
@settings(max_examples=12, deadline=None)
def test_breakdown_exactness_over_randomized_scenes(seed, r_raw, n, m):
    scene = gen.random_scene(["line", "circle", "parabola"], m, n,
                             planted=0.5, seed=seed)
    traces = scene.traces()
    graph = inc.count_incidences(scene.points, scene.curves, traces)
    cut = pf.build_cutting(scene.curves, traces, scene.viewport,
                           r=min(r_raw, n - 1), seed=seed + 1)
    bd = _split(scene.points, scene.curves, traces, cut, graph)
    assert bd.total == graph.count()


def test_breakdown_against_trivial_cutting():
    scene = gen.random_scene(["line"], m=30, n=6, planted=0.5, seed=3)
    traces = scene.traces()
    graph = inc.count_incidences(scene.points, scene.curves, traces)
    cut = pf.decompose([], scene.curves, traces, scene.viewport)
    bd = _split(scene.points, scene.curves, traces, cut, graph)
    assert bd.total == graph.count()
    assert sum(bd.per_cell) == graph.count()  # one cell carries everything


def test_breakdown_rejects_foreign_cutting():
    scene = gen.random_scene(["line"], m=10, n=8, planted=0.0, seed=4)
    traces = scene.traces()
    cut = pf.build_cutting(scene.curves, traces, scene.viewport, r=2, seed=0)
    with pytest.raises(InconsistentScene):
        inc.count_via_cutting(scene.points[:5], scene.curves[:5], traces[:5], cut)


@pytest.fixture(scope="module")
def four_kind_scene():
    scene = gen.random_scene(["line", "circle", "parabola", "exp"], 200, 20, 0.6, seed=3)
    traces = scene.traces()
    return scene, traces, pf.build_cutting(scene.curves, traces, scene.viewport, r=2, seed=3)


_FOREIGN = {
    # the full count is 120 edges; ten traces counted 56, with no error
    "count with short traces":
        lambda s, tr, cut: inc.count_incidences(s.points, s.curves, tr[:10]),
    "cutting with short traces":
        lambda s, tr, cut: pf.build_cutting(s.curves, tr[:10], s.viewport, r=2, seed=3),
    "decompose with short traces":
        lambda s, tr, cut: pf.decompose([0, 4, 7], s.curves, tr[:10], s.viewport),
    "split with short traces":
        lambda s, tr, cut: inc.count_via_cutting(s.points, s.curves, tr[:10], cut,
                                                 graph=_count(s)),
    "split with a graph of other points":
        lambda s, tr, cut: inc.count_via_cutting(
            s.points, s.curves, tr, cut,
            graph=inc.count_incidences(s.points[:150], s.curves, tr)),
    "split with a graph of other curves":
        lambda s, tr, cut: inc.count_via_cutting(
            s.points, s.curves, tr, cut,
            graph=inc.count_incidences(s.points, s.curves[:10], tr[:10])),
}


@pytest.mark.parametrize("case", list(_FOREIGN))
def test_inputs_of_another_scene_are_rejected(case, four_kind_scene):
    scene, traces, cut = four_kind_scene
    assert _count(scene).count() == 120
    with pytest.raises(InconsistentScene):
        _FOREIGN[case](scene, traces, cut)


# -- bound evaluators -----------------------------------------------------------------

def test_kst_bound_spot_values():
    assert inc.bound_kst(100, 100, 2, 1.0) == 1100.0
    assert inc.bound_kst(0, 64, 2, 1.0) == 64.0
    assert abs(inc.bound_kst(100, 64, 3, 1.0) - 1664.0) <= 1e-9


def test_kst_dual_bound():
    assert inc.bound_kst_dual(100, 10, 2, 1.0) == 10 * 10 + 100
    assert inc.bound_kst_dual(0, 7, 2, 1.0) == 0.0


def test_pach_sharir_spot_values():
    assert abs(inc.bound_pach_sharir(1e6, 1e3, 2, 1.0) - 2.001e6) <= 1e-3
    assert inc.bound_pach_sharir(1, 1, 2, 1.0) == 3.0
    m, n = 37, 91
    expect = m ** (2 / 3) * n ** (2 / 3) + m + n
    assert abs(inc.bound_pach_sharir(m, n, 2, 1.0) - expect) <= 1e-9


def test_pfaffian_curve_bound_shape():
    n = 100
    assert abs(inc.bound_pfaffian_curves(0, n, 2, 1.0) - n * math.log(n) ** 2) <= 1e-9
    m, n = 1000, 100
    ln = math.log(n)
    expect = m ** (2 / 3) * n ** (2 / 3) * ln ** (2 / 3) + n * ln ** 2 + m
    assert abs(inc.bound_pfaffian_curves(m, n, 2, 1.0) - expect) <= 1e-9
    with pytest.raises(ValueError):
        inc.bound_pfaffian_curves(10, 1, 2, 1.0)


def test_family_bound_spot_values():
    assert abs(inc.bound_pfaffian_family(8, 27, 3, 0.0, 1.0)
               - (27 ** (2 / 3) * 8 ** (2 / 3) + 8 + 27)) <= 1e-9
    assert inc.bound_pfaffian_family(1, 1, 3, 0.0, 1.0) == 3.0


def test_hyperplane_bound_planar_consistency():
    m, n = 50, 80
    flat = inc.bound_hyperplanes(m, n, 2, 2, 0.0, 1.0)
    expect = m ** (2 / 3) * n ** (2 / 3) + m + n
    assert abs(flat - expect) <= 1e-9
    assert inc.bound_hyperplanes(0, 9, 3, 2, 0.0, 1.0) == 9.0


mn = st.integers(1, 10**6)


@given(mn, mn, st.integers(2, 5))
@settings(max_examples=80)
def test_bounds_are_monotone(m, n, s):
    for fn in (inc.bound_kst, inc.bound_pach_sharir):
        assert fn(m + 1, n, s) >= fn(m, n, s)
        assert fn(m, n + 1, s) >= fn(m, n, s)
    n2 = max(n, 2)
    assert inc.bound_pfaffian_curves(m + 1, n2, s) >= inc.bound_pfaffian_curves(m, n2, s)
    assert inc.bound_pfaffian_curves(m, n2 + 1, s) >= inc.bound_pfaffian_curves(m, n2, s)
    assert inc.bound_pfaffian_family(m + 1, n, s + 1) >= inc.bound_pfaffian_family(m, n, s + 1)
    assert inc.bound_hyperplanes(m, n + 1, 3, s) >= inc.bound_hyperplanes(m, n, 3, s)


# -- optimal_r ------------------------------------------------------------------------

def test_optimal_r_interior_value():
    # arithmetic oracle for s=2, m=1e4, n=1e2
    m, n, s = 1e4, 1e2, 2
    r_star = m ** (s / (2 * s - 1)) / (n ** (1 / (2 * s - 1)) * math.log(n) ** (2 * s / (2 * s - 1)))
    r, regime = inc.optimal_r(10**4, 10**2, 2)
    assert regime is None
    assert r == round(r_star) == 13


def test_optimal_r_few_points_clamp():
    r, regime = inc.optimal_r(5, 100, 2)
    assert r == 1 and regime == inc.FEW_POINTS


def test_optimal_r_many_points_clamp():
    r, regime = inc.optimal_r(300, 5, 2)
    assert r == 4 and regime == inc.MANY_POINTS


def test_fit_constant():
    assert inc.fit_constant([(10, 100.0), (55, 100.0)]) == 0.55
    assert inc.fit_constant([(0, 0.0)]) == 0.0
    with pytest.raises(ValueError):
        inc.fit_constant([(3, 0.0)])
