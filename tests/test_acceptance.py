"""Acceptance suite: each criterion runs at its stated tolerance and prints
one pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`."""

import math
import time

import numpy as np

import pfaffinc as pf
from pfaffinc import chains as ch
from pfaffinc import duality as du
from pfaffinc import generators as gen
from pfaffinc import incidence as inc

from conftest import corpus_curves, CORPUS_VIEWPORT

# frozen fixtures
CELL_CONSTANT_FROZEN = 4.5   # fitted 4.05 on the seeds below; ceiling from the claim is 50
SLOPE_WINDOW = (1.25, 1.42)
KINDS = ["line", "circle", "parabola", "exp", "log", "reciprocal", "exp-of-poly", "tan"]

_cache = {}


def _scenes_random():
    """50 seeded random scenes; first two pin the clamping regimes."""
    if "random" in _cache:
        return _cache["random"]
    out = []
    for i in range(50):
        rng = np.random.default_rng(1000 + i)
        if i == 0:
            m, n = 5, 100
        elif i == 1:
            m, n = 300, 5
        else:
            m = int(rng.integers(60, 301))
            n = int(rng.integers(20, 101))
        scene = gen.random_scene(KINDS, m, n, planted=0.5, seed=2000 + i)
        traces = scene.traces()
        graph = inc.count_incidences(scene.points, scene.curves, traces)
        cut = pf.build_cutting(scene.curves, traces, scene.viewport, r=2,
                               seed=3000 + i)
        breakdown = inc.count_via_cutting(scene.points, scene.curves, traces,
                                          cut, graph=graph)
        out.append({"scene": scene, "graph": graph, "breakdown": breakdown})
    _cache["random"] = out
    return out


def _grid_cuttings():
    if "grids" in _cache:
        return _cache["grids"]
    out = []
    for a, b in ((2, 5), (4, 5)):
        scene = gen.grid_lines(a, b)
        traces = scene.traces()
        graph = inc.count_incidences(scene.points, scene.curves, traces)
        for r in (2, 5, 10):
            cut = pf.build_cutting(scene.curves, traces, scene.viewport, r=r,
                                   seed=0)
            out.append({"scene": scene, "graph": graph, "r": r, "cut": cut})
    _cache["grids"] = out
    return out


def _sweep_rows():
    if "sweep" in _cache:
        return _cache["sweep"]
    rows = []
    for nominal in (8, 16, 32, 64, 128):
        g = max(1, round(nominal ** (1.0 / 3.0)))
        scene = gen.grid_lines(g, g)
        graph = inc.count_incidences(scene.points, scene.curves, scene.traces())
        rows.append({"scene": scene, "graph": graph, "nominal": nominal})
    _cache["sweep"] = rows
    return rows


def _grid_and_image():
    if "exp" in _cache:
        return _cache["exp"]
    scene = gen.grid_lines(4, 4)
    image = gen.exp_transform(scene)
    gi = inc.count_incidences(scene.points, scene.curves, scene.traces())
    ii = inc.count_incidences(image.points, image.curves, image.traces())
    _cache["exp"] = (scene, gi, image, ii)
    return _cache["exp"]


def test_criterion_1_decomposition_exactness():
    start = time.monotonic()
    records = _scenes_random()
    for rec in records:
        assert rec["breakdown"].total == rec["graph"].count()
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0, f"criterion 1 took {elapsed:.1f}s"
    print(f"\nPASS criterion 1: 50/50 decomposed counts exact ({elapsed:.1f}s)")


def test_criterion_2_cutting_guarantee():
    start = time.monotonic()
    runs = _grid_cuttings()
    c_fit = 0.0
    for rec in runs:
        n, r, cut = rec["scene"].n, rec["r"], rec["cut"]
        assert cut.retries_used < 32
        assert cut.max_crossings() <= n / r
        c_fit = max(c_fit, len(cut.cells) / (r * r * math.log(n) ** 2))
    elapsed = time.monotonic() - start
    assert c_fit <= CELL_CONSTANT_FROZEN <= 50.0
    assert elapsed <= 120.0, f"criterion 2 took {elapsed:.1f}s"
    print(f"PASS criterion 2: all 6 cuttings certified, fitted C = {c_fit:.2f} "
          f"<= frozen {CELL_CONSTANT_FROZEN} ({elapsed:.1f}s)")


def test_criterion_3_intersection_ceilings():
    curves = corpus_curves()
    traces = [pf.trace_curve(c, CORPUS_VIEWPORT) for c in curves]
    line_pairs = 0
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            pts = pf.intersect_curves(curves[i], curves[j], traces[i], traces[j])
            bound = pf.pfaffian_bezout_bound(curves[i].pf_degree,
                                             curves[j].pf_degree)
            assert len(pts) <= bound
            if curves[i].kind == "line" and curves[j].kind == "line":
                line_pairs += 1
                assert len(pts) == 1
    assert line_pairs == 6
    print("PASS criterion 3: 66 corpus pairs within the degree ceiling, "
          "6/6 line pairs met exactly once")


def test_criterion_4_vertical_tangents():
    c = pf.circle(0, 0, 1)
    tr = pf.trace_curve(c, (-2, 2, -2, 2))
    pts = sorted(pf.vertical_tangent_points(c, tr))
    assert len(pts) == 2
    assert math.hypot(pts[0][0] + 1, pts[0][1]) <= 1e-8
    assert math.hypot(pts[1][0] - 1, pts[1][1]) <= 1e-8
    graph_kinds = [c2 for c2 in corpus_curves() if c2.kind != "circle"]
    for c2 in graph_kinds:
        tr2 = pf.trace_curve(c2, CORPUS_VIEWPORT)
        assert pf.vertical_tangent_points(c2, tr2) == []
    print(f"PASS criterion 4: circle tangents at (+-1, 0) within 1e-8; "
          f"{len(graph_kinds)} graph curves report none")


def test_criterion_5_chain_verification():
    worked = ch.function_worked_example()
    assert ch.order_and_degree(worked) == (1, (2, 6))
    rep = ch.verify_chain(worked.chain, samples=1000, tol=1e-6)
    assert rep.passed

    cos_rep = ch.verify_chain(ch.chain_cos_halfangle(), samples=1000, tol=1e-6)
    assert cos_rep.passed

    ext = ch.extend_with_integral(ch.function_exp_graph(), 0.0)
    link = ext.chain.links[-1]
    prefix = ext.chain.links[:-1]
    worst = max(abs(link.eval(x, 0.0, prefix) - (math.exp(x) - 1.0))
                for x in np.linspace(-1.9, 1.9, 41))
    assert worst <= 1e-8
    print(f"PASS criterion 5: order/degree (1, (2, 6)); cos chain and "
          f"integral extension verified (max integral error {worst:.1e})")


def test_criterion_6_duality_chain():
    params = [(3, i % 2, 100 + i) for i in range(10)] + \
             [(4, i % 2, 200 + i) for i in range(10)]
    for d, variant, seed in params:
        points, family, curves = gen.duality_scene(d, 50, 40, seed=seed,
                                                   variant=variant)
        rep = du.verify_duality_chain(points, family, curves, seed=seed)
        assert rep.primal_count == rep.dual_count == rep.projected_count
        assert rep.transpose_ok
    print("PASS criterion 6: 20/20 scenes with three equal counts and "
          "transposed graphs")


def test_criterion_7_transform_invariance():
    scene, gi, image, ii = _grid_and_image()
    assert gi.count() == ii.count() == 256
    assert all(c.kind == "log" for c in image.curves)
    print(f"PASS criterion 7: grid(4,4) count {gi.count()} preserved "
          f"by the exponential transform; image curves all log kind")


def test_criterion_8_exponent_fit():
    start = time.monotonic()
    rows = _sweep_rows()
    xs = np.log([r["scene"].n for r in rows])
    ys = np.log([r["graph"].count() for r in rows])
    slope = float(np.polyfit(xs, ys, 1)[0])
    elapsed = time.monotonic() - start
    assert SLOPE_WINDOW[0] <= slope <= SLOPE_WINDOW[1]
    assert elapsed <= 120.0, f"criterion 8 took {elapsed:.1f}s"
    print(f"PASS criterion 8: fitted exponent {slope:.4f} in "
          f"[{SLOPE_WINDOW[0]}, {SLOPE_WINDOW[1]}] ({elapsed:.1f}s)")


def test_criterion_9_bound_conformance():
    observations = []
    regimes = set()
    skipped = 0
    for rec in _scenes_random():
        scene, graph = rec["scene"], rec["graph"]
        if not inc.kst_free(graph, 2, 2):
            skipped += 1
            continue
        base = inc.bound_pfaffian_curves(scene.m, scene.n, 2)
        observations.append((graph.count(), base))
        regimes.add(inc.optimal_r(scene.m, scene.n, 2)[1])
    for rec in _grid_cuttings():
        scene, graph = rec["scene"], rec["graph"]
        if inc.kst_free(graph, 2, 2):
            observations.append((graph.count(),
                                 inc.bound_pfaffian_curves(scene.m, scene.n, 2)))
            regimes.add(inc.optimal_r(scene.m, scene.n, 2)[1])
    scene, gi, image, ii = _grid_and_image()
    assert inc.kst_free(gi, 2, 2) and inc.kst_free(ii, 2, 2)
    observations.append((gi.count(), inc.bound_pfaffian_curves(scene.m, scene.n, 2)))
    observations.append((ii.count(), inc.bound_pfaffian_curves(image.m, image.n, 2)))
    for rec in _sweep_rows():
        s, g = rec["scene"], rec["graph"]
        if inc.kst_free(g, 2, 2):
            observations.append((g.count(), inc.bound_pfaffian_curves(s.m, s.n, 2)))
            regimes.add(inc.optimal_r(s.m, s.n, 2)[1])
    c_fit = inc.fit_constant(observations)
    for count, base in observations:
        assert count <= c_fit * base + 1e-9
    assert inc.FEW_POINTS in regimes and inc.MANY_POINTS in regimes
    print(f"PASS criterion 9: {len(observations)} scenes conform at "
          f"C_fit = {c_fit:.3f}; both clamping regimes exercised "
          f"({skipped} scenes skipped by the K22 filter)")


def test_criterion_10_formula_spot_checks():
    assert inc.bound_kst(100, 100, 2, 1.0) == 1100.0
    assert pf.pfaffian_bezout_bound(1, 1) == 8
    assert pf.pfaffian_bezout_bound(2, 3) == 38
    r, regime = inc.optimal_r(5, 100, 2)
    assert (r, regime) == (1, inc.FEW_POINTS)
    r, regime = inc.optimal_r(300, 5, 2)
    assert (r, regime) == (4, inc.MANY_POINTS)
    print("PASS criterion 10: formula spot values and clamp flags exact")
