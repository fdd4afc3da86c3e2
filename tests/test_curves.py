import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import pfaffinc as pf
from conftest import refine_root
from pfaffinc import generators as gen
from pfaffinc.curves import (CurveTable, KINDS, PolyVectorField, max_tangent_error, refine_roots,
                             rotation_matrix, trace_table, transform_field)
from pfaffinc.errors import EmptyTrace, NotComposable, SingularMatrix
from pfaffinc.poly import BivariatePolynomial, poly1_der, poly1_eval
from pfaffinc.scene import Scene, rotate_scene, scene_from_dict, scene_to_dict, scene_to_json

VP = (-2.0, 2.0, -2.0, 2.0)
TABLE_KINDS = ["line", "circle", "parabola", "exp", "log", "reciprocal", "exp-of-poly", "tan"]


# -- eval_vector_field -------------------------------------------------------

def test_field_of_parabola_at_3_9():
    c = pf.parabola(1, 0, 0)
    assert pf.eval_vector_field(c.field, (3.0, 9.0)) == (1.0, 6.0)


def test_field_of_unit_circle_at_1_0():
    c = pf.circle(0, 0, 1)
    vx, vy = pf.eval_vector_field(c.field, (1.0, 0.0))
    assert (vx, vy) == (0.0, 1.0)


def test_field_of_exp_at_origin():
    c = pf.exp_curve()
    assert pf.eval_vector_field(c.field, (0.0, 0.0)) == (1.0, 0.0)


# -- trace_curve --------------------------------------------------------------

def test_parabola_trace_hits_landmarks():
    c = pf.parabola(1, 0, 0)
    tr = pf.trace_curve(c, VP, step=1e-3)
    assert len(tr) == 1
    xs, ys = tr.xs, tr.ys
    for px, py in ((0, 0), (1, 1), (-1, 1)):
        d = np.min(np.hypot(xs - px, ys - py))
        assert d <= 1e-6


def test_circle_trace_excludes_seam_point():
    c = pf.circle(0, 0, 1)
    tr = pf.trace_curve(c, VP)
    assert len(tr) == 1
    ts = tr.ts
    assert ts.min() > 0.0 and ts.max() < 2 * math.pi


def test_reciprocal_trace_stays_in_open_first_quadrant():
    c = pf.reciprocal_curve(1.0, 1)
    tr = pf.trace_curve(c, VP)
    assert len(tr) == 1
    xs, ys = tr.xs, tr.ys
    assert np.all(xs > 0) and np.all(ys > 0)


def test_empty_trace_raises():
    c = pf.circle(10.0, 10.0, 1.0)
    with pytest.raises(EmptyTrace):
        pf.trace_curve(c, VP)


def test_trace_parameters_strictly_increase():
    for c in (pf.line(1, 0), pf.circle(0, 0, 1), pf.exp_curve(), pf.tan_curve(0)):
        tr = pf.trace_curve(c, VP)
        for _, _, ts in tr.pieces():
            assert np.all(np.diff(ts) > 0)


def test_trace_consecutive_points_bounded_by_field():
    for c in (pf.line(2, 0), pf.circle(0, 0, 1.5), pf.exp_curve(), pf.tan_curve(0)):
        tr = pf.trace_curve(c, VP)
        for xs, ys, _ in tr.pieces():
            vx, vy = c.field_at(xs, ys)
            vmax = np.max(np.hypot(vx + 0 * xs, vy + 0 * xs))
            gaps = np.hypot(np.diff(xs), np.diff(ys))
            assert np.all(gaps <= 2 * tr.step * max(vmax, 1.0))


def _loop_runs(inside):
    """The per-sample loop that split trace components before run
    detection, kept as its oracle: (start, stop) of the runs of set
    entries, those shorter than 2 dropped."""
    runs, start = [], None
    for i, ok in enumerate(inside):
        if ok and start is None:
            start = i
        elif not ok and start is not None:
            if i - start >= 2:
                runs.append((start, i))
            start = None
    if start is not None and len(inside) - start >= 2:
        runs.append((start, len(inside)))
    return runs


def test_inside_runs_equal_the_loop_on_masks():
    rng = np.random.default_rng(5)
    masks = [np.ones(9, bool), np.zeros(9, bool), np.zeros(0, bool), np.ones(1, bool),
             np.array([1, 0, 0, 1, 1, 0, 1], bool),  # runs of 1 at either end
             np.array([0, 1, 0, 1, 1, 1, 0, 1, 0], bool),
             np.array([1, 1, 0, 1], bool), np.array([1, 0, 1, 1], bool)]
    masks += [rng.random(n) < p for n in (2, 3, 17, 200) for p in (0.2, 0.5, 0.9)]
    for mask in masks:
        assert pf.curves._inside_runs(mask) == _loop_runs(mask)


@pytest.mark.parametrize("viewport", [(-2.5, 2.5, -2.5, 2.5), (-1.0, 1.3, -0.4, 0.6),
                                      (-3.0, 3.0, -1.0, 8.0)])
def test_trace_components_equal_the_loop_on_every_kind(viewport):
    # the samples are the curve's points at the trace's parameters; the mask
    # of those inside the viewport, split by the loop, gives the components
    for curve in list(KIND_EXAMPLES.values()) + TRANSFORMED:
        try:
            lo, hi = curve.t_window(viewport)
        except EmptyTrace:
            continue
        step = (hi - lo) / 1024
        ts = lo + step * np.arange(int(math.ceil((hi - lo) / step)) + 1)
        ts = ts[ts <= hi]
        if ts[-1] < hi - 1e-15:
            ts = np.append(ts, hi)
        with np.errstate(all="ignore"):
            xs, ys = (np.asarray(v, dtype=float) + np.zeros_like(ts) for v in curve.point_at(ts))
        x0, x1, y0, y1 = viewport
        runs = _loop_runs(np.isfinite(xs) & np.isfinite(ys) & (xs >= x0) & (xs <= x1)
                          & (ys >= y0) & (ys <= y1))
        if not runs:
            with pytest.raises(EmptyTrace):
                pf.trace_curve(curve, viewport)
            continue
        got = pf.trace_curve(curve, viewport).pieces()
        assert len(got) == len(runs), curve.kind
        for comp, (s, e) in zip(got, runs):
            for mine, want in zip(comp, (xs, ys, ts)):
                assert mine.tobytes() == want[s:e].tobytes(), curve.kind


@pytest.mark.parametrize("kwargs", [{"samples": 0}, {"step": math.nan}, {"step": math.inf},
                                    {"step": 0.0}],
                         ids=["samples=0", "step=nan", "step=inf", "step=0"])
def test_trace_rejects_bad_sampling_arguments(kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            pf.trace_curve(pf.parabola(1, 0, 0), VP, **kwargs)


def _loop_samples(traces):
    """The component loop that gathered every trace's samples for the
    brute-force count before the sample table, kept as its oracle: the
    samples concatenated, and per component its first row, size, curve
    and index within its trace."""
    parts = [comp for trace in traces for comp in trace.pieces()]
    size = np.array([len(part[0]) for part in parts], dtype=np.int64)
    count = np.array([len(trace.pieces()) for trace in traces], dtype=np.int64)
    first = np.cumsum(count) - count
    curve = np.repeat(np.arange(len(traces)), count)
    xs, ys, ts = (np.concatenate([np.zeros(0)] + [part[v] for part in parts]) for v in range(3))
    return xs, ys, ts, np.cumsum(size) - size, size, curve, np.arange(len(parts)) - first[curve]


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("theta", [None, 0.3, math.pi / 2 - 1e-9])
def test_trace_table_equals_the_component_loop(seed, theta):
    scene = gen.random_scene(TABLE_KINDS, m=0, n=24, planted=0.0, seed=seed)
    # large circles, cut by the viewport's sides into several components
    scene.curves += [pf.circle(0.2, -0.1, 5.3), pf.circle(0.0, 0.0, 4.5)]
    if theta is not None:
        scene = rotate_scene(scene, theta)
    traces = scene.traces()
    assert sum(len(trace.pieces()) for trace in traces) > len(traces)  # some split
    table = trace_table(traces)
    xs, ys, ts, start, size, curve, local = _loop_samples(traces)
    for mine, want in ((table.xs, xs), (table.ys, ys), (table.ts, ts), (table.start, start),
                       (table.size, size), (table.curve, curve),
                       (np.arange(len(size)) - table.first(table.curve), local),
                       (table.piece_ids(), np.repeat(np.arange(len(size)), size))):
        assert mine.dtype == want.dtype and mine.tobytes() == want.tobytes()
    # a trace holds only its components' samples, as views of its columns
    for trace in traces:
        assert trace.n_samples == len(trace.xs) == trace.size.sum()
        for xs, _, ts in trace.pieces():
            assert xs.base is trace.xs and ts.base is trace.ts


# -- apply_linear_transform ----------------------------------------------------

def test_identity_transform_keeps_exp_field():
    c = pf.exp_curve()
    out = pf.apply_linear_transform(c, 1, 0, 0, 1)
    assert out.field.vx.terms == {(0, 0): 1.0}
    assert out.field.vy.terms == {(0, 1): 1.0}


def test_swap_reflection_fixes_the_diagonal_line():
    c = pf.line(1, 0)
    out = pf.apply_linear_transform(c, 0, 1, 1, 0)
    ts = np.linspace(-1.5, 1.5, 9)
    x, y = out.point_at(ts)
    np.testing.assert_allclose(y, x, atol=1e-12)
    assert max_tangent_error(out, ts) <= 1e-6


def test_half_turn_fixes_the_diagonal_line():
    c = pf.line(1, 0)
    out = pf.apply_linear_transform(c, *rotation_matrix(math.pi))
    ts = np.linspace(-1.5, 1.5, 9)
    x, y = out.point_at(ts)
    np.testing.assert_allclose(y, x, atol=1e-12)


def test_rotated_exp_matches_pointwise_rotation():
    c = pf.exp_curve()
    theta = 0.3
    rot = pf.apply_linear_transform(c, *rotation_matrix(theta))
    ts = np.linspace(-2, 1.2, 200)
    bx, by = c.point_at(ts)
    rx = math.cos(theta) * bx - math.sin(theta) * by
    ry = math.sin(theta) * bx + math.cos(theta) * by
    ox, oy = rot.point_at(ts)
    assert np.max(np.hypot(ox - rx, oy - ry)) <= 1e-9


def test_transform_roundtrip_reproduces_trace():
    c = pf.circle(0.5, -0.25, 1.0)
    fwd = pf.apply_linear_transform(c, 1.5, 0.25, -0.5, 2.0)
    det = 1.5 * 2.0 - 0.25 * (-0.5)
    back = pf.apply_linear_transform(fwd, 2.0 / det, -0.25 / det, 0.5 / det, 1.5 / det)
    ts = np.linspace(0.1, 6.1, 500)
    bx, by = c.point_at(ts)
    ox, oy = back.point_at(ts)
    assert np.max(np.hypot(ox - bx, oy - by)) <= 1e-8


def test_singular_matrix_rejected():
    with pytest.raises(SingularMatrix):
        pf.apply_linear_transform(pf.line(1, 0), 1, 2, 2, 4)


def test_transformed_field_matches_tangents():
    base = pf.exp_curve()
    rot = pf.apply_linear_transform(base, *rotation_matrix(0.7))
    ts = np.linspace(-1.5, 1.0, 120)
    assert max_tangent_error(rot, ts) <= 1e-6


def _bits(poly):
    """The terms of poly in their order, each coefficient's bits as hex."""
    return [(key, c.hex()) for key, c in poly.terms.items()]


def test_twice_transformed_curve_equals_its_scene_round_trip():
    # the field follows from kind, params and transform: two transforms in
    # turn and their product read back from JSON give the same bits
    curve = pf.apply_linear_transform(pf.parabola(0.7, -0.3, 0.2), *rotation_matrix(0.3))
    curve = pf.apply_linear_transform(curve, *rotation_matrix(1.1))
    other = pf.circle(0.2, 0.1, 1.5)
    vp = (-3.0, 3.0, -3.0, 3.0)
    back = scene_from_dict(json.loads(scene_to_json(Scene(np.zeros((0, 2)), [curve, other], vp))))
    assert back.curves[0].transform == curve.transform
    for name in ("vx", "vy", "vx_rate"):
        assert _bits(getattr(back.curves[0].field, name)) == _bits(getattr(curve.field, name))

    def crossings(c1, c2):
        return pf.intersect_curves(c1, c2, pf.trace_curve(c1, vp), pf.trace_curve(c2, vp))

    points = crossings(curve, other)
    assert len(points) == 2
    assert crossings(*back.curves) == points


# -- compose_with_polynomial ----------------------------------------------------

def test_compose_exp_with_quadratic():
    out = pf.compose_with_polynomial(pf.exp_curve(), (3.0, -5.0, 1.0))
    assert out.kind == "exp-of-poly"
    _, y = out.point_at(2.0)
    assert math.isclose(y, math.exp(4 - 10 + 3), rel_tol=1e-12)


def test_compose_with_identity_polynomial_is_noop():
    base = pf.exp_curve()
    out = pf.compose_with_polynomial(base, (0.0, 1.0))
    ts = np.linspace(-1, 1, 50)
    np.testing.assert_allclose(out.point_at(ts)[1], base.point_at(ts)[1], rtol=1e-14)


def test_compose_doubling_hits_e_squared():
    out = pf.compose_with_polynomial(pf.exp_curve(), (0.0, 2.0))
    _, y = out.point_at(1.0)
    assert abs(y - 7.38905609893065) <= 1e-9


def test_compose_rejects_non_graph_kinds():
    with pytest.raises(NotComposable):
        pf.compose_with_polynomial(pf.circle(0, 0, 1), (0.0, 1.0))
    with pytest.raises(NotComposable):
        pf.compose_with_polynomial(pf.parabola(1, 0, 0), (0.0, 1.0))
    with pytest.raises(NotComposable, match="misses the base domain"):  # -1 - x^2 < 0 < a/x
        pf.curves.composed("reciprocal", (1.0, 1), (-1.0, 0.0, -1.0))


def test_composed_trace_equals_nested_evaluation():
    p = (0.5, -1.0, 0.25)
    out = pf.compose_with_polynomial(pf.exp_curve(), p)
    xs = np.linspace(-2, 2, 101)
    _, ys = out.point_at(xs)
    truth = np.exp(0.5 - xs + 0.25 * xs ** 2)
    assert np.max(np.abs(ys - truth)) <= 1e-9


def test_composed_tan_field_is_consistent():
    out = pf.compose_with_polynomial(pf.tan_curve(0), (0.0, 0.5))
    ts = np.linspace(-2.8, 2.8, 100)
    assert max_tangent_error(out, ts) <= 1e-5


# -- separating-condition report -----------------------------------------------

def test_parabola_report_passes_first_two_conditions():
    c = pf.parabola(1, 0, 0)
    tr = pf.trace_curve(c, VP)
    rep = pf.check_separating_conditions(c, tr)
    assert rep.directional_match and rep.nonvanishing


def test_circle_field_has_unit_norm_on_trace():
    c = pf.circle(0, 0, 1)
    tr = pf.trace_curve(c, VP)
    rep = pf.check_separating_conditions(c, tr)
    assert rep.nonvanishing
    assert abs(rep.min_field_norm - 1.0) <= 1e-9


def test_wrong_field_fails_direction_check():
    class WrongField(pf.PfaffianCurve):  # the parabola y = x^2 with the field of y = 1.5 x^2
        field = PolyVectorField(BivariatePolynomial.const(1.0), BivariatePolynomial({(1, 0): 3.0}))

    bad = WrongField("parabola", (1.0, 0.0, 0.0))
    tr = pf.trace_curve(bad, VP)
    rep = pf.check_separating_conditions(bad, tr)
    assert not rep.directional_match
    assert rep.max_direction_error > 0.1


# -- catalog-wide tangent consistency --------------------------------------------

CATALOG = [
    pf.line(0.7, -0.3),
    pf.circle(0.2, -0.1, 1.3),
    pf.parabola(-0.8, 0.4, 0.6),
    pf.exp_curve(1.2, 0.9),
    pf.log_curve(0.8, 0.1),
    pf.tan_curve(0),
    pf.arctan_curve(),
    pf.reciprocal_curve(1.5, 1),
    pf.exp_of_poly((0.1, -0.4, 0.3)),
    pf.reciprocal_root(2),
    pf.compose_with_polynomial(pf.exp_curve(), (0.0, -1.0, 0.5)),
]


@pytest.mark.parametrize("curve", CATALOG, ids=lambda c: c.kind)
def test_numeric_tangent_agrees_with_field(curve):
    trace = pf.trace_curve(curve, (-2.5, 2.5, -2.5, 2.5), samples=256)
    ts = np.concatenate([t[1:-1] for _, _, t in trace.pieces()])
    assert len(ts) >= 100
    assert max_tangent_error(curve, ts, h=1e-6) <= 1e-5


def test_pf_degree_equals_field_degree():
    for curve in CATALOG:
        assert curve.pf_degree == curve.field.degree


# -- the kind table ---------------------------------------------------------------

KIND_EXAMPLES = {c.kind: c for c in CATALOG[:-1]}
KIND_EXAMPLES["composed"] = pf.compose_with_polynomial(pf.tan_curve(0), (0.0, 0.5))
KIND_EXAMPLES_ORDER = {kind: i for i, kind in enumerate(KIND_EXAMPLES)}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_kind_record_roundtrips_and_inverts(kind):
    curve = KIND_EXAMPLES[kind]
    assert curve.kind == kind
    scene = Scene(np.zeros((0, 2)), [curve], VP)
    back = scene_from_dict(scene_to_dict(scene))
    assert back.curves[0].params == curve.params
    assert scene_to_json(back) == scene_to_json(scene)

    trace = pf.trace_curve(curve, (-2.5, 2.5, -2.5, 2.5), samples=256)
    ts = np.concatenate([t[1:-1] for _, _, t in trace.pieces()])
    assert max_tangent_error(curve, ts) <= 1e-5

    for t in ts[::16]:
        x, y = curve.point_at(t)
        back_t = curve.param_from_x(float(x), t)
        assert back_t is not None
        bx, by = curve.point_at(back_t)
        assert abs(bx - x) <= 1e-9 and abs(by - y) <= 1e-7


def test_circle_inverse_clamps_like_the_scalar_min_max():
    # the clamp was min(1.0, max(-1.0, u)) per entry, which sends NaN to -1.0
    rng = np.random.default_rng(24)
    specials = [math.nan, 0.0, -0.0, 1.0, -1.0, math.inf, -math.inf,
                math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0),
                math.nextafter(-1.0, -2.0), math.nextafter(-1.0, 0.0)]
    u = np.concatenate([rng.uniform(-1.2, 1.2, 200_000), specials])
    want = np.array([math.acos(min(1.0, max(-1.0, v))) for v in u.tolist()])
    got = pf.curves._circle_t((0.0, 0.0, 1.0), u, np.zeros_like(u))
    assert got.tobytes() == want.tobytes()


# -- curve tables -----------------------------------------------------------------

TRANSFORMED = [pf.apply_linear_transform(pf.circle(0.3, 0.1, 1.1), *rotation_matrix(0.7)),
               pf.apply_linear_transform(pf.circle(-0.2, 0.4, 0.9), *rotation_matrix(1.1)),
               pf.apply_linear_transform(pf.parabola(1.0, 0.0, 0.0), *rotation_matrix(0.4)),
               pf.apply_linear_transform(pf.exp_curve(), 2.0, 0.0, 0.0, 1.0)]
# every kind, second curves of some kinds (more rows of a group), transformed curves
TABLE_CURVES = list(KIND_EXAMPLES.values()) + [
    pf.line(-0.3, 0.2), pf.circle(-0.4, 0.3, 0.8), pf.exp_of_poly((0.2, -0.1, 0.4), 0.7),
    pf.compose_with_polynomial(pf.tan_curve(0), (0.1, 0.3)),
    pf.compose_with_polynomial(pf.reciprocal_curve(2.0, 1), (1.0, 0.5)),
    pf.reciprocal_root(3)] + TRANSFORMED
TABLE_WINDOWS = [c.t_window((-2.5, 2.5, -2.5, 2.5)) for c in TABLE_CURVES]


def _same(got, want):
    return np.array_equal(got, np.broadcast_to(want, got.shape), equal_nan=True)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, len(TABLE_CURVES) - 1), st.floats(0.0, 1.0)),
                max_size=60))
def test_table_lanes_equal_their_curves_bit_for_bit(draws):
    cid = np.array([c for c, _ in draws], dtype=np.int64)
    t = np.array([TABLE_WINDOWS[c][0] + u * (TABLE_WINDOWS[c][1] - TABLE_WINDOWS[c][0])
                  for c, u in draws])
    lanes = CurveTable(TABLE_CURVES).lanes(cid)
    with np.errstate(all="ignore"):
        x, y = lanes.point_at(t)
        vx, vy = lanes.field_at(x, y)
        rate = lanes.poly("vx_rate", x, y)
        # transformed curves refine x(t) = x from a bracket about t
        a, b = t - 1e-3, t + 1e-3
        xa, xb = lanes.point_at(a)[0], lanes.point_at(b)[0]
        back = lanes.param_from_x(x, t, lambda s: (a[s], b[s], xa[s] - x[s], xb[s] - x[s]))
        for c, curve in enumerate(TABLE_CURVES):
            on = cid == c
            cx, cy = curve.point_at(t[on])
            assert _same(x[on], cx) and _same(y[on], cy), curve
            cvx, cvy = curve.field_at(cx, cy)
            assert _same(vx[on], cvx) and _same(vy[on], cvy), curve
            assert _same(rate[on], curve.field.vx_rate(cx, cy)), curve
            want = curve.param_from_x(cx, t[on])
            if want is None:
                def along(u, lanes, cx=cx):
                    px, py = curve.point_at(u)
                    return px - cx[lanes], curve.field.vx(px, py)

                ca, cb = a[on], b[on]
                want = refine_roots(along, ca, cb, curve.point_at(ca)[0] - cx,
                                    curve.point_at(cb)[0] - cx)
            assert _same(back[on], want), curve


def test_table_groups_curves_by_signature():
    table = CurveTable(TABLE_CURVES)
    # the kinds, each a group, one more for a second composed base kind and
    # one per transformed signature: two rotated circles share one
    assert len(table.groups) == len(KIND_EXAMPLES) + 1 + 3
    assert table.group[-4] == table.group[-3] != table.group[KIND_EXAMPLES_ORDER["circle"]]


# -- root refinement ---------------------------------------------------------------


def test_refine_root_newton_stops_at_converged_step():
    # circle vx = -sin t; a converged Newton step can round an ulp outside the
    # bracket, which must end the search rather than fall back to bisection
    c = pf.circle(0.0, 0.0, 1.0)
    calls = []

    def vx(t):
        calls.append(t)
        return c.field.vx(*c.point_at(t))

    def vx_rate(t):
        calls.append(t)
        return c.field.vx_rate(*c.point_at(t))

    a, b = np.array([3.13]), np.array([3.15])
    (t,) = refine_roots(lambda t, lanes: (vx(t), vx_rate(t)), a, b, vx(a), vx(b))
    assert abs(t - math.pi) <= 1e-14
    assert len(calls) <= 6


@pytest.mark.parametrize("with_slope", [True, False], ids=["newton", "bisection"])
@pytest.mark.parametrize("bracket", [(-3.0, 0.0), (0.0, 3.0)])
def test_refine_root_matches_brentq(bracket, with_slope):
    def f(x):
        return np.exp(x) - x - 2.0

    def with_rate(x, lanes):
        return f(x), (np.exp(x) - 1.0 if with_slope else 0.0)

    a, b = (np.array([v]) for v in bracket)
    (root,) = refine_roots(with_rate, a, b, f(a), f(b))
    assert abs(root - brentq(f, *bracket, xtol=1e-15)) <= 1e-14


def test_refine_roots_takes_the_scalar_steps_in_every_lane():
    # f = x^3 - c has f' = 0 at 0, so brackets near 0 bisect and the others
    # take Newton steps; the lanes must end exactly where refine_root ends
    rng = np.random.default_rng(5)
    root = np.concatenate([rng.uniform(-1.0, 1.0, 300), [0.5, -0.25, 0.0]])
    c = root * root * root
    a = root - rng.uniform(1e-9, 1.5, len(root))
    b = root + rng.uniform(1e-9, 1.5, len(root))
    fa, fb = a * a * a - c, b * b * b - c
    assert np.all((fa < 0) & (fb > 0))
    # the same brackets given from the + end, and brackets with a root at an
    # end (0.5 and -0.25 cube exactly), which end before the first round
    c = np.concatenate([c, c[:100], [0.125, -0.015625, 0.125]])
    a, b = (np.concatenate([a, b[:100], [0.5, -1.0, 0.0]]),
            np.concatenate([b, a[:100], [1.0, -0.25, 0.5]]))
    fa, fb = a * a * a - c, b * b * b - c
    assert np.count_nonzero((fa == 0) | (fb == 0)) == 3
    rounds = []

    def f(x, lanes):
        rounds.append(len(lanes))
        return x * x * x - c[lanes], 3.0 * x * x

    got = refine_roots(f, a, b, fa, fb)
    want = [refine_root(lambda x: x * x * x - ck, ak, bk, lambda x: 3.0 * x * x, fak, fbk)
            for ck, ak, bk, fak, fbk in zip(c, a, b, fa, fb)]
    assert got.tolist() == want
    assert rounds[0] == len(c) - 3 and rounds == sorted(rounds, reverse=True)


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(pf.__file__)))
    code = "import sys, pfaffinc; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("base, q", [
    (pf.tan_curve(1), {(0, 0): 1.0, (0, 2): 1.0}),  # tan' = 1 + tan^2
    (pf.reciprocal_curve(-2.5, -1), {(0, 2): -1.0 / -2.5}),  # (a/x)' = -(a/x)^2 / a
], ids=["tan", "reciprocal"])
def test_composed_field_is_the_chain_rule_in_the_value(base, q):
    # the base curve's own vy is its derivative as a polynomial in its value
    coeffs = (0.3, -1.2, 0.7)
    out = pf.compose_with_polynomial(base, coeffs)
    dp = poly1_der(coeffs)
    want = BivariatePolynomial(q) * BivariatePolynomial({(k, 0): c for k, c in enumerate(dp)})
    assert list(out.field.vy.terms.items()) == list(want.terms.items())
    assert list(out.field.vx.terms.items()) == [((0, 0), 1.0)]
    ts = np.linspace(-0.4, 0.4, 41)
    u = poly1_eval(coeffs, ts)
    value = np.tan(u) if base.kind == "tan" else base.params[0] / u
    assert out.point_at(ts)[1].tobytes() == value.tobytes()


def test_only_tan_and_reciprocal_compose_by_the_chain_rule():
    assert [k for k, spec in KINDS.items() if spec.composable] == ["tan", "reciprocal"]


# -- field, domain and degree from the kind records ---------------------------------


def _fld(vx_terms, vy_terms):
    return PolyVectorField(BivariatePolynomial(vx_terms), BivariatePolynomial(vy_terms))


def _reference_composed_domain(base_domain, coeffs):
    """Widest open t-interval with p(t) inside the base domain."""
    lo, hi = base_domain
    breaks = []
    cpoly = np.polynomial.polynomial.Polynomial(coeffs)
    for bound in (lo, hi):
        if math.isfinite(bound):
            shifted = cpoly - bound
            if shifted.degree() >= 1:
                breaks.extend(r.real for r in shifted.roots() if abs(r.imag) < 1e-9)
    cuts = sorted(set([-1e6, 1e6] + breaks))
    best, best_width = None, 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b - a < 1e-9:
            continue
        if lo < poly1_eval(coeffs, 0.5 * (a + b)) < hi and (best is None or b - a > best_width):
            best = (a if a > -1e6 else -math.inf, b if b < 1e6 else math.inf)
            best_width = b - a
    if best is None:
        raise NotComposable("composition image misses the base domain")
    return best


def _reference(kind, args):
    """The field and domain of the untransformed curve factory(*args), built
    term by term from the factory's raw arguments: the reference for the
    kind records."""
    inf = math.inf
    if kind == "line":
        a, b = args
        return _fld({(0, 0): 1.0}, {(0, 0): float(a)} if a else None), (-inf, inf)
    if kind == "circle":
        cx, cy, r = args
        return _fld({(0, 0): cy, (0, 1): -1.0}, {(1, 0): 1.0, (0, 0): -cx}), (0.0, 2.0 * math.pi)
    if kind == "parabola":
        a, b, c = args
        return _fld({(0, 0): 1.0}, {(1, 0): 2.0 * a, (0, 0): b}), (-inf, inf)
    if kind == "exp":
        return _fld({(0, 0): 1.0}, {(0, 1): float(args[1])}), (-inf, inf)
    if kind == "log":
        s = args[0]
        return _fld({(1, 0): 1.0}, {(0, 0): float(s)} if s else None), (-inf, inf)
    if kind == "tan":
        mid = args[0] * math.pi
        return (_fld({(0, 0): 1.0}, {(0, 0): 1.0, (0, 2): 1.0}),
                (mid - math.pi / 2, mid + math.pi / 2))
    if kind == "arctan":
        return _fld({(0, 0): 1.0, (2, 0): 1.0}, {(0, 0): 1.0}), (-math.pi / 2, math.pi / 2)
    if kind == "reciprocal":
        a, branch = args
        return (_fld({(0, 0): 1.0}, {(0, 2): -1.0 / a}),
                (0.0, inf) if branch > 0 else (-inf, 0.0))
    if kind == "exp-of-poly":
        dp = poly1_der(tuple(float(c) for c in args[0]))
        return _fld({(0, 0): 1.0}, {(k, 1): c for k, c in enumerate(dp)}), (-inf, inf)
    if kind == "reciprocal-root":
        return _fld({(1, 0): 1.0}, {(0, 1): -1.0 / int(args[0])}), (-inf, inf)
    assert kind == "composed"
    base_kind, base_args, coeffs = args
    base_field, base_domain = _reference(base_kind, base_args)
    coeffs = tuple(float(c) for c in coeffs)
    dp = BivariatePolynomial({(k, 0): c for k, c in enumerate(poly1_der(coeffs))})
    return (PolyVectorField(BivariatePolynomial.const(1.0), base_field.vy * dp),
            _reference_composed_domain(base_domain, coeffs))


_NUM = st.one_of(st.integers(-3, 3), st.floats(-3, 3))
_NONZERO = _NUM.filter(lambda v: v != 0)
_ARGS = {  # kind -> factory arguments
    "line": st.tuples(_NUM, _NUM),
    "circle": st.tuples(_NUM, _NUM, _NUM.filter(lambda v: v > 0)),
    "parabola": st.tuples(_NONZERO, _NUM, _NUM),
    "exp": st.tuples(_NONZERO, _NONZERO),
    "log": st.tuples(_NUM, _NUM),
    "tan": st.tuples(st.integers(-2, 2)),
    "arctan": st.just(()),
    "reciprocal": st.tuples(_NONZERO, st.sampled_from([1, -1])),
    "exp-of-poly": st.tuples(st.lists(_NUM, min_size=1, max_size=4), _NONZERO),
    "reciprocal-root": st.tuples(st.integers(1, 5)),
    "composed": st.sampled_from(["tan", "reciprocal"]).flatmap(lambda base: st.tuples(
        st.just(base), _ARGS[base], st.lists(_NUM, min_size=1, max_size=3))),
}
_MATRIX = st.tuples(*[st.floats(-2, 2)] * 4).filter(lambda m: abs(m[0] * m[3] - m[1] * m[2]) > 1e-3)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # tiny drawn numbers overflow on both sides
@pytest.mark.parametrize("transformed", [False, True], ids=["plain", "transformed"])
@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_kind_records_give_the_reference_field_domain_and_degree(kind, transformed, data):
    args = data.draw(_ARGS[kind], label="args")
    try:
        field, domain = _reference(kind, args)
    except Exception as err:  # NotComposable, or roots of tiny coefficients overflow
        with pytest.raises(type(err)):
            KINDS[kind].factory(*args)
        return
    curve = KINDS[kind].factory(*args)
    if transformed:
        m = data.draw(_MATRIX, label="transform")
        curve = pf.apply_linear_transform(curve, *m)
        field = transform_field(field, m)
    assert _bits(curve.field.vx) == _bits(field.vx)
    assert _bits(curve.field.vy) == _bits(field.vy)
    assert not (curve.field.vx.is_zero() and curve.field.vy.is_zero())
    assert [v.hex() for v in map(float, curve.domain)] == [v.hex() for v in map(float, domain)]
    assert curve.pf_degree == field.degree
