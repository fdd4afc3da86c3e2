import itertools
import math

import numpy as np
import pytest
from scipy.optimize import brentq

import pfaffinc as pf
from pfaffinc.errors import SharedComponent
from pfaffinc.incidence import point_curve_distance
from pfaffinc.intersect import monotone_branches

VP = (-3.0, 3.0, -1.0, 8.0)


def _pair(c1, c2, viewport, tol=1e-9):
    t1 = pf.trace_curve(c1, viewport)
    t2 = pf.trace_curve(c2, viewport)
    return pf.intersect_curves(c1, c2, t1, t2, tol), t1, t2


# -- intersect_curves -------------------------------------------------------------

def test_line_meets_exp_twice_at_known_roots():
    # independent oracle: sign-change bisection on exp(x) - x - 2
    r1 = brentq(lambda x: math.exp(x) - x - 2, -3, 0, xtol=1e-14)
    r2 = brentq(lambda x: math.exp(x) - x - 2, 0, 2, xtol=1e-14)
    pts, _, _ = _pair(pf.line(1, 2), pf.exp_curve(), VP)
    assert len(pts) == 2
    xs = sorted(p[0] for p in pts)
    assert abs(xs[0] - r1) <= 1e-9 and abs(xs[1] - r2) <= 1e-9
    assert abs(xs[0] + 1.841406) <= 1e-5 and abs(xs[1] - 1.146193) <= 1e-5


def test_two_lines_meet_once_at_origin():
    pts, _, _ = _pair(pf.line(1, 0), pf.line(-1, 0), (-2, 2, -2, 2))
    assert len(pts) == 1
    assert math.hypot(*pts[0]) <= 1e-9


def test_circle_misses_distant_line():
    pts, _, _ = _pair(pf.circle(0, 0, 1), pf.line(0, 2), (-2.5, 2.5, -2.5, 2.5))
    assert pts == []


def test_tangential_contact_reported_once():
    pts, _, _ = _pair(pf.parabola(1, 0, 0), pf.line(0, 0), (-2, 2, -2, 2))
    assert len(pts) == 1
    assert math.hypot(*pts[0]) <= 1e-6


def test_identical_lines_raise_shared_component():
    a, b = pf.line(1, 0, label="a"), pf.line(1, 0, label="b")
    ta = pf.trace_curve(a, (-2, 2, -2, 2))
    tb = pf.trace_curve(b, (-2, 2, -2, 2))
    with pytest.raises(SharedComponent):
        pf.intersect_curves(a, b, ta, tb)


# -- pfaffian_bezout_bound ----------------------------------------------------------

def test_bound_values():
    assert pf.pfaffian_bezout_bound(1, 1) == 8
    assert pf.pfaffian_bezout_bound(0, 0) == 1
    assert pf.pfaffian_bezout_bound(2, 3) == 38


def test_bound_is_asymmetric_formula():
    assert pf.pfaffian_bezout_bound(2, 3) == (2 + 3) * (2 * 2 + 3) + 2 + 1
    assert pf.pfaffian_bezout_bound(3, 2) == (3 + 2) * (2 * 3 + 2) + 3 + 1


# -- vertical tangents ----------------------------------------------------------------

def test_unit_circle_vertical_tangents():
    c = pf.circle(0, 0, 1)
    tr = pf.trace_curve(c, (-2, 2, -2, 2))
    pts = pf.vertical_tangent_points(c, tr)
    assert len(pts) == 2
    got = sorted(pts)
    assert math.hypot(got[0][0] + 1, got[0][1]) <= 1e-8
    assert math.hypot(got[1][0] - 1, got[1][1]) <= 1e-8


def test_line_has_no_vertical_tangents():
    c = pf.line(2, 0)
    tr = pf.trace_curve(c, (-2, 2, -5, 5))
    assert pf.vertical_tangent_points(c, tr) == []


def test_stretched_circle_tangents_at_extreme_x():
    ell = pf.apply_linear_transform(pf.circle(0, 0, 1), 2, 0, 0, 1)
    tr = pf.trace_curve(ell, (-3, 3, -2, 2))
    pts = sorted(pf.vertical_tangent_points(ell, tr))
    assert len(pts) == 2
    assert math.hypot(pts[0][0] + 2, pts[0][1]) <= 1e-8
    assert math.hypot(pts[1][0] - 2, pts[1][1]) <= 1e-8


def test_graph_kinds_have_no_vertical_tangents(corpus):
    curves, traces, _vp = corpus
    for c, t in zip(curves, traces):
        if c.kind != "circle":
            assert pf.vertical_tangent_points(c, t) == []


# -- check_bezout --------------------------------------------------------------------

def test_check_bezout_for_lines():
    a, b = pf.line(1, 0), pf.line(-1, 0)
    pts, _, _ = _pair(a, b, (-2, 2, -2, 2))
    assert pf.check_bezout(a, b, pts)


def test_check_bezout_circle_vs_line():
    c, l = pf.circle(0, 0, 1), pf.line(0.2, 0.1)
    pts, _, _ = _pair(c, l, (-2, 2, -2, 2))
    assert len(pts) == 2
    assert pf.check_bezout(c, l, pts)


def test_check_bezout_tan_vs_diagonal():
    # oracle: tan x - x has a single root in one period (at x = 0)
    t, l = pf.tan_curve(0), pf.line(1, 0)
    pts, _, _ = _pair(t, l, (-2, 2, -4, 4))
    assert len(pts) == 1
    assert abs(pts[0][0]) <= 1e-8
    assert pf.check_bezout(t, l, pts)


# -- corpus invariants -----------------------------------------------------------------

def test_corpus_counts_stay_under_ceiling(corpus):
    curves, traces, _vp = corpus
    for i, j in itertools.combinations(range(len(curves)), 2):
        pts = pf.intersect_curves(curves[i], curves[j], traces[i], traces[j])
        bound = pf.pfaffian_bezout_bound(curves[i].pf_degree, curves[j].pf_degree)
        assert len(pts) <= bound, (curves[i].label, curves[j].label)


def test_corpus_intersections_lie_on_both_curves(corpus):
    curves, traces, _vp = corpus
    for i, j in itertools.combinations(range(len(curves)), 2):
        for p in pf.intersect_curves(curves[i], curves[j], traces[i], traces[j]):
            assert point_curve_distance(curves[i], traces[i], p) <= 1e-6
            assert point_curve_distance(curves[j], traces[j], p) <= 1e-6


def test_corpus_intersection_is_symmetric(corpus):
    curves, traces, _vp = corpus
    for i, j in itertools.combinations(range(len(curves)), 2):
        ab = pf.intersect_curves(curves[i], curves[j], traces[i], traces[j])
        ba = pf.intersect_curves(curves[j], curves[i], traces[j], traces[i])
        assert len(ab) == len(ba)
        for p, q in zip(sorted(ab), sorted(ba)):
            assert math.hypot(p[0] - q[0], p[1] - q[1]) <= 1e-8


def test_vertical_tangent_count_bounded_by_self_ceiling(corpus):
    curves, traces, _vp = corpus
    for c, t in zip(curves, traces):
        pts = pf.vertical_tangent_points(c, t)
        assert len(pts) <= pf.pfaffian_bezout_bound(c.pf_degree, c.pf_degree)


def test_vertical_tangent_residual_is_tiny():
    c = pf.circle(0.3, -0.2, 1.4)
    tr = pf.trace_curve(c, (-2, 2, -2, 2))
    for x, y in pf.vertical_tangent_points(c, tr):
        assert abs(c.field.vx(x, y)) <= 1e-10


def test_y_at_on_rotated_parabola_matches_closed_form():
    # y = x^2 rotated by theta: the point of parameter u is
    # (c u - s u^2, s u + c u^2), so x fixes u by the quadratic formula
    theta = 0.4
    c, s = math.cos(theta), math.sin(theta)
    curve = pf.apply_linear_transform(pf.parabola(1.0, 0.0, 0.0), c, -s, s, c)
    trace = pf.trace_curve(curve, (-2.0, 2.0, -2.0, 2.0))
    branches = monotone_branches(curve, trace)
    assert len(branches) == 2
    for br in branches:
        sign = 1.0 if br.t_mid > c / (2 * s) else -1.0
        for x in np.linspace(br.x_lo, br.x_hi, 41)[1:-1]:
            u = (c + sign * math.sqrt(c * c - 4 * s * x)) / (2 * s)
            assert abs(br.y_at(float(x)) - (s * u + c * u * u)) <= 1e-12
