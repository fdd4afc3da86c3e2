import json
import math

import numpy as np
import pytest

import pfaffinc as pf
from conftest import refine_root
from pfaffinc import duality as du
from pfaffinc import generators as gen
from pfaffinc import incidence as inc
from pfaffinc.errors import ChainMismatch, DegenerateDual, DuplicateCurve

LINES3 = du.PfaffianFamily([du.monomial(0, 0), du.monomial(1, 0), du.monomial(0, 1)],
                           (-3.0, 3.0, -3.0, 3.0))


# -- dual_point ------------------------------------------------------------------

def test_dual_point_is_normalized_coefficient_vector():
    c = du.FamilyCurve(np.array([0.0, 1.0, -1.0]))
    np.testing.assert_allclose(du.dual_point(c),
                               [0.0, 1 / math.sqrt(2), -1 / math.sqrt(2)])


def test_normalized_coefficients_pass_through():
    v = np.array([0.6, 0.8, 0.0])
    np.testing.assert_allclose(du.dual_point(du.FamilyCurve(v)), v)


def test_proportional_coefficients_rejected():
    with pytest.raises(DuplicateCurve):
        du.family_curve_set([[1.0, 2.0, 3.0], [-2.0, -4.0, -6.0]], 3)


def test_zero_vector_rejected():
    with pytest.raises(ValueError):
        du.FamilyCurve(np.zeros(3))


# -- dual_hyperplane ---------------------------------------------------------------

def test_hyperplane_normal_is_term_vector():
    h = du.dual_hyperplane(LINES3, (1.0, 2.0))
    np.testing.assert_allclose(h.normal, [1.0, 1.0, 2.0])


def test_hyperplane_at_origin():
    h = du.dual_hyperplane(LINES3, (0.0, 0.0))
    np.testing.assert_allclose(h.normal, [1.0, 0.0, 0.0])


def test_incidence_equivalence_on_diagonal_line():
    # y = x  <->  coefficients (0, 1, -1)
    c = du.FamilyCurve(np.array([0.0, 1.0, -1.0]))
    p = (0.7, 0.7)
    h = du.dual_hyperplane(LINES3, p)
    assert abs(np.dot(du.dual_point(c), h.normal)) <= 1e-12


def test_degenerate_dual_raises():
    fam = du.PfaffianFamily([du.monomial(1, 0), du.monomial(0, 1)],
                            (-2.0, 2.0, -2.0, 2.0))
    with pytest.raises(DegenerateDual):
        du.dual_hyperplane(fam, (0.0, 0.0))


# -- generic_rotation ----------------------------------------------------------------

def test_rotation_preserves_incidence_counts():
    points, family, curves = gen.duality_scene(3, 30, 20, seed=2)
    dual_pts = np.stack([du.dual_point(c) for c in curves])
    normals = np.stack([du.dual_hyperplane(family, p).normal for p in points])
    before, _ = du.count_hyperplane_incidences(dual_pts, normals)
    rp, rn, q = du.generic_rotation(dual_pts, normals, seed=4)
    after, _ = du.count_hyperplane_incidences(rp, rn)
    assert before == after
    np.testing.assert_allclose(q @ q.T, np.eye(3), atol=1e-12)


def test_rotation_clears_zero_first_coordinates():
    pts = np.array([[0.0, 1.0, 0.0], [0.3, 0.1, 0.9]])
    normals = np.array([[0.0, 0.0, 1.0]])
    rp, rn, _q = du.generic_rotation(pts, normals, seed=0)
    assert np.all(np.abs(rp[:, 0]) > 1e-9)
    assert np.all(np.abs(rn[:, 0]) > 1e-9)


def test_rotation_is_seed_deterministic():
    pts = np.array([[0.5, 0.5, 0.70710678]])
    _, _, q1 = du.generic_rotation(pts, pts, seed=11)
    _, _, q2 = du.generic_rotation(pts, pts, seed=11)
    np.testing.assert_array_equal(q1, q2)


def test_rotation_gives_up_on_impossible_threshold():
    from pfaffinc.errors import RotationFailed

    pts = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(RotationFailed):
        du.generic_rotation(pts, pts, seed=0, threshold=0.9999, max_draws=5)


# -- project_to_pi ------------------------------------------------------------------

def test_projection_divides_by_first_coordinate():
    pts, (pn, po) = du.project_to_pi(np.array([[2.0, 4.0, 6.0]]),
                                     np.array([[1.0, 1.0, 0.0]]))
    np.testing.assert_allclose(pts, [[2.0, 3.0]])
    # the affine image of the plane z1 + z2 = 0 is z2 = -1
    np.testing.assert_allclose(pn, [[1.0, 0.0]])
    np.testing.assert_allclose(po, [-1.0])


def test_projection_preserves_pairwise_incidence():
    points, family, curves = gen.duality_scene(3, 25, 15, seed=9)
    dual_pts = np.stack([du.dual_point(c) for c in curves])
    normals = np.stack([du.dual_hyperplane(family, p).normal for p in points])
    rp, rn, _ = du.generic_rotation(dual_pts, normals, seed=1)
    proj_pts, proj_planes = du.project_to_pi(rp, rn)
    _, g_before = du.count_hyperplane_incidences(rp, rn)
    _, g_after = du.count_hyperplane_incidences(proj_pts, proj_planes)
    assert g_before.edges == g_after.edges


def test_projection_is_scale_invariant():
    base = np.array([[0.5, -1.0, 2.0]])
    scaled = 3.0 * base
    a, _ = du.project_to_pi(base, base)
    b, _ = du.project_to_pi(scaled, scaled)
    np.testing.assert_allclose(a, b)


# -- count_hyperplane_incidences ------------------------------------------------------

def test_empty_points_count_zero():
    count, graph = du.count_hyperplane_incidences(np.zeros((0, 2)),
                                                  np.ones((3, 2)))
    assert count == 0 and graph.count() == 0


def test_planar_case_agrees_with_curve_counter():
    # affine hyperplanes of the plane are lines; cross-check the two counters
    planes = [(1.0, -1.0, 0.0), (0.5, 1.0, 1.0), (0.5, 1.0, 1.5)]  # a x + b y = c
    pts = np.array([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (3.0, 0.0), (0.0, 1.0)])
    normals = np.array([[a, b] for a, b, _c in planes])
    offsets = np.array([c for _a, _b, c in planes])
    count, _ = du.count_hyperplane_incidences(pts, (normals, offsets), tol=1e-9)
    curves = [pf.line(-a / b, c / b) for a, b, c in planes]
    viewport = (-1.0, 4.0, -1.0, 2.0)
    traces = [pf.trace_curve(c, viewport) for c in curves]
    graph = inc.count_incidences(pts, curves, traces)
    manual = sum(1 for a, b, c in planes for x, y in pts
                 if abs(a * x + b * y - c) / math.hypot(a, b) <= 1e-9)
    assert count == manual == 6
    assert graph.count() == manual


def test_constructed_containments_counted_exactly():
    normals = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    pts = np.array([[0.0, 2.0, 1.0], [5.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    count, graph = du.count_hyperplane_incidences(pts, normals)
    assert count == 4
    assert (0, 0) in graph.edges and (2, 1) in graph.edges


# -- verify_duality_chain ---------------------------------------------------------------

def test_chain_counts_agree_for_line_family():
    points, family, curves = gen.duality_scene(3, 50, 40, seed=21, variant=0)
    rep = du.verify_duality_chain(points, family, curves, seed=3)
    assert rep.primal_count == rep.dual_count == rep.projected_count
    assert rep.transpose_ok


def test_chain_counts_agree_with_exponential_term():
    points, family, curves = gen.duality_scene(3, 30, 20, seed=33, variant=1)
    assert any(t.kind == "exp-poly" for t in family.terms)
    rep = du.verify_duality_chain(points, family, curves, seed=5)
    assert rep.primal_count == rep.dual_count == rep.projected_count


def test_chain_with_no_curves_is_all_zero():
    points = np.array([(0.1, 0.2), (0.5, -0.5)])
    count, graph = du.count_family_incidences(points, LINES3, [])
    assert count == 0 and graph.count() == 0


def test_chain_mismatch_raises(monkeypatch):
    points = np.array([(0.5, 0.5)])
    curves = [du.FamilyCurve(np.array([0.0, 1.0, -1.0]))]
    good = du.verify_duality_chain(points, LINES3, curves)
    assert good.counts == (1, 1, 1)

    real = du.count_hyperplane_incidences

    def broken(pts, planes, tol=1e-7):
        count, graph = real(pts, planes, tol)
        return count + 1, graph

    monkeypatch.setattr(du, "count_hyperplane_incidences", broken)
    with pytest.raises(ChainMismatch):
        du.verify_duality_chain(points, LINES3, curves)


def test_kst_ceiling_is_checked_when_configured():
    points, family, curves = gen.duality_scene(3, 30, 20, seed=41, variant=0)
    rep = du.verify_duality_chain(points, family, curves, seed=7, kst_ceiling=2)
    # two coefficient points determine one line family member: no K_{2,2}
    assert rep.kst_ceiling == 2 and rep.kst_ceiling_free is True
    plain = du.verify_duality_chain(points, family, curves, seed=7)
    assert plain.kst_ceiling_free is None


def test_transpose_relation_between_kst_checks():
    points, family, curves = gen.duality_scene(4, 30, 20, seed=8)
    rep = du.verify_duality_chain(points, family, curves, seed=2)
    primal, dual = rep.primal_graph, rep.dual_graph
    for s, t in ((2, 2), (2, 3), (3, 2)):
        assert inc.kst_free(primal, s, t) == inc.kst_free(dual, t, s)


# -- marching-squares tracer -----------------------------------------------------------

def test_family_trace_follows_the_zero_set():
    c = du.FamilyCurve(np.array([0.0, 1.0, -1.0]))  # the line y = x
    segs = du.trace_family_curve(LINES3, c, resolution=128)
    assert len(segs) > 50
    mids = segs.mean(axis=1)
    assert np.max(np.abs(mids[:, 0] - mids[:, 1])) <= 0.05


def _scalar_point_on_family_curve(family, curve, rng, resolution):
    """point_on_family_curve as it was, bisecting with the scalar refiner:
    the oracle of its one-lane run."""
    xs, ys, grids = du.term_grid(family, resolution)
    sgn = np.where(np.tensordot(curve.coeffs, grids, axes=1) >= 0, 1, -1)
    hor = np.nonzero(sgn[:-1, :] * sgn[1:, :] < 0)
    ver = np.nonzero(sgn[:, :-1] * sgn[:, 1:] < 0)
    n_h, n_v = len(hor[0]), len(ver[0])
    if n_h + n_v == 0:
        return None
    pick = int(rng.integers(0, n_h + n_v))

    def value(x, y):
        return float(np.dot(curve.coeffs, family.eval_terms(x, y)))

    if pick < n_h:
        i, j = hor[0][pick], hor[1][pick]
        y = float(ys[j])
        return refine_root(lambda x: value(x, y), float(xs[i]), float(xs[i + 1]), xtol=1e-15), y
    i, j = ver[0][pick - n_h], ver[1][pick - n_h]
    x = float(xs[i])
    return x, refine_root(lambda y: value(x, y), float(ys[j]), float(ys[j + 1]), xtol=1e-15)


def test_planted_points_equal_scalar_bisection():
    fixed = set()  # whether the grid fixed x (a vertical bracket) or y
    for d, variant in ((3, 0), (3, 1), (4, 0), (4, 1)):
        _points, family, curves = gen.duality_scene(d, 12, 8, seed=6, variant=variant)
        for seed, curve in enumerate(curves):
            for resolution in (64, 256):
                rngs = np.random.default_rng(seed), np.random.default_rng(seed)
                got = du.point_on_family_curve(family, curve, rngs[0], resolution)
                assert got == _scalar_point_on_family_curve(family, curve, rngs[1], resolution)
                fixed.add(got[0] in du.term_grid(family, resolution)[0].tolist())
    assert fixed == {True, False}


def _scalar_duality_scene(d, m, n, seed, variant):
    """duality_scene as it was: each curve accepted, and each point planted,
    by its own point_on_family_curve call with the scalar refiner; the
    oracle of the per-roll run."""
    for roll in range(50):
        rng = np.random.default_rng(seed + 1009 * roll)
        family = gen._family_for(d, variant)
        curves = []
        while len(curves) < n:
            coeffs = rng.normal(size=d)
            try:
                c = du.FamilyCurve(coeffs, label=f"curve{len(curves)}")
            except ValueError:
                continue
            if any(np.linalg.norm(c.coeffs - o.coeffs) < 1e-9 for o in curves):
                continue
            if _scalar_point_on_family_curve(family, c, rng, 64) is None:
                continue
            curves.append(c)
        x0, x1, y0, y1 = family.region
        pts = []
        planted = int(round(0.8 * m))
        tries = 0
        while len(pts) < planted and tries < 20 * planted:
            tries += 1
            p = _scalar_point_on_family_curve(family, curves[len(pts) % n], rng, 256)
            if p is not None and x0 < p[0] < x1 and y0 < p[1] < y1:
                pts.append(p)
        while len(pts) < m:
            pts.append(tuple(rng.uniform((x0 + 0.05, y0 + 0.05), (x1 - 0.05, y1 - 0.05))))
        points = np.array(pts, dtype=float).reshape(-1, 2)
        vals = family.eval_terms(points[:, 0], points[:, 1])
        denom = np.maximum(np.linalg.norm(vals, axis=0), 1e-300)
        res = np.abs(np.stack([c.coeffs for c in curves]) @ vals) / denom[None, :]
        if not np.any((res > 1e-11) & (res < 1e-5)):
            return points, curves
    raise AssertionError("no unambiguous scene")


@pytest.mark.parametrize("d, m, n, seed", [(3, 20, 12, 6), (3, 50, 40, 103), (4, 20, 12, 6),
                                           (4, 30, 20, 8), (4, 50, 40, 202)])
@pytest.mark.parametrize("variant", [0, 1])
def test_duality_scene_equals_per_point_planting(d, m, n, seed, variant):
    points, family, curves = gen.duality_scene(d, m, n, seed=seed, variant=variant)
    want_points, want_curves = _scalar_duality_scene(d, m, n, seed, variant)
    assert points.tolist() == want_points.tolist()
    assert [c.coeffs.tolist() for c in curves] == [c.coeffs.tolist() for c in want_curves]


def _count_calls(monkeypatch, module, name):
    """Count the calls of module.name, which still runs."""
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a) or fn(*a, **k))
    return calls


def test_duality_scene_refines_once_per_roll(monkeypatch):
    runs = _count_calls(monkeypatch, du, "refine_roots")
    rolls = _count_calls(monkeypatch, gen, "_family_for")
    gen.duality_scene(3, 50, 40, seed=103, variant=1)
    assert len(rolls) == 2  # the first roll leaves an ambiguous residual
    assert len(runs) == len(rolls)


def test_zero_inside_matches_the_bisected_point():
    # f = (2y - x) / sqrt(5) is exactly 0.0 at (-2, -1), the left end of its
    # bracket on the row y = -1, so the bisection returns that end, which
    # lies on the region's edge
    family = du.PfaffianFamily([du.monomial(0, 0), du.monomial(0, 1), du.monomial(1, 0)],
                               (-2.0, 2.0, -2.0, 2.0))
    edge = du.FamilyCurve(np.array([0.0, 2.0, -1.0]))
    bracket = (-2.0, -2.0 + 4 / 256, -1.0, False)
    assert du.bisect_brackets(family, [(edge, bracket)]) == [(-2.0, -1.0)]
    assert not du.zero_inside(family, edge, bracket)
    # a coarse grid, so that many brackets lie on the region's edges
    grid = du.term_grid(family, 8)
    rng = np.random.default_rng(1)
    verdicts = []
    for _ in range(100):
        curve = du.FamilyCurve(rng.normal(size=3))
        bracket = du.draw_bracket(grid, curve, rng)
        if bracket is not None:
            (x, y), = du.bisect_brackets(family, [(curve, bracket)])
            verdicts.append(-2.0 < x < 2.0 and -2.0 < y < 2.0)
            assert du.zero_inside(family, curve, bracket) == verdicts[-1]
    assert 10 <= verdicts.count(False) <= len(verdicts) - 10


def test_planted_point_lands_on_trace():
    rng = np.random.default_rng(3)
    points, family, curves = gen.duality_scene(3, 10, 6, seed=14)
    segs = du.trace_family_curve(family, curves[0], resolution=256)
    p = du.point_on_family_curve(family, curves[0], rng)
    assert p is not None
    d = np.min(np.hypot(segs[:, :, 0] - p[0], segs[:, :, 1] - p[1]))
    assert d <= 0.05
    assert du.primal_residual(family, curves[0], p) <= 1e-12


# -- the term table -------------------------------------------------------------

TERM_EXAMPLES = {
    "monomial": {"kind": "monomial", "i": 2, "j": 3},
    "exp-poly": {"kind": "exp-poly", "coeffs": [0.1, -1.3, 0.7]},
    "log-x": {"kind": "log-x"},
}


def test_every_term_kind_has_an_example():
    assert set(TERM_EXAMPLES) == set(du.TERM_KINDS)


@pytest.mark.parametrize("kind", sorted(TERM_EXAMPLES))
def test_term_kind_roundtrips_through_json_bit_for_bit(kind):
    term = du.term_from_dict(TERM_EXAMPLES[kind])
    saved = json.loads(json.dumps(term.to_dict()))
    assert saved == TERM_EXAMPLES[kind]
    back = du.term_from_dict(saved)
    assert back == term
    x, y = np.meshgrid(np.linspace(0.1, 2.0, 7), np.linspace(-2.0, 2.0, 5))
    assert back.eval(x, y).tobytes() == term.eval(x, y).tobytes()


def test_monomial_equals_the_product_of_its_powers():
    # x^i y^j, with a zero exponent's factor left out, on signed and zero
    # coordinates
    x, y = np.meshgrid(np.linspace(-2.0, 2.0, 9), np.linspace(-1.5, 1.5, 7))
    for i in range(3):
        for j in range(3):
            want = np.ones_like(x)
            want = want * np.power(x, i) if i else want
            want = want * np.power(y, j) if j else want
            assert du.monomial(i, j).eval(x, y).tobytes() == want.tobytes()


@pytest.mark.parametrize("make", [
    lambda: du.monomial(1.5, 0), lambda: du.monomial(0, -1), lambda: du.monomial(True, 0),
    lambda: du.monomial("1", 0), lambda: du.monomial(math.inf, 0),
    lambda: du.exp_term([0.0, math.nan]), lambda: du.exp_term(["a"]), lambda: du.exp_term(1.0),
], ids=["fractional", "negative", "bool", "string", "inf", "nan-coef", "string-coef", "scalar"])
def test_term_factories_reject_bad_params(make):
    with pytest.raises(ValueError):
        make()
