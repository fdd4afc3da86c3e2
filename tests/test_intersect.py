import itertools
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

import pfaffinc as pf
from conftest import CORPUS_VIEWPORT, corpus_curves, refine_root
from pfaffinc.errors import SharedComponent
from pfaffinc.incidence import point_curve_distance
from pfaffinc import generators as gen
from pfaffinc.scene import load_scene
from pfaffinc.curves import KINDS, SampleTable, rotation_matrix
from pfaffinc.errors import EmptyTrace
from pfaffinc.intersect import (_TOUCH_SCAN, _Exact, _apart, _dedup, _grid, monotone_branches,
                                pair_intersections, vertical_tangent_ts)

VP = (-3.0, 3.0, -1.0, 8.0)
DATA = Path(__file__).parent / "data"


def _table(curves, viewport, samples=1024):
    """The monotone branch table of the curves' traces in viewport."""
    traces = [pf.trace_curve(c, viewport, samples=samples) for c in curves]
    return monotone_branches(curves, traces, vertical_tangent_ts(curves, traces))


def _by_curve(table, n):
    """Per curve of the n curves of a branch table, its branches as
    (ts, xs, ys)."""
    out = [[] for _ in range(n)]
    for i, (xs, ys, ts) in zip(table.curve.tolist(), table.pieces()):
        out[i].append((ts, xs, ys))
    return out


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


def test_circle_and_rotated_copy_raise_shared_component():
    # the two traces sample the circle at different parameters, so their
    # interpolated gap is the chord error (about 5e-6), far above 10*tol
    a = pf.circle(0.0, 0.0, 1.0)
    b = pf.apply_linear_transform(a, *rotation_matrix(0.3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SharedComponent):
            _pair(a, b, (-2, 2, -2, 2))


def test_circles_touching_at_branch_ends_meet_once():
    # every branch pair meets only at x = 0, where both circles are vertical
    c1, c2 = pf.circle(0.5, 0.0, 0.5), pf.circle(-0.5, 0.0, 0.5)
    vp = (-2.0, 2.0, -2.0, 2.0)
    table = _table([c1, c2], vp)
    b1s, b2s = _by_curve(table, 2)
    assert all(min(x1[-1], x2[-1]) - max(x1[0], x2[0]) <= 1e-12
               for _, x1, _ in b1s for _, x2, _ in b2s)
    assert [(i, j) for i, j, _ in pair_intersections([c1, c2], table, 1e-9)] == [(0, 1)]
    for pts in (_pair(c1, c2, vp)[0], _pair(c2, c1, vp)[0]):
        assert len(pts) == 1 and math.hypot(*pts[0]) <= 1e-9


def test_identical_lines_raise_shared_component():
    a, b = pf.line(1, 0, label="a"), pf.line(1, 0, label="b")
    ta = pf.trace_curve(a, (-2, 2, -2, 2))
    tb = pf.trace_curve(b, (-2, 2, -2, 2))
    with pytest.raises(SharedComponent):
        pf.intersect_curves(a, b, ta, tb)


@pytest.mark.parametrize("shared", ["lines", "circles"])
def test_dense_traces_of_a_shared_component_raise(shared):
    # 8,192 samples a trace: every branch pair is long, and each of its
    # tens of thousands of candidates is refined and deduplicated
    if shared == "lines":
        a, b = pf.line(1, 0, label="a"), pf.line(1, 0, label="b")
    else:
        a = pf.circle(0.0, 0.0, 1.0)
        b = pf.apply_linear_transform(a, *rotation_matrix(0.3))
    vp = (-2.0, 2.0, -2.0, 2.0)
    ta, tb = (pf.trace_curve(c, vp, samples=8192) for c in (a, b))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SharedComponent):
            pf.intersect_curves(a, b, ta, tb)


def test_shared_component_refines_its_brackets_in_bounded_slices():
    # a circle and its rotated copy at 16,384 samples give tens of thousands
    # of crossing brackets; refined all at once they peaked at 21.8 MB
    a = pf.circle(0.0, 0.0, 1.0)
    b = pf.apply_linear_transform(a, *rotation_matrix(0.3))
    vp = (-2.0, 2.0, -2.0, 2.0)
    ta, tb = (pf.trace_curve(c, vp, samples=16384) for c in (a, b))
    tracemalloc.start()
    try:
        with pytest.raises(SharedComponent):
            pf.intersect_curves(a, b, ta, tb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_crossings_do_not_depend_on_the_refinement_slices(monkeypatch):
    scene = gen.random_scene(ACCEPTANCE_KINDS, m=0, n=24, planted=0.0, seed=11)
    branches = _table(scene.curves, scene.viewport)
    whole = list(pair_intersections(scene.curves, branches))
    assert sum(len(pts) for _, _, pts in whole) > 50
    monkeypatch.setattr(pf.intersect, "_LANES", 3)
    assert list(pair_intersections(scene.curves, branches)) == whole


def test_crossing_near_the_end_of_a_long_overlap_is_found():
    # the lines meet at x = 2.9999, among the last samples of an overlap of
    # over 8,000 samples
    a, b = pf.line(0.5, 0.0), pf.line(0.4, 0.29999)
    vp = (-3.0, 3.0, -3.0, 3.0)
    pts = pf.intersect_curves(a, b, pf.trace_curve(a, vp, samples=4096),
                              pf.trace_curve(b, vp, samples=4001))
    assert len(pts) == 1
    assert math.hypot(pts[0][0] - 2.9999, pts[0][1] - 1.49995) <= 1e-9


# -- the branch table ------------------------------------------------------------------


def _split(curve, trace, vts):
    """The x-monotone branches of one curve's trace as (ts, xs, ys), split
    at the vertical tangents vts as the per-curve pass split them: the
    oracle of the branch table."""
    branches = []
    for _, _, comp_ts in trace.pieces():
        cuts = [t for t in vts if comp_ts[0] < t < comp_ts[-1]]
        bounds = [float(comp_ts[0])] + cuts + [float(comp_ts[-1])]
        for a, b in zip(bounds[:-1], bounds[1:]):
            if b - a <= 0:
                continue
            sel = (comp_ts > a) & (comp_ts < b)
            ts = np.concatenate([[a], comp_ts[sel], [b]])
            xs, ys = curve.point_at(ts)
            xs = np.asarray(xs, float) + np.zeros_like(ts)
            ys = np.asarray(ys, float) + np.zeros_like(ts)
            if xs[0] > xs[-1]:
                ts, xs, ys = ts[::-1], xs[::-1], ys[::-1]
            run_max = np.maximum.accumulate(xs)
            keep = np.concatenate([[True], np.diff(run_max) > 0])
            ts, xs, ys = ts[keep], xs[keep], ys[keep]
            if len(xs) >= 2:
                branches.append((ts, xs, ys))
    return branches


def _varied_curves(seed):
    """A random scene's curves of the eight bench kinds, rotated and sheared
    images of some, and circles cut by the viewport's sides into several
    components; the viewport."""
    scene = gen.random_scene(ACCEPTANCE_KINDS, m=0, n=24, planted=0.0, seed=seed)
    rng = np.random.default_rng(seed)
    curves = scene.curves + [pf.circle(0.2, -0.1, 5.3), pf.circle(0.0, 0.0, 4.5)]
    images = [pf.apply_linear_transform(c, *rotation_matrix(rng.uniform(0.1, 3.0)))
              for c in curves[:12]]
    images += [pf.apply_linear_transform(c, 1.0, rng.uniform(-1, 1), 0.0, 1.0)
               for c in curves[12:]]
    for c in images:
        try:
            pf.trace_curve(c, scene.viewport)
        except EmptyTrace:
            continue
        curves.append(c)
    return curves, scene.viewport


@pytest.mark.parametrize("seed", [3, 4])
def test_branch_table_equals_the_per_curve_split(seed):
    curves, viewport = _varied_curves(seed)
    traces = [pf.trace_curve(c, viewport) for c in curves]
    tangents = vertical_tangent_ts(curves, traces)
    table = monotone_branches(curves, traces, tangents)
    want = [(i, b) for i, args in enumerate(zip(curves, traces, tangents)) for b in _split(*args)]
    assert table.curve.dtype == table.size.dtype == np.int64
    assert table.curve.tolist() == [i for i, _ in want] and len(table) == len(want)
    assert table.size.tolist() == [len(b[0]) for _, b in want]
    for mine, column in ((table.ts, 0), (table.xs, 1), (table.ys, 2)):
        theirs = np.concatenate([b[column] for _, b in want])
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()
    # transformed and closed curves, components that are split, and curves
    # with several branches are all present
    assert sum(c.transform is not None for c in curves) > 10
    assert sum(c.period is not None for c in curves) >= 4
    assert sum(len(tr) > 1 for tr in traces) >= 2
    assert np.bincount(table.curve).max() >= 4


def test_branch_tables_joined_per_block_equal_one_table():
    curves, viewport = _varied_curves(5)
    traces = [pf.trace_curve(c, viewport) for c in curves]
    whole = monotone_branches(curves, traces, vertical_tangent_ts(curves, traces))
    first = range(0, len(curves), 16)
    blocks = [monotone_branches(curves[a:a + 16], traces[a:a + 16],
                                vertical_tangent_ts(curves[a:a + 16], traces[a:a + 16]))
              for a in first]
    joined = SampleTable.concat(blocks, first)
    assert len(blocks) >= 3 and len(joined) == len(whole)
    for column in ("xs", "ys", "ts", "size", "curve", "start", "stop"):
        mine, theirs = getattr(joined, column), getattr(whole, column)
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes(), column


# -- _dedup ------------------------------------------------------------------------

def _quadratic_dedup(points, radius):
    """_dedup as it was, each point tested against every kept one: the
    oracle of the sweep."""
    merged = []
    for p in sorted(points):
        if any((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 <= radius * radius for q in merged):
            continue
        merged.append(p)
    return merged


@pytest.mark.parametrize("radius", [1e-8, 1.25])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dedup_equals_quadratic_oracle(seed, radius):
    rng = np.random.default_rng(seed)
    # a random cloud, and lattice points a step of radius / 5 apart, so some
    # lie exactly radius apart, across, along and diagonally (3-4-5) when
    # radius / 5 is exact, as 0.25 is
    cloud = rng.uniform(-4, 4, (400, 2)) * radius
    lattice = rng.integers(-12, 12, (400, 2)) * (radius / 5)
    for points in (cloud, lattice, np.concatenate([cloud, lattice])):
        points = [tuple(p) for p in points.tolist()]
        want = _quadratic_dedup(points, radius)
        assert _dedup(points, radius) == want
        assert 1 < len(want) < len(set(points))


def test_dedup_keeps_the_higher_ranked_duplicate():
    # past (x, y), the entry that sorts first ranks higher: a later crossing
    # (rank 0) takes an earlier tangent's place, and the kept point moves
    tangent, crossing, endpoint = (0.0, 0.0, 1, "tangent"), (5e-8, 0.0, 0, "crossing"), \
        (9e-8, 0.0, 2, "endpoint")
    assert _dedup([endpoint, crossing, tangent], 1e-7) == [crossing]
    assert _dedup([(0.0, 0.0, 0, "crossing"), (5e-8, 0.0, 1, "tangent")], 1e-7) == \
        [(0.0, 0.0, 0, "crossing")]
    assert _dedup([(5e-8, 0.0), (0.0, 0.0)], 1e-7) == [(0.0, 0.0)]  # no rank: the first stays


@pytest.mark.parametrize("radius", [1e-8, 1.25])
@pytest.mark.parametrize("seed", [0, 1])
def test_dedup_of_all_pairs_equals_dedup_per_pair(seed, radius):
    rng = np.random.default_rng(seed)
    n = 64
    q = rng.integers(3, n - 4, 900)
    xy = np.where(rng.random((900, 1)) < 0.5, rng.uniform(-4, 4, (900, 2)),
                  rng.integers(-12, 12, (900, 2)) / 5) * radius
    # pair 0: a chain, p2 within radius of p1 and p3 within radius of p2 but
    # not of p1, so p3 stays; pair 1: signed zeros, in the order given; pair
    # 2: duplicates of one point
    chain = np.array([[0.0, 0.0], [0.6, 0.0], [1.2, 0.0]]) * radius
    zeros = np.array([[-0.0, 1.0], [0.0, 1.0], [0.0, -0.0], [-0.0, 0.0]])
    q = np.concatenate([[0, 0, 0, 1, 1, 1, 1, 2, 2], q])
    xy = np.concatenate([chain, zeros, [[0.5, 0.5]] * 2, xy])
    got = pf.intersect._dedup_pairs(q, xy[:, 0], xy[:, 1], n, radius)
    want = [_dedup([tuple(p) for p in xy[q == i].tolist()], radius) for i in range(n)]
    assert got == want
    assert [list(map(repr, p)) for pts in got for p in pts] == \
        [list(map(repr, p)) for pts in want for p in pts]  # -0.0 stays -0.0
    assert got[0] == [tuple(chain[0].tolist()), tuple(chain[2].tolist())]
    assert len(got[2]) == 1 and [] in got  # a pair without points


# -- candidate branch pairs ------------------------------------------------------------

ACCEPTANCE_KINDS = ["line", "circle", "parabola", "exp", "log", "reciprocal",
                    "exp-of-poly", "tan"]


def _circle_t(p, x, hint):
    cx, _cy, r = p
    t0 = math.acos(min(1.0, max(-1.0, (x - cx) / r)))
    return t0 if hint % (2 * math.pi) <= math.pi else 2 * math.pi - t0


# the scalar closed-form x-inverses of the catalog, t = x where not listed
_SCALAR_X_INVERSE = {
    "circle": _circle_t,
    "log": lambda p, x, hint: math.log(x),
    "reciprocal-root": lambda p, x, hint: math.log(x),
    "arctan": lambda p, x, hint: math.atan(x),
}


def _scalar_y_at(curve, branch, x):
    """The exact height of branch (ts, xs, ys) of curve at one float x, as
    the per-branch evaluation found it: the oracle of `_Exact.heights`."""
    ts, xs, _ys = branch
    if curve.transform is None:
        t_mid = float(ts[len(ts) // 2])
        t = _SCALAR_X_INVERSE.get(curve.kind, lambda p, x, hint: x)(curve.params, x, t_mid)
    else:
        # transformed curves: x(t) is monotone on the branch, dx/dt = vx
        i = min(max(int(np.searchsorted(xs, x)), 1), len(xs) - 1)
        t = refine_root(lambda u: float(curve.point_at(u)[0]) - x,
                        float(ts[i - 1]), float(ts[i]),
                        lambda u: float(curve.field.vx(*curve.point_at(u))),
                        float(xs[i - 1]) - x, float(xs[i]) - x)
    return float(curve.point_at(t)[1])


def _scalar_pair(c1, b1s, c2, b2s, tol, y_range_test=True):
    """The points of one curve pair as the per-pair pass found them, one
    branch pair (each (ts, xs, ys)) and one candidate at a time on the scalar
    y_at: the oracle of the lockstep pass.  Without the y-range test every
    branch pair that overlaps in x is scanned."""
    sep = max(_TOUCH_SCAN, 10 * tol)
    points = []
    overlap_votes = 0
    for b1 in b1s:
        for b2 in b2s:
            (_, xs1, ys1), (_, xs2, ys2) = b1, b2
            lo = max(float(xs1[0]), float(xs2[0]))
            hi = min(float(xs1[-1]), float(xs2[-1]))
            if hi - lo <= 1e-12:
                continue
            if y_range_test and _apart(ys1.min(), ys1.max(), ys2.min(), ys2.max(), sep):
                continue
            grid = np.unique(np.concatenate([
                xs1[(xs1 >= lo) & (xs1 <= hi)],
                xs2[(xs2 >= lo) & (xs2 <= hi)],
                [lo, hi],
            ]))
            h = np.interp(grid, xs1, ys1) - np.interp(grid, xs2, ys2)
            if np.mean(np.abs(h) <= 10 * tol) > 0.5 and len(grid) > 8:
                overlap_votes += 1
            y1 = y2 = 0.0

            def gap(x):
                nonlocal y1, y2
                y1, y2 = _scalar_y_at(c1, b1, x), _scalar_y_at(c2, b2, x)
                return y1 - y2

            def gap_slope(x):
                (u1, w1), (u2, w2) = c1.field_at(x, y1), c2.field_at(x, y2)
                return float(w1 / u1 - w2 / u2)

            def slope_difference(x):
                gap(x)
                return gap_slope(x)

            sign = np.sign(h)
            for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
                a, b = float(grid[i]), float(grid[i + 1])
                ga, gb = gap(a), gap(b)
                if ga * gb > 0:
                    continue
                x = refine_root(gap, a, b, gap_slope, ga, gb)
                points.append((float(x), _scalar_y_at(c1, b1, x)))
            for i in np.nonzero(sign == 0)[0]:
                x = float(grid[i])
                points.append((x, _scalar_y_at(c1, b1, x)))
            absh = np.abs(h)
            near = np.nonzero(absh[1:-1] <= _TOUCH_SCAN)[0] + 1
            near = near[(absh[near] <= absh[near - 1]) & (absh[near] <= absh[near + 1])
                        & ~(sign[near - 1] * sign[near] < 0) & ~(sign[near] * sign[near + 1] < 0)]
            for i in near:
                a, b = float(grid[i - 1]), float(grid[i + 1])
                sa, sb = slope_difference(a), slope_difference(b)
                x = refine_root(slope_difference, a, b, fa=sa, fb=sb) \
                    if sa * sb <= 0 else float(grid[i])
                if abs(gap(x)) <= tol:
                    points.append((x, _scalar_y_at(c1, b1, x)))
    points = _dedup(points, 10 * tol)
    bound = pf.pfaffian_bezout_bound(c1.pf_degree, c2.pf_degree)
    if overlap_votes and len(points) > bound:
        raise SharedComponent("shared component")
    return points


@pytest.mark.parametrize("tol", [1e-9, 1e-3])
@pytest.mark.parametrize("seed", [3, 11, 29])
def test_candidate_pairs_leave_out_only_empty_pairs(seed, tol):
    scene = gen.random_scene(ACCEPTANCE_KINDS, m=0, n=24, planted=0.0, seed=seed)
    curves = scene.curves
    table = _table(curves, scene.viewport)
    got = {(i, j): pts for i, j, pts in pair_intersections(curves, table, tol)}
    assert list(got) == sorted(got) and all(i < j for i, j in got)
    left_out, branches = 0, _by_curve(table, len(curves))
    for i, j in itertools.combinations(range(len(curves)), 2):
        want = _scalar_pair(curves[i], branches[i], curves[j], branches[j], tol,
                            y_range_test=False)
        if (i, j) in got:
            assert got[i, j] == want, (i, j)
        else:
            assert want == [], (i, j)
            # count the pairs only the y-range test removes
            left_out += any(min(x1[-1], x2[-1]) - max(x1[0], x2[0]) > 1e-12
                            for _, x1, _ in branches[i] for _, x2, _ in branches[j])
    assert left_out > 0


@pytest.mark.parametrize("tol", [1e-9, 1e-3])
def test_pair_pass_equals_scalar_oracle_on_mixed_scene(tol):
    scene = load_scene(DATA / "mixed_scene.json")
    curves = scene.curves
    assert any(c.transform is not None for c in curves)
    table = _table(curves, scene.viewport)
    got = {(i, j): pts for i, j, pts in pair_intersections(curves, table, tol)}
    branches = _by_curve(table, len(curves))
    for i, j in itertools.combinations(range(len(curves)), 2):
        want = _scalar_pair(curves[i], branches[i], curves[j], branches[j], tol)
        assert got.get((i, j), []) == want, (i, j)
    assert sum(map(len, got.values())) >= 20


def test_pair_pass_gives_the_same_points_in_small_blocks(monkeypatch):
    scene = gen.random_scene(ACCEPTANCE_KINDS, m=0, n=24, planted=0.0, seed=11)
    branches = _table(scene.curves, scene.viewport)
    whole = list(pair_intersections(scene.curves, branches))
    assert len(whole) > 7 * 10 and sum(len(pts) for _, _, pts in whole) > 0
    monkeypatch.setattr(pf.intersect, "_BLOCK", 7)
    assert list(pair_intersections(scene.curves, branches)) == whole


def test_shared_component_raises_before_its_brackets_are_refined(monkeypatch):
    # a pair with more crossing brackets than its ceiling is tested for a
    # shared component first: the circle and its rotated copy raise unrefined
    a = pf.circle(0.0, 0.0, 1.0)
    b = pf.apply_linear_transform(a, *rotation_matrix(0.3))
    vp = (-2.0, 2.0, -2.0, 2.0)
    ta, tb = (pf.trace_curve(c, vp, samples=4096) for c in (a, b))

    def refine(*args):
        raise AssertionError("brackets refined")

    monkeypatch.setattr(pf.intersect, "_refine_crossings", refine)
    with pytest.raises(SharedComponent, match=r"crossing brackets .*\(ceiling 8\)"):
        pf.intersect_curves(a, b, ta, tb)


def test_shared_component_is_raised_for_the_first_offending_pair():
    lines = [pf.line(1, 0, label="a"), pf.line(1, 0, label="b")]
    circle = pf.circle(0.0, 0.0, 1.0)
    circles = [circle, pf.apply_linear_transform(circle, *rotation_matrix(0.3))]
    vp = (-2.0, 2.0, -2.0, 2.0)
    for curves, ceiling in ((lines + circles, 1), (circles + lines, 8)):
        branches = _table(curves, vp)
        with pytest.raises(SharedComponent, match=rf"\(ceiling {ceiling}\)"):
            list(pair_intersections(curves, branches))


def _every_kind():
    """A curve of each catalog kind, and a rotated circle and parabola."""
    curves = corpus_curves() + [
        pf.exp_of_poly((0.1, 0.3, -0.2), 1.5), pf.reciprocal_root(2),
        pf.compose_with_polynomial(pf.tan_curve(0), (0.0, 0.5)),
        pf.apply_linear_transform(pf.circle(0.3, 0.1, 1.1), *rotation_matrix(0.7)),
        pf.apply_linear_transform(pf.parabola(1.0, 0.0, 0.0), *rotation_matrix(0.4))]
    assert {c.kind for c in curves} == set(KINDS)
    return curves


def test_array_y_at_equals_scalar_y_at():
    # every branch of every kind at its samples, its midpoints and random
    # abscissas, in one call over all the branches, and branch by branch in
    # calls of a few lanes
    rng = np.random.default_rng(3)
    curves = _every_kind()
    table = _table(curves, CORPUS_VIEWPORT)
    exact = _Exact(curves, table)
    circle_halves, k, xs, want = 0, [], [], []
    for b, (i, (bx, by, bt)) in enumerate(zip(table.curve.tolist(), table.pieces())):
        curve = curves[i]
        circle_halves += curve.kind == "circle" and curve.transform is None
        x = np.concatenate([bx, 0.5 * (bx[1:] + bx[:-1]), rng.uniform(bx[0], bx[-1], 200)])
        w = [_scalar_y_at(curve, (bt, bx, by), v) for v in x.tolist()]
        assert exact.heights(np.full(len(x[::50]), b), x[::50]).tolist() == w[::50], curve.label
        k.append(np.full(len(x), b))
        xs.append(x)
        want += w
    assert exact.heights(np.concatenate(k), np.concatenate(xs)).tolist() == want
    assert circle_halves == 4  # the upper and lower halves of each of two circles


def test_near_tangent_pair_stays_a_candidate():
    # the gap x^2 + 5e-4 never changes sign; its minimum is within tol
    vp = (-2.0, 2.0, -2.0, 2.0)
    c1, c2 = pf.line(a=0, b=0), pf.parabola(a=1, b=0, c=5e-4)
    table = _table([c1, c2], vp)
    b1s, b2s = _by_curve(table, 2)
    assert list(pair_intersections([c1, c2], table, 1e-3)) == [(0, 1, [(0.0, 0.0)])]
    assert _scalar_pair(c1, b1s, c2, b2s, 1e-3, y_range_test=False) == [(0.0, 0.0)]


def test_candidate_pairs_of_no_curves():
    assert list(pair_intersections([], _table([], VP), 1e-9)) == []
    c = pf.line(1, 0)
    assert list(pair_intersections([c], _table([c], VP), 1e-9)) == []


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, 0.0])
def test_bad_tolerance_is_rejected(tol):
    c1, c2 = pf.line(1, 0), pf.line(-1, 0)
    with pytest.raises(ValueError, match="tolerance"):
        _pair(c1, c2, VP, tol)
    with pytest.raises(ValueError, match="tolerance"):
        pair_intersections([], _table([], VP), tol)  # at the call, before any iteration


# -- the scan ------------------------------------------------------------------------


def _scan_oracle(exact, p, k1, k2, overlap, tol):
    """The candidates of the live branch pairs of exact's table as the
    per-pair scan found them, every x-overlapping pair on its whole `_grid`:
    the oracle of the bin-pruned scan.  Returns the points (grid zeros and
    meeting ends) per curve pair, and the rows (pair, branch 1, branch 2, a,
    b) of the crossing brackets and (pair, branch 1, branch 2, a, b, grid
    point) of the touches."""
    points = [[] for _ in range(p[-1] + 1)]
    cross, touch = [], []
    pieces = exact.samples.pieces()
    for q, m1, m2, over in zip(p.tolist(), k1.tolist(), k2.tolist(), overlap.tolist()):
        (xs1, ys1, _), (xs2, ys2, _) = pieces[m1], pieces[m2]
        if not over:
            for (x1, y1), (x2, y2) in (((xs1[-1], ys1[-1]), (xs2[0], ys2[0])),
                                       ((xs1[0], ys1[0]), (xs2[-1], ys2[-1]))):
                if np.hypot(x1 - x2, y1 - y2) <= tol:
                    points[q].append((float(x1), float(y1)))
            continue
        grid = _grid(exact.samples, m1, m2)
        h = np.interp(grid, xs1, ys1) - np.interp(grid, xs2, ys2)
        sign = np.sign(h)
        for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0].tolist():
            cross.append((q, m1, m2, grid[i], grid[i + 1]))
        at = np.nonzero(sign == 0)[0]
        points[q].extend(zip(grid[at].tolist(),
                             exact.heights(np.full(len(at), m1), grid[at]).tolist()))
        absh = np.abs(h)
        at = np.nonzero(absh[1:-1] <= _TOUCH_SCAN)[0] + 1
        at = at[(absh[at] <= absh[at - 1]) & (absh[at] <= absh[at + 1])
                & ~(sign[at - 1] * sign[at] < 0) & ~(sign[at] * sign[at + 1] < 0)]
        for i in at.tolist():
            touch.append((q, m1, m2, grid[i - 1], grid[i + 1], grid[i]))
    return points, cross, touch


def _overlap_samples(samples, k1, k2):
    xs = [samples.xs[samples.start[k]:samples.stop[k]] for k in (k1, k2)]
    lo, hi = max(x[0] for x in xs), min(x[-1] for x in xs)
    return sum(int(((x >= lo) & (x <= hi)).sum()) for x in xs)


def _rows(columns):
    return sorted(zip(*(np.asarray(c).tolist() for c in columns)))


def _by_pair(found, n):
    """The points of the columns (pair, x, y) of found, a list per pair."""
    points = [[] for _ in range(n)]
    for q, x, y in zip(*(np.concatenate(c).tolist() for c in zip(*found))):
        points[q].append((x, y))
    return points


def _assert_scan_is_oracle(got, want):
    assert [sorted(q) for q in _by_pair(got[0], len(want[0]))] == [sorted(q) for q in want[0]]
    assert _rows(got[1]) == sorted(want[1])
    assert _rows(got[2]) == sorted(want[2])


_LONG = 4096  # overlap samples past which a branch pair counts as long


def _checked_pass(monkeypatch, curves, branches, tol):
    """Run the pair pass with each block's scan checked against the oracle.
    Returns the counts of scan points, crossing rows and touch rows, and of
    the long branch pairs, whose overlaps hold over _LONG samples."""
    scan, seen = pf.intersect._scan, dict.fromkeys(["points", "cross", "touch", "long"], 0)

    def checked(bins, p, k1, k2, overlap, tol):
        got = scan(bins, p, k1, k2, overlap, tol)
        _assert_scan_is_oracle(got, _scan_oracle(bins.exact, p, k1, k2, overlap, tol))
        seen["points"] += sum(len(q) for q, _, _ in got[0])
        seen["cross"] += len(got[1][0])
        seen["touch"] += len(got[2][0])
        seen["long"] += sum(_overlap_samples(bins.exact.samples, a, b) > _LONG
                            for a, b in zip(k1[overlap].tolist(), k2[overlap].tolist()))
        return got

    monkeypatch.setattr(pf.intersect, "_scan", checked)
    list(pair_intersections(curves, branches, tol))
    return seen


@pytest.mark.parametrize("tol", [1e-9, 1e-6, 1e-3, 0.05])
@pytest.mark.parametrize("seed", [3, 11])
def test_scan_equals_oracle_on_random_scenes(seed, tol, monkeypatch):
    scene = gen.random_scene(ACCEPTANCE_KINDS, m=0, n=24, planted=0.0, seed=seed)
    branches = _table(scene.curves, scene.viewport)
    seen = _checked_pass(monkeypatch, scene.curves, branches, tol)
    assert seen["cross"] > 50


@pytest.mark.parametrize("tol", [1e-9, 1e-3])
def test_scan_equals_oracle_on_mixed_scene(tol, monkeypatch):
    scene = load_scene(DATA / "mixed_scene.json")
    branches = _table(scene.curves, scene.viewport)
    seen = _checked_pass(monkeypatch, scene.curves, branches, tol)
    assert seen["points"] > 0 and seen["touch"] > 0


def test_scan_equals_oracle_on_dense_traces(monkeypatch):
    # 4,096 samples a trace: long branch pairs are scanned on their whole grid
    curves = corpus_curves()
    seen = _checked_pass(monkeypatch, curves, _table(curves, CORPUS_VIEWPORT, samples=4096), 1e-9)
    assert seen["long"] > 0 and seen["cross"] > 0


@pytest.mark.parametrize("bins, span, rows", [(1, 1, None), (2, 3, None), (7, 5, None),
                                              (512, 8, None), (1000, 4, None), (3, 200, None),
                                              (None, None, 5)])
def test_scan_equals_oracle_in_few_or_many_bins_and_row_groups(bins, span, rows, monkeypatch):
    for name, value in (("_BINS", bins), ("_SPAN", span), ("_ROWS", rows)):
        if value is not None:
            monkeypatch.setattr(pf.intersect, name, value)
    for scene in (gen.random_scene(ACCEPTANCE_KINDS, m=0, n=16, planted=0.0, seed=11),
                  load_scene(DATA / "mixed_scene.json")):
        branches = _table(scene.curves, scene.viewport)
        seen = _checked_pass(monkeypatch, scene.curves, branches, 1e-3)
        assert seen["cross"] > 0
    assert seen["touch"] > 0  # on the mixed scene


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scan_equals_oracle_on_random_polylines_in_few_bins(seed, monkeypatch):
    # four short polylines, on abscissas of one grid so that they share
    # samples, near each other on a handful of bins: kept stretches often
    # widen across a dropped bin that holds no sample, so that two runs
    # share grid points, from which no candidate may come twice
    rng = np.random.default_rng(seed)
    k1, k2 = np.triu_indices(4, 1)
    for _ in range(200):
        monkeypatch.setattr(pf.intersect, "_BINS", int(rng.integers(1, 30)))
        monkeypatch.setattr(pf.intersect, "_SPAN", int(rng.integers(1, 6)))
        size = rng.integers(2, 9, 4)
        xs = np.concatenate([np.sort(rng.choice(np.linspace(0.0, 1.0, 41), n, replace=False))
                             for n in size])
        table = SampleTable(xs, rng.uniform(-0.03, 0.03, len(xs)), xs, size, [0, 1, 2, 3])
        exact = _Exact([pf.line(0.0, 0.0)] * 4, table)
        x_lo, x_hi = xs[table.start], xs[table.stop - 1]
        overlap = np.minimum(x_hi[k1], x_hi[k2]) - np.maximum(x_lo[k1], x_lo[k2]) > 1e-12
        args = (np.arange(len(k1)), k1, k2, overlap, 1e-3)
        _assert_scan_is_oracle(pf.intersect._scan(pf.intersect._bins(exact), *args),
                               _scan_oracle(exact, *args))


def _mixed_scale_scene(seed):
    """60 circles of radius 0.005-0.02 within 0.05 of the origin, and 20
    lines, in a +-100 viewport: most of the pass's samples crowd into 0.1
    of its 200 in x."""
    rng = np.random.default_rng(seed)
    curves = [pf.circle(*rng.uniform(-0.05, 0.05, 2), rng.uniform(0.005, 0.02))
              for _ in range(60)]
    curves += [pf.line(*rng.uniform(-1.0, 1.0, 2)) for _ in range(20)]
    return curves, (-100.0, 100.0, -100.0, 100.0)


@pytest.mark.parametrize("tol", [1e-9, 1e-3])
def test_scan_equals_oracle_on_a_mixed_scale_scene(tol, monkeypatch):
    curves, viewport = _mixed_scale_scene(24)
    seen = _checked_pass(monkeypatch, curves, _table(curves, viewport), tol)
    assert seen["cross"] > 100


def _transformed(curves, a, b, c, d):
    return [pf.apply_linear_transform(curve, a, b, c, d) for curve in curves]


@pytest.mark.parametrize("scale", [1e-3, 1e6])
def test_scan_equals_oracle_on_scaled_scenes(scale, monkeypatch):
    # the bin edges follow the abscissas on tiny and on huge x-ranges alike
    scene = gen.random_scene(ACCEPTANCE_KINDS, m=0, n=16, planted=0.0, seed=11)
    curves = _transformed(scene.curves, scale, 0.0, 0.0, scale)
    viewport = tuple(scale * v for v in scene.viewport)
    for tol in (1e-9 * scale, 1e-3 * scale):
        seen = _checked_pass(monkeypatch, curves, _table(curves, viewport), tol)
        assert seen["cross"] > 0


def test_scan_equals_oracle_on_nearly_vertical_scenes(monkeypatch):
    # rotated by pi/2 - 1e-9, lines become nearly vertical: their branches
    # span a few ulps of x, so their samples share one or two sub-bins
    scene = gen.random_scene(ACCEPTANCE_KINDS, m=0, n=16, planted=0.0, seed=11)
    curves = _transformed(scene.curves, *rotation_matrix(math.pi / 2 - 1e-9))
    seen = _checked_pass(monkeypatch, curves, _table(curves, (-4.0, 4.0, -4.0, 4.0)), 1e-3)
    assert seen["cross"] > 0


def test_scan_keeps_a_touch_that_interpolation_rounds_past_a_chunk():
    # np.interp at x overshoots the segment's top y1 by an ulp, so a flat
    # branch at height c with c - y1 just over the scan threshold still comes
    # within it at x: its bins' y-ranges are apart only by rounding
    x0, x1, y0, y1 = -2.4975237871192744, 2.736192750117972, -1.1088691936974635, 1.3174741479388086
    x = 2.7361927501179717
    v = float(np.interp(x, [x0, x1], [y0, y1]))
    c = y1 + _TOUCH_SCAN
    while not (c - y1 > _TOUCH_SCAN):
        c = math.nextafter(c, math.inf)
    assert v > y1 and c - v <= _TOUCH_SCAN
    line = pf.line(0.0, c)
    xs = np.array([x0, x1, x0 - 1.0, 0.0, x, x1 + 1.0])  # branch 1, then branch 2
    table = SampleTable(xs, np.array([y0, y1, c, c, c, c]), xs, [2, 4], [0, 1])
    exact, one = _Exact([line, line], table), np.zeros(1, dtype=int)
    args = (one, one, one + 1, np.ones(1, dtype=bool), 1e-9)
    want = _scan_oracle(exact, *args)
    assert [row[-1] for row in want[2]] == [x]
    _assert_scan_is_oracle(pf.intersect._scan(pf.intersect._bins(exact), *args), want)


def test_scan_keeps_flat_branches_that_float32_rounding_would_part():
    # two flat branches a gap just under the touch threshold apart, at
    # heights that float32 rounds down and up: rounded to nearest, their
    # ranges would lie apart; rounded outward, every touch is found
    gap = _TOUCH_SCAN * (1 - 1e-9)
    a = next(a for a in np.linspace(1.0, 2.0, 1001).tolist()
             if float(np.float32(a)) < a and float(np.float32(a + gap)) > a + gap)
    b = a + gap
    assert not _apart(a, a, b, b, _TOUCH_SCAN)
    assert _apart(*map(float, np.float32([a, a, b, b])), _TOUCH_SCAN)
    xs = np.tile(np.linspace(0.0, 1.0, 9), 2)
    table = SampleTable(xs, np.repeat([a, b], 9), xs, [9, 9], [0, 1])
    exact, one = _Exact([pf.line(0.0, a), pf.line(0.0, b)], table), np.zeros(1, dtype=int)
    args = (one, one, one + 1, np.ones(1, dtype=bool), 1e-9)
    want = _scan_oracle(exact, *args)
    assert len(want[2]) == 7  # every inner grid point
    _assert_scan_is_oracle(pf.intersect._scan(pf.intersect._bins(exact), *args), want)


def test_interp_equals_numpy_interp():
    rng = np.random.default_rng(8)
    for n in (2, 3, 40):
        xs = np.cumsum(rng.uniform(1e-3, 1.0, n))
        for ys in (rng.normal(size=n), np.cumsum(rng.normal(size=n)) * 1e6,
                   np.where(rng.random(n) < 0.5, 1e308, -1e308),  # slopes overflow
                   rng.choice([np.inf, -np.inf, 1.0], n)):  # NaN slopes: the fallback
            at = np.concatenate([xs, rng.uniform(xs[0], xs[-1], 200),
                                 np.nextafter(xs[1:], -np.inf), np.nextafter(xs[:-1], np.inf)])
            j = np.searchsorted(xs, at, side="right") - 1
            with np.errstate(invalid="ignore", over="ignore"):
                got = pf.intersect._interp(xs, ys, at, j)
            assert got.tobytes() == np.interp(at, xs, ys).tobytes()


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


def _scalar_vertical_tangent_ts(curve, trace, wraps):
    """vertical_tangent_ts as it was, each sign change refined alone by the
    scalar refiner: the oracle of the lockstep run.  Appends the refined
    wrap-around roots to wraps."""
    def vx_along(t):
        return float(curve.field.vx(*curve.point_at(t)))

    def vx_root(a, b, va, vb):
        return refine_root(vx_along, a, b,
                           lambda t: float(curve.field.vx_rate(*curve.point_at(t))), va, vb)

    out = []
    for xs, ys, ts in trace.pieces():
        vx = curve.field.vx(xs, ys) + np.zeros_like(xs)
        sign = np.sign(vx)
        for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
            out.append(vx_root(float(ts[i]), float(ts[i + 1]), float(vx[i]), float(vx[i + 1])))
        for i in np.nonzero(sign == 0)[0]:
            out.append(float(ts[i]))
    if curve.period is not None and len(trace):
        first, last = trace.start[0], trace.stop[-1] - 1
        gap = math.hypot(trace.xs[last] - trace.xs[first], trace.ys[last] - trace.ys[first])
        if gap < 64 * trace.step * (1 + curve.period):
            a, b = float(trace.ts[last]), float(trace.ts[first]) + curve.period
            va, vb = vx_along(a), vx_along(b)
            if va * vb < 0:
                wraps.append(vx_root(a, b, va, vb) % curve.period)
                out.append(wraps[-1])
    return sorted(out)


def test_vertical_tangents_equal_scalar_oracle():
    stretched = pf.apply_linear_transform(pf.circle(0.0, 0.0, 1.0), 2.0, 0.0, 0.0, 1.0)
    wraps = []
    for curve in _every_kind() + [stretched]:
        trace = pf.trace_curve(curve, CORPUS_VIEWPORT)
        assert vertical_tangent_ts([curve], [trace])[0] == _scalar_vertical_tangent_ts(
            curve, trace, wraps), curve.label
    # the unit circle's tangent at t = 0 runs the wrap-around lane
    assert any(min(t, 2 * math.pi - t) <= 1e-12 for t in wraps)


def _tangent_corpus():
    """312 curves: random catalog curves, rotated and sheared images of
    them, and circles, plain and sheared."""
    drawn = [kind for kind, spec in KINDS.items() if spec.draw]
    curves = gen.random_scene(drawn, m=0, n=120, planted=0.0, seed=5).curves
    rng = np.random.default_rng(5)
    curves += [pf.apply_linear_transform(c, *rotation_matrix(rng.uniform(0.1, 3.0)))
               for c in curves[:60]]
    curves += [pf.apply_linear_transform(c, 1.0, rng.uniform(-1, 1), 0.0, 1.0)
               for c in curves[60:96]]
    circles = [pf.circle(*rng.uniform(-2, 2, size=2), rng.uniform(0.3, 1.8)) for _ in range(48)]
    curves += circles + [pf.apply_linear_transform(c, 1.0, 0.0, rng.uniform(-1, 1), 1.0)
                         for c in circles]
    assert len(curves) == 312
    return curves


def test_multi_curve_tangents_equal_scalar_oracle():
    viewport = (-4.0, 4.0, -4.0, 4.0)
    curves = _tangent_corpus()
    traces = [pf.trace_curve(c, viewport) for c in curves]
    wraps = []
    want = [_scalar_vertical_tangent_ts(c, t, wraps) for c, t in zip(curves, traces)]
    assert vertical_tangent_ts(curves, traces) == want
    assert len(wraps) >= 100 and sum(map(len, want)) >= 250
    # a run over any slice of the curves gives the same parameters
    assert vertical_tangent_ts(curves[100:200], traces[100:200]) == want[100:200]


def test_multi_curve_tangents_equal_per_curve_calls_bit_for_bit():
    viewport = (-4.0, 4.0, -4.0, 4.0)
    tans = [pf.tan_curve(0), pf.tan_curve(1), pf.tan_curve(-1)]
    curves = _tangent_corpus() + tans + [pf.apply_linear_transform(c, *rotation_matrix(0.7))
                                         for c in tans]
    traces = [pf.trace_curve(c, viewport) for c in curves]
    got = vertical_tangent_ts(curves, traces)
    want = [vertical_tangent_ts([c], [t])[0] for c, t in zip(curves, traces)]
    assert [np.array(v).tobytes() for v in got] == [np.array(v).tobytes() for v in want]
    assert all(want[-3:]) and sum(map(len, want)) >= 250


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
    table = _table([curve], (-2.0, 2.0, -2.0, 2.0))
    exact = _Exact([curve], table)
    assert len(table) == 2
    for b, (xs, _ys, ts) in enumerate(table.pieces()):
        sign = 1.0 if ts[len(ts) // 2] > c / (2 * s) else -1.0
        x = np.linspace(xs[0], xs[-1], 41)[1:-1]
        u = (c + sign * np.sqrt(c * c - 4 * s * x)) / (2 * s)
        assert np.all(np.abs(exact.heights(np.full(len(x), b), x) - (s * u + c * u * u)) <= 1e-12)


# -- curve tables in the passes ---------------------------------------------------------


def _rounds(monkeypatch, module, calls):
    """Wrap module's refine_roots so that each round of a run records the
    counts in calls that its evaluation added; returns the list of them."""
    refine, rounds = module.refine_roots, []

    def wrapped(f, *args, **kwargs):
        def counted(x, lanes):
            calls.clear()
            out = f(x, lanes)
            rounds.append(dict(calls))
            return out

        return refine(counted, *args, **kwargs)

    monkeypatch.setattr(module, "refine_roots", wrapped)
    return rounds


def test_refinement_rounds_make_one_call_per_signature(monkeypatch):
    scene = gen.random_scene(ACCEPTANCE_KINDS, m=300, n=40, planted=0.6, seed=4)
    traces = scene.traces()
    signatures = len(pf.curves.CurveTable(scene.curves).groups)
    assert signatures < len(scene.curves) // 4
    calls = {}

    def counted(fn, key):
        def wrapper(self, *args):
            calls[key(args)] = calls.get(key(args), 0) + 1
            return fn(self, *args)
        return wrapper

    group = pf.curves._Group
    monkeypatch.setattr(group, "point_at", counted(group.point_at, lambda args: "point_at"))
    monkeypatch.setattr(group, "poly", counted(group.poly, lambda args: args[0]))
    intersect_rounds = _rounds(monkeypatch, pf.intersect, calls)
    branches = monotone_branches(scene.curves, traces, vertical_tangent_ts(scene.curves, traces))
    assert sum(len(pts) for _, _, pts in pair_intersections(scene.curves, branches)) > 50
    incidence_rounds = _rounds(monkeypatch, pf.incidence, calls)
    assert pf.count_incidences(scene.points, scene.curves, traces).count() > 100
    for seen, names in ((intersect_rounds, {"point_at", "vx", "vy", "vx_rate"}),
                        (incidence_rounds, {"point_at", "vx", "vy"})):
        assert len(seen) >= 3
        assert set().union(*seen) == names
        assert max(max(r.values()) for r in seen if r) <= signatures


def test_transformed_heights_refine_once_per_group_each_round(monkeypatch):
    scene = load_scene(DATA / "mixed_scene.json")
    extra = [pf.apply_linear_transform(pf.circle(0.2, -0.1, 0.7), *rotation_matrix(a))
             for a in (0.3, 0.9, 2.0)]
    extra.append(pf.apply_linear_transform(pf.parabola(0.8, 0.1, -0.5), *rotation_matrix(0.5)))
    curves = scene.curves + extra
    transformed = [c for c in curves if c.transform is not None]
    table = pf.curves.CurveTable(curves)
    groups = {id(g) for g in table.groups if g.transform is not None}
    assert len(transformed) == 5 and len(groups) == 3
    branches = _table(curves, scene.viewport)
    refine, param_from_x = pf.curves.refine_roots, pf.curves._Group.param_from_x
    nested, called, per_round = [], [], []

    def counting_refine(*args, **kwargs):
        nested.append(1)
        return refine(*args, **kwargs)

    def recording(self, *args):
        if self.transform is not None:
            called.append(id(self))
        return param_from_x(self, *args)

    def outer(f, *args, **kwargs):
        def counted(x, lanes):
            nested.clear()
            called.clear()
            out = f(x, lanes)
            per_round.append((len(nested), len(called), len(set(called))))
            return out
        return refine(counted, *args, **kwargs)

    monkeypatch.setattr(pf.curves, "refine_roots", counting_refine)
    monkeypatch.setattr(pf.curves._Group, "param_from_x", recording)
    monkeypatch.setattr(pf.intersect, "refine_roots", outer)
    found = list(pair_intersections(curves, branches, 1e-9))
    assert found and len(per_round) > 10
    # one nested run per transformed group present, each group called once
    assert all(runs == groups_called == distinct for runs, groups_called, distinct in per_round)
    assert max(runs for runs, _, _ in per_round) >= 2
    assert max(distinct for _, _, distinct in per_round) <= len(groups)
