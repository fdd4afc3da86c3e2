import itertools
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pfaffinc as pf
from pfaffinc import cutting as ct
from pfaffinc import generators as gen
from pfaffinc.errors import CuttingFailed

VP = (-2.0, 2.0, -2.0, 2.0)
ACCEPTANCE_KINDS = ["line", "circle", "parabola", "exp", "log", "reciprocal",
                    "exp-of-poly", "tan"]


# -- sample_curves ---------------------------------------------------------------

def test_sampling_is_reproducible_and_bounded():
    a = ct.sample_curves(10, 10, seed=123)
    b = ct.sample_curves(10, 10, seed=123)
    assert a == b
    assert 1 <= len(a) <= 10
    assert all(0 <= i < 10 for i in a)


def test_single_draw_gives_one_curve():
    assert len(ct.sample_curves(50, 1, seed=0)) == 1


def test_sample_size_matches_with_replacement_expectation():
    # analytic oracle: E|S| = n (1 - (1 - 1/n)^s)
    n, s = 100, 200
    expected = n * (1 - (1 - 1 / n) ** s)
    sizes = [len(ct.sample_curves(n, s, seed)) for seed in range(1000)]
    assert abs(np.mean(sizes) - expected) <= 2.0


# -- decompose: rays -------------------------------------------------------------------

def test_two_crossing_lines_shoot_two_full_rays():
    curves = [pf.line(1, 0), pf.line(-1, 0)]
    traces = [pf.trace_curve(c, VP) for c in curves]
    rays = pf.decompose([0, 1], curves, traces, VP).rays
    assert len(rays) == 2
    spans = sorted((r.y_lo, r.y_hi) for r in rays)
    assert spans == [(-2.0, 0.0), (0.0, 2.0)]


def test_lone_circle_shoots_four_rays():
    c = pf.circle(0, 0, 1)
    traces = [pf.trace_curve(c, VP)]
    rays = pf.decompose([0], [c], traces, VP).rays
    assert len(rays) == 4
    assert sorted(round(r.x, 6) for r in rays) == [-1.0, -1.0, 1.0, 1.0]


def test_parabola_touching_line_shoots_two_rays():
    curves = [pf.parabola(1, 0, 0), pf.line(0, 0)]
    traces = [pf.trace_curve(c, VP) for c in curves]
    rays = pf.decompose([0, 1], curves, traces, VP).rays
    assert len(rays) == 2
    assert all(abs(r.x) <= 1e-6 for r in rays)


# -- decompose: cells --------------------------------------------------------------------

def test_single_horizontal_line_splits_plane_in_two():
    c = pf.line(0, 0.5)
    cells = pf.decompose([0], [c], [pf.trace_curve(c, VP)], VP).cells
    assert len(cells) == 2


def test_two_crossing_lines_give_six_cells():
    # by hand: two slabs of three regions each, full-height wall at x = 0
    curves = [pf.line(1, 0), pf.line(-1, 0)]
    traces = [pf.trace_curve(c, VP) for c in curves]
    cells = pf.decompose([0, 1], curves, traces, VP).cells
    assert len(cells) == 6


def test_empty_sample_keeps_whole_viewport():
    cells = pf.decompose([], [], [], VP).cells
    assert len(cells) == 1
    assert cells[0].corner_count == 4


def test_cell_corner_counts_within_four():
    scene = gen.random_scene(["line", "circle", "parabola"], m=0, n=12,
                             planted=0.0, seed=3)
    traces = scene.traces()
    cells = pf.decompose([0, 2, 4, 6], scene.curves, traces, scene.viewport).cells
    assert all(0 <= c.corner_count <= 4 for c in cells)
    assert all(c.x_hi > c.x_lo for c in cells)


def test_slab_arcs_go_bottom_to_top_on_branches_by_curve_id():
    # the sample keeps the caller's order; the branches, whose order breaks
    # ties between arcs, go by curve id
    scene = gen.random_scene(["line", "circle", "parabola"], m=0, n=12, planted=0.0, seed=3)
    cut = pf.decompose([6, 0, 4, 2], scene.curves, scene.traces(), scene.viewport)
    assert cut.sample == [6, 0, 4, 2]
    assert cut._exact.curves == [scene.curves[i] for i in (0, 2, 4, 6)]
    assert np.array_equal(np.unique(cut._exact.samples.curve), np.arange(4))
    assert np.all(np.diff(cut._exact.samples.curve) >= 0)
    mids = (cut.slab_xs[:-1] + cut.slab_xs[1:]) / 2
    for k, x in enumerate(mids):
        arcs = list(cut._slab(k)[0])
        ys = [ct._height(cut, b, x) for b in arcs]
        assert sorted(zip(ys, arcs)) == list(zip(ys, arcs))


def test_cells_are_built_only_on_access(monkeypatch):
    built = []
    monkeypatch.setattr(ct, "PfCell", lambda *fields: built.append(fields) or pf.PfCell(*fields))
    scene = gen.random_scene(ACCEPTANCE_KINDS, m=60, n=60, planted=0.5, seed=7)
    traces = scene.traces()
    cut = pf.build_cutting(scene.curves, traces, scene.viewport, r=4, seed=7)
    split = pf.count_via_cutting(scene.points, scene.curves, traces, cut)
    assert split.total == pf.count_incidences(scene.points, scene.curves, traces).count()
    assert built == []
    cells = list(cut.cells)
    assert len(cells) == len(cut.cells) > 100
    assert [c.id for c in cells] == list(range(len(cells)))
    assert cut.cells[-1] == cells[-1] and cut.cells[0] == cells[0]
    assert all(cut.cells[i] == cell for i, cell in enumerate(cells))
    with pytest.raises(IndexError):
        cut.cells[len(cells)]


# -- crossing sets -------------------------------------------------------------------

def test_whole_viewport_cell_sees_every_curve():
    scene = gen.random_scene(["line", "parabola"], m=0, n=7, planted=0.0, seed=5)
    traces = scene.traces()
    cut = pf.decompose([], scene.curves, traces, scene.viewport)
    assert cut.to_dict()["cells"][0]["crossings"] == list(range(7))


def test_region_beyond_all_curves_is_empty():
    curves = [pf.line(0, -1.0), pf.line(0, -0.5)]
    traces = [pf.trace_curve(c, VP) for c in curves]
    for seed in range(20):
        cut = pf.build_cutting(curves, traces, VP, r=1, seed=seed)
        if sorted(cut.sample) == [0, 1]:
            break
    else:
        pytest.skip("no seed sampled both lines")
    assert cut.max_crossings() == 0


def test_cell_crossings_against_line_algebra_oracle(line_scene):
    scene, traces, cut = line_scene
    slopes = {i: c.params for i, c in enumerate(scene.curves)}
    x0, x1, y0, y1 = scene.viewport
    crossings = [set(c["crossings"]) for c in cut.to_dict()["cells"]]
    checked = 0
    for cell in cut.cells:
        if checked >= 10:
            break
        if cell.bottom is None or cell.top is None:
            continue
        checked += 1
        sb, tb = slopes[cell.bottom[0]]
        st_, tt = slopes[cell.top[0]]
        xs = np.linspace(cell.x_lo + 1e-6, cell.x_hi - 1e-6, 1000)
        lo = sb * xs + tb
        hi = st_ * xs + tt
        expected = set()
        for i, (s, t) in slopes.items():
            if i in cut.sample:
                continue
            ys = s * xs + t
            if np.any((ys > lo + 1e-9) & (ys < hi - 1e-9)
                      & (ys > y0) & (ys < y1)):
                expected.add(i)
        got = crossings[cell.id]
        assert got == expected, (cell.id, sorted(got), sorted(expected))
    assert checked == 10


# -- build_cutting -----------------------------------------------------------------------

def test_random_line_scene_certifies_quickly():
    scene = gen.random_scene(["line"], m=0, n=50, planted=0.0, seed=17)
    traces = scene.traces()
    cut = pf.build_cutting(scene.curves, traces, scene.viewport, r=2, seed=4)
    assert cut.retries_used <= 3
    assert cut.max_crossings() <= 50 / 2
    assert len(cut.cells) <= 50 * 4 * math.log(50) ** 2


def test_sampling_everything_certifies_trivially():
    scene = gen.random_scene(["line"], m=0, n=5, planted=0.0, seed=2)
    traces = scene.traces()
    cut = pf.build_cutting(scene.curves, traces, scene.viewport, r=4, seed=0)
    assert cut.max_crossings() <= 5 / 4


def test_two_curves_r_one_always_passes():
    curves = [pf.line(1, 0), pf.line(-1, 0.5)]
    traces = [pf.trace_curve(c, VP) for c in curves]
    cut = pf.build_cutting(curves, traces, VP, r=1, seed=0)
    assert cut.s == math.ceil(5 * math.log(2))
    assert cut.retries_used == 0
    assert cut.max_crossings() <= 2


def test_invalid_r_rejected():
    curves = [pf.line(1, 0), pf.line(-1, 0.5)]
    traces = [pf.trace_curve(c, VP) for c in curves]
    with pytest.raises(ValueError):
        pf.build_cutting(curves, traces, VP, r=2, seed=0)


# -- locate_point -----------------------------------------------------------------------

def _pieces(cut):
    """(branch, xs, ys) of each branch of the cutting's sample."""
    return [(b, xs, ys) for b, (xs, ys, _ts) in enumerate(cut._exact.samples.pieces())]


def _y_at(cut, b, x):
    """The exact height of branch b at x (a float or an array)."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    ys = cut._exact.heights(np.full(len(xs), b), xs)
    return ys if np.ndim(x) else float(ys[0])


def _region_bounds(cut, slab_idx, region_idx, x):
    """The heights at x of the arcs below and above region region_idx of
    slab slab_idx, the viewport's edge where there is none."""
    arcs, _base = cut._slab(slab_idx)
    y0, y1 = cut.viewport[2:]
    lo = y0 if region_idx == 0 else ct._height(cut, arcs[region_idx - 1], x)
    hi = y1 if region_idx == len(arcs) else ct._height(cut, arcs[region_idx], x)
    return lo, hi


def test_locate_in_single_cell_cutting():
    cut = ct.decompose([], [], [], VP)
    for p in ((0.0, 0.0), (-1.9, 1.9), (1.5, -0.5)):
        loc = pf.locate_point(cut, p)
        assert loc.kind == "interior" and loc.cell == 0


def test_locate_in_near_trivial_cutting():
    curves = [pf.line(0, -1.9), pf.line(0, -1.8)]
    traces = [pf.trace_curve(c, VP) for c in curves]
    cut = pf.build_cutting(curves, traces, VP, r=1, seed=1)
    loc = pf.locate_point(cut, (0.0, 1.0))
    assert loc.kind == "interior"
    top_cells = {pf.locate_point(cut, (x, 1.0)).cell for x in (-1.5, 0.0, 1.5)}
    assert len(top_cells) == 1


def test_point_on_sampled_line_is_boundary(line_scene):
    scene, traces, cut = line_scene
    cid = cut.sample[0]
    s, t = scene.curves[cid].params
    p = (0.1, s * 0.1 + t)
    if not (scene.viewport[2] < p[1] < scene.viewport[3]):
        pytest.skip("probe point left the viewport")
    loc = pf.locate_point(cut, p)
    assert loc.kind == "boundary"
    assert len(loc.cells) >= 2 or loc.on[0] == "ray"


def test_locate_matches_linear_scan(line_scene):
    scene, traces, cut = line_scene
    rng = np.random.default_rng(77)
    x0, x1, y0, y1 = scene.viewport
    checked = 0
    for _ in range(1000):
        p = rng.uniform((x0 + 0.01, y0 + 0.01), (x1 - 0.01, y1 - 0.01))
        loc = pf.locate_point(cut, p)
        if loc.kind != "interior":
            continue
        # linear scan oracle over every region of p's slab
        matches = []
        k = int(np.searchsorted(cut.slab_xs, p[0], side="right") - 1)
        arcs, region0 = cut._slab(k)
        for rr in range(len(arcs) + 1):
            lo, hi = _region_bounds(cut, k, rr, p[0])
            if lo + 1e-7 < p[1] < hi - 1e-7:
                matches.append(int(cut._region_cell[region0 + rr]))
        if len(matches) == 1:
            checked += 1
            assert matches[0] == loc.cell
    assert checked > 800


def _locate_by_scan(cut, p, tol=1e-7):
    """locate_point by a scan of every wall, then of every arc in p's slab."""
    px, py = float(p[0]), float(p[1])
    last = len(cut.slab_xs) - 2

    def slab_of(x):
        return int(np.clip(np.searchsorted(cut.slab_xs, x, side="right") - 1, 0, last))

    def region_cell(k, x, y):
        arcs, region0 = cut._slab(k)
        below = sum(ct._height(cut, b, x) < y for b in arcs)
        return int(cut._region_cell[region0 + below])

    for w_idx, w in enumerate(cut.rays + cut.aux_walls):
        if abs(px - w.x) <= tol and w.y_lo - tol <= py <= w.y_hi + tol:
            cl = region_cell(slab_of(w.x - 2e-12), w.x - 2e-12, py)
            cr = region_cell(slab_of(w.x + 2e-12), w.x + 2e-12, py)
            return "boundary", None, tuple(sorted({cl, cr})), ("ray", w_idx)
    k = slab_of(px)
    arcs, region0 = cut._slab(k)
    below = 0
    for b in arcs:
        cid = sorted(cut.sample)[cut._exact.samples.curve[b]]
        ay = ct._height(cut, b, px)
        if abs(ay - py) <= 1e-5:
            ay = _y_at(cut, b, px)
        if abs(ay - py) <= tol:
            cells = {int(cut._region_cell[region0 + below]),
                     int(cut._region_cell[region0 + min(below + 1, len(arcs))])}
            return "boundary", None, tuple(sorted(cells)), ("curve", cid)
        below += ay < py
    return "interior", int(cut._region_cell[region0 + below]), (), ()


def _probe_cutting():
    """A curved cutting and probes on its walls, wall ends and branches."""
    scene = gen.random_scene(["circle", "parabola", "exp", "line"], m=0, n=16,
                             planted=0.0, seed=12)
    traces = scene.traces()
    cut = pf.build_cutting(scene.curves, traces, scene.viewport, r=2, seed=3)
    x0, x1, y0, y1 = scene.viewport
    rng = np.random.default_rng(31)
    probes = [tuple(p) for p in rng.uniform((x0, y0), (x1, y1), size=(500, 2))]
    for w in cut.rays + cut.aux_walls:
        mid = 0.5 * (w.y_lo + w.y_hi)
        probes += [(w.x, mid), (w.x - 5e-8, mid), (w.x + 5e-8, mid), (w.x, w.y_lo), (w.x, w.y_hi)]
    for b, xs, _ys in _pieces(cut):
        for x in rng.uniform(xs[0], xs[-1], size=5):
            probes.append((float(x), _y_at(cut, b, x)))
    inside = [p for p in probes if x0 <= p[0] <= x1 and y0 <= p[1] <= y1]
    return cut, inside


def test_locate_matches_wall_and_arc_scan():
    cut, probes = _probe_cutting()
    kinds = set()
    for p in probes:
        loc = pf.locate_point(cut, p)
        assert (loc.kind, loc.cell, loc.cells, loc.on) == _locate_by_scan(cut, p), p
        kinds.add(loc.on[0] if loc.on else loc.kind)
    assert kinds == {"interior", "ray", "curve"}


@pytest.mark.parametrize("seed", [3, 4])
def test_branches_over_a_point_off_slab_edges_are_its_slab_arcs(seed):
    # the below-count sweep of locate_points and _occupancy relies on this,
    # both its search over the slab's arc extents and its branch scan
    kinds = ["line", "circle", "parabola", "exp", "log", "reciprocal", "exp-of-poly", "tan"]
    scene = gen.random_scene(kinds, m=0, n=16, planted=0.0, seed=seed)
    cut = pf.build_cutting(scene.curves, scene.traces(), scene.viewport, r=2, seed=seed)
    rng = np.random.default_rng(seed)
    checked = 0
    for k, (a, b) in enumerate(zip(cut.slab_xs[:-1], cut.slab_xs[1:])):
        for x in rng.uniform(a + 2 * ct._X_GROUP, b - 2 * ct._X_GROUP, size=3):
            if not (a + 2 * ct._X_GROUP < x < b - 2 * ct._X_GROUP):
                continue
            over = {b for b, xs, _ys in _pieces(cut) if xs[0] <= x <= xs[-1]}
            assert over == set(cut._slab(k)[0]), (k, x)
            checked += 1
    assert checked > 20


# -- the below-count sweep --------------------------------------------------


def _sweep_by_branch(cut, xs, ys, near):
    """_sweep's reference: every branch over every point, no extents."""
    below = np.zeros(len(xs), dtype=int)
    clear = np.ones(len(xs), dtype=bool)
    for _b, bx, by in _pieces(cut):
        over = (bx[0] <= xs) & (xs <= bx[-1])
        gap = ys[over] - np.interp(xs[over], bx, by)
        clear[over] &= np.abs(gap) > near
        below[over] += gap > 0
    edges = cut.slab_xs
    slab = np.clip(np.searchsorted(edges, xs, side="right") - 1, 0, len(edges) - 2)
    clear &= np.minimum(xs - edges[slab], edges[slab + 1] - xs) > 2 * ct._X_GROUP
    return slab, below, clear


def _check_sweep(cut, pts, near):
    """_sweep agrees with its reference on pts; returns the clear count."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    xs, ys = pts[np.argsort(pts[:, 0], kind="stable")].T
    slab, below, clear = ct._sweep(cut, xs, ys, near)
    want_slab, want_below, want_clear = _sweep_by_branch(cut, xs, ys, near)
    assert np.array_equal(clear, want_clear)
    assert np.array_equal(slab[clear], want_slab[clear])
    assert np.array_equal(below[clear], want_below[clear])
    return int(clear.sum())


def _sweep_probes(cut, traces, near, rng):
    """Trace samples, uniform points, points on and about the arcs (at
    random abscissas and at branch vertices, the extremes included), and
    points about 2 * _X_GROUP from the slab edges."""
    x0, x1, y0, y1 = cut.viewport
    probes = [np.column_stack([tr.xs, tr.ys]) for tr in traces]
    probes.append(rng.uniform((x0, y0), (x1, y1), size=(400, 2)))
    offsets = near * np.array([0.0, 0.5, 1.0, 2.0, 3.0, -0.5, -1.0, -2.0, -3.0])
    for b, bx, by in _pieces(cut):
        x = rng.uniform(bx[0], bx[-1], size=8)
        at = np.append(rng.integers(0, len(bx), size=16), [by.argmin(), by.argmax()])
        for px, py in ((x, _y_at(cut, b, x)), (x, np.interp(x, bx, by)), (bx[at], by[at])):
            probes += [np.column_stack([px, py + d]) for d in offsets]
    inner = cut.slab_xs[1:-1]
    for d in (2 * ct._X_GROUP - 1e-9, 2 * ct._X_GROUP + 1e-9):
        for x in (inner - d, inner + d):
            probes.append(np.column_stack([x, rng.uniform(y0, y1, size=len(x))]))
    pts = np.concatenate(probes)
    return pts[(x0 <= pts[:, 0]) & (pts[:, 0] <= x1)]


@pytest.mark.parametrize("near", [1e-9, 1e-5])
@pytest.mark.parametrize("r", [2, 4])
def test_sweep_matches_branch_by_branch_scan(r, near):
    scene = gen.random_scene(ACCEPTANCE_KINDS, m=0, n=24, planted=0.0, seed=r)
    traces = scene.traces()
    cut = pf.build_cutting(scene.curves, traces, scene.viewport, r=r, seed=r)
    pts = _sweep_probes(cut, traces, near, np.random.default_rng(r))
    assert _check_sweep(cut, pts, near) > 0.1 * len(pts)


@pytest.mark.parametrize("near", [1e-9, 1e-5])
def test_sweep_matches_branch_by_branch_scan_on_mixed_scene(near):
    scene = pf.load_scene(Path(__file__).parent / "data" / "mixed_scene.json")
    assert any(c.transform is not None for c in scene.curves)
    traces = scene.traces()
    cut = ct.decompose(range(len(scene.curves)), scene.curves, traces, scene.viewport)
    pts = _sweep_probes(cut, traces, near, np.random.default_rng(5))
    assert _check_sweep(cut, pts, near) > 0.1 * len(pts)


@pytest.mark.parametrize("scale", [1e-3, 1e6])
def test_sweep_matches_branch_by_branch_scan_on_scaled_scene(scale):
    base = gen.random_scene(ACCEPTANCE_KINDS, m=0, n=16, planted=0.0, seed=6)
    curves = [pf.apply_linear_transform(c, scale, 0.0, 0.0, scale) for c in base.curves]
    vp = tuple(scale * v for v in base.viewport)
    traces = [pf.trace_curve(c, vp) for c in curves]
    cut = pf.build_cutting(curves, traces, vp, r=2, seed=6)
    for near in (1e-9, 1e-5):
        pts = _sweep_probes(cut, traces, near, np.random.default_rng(6))
        assert _check_sweep(cut, pts, near) > 0.1 * len(pts)


@pytest.mark.parametrize("height", [0.75, 2.0**25])
def test_sweep_settles_points_a_slack_from_exact_extents(monkeypatch, height):
    # horizontal lines at float32 heights have exact extents: a point on one
    # is never clear, also at 2**25, where y - 2 near rounds down by an ulp
    # but y + 2 near rounds to y; and a point just a slack m from one (m as
    # in the _sweep docstring) is settled by the extents, not by the scan
    curves = [pf.line(0.0, height), pf.line(0.0, height + 256.0)]
    vp = (-1.0, 1.0, height - 512.0, height + 512.0)
    cut = ct.decompose([0, 1], curves, [pf.trace_curve(c, vp) for c in curves], vp)
    near = 1e-9
    slack = 2 * near + 1e-12 * (1 + height + 256.0)

    def a_slack_from_height(side):  # y with fl(y - side * slack) == height
        y = height + side * slack
        for _ in range(64):
            v = y - side * slack
            if v == height:
                return y
            y = np.nextafter(y, -math.inf if v > height else math.inf)
        raise AssertionError("no such y")

    xs = np.linspace(-0.9, 0.9, 7)
    scanned = []
    scan = ct._near_branches
    monkeypatch.setattr(ct, "_near_branches", lambda *a: scanned.append(len(a[1])) or scan(*a))
    for side, want_below in ((1, 1), (-1, 0)):
        ys = np.full(len(xs), a_slack_from_height(side))
        _slab, below, clear = ct._sweep(cut, xs, ys, near)
        assert clear.all() and (below == want_below).all() and scanned[-1] == 0
        assert _check_sweep(cut, np.column_stack([xs, ys]), near) == len(xs)
    on = np.column_stack([xs, np.full(len(xs), height)])
    assert _check_sweep(cut, on, near) == 0 and scanned[-1] == len(xs)


@pytest.mark.parametrize("tol", [1e-7, 1e-6])
def test_batched_location_matches_locate_point(tol):
    cut, probes = _probe_cutting()
    for w in cut.rays + cut.aux_walls:  # within tol of a wall, off its slab edge
        probes += [(w.x - 0.5 * tol, 0.5 * (w.y_lo + w.y_hi)),
                   (w.x + 0.5 * tol, 0.5 * (w.y_lo + w.y_hi))]
    cells = pf.locate_points(cut, probes, tol)
    expect = [loc.cell if loc.kind == "interior" else -1
              for loc in (pf.locate_point(cut, p, tol) for p in probes)]
    assert cells.tolist() == expect
    assert -1 in expect and len(set(expect)) > 10
    x0, x1, y0, y1 = cut.viewport
    with pytest.raises(ValueError, match="outside viewport"):
        pf.locate_points(cut, probes[:3] + [(x1 + 1e-9, 0.5 * (y0 + y1))])


def test_partition_covers_viewport(line_scene):
    scene, traces, cut = line_scene
    rng = np.random.default_rng(5)
    x0, x1, y0, y1 = scene.viewport
    for _ in range(1000):
        p = rng.uniform((x0 + 1e-6, y0 + 1e-6), (x1 - 1e-6, y1 - 1e-6))
        loc = pf.locate_point(cut, p)
        if loc.kind == "interior":
            assert 0 <= loc.cell < len(cut.cells)
        else:
            assert len(loc.cells) >= 1 and loc.on


def test_cell_areas_partition_viewport(line_scene):
    # the trapezoids of a slab's regions telescope to the slab's area, so
    # the partition holds for curved arcs too
    curved = gen.random_scene(["circle", "parabola"], m=0, n=16, planted=0.0, seed=4)
    curved_cut = pf.build_cutting(curved.curves, curved.traces(), curved.viewport, r=2, seed=4)
    for cut in (line_scene[2], curved_cut):
        x0, x1, y0, y1 = cut.viewport
        areas = cut.cell_areas()
        assert len(areas) == len(cut.cells)
        assert abs(areas.sum() - (x1 - x0) * (y1 - y0)) <= 1e-6 * (x1 - x0) * (y1 - y0)
        # each cell against a region-by-region scalar sum
        expect = np.zeros(len(cut.cells))
        for k, (a, b) in enumerate(zip(cut.slab_xs[:-1], cut.slab_xs[1:])):
            arcs, region0 = cut._slab(k)
            for rr in range(len(arcs) + 1):
                (lo_a, hi_a), (lo_b, hi_b) = (_region_bounds(cut, k, rr, x) for x in (a, b))
                area = 0.5 * (hi_a - lo_a + hi_b - lo_b) * (b - a)
                expect[cut._region_cell[region0 + rr]] += area
        np.testing.assert_allclose(areas, expect, rtol=1e-12, atol=1e-12)


def test_ray_count_bounded_by_events(line_scene):
    scene, traces, cut = line_scene
    from pfaffinc.intersect import intersect_curves, vertical_tangent_points

    crossings = 0
    for i, j in itertools.combinations(cut.sample, 2):
        crossings += len(intersect_curves(scene.curves[i], scene.curves[j],
                                          traces[i], traces[j]))
    tangents = sum(len(vertical_tangent_points(scene.curves[i], traces[i]))
                   for i in cut.sample)
    assert len(cut.rays) <= 2 * (crossings + tangents)


def test_decompose_finds_the_sample_tangents_in_one_run(monkeypatch):
    scene = gen.random_scene(["circle", "parabola", "line"], m=0, n=12, planted=0.0, seed=8)
    traces = scene.traces()
    runs = []
    refine = pf.intersect.refine_roots
    monkeypatch.setattr(pf.intersect, "refine_roots",
                        lambda f, *args, **kw: runs.append(f.__qualname__) or refine(f, *args, **kw))
    cut = ct.decompose(list(range(10)), scene.curves, traces, scene.viewport)
    assert sum(q.startswith("vertical_tangent_ts.") for q in runs) == 1
    assert any(w.source == "tangent" for w in cut.rays)
    # one run for the crossings and one for the touches of the pair pass
    assert len(runs) == 3


def test_cutting_serialization_is_reproducible():
    scene = gen.random_scene(["line", "circle"], m=0, n=12, planted=0.0, seed=8)
    traces = scene.traces()
    a = pf.build_cutting(scene.curves, traces, scene.viewport, r=2, seed=21)
    b = pf.build_cutting(scene.curves, traces, scene.viewport, r=2, seed=21)
    ja = json.dumps(a.to_dict(), sort_keys=True)
    jb = json.dumps(b.to_dict(), sort_keys=True)
    assert ja == jb


def test_cutting_json_matches_golden_bytes():
    # recorded from the slab-by-slab scalar assembly, before it was vectorised
    scene = gen.random_scene(ACCEPTANCE_KINDS, m=0, n=60, planted=0.0, seed=7)
    cut = pf.build_cutting(scene.curves, scene.traces(), scene.viewport, r=4, seed=7)
    text = json.dumps(cut.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"
    assert text == (Path(__file__).parent / "data" / "cutting_golden.json").read_text()


def test_failed_certification_raises():
    # one point-heavy viewport with r too aggressive for two parallel packs
    curves = [pf.line(0, -1.99 + 0.001 * i) for i in range(4)]
    traces = [pf.trace_curve(c, VP) for c in curves]
    try:
        cut = pf.build_cutting(curves, traces, VP, r=3, seed=0, max_retries=2)
    except CuttingFailed:
        return
    assert cut.max_crossings() <= 4 / 3


def test_decompose_does_not_depend_on_the_order_of_the_sample():
    # crossings found with the curves in the sample's order differed in the
    # last bit from those found by curve id, and so did the rays
    scene = pf.load_scene(Path(__file__).parent / "data" / "mixed_scene.json")
    curves = scene.curves + [pf.apply_linear_transform(c, *pf.curves.rotation_matrix(theta))
                             for c, theta in zip(scene.curves, (0.3, 0.5, 0.7, 0.9))]
    traces = [pf.trace_curve(c, scene.viewport) for c in curves]
    a, b = (ct.decompose(ids, curves, traces, scene.viewport).to_dict()
            for ids in ([14, 0, 3, 2, 12], [0, 2, 3, 12, 14]))
    assert a.pop("sample") == [14, 0, 3, 2, 12] and b.pop("sample") == [0, 2, 3, 12, 14]
    assert json.dumps(a) == json.dumps(b)


# -- the merge rule of events and slab edges --------------------------------------

def _reference_clusters(raw):
    """The event clusters of `ct._collect_events` as a loop of its own, before
    they went through `intersect._dedup`: each cluster keeps its member of
    lowest priority."""
    clusters = []
    for x, y, pri, src in sorted(raw, key=lambda e: (e[0], e[1], e[2])):
        merged = False
        for k in range(len(clusters) - 1, -1, -1):
            cx, cy, cpri, _csrc = clusters[k]
            if x - cx > ct._EVENT_EPS:
                break
            if (x - cx) ** 2 + (y - cy) ** 2 <= ct._EVENT_EPS ** 2:
                if pri < cpri:
                    clusters[k] = [x, y, pri, src]
                merged = True
                break
        if not merged:
            clusters.append([x, y, pri, src])
    return [(x, y, src) for x, y, _pri, src in clusters]


def _reference_slab_edges(events, branches, viewport):
    """`ct._slab_edges` as a grouping loop of its own, before `intersect._dedup`."""
    x0, x1, _y0, _y1 = viewport
    xs = [x0, x1]
    xs.extend(e[0] for e in events)
    xs.extend(branches.xs[np.append(branches.start, branches.stop - 1)].tolist())
    xs = sorted(x for x in xs if x0 - ct._X_GROUP <= x <= x1 + ct._X_GROUP)
    slab_xs = [x0]
    for x in xs:
        if x - slab_xs[-1] > ct._X_GROUP:
            slab_xs.append(x)
    if slab_xs[-1] < x1 - ct._X_GROUP:
        slab_xs.append(x1)
    else:
        slab_xs[-1] = x1
    return np.array(slab_xs)


# steps in units of the merge radius: exact duplicates, and distances just
# under and just over it (a relative 1e-6 stays far above the rounding of
# the differences and squares, which the two rules take differently)
_STEPS = st.sampled_from([0.0, 0.5, 1 - 1e-3, 1 - 1e-6, 1 + 1e-6, 1 + 1e-3, 3.0])


@settings(max_examples=200, deadline=None)
@given(x=st.floats(-5, 5), steps=st.lists(st.tuples(_STEPS, _STEPS, st.integers(0, 2)),
                                           min_size=1, max_size=40))
def test_event_clusters_match_the_reference_loop(x, steps):
    # chains of points about the radius apart, in x, in y or both, of mixed
    # priorities, so a crossing often comes after a tangent or an endpoint
    # of its cluster and replaces it
    eps, y, raw = ct._EVENT_EPS, 0.0, []
    for dx, dy, pri in steps:
        x, y = x + dx * eps, y + dy * eps * (-1) ** pri
        raw.append((x, y, pri, ("crossing", "tangent", "endpoint")[pri]))
    raw += raw[::3]  # exact duplicates
    got = [(x, y, src) for x, y, _pri, src in pf.intersect._dedup(raw, eps)]
    assert got == _reference_clusters(raw)


@settings(max_examples=200, deadline=None)
@given(x0=st.floats(-5, 5), width=st.floats(1e-6, 10),
       inner=st.lists(st.tuples(st.floats(0, 1), _STEPS), max_size=20),
       outer=st.lists(st.tuples(st.booleans(), _STEPS), max_size=8))
def test_slab_edges_match_the_reference_loop(x0, width, inner, outer):
    # abscissas inside, chains of them about _X_GROUP apart, and abscissas
    # within a few _X_GROUP outside the viewport on both sides
    g, x1 = ct._X_GROUP, x0 + width
    xs = []
    for u, step in inner:
        xs += [x0 + u * width, x0 + u * width + step * g]
    xs += [x1 + step * g if right else x0 - step * g for right, step in outer]
    events = [(x, 0.0, "crossing") for x in xs[::2]]
    ends = np.array(xs[1::2] + [x0 + width / 2] * (len(xs[1::2]) % 2))
    branches = SimpleNamespace(xs=ends, start=np.arange(0, len(ends), 2),
                               stop=np.arange(2, len(ends) + 1, 2))
    viewport = (x0, x1, -1.0, 1.0)
    got, want = (f(events, branches, viewport) for f in (ct._slab_edges, _reference_slab_edges))
    assert got.tobytes() == want.tobytes()
    assert got[0] == x0 and got[-1] == x1
