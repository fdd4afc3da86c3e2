"""Pairwise curve intersection, vertical tangents, and intersection ceilings.

Curves are handled as collections of x-monotone graph branches.  Candidate
crossings come from trace-resolution grids; every candidate is refined
against the exact parameterizations, so reported points carry closed-form
accuracy rather than polyline accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .curves import check_tol, refine_root
from .errors import SharedComponent

_TOUCH_SCAN = 1e-3  # coarse |gap| threshold that triggers tangency refinement


def pfaffian_bezout_bound(k1, k2):
    """Intersection ceiling for curves of field degrees k1 and k2."""
    if k1 < 0 or k2 < 0:
        raise ValueError("degrees must be nonnegative")
    return (k1 + k2) * (2 * k1 + k2) + k1 + 1


def check_bezout(c1, c2, found):
    """True iff the found intersections respect the degree ceiling."""
    return len(found) <= pfaffian_bezout_bound(c1.pf_degree, c2.pf_degree)


# -- vertical tangents -------------------------------------------------------


def _vx_along(curve, t):
    x, y = curve.point_at(t)
    return float(curve.field.vx(x, y))


def _vx_root(curve, a, b, va, vb):
    """The t in [a, b] where vx(P(t)) = 0, given va and vb at a and b."""
    return refine_root(lambda t: _vx_along(curve, t), a, b,
                       lambda t: float(curve.field.vx_rate(*curve.point_at(t))), va, vb)


def vertical_tangent_ts(curve, trace):
    """Parameters where the x-component of the field changes sign."""
    out = []
    for comp in trace.components:
        vx = curve.field.vx(comp.xs, comp.ys) + np.zeros_like(comp.xs)
        sign = np.sign(vx)
        for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
            out.append(_vx_root(curve, float(comp.ts[i]), float(comp.ts[i + 1]),
                                float(vx[i]), float(vx[i + 1])))
        for i in np.nonzero(sign == 0)[0]:
            out.append(float(comp.ts[i]))
    # closed parameterizations: check the wrap-around gap too
    if curve.period is not None and trace.components:
        first, last = trace.components[0], trace.components[-1]
        px, py = last.xs[-1], last.ys[-1]
        qx, qy = first.xs[0], first.ys[0]
        gap = math.hypot(px - qx, py - qy)
        if gap < 64 * trace.step * (1 + curve.period):
            a = float(last.ts[-1])
            b = float(first.ts[0]) + curve.period
            va, vb = _vx_along(curve, a), _vx_along(curve, b)
            if va * vb < 0:
                out.append(_vx_root(curve, a, b, va, vb) % curve.period)
    return sorted(out)


def vertical_tangent_points(curve, trace):
    """Points of the trace where the directional vector is vertical."""
    pts = []
    for t in vertical_tangent_ts(curve, trace):
        x, y = curve.point_at(t)
        pts.append((float(x), float(y)))
    return _dedup(pts, 1e-8)


# -- monotone branches -------------------------------------------------------


@dataclass
class GraphBranch:
    """One x-monotone piece of a trace, with exact evaluation."""

    curve: object
    ts: np.ndarray  # aligned with xs, ys; xs strictly ascending
    xs: np.ndarray
    ys: np.ndarray

    @property
    def x_lo(self):
        return float(self.xs[0])

    @property
    def x_hi(self):
        return float(self.xs[-1])

    @cached_property
    def y_lo(self):
        return float(self.ys.min())

    @cached_property
    def y_hi(self):
        return float(self.ys.max())

    @cached_property
    def t_mid(self):
        """A parameter inside the branch, away from its turning points."""
        return float(self.ts[len(self.ts) // 2])

    def y_interp(self, x):
        return np.interp(x, self.xs, self.ys)

    def t_interp(self, x):
        return np.interp(x, self.xs, self.ts)

    def y_at(self, x):
        """Exact y by inverting the parameterization at this x."""
        curve = self.curve
        t = curve.param_from_x(x, self.t_mid)
        if t is None:
            # transformed curves: x(t) is monotone on the branch, dx/dt = vx
            i = min(max(int(np.searchsorted(self.xs, x)), 1), len(self.xs) - 1)
            t = refine_root(lambda u: float(curve.point_at(u)[0]) - x,
                            float(self.ts[i - 1]), float(self.ts[i]),
                            lambda u: _vx_along(curve, u),
                            float(self.xs[i - 1]) - x, float(self.xs[i]) - x)
        return float(curve.point_at(t)[1])


def monotone_branches(curve, trace):
    """Split trace components into x-monotone branches at vertical tangents."""
    vts = vertical_tangent_ts(curve, trace)
    branches = []
    for comp in trace.components:
        cuts = [t for t in vts if comp.ts[0] < t < comp.ts[-1]]
        bounds = [float(comp.ts[0])] + cuts + [float(comp.ts[-1])]
        for a, b in zip(bounds[:-1], bounds[1:]):
            if b - a <= 0:
                continue
            sel = (comp.ts > a) & (comp.ts < b)
            ts = np.concatenate([[a], comp.ts[sel], [b]])
            xs, ys = curve.point_at(ts)
            xs = np.asarray(xs, float) + np.zeros_like(ts)
            ys = np.asarray(ys, float) + np.zeros_like(ts)
            if xs[0] > xs[-1]:
                ts, xs, ys = ts[::-1], xs[::-1], ys[::-1]
            # enforce strictly ascending x (drops jitter at the turning point)
            run_max = np.maximum.accumulate(xs)
            keep = np.concatenate([[True], np.diff(run_max) > 0])
            ts, xs, ys = ts[keep], xs[keep], ys[keep]
            if len(xs) >= 2:
                branches.append(GraphBranch(curve, ts, xs, ys))
    return branches


# -- intersections ------------------------------------------------------------


def _dedup(points, radius):
    merged = []
    for p in sorted(points):
        if any((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 <= radius * radius for q in merged):
            continue
        merged.append(p)
    return merged


def _separation(tol):
    """The y-gap beyond which two branches cannot yield a point.

    Every grid value of a pair's interpolated gap h = y1 - y2 lies in
    [y_lo1 - y_hi2, y_hi1 - y_lo2].  When the two y-ranges are further apart
    than this, h has one sign, no zero, no |h| <= _TOUCH_SCAN (touch scan)
    and no |h| <= 10*tol (overlap vote), so the pair yields nothing.
    """
    check_tol(tol)
    return max(_TOUCH_SCAN, 10 * tol)


def _apart(lo1, hi1, lo2, hi2, sep):
    """Whether y-ranges [lo1, hi1] and [lo2, hi2] are more than sep apart.

    The slack covers np.interp overshooting a range by a few ulps of its
    heights.  Takes floats, or arrays against one range.
    """
    sep = sep + 1e-12 * (1 + abs(lo1) + abs(hi1) + abs(lo2) + abs(hi2))
    return (lo1 - hi2 > sep) | (lo2 - hi1 > sep)


def candidate_pairs(branch_lists, tol=1e-9):
    """n x n bool matrix over the curves whose branches are branch_lists.

    True where some branch pair of curves i != j overlaps in x by more than
    1e-12 and passes the y-range test of branch_intersections.  A pair left
    False has no intersection points, so a caller may skip it.  Runs one row
    per branch, vectorised over all branches.
    """
    sep = _separation(tol)
    n = len(branch_lists)
    owner = np.repeat(np.arange(n), [len(bs) for bs in branch_lists])
    flat = [b for bs in branch_lists for b in bs]
    x_lo, x_hi, y_lo, y_hi = np.array([(b.x_lo, b.x_hi, b.y_lo, b.y_hi) for b in flat],
                                      dtype=float).reshape(-1, 4).T
    live = np.zeros((n, n), dtype=bool)
    for i, b in zip(owner, flat):
        hit = (owner != i) & (np.minimum(b.x_hi, x_hi) - np.maximum(b.x_lo, x_lo) > 1e-12) \
            & ~_apart(b.y_lo, b.y_hi, y_lo, y_hi, sep)
        live[i, owner[hit]] = True
    return live


def intersect_curves(c1, c2, trace1, trace2, tol=1e-9):
    """Deduplicated intersection points of two distinct curves.

    Crossing candidates come from sign changes of the branch gap on a
    trace-resolution grid; tangential contacts from local minima of the gap.
    Each candidate is refined on the exact parameterizations to |gap| <= tol.
    """
    if c1 is c2:
        raise ValueError("curves must be distinct objects")
    b1s = monotone_branches(c1, trace1)
    b2s = monotone_branches(c2, trace2)
    return branch_intersections(c1, b1s, c2, b2s, tol)


def branch_intersections(c1, b1s, c2, b2s, tol=1e-9):
    """intersect_curves on precomputed monotone branches."""
    sep = _separation(tol)
    points = []
    overlap_votes = 0
    for b1 in b1s:
        for b2 in b2s:
            lo = max(b1.x_lo, b2.x_lo)
            hi = min(b1.x_hi, b2.x_hi)
            if hi - lo <= 1e-12 or _apart(b1.y_lo, b1.y_hi, b2.y_lo, b2.y_hi, sep):
                continue
            grid = np.unique(np.concatenate([
                b1.xs[(b1.xs >= lo) & (b1.xs <= hi)],
                b2.xs[(b2.xs >= lo) & (b2.xs <= hi)],
                [lo, hi],
            ]))
            if len(grid) > 4096:
                grid = grid[:: len(grid) // 2048]
            h = b1.y_interp(grid) - b2.y_interp(grid)
            if np.mean(np.abs(h) <= 10 * tol) > 0.5 and len(grid) > 8:
                overlap_votes += 1

            y1 = y2 = 0.0

            def gap(x):
                nonlocal y1, y2
                y1, y2 = b1.y_at(x), b2.y_at(x)
                return y1 - y2

            def gap_slope(x):  # dy/dx = vy/vx on each curve, at the last gap call
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
                    continue  # interpolation artifact
                x = refine_root(gap, a, b, gap_slope, ga, gb)
                points.append((float(x), float(b1.y_at(x))))
            for i in np.nonzero(sign == 0)[0]:
                x = float(grid[i])
                points.append((x, float(b1.y_at(x))))
            # local minima of |gap| below the scan threshold, except next to a
            # sign change (already found as a crossing); the threshold goes
            # first, so the other tests run on the few points that pass it
            absh = np.abs(h)
            near = np.nonzero(absh[1:-1] <= _TOUCH_SCAN)[0] + 1
            near = near[(absh[near] <= absh[near - 1]) & (absh[near] <= absh[near + 1])
                        & ~(sign[near - 1] * sign[near] < 0) & ~(sign[near] * sign[near + 1] < 0)]
            for i in near:
                # a tangential contact is an extremum of the gap
                a, b = float(grid[i - 1]), float(grid[i + 1])
                sa, sb = slope_difference(a), slope_difference(b)
                x = refine_root(slope_difference, a, b, fa=sa, fb=sb) \
                    if sa * sb <= 0 else float(grid[i])
                if abs(gap(x)) <= tol:
                    points.append((x, float(b1.y_at(x))))
    points = _dedup(points, 10 * tol)
    bound = pfaffian_bezout_bound(c1.pf_degree, c2.pf_degree)
    if overlap_votes and len(points) > bound:
        raise SharedComponent(
            f"{len(points)} surviving crossings with interval overlap "
            f"(ceiling {bound}); curves appear to share a component")
    return points
