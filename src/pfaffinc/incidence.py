"""Incidence counting, forbidden-subgraph checks, and bound evaluators.

Brute-force counting is the ground truth.  One cell join per grid side
finds each point's nearest sample within the search radius, as a dense
scan would (`_candidates`); the pairs are refined on the exact curves in
one lockstep run (`_refined_distances`, through `curves.by_curve`).  The
cutting-decomposed count classifies the same pairs through the cell
structure and must reproduce the total exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .curves import by_curve, check_tol, refine_roots
from .cutting import locate_points
from .errors import ComplexityGuard, InconsistentScene

FEW_POINTS = "few-points"
MANY_POINTS = "n<sqrt(m)"

_GUARD = 10**8

# (point, sample) pairs per block of the candidate search; a block exceeds it
# by at most one point's pairs, no more than the samples.  Its temporaries take
# under 100 bytes a pair, so the search's memory is bounded whatever the radius
_BLOCK = 2**17


@dataclass
class IncidenceGraph:
    edges: set  # {(point id, curve id)}
    m: int
    n: int

    def point_adj(self):
        adj = {i: set() for i in range(self.m)}
        for p, c in self.edges:
            adj[p].add(c)
        return adj

    def curve_adj(self):
        return self.transpose().point_adj()

    def transpose(self):
        return IncidenceGraph({(c, p) for p, c in self.edges}, self.n, self.m)

    def count(self):
        return len(self.edges)


def _refined_distances(curves, traces, cid, comp, iv, px, py):
    """Distance from each point (px[k], py[k]) to curve cid[k] near sample
    iv[k] of its trace component comp[k], with cid ascending: the least over
    the samples iv-2 .. iv+2 of that component and the minima between them,
    the - to + roots of (P - p) . V = d/dt |P - p|^2 / 2, whose t-derivative
    is |V|^2 where the curve passes through p.  The roots of every curve are
    refined in one lockstep run; lanes meet curves through `by_curve`."""

    def windows(c, comp, iv, px, py):
        ts, xs, ys = traces[c].samples()
        sizes = np.array([len(part) for part in traces[c].components])
        size = sizes[comp, None]
        j = iv[:, None] + np.arange(-2, 3)
        inside = (j >= 0) & (j < size)  # windows are clipped at component ends
        win = (np.cumsum(sizes) - sizes)[comp, None] + np.clip(j, 0, size - 1)
        dx, dy = xs[win] - px[:, None], ys[win] - py[:, None]
        vx, vy = curves[c].field_at(xs[win], ys[win])
        return (ts[win], np.where(inside, np.hypot(dx, dy), np.inf).min(axis=1),
                np.where(inside, dx * vx + dy * vy, np.nan))

    def along(c, t, lx, ly):
        x, y = curves[c].point_at(t)
        vx, vy = curves[c].field_at(x, y)
        return (x - lx) * vx + (y - ly) * vy, vx * vx + vy * vy

    tw, dist, g = by_curve(cid, windows, comp, iv, px, py)
    k, i = np.nonzero((g[:, :-1] < 0) & (g[:, 1:] > 0))
    lc, lx, ly = cid[k], px[k], py[k]
    t = refine_roots(lambda t, lanes: by_curve(lc[lanes], along, t, lx[lanes], ly[lanes]),
                     tw[k, i], tw[k, i + 1], g[k, i], g[k, i + 1])
    x, y = by_curve(lc, lambda c, t: curves[c].point_at(t), t)
    np.fmin.at(dist, k, np.hypot(x - lx, y - ly))
    return dist


def _candidates(pts, traces, tol):
    """Rows (point, curve, component, nearest sample), by curve, component and
    point, for each point whose nearest sample on a trace component lies within
    its search radius, half the longest sample gap plus a margin.  Pairs come
    from one cell index per grid side, taken _BLOCK pairs at a time."""
    curve, local, parts = zip(*[(ci, c, comp) for ci, trace in enumerate(traces)
                                for c, comp in enumerate(trace.components)])
    owner = np.repeat(np.arange(len(parts)), [len(part) for part in parts])
    start = np.flatnonzero(np.diff(owner, prepend=-1))
    xs, ys = map(np.concatenate, zip(*[(part.xs, part.ys) for part in parts]))
    lo = np.array([[xs.min()], [ys.min()]])
    gap = np.hypot(np.diff(xs), np.diff(ys)) * (np.diff(owner) == 0)  # none across components
    radius = np.maximum.reduceat(np.append(gap, 0.0), start) / 2 + max(100 * tol, 1e-6)
    # grid sides: powers of two above the radius, by a margin for rounding; under
    # 2^24 cells across keep keys exact
    sides = 2.0 ** np.ceil(np.log2(np.maximum(radius * (1 + 2**-19),
                                              max(np.ptp(xs), np.ptp(ys)) / 2**24)))

    def join(side):  # one sort of the side's samples by cell
        s = np.flatnonzero((sides == side)[owner])
        reach = radius[owner[s]].max() / side + 2**-20  # under one cell
        # the cells within reach of a point, at most 3 x 3, hold every sample
        # within the radius; those of a far point, clipped, hold none
        with np.errstate(over="ignore"):
            q = (np.hstack(([xs[s], ys[s]], pts.T)) - lo) / side
        (kx, ky), (x0, y0), (x1, y1) = (np.clip(np.floor(c), -2, 2**24 + 2).astype(np.int64) for c in
                                        (q[:, :len(s)], q[:, len(s):] - reach, q[:, len(s):] + reach))
        keys = kx * 2**25 + ky
        order = np.argsort(keys, kind="stable")  # a cell's samples by index, so by component
        s, keys = s[order], keys[order]
        cx = x0[:, None] + np.arange(3)
        first = np.searchsorted(keys, cx * 2**25 + y0[:, None])
        hits = np.searchsorted(keys, cx * 2**25 + y1[:, None], side="right") - first
        hits[cx > x1[:, None]] = 0
        cuts = np.searchsorted(np.cumsum(hits.sum(axis=1)), np.arange(_BLOCK, hits.sum(), _BLOCK),
                               side="right")
        starts = np.unique(np.append(0, cuts)).tolist()
        near = (s, xs[s], ys[s], radius[owner[s]])
        return [nearest(*near, first[a:b], hits[a:b], a, b)
                for a, b in zip(starts, starts[1:] + [len(pts)])]

    def nearest(s, sx, sy, sr, first, hits, a, b):  # of the points a .. b-1
        per = hits.sum(axis=1)
        first, hits = first.ravel(), hits.ravel()
        j = np.repeat(first - np.cumsum(hits) + hits, hits) + np.arange(per.sum())
        d2 = (np.repeat(pts[a:b, 0], per) - sx[j]) ** 2 + (np.repeat(pts[a:b, 1], per) - sy[j]) ** 2
        keep = np.flatnonzero(np.sqrt(d2) <= sr[j])
        sj = s[j[keep]]
        # runs of one (component, point) are reduced before the sort
        group, d2, sj = least(owner[sj] * len(pts) + np.repeat(np.arange(a, b), per)[keep],
                              d2[keep], sj)
        order = np.argsort(group)
        return least(group[order], d2[order], sj[order])[::2]

    def least(group, d2, sj):  # per run of one group, the least d2 and of its ties the lowest sample
        at = np.flatnonzero(np.diff(group, prepend=-1))
        low = np.minimum.reduceat(d2, at)
        tie = d2 == np.repeat(low, np.diff(at, append=len(group)))
        return group[at], low, np.minimum.reduceat(np.where(tie, sj, len(xs)), at)

    group, sj = map(np.concatenate, zip(*[g for side in np.unique(sides) for g in join(side)]))
    order = np.argsort(group)  # one row per (component, point)
    c, pi = np.divmod(group[order], len(pts))
    return np.array([pi, np.array(curve)[c], np.array(local)[c], sj[order] - start[c]])


def _finite(points):
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    return pts


def point_curve_distance(curve, trace, p, tol=1e-7):
    """Distance from p to the curve: on each trace component, refined on
    the parameterization if the nearest sample is within the search radius,
    else the distance to that sample."""
    check_tol(tol)
    pts = _finite([p])
    pi, cid, comp, iv = _candidates(pts, [trace], tol)
    _, xs, ys = trace.samples()
    sizes = np.array([len(part) for part in trace.components])
    best = np.sqrt(np.minimum.reduceat((xs - pts[0, 0]) ** 2 + (ys - pts[0, 1]) ** 2,
                                       np.cumsum(sizes) - sizes))
    best[comp] = _refined_distances([curve], [trace], cid, comp, iv, pts[pi, 0], pts[pi, 1])
    return float(best.min())


def count_incidences(points, curves, traces, tol=1e-7):
    """Bipartite incidence graph at the given tolerance: a point and a curve
    meet when one of their candidates (`_candidates`) lies within tol once
    refined; the candidates of all curves are refined in one run."""
    check_tol(tol)
    pts = _finite(points)
    if len(pts) == 0 or not curves:
        return IncidenceGraph(set(), len(pts), len(curves))
    pi, cid, comp, iv = _candidates(pts, traces, tol)
    dist = _refined_distances(curves, traces, cid, comp, iv, pts[pi, 0], pts[pi, 1])
    on = dist <= tol
    return IncidenceGraph(set(zip(pi[on].tolist(), cid[on].tolist())), len(pts), len(curves))


def kst_free(graph, s, t):
    """True iff no s points and t curves are pairwise fully incident.

    Enumerates the cheaper side: s-subsets of points with common curve
    neighborhood >= t, or equivalently t-subsets of curves with common
    point neighborhood >= s.
    """
    if s < 1 or t < 1:
        raise ValueError("s and t must be positive")
    point_side = math.comb(graph.m, s)
    curve_side = math.comb(graph.n, t)
    if min(point_side, curve_side) > _GUARD:
        raise ComplexityGuard(f"C(m,s)={point_side}, C(n,t)={curve_side} both exceed {_GUARD}")
    if point_side <= curve_side:
        adj = graph.point_adj()
        return _no_complete_bipartite(adj, s, t)
    adj = graph.curve_adj()
    return _no_complete_bipartite(adj, t, s)


def _no_complete_bipartite(adj, pick, need):
    eligible = [v for v, nb in adj.items() if len(nb) >= need]
    if math.comb(len(eligible), pick) > _GUARD:
        raise ComplexityGuard("subset enumeration over eligible vertices too large")
    for combo in itertools.combinations(eligible, pick):
        common = set(adj[combo[0]])
        for v in combo[1:]:
            common &= adj[v]
            if len(common) < need:
                break
        if len(common) >= need:
            return False
    return True


# -- decomposed counting -----------------------------------------------------


@dataclass
class IncidenceBreakdown:
    per_cell: list
    on_boundary_vs_nonsample: int
    on_boundary_vs_sample: int
    boundary_points: int
    crossing_repairs: int = 0

    @property
    def total(self):
        return sum(self.per_cell) + self.on_boundary_vs_nonsample + self.on_boundary_vs_sample


def count_via_cutting(points, curves, traces, cutting, tol=1e-7, graph=None):
    """Split the incidence count through a certified cutting.

    Points incident to sampled curves or lying on rays form the boundary
    class; every other point is located in a cell interior.  Each incidence
    is classified once, so the total matches the brute-force count exactly.
    """
    if cutting.n != len(curves):
        raise InconsistentScene(
            f"cutting built for {cutting.n} curves, scene has {len(curves)}")
    check_tol(tol)
    if graph is None:
        graph = count_incidences(points, curves, traces, tol)
    sample = set(cutting.sample)
    pts = _finite(points)
    on_sample = {pi for pi, ci in graph.edges if ci in sample}
    rest = np.array([pi for pi in range(len(pts)) if pi not in on_sample], dtype=np.int64)
    cell_of = np.full(len(pts), -1, dtype=np.int64)  # -1: on a boundary
    cell_of[rest] = locate_points(cutting, pts[rest], tol)
    boundary = int(np.count_nonzero(cell_of < 0))
    cell_of = cell_of.tolist()

    per_cell = [0] * len(cutting.cells)
    b_sample = b_nonsample = repairs = 0
    for pi, ci in graph.edges:
        cell = cell_of[pi]
        if cell < 0:
            if ci in sample:
                b_sample += 1
            else:
                b_nonsample += 1
        else:
            per_cell[cell] += 1
            if cutting._crossings is not None and ci not in cutting._crossings[cell]:
                cutting._crossings[cell].add(ci)
                repairs += 1
    return IncidenceBreakdown(per_cell, b_nonsample, b_sample, boundary, repairs)


# -- bound evaluators ---------------------------------------------------------


def bound_kst(m, n, s, C=1.0):
    """C * (m * n^(1 - 1/s) + n)."""
    if m < 0 or n < 0 or s < 2:
        raise ValueError("require m, n >= 0 and s >= 2")
    return C * (m * n ** (1.0 - 1.0 / s) + n)


def bound_kst_dual(m, n, t, C=1.0):
    """C * (m^(1 - 1/t) * n + m)."""
    if m < 0 or n < 0 or t < 2:
        raise ValueError("require m, n >= 0 and t >= 2")
    return C * (m ** (1.0 - 1.0 / t) * n + m)


def bound_pach_sharir(m, n, s, C=1.0):
    """C * (m^(s/(2s-1)) * n^((2s-2)/(2s-1)) + n + m)."""
    if s < 2:
        raise ValueError("require s >= 2")
    e1 = s / (2.0 * s - 1.0)
    e2 = (2.0 * s - 2.0) / (2.0 * s - 1.0)
    return C * (m ** e1 * n ** e2 + n + m)


def bound_pfaffian_curves(m, n, s, C=1.0):
    """Three-term ceiling with natural-log factors; needs n >= 2."""
    if n < 2:
        raise ValueError("require n >= 2 so that log n is positive")
    if s < 2:
        raise ValueError("require s >= 2")
    e1 = s / (2.0 * s - 1.0)
    e2 = (2.0 * s - 2.0) / (2.0 * s - 1.0)
    ln = math.log(n)
    return C * (m ** e1 * n ** e2 * ln ** e2 + n * ln ** 2 + m)


def bound_pfaffian_family(m, n, d, eps=0.0, C=1.0):
    """C * (n^((2d-4)/(2d-3) + eps) * m^((d-1)/(2d-3)) + m + n)."""
    if d < 2:
        raise ValueError("require dimension d >= 2")
    e1 = (2.0 * d - 4.0) / (2.0 * d - 3.0) + eps
    e2 = (d - 1.0) / (2.0 * d - 3.0)
    return C * (n ** e1 * m ** e2 + m + n)


def bound_hyperplanes(m, n, d, s, eps=0.0, C=1.0):
    """C * (m^((sd-s)/(sd-1) + eps) * n^((sd-d)/(sd-1)) + m + n)."""
    if d < 2 or s < 2:
        raise ValueError("require d >= 2 and s >= 2")
    e1 = (s * d - s) / (s * d - 1.0) + eps
    e2 = (s * d - d) / (s * d - 1.0)
    return C * (m ** e1 * n ** e2 + m + n)


def optimal_r(m, n, s):
    """Cell-count parameter equalizing the two main terms, with clamp flags.

    Returns (r, regime) where regime is None inside [1, n-1], FEW_POINTS
    when the ideal value falls below 1, MANY_POINTS when it reaches n.
    """
    if n < 2:
        raise ValueError("require n >= 2")
    if s < 2:
        raise ValueError("require s >= 2")
    ln = math.log(n)
    r_star = m ** (s / (2.0 * s - 1.0)) / (n ** (1.0 / (2.0 * s - 1.0)) * ln ** (2.0 * s / (2.0 * s - 1.0)))
    if r_star < 1.0:
        return 1, FEW_POINTS
    if r_star >= n:
        return n - 1, MANY_POINTS
    return int(min(max(round(r_star), 1), n - 1)), None


def fit_constant(observations):
    """Smallest C with I <= C * base for every (I, base) pair."""
    best = 0.0
    for count, base in observations:
        if base <= 0:
            if count > 0:
                raise ValueError("positive count against a zero bound")
            continue
        best = max(best, count / base)
    return best
