"""Incidence counting, forbidden-subgraph checks, and bound evaluators.

Brute-force counting is the ground truth.  One cell join per grid side,
pruned to the points and samples within reach of each other, finds each
point's nearest sample within the search radius, as a dense scan would
(`_candidates`); the pairs are refined on the exact curves in one lockstep
run (`_refined_distances`), whose rounds make one array call per curve
signature through a `curves.CurveTable`.  Both read the traces' samples
as one `curves.SampleTable` (`curves.trace_table`): a candidate is a point,
a piece of that table and the row of its nearest sample, and the piece
gives its curve and its window's ends.  The cutting-decomposed
count classifies the same pairs through the cell structure and must
reproduce the total exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .curves import CurveTable, check_tol, check_traces, refine_roots, trace_table
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


def _refined_distances(curves, samples, piece, row, px, py):
    """Distance from each point (px[k], py[k]) to its curve near row row[k]
    of piece piece[k] of samples, the curves' trace components as one
    `curves.SampleTable`: the least over the rows row-2 .. row+2 of that
    piece and the minima between them, the - to + roots of
    (P - p) . V = d/dt |P - p|^2 / 2, whose t-derivative is |V|^2 where the
    curve passes through p.  The roots of every curve are refined in one
    lockstep run, and each evaluation makes one array call per curve
    signature (`curves.CurveTable`)."""
    table = CurveTable(curves)
    tw, dist, g = _windows(table, samples, piece, row, px, py)
    k, i = np.nonzero((g[:, :-1] < 0) & (g[:, 1:] > 0))
    lc, lx, ly = samples.curve[piece[k]], px[k], py[k]

    def along(t, lanes):
        on = table.lanes(lc[lanes])
        x, y = on.point_at(t)
        vx, vy = on.field_at(x, y)
        return (x - lx[lanes]) * vx + (y - ly[lanes]) * vy, vx * vx + vy * vy

    t = refine_roots(along, tw[k, i], tw[k, i + 1], g[k, i], g[k, i + 1])
    x, y = table.lanes(lc).point_at(t)
    np.fmin.at(dist, k, np.hypot(x - lx, y - ly))
    return dist


def _windows(table, samples, piece, row, px, py):
    """Per lane of `_refined_distances`, its window, the rows row-2 ..
    row+2 clipped to its piece: their parameters, the least distance from
    the point to them, and (P - p) . V at each (NaN past an end).  Its
    temporaries end with the call, before the refinement runs."""
    start, stop = samples.start[piece, None], samples.stop[piece, None]
    j = row[:, None] + np.arange(-2, 3)
    inside = (j >= start) & (j < stop)
    win = np.clip(j, start, stop - 1)
    dx, dy = samples.xs[win], samples.ys[win]
    vx, vy = table.lanes(samples.curve[piece]).field_at(dx, dy)
    dx -= px[:, None]
    dy -= py[:, None]
    return (samples.ts[win], np.where(inside, np.hypot(dx, dy), np.inf).min(axis=1),
            np.where(inside, dx * vx + dy * vy, np.nan))


def _candidates(pts, samples, tol):
    """Rows (point, piece, row of its nearest sample), by piece and point,
    for each point whose nearest sample on a trace component (a piece of
    samples, `curves.trace_table`) lies within its search radius, half the
    longest sample gap plus a margin.  Pairs come from one cell index per grid side,
    built and searched only over the samples and points with a cell of the
    other within reach (`_prune`), taken _BLOCK pairs at a time."""
    xs, ys, start = samples.xs, samples.ys, samples.start
    owner = samples.piece_ids()
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
        qp = q[:, len(s):]
        ks, kp = (np.clip(np.floor(c), -2, 2**24 + 2).astype(np.int64) for c in (q[:, :len(s)], qp))
        p, keep = _prune(ks, kp)
        s, (kx, ky) = s[keep], ks[:, keep]
        (x0, y0), (x1, y1) = (np.clip(np.floor(qp[:, p] + d), -2, 2**24 + 2).astype(np.int64)
                              for d in (-reach, reach))
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
        return [nearest(*near, first[a:b], hits[a:b], p[a:b])
                for a, b in zip(starts, starts[1:] + [len(p)])]

    def nearest(s, sx, sy, sr, first, hits, p):  # of the points p
        per = hits.sum(axis=1)
        first, hits = first.ravel(), hits.ravel()
        j = np.repeat(first - np.cumsum(hits) + hits, hits) + np.arange(per.sum())
        d2 = (np.repeat(pts[p, 0], per) - sx[j]) ** 2 + (np.repeat(pts[p, 1], per) - sy[j]) ** 2
        keep = np.flatnonzero(np.sqrt(d2) <= sr[j])
        sj = s[j[keep]]
        # runs of one (component, point) are reduced before the sort
        group, d2, sj = least(owner[sj] * len(pts) + np.repeat(p, per)[keep], d2[keep], sj)
        order = np.argsort(group)
        return least(group[order], d2[order], sj[order])[::2]

    def least(group, d2, sj):  # per run of one group, the least d2 and of its ties the lowest sample
        at = np.flatnonzero(np.diff(group, prepend=-1))
        low = np.minimum.reduceat(d2, at)
        tie = d2 == np.repeat(low, np.diff(at, append=len(group)))
        return group[at], low, np.minimum.reduceat(np.where(tie, sj, len(xs)), at)

    group, sj = map(np.concatenate, zip(*[g for side in np.unique(sides) for g in join(side)]))
    order = np.argsort(group)  # one row per (piece, point)
    piece, pi = np.divmod(group[order], len(pts))
    return np.array([pi, piece, sj[order]])


def _prune(ks, kp):
    """The points (indices) and the samples (a mask) of one grid side of
    `_candidates` that have a cell of the other within reach, given the
    cells of its samples ks and of the points kp (2 x count each).  Two
    occupancy bitmaps cover the samples' cells coarsened by 2^c, the least
    power that keeps them within 2^20 coarse cells, and one coarse cell of
    margin on each side.  A point's cells lie within one cell of its own, so
    their coarse cells lie within one coarse cell of its own: bitmaps
    dilated by one coarse cell miss no pair."""
    k0 = ks.min(axis=1, keepdims=True)
    span = ks.max(axis=1) - k0[:, 0]
    c = 0
    while np.prod((span >> c) + 1) > 2**20:
        c += 1
    shape = (span >> c) + 3
    cs, cp = (((k - k0) >> c) + 1 for k in (ks, kp))
    p = np.flatnonzero(((cp >= 0) & (cp < shape[:, None])).all(axis=0))
    p = p[_dilated(cs, shape)[tuple(cp[:, p])]]
    return p, _dilated(cp[:, p], shape)[tuple(cs)]


def _dilated(cells, shape):
    """The bitmap of the coarse cells (2 x count), dilated by one cell."""
    grid = np.zeros(tuple(shape.tolist()), dtype=bool)
    grid[tuple(cells)] = True
    for g in (grid, grid.T):  # overlapping operands are read as copies
        g[1:] |= g[:-1]
        g[:-1] |= g[1:]
    return grid


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
    pi, piece, row = _candidates(pts, trace, tol)
    best = np.sqrt(np.minimum.reduceat((trace.xs - pts[0, 0]) ** 2
                                       + (trace.ys - pts[0, 1]) ** 2, trace.start))
    best[piece] = _refined_distances([curve], trace, piece, row, pts[pi, 0], pts[pi, 1])
    return float(best.min())


def count_incidences(points, curves, traces, tol=1e-7):
    """Bipartite incidence graph at the given tolerance: a point and a curve
    meet when one of their candidates (`_candidates`) lies within tol once
    refined; the candidates of all curves are refined in one run.  Raises
    InconsistentScene unless there is one trace per curve."""
    check_tol(tol)
    check_traces(curves, traces)
    pts = _finite(points)
    if len(pts) == 0 or not curves:
        return IncidenceGraph(set(), len(pts), len(curves))
    samples = trace_table(traces)
    pi, piece, row = _candidates(pts, samples, tol)
    dist = _refined_distances(curves, samples, piece, row, pts[pi, 0], pts[pi, 1])
    on = dist <= tol
    return IncidenceGraph(set(zip(pi[on].tolist(), samples.curve[piece[on]].tolist())),
                          len(pts), len(curves))


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
    Raises InconsistentScene unless the traces, the cutting and the graph
    are those of these points and curves.
    """
    if cutting.n != len(curves):
        raise InconsistentScene(
            f"cutting built for {cutting.n} curves, scene has {len(curves)}")
    check_tol(tol)
    check_traces(curves, traces)
    pts = _finite(points)
    if graph is None:
        graph = count_incidences(pts, curves, traces, tol)
    if (graph.m, graph.n) != (len(pts), len(curves)):
        raise InconsistentScene(f"graph of {graph.m} points and {graph.n} curves, "
                                f"scene has {len(pts)} and {len(curves)}")
    sample = np.bincount(cutting.sample, minlength=len(curves)) > 0  # sampled curves
    pi, ci = np.array(list(graph.edges), dtype=np.int64).reshape(-1, 2).T
    rest = np.bincount(pi[sample[ci]], minlength=len(pts)) == 0  # on no sampled curve
    cell_of = np.full(len(pts), -1, dtype=np.int64)  # -1: on a boundary
    cell_of[rest] = locate_points(cutting, pts[rest], tol)
    cell = cell_of[pi]
    inside = cell >= 0
    b_sample = int(np.count_nonzero(sample[ci[~inside]]))
    per_cell = np.bincount(cell[inside], minlength=len(cutting.cells)).tolist()
    repairs = cutting._add_conflicts(cell[inside], ci[inside])
    return IncidenceBreakdown(per_cell, int(np.count_nonzero(~inside)) - b_sample, b_sample,
                              int(np.count_nonzero(cell_of < 0)), repairs)


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
