"""Randomized 1/r-cuttings built from sampled curves and vertical rays.

The sampled curves are cut into x-monotone arcs.  From every pairwise
crossing and every vertical-tangent point we shoot rays up and down,
truncated at the first sampled curve hit or at the viewport.  Sweeping the
slab structure between event abscissas and merging unseparated neighbors
yields the pf-cells; a cutting is certified when no cell interior is crossed
by more than n/r of the input curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CuttingFailed
from .intersect import branch_intersections, monotone_branches, vertical_tangent_points

BOTTOM = -1  # region bounded below by the viewport
TOP = -2  # region bounded above by the viewport

_EVENT_EPS = 1e-7  # dedup radius for event points
_X_EPS = 1e-12  # exact-coincidence tolerance
_X_GROUP = 1e-7  # slab-boundary grouping tolerance (absorbs trace insets)


def sample_curves(n, s, seed):
    """Ids from s uniform draws with replacement; repeats collapse."""
    if s < 1:
        raise ValueError("need at least one draw")
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, n, size=s)
    return sorted(set(int(d) for d in draws))


@dataclass
class Wall:
    x: float
    y_lo: float
    y_hi: float
    source: str  # crossing | tangent | endpoint


@dataclass
class PfCell:
    id: int
    x_lo: float
    x_hi: float
    bottom: tuple | None  # (curve id, t0, t1); None = viewport edge
    top: tuple | None
    left: tuple | None  # (x, y_lo, y_hi); None = pinched to a point
    right: tuple | None
    corner_count: int
    regions: list  # [(slab index, region index)]


@dataclass
class Location:
    kind: str  # interior | boundary
    cell: int | None = None
    cells: tuple = ()
    on: tuple = ()


@dataclass
class Cutting:
    sample: list
    rays: list
    aux_walls: list
    cells: list
    r: int
    s: int
    seed: int
    retries_used: int
    viewport: tuple
    n: int
    slab_xs: np.ndarray = field(repr=False, default=None)
    _branches: list = field(repr=False, default=None)  # (curve id, GraphBranch)
    _slab_arcs: list = field(repr=False, default=None)
    _region_cell: list = field(repr=False, default=None)
    _crossings: list = field(repr=False, default=None)

    def max_crossings(self):
        return max((len(s) for s in self._crossings), default=0)

    def cell_area(self, cell):
        """Trapezoid-rule area (exact for straight arcs)."""
        total = 0.0
        for slab_idx, region_idx in cell.regions:
            a, b = self.slab_xs[slab_idx], self.slab_xs[slab_idx + 1]
            ya = self._region_bounds(slab_idx, region_idx, a)
            yb = self._region_bounds(slab_idx, region_idx, b)
            total += 0.5 * ((ya[1] - ya[0]) + (yb[1] - yb[0])) * (b - a)
        return total

    def _region_bounds(self, slab_idx, region_idx, x):
        arcs = self._slab_arcs[slab_idx]
        lo = self.viewport[2] if region_idx == 0 else \
            float(self._branches[arcs[region_idx - 1]][1].y_interp(x))
        hi = self.viewport[3] if region_idx == len(arcs) else \
            float(self._branches[arcs[region_idx]][1].y_interp(x))
        return lo, hi

    def to_dict(self):
        return {
            "format_version": 1,
            "n": self.n,
            "r": self.r,
            "s": self.s,
            "seed": self.seed,
            "retries_used": self.retries_used,
            "viewport": list(self.viewport),
            "sample": list(self.sample),
            "rays": [[w.x, w.y_lo, w.y_hi, w.source] for w in self.rays],
            "cells": [
                {
                    "id": c.id,
                    "x": [c.x_lo, c.x_hi],
                    "bottom": list(c.bottom) if c.bottom else None,
                    "top": list(c.top) if c.top else None,
                    "left": list(c.left) if c.left else None,
                    "right": list(c.right) if c.right else None,
                    "corner_count": c.corner_count,
                    "crossings": sorted(self._crossings[c.id]) if self._crossings else None,
                }
                for c in self.cells
            ],
        }


# -- events and rays ----------------------------------------------------------


def _collect_events(sample_ids, curves, traces, branch_map, tol=1e-9):
    """Deduplicated event points: crossings, vertical tangents, loose ends."""
    raw = []  # (x, y, priority, source)
    for a_pos, i in enumerate(sample_ids):
        for j in sample_ids[a_pos + 1:]:
            pts = branch_intersections(curves[i], branch_map[i],
                                       curves[j], branch_map[j], tol)
            raw.extend((x, y, 0, "crossing") for x, y in pts)
    for i in sample_ids:
        for x, y in vertical_tangent_points(curves[i], traces[i]):
            raw.append((x, y, 1, "tangent"))
        x0, x1, y0, y1 = traces[i].bbox
        for comp in traces[i].components:
            for px, py in ((comp.xs[0], comp.ys[0]), (comp.xs[-1], comp.ys[-1])):
                on_edge = (min(px - x0, x1 - px, py - y0, y1 - py) <= 1e-6)
                if not on_edge:
                    raw.append((float(px), float(py), 2, "endpoint"))
    raw.sort(key=lambda e: (e[0], e[1], e[2]))
    clusters = []  # [x, y, priority, source]; keep the strongest member
    for x, y, pri, src in raw:
        merged = False
        for k in range(len(clusters) - 1, -1, -1):
            cx, cy, cpri, _csrc = clusters[k]
            if x - cx > _EVENT_EPS:
                break
            if (x - cx) ** 2 + (y - cy) ** 2 <= _EVENT_EPS ** 2:
                if pri < cpri:
                    clusters[k] = [x, y, pri, src]
                merged = True
                break
        if not merged:
            clusters.append([x, y, pri, src])
    return [(x, y, src) for x, y, _pri, src in clusters]


def _shoot_rays(events, branches, viewport):
    """Up and down rays from each event, stopped at the first sampled arc."""
    _x0, _x1, y0, y1 = viewport
    xs_events = np.array([e[0] for e in events])
    n_ev = len(events)
    above = np.full(n_ev, y1)
    below = np.full(n_ev, y0)
    eps = 1e-9
    for _cid, br in branches:
        sel = np.nonzero((xs_events > br.x_lo + _X_EPS) & (xs_events < br.x_hi - _X_EPS))[0]
        if len(sel) == 0:
            continue
        ay = br.y_interp(xs_events[sel])
        for k, idx in enumerate(sel):
            ey = events[idx][1]
            yk = ay[k]
            if abs(yk - ey) <= 1e-6:
                yk = br.y_at(xs_events[idx])  # near tie: use the exact value
            if yk > ey + eps and yk < above[idx]:
                above[idx] = yk
            elif yk < ey - eps and yk > below[idx]:
                below[idx] = yk
    rays, aux = [], []
    for idx, (x, y, src) in enumerate(events):
        pair = [Wall(x, y, float(above[idx]), src), Wall(x, float(below[idx]), y, src)]
        (aux if src == "endpoint" else rays).extend(pair)
    return rays, aux


# -- decomposition --------------------------------------------------------------


def decompose(sample_ids, curves, traces, viewport, tol=1e-9):
    """Vertical decomposition of the viewport induced by the sampled curves.

    Returns the uncertified cutting (r = 1, no draws recorded) with its
    per-cell crossing sets; an empty sample gives the single whole-viewport
    cell crossed by every curve.
    """
    # the occupancy pass runs after _cells returns, so the union-find state
    # is freed before the trace samples are gathered (lower peak memory)
    cut = _cells(sample_ids, curves, traces, viewport, tol)
    cut._crossings = _occupancy(cut, traces)
    return cut


def _cells(sample_ids, curves, traces, viewport, tol):
    branch_map = {i: monotone_branches(curves[i], traces[i]) for i in sample_ids}
    branches = [(i, b) for i in sample_ids for b in branch_map[i]]
    events = _collect_events(sample_ids, curves, traces, branch_map, tol)
    rays, aux = _shoot_rays(events, branches, viewport)

    x0, x1, y0, y1 = viewport
    xs = [x0, x1]
    xs.extend(e[0] for e in events)
    for _cid, br in branches:
        xs.extend((br.x_lo, br.x_hi))
    xs = sorted(x for x in xs if x0 - _X_GROUP <= x <= x1 + _X_GROUP)
    slab_xs = [x0]
    for x in xs:
        if x - slab_xs[-1] > _X_GROUP:
            slab_xs.append(x)
    if slab_xs[-1] < x1 - _X_GROUP:
        slab_xs.append(x1)
    else:
        slab_xs[-1] = x1
    slab_xs = np.array(slab_xs)
    n_slabs = len(slab_xs) - 1

    # arcs per slab, sorted bottom to top at the midpoint
    slab_arcs = []
    for k in range(n_slabs):
        mid = 0.5 * (slab_xs[k] + slab_xs[k + 1])
        entries = []
        for b_idx, (cid, br) in enumerate(branches):
            if br.x_lo - _X_EPS <= mid <= br.x_hi + _X_EPS and br.covers(mid):
                entries.append((float(br.y_interp(mid)), cid, b_idx))
        entries.sort()
        slab_arcs.append([b_idx for _y, _cid, b_idx in entries])

    # walls indexed by the slab boundary they sit on
    all_walls = rays + aux
    wall_at = {}
    for w in all_walls:
        k = int(np.argmin(np.abs(slab_xs - w.x)))
        if abs(slab_xs[k] - w.x) <= 2 * _X_GROUP:
            wall_at.setdefault(k, []).append(w)

    # union-find over (slab, region)
    offsets = np.zeros(n_slabs + 1, dtype=int)
    for k in range(n_slabs):
        offsets[k + 1] = offsets[k] + len(slab_arcs[k]) + 1
    parent = list(range(offsets[-1]))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    def labels(k):
        arcs = slab_arcs[k]
        out = []
        for r in range(len(arcs) + 1):
            lo = BOTTOM if r == 0 else arcs[r - 1]
            hi = TOP if r == len(arcs) else arcs[r]
            out.append((lo, hi))
        return out

    for k in range(1, n_slabs):
        xe = slab_xs[k]
        left_labels = labels(k - 1)
        right_labels = {lab: r for r, lab in enumerate(labels(k))}
        walls = wall_at.get(k, [])
        for r, lab in enumerate(left_labels):
            rr = right_labels.get(lab)
            if rr is None:
                continue
            lo_id, hi_id = lab
            ylo = y0 if lo_id == BOTTOM else float(branches[lo_id][1].y_interp(xe))
            yhi = y1 if hi_id == TOP else float(branches[hi_id][1].y_interp(xe))
            ymid = 0.5 * (ylo + yhi)
            blocked = any(w.y_lo - _X_EPS <= ymid <= w.y_hi + _X_EPS for w in walls)
            if not blocked:
                union(offsets[k - 1] + r, offsets[k] + rr)

    # assemble cells
    root_to_cell = {}
    cell_regions = []
    region_cell = [np.zeros(len(slab_arcs[k]) + 1, dtype=int) for k in range(n_slabs)]
    for k in range(n_slabs):
        for r in range(len(slab_arcs[k]) + 1):
            root = find(offsets[k] + r)
            cid = root_to_cell.get(root)
            if cid is None:
                cid = len(cell_regions)
                root_to_cell[root] = cid
                cell_regions.append([])
            cell_regions[cid].append((k, r))
            region_cell[k][r] = cid

    cells = []
    for cid, regions in enumerate(cell_regions):
        regions.sort()
        k0, r0 = regions[0]
        kl, _rl = regions[-1]
        lo_id, hi_id = labels(k0)[r0]
        xl, xr = float(slab_xs[k0]), float(slab_xs[kl + 1])

        def side(x, ri, ki):
            a, b = labels(ki)[ri]
            ylo = y0 if a == BOTTOM else float(branches[a][1].y_interp(x))
            yhi = y1 if b == TOP else float(branches[b][1].y_interp(x))
            return (float(x), ylo, yhi) if yhi - ylo > 1e-12 else None

        left = side(xl, r0, k0)
        right = side(xr, regions[-1][1], kl)
        bottom = None
        if lo_id != BOTTOM:
            cidx, br = branches[lo_id]
            bottom = (cidx, float(br.t_interp(xl)), float(br.t_interp(xr)))
        top = None
        if hi_id != TOP:
            cidx, br = branches[hi_id]
            top = (cidx, float(br.t_interp(xl)), float(br.t_interp(xr)))
        pieces = 2 + (left is not None) + (right is not None)
        corner_count = pieces if pieces >= 2 else 0
        cells.append(PfCell(cid, xl, xr, bottom, top, left, right,
                            min(corner_count, 4), regions))

    return Cutting(sample=list(sample_ids), rays=rays, aux_walls=aux, cells=cells,
                   r=1, s=0, seed=0, retries_used=0, viewport=tuple(viewport),
                   n=len(curves), slab_xs=slab_xs, _branches=branches,
                   _slab_arcs=slab_arcs, _region_cell=region_cell)


# -- crossing counts --------------------------------------------------------


def _occupancy(cut, traces):
    """Per-cell sets of unsampled curve ids whose trace enters the cell interior."""
    slab_xs = cut.slab_xs
    region_cell = cut._region_cell
    skip_ids = set(cut.sample)
    xs_all, ys_all, ids_all = [], [], []
    for i, tr in enumerate(traces):
        if i in skip_ids:
            continue
        for comp in tr.components:
            xs_all.append(comp.xs)
            ys_all.append(comp.ys)
            ids_all.append(np.full(len(comp.xs), i, dtype=int))
    crossings = [set() for _ in cut.cells]
    if not xs_all:
        return crossings
    xs = np.concatenate(xs_all)
    ys = np.concatenate(ys_all)
    ids = np.concatenate(ids_all)
    order = np.argsort(xs, kind="stable")
    xs, ys, ids = xs[order], ys[order], ids[order]

    below = np.zeros(len(xs), dtype=int)
    valid = np.ones(len(xs), dtype=bool)
    _x0, _x1, y0, y1 = cut.viewport
    valid &= (ys > y0 + 1e-12) & (ys < y1 - 1e-12)
    for _cid, br in cut._branches:
        lo = np.searchsorted(xs, br.x_lo, side="left")
        hi = np.searchsorted(xs, br.x_hi, side="right")
        if hi <= lo:
            continue
        ay = np.interp(xs[lo:hi], br.xs, br.ys)
        gap = ys[lo:hi] - ay
        valid[lo:hi] &= np.abs(gap) > 1e-9
        below[lo:hi] += gap > 0

    slab = np.clip(np.searchsorted(slab_xs, xs, side="right") - 1, 0, len(slab_xs) - 2)
    # samples within the grouping band of a slab boundary are ambiguous:
    # branch spans end there, so the below count cannot be trusted
    edge_gap = np.minimum(xs - slab_xs[slab], slab_xs[slab + 1] - xs)
    valid &= edge_gap > 2 * _X_GROUP
    for k in np.unique(slab):
        sel = (slab == k) & valid
        if not np.any(sel):
            continue
        reg = np.clip(below[sel], 0, len(region_cell[k]) - 1)
        cells_here = region_cell[k][reg]
        for c, i in zip(cells_here, ids[sel]):
            crossings[c].add(int(i))
    return crossings


def cell_crossings(cell, cutting):
    """Number of unsampled curves whose trace enters the cell interior."""
    return len(cutting._crossings[cell.id])


# -- certification ---------------------------------------------------------------


def build_cutting(curves, traces, viewport, r, seed=0, max_retries=32, tol=1e-9):
    """First certified cutting: every cell interior crossed by <= n/r curves.

    Draw count is ceil(5 r ln n); failed certification re-seeds with
    seed + attempt and tries again.
    """
    n = len(curves)
    if not (1 <= r < n):
        raise ValueError("require 1 <= r < n")
    s = int(math.ceil(5.0 * r * math.log(n)))
    for attempt in range(max_retries):
        ids = sample_curves(n, s, seed + attempt)
        cut = decompose(ids, curves, traces, viewport, tol)
        if cut.max_crossings() <= n / r:
            cut.r, cut.s, cut.seed, cut.retries_used = r, s, seed, attempt
            return cut
    raise CuttingFailed(f"no certified cutting in {max_retries} attempts (r={r}, n={n})")


# -- point location -----------------------------------------------------------


def locate_point(cutting, p, tol=1e-7):
    """Interior cell of p, or a boundary descriptor naming adjacent cells."""
    px, py = float(p[0]), float(p[1])
    x0, x1, y0, y1 = cutting.viewport
    if not (x0 <= px <= x1 and y0 <= py <= y1):
        raise ValueError(f"point {p} outside viewport {cutting.viewport}")
    slab_xs = cutting.slab_xs
    k = int(np.clip(np.searchsorted(slab_xs, px, side="right") - 1, 0, len(slab_xs) - 2))

    # on a vertical wall?
    for w_idx, w in enumerate(cutting.rays + cutting.aux_walls):
        if abs(px - w.x) <= tol and w.y_lo - tol <= py <= w.y_hi + tol:
            kl = int(np.clip(np.searchsorted(slab_xs, w.x - 2 * _X_EPS, side="right") - 1,
                             0, len(slab_xs) - 2))
            kr = int(np.clip(np.searchsorted(slab_xs, w.x + 2 * _X_EPS, side="right") - 1,
                             0, len(slab_xs) - 2))
            cl = _region_at(cutting, kl, w.x - 2 * _X_EPS, py)
            cr = _region_at(cutting, kr, w.x + 2 * _X_EPS, py)
            cells = tuple(sorted({cl, cr}))
            return Location("boundary", cells=cells, on=("ray", w_idx))

    arcs = cutting._slab_arcs[k]
    below = 0
    for b_idx in arcs:
        cid, br = cutting._branches[b_idx]
        ay = float(br.y_interp(px))
        if abs(ay - py) <= 1e-5:
            ay = br.y_at(px)
        if abs(ay - py) <= tol:
            r_below = below
            cells = (int(cutting._region_cell[k][r_below]),
                     int(cutting._region_cell[k][min(r_below + 1, len(arcs))]))
            return Location("boundary", cells=tuple(sorted(set(cells))),
                            on=("curve", cid))
        if ay < py:
            below += 1
    return Location("interior", cell=int(cutting._region_cell[k][below]))


def _region_at(cutting, k, x, y):
    arcs = cutting._slab_arcs[k]
    below = 0
    for b_idx in arcs:
        _cid, br = cutting._branches[b_idx]
        if float(br.y_interp(x)) < y:
            below += 1
    return int(cutting._region_cell[k][below])
