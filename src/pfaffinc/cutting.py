"""Randomized 1/r-cuttings built from sampled curves and vertical rays.

The sampled curves are cut into x-monotone arcs.  From every pairwise
crossing and every vertical-tangent point we shoot rays up and down,
truncated at the first sampled curve hit or at the viewport.  Sweeping the
slab structure between event abscissas and merging unseparated neighbors
yields the pf-cells; a cutting is certified when no cell interior is crossed
by more than n/r of the input curves.

The sample's x-monotone branches are one `curves.SampleTable`,
`_exact.samples` (`intersect.monotone_branches` of `_exact.curves`, the
sample by curve id), held by their exact evaluator `_exact`, which serves
the event pass, the rays and point location.  The slab structure is held in
flat arrays: the arcs of slab k, bottom to top, are
`_arcs[_arc_off[k]:_arc_off[k + 1]]` (branch indices), and region r of slab
k (between arcs r - 1 and r) is entry `_arc_off[k] + k + r` of
`_region_cell`.  The same slice of `_arc_lo` and of `_arc_hi` holds the
lows and the highs of those arcs' y-extents over the slab, each sorted on
its own (float32, rounded outward).  `_conflicts` holds the conflict lists,
the unsampled curves crossing each cell, as sorted keys cell * n + curve.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import intersect as ix
from .curves import check_traces, trace_table
from .errors import CuttingFailed
from .intersect import monotone_branches, points_at

_VIEWPORT = -1  # the label of a region side on the viewport edge

_EVENT_EPS = 1e-7  # dedup radius for event points
_X_EPS = 1e-12  # exact-coincidence tolerance
_X_GROUP = 1e-7  # slab-boundary grouping tolerance (absorbs trace insets)
_BLOCK = 2**17  # (wall, region) rows per block of the wall test


def sample_curves(n, s, seed):
    """Ids from s uniform draws with replacement; repeats collapse."""
    if s < 1:
        raise ValueError("need at least one draw")
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, n, size=s)
    return np.unique(draws).tolist()


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


@dataclass(eq=False)
class Cells(Sequence):
    """A cutting's cells as columns, one entry per cell.  Indexing and
    iteration build PfCell rows on demand; len builds none."""
    bottom: np.ndarray  # curve id of the lower arc; -1 = viewport edge
    top: np.ndarray  # curve id of the upper arc; -1 = viewport edge
    x_lo: np.ndarray
    x_hi: np.ndarray
    y_bottom: np.ndarray  # (cells, 2): the lower arc's heights at x_lo and x_hi
    y_top: np.ndarray
    t_bottom: np.ndarray  # (cells, 2): the lower arc's parameters at x_lo and x_hi
    t_top: np.ndarray

    def __len__(self):
        return len(self.x_lo)

    def __getitem__(self, i):
        i = range(len(self))[i]
        return PfCell(*next(self.rows(i, i + 1)))

    def __iter__(self):
        return (PfCell(*row) for row in self.rows())

    def rows(self, start=0, stop=None):
        """The PfCell fields of cells start..stop-1, as tuples."""
        at = slice(start, stop)
        y_bottom, y_top = self.y_bottom[at], self.y_top[at]
        sides = y_top - y_bottom > 1e-12  # (cells, 2): has a left side, a right side
        columns = (self.bottom[at], self.top[at], self.x_lo[at], self.x_hi[at], y_bottom, y_top,
                   self.t_bottom[at], self.t_top[at], sides)
        for i, (b, t, xl, xr, (bl, br), (tl, tr), tb, tt, (has_l, has_r)) in enumerate(
                zip(*(c.tolist() for c in columns)), start):
            yield (i, xl, xr, (b, *tb) if b >= 0 else None, (t, *tt) if t >= 0 else None,
                   (xl, bl, tl) if has_l else None, (xr, br, tr) if has_r else None,
                   2 + has_l + has_r)


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
    cells: Cells
    r: int
    s: int
    seed: int
    retries_used: int
    viewport: tuple
    n: int
    slab_xs: np.ndarray = field(repr=False, default=None)
    _exact: ix._Exact = field(repr=False, default=None)  # on the sample's branches
    _arcs: np.ndarray = field(repr=False, default=None)  # branch indices, slab by slab
    _arc_off: np.ndarray = field(repr=False, default=None)  # slab k's arcs start here
    _arc_lo: np.ndarray = field(repr=False, default=None)  # arc y-extents, sorted per slab
    _arc_hi: np.ndarray = field(repr=False, default=None)
    _region_cell: np.ndarray = field(repr=False, default=None)
    _wall_xs: np.ndarray = field(repr=False, default=None)  # wall abscissas, ascending
    _wall_order: np.ndarray = field(repr=False, default=None)  # their rays + aux_walls index
    _conflicts: np.ndarray = field(repr=False, default=None)  # cell * n + curve, ascending

    def max_crossings(self):
        return int(np.diff(self._conflict_off()).max(initial=0))

    def _conflict_off(self):
        """Where each cell's keys start in `_conflicts`, and the table's end."""
        return np.searchsorted(self._conflicts, np.arange(len(self.cells) + 1) * self.n)

    def _add_conflicts(self, cells, curves):
        """Insert the (cell, curve) pairs the table lacks; returns their number."""
        key = np.unique(cells * self.n + curves)
        at = np.searchsorted(self._conflicts, key)
        new = np.append(self._conflicts, -1)[at] != key
        self._conflicts = np.insert(self._conflicts, at[new], key[new])
        return int(np.count_nonzero(new))

    def cell_areas(self):
        """Trapezoid-rule area of every cell (exact for straight arcs)."""
        xs, arcs, arc_off = self.slab_xs, self._arcs, self._arc_off
        ends = xs[np.repeat(np.arange(len(xs) - 1), np.diff(arc_off)) + np.array([[0], [1]])]
        y = np.zeros((2, len(arcs) + 1))  # arc heights at their slab's ends; padded
        by_branch = np.argsort(arcs, kind="stable")
        bounds = np.searchsorted(arcs[by_branch], np.arange(len(self._exact.samples) + 1))
        for (bx, by, _t), a, b in zip(self._exact.samples.pieces(), bounds[:-1], bounds[1:]):
            y[:, by_branch[a:b]] = np.interp(ends[:, by_branch[a:b]], bx, by)
        # region g of slab k lies between arcs g - k - 1 and g - k of `_arcs`
        reg_slab = np.repeat(np.arange(len(xs) - 1), np.diff(arc_off) + 1)
        above = np.arange(len(self._region_cell)) - reg_slab
        _x0, _x1, y0, y1 = self.viewport
        hi = np.where(above == arc_off[reg_slab + 1], y1, y[:, above])
        lo = np.where(above == arc_off[reg_slab], y0, y[:, above - 1])
        area = 0.5 * (hi - lo).sum(axis=0) * np.diff(xs)[reg_slab]
        return np.bincount(self._region_cell, weights=area, minlength=len(self.cells))

    def _slab(self, k):
        """Branch indices of slab k's arcs, bottom to top, and the
        `_region_cell` index of its lowest region."""
        lo, hi = self._arc_off[k], self._arc_off[k + 1]
        return self._arcs[lo:hi].tolist(), int(lo) + k

    def to_dict(self):
        ids, off = (self._conflicts % self.n).tolist(), self._conflict_off().tolist()
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
                {"id": i, "x": [xl, xr],
                 **{k: part and list(part) for k, part in
                    zip(("bottom", "top", "left", "right"), parts)},
                 "corner_count": corners, "crossings": ids[off[i]:off[i + 1]]}
                for i, xl, xr, *parts, corners in self.cells.rows()
            ],
        }


# -- events and rays ----------------------------------------------------------


def _collect_events(exact, traces, tangents):
    """Deduplicated event points of the curves of exact (an `intersect._Exact`
    on their branches), with traces traces and vertical tangents tangents:
    crossings, vertical tangents, loose ends."""
    raw = []  # (x, y, priority, source)
    for _, _, pts in ix._pairs(exact):
        raw.extend((x, y, 0, "crossing") for x, y in pts)
    for curve, ts in zip(exact.curves, tangents):
        raw.extend((x, y, 1, "tangent") for x, y in points_at(curve, ts))
    # the component ends off their trace's viewport edge
    table = trace_table(traces)
    ends = np.append(table.start, table.stop - 1)
    px, py = table.xs[ends], table.ys[ends]
    bbox = np.array([trace.bbox for trace in traces], dtype=float).reshape(-1, 4)
    x0, x1, y0, y1 = bbox[np.tile(table.curve, 2)].T
    loose = np.minimum.reduce([px - x0, x1 - px, py - y0, y1 - py]) > 1e-6
    raw.extend((x, y, 2, "endpoint") for x, y in zip(px[loose].tolist(), py[loose].tolist()))
    # a cluster keeps its strongest member, the lowest priority
    return [(x, y, src) for x, y, _pri, src in ix._dedup(raw, _EVENT_EPS)]


def _shoot_rays(events, exact, viewport):
    """Up and down rays from each event, stopped at the first arc of exact's branches."""
    _x0, _x1, y0, y1 = viewport
    xs_events = np.array([e[0] for e in events])
    ys_events = np.array([e[1] for e in events])
    eps = 1e-9
    # one lane per branch and event strictly inside its x-range: the event
    # and the branch's height there
    pieces = exact.samples.pieces()
    sel = [np.nonzero((xs_events > bx[0] + _X_EPS) & (xs_events < bx[-1] - _X_EPS))[0]
           for bx, _y, _t in pieces]
    ay = np.concatenate([np.zeros(0)] + [np.interp(xs_events[s], bx, by)
                                         for (bx, by, _t), s in zip(pieces, sel)])
    ev = np.concatenate([np.zeros(0, dtype=np.int64)] + sel)
    ey = ys_events[ev]
    tie = np.flatnonzero(np.abs(ay - ey) <= 1e-6)
    if len(tie):  # near ties: the exact heights, all in one call
        b = np.repeat(np.arange(len(sel)), [len(s) for s in sel])
        ay[tie] = exact.heights(b[tie], xs_events[ev[tie]])
    up = ay > ey + eps
    down = ~up & (ay < ey - eps)
    above = np.full(len(events), y1)
    below = np.full(len(events), y0)
    np.minimum.at(above, ev[up], ay[up])
    np.maximum.at(below, ev[down], ay[down])
    rays, aux = [], []
    for idx, (x, y, src) in enumerate(events):
        pair = [Wall(x, y, float(above[idx]), src), Wall(x, float(below[idx]), y, src)]
        (aux if src == "endpoint" else rays).extend(pair)
    return rays, aux


# -- decomposition --------------------------------------------------------------


def decompose(sample_ids, curves, traces, viewport):
    """Vertical decomposition of the viewport induced by the sampled curves.

    Returns the uncertified cutting (r = 1, no draws recorded): its cells as
    one column table (`Cells`), and its conflict table (`_conflicts`).  An
    empty sample gives the single whole-viewport cell crossed by every curve.
    `sample` keeps the order of sample_ids; the branches go by curve id.
    Raises InconsistentScene unless there is one trace per curve.
    """
    check_traces(curves, traces)
    # the occupancy pass runs after _cells returns, so the slab temporaries
    # are freed before the trace samples are gathered (lower peak memory)
    cut = _cells(sample_ids, curves, traces, viewport)
    cut._conflicts = _occupancy(cut, traces)
    return cut


def _slab_edges(events, branches, viewport):
    """Slab boundaries: event and branch-end abscissas, merged within _X_GROUP,
    those below x0 raised to it; the last edge, within _X_GROUP of x1, is x1."""
    x0, x1, _y0, _y1 = viewport
    xs = [x0, x1]
    xs.extend(e[0] for e in events)
    xs.extend(branches.xs[np.append(branches.start, branches.stop - 1)].tolist())
    slab_xs = [x for x, _ in ix._dedup([(max(x, x0), 0.0) for x in xs
                                        if x0 - _X_GROUP <= x <= x1 + _X_GROUP], _X_GROUP)]
    slab_xs[-1] = x1
    return np.array(slab_xs)


def _nearest_edges(slab_xs, xs):
    """Index of the slab edge nearest to each x; ties go to the lower index."""
    hi = np.clip(np.searchsorted(slab_xs, xs), 1, len(slab_xs) - 1)
    lo = hi - 1
    return np.where(np.abs(slab_xs[lo] - xs) <= np.abs(slab_xs[hi] - xs), lo, hi)


def _at_edges(values, base, b, k, default):
    """values[base[b] + k] for branches b >= 0; default for the viewport."""
    out = np.full(len(b), default, dtype=float)
    sel = b >= 0
    out[sel] = values[base[b[sel]] + k[sel]]
    return out


def _cells(sample_ids, curves, traces, viewport):
    # the sample by curve id, so nothing depends on the order of sample_ids;
    # vertical_tangent_ts is looked up on the module, where a traced run wraps it
    ids = sorted(sample_ids)
    sample, sample_traces = [curves[i] for i in ids], [traces[i] for i in ids]
    tangents = ix.vertical_tangent_ts(sample, sample_traces)
    branches = monotone_branches(sample, sample_traces, tangents)
    exact = ix._Exact(sample, branches)
    events = _collect_events(exact, sample_traces, tangents)
    rays, aux = _shoot_rays(events, exact, viewport)
    _x0, _x1, y0, y1 = viewport
    slab_xs = _slab_edges(events, branches, viewport)
    n_slabs = len(slab_xs) - 1
    n_br = len(branches)

    # branch b holds an arc in slabs first[b]..stop[b]-1 (those whose midpoint
    # lies in its x-range): entry arc_base[b] + k of the arcs listed branch
    # by branch; its heights and parameters at the slab edges first[b]..stop[b]
    # are entries base[b] + k of edge_y and edge_t.  Index arrays are int32:
    # they scale with slabs x branches, and half-size temporaries keep the
    # heap's high-water mark down
    mids = 0.5 * (slab_xs[:-1] + slab_xs[1:])
    first = np.searchsorted(mids, branches.xs[branches.start], side="left")
    stop = np.searchsorted(mids, branches.xs[branches.stop - 1], side="right")
    first, stop = first.astype(np.int32), stop.astype(np.int32)
    span = stop - first
    arc_base = (np.cumsum(span) - span - first).astype(np.int32)
    base = arc_base + np.arange(n_br, dtype=np.int32)
    arc_y, edge_y, edge_t = [np.empty(0)], [np.empty(0)], [np.empty(0)]
    for (bx, by, bt), f, e in zip(branches.pieces(), first, stop):
        arc_y.append(np.interp(mids[f:e], bx, by))
        edges = slab_xs[f:e + 1]
        edge_y.append(np.interp(edges, bx, by))
        edge_t.append(np.interp(edges, bx, bt))
    arc_y, edge_y, edge_t = map(np.concatenate, (arc_y, edge_y, edge_t))

    # arcs per slab, sorted bottom to top at the midpoint by one stable sort of
    # (slab, height) as complex keys: ties keep the branch-by-branch order, by
    # curve id and then branch index; entry i of that list moves to slot[i]
    arc_b = np.repeat(np.arange(n_br, dtype=np.int32), span)
    arc_slab = np.arange(len(arc_b), dtype=np.int32) - np.repeat(arc_base, span)
    order = np.argsort(arc_slab + 1j * arc_y, kind="stable")
    del arc_y
    arcs = arc_b[order]
    arc_off = np.zeros(n_slabs + 1, dtype=np.int32)
    arc_off[1:] = np.cumsum(np.bincount(arc_slab, minlength=n_slabs))
    del arc_b, arc_slab
    slot = np.empty(len(order), dtype=np.int32)
    slot[order] = np.arange(len(order), dtype=np.int32)
    del order

    # regions: (slab k, region r) is g = reg_off[k] + r, labelled by the
    # branches below and above it (_VIEWPORT at the viewport edges)
    reg_off = arc_off + np.arange(n_slabs + 1, dtype=np.int32)
    n_reg = int(reg_off[-1])
    reg_slab = np.repeat(np.arange(n_slabs, dtype=np.int32), np.diff(reg_off))
    reg_r = np.arange(n_reg, dtype=np.int32) - reg_off[reg_slab]
    top_arc = arc_off[reg_slab] + reg_r  # index into arcs of the arc above
    padded = np.append(arcs, np.int32(_VIEWPORT))
    lo = np.where(reg_r == 0, _VIEWPORT, padded[top_arc - 1])
    hi = np.where(top_arc == arc_off[reg_slab + 1], _VIEWPORT, padded[top_arc])
    del top_arc, padded

    # a region of slab k - 1 continues across edge k into the region of slab
    # k with the same label: region 0 if the viewport is below it, else the
    # region above its lower arc if that arc goes on into slab k; the upper
    # sides must agree too
    n_left = int(reg_off[-2])  # the regions of slabs 0..n_slabs-2
    k = reg_slab[:n_left] + 1
    a = lo[:n_left]
    right = np.where(a == _VIEWPORT, reg_off[k], n_reg)  # n_reg: no continuation
    on = np.nonzero(a >= 0)[0]
    on = on[stop[a[on]] > k[on]]
    right[on] = slot[arc_base[a[on]] + k[on]] + k[on] + 1
    del a, on, slot
    left = np.nonzero(np.append(hi, np.int32(_VIEWPORT - 1))[right] == hi[:n_left])[0]
    right, k = right[left], k[left]
    ymid = 0.5 * (_at_edges(edge_y, base, lo[right], k, y0)
                  + _at_edges(edge_y, base, hi[right], k, y1))

    # ... unless a wall on that edge spans the region's mid height: one row
    # per wall and pair of its edge, expanded about _BLOCK rows at a time
    walls = rays + aux
    wall_xs = np.array([w.x for w in walls])
    kw = _nearest_edges(slab_xs, wall_xs)
    on = np.nonzero(np.abs(slab_xs[kw] - wall_xs) <= 2 * _X_GROUP)[0]
    wall_y = np.array([(walls[i].y_lo - _X_EPS, walls[i].y_hi + _X_EPS)
                       for i in on.tolist()]).reshape(-1, 2)
    pair_start = np.searchsorted(k, np.arange(n_slabs + 2))  # pairs are sorted by edge
    pair0, count = pair_start[kw[on]], np.diff(pair_start)[kw[on]]
    cuts = np.searchsorted(np.cumsum(count), np.arange(_BLOCK, count.sum(), _BLOCK))
    open_ = np.ones(len(k), dtype=bool)
    for a, b in zip([0, *cuts.tolist()], [*cuts.tolist(), len(on)]):
        c = count[a:b]
        w = np.repeat(np.arange(a, b), c)
        pair = np.arange(len(w)) + np.repeat(pair0[a:b] - (np.cumsum(c) - c), c)
        y = ymid[pair]
        open_[pair[(wall_y[w, 0] <= y) & (y <= wall_y[w, 1])]] = False
    del ymid, k, kw, on, wall_y, pair0, count, w, pair, y

    # merged regions form left-to-right chains, one region per slab; a cell
    # is a chain, numbered by its first region
    root = np.arange(n_reg, dtype=np.int32)
    root[right[open_]] = left[open_]
    del left, right, open_
    while True:
        nxt = root[root]
        if np.array_equal(nxt, root):
            break
        root = nxt
    del nxt
    starts = np.nonzero(root == np.arange(n_reg, dtype=np.int32))[0].astype(np.int32)
    region_cell = np.searchsorted(starts, root).astype(np.int32)
    del root

    # per cell: its label and its end slab edges k0 and kl
    k0 = reg_slab[starts]
    kl = k0 + np.bincount(region_cell)
    lo_c, hi_c = lo[starts], hi[starts]
    del reg_slab, reg_r, lo, hi
    # curve id per branch label; the last entry maps _VIEWPORT to itself
    cids = np.append(np.array(ids, dtype=np.int64)[branches.curve], _VIEWPORT)

    def at_ends(values, b, default):  # values of arcs b at the cells' end edges
        return np.stack([_at_edges(values, base, b, k0, default),
                         _at_edges(values, base, b, kl, default)], axis=1)

    cells = Cells(cids[lo_c], cids[hi_c], slab_xs[k0], slab_xs[kl],
                  at_ends(edge_y, lo_c, y0), at_ends(edge_y, hi_c, y1),
                  at_ends(edge_t, lo_c, 0), at_ends(edge_t, hi_c, 0))
    del edge_t

    # per arc, the y-extent of its branch's polyline over its slab: the
    # heights at the slab's edges and at the vertices between them, rounded
    # outward to float32; lows and highs each sorted within their slab
    arc_lo, arc_hi = [np.empty(0, np.float32)], [np.empty(0, np.float32)]
    for (bx, by, _t), f, e, b0 in zip(branches.pieces(), first.tolist(), stop.tolist(),
                                      base.tolist()):
        ey = edge_y[b0 + f:b0 + e + 1]
        pos = np.searchsorted(bx, slab_xs[f:e + 1])
        at = pos + np.arange(len(pos))  # the edges' places among the vertices
        ys = np.insert(by, pos, ey)[at[0]:at[-1]]
        for out, least, inf in ((arc_lo, np.minimum, -np.inf), (arc_hi, np.maximum, np.inf)):
            v = least(least.reduceat(ys, at[:-1] - at[0]), ey[1:])
            v32 = v.astype(np.float32)
            out.append(np.where(least(v32, v) != v32, np.nextafter(v32, np.float32(inf)), v32))
    del edge_y
    # into slab order, bottom to top, where they are nearly sorted already;
    # then one stable sort of (slab, extent) as complex keys
    arc_slab = np.repeat(np.arange(n_slabs, dtype=np.int32), np.diff(arc_off))
    arc_lo, arc_hi = (np.sort(arc_slab + 1j * np.concatenate(v)[arc_base[arcs] + arc_slab],
                              kind="stable").imag.astype(np.float32) for v in (arc_lo, arc_hi))
    del arc_slab

    wall_order = np.argsort(wall_xs, kind="stable")
    return Cutting(sample=list(sample_ids), rays=rays, aux_walls=aux, cells=cells,
                   r=1, s=0, seed=0, retries_used=0, viewport=tuple(viewport),
                   n=len(curves), slab_xs=slab_xs, _exact=exact,
                   _arcs=arcs, _arc_off=arc_off, _arc_lo=arc_lo, _arc_hi=arc_hi,
                   _region_cell=region_cell,
                   _wall_xs=wall_xs[wall_order], _wall_order=wall_order)


# -- crossing counts --------------------------------------------------------


def _sweep(cut, xs, ys, near):
    """Per point (xs ascending): its slab, the branches below it, and whether
    that count holds: no branch within `near` (interpolated), and not within
    2 * _X_GROUP of a slab edge.  Every branch end lies within _X_GROUP of a
    slab edge (`_slab_edges`), so the branches over any other point are
    exactly its slab's arcs.

    Most points are placed by one sorted search per slab over its arcs'
    y-extents (`_arc_lo`, `_arc_hi`), with the slack m = 2 near + 1e-12
    (1 + Y), Y the largest |height| of the sample's branches.  An arc whose
    high is <= y - m lies below y by more than `near` over the whole slab,
    and one whose low is >= y + m above it: its interpolated heights there
    lie between the heights at the slab's edges and at the vertices between
    them, which the extent holds (rounded outward), up to np.interp's
    rounding, a few ulps of Y.  The slack exceeds `near` by near + 1e-12
    (1 + Y): more than that rounding, and more than the rounding of y -+ m
    unless y is so far out (|y| over 9e3 (1 + Y) and over 9e15 near) that
    no arc comes within `near` of it.  So when every arc of the slab is
    below or above, the scan would find each gap beyond `near` on that
    side: `below` is the scan's count and `clear` holds.  The points off
    the slab edges that some arc's widened extent contains, a few percent
    of a cutting's trace samples, go through `_near_branches`, the
    branch-by-branch scan.  `below` counts only where `clear` holds.
    """
    slab_xs = cut.slab_xs
    slab = _slab_of(slab_xs, xs)
    clear = np.minimum(xs - slab_xs[slab], slab_xs[slab + 1] - xs) > 2 * _X_GROUP
    y_max = float(np.abs(cut._exact.samples.ys).max(initial=0.0))
    m = 2 * near + 1e-12 * (1 + y_max)
    y_lo, y_hi = ys - m, ys + m
    below = np.empty(len(xs), dtype=np.int32)  # arcs with high <= y - m
    under = np.empty(len(xs), dtype=np.int32)  # arcs with low < y + m
    at = np.searchsorted(slab, np.arange(len(slab_xs))).tolist()  # slab k's points: at[k]:at[k + 1]
    off = cut._arc_off.tolist()
    for k in np.nonzero(np.diff(at))[0].tolist():
        a, b, lo, hi = at[k], at[k + 1], off[k], off[k + 1]
        below[a:b] = cut._arc_hi[lo:hi].searchsorted(y_lo[a:b], side="right")
        under[a:b] = cut._arc_lo[lo:hi].searchsorted(y_hi[a:b], side="left")
    del y_lo, y_hi
    rest = np.nonzero(clear & (below != under))[0]
    del under
    below[rest], clear[rest] = _near_branches(cut._exact.samples, xs[rest], ys[rest], near)
    return slab, below, clear


def _near_branches(branches, xs, ys, near):
    """Per point (xs ascending): the branches (a `curves.SampleTable`) over
    it with y below it, and whether none lies within `near` (interpolated)."""
    below = np.zeros(len(xs), dtype=np.int32)
    clear = np.ones(len(xs), dtype=bool)
    for bx, by, _t in branches.pieces():
        lo = np.searchsorted(xs, bx[0], side="left")
        hi = np.searchsorted(xs, bx[-1], side="right")
        if hi <= lo:
            continue
        gap = ys[lo:hi] - np.interp(xs[lo:hi], bx, by)
        clear[lo:hi] &= np.abs(gap) > near
        below[lo:hi] += gap > 0
    return below, clear


def _occupancy(cut, traces):
    """Sorted distinct keys cell * n + curve, one per unsampled curve whose
    trace enters the cell interior."""
    rest = np.flatnonzero(np.bincount(cut.sample, minlength=cut.n) == 0)
    table = trace_table([traces[i] for i in rest.tolist()])
    order = np.argsort(table.xs, kind="stable")
    xs, ys = table.xs[order], table.ys[order]
    ids = np.repeat(rest.astype(np.int32)[table.curve], table.size)[order]
    del order, table

    _x0, _x1, y0, y1 = cut.viewport
    slab, below, valid = _sweep(cut, xs, ys, 1e-9)
    valid &= (ys > y0 + 1e-12) & (ys < y1 - 1e-12)
    del xs, ys
    slab, below, ids = slab[valid], below[valid], ids[valid]
    del valid
    arc_off = cut._arc_off
    region = arc_off[slab] + slab + np.minimum(below, np.diff(arc_off)[slab])
    del slab, below
    key = np.sort(cut._region_cell[region].astype(np.int64) * cut.n + ids)
    return key[np.diff(key, prepend=-1) != 0]


# -- certification ---------------------------------------------------------------


def build_cutting(curves, traces, viewport, r, seed=0, max_retries=32):
    """First certified cutting: every cell interior crossed by <= n/r curves.

    Draw count is ceil(5 r ln n); failed certification re-seeds with
    seed + attempt and tries again.
    """
    n = len(curves)
    if not (1 <= r < n):
        raise ValueError("require 1 <= r < n")
    if max_retries < 1:
        raise ValueError(f"max_retries must be at least 1, got {max_retries}")
    s = int(math.ceil(5.0 * r * math.log(n)))
    for attempt in range(max_retries):
        ids = sample_curves(n, s, seed + attempt)
        cut = decompose(ids, curves, traces, viewport)
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

    # on a vertical wall?  (the lowest-index one; the x index is searched
    # with a widened window, the test below is exact)
    near = slice(np.searchsorted(cutting._wall_xs, px - 2 * tol, side="left"),
                 np.searchsorted(cutting._wall_xs, px + 2 * tol, side="right"))
    n_rays = len(cutting.rays)
    for w_idx in sorted(cutting._wall_order[near].tolist()):
        w = cutting.rays[w_idx] if w_idx < n_rays else cutting.aux_walls[w_idx - n_rays]
        if abs(px - w.x) <= tol and w.y_lo - tol <= py <= w.y_hi + tol:
            cells = np.unique([_region_at(cutting, w.x - 2 * _X_EPS, py),
                               _region_at(cutting, w.x + 2 * _X_EPS, py)])
            return Location("boundary", cells=tuple(cells.tolist()), on=("ray", w_idx))

    arcs, region0 = cutting._slab(_slab_of(cutting.slab_xs, px))
    below = 0
    for b in arcs:
        ay = _height(cutting, b, px)
        if abs(ay - py) <= 1e-5:
            ay = float(cutting._exact.heights(np.array([b]), np.array([px]))[0])
        if abs(ay - py) <= tol:
            cells = cutting._region_cell[[region0 + below, region0 + min(below + 1, len(arcs))]]
            cid = sorted(cutting.sample)[cutting._exact.samples.curve[b]]
            return Location("boundary", cells=tuple(np.unique(cells).tolist()),
                            on=("curve", cid))
        if ay < py:
            below += 1
    return Location("interior", cell=int(cutting._region_cell[region0 + below]))


def locate_points(cutting, pts, tol=1e-7):
    """locate_point for many points: the interior cell id of each, or -1 on
    a boundary.  One sweep over the points sorted by x counts the arcs below
    them; a point within max(1e-5, tol) of an arc, 2 * _X_GROUP of a slab
    edge or 2 * tol of a wall, or off the viewport, goes to locate_point
    (which raises ValueError for a point off the viewport)."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    order = np.argsort(pts[:, 0], kind="stable")
    xs, ys = pts[order, 0], pts[order, 1]
    slab, below, clear = _sweep(cutting, xs, ys, max(1e-5, tol))
    walls = cutting._wall_xs
    _x0, _x1, y0, y1 = cutting.viewport
    clear &= (ys >= y0) & (ys <= y1)
    clear &= (np.searchsorted(walls, xs - 2 * tol, side="left")
              == np.searchsorted(walls, xs + 2 * tol, side="right"))
    cell = np.full(len(pts), -1, dtype=np.int64)
    slab, below = slab[clear], below[clear]
    cell[order[clear]] = cutting._region_cell[cutting._arc_off[slab] + slab + below]
    for i in np.sort(order[~clear]).tolist():
        loc = locate_point(cutting, pts[i], tol)
        if loc.kind == "interior":
            cell[i] = loc.cell
    return cell


def _slab_of(slab_xs, x):
    """Index of the slab holding x (a float or an array), clipped to the viewport."""
    return np.clip(np.searchsorted(slab_xs, x, side="right") - 1, 0, len(slab_xs) - 2)


def _region_at(cutting, x, y):
    arcs, region0 = cutting._slab(_slab_of(cutting.slab_xs, x))
    below = sum(_height(cutting, b, x) < y for b in arcs)
    return int(cutting._region_cell[region0 + below])


def _height(cutting, b, x):
    """The interpolated height at x of the cutting's branch b."""
    t = cutting._exact.samples
    return float(np.interp(x, t.xs[t.start[b]:t.stop[b]], t.ys[t.start[b]:t.stop[b]]))
