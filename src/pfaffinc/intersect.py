"""Pairwise curve intersection, vertical tangents, and intersection ceilings.

Curves are handled as collections of x-monotone graph branches: a pass's
branches are one `curves.SampleTable` (`monotone_branches`), branch k its
piece k, and one exact evaluator over that table (`_Exact`) serves every
exact value the pass needs.  The intersections of all curve pairs are found
a block of pairs at a time, in two phases (`pair_intersections`).  The scan
walks every live branch pair (`_live`) on a trace-resolution grid and keeps
only candidates: the brackets of sign changes of the interpolated gap, its
grid zeros, the local minima of its size near zero (touches), and branch
ends that meet.  It interpolates only where the two branches come close
(`_runs`): the branches' samples form chunks of _CHUNK, whose bounds cut a
pair's overlap into intervals, and an interval whose two chunks' y-ranges
lie apart holds no candidate, since the gap keeps one sign above the touch
threshold there, so it is skipped.  The kept stretches of all pairs are
interpolated in one flat pass.  The refinement then solves every crossing
in one lockstep run of `curves.refine_roots` on the exact
parameterizations, and every touch in a second run on the slope difference,
so reported points carry closed-form accuracy rather than polyline
accuracy.  Each round evaluates its lanes through the evaluator's
`curves.CurveTable` of the pass's curves, one array call per curve
signature, not per curve.  Exact heights invert x(t) = x in closed form
with `math` functions applied entry by entry, since numpy's arccos, log and
arctan differ from them in the last bit on some inputs and the points would
move; on transformed curves, by one nested refinement per signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .curves import CurveTable, SampleTable, check_tol, refine_roots, trace_table
from .errors import SharedComponent

_TOUCH_SCAN = 1e-3  # coarse |gap| threshold that triggers tangency refinement
# curve pairs per scan-and-refine block of pair_intersections.  A round of a
# run makes one array call per curve signature, however many pairs it holds;
# the block bounds memory, since a run's temporaries take a few hundred bytes
# per candidate: one block for all pairs raised the tracemalloc peak of
# `pfaffinc intersect` on 160 curves (8,949 live pairs) from 6.3 to 10.3 MB
_BLOCK = 1024
_CHUNK = 32  # samples per chunk of the scan's y-range prune
_ROWS = 1 << 12  # chunk intervals or gathered samples per row group of the scan
_LANES = 1 << 14  # crossing brackets per refinement run


def pfaffian_bezout_bound(k1, k2):
    """Intersection ceiling for curves of field degrees k1 and k2."""
    if k1 < 0 or k2 < 0:
        raise ValueError("degrees must be nonnegative")
    return (k1 + k2) * (2 * k1 + k2) + k1 + 1


def check_bezout(c1, c2, found):
    """True iff the found intersections respect the degree ceiling."""
    return len(found) <= pfaffian_bezout_bound(c1.pf_degree, c2.pf_degree)


# -- vertical tangents -------------------------------------------------------


def vertical_tangent_ts(curves, traces):
    """Per curve, the sorted parameters where the x-component of its field
    changes sign along its trace: the sampled zeros, and every sign change,
    the one across a closed curve's parameter seam included, refined in one
    lockstep run over all the curves on f' = vx_rate, the t-derivative of
    vx.  One pass over the traces' `curves.trace_table` finds them."""
    samples, table = trace_table(traces), CurveTable(curves)
    xs, ys, ts = samples.xs, samples.ys, samples.ts
    piece = samples.piece_ids()
    cid = samples.curve[piece]
    vx = table.lanes(cid).poly("vx", xs, ys)
    sign = np.sign(vx)
    at = np.flatnonzero((sign[:-1] * sign[1:] < 0) & (piece[:-1] == piece[1:]))
    brackets = np.stack([ts[at], ts[at + 1], vx[at], vx[at + 1]])  # a, b, vx at a, at b
    # closed parameterizations: the wrap-around gap from a trace's last
    # sample to its first sample one period on, if those nearly meet
    period = np.array([np.nan if c.period is None else c.period for c in curves])
    step = np.array([trace.step for trace in traces])
    bounds = np.append(samples.start, len(xs))[samples.first(np.arange(len(curves) + 1))]
    i0, i1 = bounds[:-1], bounds[1:] - 1  # each trace's first and last sample
    closed = np.flatnonzero(np.hypot(xs[i1] - xs[i0], ys[i1] - ys[i0]) < 64 * step * (1 + period))
    ab = np.concatenate([ts[i1[closed]], ts[i0[closed]] + period[closed]])
    on = table.lanes(np.tile(closed, 2))
    seam = np.vstack([ab, on.poly("vx", *on.point_at(ab))]).reshape(4, -1)
    turn = seam[2] * seam[3] < 0
    owner = np.append(cid[at], closed[turn])

    def along(t, lanes):
        on = table.lanes(owner[lanes])
        x, y = on.point_at(t)
        return on.poly("vx", x, y), on.poly("vx_rate", x, y)

    roots = refine_roots(along, *np.hstack([brackets, seam[:, turn]]))
    roots[len(at):] %= period[closed[turn]]
    zero = sign == 0
    c, t = np.append(cid[zero], owner), np.append(ts[zero], roots)
    order = np.lexsort((t, c))  # stable: by curve, then parameter
    cuts = np.cumsum(np.bincount(c, minlength=len(curves)))
    return [v.tolist() for v in np.split(t[order], cuts)[:-1]]


def vertical_tangent_points(curve, trace):
    """Points of the trace where the directional vector is vertical."""
    return points_at(curve, vertical_tangent_ts([curve], [trace])[0])


def points_at(curve, ts):
    """The points of curve at parameters ts, merged within 1e-8."""
    return _dedup([tuple(map(float, curve.point_at(t))) for t in ts], 1e-8)


# -- monotone branches -------------------------------------------------------


class _Exact:
    """Exact evaluation on a pass's branches: lane (k, x) is branch k at
    abscissa x.  Branch k is piece k of samples, a `curves.SampleTable` of
    curves (`monotone_branches`), so each evaluation makes one array call per
    curve signature present in the `curves.CurveTable` of curves."""

    def __init__(self, curves, samples):
        self.curves, self.samples, self.table = curves, samples, CurveTable(curves)
        self.t_mid = samples.ts[samples.start + samples.size // 2]  # inside, off the turns

    def heights(self, k, x):
        """Exact y of branches k at abscissas x."""
        return self._heights(self.table.lanes(self.samples.curve[k]), k, x)

    def _heights(self, lanes, k, x):
        """t inverts x(t) = x in closed form, or on transformed curves by
        refinement between the branch's samples about x (`_bracket`)."""
        t = lanes.param_from_x(x, self.t_mid[k], lambda s: self._bracket(k[s], x[s]))
        return lanes.point_at(t)[1]

    @cached_property
    def _keys(self):
        """_key(k, x) of every sample x of every branch k, ascending."""
        return _key(self.samples.piece_ids(), self.samples.xs)

    def _bracket(self, k, x):
        """(t, t', x(t) - x, x(t') - x) of the samples of branches k about x,
        between which x(t) is monotone and dx/dt = vx; past an end of the
        branch, the end pair.  One search over all the branches."""
        s = self.samples
        first = s.start[k]
        i = first + np.clip(np.searchsorted(self._keys, _key(k, x)) - first, 1, s.size[k] - 1)
        return s.ts[i - 1], s.ts[i], s.xs[i - 1] - x, s.xs[i] - x

    def both(self, k1, k2, *xs):
        """y and dy/dx = vy/vx of branches k1 and k2 (index arrays) at each
        array of xs, as the list of (y, dy/dx) on k1 then k2 at xs[0], then
        at xs[1], ..."""
        k = np.concatenate([k1, k2] * len(xs))
        x = np.concatenate([v for v in xs for _ in (k1, k2)])
        lanes = self.table.lanes(self.samples.curve[k])
        with np.errstate(divide="ignore", invalid="ignore"):
            y = self._heights(lanes, k, x)
            vx, vy = lanes.field_at(x, y)
            out = np.stack([y, vy / vx])
        return list(zip(*out.reshape(2, 2 * len(xs), len(k1))))


def monotone_branches(curves, traces, tangents):
    """The x-monotone branches of the traces' components, split at the
    vertical tangents (tangents[i], curve i's entry of `vertical_tangent_ts`),
    as one `curves.SampleTable`: a piece per branch, by curve, then by
    component and parameter, its xs strictly ascending; its curve is an
    index into curves."""
    ts, xs, ys, owner = [], [], [], []
    for i, (curve, trace, vts) in enumerate(zip(curves, traces, tangents)):
        for _, _, comp_ts in trace.pieces():
            cuts = [t for t in vts if comp_ts[0] < t < comp_ts[-1]]
            bounds = [float(comp_ts[0])] + cuts + [float(comp_ts[-1])]
            for a, b in zip(bounds[:-1], bounds[1:]):
                if b - a <= 0:
                    continue
                t = np.concatenate([[a], comp_ts[(comp_ts > a) & (comp_ts < b)], [b]])
                x, y = (np.asarray(v, float) + np.zeros_like(t) for v in curve.point_at(t))
                if x[0] > x[-1]:
                    t, x, y = t[::-1], x[::-1], y[::-1]
                # enforce strictly ascending x (drops jitter at the turning point)
                keep = np.concatenate([[True], np.diff(np.maximum.accumulate(x)) > 0])
                if np.count_nonzero(keep) >= 2:
                    for column, v in ((ts, t), (xs, x), (ys, y)):
                        column.append(v[keep])
                    owner.append(i)
    xs, ys = (np.concatenate([np.zeros(0)] + v) for v in (xs, ys))
    return SampleTable(xs, ys, ts, list(map(len, ts)), owner)


# -- intersections ------------------------------------------------------------


def _dedup(points, radius):
    """The sorted points, less each within radius of an earlier kept one.
    The kept points ascend in x, so the search walks back from the last one
    and stops where the x-distance alone exceeds radius."""
    merged, r2 = [], radius * radius
    for p in sorted(points):
        i = len(merged) - 1
        while i >= 0 and (p[0] - merged[i][0]) ** 2 <= r2:
            if (p[0] - merged[i][0]) ** 2 + (p[1] - merged[i][1]) ** 2 <= r2:
                break  # p is merged[i]'s duplicate
            i -= 1
        else:
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


def _ends_meet(x1, y1, x2, y2, tol):
    """Whether branch ends (x1, y1) and (x2, y2) lie within tol of each other.
    Takes floats, or arrays against one end."""
    return np.hypot(x1 - x2, y1 - y2) <= tol


def _live(samples, owner, sep, tol):
    """The live branch pairs (k1, k2), owner[k1] < owner[k2], in the order of
    curve pair, k1, then k2; and whether each overlaps in x.

    Branch k is piece k of samples, of curve owner[k], ascending.  A pair is
    live when it overlaps in x by more than 1e-12 and its y-ranges are not
    _apart, or has no overlap and an end of one branch within tol of an end
    of the other.  Other pairs yield no point.  Runs one row per branch,
    vectorised over the branches of later curves.
    """
    first, last = samples.start, samples.start + samples.size - 1
    (x_lo, x_hi), (y_left, y_right) = samples.xs[[first, last]], samples.ys[[first, last]]
    y_lo, y_hi = np.minimum.reduceat(samples.ys, first), np.maximum.reduceat(samples.ys, first)
    later = np.searchsorted(owner, owner, side="right")
    k1, k2 = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    for k, s in enumerate(later.tolist()):
        overlap = np.minimum(x_hi[k], x_hi[s:]) - np.maximum(x_lo[k], x_lo[s:]) > 1e-12
        live = np.where(overlap, ~_apart(y_lo[k], y_hi[k], y_lo[s:], y_hi[s:], sep),
                        _ends_meet(x_hi[k], y_right[k], x_lo[s:], y_left[s:], tol)
                        | _ends_meet(x_lo[k], y_left[k], x_hi[s:], y_right[s:], tol))
        k2.append(np.nonzero(live)[0] + s)
        k1.append(np.full(len(k2[-1]), k))
    k1, k2 = np.concatenate(k1), np.concatenate(k2)
    order = np.lexsort((owner[k2], owner[k1]))  # stable
    k1, k2 = k1[order], k2[order]
    return k1, k2, np.minimum(x_hi[k1], x_hi[k2]) - np.maximum(x_lo[k1], x_lo[k2]) > 1e-12


def intersect_curves(c1, c2, trace1, trace2, tol=1e-9):
    """Deduplicated intersection points of two distinct curves.

    Crossing candidates come from sign changes of the branch gap on a
    trace-resolution grid; tangential contacts from local minima of the gap.
    Each candidate is refined on the exact parameterizations to |gap| <= tol.
    """
    if c1 is c2:
        raise ValueError("curves must be distinct objects")
    pair, traces = [c1, c2], [trace1, trace2]
    branches = monotone_branches(pair, traces, vertical_tangent_ts(pair, traces))
    return next((pts for _, _, pts in pair_intersections(pair, branches, tol)), [])


def _grid(samples, k1, k2):
    """The scan grid of branch pair (k1, k2), pieces of samples, over its
    x-overlap: the samples of both branches in it."""
    x1, x2 = (samples.xs[samples.start[k]:samples.stop[k]] for k in (k1, k2))
    lo, hi = max(x1[0], x2[0]), min(x1[-1], x2[-1])
    return np.unique(np.concatenate([x1[(x1 >= lo) & (x1 <= hi)], x2[(x2 >= lo) & (x2 <= hi)],
                                     [lo, hi]]))


@dataclass
class _Chunks:
    """A pass's branches as tables: their chunks, and the exact evaluator
    on their samples.

    Branch k is piece k of exact.samples, a `curves.SampleTable`.
    Chunk c of branch k holds its samples c*_CHUNK ... min(c*_CHUNK
    + _CHUNK, size[k] - 1), sharing the last one with the next chunk, and
    has the y-range [lo[i], hi[i]], i = start[k] - k + c.  Its bounds, the
    abscissas x of those two samples, are rows start[k] + c and
    start[k] + c + 1 of key = _key(k, x), which orders them for searches.
    The chunk tables hold about one entry per _CHUNK samples.
    """

    key: np.ndarray
    start: np.ndarray  # one more entry than branches
    lo: np.ndarray
    hi: np.ndarray
    exact: _Exact


def _chunks(exact):
    """The _Chunks of the branches of exact, an `_Exact`."""
    s = exact.samples
    xs, ys, first, size = s.xs, s.ys, s.start, s.size
    # per branch, the chunks' first samples, then its last sample
    count = (size - 2) // _CHUNK + 2
    at = np.repeat(first, count) + np.minimum(
        _CHUNK * _ranges(np.zeros_like(count), count), np.repeat(size - 1, count))
    last = np.cumsum(count) - 1
    firsts = np.delete(at, last)
    ends = ys[np.delete(at, last - count + 1)]  # each chunk's last sample, the next one's first
    lo = np.minimum(np.minimum.reduceat(ys, firsts), ends)
    hi = np.maximum(np.maximum.reduceat(ys, firsts), ends)
    start = np.append(0, np.cumsum(count))
    key = _key(np.repeat(np.arange(len(size)), count), xs[at])
    return _Chunks(key, start, lo, hi, exact)


def _ranges(starts, counts):
    """The ranges starts[i] ... starts[i] + counts[i] - 1, concatenated."""
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(ends[-1] if len(ends) else 0)


def _groups(sizes):
    """(start, stop) of consecutive groups of the items of sizes, each group
    holding at most _ROWS plus the size of its last item."""
    g = (np.cumsum(sizes) - sizes) // _ROWS
    cuts = [0, *(np.flatnonzero(np.diff(g)) + 1).tolist(), len(sizes)]
    return [(s, e) for s, e in zip(cuts, cuts[1:]) if e > s]


def _key(major, minor):
    """Complex keys major + i minor, integers major, which numpy sorts and
    searches in the lexicographic order of (major, minor)."""
    key = np.empty(np.broadcast(major, minor).shape, dtype=complex)
    key.real, key.imag = major, minor
    return key


def _order(major, minor):
    """The stable sort of (major, minor) pairs, integers major.  On a few
    concatenated sorted sequences, as here, it takes linear time."""
    return np.argsort(_key(major, minor), kind="stable")


def _interp(x, y, at, j):
    """np.interp(at, xs, ys) on the branches whose samples are rows j and
    j + 1 of (x, y), where row j is the last sample at or below at: numpy's
    formula entry by entry, its fallback for a NaN result included, so the
    values are the same bits."""
    out = y[j]
    m = np.flatnonzero(x[j] != at)
    j0, j1, u = j[m], j[m] + 1, at[m]
    slope = (y[j1] - y[j0]) / (x[j1] - x[j0])
    v = slope * (u - x[j0]) + y[j0]
    nan = np.flatnonzero(np.isnan(v))
    if len(nan):
        j0, j1 = j0[nan], j1[nan]
        w = slope[nan] * (u[nan] - x[j1]) + y[j1]
        v[nan] = np.where(np.isnan(w) & (y[j0] == y[j1]), y[j0], w)
    out[m] = v
    return out


def pair_intersections(curves, branches, tol=1e-9):
    """intersect_curves for every pair of curves that can meet.

    branches is the `monotone_branches` table of curves.  Returns an
    iterator over (i, j, deduplicated points) for i < j in lexicographic
    order, over the curve pairs with a live branch pair (`_live`); the
    others have no points.  tol is checked at the call.  The curve pairs are
    taken _BLOCK at a time: the scan walks their live branch pairs and keeps
    only candidates, then every crossing, and every touch, is refined in one
    lockstep run of `refine_roots`.
    """
    return _pairs(_Exact(curves, branches), tol)


def _pairs(exact, tol=1e-9):
    """pair_intersections on the branches of exact, an `_Exact`."""
    sep = _separation(tol)
    owner, n = exact.samples.curve, len(exact.curves)
    chunks = _chunks(exact)
    k1, k2, overlap = _live(exact.samples, owner, sep, tol)
    i, j = owner[k1], owner[k2]
    new = np.diff(i * n + j, prepend=-1) != 0  # a curve pair's first
    cuts = np.append(np.flatnonzero(new)[::_BLOCK], len(new)).tolist()
    return (out for s, e in zip(cuts, cuts[1:])
            for out in _block(chunks, i[s:e], j[s:e], k1[s:e], k2[s:e], overlap[s:e], tol))


def _block(chunks, i, j, k1, k2, overlap, tol):
    """(i, j, points) of each curve pair of the live branch pairs (i, j, k1,
    k2, overlap): scan, refine, then deduplicate and check the pair's
    ceiling."""
    curves = chunks.exact.curves
    new = np.diff(i * len(curves) + j, prepend=-1) != 0
    p = np.cumsum(new) - 1  # the curve pair of each branch pair, from 0
    points, cross, touch = _scan(chunks, p, k1, k2, overlap, tol)
    both = chunks.exact.both
    for found in (_refine_crossings(both, cross), _refine_touches(both, touch, tol)):
        for q, x, y in zip(*(v.tolist() for v in found)):
            points[q].append((x, y))
    out = []
    for q, (ci, cj, pts) in enumerate(zip(i[new].tolist(), j[new].tolist(), points)):
        pts = _dedup(pts, 10 * tol)
        bound = pfaffian_bezout_bound(curves[ci].pf_degree, curves[cj].pf_degree)
        if len(pts) > bound:
            scanned = (p == q) & overlap
            if _coincide(chunks.exact, k1[scanned], k2[scanned], tol):
                raise SharedComponent(
                    f"{len(pts)} surviving crossings with interval overlap "
                    f"(ceiling {bound}); curves appear to share a component")
        out.append((ci, cj, pts))
    return out


def _scan(chunks, p, k1, k2, overlap, tol):
    """Candidates of the live branch pairs (k1, k2) of curve pairs p, chunks
    the pass's `_Chunks`: where a pair overlaps in x, from the gap
    h = y1 - y2 on its grid (`_runs`), else from its ends.

    Returns the points found as they are (grid zeros and meeting ends), one
    list per curve pair, and the columns (pair, branch 1, branch 2, a, b) of
    the crossing brackets and (pair, branch 1, branch 2, a, b, grid point) of
    the touches, in the order of the branch pairs, then of x.
    """
    points = [[] for _ in range(p[-1] + 1)]
    s, r = chunks.exact.samples, np.flatnonzero(~overlap)  # no overlap: ends that meet
    for a, b in ((s.stop[k1[r]] - 1, s.start[k2[r]]), (s.start[k1[r]], s.stop[k2[r]] - 1)):
        meet = _ends_meet(s.xs[a], s.ys[a], s.xs[b], s.ys[b], tol)
        for q, x, y in zip(p[r[meet]].tolist(), s.xs[a[meet]].tolist(), s.ys[a[meet]].tolist()):
            points[q].append((x, y))
    # rows (branch pair, x...) of the crossings (a, b), grid zeros (x) and
    # touches (a, b, x): the columns of each scanned piece, after an empty one
    empty = [np.zeros(0, dtype=np.int64)] + [np.zeros(0)] * 3
    cross, zeros, touch = [empty[:3]], [empty[:2]], [empty]
    for pair, x, h, first in _runs(chunks, np.flatnonzero(overlap), k1, k2, _separation(tol)):
        c, z, t = _candidates(x, h, first)
        cross.append((pair[c], x[c], x[c + 1]))
        zeros.append((pair[z], x[z]))
        touch.append((pair[t], x[t - 1], x[t + 1], x[t]))
    (rc, *cross), (rz, xz), (rt, *touch) = (_by_pair(rows) for rows in (cross, zeros, touch))
    yz = chunks.exact.heights(k1[rz], xz)
    for r, x, y in zip(rz.tolist(), xz.tolist(), yz.tolist()):
        points[p[r]].append((x, y))
    return points, (p[rc], k1[rc], k2[rc], *cross), (p[rt], k1[rt], k2[rt], *touch)


def _by_pair(rows):
    """The columns of the row pieces rows, stably sorted by the first."""
    columns = [np.concatenate(c) for c in zip(*rows)]
    order = np.argsort(columns[0], kind="stable")
    return [c[order] for c in columns]


def _candidates(x, h, first):
    """The candidates of the gap h on the grid x, scanned in runs that start
    where first is set: the indices i of the crossing brackets (x[i],
    x[i + 1]), sign changes inside a run; of the grid zeros; and of the
    touches, local minima of |h| within _TOUCH_SCAN inside a run, except
    next to a sign change (already a crossing).  The threshold goes first,
    so the other tests run on the few points that pass."""
    sign = np.sign(h)
    turn = sign[:-1] * sign[1:] < 0
    absh = np.abs(h)
    at = np.flatnonzero(absh[1:-1] <= _TOUCH_SCAN) + 1
    at = at[~first[at] & ~first[at + 1] & (absh[at] <= absh[at - 1])
            & (absh[at] <= absh[at + 1]) & ~turn[at - 1] & ~turn[at]]
    return np.flatnonzero(turn & ~first[1:]), np.flatnonzero(sign == 0), at


def _runs(chunks, r, k1, k2, sep):
    """The grids of the x-overlapping branch pairs (k1[r], k2[r]),
    where a candidate can lie, as pieces (branch pair, x, h, first): the
    pair of each grid point (an entry of r), its abscissa, the gap
    h = y1 - y2 interpolated there, and whether it starts a run, a stretch
    of one pair's grid to scan on its own.

    A pair's grid is `_grid`, the union of both branches' samples in its
    overlap [lo, hi], and only runs of it are kept: the chunk bounds of both
    branches inside (lo, hi) cut [lo, hi] into intervals on which each
    branch stays in one chunk, and an interval whose two chunks' y-ranges
    are _apart by sep is dropped.  The prune is exact: consecutive grid
    points share an interval (the bounds are samples), and on a dropped one
    every h has one sign and |h| > sep >= _TOUCH_SCAN, so it holds no
    bracket, zero or touch, and the neighbours of a touch lie in its run.
    The intervals are taken about _ROWS at a time, and the pieces hold
    about _ROWS samples, or one longer run.
    """
    bx = chunks.key.imag
    k = np.stack([k1[r], k2[r]])  # (branch 1, branch 2) of each pair
    s = chunks.start[k]
    lo, hi = bx[s].max(0), bx[chunks.start[k + 1] - 1].min(0)
    # per branch, the chunks of lo and of the interval that ends at hi
    c_lo = np.searchsorted(chunks.key, _key(k, lo), side="right") - 1 - s
    c_hi = np.searchsorted(chunks.key, _key(k, hi)) - 1 - s
    for g0, g1 in _groups(2 + (c_hi - c_lo).sum(0)):
        u, ra, rb, cs, ce = _coarse(chunks, k[:, g0:g1], c_lo[:, g0:g1], c_hi[:, g0:g1],
                                    lo[g0:g1], hi[g0:g1], sep)
        ku = k[:, g0:g1][:, u]
        # the samples of each run's chunks, cs ... ce
        n = np.minimum(_CHUNK * (ce + 1), chunks.exact.samples.size[ku] - 1) - _CHUNK * cs + 1
        for f0, f1 in _groups(n.sum(0)):
            run, at, h, first = _fine(chunks, ku[:, f0:f1], _CHUNK * cs[:, f0:f1], n[:, f0:f1],
                                      ra[f0:f1], rb[f0:f1])
            yield r[g0:g1][u[f0:f1]][run], at, h, first


def _coarse(chunks, k, c_lo, c_hi, lo, hi, sep):
    """The runs of kept intervals of branch pairs k (see `_runs`), which
    overlap on [lo, hi], with chunk bounds c_lo + 1 ... c_hi inside it: per
    run, its pair, its ends ra < rb and, per branch, the chunks of its first
    and last intervals."""
    n, s = len(lo), chunks.start[k]
    inner = (c_hi - c_lo).ravel()
    own = np.repeat(np.arange(2 * n), inner)  # branch 1 of every pair, then branch 2
    px = np.concatenate([lo, chunks.key.imag[s.ravel()[own] + _ranges(c_lo.ravel() + 1, inner)],
                         hi])
    pair = np.concatenate([np.arange(n), own % n, np.arange(n)])
    side = np.concatenate([np.zeros(n, dtype=np.int64), own // n + 1, np.zeros(n, dtype=np.int64)])
    order = _order(pair, px)
    px, pair, side = px[order], pair[order], side[order]
    # per branch, the chunk from each bound on: its bounds so far
    count = 2 + inner.reshape(2, n).sum(0)
    firsts = np.cumsum(count) - count
    chunk = []
    for i in (0, 1):
        seen = np.cumsum(side == i + 1)
        chunk.append(c_lo[i][pair] + seen - seen[firsts][pair])
    chunk = np.stack(chunk)
    # a bound of both branches: keep its last copy, which counts both
    keep = np.append((px[1:] != px[:-1]) | (pair[1:] != pair[:-1]), True)
    px, pair, chunk = px[keep], pair[keep], chunk[:, keep]
    c = (s - k)[:, pair] + chunk
    kept = np.append(pair[1:] == pair[:-1], False) & ~_apart(
        chunks.lo[c[0]], chunks.hi[c[0]], chunks.lo[c[1]], chunks.hi[c[1]], sep)
    prev = np.append(False, kept[:-1])
    starts, ends = np.flatnonzero(kept & ~prev), np.flatnonzero(prev & ~kept)
    return pair[starts], px[starts], px[ends], chunk[:, starts], chunk[:, ends - 1]


def _fine(chunks, k, a, n, ra, rb):
    """The grids of runs [ra, rb] of branch pairs k (one row per branch, one
    column per run) as (run, x, h, first): the union of both branches'
    samples in each run, ascending, and the gap h = y1 - y2 interpolated
    there.  Samples a ... a + n - 1 of each branch, its chunks about the
    run, are gathered: they reach from at or below ra to at or above rb, so
    they hold the two samples about every grid point, and are gathered by
    index from the pass's sample table."""
    n, runs, samples = n.ravel(), len(ra), chunks.exact.samples
    rows = _ranges(samples.start[k.ravel()] + a.ravel(), n)
    x, y = samples.xs[rows], samples.ys[rows]
    run = np.repeat(np.arange(2 * runs) % runs, n)
    order = _order(run, x)  # branch 1 first on equal x
    run, at = run[order], x[order]
    # per branch, the position of its last sample at or below each point
    mine = order < n[:runs].sum()
    step = np.arange(len(order))
    last = [np.maximum.accumulate(np.where(m, step, 0)) for m in (mine, ~mine)]
    # the points in the runs; a sample of both branches: keep its last copy,
    # which counts both
    keep = (ra[run] <= at) & (at <= rb[run])
    keep[:-1] &= (at[1:] != at[:-1]) | (run[1:] != run[:-1])
    run, at = run[keep], at[keep]
    h = _interp(x, y, at, order[last[0][keep]]) - _interp(x, y, at, order[last[1][keep]])
    first = np.ones(len(run), dtype=bool)
    first[1:] = run[1:] != run[:-1]
    return run, at, h, first


def _refine_crossings(both, columns):
    """Pairs, x and y of the crossings: y1 - y2 refined between the bracket
    ends, with slope dy1/dx - dy2/dx; a bracket whose exact gap has one sign
    is an interpolation artifact and is skipped.  The brackets go _LANES at
    a time, which bounds a run's memory; the lanes are independent, so the
    roots do not depend on the slicing."""
    columns = [np.array(c) for c in columns]
    found = [_refine_slice(both, *(c[s:s + _LANES] for c in columns))
             for s in range(0, max(len(columns[0]), 1), _LANES)]
    return [np.concatenate(v) for v in zip(*found)]


def _refine_slice(both, p, k1, k2, a, b):
    (ya1, _), (ya2, _), (yb1, _), (yb2, _) = both(k1, k2, a, b)
    ga, gb = ya1 - ya2, yb1 - yb2
    keep = ~(ga * gb > 0)
    p, k1, k2 = p[keep], k1[keep], k2[keep]

    def gap(x, lanes):
        (y1, s1), (y2, s2) = both(k1[lanes], k2[lanes], x)
        return y1 - y2, s1 - s2

    x = refine_roots(gap, a[keep], b[keep], ga[keep], gb[keep])
    (y, _), _ = both(k1, k2, x)
    return p, x, y


def _refine_touches(both, columns, tol):
    """Pairs, x and y of the touches within tol: a tangential contact is an
    extremum of the gap, bisected on the slope difference (slope 0 takes the
    bisection step) where that changes sign across (a, b), else the grid
    point."""
    p, k1, k2, a, b, x = map(np.array, columns)
    (_, sa1), (_, sa2), (_, sb1), (_, sb2) = both(k1, k2, a, b)
    sa, sb = sa1 - sa2, sb1 - sb2
    run = sa * sb <= 0
    r1, r2 = k1[run], k2[run]

    def slope_difference(u, lanes):
        (_, s1), (_, s2) = both(r1[lanes], r2[lanes], u)
        return s1 - s2, 0.0

    x[run] = refine_roots(slope_difference, a[run], b[run], sa[run], sb[run])
    (y1, _), (y2, _) = both(k1, k2, x)
    near = np.abs(y1 - y2) <= tol
    return p[near], x[near], y1[near]


def _coincide(exact, k1, k2, tol):
    """Whether some of the x-overlapping branch pairs (k1, k2) of exact, an
    `_Exact`, has its exact gap within 10*tol on most of its scan grid.  The
    exact gap, not the interpolated one: two traces of one curve sampled at
    different parameters differ by their chord error."""
    for a, b in zip(k1.tolist(), k2.tolist()):
        grid = _grid(exact.samples, a, b)
        if len(grid) > 8:
            y1, y2 = (exact.heights(np.full(len(grid), k), grid) for k in (a, b))
            if np.mean(np.abs(y1 - y2) <= 10 * tol) > 0.5:
                return True
    return False
