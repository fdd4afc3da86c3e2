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
(`_runs`): x-bins shared by every branch hold each branch's y-ranges, and
a pair skips a bin where its two ranges lie apart.  The refinement then
solves every crossing in one lockstep run of `curves.refine_roots` on the
exact parameterizations, and every touch in a second run on the slope
difference, so reported points carry closed-form accuracy rather than
polyline accuracy.  Each round evaluates its lanes through the evaluator's
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
_BINS = 1 << 9  # sub-bins of the scan's prune; 1 << 10 ran slower, in twice the memory
_SPAN = 16  # sub-bins per level-1 bin of the prune
_ROWS = 1 << 12  # level-1 bins or gathered samples per row group of the scan
_LANES = 1 << 14  # crossing brackets per refinement run


def pfaffian_bezout_bound(k1, k2):
    """Intersection ceiling for curves of field degrees k1 and k2 (or arrays)."""
    if np.any(np.less((k1, k2), 0)):
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
    """The sorted points (x, y, ...), less each within radius of an earlier
    kept one, which a duplicate ranked higher by its entries past (x, y)
    replaces.  The search walks back from the last kept point and stops
    where the x-distance alone exceeds radius."""
    merged, r2 = [], radius * radius
    for p in sorted(points):
        i = len(merged) - 1
        while i >= 0 and (p[0] - merged[i][0]) ** 2 <= r2:
            if (p[0] - merged[i][0]) ** 2 + (p[1] - merged[i][1]) ** 2 <= r2:
                if p[2:] < merged[i][2:]:  # p is merged[i]'s duplicate
                    merged[i] = p
                break
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
    heights.  Takes floats or arrays.
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
    k1, k2 = np.stack([k1, k2])[:, np.lexsort((owner[k2], owner[k1]))]  # stable
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
class _Bins:
    """A pass's branches on x-bins that all of them share, and the exact
    evaluator on their samples (branch k is piece k of exact.samples).

    Sub-bin b is [edges[b], edges[b + 1]], closed; level-1 bin c holds
    sub-bins c*_SPAN ... c*_SPAN + _SPAN - 1.  Branch k spans sub-bins
    first[k] ... last[k], and entry base[level][k] + b of lo[level] and
    hi[level] is a y-range of its polyline over its bin b of level (0:
    level 1, 1: sub-bins), rounded outward to float32.  pos[base[1][k] + b]
    is the row of its first sample at or past edges[b], b <= last[k] + 1.
    """

    edges: np.ndarray
    first: np.ndarray
    last: np.ndarray
    base: tuple
    pos: np.ndarray
    lo: tuple
    hi: tuple
    exact: _Exact

    def near(self, level, k, b, sep):
        """Whether branches k[0] and k[1] may come within sep on their bins
        b of level: their ranges there are not _apart."""
        lo, hi = (v[level][self.base[level][k] + b].astype(float) for v in (self.lo, self.hi))
        return ~_apart(lo[0], hi[0], lo[1], hi[1], sep)


def _bins(exact):
    """The _Bins of the branches of exact, an `_Exact`: _BINS sub-bins at
    equal counts of the branches' ends and about 8 _BINS abscissas spread
    over the table (fewer where those repeat), a sub-bin's range over its
    samples and the one on each side of each edge, _ROWS rows at a time."""
    s, xs, ys = exact.samples, exact.samples.xs, exact.samples.ys
    x = np.sort(np.concatenate([xs[::max(1, len(xs) // (8 * _BINS))], xs[s.start], xs[s.stop - 1]]))
    edges = np.unique(x[np.linspace(0, len(x) - 1, _BINS + 1).astype(np.int64)]) if len(x) else x
    first = np.searchsorted(edges, xs[s.start], side="right") - 1  # edges[b] <= x_lo < edges[b + 1]
    last = np.searchsorted(edges, xs[s.stop - 1]) - 1  # edges[b] < x_hi <= edges[b + 1]
    n = last - first + 2  # entries per branch: its edges; its sub-bins, then one unused
    off = np.cumsum(n) - n
    pos, (lo, hi) = np.empty(n.sum(), np.int32), np.empty((2, n.sum()), np.float32)
    for k0, k1 in _groups(s.size + n):
        rows, e = slice(s.start[k0], s.stop[k1 - 1]), slice(off[k0], off[k1 - 1] + n[k1 - 1])
        # per branch and edge b, the samples before it: those of its sub-bins below b
        sub = np.searchsorted(edges, xs[rows], side="right")  # 1 + each sample's sub-bin
        count = np.bincount(np.repeat(off[k0:k1] - e.start - first[k0:k1], s.size[k0:k1]) + sub,
                            minlength=e.stop - e.start + 1)
        pos[e] = rows.start + np.cumsum(count)[:-1]
        k = np.repeat(np.arange(k0, k1), n[k0:k1])
        a, z = (np.minimum(v, s.stop[k] - 1) for v in (pos[e], np.append(pos[e][1:], rows.stop)))
        ends = ys[np.maximum(a - 1, s.start[k])], ys[z]
        for out, least, inf in ((lo, np.minimum, -np.inf), (hi, np.maximum, np.inf)):
            v = least(least.reduceat(ys[rows], a - rows.start), least(*ends))
            v32 = v.astype(np.float32)
            out[e] = np.where(least(v32, v) != v32, np.nextafter(v32, np.float32(inf)), v32)
    # level-1 bins: the sub-bins' ranges merged
    c0, n1 = first // _SPAN, last // _SPAN - first // _SPAN + 1
    k = np.repeat(np.arange(len(s)), n1)
    at = off[k] + np.maximum(_ranges(c0, n1) * _SPAN, first[k]) - first[k]
    return _Bins(edges, first, last, (np.cumsum(n1) - n1 - c0, off - first), pos,
                 (np.minimum.reduceat(lo, at), lo), (np.maximum.reduceat(hi, at), hi), exact)


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
    bins = _bins(exact)
    k1, k2, overlap = _live(exact.samples, owner, sep, tol)
    i, j = owner[k1], owner[k2]
    new = np.diff(i * n + j, prepend=-1) != 0  # a curve pair's first
    cuts = np.append(np.flatnonzero(new)[::_BLOCK], len(new)).tolist()
    return (out for s, e in zip(cuts, cuts[1:])
            for out in _block(bins, i[s:e], j[s:e], k1[s:e], k2[s:e], overlap[s:e], tol))


def _block(bins, i, j, k1, k2, overlap, tol):
    """(i, j, points) of each curve pair of the live branch pairs (i, j, k1,
    k2, overlap): scan, refine, then deduplicate and check the pairs'
    ceilings.  A pair with more crossing brackets than its ceiling is checked
    for a shared component before any bracket is refined."""
    curves = bins.exact.curves
    new = np.diff(i * len(curves) + j, prepend=-1) != 0
    p = np.cumsum(new) - 1  # the curve pair of each branch pair, from 0
    degree = np.array([c.pf_degree for c in curves])
    bound = pfaffian_bezout_bound(degree[i[new]], degree[j[new]])

    def check(counts, what, early=False):
        for q in np.flatnonzero(counts > bound).tolist():
            scanned = (p == q) & overlap
            if _coincide(bins.exact, k1[scanned], k2[scanned], tol):
                if early and q:  # the pairs before q, refined, raise first if one is shared
                    e = np.searchsorted(p, q)
                    _block(bins, i[:e], j[:e], k1[:e], k2[:e], overlap[:e], tol)
                raise SharedComponent(f"{counts[q]} {what} with interval overlap (ceiling "
                                      f"{bound[q]}); curves appear to share a component")

    found, cross, touch = _scan(bins, p, k1, k2, overlap, tol)
    check(np.bincount(cross[0], minlength=len(bound)), "crossing brackets", early=True)
    both = bins.exact.both
    found += [_refine_crossings(both, cross), _refine_touches(both, touch, tol)]
    points = _dedup_pairs(*(np.concatenate(c) for c in zip(*found)), p[-1] + 1, 10 * tol)
    check(np.fromiter(map(len, points), int, len(points)), "surviving crossings")
    return list(zip(i[new].tolist(), j[new].tolist(), points))


def _dedup_pairs(q, x, y, n, radius):
    """_dedup of the points (x, y) of each pair 0 ... n - 1 of q, a list
    per pair.  One stable sort orders them all, and _dedup runs only on a
    pair with two points within 2 radius in x: the others keep them all."""
    order = np.lexsort((y, x, q))
    q, x, y = q[order], x[order], y[order]
    near = np.bincount(q[1:][(q[1:] == q[:-1]) & (np.diff(x) <= 2 * radius)], minlength=n) > 0
    cuts = np.searchsorted(q, np.arange(n + 1)).tolist()
    xy = list(zip(x.tolist(), y.tolist()))
    return [_dedup(xy[a:b], radius) if c else xy[a:b]
            for a, b, c in zip(cuts, cuts[1:], near.tolist())]


def _scan(bins, p, k1, k2, overlap, tol):
    """Candidates of the live branch pairs (k1, k2) of curve pairs p, bins
    the pass's `_Bins`: where a pair overlaps in x, from the gap h = y1 - y2
    on its grid (`_runs`), else from its ends.

    Returns the points found as they are, columns (pair, x, y) of the
    meeting ends, then of the grid zeros; and the columns (pair, branch 1,
    branch 2, a, b) of the crossing brackets and (pair, branch 1, branch 2,
    a, b, grid point) of the touches, by branch pair, then x.
    """
    s, r = bins.exact.samples, np.flatnonzero(~overlap)  # no overlap: ends that meet
    found = []
    for a, b in ((s.stop[k1[r]] - 1, s.start[k2[r]]), (s.start[k1[r]], s.stop[k2[r]] - 1)):
        meet = _ends_meet(s.xs[a], s.ys[a], s.xs[b], s.ys[b], tol)
        found.append((p[r[meet]], s.xs[a[meet]], s.ys[a[meet]]))
    # rows (branch pair, x...) of the crossings (a, b), grid zeros (x) and
    # touches (a, b, x): the columns of each scanned piece (they come by
    # branch pair and x), after an empty one
    empty = [np.zeros(0, dtype=np.int64)] + [np.zeros(0)] * 3
    cross, zeros, touch = [empty[:3]], [empty[:2]], [empty]
    for pair, x, h, first in _runs(bins, np.flatnonzero(overlap), k1, k2, _separation(tol)):
        c, z, t = _candidates(x, h, first)
        cross.append((pair[c], x[c], x[c + 1]))
        zeros.append((pair[z], x[z]))
        touch.append((pair[t], x[t - 1], x[t + 1], x[t]))
    (rc, *cross), (rz, xz), (rt, *touch) = ([np.concatenate(c) for c in zip(*rows)]
                                             for rows in (cross, zeros, touch))
    found.append((p[rz], xz, bins.exact.heights(k1[rz], xz)))
    return found, (p[rc], k1[rc], k2[rc], *cross), (p[rt], k1[rt], k2[rt], *touch)


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


def _runs(bins, r, k1, k2, sep):
    """The grids of the x-overlapping branch pairs (k1[r], k2[r]),
    where a candidate can lie, as pieces (branch pair, x, h, first): the
    pair of each grid point (an entry of r), its abscissa, the gap
    h = y1 - y2 interpolated there, and whether it starts a run, a stretch
    of one pair's grid to scan on its own.

    A pair's grid is `_grid`, the union of both branches' samples in its
    overlap [lo, hi].  Its runs are the stretches of sub-bins that `_kept`
    keeps, widened to the last grid point at or before the first edge and
    the first at or after the last.  The prune is exact: on a dropped bin
    every h has one sign and |h| > sep >= _TOUCH_SCAN over the closed bin,
    so a sign change, zero or touch lies on a kept bin, and the widening
    puts both ends of a bracket across an edge, and both neighbours of a
    touch, in its run.  Two runs share only grid points about a dropped bin,
    whose |h| > sep as well (a bin's range spans the samples about it), so
    no candidate is found twice.  The pairs go about _ROWS level-1 bins at
    a time, the pieces about _ROWS samples or one run.
    """
    s, xs = bins.exact.samples, bins.exact.samples.xs
    k = np.stack([k1[r], k2[r]])  # (branch 1, branch 2) of each pair
    lo, hi = xs[s.start[k]].max(0), xs[s.stop[k] - 1].min(0)
    b0, b1 = bins.first[k].max(0), bins.last[k].min(0)
    for g0, g1 in _groups(b1 // _SPAN - b0 // _SPAN + 1):
        q, b = _kept(bins, k[:, g0:g1], b0[g0:g1], b1[g0:g1], sep)
        new = (np.diff(q, prepend=-1) != 0) | (np.diff(b, prepend=-2) != 1)
        q, b, e = q[new], b[new], b[np.roll(new, -1)] + 1  # a stretch's edges b ... e
        kq = k[:, g0:g1][:, q]
        # per branch, the last sample at or before edge b and the first at
        # or after edge e (or its ends): they bound the stretch's grid
        a, z = bins.pos[bins.base[1][kq] + b], bins.pos[bins.base[1][kq] + e]
        a, z = np.maximum(a - (xs[a] != bins.edges[b]), s.start[kq]), np.minimum(z, s.stop[kq] - 1)
        ra, rb = np.maximum(xs[a].max(0), lo[g0:g1][q]), np.minimum(xs[z].min(0), hi[g0:g1][q])
        for f0, f1 in _groups((z - a + 1).sum(0)):
            run, at, h, first = _fine(s, a[:, f0:f1], z[:, f0:f1], ra[f0:f1], rb[f0:f1])
            yield r[g0:g1][q[f0:f1]][run], at, h, first


def _kept(bins, k, b0, b1, sep):
    """(pair, sub-bin), ascending, of the sub-bins b0 ... b1 of branch
    pairs k (a row per branch) where the two may come within sep: their
    ranges on its level-1 bin, and on it, are not _apart."""
    c0, n = b0 // _SPAN, b1 // _SPAN - b0 // _SPAN + 1
    q, c = np.repeat(np.arange(len(b0)), n), _ranges(c0, n)
    keep = bins.near(0, k[:, q], c, sep)
    q, b = q[keep], np.maximum(c[keep] * _SPAN, b0[q[keep]])
    n = np.minimum(c[keep] * _SPAN + _SPAN - 1, b1[q]) - b + 1
    q, b = np.repeat(q, n), _ranges(b, n)
    keep = bins.near(1, k[:, q], b, sep)
    return q[keep], b[keep]


def _fine(samples, a, z, ra, rb):
    """The grids of runs [ra, rb] of branch pairs (one row per branch, one
    column per run) as (run, x, h, first): the union of both branches'
    samples in each run, ascending, and the gap h = y1 - y2 interpolated
    there.  Rows a ... z of samples, the pass's sample table, are gathered
    per branch: they reach from at or below ra to at or above rb, so they
    hold the two samples about every grid point."""
    n, runs = (z - a + 1).ravel(), len(ra)
    rows = _ranges(a.ravel(), n)
    x, y = samples.xs[rows], samples.ys[rows]
    run = np.repeat(np.arange(2 * runs) % runs, n)
    order = np.argsort(_key(run, x), kind="stable")  # merges sorted pieces; branch 1 first
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
    return run, at, h, np.diff(run, prepend=-1) != 0


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
