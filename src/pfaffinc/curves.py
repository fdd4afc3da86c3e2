"""Catalog-backed plane curves driven by polynomial vector fields.

Every curve carries a closed-form parameterization (the exact tracer) plus
the polynomial vector field that its directional vectors satisfy.  The field
is the exact t-derivative of the parameterization, so root refinement
(`refine_roots`, over arrays of brackets) takes its Newton steps from it;
it is never used as an ODE integrator, so traces carry no drift.

A curve is its kind, its params and its transform (`PfaffianCurve`).  The
kind's record in `KINDS` gives the closed-form map, the field and the
parameter domain from the params, and `transform_field` carries the field
through the transform, so curves of equal kind, params and transform have
fields equal bit for bit, however they were made.

Lanes, arrays of (curve, value) pairs that a pass evaluates in lockstep,
meet the curves through a `CurveTable`: the curves whose evaluation takes
the same sequence of operations form one group, whose parameters,
transforms and field coefficients are columns, so each evaluation of the
lanes makes one array call per group, however many curves they span, and
gives each lane the bits of its curve's own evaluation.

Samples are held in one format, a `SampleTable`: the pieces of many
curves (trace components, monotone branches) as the columns xs, ys and ts,
one row per sample, each piece's rows consecutive and in its order, and per
piece its rows `start` to `stop`, its `size` and its `curve`, ascending.  A
`CurveTrace` is the table of one curve's samples inside the viewport, a
piece per component; `trace_table` joins a pass's traces, and
`intersect.monotone_branches` gives a pass's branches.  Readers walk the
rows and pieces of a table; no piece is an object of its own.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass, field as dc_field, replace
from functools import cached_property

import numpy as np

from .errors import EmptyTrace, InconsistentScene, NotComposable, SingularMatrix
from .poly import BivariatePolynomial, eval_terms, poly1_der, poly1_eval

TWO_PI = 2.0 * math.pi
_RTOL = 4 * np.finfo(float).eps  # relative part of the root tolerance
_INSET = 1e-9  # open-endpoint inset in parameter space
_TINY_X = 1e-9


@dataclass(frozen=True)
class PolyVectorField:
    vx: BivariatePolynomial
    vy: BivariatePolynomial

    @property
    def degree(self):
        return max(self.vx.degree, self.vy.degree)

    @cached_property
    def vx_rate(self):
        """d/dt of vx along a solution curve, grad(vx) . V, as a polynomial."""
        return self.vx.partial("x") * self.vx + self.vx.partial("y") * self.vy


def eval_vector_field(field, p):
    """Evaluate the field at a point (or arrays of points)."""
    x, y = p
    return field.vx(x, y), field.vy(x, y)


@dataclass(frozen=True)
class PfaffianCurve:
    """A catalog curve (see the module docstring); its field, domain and
    Pfaffian degree are computed once, on first access."""

    kind: str
    params: tuple
    transform: tuple | None = None  # row-major (a1, a2, a3, a4), None = identity
    label: str = ""

    @cached_property
    def field(self):
        """The polynomial vector field: the kind's, carried by the transform."""
        field = KINDS[self.kind].field(self.params)
        return field if self.transform is None else transform_field(field, self.transform)

    @cached_property
    def domain(self):
        """The open parameter interval, whose ends may be +-inf."""
        return KINDS[self.kind].domain(self.params)

    @cached_property
    def pf_degree(self):
        return self.field.degree

    # -- parameterization ------------------------------------------------

    def point_at(self, t):
        x, y = KINDS[self.kind].point(self.params, np.asarray(t, dtype=float))
        return (x, y) if self.transform is None else _transform(self.transform, x, y)

    def field_at(self, x, y):
        return self.field.vx(x, y), self.field.vy(x, y)

    @property
    def period(self):
        """Parameter period for closed parameterizations, else None."""
        return KINDS[self.kind].period

    def param_from_x(self, x, hint):
        """Parameter of the point with abscissa x; None for transformed curves.

        hint is a parameter on the same x-monotone branch, which picks the
        branch of a closed curve.  x may be an array, with hint an array of
        its shape or one parameter for all.
        """
        if self.transform is not None:
            return None
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        hints = np.broadcast_to(np.asarray(hint, dtype=float), xs.shape)
        t = KINDS[self.kind].x_inverse(self.params, xs, hints)
        return t if np.ndim(x) else float(t[0])

    # -- windows and tracing ----------------------------------------------

    def t_window(self, viewport):
        """A finite parameter interval covering the viewport portion."""
        x0, x1, y0, y1 = viewport
        if self.transform is not None:
            x0, x1, y0, y1 = _preimage_bbox(self.transform, viewport)
        lo, hi = KINDS[self.kind].window(self.params, x0, x1, y0, y1)
        lo = max(lo, self.domain[0])
        hi = min(hi, self.domain[1])
        if not (hi - lo > 2 * _INSET):
            raise EmptyTrace(f"{self.kind} curve has empty parameter window in viewport")
        return lo + _INSET, hi - _INSET


class SampleTable:
    """The pieces of many curves as columns (see the module docstring).  ts
    is an array, or the list of its parts, joined on first use, once a pass
    has let go of the temporaries it made before it needs the parameters."""

    def __init__(self, xs, ys, ts, size, curve):
        self.xs, self.ys, self._ts = xs, ys, ts
        self.size, self.curve = np.asarray(size, dtype=np.int64), np.asarray(curve, dtype=np.int64)
        self.stop = np.cumsum(self.size)
        self.start = self.stop - self.size

    def __len__(self):
        """The number of pieces."""
        return len(self.size)

    @staticmethod
    def concat(tables, first):
        """The pieces of tables one after another, the curves of tables[i]
        numbered from first[i]."""
        xs, ys = (np.concatenate([np.zeros(0)] + [getattr(t, v) for t in tables])
                  for v in ("xs", "ys"))
        size = np.concatenate([np.zeros(0, np.int64)] + [t.size for t in tables])
        curve = np.concatenate([np.zeros(0, np.int64)]
                               + [t.curve + a for t, a in zip(tables, first)])
        return SampleTable(xs, ys, [t.ts for t in tables], size, curve)

    @cached_property
    def ts(self):
        if isinstance(self._ts, list):  # the parts are let go once joined
            self._ts = np.concatenate([np.zeros(0)] + self._ts)
        return self._ts

    def pieces(self):
        """The (xs, ys, ts) of each piece, as views."""
        return [(self.xs[s:e], self.ys[s:e], self.ts[s:e])
                for s, e in zip(self.start.tolist(), self.stop.tolist())]

    def piece_ids(self):
        """The piece of each row."""
        return np.repeat(np.arange(len(self.size)), self.size)

    def first(self, curve):
        """The first piece of each curve of curve (an integer array)."""
        return np.searchsorted(self.curve, curve)


class CurveTrace(SampleTable):
    """A curve's samples inside the viewport, a piece per component, all of
    curve 0, sampled at parameter step step and clipped to bbox."""

    def __init__(self, xs, ys, ts, size, step, bbox):
        super().__init__(xs, ys, ts, size, np.zeros(len(size), np.int64))
        self.step, self.bbox = step, bbox

    @property
    def n_samples(self):
        return len(self.xs)


def trace_table(traces):
    """The SampleTable of the traces' components; trace i is curve i."""
    return SampleTable.concat(traces, range(len(traces)))


def check_traces(curves, traces):
    """Raise InconsistentScene unless there is one trace per curve."""
    if len(traces) != len(curves):
        raise InconsistentScene(f"{len(traces)} traces for {len(curves)} curves")


def trace_curve(curve, viewport, step=None, samples=1024):
    """Sample the closed-form parameterization, clipped to the viewport.

    Components split wherever the curve leaves the viewport or the domain
    ends; only their samples are kept.  Raises EmptyTrace when nothing is
    visible, and ValueError unless samples is at least 1 and the step a
    positive finite number.
    """
    if not samples >= 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    lo, hi = curve.t_window(viewport)
    if step is None:
        step = (hi - lo) / samples
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be a positive finite number, got {step}")
    n = int(math.ceil((hi - lo) / step)) + 1
    if n > 4_000_000:
        raise ValueError("step too small for the parameter window")
    ts = lo + step * np.arange(n)
    ts = ts[ts <= hi]
    if len(ts) == 0 or ts[-1] < hi - 1e-15:
        ts = np.append(ts, hi)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        xs, ys = curve.point_at(ts)
        xs = np.asarray(xs, dtype=float) + np.zeros_like(ts)
        ys = np.asarray(ys, dtype=float) + np.zeros_like(ts)
    x0, x1, y0, y1 = viewport
    inside = (
        np.isfinite(xs) & np.isfinite(ys)
        & (xs >= x0) & (xs <= x1) & (ys >= y0) & (ys <= y1)
    )
    runs = _inside_runs(inside)
    if not runs:
        raise EmptyTrace(f"{curve.kind} curve misses viewport {viewport}")
    keep = np.concatenate([np.arange(s, e) for s, e in runs])
    return CurveTrace(xs[keep], ys[keep], ts[keep], [e - s for s, e in runs], step,
                      tuple(viewport))


def _inside_runs(inside):
    """(start, stop) of each run of set entries of the mask inside that holds
    at least 2 of them."""
    edges = np.flatnonzero(np.diff(np.concatenate([[False], inside, [False]])))
    return [(s, e) for s, e in zip(edges[::2].tolist(), edges[1::2].tolist()) if e - s >= 2]


# -- root refinement ------------------------------------------------------


def check_tol(tol):
    """Raise ValueError unless tol is a positive finite number."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be a positive finite number, got {tol}")


def finite_number(v):
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def exp_coeffs(coeffs):
    """The coefficients of an exp-poly term or node, as floats."""
    if not (isinstance(coeffs, (list, tuple, np.ndarray)) and all(map(finite_number, coeffs))):
        raise ValueError(f"exp-poly coeffs must be a list of finite numbers, got {coeffs!r}")
    return tuple(float(c) for c in coeffs)


def check_region(region, name):
    """Raise ValueError unless region is four finite numbers x0, x1, y0, y1
    with x0 < x1 and y0 < y1."""
    if not (isinstance(region, (list, tuple)) and len(region) == 4
            and all(map(finite_number, region))):
        raise ValueError(f"{name} must be four finite numbers, got {region}")
    x0, x1, y0, y1 = region
    if not (x0 < x1 and y0 < y1):
        raise ValueError(f"{name} {region} needs x0 < x1 and y0 < y1")


def refine_roots(f, a, b, fa, fb, xtol=1e-14):
    """Roots of f between a and b, lane by lane, where f(a) and f(b) differ
    in sign or one is zero.

    Newton steps on f' from each bracket's secant point, safeguarded by
    bisection (rtsafe; Press et al., Numerical Recipes, sec. 9.4): a step is
    taken if it lands inside the bracket, which shrinks at every step, and
    at least halves the step before it.  A lane returns as soon as a Newton
    step is within tolerance, before the bracket test, since a converged
    step can round an ulp outside.  The tolerance is xtol + 4 eps |x|.

    f(x, lanes) returns f and f' at x for the lanes still running (indices
    into a); a zero f' takes the bisection step.  The lanes run in lockstep,
    so one array call of f per round serves every bracket.
    """
    a, b, fa, fb = (np.array(v, dtype=float) for v in (a, b, fa, fb))
    roots = np.where(fa == 0.0, a, b)  # kept by the lanes with a zero end
    lanes = np.nonzero((fa != 0.0) & (fb != 0.0))[0]
    swap = fa > 0.0  # f(a) < 0 < f(b) from here on
    a, b = np.where(swap, b, a)[lanes], np.where(swap, a, b)[lanes]
    fa, fb = np.where(swap, fb, fa)[lanes], np.where(swap, fa, fb)[lanes]
    x = a - fa * (b - a) / (fb - fa)
    last = np.abs(b - a)
    while len(lanes):
        fx, slope = f(x, lanes)
        below = fx < 0.0
        a, b = np.where(below, x, a), np.where(below, b, x)
        tol = xtol + _RTOL * np.abs(x)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = np.where(slope != 0.0, fx / slope, np.inf)
        nxt, size, mid, width = x - step, np.abs(step), 0.5 * (a + b), np.abs(b - a)
        newton = (size <= 0.5 * last) & (np.minimum(a, b) < nxt) & (nxt < np.maximum(a, b))
        zero, converged = fx == 0.0, size <= tol
        done = zero | converged | (~newton & (width <= 2.0 * tol))
        roots[lanes[done]] = np.where(zero, x, np.where(converged, nxt, mid))[done]
        go = ~done
        last, x = np.where(newton, size, 0.5 * width)[go], np.where(newton, nxt, mid)[go]
        a, b, lanes = a[go], b[go], lanes[go]
    return roots


# -- curve tables -----------------------------------------------------------


def _shape(value):
    """The structure of a parameter tuple: its strings, and None for each
    number."""
    if isinstance(value, tuple):
        return tuple(map(_shape, value))
    return value if isinstance(value, str) else None


def _signature(curve):
    """What fixes a curve's sequence of evaluation operations: its kind, its
    parameters' structure (a composed curve's base kind, a coefficient
    count), whether it is transformed, and the ordered term keys of vx, vy
    and vx_rate."""
    f = curve.field
    return (curve.kind, _shape(curve.params), curve.transform is None,
            tuple(f.vx.terms), tuple(f.vy.terms), tuple(f.vx_rate.terms))


def _columns(values):
    """Parameter tuples of one structure as one tuple of that structure,
    each number replaced by the float column of its values."""
    if isinstance(values[0], tuple):
        return tuple(_columns(list(v)) for v in zip(*values))
    return values[0] if isinstance(values[0], str) else np.array(values, dtype=float)


def _take(columns, rows):
    """The entries rows of each column of _columns."""
    if isinstance(columns, tuple):
        return tuple(_take(c, rows) for c in columns)
    return columns if isinstance(columns, str) else columns[rows]


class _Group:
    """Curves of one `_signature`, row by row: their parameters, transforms
    and field coefficients as columns.  The kind's `KindSpec` functions and
    `poly.eval_terms` take the columns where a curve gives its scalars, so a
    row evaluates by the same operations as its curve."""

    def __init__(self, members):
        first = members[0]
        self.spec = KINDS[first.kind]
        self.params = _columns([c.params for c in members])
        self.transform = None if first.transform is None else np.array(
            [c.transform for c in members]).T.copy()
        self.terms = {}
        for name in ("vx", "vy", "vx_rate"):
            polys = [getattr(c.field, name).terms for c in members]
            coef = np.array([list(t.values()) for t in polys], dtype=float)
            self.terms[name] = (tuple(polys[0]), coef.reshape(len(members), -1).T.copy())

    def point_at(self, rows, t):
        x, y = self.spec.point(_take(self.params, rows), t)
        return (x, y) if self.transform is None else _transform(self.transform[:, rows], x, y)

    def poly(self, name, rows, x, y):
        """Field polynomial name ("vx", "vy" or "vx_rate") of rows at (x, y),
        arrays of one entry, or one row of entries, per row."""
        keys, coef = self.terms[name]
        coef = coef[:, rows].reshape(coef.shape[:1] + rows.shape + (1,) * (np.ndim(x) - 1))
        return eval_terms(keys, coef, x, y)

    def param_from_x(self, rows, x, hint, ends):
        """See `Lanes.param_from_x`; ends are the brackets of a transformed
        group."""
        if self.transform is None:
            return self.spec.x_inverse(_take(self.params, rows), x, hint)

        def along(u, lanes):
            px, py = self.point_at(rows[lanes], u)
            return px - x[lanes], self.poly("vx", rows[lanes], px, py)

        return refine_roots(along, *ends)


class CurveTable:
    """The curves of a pass, grouped by `_signature`: lane arrays of curve
    indices are evaluated by `lanes`, one array call per group present."""

    def __init__(self, curves):
        members = {}
        for c, curve in enumerate(curves):
            members.setdefault(_signature(curve), []).append(c)
        self.groups = [_Group([curves[c] for c in ids]) for ids in members.values()]
        self.group, self.row = np.zeros((2, len(curves)), dtype=np.int64)
        for g, ids in enumerate(members.values()):
            self.group[ids], self.row[ids] = g, np.arange(len(ids))

    def lanes(self, cid):
        """The `Lanes` on curves cid (an integer array)."""
        return Lanes(self, np.asarray(cid, dtype=np.int64))


class Lanes:
    """Lanes on curves of a `CurveTable`, split by group once: each method
    takes one value per lane, makes one array call per group, and returns
    float arrays in lane order.  A lane's values are the bits its curve's
    own `point_at`, `field_at`, `param_from_x` and field give."""

    def __init__(self, table, cid):
        g = table.group[cid]
        order = np.argsort(g, kind="stable")
        self.size = len(cid)
        self.parts = [(table.groups[g[s[0]]], table.row[cid[s]], s)
                      for s in np.split(order, np.flatnonzero(np.diff(g[order])) + 1) if len(s)]

    def point_at(self, t):
        x, y = np.empty(self.size), np.empty(self.size)
        for group, rows, s in self.parts:
            x[s], y[s] = group.point_at(rows, t[s])
        return x, y

    def field_at(self, x, y):
        return self.poly("vx", x, y), self.poly("vy", x, y)

    def poly(self, name, x, y):
        """Field polynomial name ("vx", "vy" or "vx_rate") at (x, y), one
        entry, or one row of entries, per lane."""
        out = np.empty(np.shape(x))
        for group, rows, s in self.parts:
            out[s] = group.poly(name, rows, x[s], y[s])
        return out

    def param_from_x(self, x, hint, bracket):
        """Parameters with abscissa x on the branches that hold parameters
        hint.  Transformed curves have no closed-form inverse: their lanes
        are refined in one run per group, from bracket(lanes), which gives
        the lanes' (a, b, x(a) - x, x(b) - x) about their roots."""
        t = np.empty(self.size)
        for group, rows, s in self.parts:
            ends = None if group.transform is None else bracket(s)
            t[s] = group.param_from_x(rows, x[s], hint[s], ends)
        return t


# -- catalog factories ----------------------------------------------------


def line(a, b, label=""):
    """The line y = a*x + b."""
    return PfaffianCurve("line", (float(a), float(b)), label=label)


def circle(cx, cy, r, label=""):
    """Circle of radius r about (cx, cy); the parameter endpoint is excluded."""
    if r <= 0:
        raise ValueError("radius must be positive")
    return PfaffianCurve("circle", (float(cx), float(cy), float(r)), label=label)


def parabola(a, b, c, label=""):
    """The graph y = a*x^2 + b*x + c."""
    if a == 0:
        raise ValueError("use line() for a degenerate parabola")
    return PfaffianCurve("parabola", (float(a), float(b), float(c)), label=label)


def exp_curve(a=1.0, b=1.0, label=""):
    """The graph y = a*exp(b*x)."""
    if a == 0 or b == 0:
        raise ValueError("degenerate exponential")
    return PfaffianCurve("exp", (float(a), float(b)), label=label)


def log_curve(s=1.0, c=0.0, label=""):
    """The graph y = s*ln(x) + c for x > 0."""
    return PfaffianCurve("log", (float(s), float(c)), label=label)


def tan_curve(branch=0, label=""):
    """One period of y = tan(x), centered at branch*pi."""
    if branch != int(branch):
        raise ValueError(f"tan param 'branch' must be an integer, got {branch!r}")
    return PfaffianCurve("tan", (int(branch),), label=label)


def arctan_curve(label=""):
    """The graph y = arctan(x)."""
    return PfaffianCurve("arctan", (), label=label)


def reciprocal_curve(a=1.0, branch=1, label=""):
    """One branch of y = a/x; branch > 0 means x > 0."""
    if a == 0:
        raise ValueError("degenerate hyperbola")
    if branch not in (1, -1):
        raise ValueError(f"reciprocal param 'branch' must be 1 or -1, got {branch!r}")
    return PfaffianCurve("reciprocal", (float(a), int(branch)), label=label)


def exp_of_poly(coeffs, scale=1.0, label=""):
    """The graph y = scale*exp(p(x)) for ascending coefficients of p."""
    coeffs = tuple(float(c) for c in coeffs)
    if scale == 0:
        raise ValueError("degenerate exponential")
    return PfaffianCurve("exp-of-poly", (coeffs, float(scale)), label=label)


def reciprocal_root(k, label=""):
    """The graph y = x^(-1/k) for x > 0, parameterized as (e^t, e^(-t/k))."""
    if k != int(k) or k < 1:
        raise ValueError(f"reciprocal-root param 'k' must be a positive integer, got {k!r}")
    return PfaffianCurve("reciprocal-root", (int(k),), label=label)


def composed(base_kind, base_params, coeffs, label=""):
    """The graph y = f(p(x)) for a composable catalog graph y = f(x)."""
    return compose_with_polynomial(KINDS[base_kind].factory(*base_params), coeffs, label)


# -- the kind table -------------------------------------------------------


def _x_window(p, x0, x1, y0, y1):
    return x0, x1


def _log_x_range(kind, x0, x1):
    if x1 <= _TINY_X:
        raise EmptyTrace(f"{kind} curve lies in x > 0")
    return math.log(max(x0, _TINY_X)), math.log(x1)


def _log_window(p, x0, x1, y0, y1):
    lo, hi = _log_x_range("log", x0, x1)
    s, c = p
    if s:
        ta, tb = (y0 - c) / s, (y1 - c) / s
        lo, hi = max(lo, min(ta, tb)), min(hi, max(ta, tb))
    return lo, hi


def _reciprocal_root_window(p, x0, x1, y0, y1):
    lo, hi = _log_x_range("reciprocal-root", x0, x1)
    (kk,) = p
    if y1 > 0:
        lo = max(lo, -kk * math.log(y1))
    if y0 > 0:
        hi = min(hi, -kk * math.log(y0))
    return lo, hi


def _reciprocal_window(p, x0, x1, y0, y1):
    if p[1] > 0:
        if x1 <= _TINY_X:
            raise EmptyTrace("positive branch lies in x > 0")
        return max(x0, _TINY_X), x1
    if x0 >= -_TINY_X:
        raise EmptyTrace("negative branch lies in x < 0")
    return x0, min(x1, -_TINY_X)


def _by_math(fn, x):
    """fn from `math` applied to each entry of x.  np.log, np.arccos and
    np.arctan differ from math.log, math.acos and math.atan in the last bit
    on some inputs, and `x_inverse` keeps the values the recorded outputs
    were made with."""
    return np.fromiter(map(fn, x.tolist()), dtype=float, count=len(x))


def _t_is_x(p, x, hint):
    return x


def _t_is_log_x(p, x, hint):
    return _by_math(math.log, x)


def _circle_t(p, x, hint):
    cx, _cy, r = p
    t0 = _by_math(math.acos, np.fmin(1.0, np.fmax(-1.0, (x - cx) / r)))  # NaN to -1
    return np.where(hint % TWO_PI <= math.pi, t0, TWO_PI - t0)


def _fld(vx_terms, vy_terms):
    return PolyVectorField(BivariatePolynomial(vx_terms), BivariatePolynomial(vy_terms))


def _composed_domain(p):
    """Widest open t-interval with p(t) inside the base domain; t beyond
    +-1e6 is unbounded."""
    base_kind, base_params, coeffs = p
    lo, hi = KINDS[base_kind].domain(base_params)
    cpoly = np.polynomial.polynomial.Polynomial(coeffs)
    shifted = [cpoly - bound for bound in (lo, hi) if math.isfinite(bound)]
    breaks = [r.real for q in shifted if q.degree() >= 1 for r in q.roots() if abs(r.imag) < 1e-9]
    cuts = sorted(set([-1e6, 1e6] + breaks))
    spans = [(a, b) for a, b in zip(cuts, cuts[1:])
             if b - a >= 1e-9 and lo < poly1_eval(coeffs, 0.5 * (a + b)) < hi]
    if not spans:
        raise NotComposable("composition image misses the base domain")
    a, b = max(spans, key=lambda span: span[1] - span[0])  # the first of the widest
    return (a if a > -1e6 else -math.inf), (b if b < 1e6 else math.inf)


@dataclass(frozen=True)
class KindSpec:
    """Everything that differs between curve kinds, for one kind.

    `params` names the entries of `PfaffianCurve.params`; the names are both
    the JSON keys of a saved curve and the argument names of `factory`, which
    checks and normalises them.  `field` and `domain` are the untransformed
    curve's.  The defaults describe a graph y = f(x) parameterized by t = x.
    """

    params: tuple
    factory: Callable
    point: Callable  # (params, t) -> (x, y), the closed-form map
    field: Callable  # params -> PolyVectorField, nonzero, the t-derivative of point
    domain: Callable = lambda p: (-math.inf, math.inf)  # params -> (lo, hi), ends may be +-inf
    x_inverse: Callable = _t_is_x  # (params, xs, hints) -> ts with x(t) = x, on arrays
    window: Callable = _x_window  # (params, x0, x1, y0, y1) -> parameter bounds
    period: float | None = None
    composable: bool = False  # a graph y = f(x) with f' in field.vy a polynomial in y only
    compose: Callable | None = None  # (params, coeffs, label) -> f(p(x)) as a catalog kind
    draw: Callable | None = None  # rng -> params of a random curve, for `random_scene`


KINDS = {
    "line": KindSpec(("a", "b"), line, lambda p, t: (t, p[0] * t + p[1]),
                     lambda p: _fld({(0, 0): 1.0}, {(0, 0): p[0]}),
                     draw=lambda rng: (rng.uniform(-2, 2), rng.uniform(-3, 3))),
    "circle": KindSpec(
        ("cx", "cy", "r"), circle,
        lambda p, t: (p[0] + p[2] * np.cos(t), p[1] + p[2] * np.sin(t)),
        lambda p: _fld({(0, 0): p[1], (0, 1): -1.0}, {(1, 0): 1.0, (0, 0): -p[0]}),
        domain=lambda p: (0.0, TWO_PI),
        x_inverse=_circle_t, window=lambda p, x0, x1, y0, y1: (0.0, TWO_PI),
        period=TWO_PI,
        draw=lambda rng: (rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0.5, 2.5))),
    "parabola": KindSpec(("a", "b", "c"), parabola,
                         lambda p, t: (t, (p[0] * t + p[1]) * t + p[2]),
                         lambda p: _fld({(0, 0): 1.0}, {(1, 0): 2.0 * p[0], (0, 0): p[1]}),
                         draw=lambda rng: (rng.choice([-1, 1]) * rng.uniform(0.2, 1.5),
                                           rng.uniform(-1.5, 1.5), rng.uniform(-3, 3))),
    "exp": KindSpec(
        ("a", "b"), exp_curve, lambda p, t: (t, p[0] * np.exp(p[1] * t)),
        lambda p: _fld({(0, 0): 1.0}, {(0, 1): p[1]}),
        compose=lambda p, coeffs, label: exp_of_poly(tuple(p[1] * c for c in coeffs),
                                                     scale=p[0], label=label),
        draw=lambda rng: (rng.choice([-1, 1]) * rng.uniform(0.3, 2.0),
                          rng.choice([-1, 1]) * rng.uniform(0.3, 1.5))),
    "log": KindSpec(("s", "c"), log_curve, lambda p, t: (np.exp(t), p[0] * t + p[1]),
                    lambda p: _fld({(1, 0): 1.0}, {(0, 0): p[0]}),
                    x_inverse=_t_is_log_x, window=_log_window,
                    draw=lambda rng: (rng.choice([-1, 1]) * rng.uniform(0.3, 2.0),
                                      rng.uniform(-2, 2))),
    "tan": KindSpec(("branch",), tan_curve, lambda p, t: (t, np.tan(t)),
                    lambda p: _fld({(0, 0): 1.0}, {(0, 0): 1.0, (0, 2): 1.0}),
                    domain=lambda p: (p[0] * math.pi - math.pi / 2, p[0] * math.pi + math.pi / 2),
                    composable=True, draw=lambda rng: (int(rng.integers(-1, 2)),)),
    "arctan": KindSpec(
        (), arctan_curve, lambda p, t: (np.tan(t), t),
        lambda p: _fld({(0, 0): 1.0, (2, 0): 1.0}, {(0, 0): 1.0}),
        domain=lambda p: (-math.pi / 2, math.pi / 2),
        x_inverse=lambda p, x, hint: _by_math(math.atan, x),
        window=lambda p, x0, x1, y0, y1: (math.atan(x0), math.atan(x1)), draw=lambda rng: ()),
    "reciprocal": KindSpec(
        ("a", "branch"), reciprocal_curve, lambda p, t: (t, p[0] / t),
        lambda p: _fld({(0, 0): 1.0}, {(0, 2): -1.0 / p[0]}),
        domain=lambda p: (0.0, math.inf) if p[1] > 0 else (-math.inf, 0.0),
        window=_reciprocal_window, composable=True,
        draw=lambda rng: (rng.choice([-1, 1]) * rng.uniform(0.3, 3.0),
                          int(rng.choice([-1, 1])))),
    "exp-of-poly": KindSpec(
        ("coeffs", "scale"), exp_of_poly, lambda p, t: (t, p[1] * np.exp(poly1_eval(p[0], t))),
        lambda p: _fld({(0, 0): 1.0}, {(k, 1): c for k, c in enumerate(poly1_der(p[0]))}),
        draw=lambda rng: (tuple(np.round((rng.uniform(-1, 1), rng.uniform(-1, 1),
                                          rng.choice([-1, 1]) * rng.uniform(0.2, 0.8)), 6)),)),
    "reciprocal-root": KindSpec(("k",), reciprocal_root,
                                lambda p, t: (np.exp(t), np.exp(-t / p[0])),
                                lambda p: _fld({(1, 0): 1.0}, {(0, 1): -1.0 / p[0]}),
                                x_inverse=_t_is_log_x, window=_reciprocal_root_window,
                                draw=lambda rng: (int(rng.integers(1, 4)),)),
    "composed": KindSpec(
        ("base_kind", "base_params", "coeffs"), composed,
        lambda p, t: (t, KINDS[p[0]].point(p[1], poly1_eval(p[2], t))[1]),
        lambda p: PolyVectorField(  # the chain rule: f' is the base vy, a polynomial in y
            BivariatePolynomial.const(1.0), KINDS[p[0]].field(p[1]).vy
            * BivariatePolynomial({(k, 0): c for k, c in enumerate(poly1_der(p[2]))})),
        domain=_composed_domain),
}


def compose_with_polynomial(curve, coeffs, label=""):
    """Replace the graph y = f(x) by y = f(p(x)).

    Requires an untransformed catalog graph whose derivative closes over its
    own values; the chain rule then keeps the vector field polynomial.
    """
    coeffs = tuple(float(c) for c in coeffs)
    if curve.transform is not None:
        raise NotComposable("transformed curves are not graphs y = f(x)")
    spec = KINDS[curve.kind]
    if spec.compose is not None:
        return spec.compose(curve.params, coeffs, label or curve.label)
    if not spec.composable:
        raise NotComposable(f"{curve.kind} has no polynomial derivative in its value")
    out = PfaffianCurve("composed", (curve.kind, curve.params, coeffs), label=label or curve.label)
    out.domain  # computed now, so that an empty domain raises here
    return out


# -- linear transforms ----------------------------------------------------


def _transform(matrix, x, y):
    """The image of (x, y) under the row-major matrix (a1, a2, a3, a4),
    whose entries may be columns over the entries of x and y."""
    a1, a2, a3, a4 = matrix
    return a1 * x + a2 * y, a3 * x + a4 * y


def _mat_mul(m, n):
    a1, a2, a3, a4 = m
    b1, b2, b3, b4 = n
    return (a1 * b1 + a2 * b3, a1 * b2 + a2 * b4,
            a3 * b1 + a4 * b3, a3 * b2 + a4 * b4)


def _mat_inv(m):
    a1, a2, a3, a4 = m
    det = a1 * a4 - a2 * a3
    return (a4 / det, -a2 / det, -a3 / det, a1 / det)


def transform_field(base_field, matrix):
    """Field of the image curve: V'(q) = A * V(A^-1 * q)."""
    i1, i2, i3, i4 = _mat_inv(matrix)
    vx = base_field.vx.substitute_linear(i1, i2, i3, i4)
    vy = base_field.vy.substitute_linear(i1, i2, i3, i4)
    a1, a2, a3, a4 = matrix
    return PolyVectorField(vx * a1 + vy * a2, vx * a3 + vy * a4)


def apply_linear_transform(curve, a1, a2, a3, a4):
    """Image of the curve under an invertible linear map."""
    det = a1 * a4 - a2 * a3
    if abs(det) <= 1e-12:
        raise SingularMatrix(f"determinant {det} is below tolerance")
    m = (float(a1), float(a2), float(a3), float(a4))
    return replace(curve, transform=m if curve.transform is None else _mat_mul(m, curve.transform))


def rotation_matrix(theta):
    c, s = math.cos(theta), math.sin(theta)
    return (c, -s, s, c)


def _preimage_bbox(matrix, viewport):
    i1, i2, i3, i4 = _mat_inv(matrix)
    x0, x1, y0, y1 = viewport
    xs, ys = [], []
    for cx, cy in ((x0, y0), (x0, y1), (x1, y0), (x1, y1)):
        xs.append(i1 * cx + i2 * cy)
        ys.append(i3 * cx + i4 * cy)
    return min(xs), max(xs), min(ys), max(ys)


# -- verification ---------------------------------------------------------


def max_tangent_error(curve, ts, h=1e-6):
    """Worst relative gap between numeric tangents and the vector field."""
    ts = np.asarray(ts, dtype=float)
    xp, yp = curve.point_at(ts + h)
    xm, ym = curve.point_at(ts - h)
    tx, ty = (xp - xm) / (2 * h), (yp - ym) / (2 * h)
    x, y = curve.point_at(ts)
    vx, vy = curve.field_at(x, y)
    vx = vx + np.zeros_like(ts)
    vy = vy + np.zeros_like(ts)
    norm = np.maximum(np.hypot(vx, vy), 1.0)
    err = np.hypot(tx - vx, ty - vy) / norm
    return float(np.max(err))


@dataclass
class SeparatingReport:
    directional_match: bool
    max_direction_error: float
    nonvanishing: bool
    min_field_norm: float
    side_consistent: bool
    notes: list = dc_field(default_factory=list)


def check_separating_conditions(curve, trace, tol=1e-5, h=1e-6, offset_frac=0.02):
    """Sampled report on the separating-solution conditions.

    The first two conditions are checked pointwise.  The side-consistency
    condition is global and topological; it is probed with offset samples
    and reported, never asserted.
    """
    notes = []
    all_x, all_y = trace.xs, trace.ys
    interior = np.delete(trace.ts, np.append(trace.start, trace.stop - 1))
    max_err = max_tangent_error(curve, interior, h) if len(interior) else 0.0
    vx, vy = curve.field_at(all_x, all_y)
    min_norm = float(np.min(np.hypot(vx + np.zeros_like(all_x), vy + np.zeros_like(all_x))))
    directional = max_err <= tol
    nonvanishing = min_norm > 1e-12

    x0, x1, y0, y1 = trace.bbox
    delta = offset_frac * min(x1 - x0, y1 - y0)
    sides = []
    clearance_ok = True
    for start, size in zip(trace.start.tolist(), trace.size.tolist()):
        idx = np.linspace(1, size - 2, num=min(32, max(size - 2, 1)), dtype=int)
        for i in np.unique(idx):
            px, py = all_x[start + i], all_y[start + i]
            vx, vy = curve.field_at(px, py)
            norm = math.hypot(vx, vy)
            if norm < 1e-12:
                continue
            ox, oy = px - delta * vy / norm, py + delta * vx / norm  # left offset
            d2 = (all_x - ox) ** 2 + (all_y - oy) ** 2
            j = int(np.argmin(d2))
            if math.sqrt(d2[j]) < delta / 2:
                clearance_ok = False
                continue
            qx, qy = all_x[j], all_y[j]
            wx, wy = curve.field_at(qx, qy)
            cross = wx * (oy - qy) - wy * (ox - qx)
            if abs(cross) > 1e-12:
                sides.append(1 if cross > 0 else -1)
    side_ok = clearance_ok and len(set(sides)) <= 1
    if not clearance_ok:
        notes.append("offset probes fell back onto the trace; side check inconclusive")
    notes.append("side consistency is a sampled heuristic, not a certificate")
    return SeparatingReport(directional, max_err, nonvanishing, min_norm, side_ok, notes)
