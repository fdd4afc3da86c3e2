"""Coefficient-space duality for curves drawn from a fixed term family.

A family is a list of term functions m_1..m_d on an open rectangle; a curve
is a unit coefficient vector a with zero set a.m(x,y) = 0.  The curve maps
to the point a in R^d, a plane point p maps to the hyperplane through the
origin with normal (m_1(p)..m_d(p)), and incidence survives both the map
and the central projection onto the slice z_1 = 1.

Each term kind is one `TermKind` record in `TERM_KINDS`: its JSON keys,
the factory that checks them, and its evaluation.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .curves import check_region, check_tol, exp_coeffs, finite_number, refine_roots
from .errors import ChainMismatch, DegenerateDual, DuplicateCurve, RotationFailed
from .incidence import IncidenceGraph
from .poly import poly1_eval


@dataclass(frozen=True)
class Term:
    kind: str  # a key of TERM_KINDS
    params: tuple

    def eval(self, x, y):
        return TERM_KINDS[self.kind].value(self.params, x, y)

    def to_dict(self):
        return {"kind": self.kind, **dict(zip(TERM_KINDS[self.kind].params, self.params))}


def monomial(i, j):
    if not all(finite_number(v) and v == int(v) and v >= 0 for v in (i, j)):
        raise ValueError(f"monomial i and j must be nonnegative integers, got {i!r}, {j!r}")
    return Term("monomial", (int(i), int(j)))


def exp_term(coeffs):
    return Term("exp-poly", (exp_coeffs(coeffs),))


def log_term():
    return Term("log-x", ())


@dataclass(frozen=True)
class TermKind:
    """One term kind: `params` names the entries of `Term.params`, which are
    the JSON keys of a saved term and the arguments of `factory`."""

    params: tuple
    factory: Callable
    value: Callable  # (params, x, y) -> term values, on arrays
    positive_x: bool = False  # defined only for x > 0


TERM_KINDS = {
    "monomial": TermKind(("i", "j"), monomial,
                         lambda p, x, y: np.power(x, p[0]) * np.power(y, p[1])),
    "exp-poly": TermKind(("coeffs",), exp_term, lambda p, x, y: np.exp(poly1_eval(p[0], x))),
    "log-x": TermKind((), log_term, lambda p, x, y: np.log(x), positive_x=True),
}


def term_from_dict(d):
    spec = TERM_KINDS.get(d.get("kind")) if isinstance(d, dict) else None
    if spec is None:
        raise ValueError(f"a term is an object with a known kind, got {d!r}")
    params = {k: v for k, v in d.items() if k != "kind"}
    if set(params) != set(spec.params):
        raise ValueError(f"{d['kind']} term takes params {list(spec.params)}, got {sorted(params)}")
    return spec.factory(**params)


@dataclass
class PfaffianFamily:
    terms: list
    region: tuple  # (x0, x1, y0, y1)

    def __post_init__(self):
        if len(self.terms) < 2:
            raise ValueError("a family needs dimension d >= 2")
        check_region(self.region, "family region")
        if any(TERM_KINDS[t.kind].positive_x for t in self.terms) and self.region[0] <= 0:
            raise ValueError("log terms need a region with x > 0")

    @property
    def d(self):
        return len(self.terms)

    def eval_terms(self, x, y):
        """Stacked term values; shape (d,) for scalars, (d, ...) for arrays."""
        x = np.asarray(x, dtype=float)
        vals = [t.eval(x, y) + np.zeros_like(x) for t in self.terms]
        return np.stack(vals)

    def to_dict(self):
        return {"terms": [t.to_dict() for t in self.terms], "region": list(self.region)}

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data["terms"], list):
            raise ValueError(f"family terms must be a list, got {data['terms']!r}")
        return cls([term_from_dict(t) for t in data["terms"]], tuple(data["region"]))


def normalize_coeffs(coeffs):
    """Unit Euclidean norm with the first nonzero coordinate positive."""
    a = np.asarray(coeffs, dtype=float)
    norm = float(np.linalg.norm(a))
    if norm == 0.0:
        raise ValueError("coefficient vector must be nonzero")
    a = a / norm
    for v in a:
        if abs(v) > 1e-14:
            if v < 0:
                a = -a
            break
    return a


@dataclass
class FamilyCurve:
    coeffs: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.coeffs = normalize_coeffs(self.coeffs)


def family_curve_set(coeff_list, d, tol=1e-12):
    """Build curves of a family with d terms, rejecting coefficient vectors
    that are not flat lists of d finite numbers and proportional ones."""
    out = []
    for k, coeffs in enumerate(coeff_list):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim != 1:
            raise ValueError(f"curve{k} is not a flat list of {d} coefficients")
        if len(coeffs) != d:
            raise ValueError(f"curve{k} has {len(coeffs)} coefficients, the family has {d} terms")
        if not np.isfinite(coeffs).all():
            raise ValueError(f"curve{k} coefficients must be finite, got {coeffs.tolist()}")
        c = FamilyCurve(coeffs, label=f"curve{k}")
        for prev in out:
            if np.linalg.norm(prev.coeffs - c.coeffs) <= tol:
                raise DuplicateCurve(
                    f"coefficients of {c.label} are proportional to {prev.label}")
        out.append(c)
    return out


@dataclass
class OriginHyperplane:
    normal: np.ndarray


def dual_point(curve):
    """The coefficient vector as a point; never the origin."""
    return np.array(curve.coeffs, dtype=float)


def dual_hyperplane(family, p):
    """Origin hyperplane with normal (m_1(p)..m_d(p))."""
    x, y = float(p[0]), float(p[1])
    x0, x1, y0, y1 = family.region
    if not (x0 < x < x1 and y0 < y < y1):
        raise ValueError(f"point {p} outside family region {family.region}")
    normal = family.eval_terms(x, y)
    if float(np.linalg.norm(normal)) < 1e-300:
        raise DegenerateDual(f"all terms vanish at {p}")
    return OriginHyperplane(normal)


# -- rotation and projection ---------------------------------------------------


def random_orthogonal(d, rng):
    g = rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))


def generic_rotation(points, normals, seed=0, threshold=1e-9, max_draws=100):
    """Seeded orthogonal rotation making all first coordinates nonzero.

    Preserves every inner product, hence every incidence, exactly up to
    floating-point roundoff.
    """
    points = np.asarray(points, dtype=float)
    normals = np.asarray(normals, dtype=float)
    d = points.shape[1]
    rng = np.random.default_rng(seed)
    for _ in range(max_draws):
        q = random_orthogonal(d, rng)
        rp = points @ q.T
        rn = normals @ q.T
        p_ok = np.all(np.abs(rp[:, 0]) > threshold * np.linalg.norm(rp, axis=1))
        n_ok = np.all(np.abs(rn[:, 0]) > threshold * np.linalg.norm(rn, axis=1))
        if p_ok and n_ok:
            return rp, rn, q
    raise RotationFailed(f"no generic rotation in {max_draws} draws")


def project_to_pi(points, normals):
    """Central projection onto the slice where the first coordinate is 1.

    Points (a_1..a_d) map to (a_2/a_1..a_d/a_1); an origin hyperplane with
    normal n becomes the affine hyperplane n_2 w_1 + .. + n_d w_(d-1) = -n_1.
    """
    points = np.asarray(points, dtype=float)
    normals = np.asarray(normals, dtype=float)
    proj_points = points[:, 1:] / points[:, :1]
    plane_normals = normals[:, 1:]
    plane_offsets = -normals[:, 0]
    return proj_points, (plane_normals, plane_offsets)


def _relative_residuals(points, normals, offsets=None):
    points = np.asarray(points, dtype=float)
    normals = np.asarray(normals, dtype=float)
    if offsets is None:
        raw = normals @ points.T
        scale = (np.linalg.norm(normals, axis=1)[:, None]
                 * np.linalg.norm(points, axis=1)[None, :])
    else:
        raw = normals @ points.T - np.asarray(offsets, dtype=float)[:, None]
        hom_n = np.sqrt(np.linalg.norm(normals, axis=1) ** 2 + np.asarray(offsets) ** 2)
        hom_p = np.sqrt(np.linalg.norm(points, axis=1) ** 2 + 1.0)
        scale = hom_n[:, None] * hom_p[None, :]
    return np.abs(raw) / np.maximum(scale, 1e-300)


def count_hyperplane_incidences(points, hyperplanes, tol=1e-7):
    """Brute-force point-on-hyperplane count with the incidence graph.

    hyperplanes is either an (m, k) array of origin normals or a tuple
    (normals, offsets) of affine hyperplanes normal.w = offset.
    """
    if isinstance(hyperplanes, tuple):
        normals, offsets = hyperplanes
    else:
        normals, offsets = hyperplanes, None
    res = _relative_residuals(points, normals, offsets)
    pairs = np.nonzero(res.T <= tol)  # (point index, hyperplane index)
    edges = {(int(a), int(b)) for a, b in zip(*pairs)}
    graph = IncidenceGraph(edges, len(np.asarray(points)), len(np.asarray(normals)))
    return len(edges), graph


# -- primal side ---------------------------------------------------------------


def term_grid(family, resolution=256):
    """Term values on a regular grid over the family region."""
    x0, x1, y0, y1 = family.region
    xs = np.linspace(x0, x1, resolution + 1)
    ys = np.linspace(y0, y1, resolution + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    grids = family.eval_terms(X, Y)
    return xs, ys, grids


def trace_family_curve(family, curve, resolution=1024):
    """Implicit zero-set polyline segments by marching squares."""
    xs, ys, grids = term_grid(family, resolution)
    F = np.tensordot(curve.coeffs, grids, axes=1)
    sgn = np.where(F >= 0, 1, -1)
    mixed = np.abs(sgn[:-1, :-1] + sgn[1:, :-1] + sgn[:-1, 1:] + sgn[1:, 1:]) < 4
    segs = []
    for i, j in zip(*np.nonzero(mixed)):
        pts = []  # sign changes on the cell's bottom, top, left and right edges
        for (ia, ja), (ib, jb) in (((i, j), (i + 1, j)), ((i, j + 1), (i + 1, j + 1)),
                                   ((i, j), (i, j + 1)), ((i + 1, j), (i + 1, j + 1))):
            fa, fb = F[ia, ja], F[ib, jb]
            if (fa >= 0) != (fb >= 0):
                t = fa / (fa - fb)
                pts.append((xs[ia] + t * (xs[ib] - xs[ia]), ys[ja]) if ja == jb
                           else (xs[ia], ys[ja] + t * (ys[jb] - ys[ja])))
        # two changes make a segment; four make two, pairing bottom with left
        segs.extend(zip(pts[:len(pts) // 2], pts[len(pts) // 2:]))
    return np.array(segs, dtype=float).reshape(-1, 2, 2)


def primal_residual(family, curve, p):
    """|a.m(p)| normalized by the coefficient and term magnitudes."""
    return float(residuals(np.array([p], dtype=float), family, [curve])[0, 0])


def residuals(points, family, curves):
    """primal_residual of every curve (rows) at every point (columns) of the
    (m, 2) array points."""
    vals = family.eval_terms(points[:, 0], points[:, 1])  # (d, m)
    denom = np.maximum(np.linalg.norm(vals, axis=0), 1e-300)
    coeffs = np.stack([c.coeffs for c in curves])  # (n, d)
    return np.abs(coeffs @ vals) / denom[None, :]


def count_family_incidences(points, family, curves, tol=1e-7):
    """Primal count: normalized residual test against every curve."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(pts) == 0 or len(curves) == 0:
        return 0, IncidenceGraph(set(), len(pts), len(curves))
    pairs = np.nonzero(residuals(pts, family, curves).T <= tol)
    edges = {(int(a), int(b)) for a, b in zip(*pairs)}
    return len(edges), IncidenceGraph(edges, len(pts), len(curves))


def draw_bracket(grid, curve, rng):
    """A sign change of a.m on the term grid (xs, ys, grids) of `term_grid`,
    drawn with one rng.integers call: (u_a, u_b, v, swap) brackets a zero at
    (u, v) on a grid row, or at (v, u) on a grid column where swap is true.
    None, with no draw, when a.m has one sign on the grid."""
    xs, ys, grids = grid
    pos = np.tensordot(curve.coeffs, grids, axes=1) >= 0
    hor, ver = np.argwhere(pos[:-1, :] != pos[1:, :]), np.argwhere(pos[:, :-1] != pos[:, 1:])
    if len(hor) + len(ver) == 0:
        return None
    pick = int(rng.integers(0, len(hor) + len(ver)))
    if pick < len(hor):
        i, j = hor[pick]
        return float(xs[i]), float(xs[i + 1]), float(ys[j]), False
    i, j = ver[pick - len(hor)]
    return float(ys[j]), float(ys[j + 1]), float(xs[i]), True


def _values(family, coeffs, u, v, swap):
    """a.m at (u, v), or at (v, u) where swap, with each lane's a in coeffs:
    a dot product on a contiguous row of term values per lane, which sums
    the terms as a one-point evaluation does."""
    rows = np.ascontiguousarray(family.eval_terms(np.where(swap, v, u), np.where(swap, u, v)).T)
    return np.array([float(np.dot(a, row)) for a, row in zip(coeffs, rows)])


def bisect_brackets(family, picks):
    """The zero of a.m on the bracket, as a point (x, y), of each (curve,
    bracket from `draw_bracket`) of picks: one lockstep bisection run."""
    coeffs = np.array([c.coeffs for c, _ in picks]).reshape(-1, family.d)
    a, b, v, swap = np.array([br for _, br in picks], dtype=float).reshape(-1, 4).T
    swap = swap == 1.0
    u = refine_roots(lambda u, k: (_values(family, coeffs[k], u, v[k], swap[k]), 0.0), a, b,
                     _values(family, coeffs, a, v, swap), _values(family, coeffs, b, v, swap),
                     xtol=1e-15)
    return [(q, p) if s else (p, q) for p, q, s in zip(u.tolist(), v.tolist(), swap.tolist())]


def zero_inside(family, curve, bracket):
    """Whether `bisect_brackets` finds the zero on bracket inside the open
    region.  Where a.m has opposite signs at the bracket ends, it ends
    strictly between them, so the bracket's midpoint decides; otherwise (a
    zero end, or the grid and the row sums rounding apart) it runs here."""
    a, b, v, swap = bracket
    fa, fb = _values(family, [curve.coeffs] * 2, np.array([a, b]), v, swap)
    u = 0.5 * (a + b)
    x, y = ((v, u) if swap else (u, v)) if fa * fb < 0.0 else \
        bisect_brackets(family, [(curve, bracket)])[0]
    x0, x1, y0, y1 = family.region
    return x0 < x < x1 and y0 < y < y1


def point_on_family_curve(family, curve, rng, resolution=256):
    """A point of the zero set: a sign change on the term grid, drawn with
    rng and bisected."""
    bracket = draw_bracket(term_grid(family, resolution), curve, rng)
    return None if bracket is None else bisect_brackets(family, [(curve, bracket)])[0]


# -- the full chain -------------------------------------------------------------


@dataclass
class DualityReport:
    primal_count: int
    dual_count: int
    projected_count: int
    transpose_ok: bool
    rotation: np.ndarray
    primal_graph: IncidenceGraph
    dual_graph: IncidenceGraph
    projected_graph: IncidenceGraph
    kst_ceiling: int | None = None
    kst_ceiling_free: bool | None = None

    @property
    def counts(self):
        return (self.primal_count, self.dual_count, self.projected_count)


def verify_duality_chain(points, family, curves, tol=1e-7, seed=0,
                         kst_ceiling=None):
    """Count incidences in the plane, in coefficient space, and on the slice.

    All three counts use the same normalized-residual tolerance; they must
    agree pairwise, and the dual graph must be the primal graph transposed.
    There is no closed-form ceiling t for which the dual graph avoids
    K_{2,t}; pass kst_ceiling to check a candidate value empirically.
    """
    check_tol(tol)
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    primal_count, primal_graph = count_family_incidences(pts, family, curves, tol)

    dual_pts = np.stack([dual_point(c) for c in curves])
    normals = np.stack([dual_hyperplane(family, p).normal for p in pts]) \
        if len(pts) else np.zeros((0, family.d))
    dual_count, dual_graph = count_hyperplane_incidences(dual_pts, normals, tol)

    rp, rn, q = generic_rotation(dual_pts, normals, seed=seed)
    proj_pts, proj_planes = project_to_pi(rp, rn)
    projected_count, projected_graph = count_hyperplane_incidences(
        proj_pts, proj_planes, tol)

    counts = {"primal": primal_count, "dual": dual_count, "projected": projected_count}
    names = list(counts)
    for a, b in zip(names, names[1:]):
        if counts[a] != counts[b]:
            raise ChainMismatch(f"{a} count {counts[a]} != {b} count {counts[b]}")
    transpose_ok = (dual_graph.edges == primal_graph.transpose().edges
                    and projected_graph.edges == dual_graph.edges)
    ceiling_free = None
    if kst_ceiling is not None:
        from .incidence import kst_free

        ceiling_free = kst_free(dual_graph, 2, kst_ceiling)
    return DualityReport(primal_count, dual_count, projected_count, transpose_ok,
                         q, primal_graph, dual_graph, projected_graph,
                         kst_ceiling, ceiling_free)
