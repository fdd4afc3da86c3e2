"""Deterministic scene generators: extremal grids, their log-curve images,
unit-circle families, random catalog scenes, and term-family scenes."""

from __future__ import annotations

import math

import numpy as np

from . import curves as cv
from . import duality as du
from .errors import EmptyTrace, PfaffincError
from .scene import Scene

DEFAULT_VIEWPORT = (-4.0, 4.0, -4.0, 4.0)


def grid_lines(a, b):
    """Integer grid [0,a) x [0,2ab) against the lines y = s*x + t.

    Every line with slope s in [0,b) and offset t in [0,ab) meets the grid
    in exactly a points, so the scene carries a*a*b*b incidences.
    """
    if a < 1 or b < 1:
        raise ValueError("grid dimensions must be positive")
    points = np.array([(x, y) for x in range(a) for y in range(2 * a * b)], dtype=float)
    lines = [cv.line(s, t, label=f"line-{s}-{t}")
             for s in range(b) for t in range(a * b)]
    viewport = (-0.5, a - 0.5, -0.5, 2 * a * b - 0.5)
    return Scene(points, lines, viewport, seed=0,
                 meta={"family": "grid", "a": a, "b": b})


def exp_transform(scene):
    """Image of a point-line scene under (x, y) -> (e^x, y).

    The map is a bijection on the strip, so the incidence count is carried
    over exactly; each line y = s*x + t becomes the curve y = s*ln(X) + t.
    """
    new_curves = []
    for c in scene.curves:
        if c.kind != "line":
            raise PfaffincError("the exponential transform is defined for line scenes")
        s, t = c.params
        new_curves.append(cv.log_curve(s, t, label=c.label))
    pts = np.array(scene.points, dtype=float)
    if len(pts):
        pts = np.column_stack([np.exp(pts[:, 0]), pts[:, 1]])
    x0, x1, y0, y1 = scene.viewport
    viewport = (math.exp(x0), math.exp(x1), y0, y1)
    meta = dict(scene.meta)
    meta["transformed"] = "exp-x"
    return Scene(pts, new_curves, viewport, scene.seed, meta)


def circle_pair_intersections(c1, c2):
    """Intersection points of two circles, including the tangent case."""
    x1, y1, r1 = c1.params
    x2, y2, r2 = c2.params
    dx, dy = x2 - x1, y2 - y1
    d = math.hypot(dx, dy)
    if d < 1e-12 or d > r1 + r2 + 1e-12 or d < abs(r1 - r2) - 1e-12:
        return []
    a = (r1 * r1 - r2 * r2 + d * d) / (2 * d)
    h2 = r1 * r1 - a * a
    mx, my = x1 + a * dx / d, y1 + a * dy / d
    if h2 <= 1e-12:
        return [(mx, my)]
    h = math.sqrt(h2)
    ox, oy = -dy * h / d, dx * h / d
    return [(mx + ox, my + oy), (mx - ox, my - oy)]


def unit_circles(m, n, seed=0, planted=0.6, viewport=DEFAULT_VIEWPORT):
    """n unit circles with random centers; a fraction of the m points is
    planted on pairwise intersections, so no two points share three circles."""
    if m < 0 or n < 0:
        raise ValueError("sizes must be nonnegative")
    rng = np.random.default_rng(seed)
    circles = []
    seen = set()
    while len(circles) < n:
        cx, cy = rng.uniform(-2.5, 2.5, size=2)
        key = (round(cx, 9), round(cy, 9))
        if key in seen:
            continue
        seen.add(key)
        circles.append(cv.circle(cx, cy, 1.0, label=f"circle{len(circles)}"))
    inters = []
    for i in range(n):
        for j in range(i + 1, n):
            inters.extend(circle_pair_intersections(circles[i], circles[j]))
    x0, x1, y0, y1 = viewport
    inters = [(x, y) for x, y in inters if x0 < x < x1 and y0 < y < y1]
    k = min(int(round(planted * m)), m)
    pts = []
    if inters and k:
        perm = rng.permutation(len(inters))
        pts.extend(inters[i] for i in perm[: min(k, len(inters))])
    while len(pts) < m:
        pts.append(tuple(rng.uniform((x0, y0), (x1, y1))))
    points = np.array(pts, dtype=float).reshape(-1, 2)
    return Scene(points, circles, viewport, seed,
                 meta={"family": "unit-circles", "planted": planted})


def random_scene(kinds, m, n, planted, seed=0, viewport=DEFAULT_VIEWPORT):
    """n distinct random catalog curves and m points, a planted fraction of
    which sits exactly on curve parameterizations."""
    if m < 0 or n < 0:
        raise ValueError("sizes must be nonnegative")
    if not 0.0 <= planted <= 1.0:
        raise ValueError("planted fraction must lie in [0, 1]")
    kinds = list(kinds)
    undrawn = [k for k in kinds if k not in cv.KINDS or cv.KINDS[k].draw is None]
    if undrawn:
        raise ValueError(f"no random draw for curve kinds {undrawn}")
    rng = np.random.default_rng(seed)
    curves = []
    seen = set()
    guard = 0
    while len(curves) < n:
        guard += 1
        if guard > 100 * n + 100:
            raise PfaffincError("could not draw enough distinct visible curves")
        kind = kinds[int(rng.integers(0, len(kinds)))]
        params = cv.KINDS[kind].draw(rng)
        key = (kind, tuple(np.round(np.atleast_1d(np.hstack(params) if params else []), 9).tolist()))
        if key in seen:
            continue
        try:
            curve = cv.KINDS[kind].factory(*params, label=f"{kind}{len(curves)}")
            cv.trace_curve(curve, viewport, samples=64)
        except (EmptyTrace, ValueError):
            continue
        seen.add(key)
        curves.append(curve)

    x0, x1, y0, y1 = viewport
    pts = []
    k = int(round(planted * m))
    while len(pts) < k:
        curve = curves[int(rng.integers(0, n))]
        try:
            lo, hi = curve.t_window(viewport)
        except EmptyTrace:
            continue
        for _ in range(200):
            t = rng.uniform(lo, hi)
            px, py = curve.point_at(float(t))
            if x0 < px < x1 and y0 < py < y1:
                pts.append((float(px), float(py)))
                break
        else:
            pts.append(tuple(rng.uniform((x0, y0), (x1, y1))))
    while len(pts) < m:
        pts.append(tuple(rng.uniform((x0, y0), (x1, y1))))
    points = np.array(pts, dtype=float).reshape(-1, 2)
    return Scene(points, curves, viewport, seed,
                 meta={"family": "random", "kinds": kinds, "planted": planted})


# -- term-family scenes -------------------------------------------------------


_FAMILY_TERMS = {  # (d, variant) -> the terms of the family
    (3, 0): (du.monomial(0, 0), du.monomial(1, 0), du.monomial(0, 1)),
    (3, 1): (du.monomial(0, 0), du.monomial(1, 0), du.exp_term((0.0, 1.0))),
    (4, 0): (du.monomial(0, 0), du.monomial(1, 0), du.monomial(0, 1), du.monomial(1, 1)),
    (4, 1): (du.monomial(0, 0), du.monomial(1, 0), du.monomial(0, 1), du.monomial(2, 0)),
}


def _family_for(d, variant, region=(-2.0, 2.0, -2.0, 2.0)):
    if (d, variant) not in _FAMILY_TERMS:
        raise ValueError(f"no family variant {variant} in dimension {d}")
    return du.PfaffianFamily(list(_FAMILY_TERMS[d, variant]), region)


def duality_scene(d, m, n, seed=0, variant=0, max_rolls=50):
    """Points and term-family curves with planted memberships.

    Scenes are rerolled until planted pairs and non-pairs are separated by
    a wide residual gap, which keeps the three dual counts unambiguous.
    Each roll draws its brackets in order, then bisects them in one run.
    """
    for roll in range(max_rolls):
        rng = np.random.default_rng(seed + 1009 * roll)
        family = _family_for(d, variant)
        coarse, fine = du.term_grid(family, 64), du.term_grid(family, 256)
        curves = []
        while len(curves) < n:
            coeffs = rng.normal(size=d)
            try:
                c = du.FamilyCurve(coeffs, label=f"curve{len(curves)}")
            except ValueError:
                continue
            if any(np.linalg.norm(c.coeffs - o.coeffs) < 1e-9 for o in curves):
                continue
            if du.draw_bracket(coarse, c, rng) is None:
                continue
            curves.append(c)
        x0, x1, y0, y1 = family.region
        picks = []
        planted = int(round(0.8 * m))
        tries = 0
        while len(picks) < planted and tries < 20 * planted:
            tries += 1
            c = curves[len(picks) % n]
            bracket = du.draw_bracket(fine, c, rng)
            if bracket is not None and du.zero_inside(family, c, bracket):
                picks.append((c, bracket))
        pts = du.bisect_brackets(family, picks)
        while len(pts) < m:
            pts.append(tuple(rng.uniform((x0 + 0.05, y0 + 0.05), (x1 - 0.05, y1 - 0.05))))
        points = np.array(pts, dtype=float).reshape(-1, 2)

        # residual gap check: planted pairs vs everything else
        res = du.residuals(points, family, curves)
        if not np.any((res > 1e-11) & (res < 1e-5)):
            return points, family, curves
    raise PfaffincError("no unambiguous scene found within the reroll budget")
