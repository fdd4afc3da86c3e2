"""Scene container: a point set, a curve set, and a shared viewport.

Scenes serialize to JSON with all reals as IEEE-754 doubles in decimal; a
fixed input always produces byte-identical output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import curves as cv
from .errors import EmptyTrace, PfaffincError, SingularMatrix

FORMAT_VERSION = 1


@dataclass
class Scene:
    points: np.ndarray  # (m, 2)
    curves: list
    viewport: tuple  # (x0, x1, y0, y1)
    seed: int = 0
    meta: dict = field(default_factory=dict)

    @property
    def m(self):
        return len(self.points)

    @property
    def n(self):
        return len(self.curves)

    def traces(self):
        """Traces for all curves, made anew on each call."""
        return [self.trace(i) for i in range(self.n)]

    def trace(self, i):
        """Trace of curve i, not cached; an EmptyTrace names the curve."""
        curve = self.curves[i]
        try:
            return cv.trace_curve(curve, self.viewport)
        except EmptyTrace as err:
            label = f" {curve.label!r}" if curve.label else ""
            raise EmptyTrace(f"curve {i}{label}: {err}") from None


def _num(v):
    return None if v is None or math.isinf(v) else float(v)


def _curve_to_dict(curve):
    names = cv.KINDS[curve.kind].params
    out = {"kind": curve.kind, "params": dict(zip(names, curve.params)),
           "domain": [_num(curve.domain[0]), _num(curve.domain[1])]}
    if curve.transform is not None:
        out["transform"] = list(curve.transform)
    if curve.label:
        out["label"] = curve.label
    return out


def _curve_from_dict(data):
    k = data["kind"]
    spec = cv.KINDS.get(k)
    if spec is None:
        raise ValueError(f"unknown curve kind {k!r}")
    params = data.get("params", {})
    if set(params) != set(spec.params):
        raise ValueError(f"{k} curve takes params {list(spec.params)}, got {sorted(params)}")
    for name, value in params.items():
        values = value if isinstance(value, (list, tuple)) else [value]
        if name != "base_kind" and not all(map(cv.finite_number, values)):
            raise ValueError(f"{k} param {name!r} must hold finite numbers, got {value!r}")
    c = spec.factory(**params, label=data.get("label", ""))
    if "transform" in data:
        m = data["transform"]
        if not (isinstance(m, (list, tuple)) and len(m) == 4 and all(map(cv.finite_number, m))):
            raise ValueError(f"{k} transform must be 4 finite numbers, got {m!r}")
        try:
            c = cv.apply_linear_transform(c, *m)
        except SingularMatrix as err:
            raise ValueError(f"{k} transform {m!r} is singular: {err}") from None
    return c


def scene_to_dict(scene):
    return {
        "format_version": FORMAT_VERSION,
        "seed": scene.seed,
        "viewport": list(scene.viewport),
        "points": [[float(x), float(y)] for x, y in scene.points],
        "curves": [_curve_to_dict(c) for c in scene.curves],
        "meta": scene.meta,
    }


def scene_from_dict(data):
    """Scene from its JSON form; ValueError on points or a viewport that no
    count can use (points must lie in the closed viewport), on curve params
    that the kind does not take or that are not finite numbers, on a singular
    transform or one not of 4 finite numbers, and on a curve listed twice."""
    pts = np.array(data.get("points", []), dtype=float).reshape(-1, 2)
    if not np.all(np.isfinite(pts)):
        raise ValueError("scene points must be finite")
    viewport = tuple(data["viewport"])
    cv.check_region(viewport, "viewport")
    x0, x1, y0, y1 = viewport
    outside = ~((pts[:, 0] >= x0) & (pts[:, 0] <= x1) & (pts[:, 1] >= y0) & (pts[:, 1] <= y1))
    if outside.any():
        i = int(np.argmax(outside))
        raise ValueError(f"point {i} {pts[i].tolist()} lies outside viewport {viewport}")
    curves = [_curve_from_dict(c) for c in data.get("curves", [])]
    first = {}
    for i, c in enumerate(curves):
        j = first.setdefault((c.kind, c.params, c.transform), i)
        if j != i:
            raise ValueError(f"curves {j} and {i} are the same curve")
    return Scene(
        points=pts,
        curves=curves,
        viewport=viewport,
        seed=data.get("seed", 0),
        meta=data.get("meta", {}),
    )


def scene_to_json(scene):
    return json.dumps(scene_to_dict(scene), sort_keys=True, indent=2) + "\n"


def save_scene(scene, path):
    with open(path, "w") as fh:
        fh.write(scene_to_json(scene))


def load_scene(path):
    with open(path) as fh:
        return scene_from_dict(json.load(fh))


# -- rotation ---------------------------------------------------------------


def rotate_scene(scene, theta):
    """Rigidly rotate points and curves; the viewport becomes the rotated bbox."""
    m = cv.rotation_matrix(theta)
    r = np.array([[m[0], m[1]], [m[2], m[3]]])
    pts = scene.points @ r.T if len(scene.points) else scene.points
    new_curves = [cv.apply_linear_transform(c, *m) for c in scene.curves]
    x0, x1, y0, y1 = scene.viewport
    corners = np.array([[x0, y0], [x0, y1], [x1, y0], [x1, y1]]) @ r.T
    vp = (corners[:, 0].min(), corners[:, 0].max(),
          corners[:, 1].min(), corners[:, 1].max())
    meta = dict(scene.meta)
    meta["rotation"] = meta.get("rotation", 0.0) + theta
    return Scene(pts, new_curves, vp, scene.seed, meta)


def _has_vertical_trace(scene, samples=128):
    for c in scene.curves:
        try:
            tr = cv.trace_curve(c, scene.viewport, samples=samples)
        except PfaffincError:
            continue
        if (np.maximum.reduceat(tr.xs, tr.start) - np.minimum.reduceat(tr.xs, tr.start)
                < 1e-9).any():
            return True
    return False


def prerotate_scene(scene, seed=None, max_tries=100):
    """Rotate the scene so no curve traces as a vertical segment.

    The identity angle is tried first; rejected angles advance a seeded
    uniform draw.  Deterministic for a fixed (scene, seed).
    """
    rng = np.random.default_rng(scene.seed if seed is None else seed)
    for attempt in range(max_tries):
        theta = 0.0 if attempt == 0 else float(rng.uniform(0.05, math.pi - 0.05))
        candidate = scene if attempt == 0 else rotate_scene(scene, theta)
        if not _has_vertical_trace(candidate):
            return candidate, theta
    raise PfaffincError("no rotation avoided vertical traces within the retry budget")
