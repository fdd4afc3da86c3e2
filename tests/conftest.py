import math

import numpy as np
import pytest

import pfaffinc as pf
from pfaffinc.curves import _RTOL


CORPUS_VIEWPORT = (-3.0, 3.0, -3.0, 3.0)


def corpus_curves():
    """Twelve catalog curves whose pairwise line crossings stay in view."""
    return [
        pf.line(1.0, 0.5, label="l1"),
        pf.line(-1.0, 0.0, label="l2"),
        pf.line(2.0, -1.0, label="l3"),
        pf.line(0.3, 0.2, label="l4"),
        pf.circle(0.0, 0.0, 1.0, label="c1"),
        pf.circle(1.5, 0.5, 1.2, label="c2"),
        pf.parabola(1.0, 0.0, 0.0, label="p1"),
        pf.exp_curve(1.0, 1.0, label="e1"),
        pf.log_curve(1.0, 0.0, label="g1"),
        pf.tan_curve(0, label="t1"),
        pf.reciprocal_curve(1.0, 1, label="r1"),
        pf.arctan_curve(label="a1"),
    ]


# The scalar root refiner that `pfaffinc.curves.refine_roots` runs lane by
# lane: the oracle of every lockstep refinement.
def refine_root(f, a, b, fprime=None, fa=None, fb=None, xtol=1e-14):
    """A root of f between a and b, where f(a) and f(b) differ in sign.

    Newton steps on fprime from the bracket's secant point, safeguarded by
    bisection (rtsafe; Press et al., Numerical Recipes, sec. 9.4): a step is
    taken if it lands inside the bracket, which shrinks at every step, and at
    least halves the step before it.  fprime(x) is called right after f(x),
    so it may reuse what f computed.  The tolerance is xtol + 4 eps |x|.
    """
    fa = f(a) if fa is None else fa
    fb = f(b) if fb is None else fb
    if fa == 0.0 or fb == 0.0:
        return a if fa == 0.0 else b
    if fa > 0.0:
        a, b, fa, fb = b, a, fb, fa  # f(a) < 0 < f(b) from here on
    x = a - fa * (b - a) / (fb - fa)
    last = abs(b - a)
    while True:
        fx = f(x)
        if fx == 0.0:
            return x
        a, b = (x, b) if fx < 0.0 else (a, x)
        tol = xtol + _RTOL * abs(x)
        slope = 0.0 if fprime is None else fprime(x)
        step = fx / slope if slope else math.inf
        if abs(step) <= tol:  # converged, even when rounding lands an ulp outside
            return x - step
        if abs(step) <= 0.5 * last and min(a, b) < x - step < max(a, b):
            last, x = abs(step), x - step
        elif abs(b - a) <= 2.0 * tol:
            return 0.5 * (a + b)
        else:
            last, x = 0.5 * abs(b - a), 0.5 * (a + b)


@pytest.fixture(scope="session")
def corpus():
    curves = corpus_curves()
    traces = [pf.trace_curve(c, CORPUS_VIEWPORT) for c in curves]
    return curves, traces, CORPUS_VIEWPORT


@pytest.fixture(scope="session")
def line_scene():
    """Random 20-line scene with a certified cutting."""
    from pfaffinc import generators as gen

    scene = gen.random_scene(["line"], m=60, n=20, planted=0.5, seed=42)
    traces = scene.traces()
    cut = pf.build_cutting(scene.curves, traces, scene.viewport, r=2, seed=9)
    return scene, traces, cut


def zero_sum_line_scene():
    """15 lines y = a*x - a^3; triples with a+b+c = 0 concur.

    The first 20 concurrence points each lie on exactly three lines, giving
    a scene with exactly 60 incidences.
    """
    import itertools

    vals = list(range(-7, 8))
    lines = [pf.line(a, -a ** 3, label=f"dual{a}") for a in vals]
    triples = [t for t in itertools.combinations(vals, 3) if sum(t) == 0]
    pts = []
    for a, b, _c in triples:
        x = a * a + a * b + b * b
        y = a * b * (a + b)
        pts.append((float(x), float(y)))
    points = np.array(sorted(set(pts))[:20], dtype=float)
    viewport = (0.0, 50.0, -90.0, 90.0)
    from pfaffinc.scene import Scene

    return Scene(points, lines, viewport, seed=0, meta={"family": "zero-sum"})
