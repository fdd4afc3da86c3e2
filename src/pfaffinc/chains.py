"""Chained function sequences whose partials close over earlier members.

A chain is a list of analytic nodes f1..fr on an open rectangle.  Each node
declares polynomials gx, gy in (x, y, z1..zi) that are supposed to equal its
partial derivatives once z1..zi are bound to f1..fi.  Verification compares
declared polynomials against central differences; it never trusts them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .curves import check_region, check_tol
from .errors import DomainViolation, NotUnivariateForm
from .poly import BivariatePolynomial, MultiPoly, poly1_der, poly1_eval

_QUAD_OPTS = dict(epsabs=1e-12, epsrel=1e-10, limit=200)


@dataclass
class ChainLink:
    kind: str  # exp-poly | tan-half | cos2-half | reciprocal | poly | integral
    params: tuple
    gx: MultiPoly
    gy: MultiPoly
    fd_step: float = 1e-6
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def eval(self, x, y, prev_values, prefix_links):
        k = self.kind
        if k == "exp-poly":
            (coeffs,) = self.params
            return math.exp(poly1_eval(coeffs, x))
        if k == "tan-half":
            return math.tan(x / 2.0)
        if k == "cos2-half":
            return math.cos(x / 2.0) ** 2
        if k == "reciprocal":
            return 1.0 / x
        if k == "poly":
            (p,) = self.params
            return p(x, y)
        if k == "integral":
            from scipy.integrate import quad

            inner, c = self.params
            key = float(x)
            if key not in self._cache:
                def integrand(t):
                    vals = _eval_prefix(prefix_links, t, 0.0)
                    return inner(t, 0.0, *vals)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    val, _err = quad(integrand, c, x, **_QUAD_OPTS)
                self._cache[key] = val
            return self._cache[key]
        raise ValueError(f"unknown chain node kind {self.kind!r}")


def _eval_prefix(links, x, y):
    values = []
    for i, link in enumerate(links):
        values.append(link.eval(x, y, values, links[:i]))
    return values


@dataclass
class PfaffianChain:
    links: list
    region: tuple  # open rectangle (x0, x1, y0, y1)

    def __post_init__(self):
        check_region(self.region, "chain region")

    @property
    def order(self):
        return len(self.links)

    @property
    def degree(self):
        if not self.links:
            return 0
        return max(max(l.gx.degree, l.gy.degree) for l in self.links)

    def eval_links(self, x, y):
        if not (self.region[0] < x < self.region[1] and self.region[2] < y < self.region[3]):
            raise DomainViolation(f"({x}, {y}) outside open region {self.region}")
        return _eval_prefix(self.links, x, y)


@dataclass
class PfaffianFunction:
    chain: PfaffianChain
    g: MultiPoly  # in (x, y, z1..zr)

    @property
    def region(self):
        return self.chain.region

    def eval(self, x, y):
        return self.g(x, y, *self.chain.eval_links(x, y))


def order_and_degree(pf):
    """(order, (chain degree, outer polynomial degree))."""
    return pf.chain.order, (pf.chain.degree, pf.g.degree)


@dataclass
class LinkCheck:
    kind: str
    max_error_x: float
    max_error_y: float

    @property
    def max_error(self):
        return max(self.max_error_x, self.max_error_y)


@dataclass
class ChainReport:
    checks: list
    tol: float
    samples: int
    passed: bool


def verify_chain(chain, samples=1000, tol=1e-6, region=None, seed=0):
    """Compare declared partials against central differences on samples.

    Error per link is max over samples of |numeric - declared| relative to
    max(1, |numeric|); the report passes iff every link stays within tol.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    check_tol(tol)
    rx0, rx1, ry0, ry1 = chain.region
    if region is None:
        region = chain.region
    x0, x1, y0, y1 = region
    if x0 < rx0 or x1 > rx1 or y0 < ry0 or y1 > ry1:
        raise DomainViolation(f"sampling region {region} leaves {chain.region}")
    hmax = max((l.fd_step for l in chain.links), default=1e-6)
    if (x1 - x0) <= 4 * hmax or (y1 - y0) <= 4 * hmax:
        raise DomainViolation("region too thin for finite differences")
    rng = np.random.default_rng(seed)
    xs = rng.uniform(x0 + 2 * hmax, x1 - 2 * hmax, size=samples)
    ys = rng.uniform(y0 + 2 * hmax, y1 - 2 * hmax, size=samples)

    checks = [LinkCheck(l.kind, 0.0, 0.0) for l in chain.links]
    for x, y in zip(xs, ys):
        for i, link in enumerate(chain.links):
            h = link.fd_step
            prefix = chain.links[:i]
            vals_here = _eval_prefix(chain.links[: i + 1], x, y)
            args = (x, y, *vals_here)
            fxp = link.eval(x + h, y, None, prefix)
            fxm = link.eval(x - h, y, None, prefix)
            fyp = link.eval(x, y + h, None, prefix)
            fym = link.eval(x, y - h, None, prefix)
            dndx = (fxp - fxm) / (2 * h)
            dndy = (fyp - fym) / (2 * h)
            ex = abs(dndx - link.gx(*args)) / max(1.0, abs(dndx))
            ey = abs(dndy - link.gy(*args)) / max(1.0, abs(dndy))
            checks[i].max_error_x = max(checks[i].max_error_x, ex)
            checks[i].max_error_y = max(checks[i].max_error_y, ey)
    passed = all(c.max_error <= tol for c in checks)
    return ChainReport(checks, tol, samples, passed)


# -- built-in chains --------------------------------------------------------


def chain_exp_poly(coeffs, region=(-2.0, 2.0, -2.0, 2.0)):
    """Chain of the single node exp(p(x))."""
    coeffs = tuple(float(c) for c in coeffs)
    dp = poly1_der(coeffs)
    gx = MultiPoly(3, {(k, 0, 1): c for k, c in enumerate(dp) if c})
    link = ChainLink("exp-poly", (coeffs,), gx, MultiPoly.zero(3))
    return PfaffianChain([link], region)


def chain_cos_halfangle(region=(-math.pi + 0.01, math.pi - 0.01, -1.0, 1.0)):
    """Order-2 chain tan(x/2), cos^2(x/2) on one period."""
    g1x = MultiPoly(3, {(0, 0, 0): 0.5, (0, 0, 2): 0.5})
    g2x = MultiPoly(4, {(0, 0, 1, 1): -1.0})
    links = [
        ChainLink("tan-half", (), g1x, MultiPoly.zero(3)),
        ChainLink("cos2-half", (), g2x, MultiPoly.zero(4)),
    ]
    return PfaffianChain(links, region)


def chain_reciprocal_pair(region=(0.11, 3.0, -1.0, 1.0)):
    """Chain [exp(x), 1/x], enough to express exp(x)/x."""
    gx1 = MultiPoly(3, {(0, 0, 1): 1.0})
    gx2 = MultiPoly(4, {(0, 0, 0, 2): -1.0})
    links = [
        ChainLink("exp-poly", ((0.0, 1.0),), gx1, MultiPoly.zero(3)),
        ChainLink("reciprocal", (), gx2, MultiPoly.zero(4)),
    ]
    return PfaffianChain(links, region)


def function_from_polynomial(p, region=(-2.0, 2.0, -2.0, 2.0)):
    """A polynomial is a chain-free function: order 0, degree (0, deg p)."""
    if not isinstance(p, BivariatePolynomial):
        p = BivariatePolynomial(p)
    g = MultiPoly(2, {(i, j): c for (i, j), c in p.terms.items()})
    return PfaffianFunction(PfaffianChain([], region), g)


def function_worked_example(region=(-2.0, 2.0, -2.0, 2.0)):
    """x*y^5 - exp(x^2 + 3x): order 1, degree (2, 6)."""
    chain = chain_exp_poly((0.0, 3.0, 1.0), region)
    g = MultiPoly(3, {(1, 5, 0): 1.0, (0, 0, 1): -1.0})
    return PfaffianFunction(chain, g)


def function_cos(region=(-math.pi + 0.01, math.pi - 0.01, -1.0, 1.0)):
    """y - cos(x) through the half-angle chain: order 2."""
    chain = chain_cos_halfangle(region)
    g = MultiPoly(4, {(0, 1, 0, 0): 1.0, (0, 0, 0, 1): -2.0, (0, 0, 0, 0): 1.0})
    return PfaffianFunction(chain, g)


def function_exp_graph(region=(-2.0, 2.0, -8.0, 8.0)):
    """y - exp(x)."""
    chain = chain_exp_poly((0.0, 1.0), region)
    g = MultiPoly(3, {(0, 1, 0): 1.0, (0, 0, 1): -1.0})
    return PfaffianFunction(chain, g)


def function_exp_over_x(region=(0.11, 3.0, -1.0, 30.0)):
    """y - exp(x)/x on x > 0.1."""
    chain = chain_reciprocal_pair(region)
    g = MultiPoly(4, {(0, 1, 0, 0): 1.0, (0, 0, 1, 1): -1.0})
    return PfaffianFunction(chain, g)


def function_constant_graph(c0=1.0, region=(-2.0, 2.0, -4.0, 4.0)):
    """y - c0 with an empty chain."""
    g = MultiPoly(2, {(0, 1): 1.0, (0, 0): -float(c0)})
    return PfaffianFunction(PfaffianChain([], region), g)


# -- integration -------------------------------------------------------------


def extend_with_integral(pf, c):
    """Append the antiderivative of h as a node, for functions y - h(x).

    The new node evaluates by adaptive quadrature from c; its declared x
    partial is the expression of h in the earlier nodes, its y partial is 0.
    Returns the function y - integral_c^x h(t) dt.
    """
    r = pf.chain.order
    nv = r + 2
    y_key = tuple(1 if k == 1 else 0 for k in range(nv))
    terms = dict(pf.g.terms)
    if abs(terms.get(y_key, 0.0) - 1.0) > 1e-12:
        raise NotUnivariateForm("outer polynomial must contain y with coefficient 1")
    del terms[y_key]
    if any(key[1] != 0 for key in terms):
        raise NotUnivariateForm("outer polynomial must be y - h(x)")
    if any(not l.gy.is_zero() for l in pf.chain.links):
        raise NotUnivariateForm("chain nodes must not depend on y")
    inner = MultiPoly(nv, {key: -coef for key, coef in terms.items()})

    gx_new = inner.lift(nv + 1)
    link = ChainLink("integral", (inner, float(c)), gx_new,
                     MultiPoly.zero(nv + 1), fd_step=1e-4)
    new_chain = PfaffianChain(pf.chain.links + [link], pf.chain.region)
    new_g = MultiPoly(nv + 1, {
        tuple(1 if k == 1 else 0 for k in range(nv + 1)): 1.0,
        tuple(1 if k == nv else 0 for k in range(nv + 1)): -1.0,
    })
    return PfaffianFunction(new_chain, new_g)


# -- JSON ---------------------------------------------------------------------


def chain_to_json(chain):
    links = []
    for link in chain.links:
        entry = {
            "node_kind": link.kind,
            "gx": link.gx.to_json(),
            "gy": link.gy.to_json(),
            "fd_step": link.fd_step,
        }
        if link.kind == "exp-poly":
            entry["params"] = {"coeffs": list(link.params[0])}
        elif link.kind == "poly":
            entry["params"] = {"poly": link.params[0].to_json()}
        elif link.kind == "integral":
            inner, c = link.params
            entry["params"] = {"inner": inner.to_json(), "from": c}
        else:
            entry["params"] = {}
        links.append(entry)
    return {"links": links, "region": list(chain.region)}


def chain_from_json(data):
    links = []
    for i, entry in enumerate(data["links"]):
        nv = i + 3
        kind = entry["node_kind"]
        params = entry.get("params", {})
        gx = MultiPoly.from_json(nv, entry["gx"])
        gy = MultiPoly.from_json(nv, entry["gy"])
        if kind == "exp-poly":
            p = (tuple(params["coeffs"]),)
        elif kind == "poly":
            p = (BivariatePolynomial.from_json(params["poly"]),)
        elif kind == "integral":
            p = (MultiPoly.from_json(nv - 1, params["inner"]), float(params["from"]))
        else:
            p = ()
        links.append(ChainLink(kind, p, gx, gy, entry.get("fd_step", 1e-6)))
    return PfaffianChain(links, tuple(data["region"]))
