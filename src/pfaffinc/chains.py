"""Chained function sequences whose partials close over earlier members.

A chain is a list of analytic nodes f1..fr on an open rectangle.  Each node
declares polynomials gx, gy in (x, y, z1..zi) that are supposed to equal its
partial derivatives once z1..zi are bound to f1..fi.  Verification compares
declared polynomials against central differences; it never trusts them.

Each node kind is one `NodeKind` record in `NODE_KINDS`: its value, and its
params to JSON and back.
"""

from __future__ import annotations

import contextlib
import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .curves import check_region, check_tol, finite_number
from .duality import exp_term
from .errors import DomainViolation, NotUnivariateForm
from .poly import BivariatePolynomial, MultiPoly, poly1_der, poly1_eval

_QUAD_OPTS = dict(epsabs=1e-12, epsrel=1e-10, limit=200)


@dataclass
class ChainLink:
    kind: str  # a key of NODE_KINDS
    params: tuple
    gx: MultiPoly
    gy: MultiPoly
    fd_step: float = 1e-6
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def eval(self, x, y, prefix_links):
        """The node's value at (x, y); prefix_links are the links before it."""
        return NODE_KINDS[self.kind].value(self, x, y, prefix_links)


def _eval_prefix(links, x, y):
    return [link.eval(x, y, links[:i]) for i, link in enumerate(links)]


def _integral(link, x, y, prefix_links):
    """The node's integral from its start to x, by quadrature on y = 0, memoised per x."""
    from scipy.integrate import quad

    inner, c = link.params
    key = float(x)
    if key not in link._cache:
        def integrand(t):
            return inner(t, 0.0, *_eval_prefix(prefix_links, t, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            link._cache[key] = quad(integrand, c, x, **_QUAD_OPTS)[0]
    return link._cache[key]


def _start(value):
    """An integral node's start, a finite number."""
    if not finite_number(value):
        raise ValueError(f"integral from must be a finite number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class NodeKind:
    """One node kind: its value (link, x, y, prefix_links) -> float, and its
    params to JSON and back; `params` names the JSON keys."""

    value: Callable
    params: tuple = ()
    to_json: Callable = lambda p: {}  # params -> JSON params
    from_json: Callable = lambda d, nv: ()  # (JSON params, variables of gx) -> params


NODE_KINDS = {
    "exp-poly": NodeKind(lambda l, x, y, pre: math.exp(poly1_eval(l.params[0], x)), ("coeffs",),
                         lambda p: {"coeffs": list(p[0])},
                         lambda d, nv: exp_term(d["coeffs"]).params),  # finite coeffs only
    "tan-half": NodeKind(lambda l, x, y, pre: math.tan(x / 2.0)),
    "cos2-half": NodeKind(lambda l, x, y, pre: math.cos(x / 2.0) ** 2),
    "reciprocal": NodeKind(lambda l, x, y, pre: 1.0 / x),
    "poly": NodeKind(lambda l, x, y, pre: l.params[0](x, y), ("poly",),
                     lambda p: {"poly": p[0].to_json()},
                     lambda d, nv: (BivariatePolynomial.from_json(d["poly"]),)),
    "integral": NodeKind(_integral, ("inner", "from"),
                         lambda p: {"inner": p[0].to_json(), "from": p[1]},
                         lambda d, nv: (MultiPoly.from_json(nv - 1, d["inner"]), _start(d["from"]))),
}


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
        return np.maximum(self.max_error_x, self.max_error_y)  # NaN if either is


@dataclass
class ChainReport:
    checks: list
    tol: float
    samples: int
    passed: bool


def verify_chain(chain, samples=1000, tol=1e-6, region=None, seed=0):
    """Compare declared partials against central differences on samples.

    Error per link is max over samples of |numeric - declared| relative to
    max(1, |numeric|), NaN if any sample's is, and inf if a value of the
    link or of an earlier one overflows; the report passes iff every link
    stays within tol, so a NaN or infinite error fails its link.
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

    # per link, its values at all samples, its central differences sample by
    # sample, and its declared partials at all samples in one call each
    vals, checks = [], []
    for i, link in enumerate(chain.links):
        h, prefix = link.fd_step, chain.links[:i]
        ex = ey = math.inf  # if a value it needs overflows
        with contextlib.suppress(OverflowError):
            if len(vals) == i:  # else an earlier link's values overflowed
                vals.append(np.array([link.eval(x, y, prefix) for x, y in zip(xs, ys)]))
                numeric = np.array([(link.eval(x + h, y, prefix) - link.eval(x - h, y, prefix),
                                     link.eval(x, y + h, prefix) - link.eval(x, y - h, prefix))
                                    for x, y in zip(xs, ys)]) / (2 * h)
                ex, ey = (float(np.max(np.abs(d - g(xs, ys, *vals)) / np.maximum(1.0, np.abs(d))))
                          for d, g in zip(numeric.T, (link.gx, link.gy)))
        checks.append(LinkCheck(link.kind, ex, ey))
    passed = all(c.max_error <= tol for c in checks)
    return ChainReport(checks, tol, samples, passed)


# -- built-in chains --------------------------------------------------------


def chain_exp_poly(coeffs, region=(-2.0, 2.0, -2.0, 2.0)):
    """Chain of the single node exp(p(x))."""
    coeffs = tuple(float(c) for c in coeffs)
    dp = poly1_der(coeffs)
    gx = MultiPoly(3, {(k, 0, 1): c for k, c in enumerate(dp) if c})
    link = ChainLink("exp-poly", (coeffs,), gx, MultiPoly(3))
    return PfaffianChain([link], region)


def chain_cos_halfangle(region=(-math.pi + 0.01, math.pi - 0.01, -1.0, 1.0)):
    """Order-2 chain tan(x/2), cos^2(x/2) on one period."""
    g1x = MultiPoly(3, {(0, 0, 0): 0.5, (0, 0, 2): 0.5})
    g2x = MultiPoly(4, {(0, 0, 1, 1): -1.0})
    links = [
        ChainLink("tan-half", (), g1x, MultiPoly(3)),
        ChainLink("cos2-half", (), g2x, MultiPoly(4)),
    ]
    return PfaffianChain(links, region)


def chain_reciprocal_pair(region=(0.11, 3.0, -1.0, 1.0)):
    """Chain [exp(x), 1/x], enough to express exp(x)/x."""
    gx1 = MultiPoly(3, {(0, 0, 1): 1.0})
    gx2 = MultiPoly(4, {(0, 0, 0, 2): -1.0})
    links = [
        ChainLink("exp-poly", ((0.0, 1.0),), gx1, MultiPoly(3)),
        ChainLink("reciprocal", (), gx2, MultiPoly(4)),
    ]
    return PfaffianChain(links, region)


def function_from_polynomial(p, region=(-2.0, 2.0, -2.0, 2.0)):
    """A polynomial is a chain-free function: order 0, degree (0, deg p)."""
    if not isinstance(p, BivariatePolynomial):
        p = BivariatePolynomial(p)
    return PfaffianFunction(PfaffianChain([], region), p)


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
    link = ChainLink("integral", (inner, float(c)), gx_new, MultiPoly(nv + 1), fd_step=1e-4)
    new_chain = PfaffianChain(pf.chain.links + [link], pf.chain.region)
    new_g = MultiPoly(nv + 1, {
        tuple(1 if k == 1 else 0 for k in range(nv + 1)): 1.0,
        tuple(1 if k == nv else 0 for k in range(nv + 1)): -1.0,
    })
    return PfaffianFunction(new_chain, new_g)


# -- JSON ---------------------------------------------------------------------


def chain_to_json(chain):
    links = [{"node_kind": l.kind, "gx": l.gx.to_json(), "gy": l.gy.to_json(),
              "fd_step": l.fd_step, "params": NODE_KINDS[l.kind].to_json(l.params)}
             for l in chain.links]
    return {"links": links, "region": list(chain.region)}


def chain_from_json(data):
    """The chain of a chain JSON; ValueError on an unknown node kind, params
    whose names differ from the kind's or that it rejects, a polynomial with
    a coefficient that is not finite, or an fd_step that is not a positive
    finite number."""
    links = []
    for i, entry in enumerate(data["links"]):
        kind, params, h = entry["node_kind"], entry.get("params", {}), entry.get("fd_step", 1e-6)
        spec = NODE_KINDS.get(kind)
        if spec is None:
            raise ValueError(f"link {i + 1} has unknown node kind {kind!r}")
        if set(params) != set(spec.params):
            raise ValueError(f"link {i + 1}: {kind} node takes params {list(spec.params)}, "
                             f"got {sorted(params)}")
        if not (finite_number(h) and h > 0):
            raise ValueError(f"link {i + 1} fd_step must be a positive finite number, got {h!r}")
        nv = i + 3
        try:
            params = spec.from_json(params, nv)
            gx, gy = (MultiPoly.from_json(nv, entry[g]) for g in ("gx", "gy"))
        except ValueError as err:
            raise ValueError(f"link {i + 1}: {err}") from None
        links.append(ChainLink(kind, params, gx, gy, h))
    return PfaffianChain(links, tuple(data["region"]))
