"""Sparse polynomials: `MultiPoly` in (x, y, z1..zr), and its two-variable
subclass `BivariatePolynomial` in (x, y).

Coefficients are plain floats keyed by exponent tuples; exact zeros are
dropped, tiny coefficients are kept.  Every polynomial evaluates through
`eval_terms`, which is numpy-friendly: feeding arrays for the variables
returns arrays.
"""

from __future__ import annotations

import numpy as np


class MultiPoly:
    """Polynomial in nvars variables (x, y, z1..zr) stored as {exponent tuple
    of length nvars: coefficient}."""

    __slots__ = ("terms", "nvars")

    def __init__(self, nvars, terms=None):
        self.nvars = int(nvars)
        self.terms = {}
        if terms:
            for key, c in dict(terms).items():
                key = tuple(int(e) for e in key)
                if len(key) != self.nvars:
                    raise ValueError(f"exponent tuple {key} has wrong arity")
                if c != 0.0:
                    self.terms[key] = float(c)

    def _like(self, terms):
        """A polynomial of the same type and arity with these terms."""
        return MultiPoly(self.nvars, terms)

    @property
    def degree(self):
        """Total degree; the zero polynomial has degree 0."""
        return max((sum(key) for key in self.terms), default=0)

    def is_zero(self):
        return not self.terms

    def __call__(self, *args):
        if len(args) != self.nvars:
            raise ValueError(f"expected {self.nvars} arguments, got {len(args)}")
        return eval_terms(self.terms, self.terms.values(), *args)

    def _coerce(self, value):
        return value if isinstance(value, MultiPoly) else self._like({(0,) * self.nvars: value})

    def __add__(self, other):
        terms = dict(self.terms)
        for k, c in self._coerce(other).terms.items():
            terms[k] = terms.get(k, 0.0) + c
        return self._like(terms)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return self._like({k: c * other for k, c in self.terms.items()})
        other = self._coerce(other)
        terms = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                terms[k] = terms.get(k, 0.0) + c1 * c2
        return self._like(terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def lift(self, nvars):
        """Reinterpret in a larger variable tuple (new trailing variables)."""
        if nvars < self.nvars:
            raise ValueError("cannot shrink arity")
        pad = nvars - self.nvars
        return MultiPoly(nvars, {key + (0,) * pad: c for key, c in self.terms.items()})

    def to_json(self):
        return {",".join(str(e) for e in key): c for key, c in sorted(self.terms.items())}

    @classmethod
    def from_json(cls, nvars, data):
        poly = cls(nvars, {tuple(int(p) for p in key.split(",")): c for key, c in data.items()})
        if not all(map(np.isfinite, poly.terms.values())):
            raise ValueError(f"polynomial coefficients must be finite, got {data!r}")
        return poly

    def __repr__(self):
        return f"MultiPoly({self.nvars}, {self.terms!r})"


class BivariatePolynomial(MultiPoly):
    """Polynomial in (x, y) stored as {(i, j): coefficient}."""

    __slots__ = ()

    def __init__(self, terms=None):
        super().__init__(2, terms)

    @classmethod
    def const(cls, c):
        return cls({(0, 0): c})

    def _like(self, terms):
        return BivariatePolynomial(terms)

    def partial(self, var):
        """Partial derivative with respect to "x" or "y"."""
        terms = {}
        for (i, j), c in self.terms.items():
            if var == "x" and i > 0:
                terms[(i - 1, j)] = terms.get((i - 1, j), 0.0) + c * i
            elif var == "y" and j > 0:
                terms[(i, j - 1)] = terms.get((i, j - 1), 0.0) + c * j
        return BivariatePolynomial(terms)

    def substitute_linear(self, a1, a2, a3, a4):
        """Return P(a1*x + a2*y, a3*x + a4*y) expanded as a polynomial.

        The substitution is linear, so the total degree never grows.
        """
        u = BivariatePolynomial({(1, 0): a1, (0, 1): a2})
        v = BivariatePolynomial({(1, 0): a3, (0, 1): a4})
        # cache powers up to the needed exponents
        max_i = max((i for i, _ in self.terms), default=0)
        max_j = max((j for _, j in self.terms), default=0)
        u_pows = [BivariatePolynomial.const(1.0)]
        for _ in range(max_i):
            u_pows.append(u_pows[-1] * u)
        v_pows = [BivariatePolynomial.const(1.0)]
        for _ in range(max_j):
            v_pows.append(v_pows[-1] * v)
        out = BivariatePolynomial()
        for (i, j), c in self.terms.items():
            out = out + (u_pows[i] * v_pows[j]) * c
        return out

    @classmethod
    def from_json(cls, data):
        return cls(MultiPoly.from_json(2, data).terms)

    def __repr__(self):
        if not self.terms:
            return "BivariatePolynomial(0)"
        bits = []
        for (i, j), c in sorted(self.terms.items()):
            mono = "".join(s for s, e in (("x", i), ("y", j)) for s in ([f"{s}^{e}" if e > 1 else s] if e else []))
            bits.append(f"{c:g}{mono}" if mono else f"{c:g}")
        return f"BivariatePolynomial({' + '.join(bits)})"


def eval_terms(keys, coefs, *args):
    """The sum of c * args[0]^key[0] * args[1]^key[1] * ... over the exponent
    tuples key of keys and the coefficients c of coefs, term by term in their
    order, skipping zero exponents; zeros shaped like the broadcast args when
    there are no terms.  A coefficient may be a scalar or an array over the
    entries of the args: either way each entry takes the same operations."""
    if not len(keys):
        return np.zeros(np.broadcast(*args).shape)
    out = 0.0
    for key, c in zip(keys, coefs):
        term = c
        for v, e in zip(args, key):
            if e:
                term = term * np.power(v, e)
        out = out + term
    return out


def poly1_eval(coeffs, x):
    """Evaluate ascending coefficients at x by Horner's rule, in the steps of
    numpy's polyval, so with the same bits.  A coefficient may be a scalar
    or an array over the entries of x."""
    c = [np.asarray(v, dtype=float) for v in coeffs]
    out = c[-1] + x * 0
    for v in c[-2::-1]:
        out = v + out * x
    return out


def poly1_der(coeffs):
    """Ascending coefficients of the derivative."""
    c = np.asarray(coeffs, dtype=float)
    if c.size <= 1:
        return np.zeros(1)
    return np.polynomial.polynomial.polyder(c)
