import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pfaffinc.poly import BivariatePolynomial, MultiPoly, eval_terms, poly1_der, poly1_eval

coeff = st.floats(-5, 5, allow_nan=False)
exponent = st.integers(0, 4)


def polys():
    return st.dictionaries(st.tuples(exponent, exponent), coeff, max_size=6).map(
        BivariatePolynomial)


@given(polys(), polys(), st.floats(-2, 2), st.floats(-2, 2))
def test_ring_operations_match_pointwise(p, q, x, y):
    assert math.isclose((p + q)(x, y), p(x, y) + q(x, y), rel_tol=1e-9, abs_tol=1e-7)
    assert math.isclose((p * q)(x, y), p(x, y) * q(x, y), rel_tol=1e-9, abs_tol=1e-6)


@given(polys(), st.floats(-2, 2), st.floats(-2, 2),
       st.floats(-2, 2), st.floats(-2, 2), st.floats(-1, 1), st.floats(-1, 1))
@settings(max_examples=60)
def test_linear_substitution_matches_direct_evaluation(p, a1, a2, a3, a4, x, y):
    q = p.substitute_linear(a1, a2, a3, a4)
    direct = p(a1 * x + a2 * y, a3 * x + a4 * y)
    assert math.isclose(q(x, y), direct, rel_tol=1e-8, abs_tol=1e-6)


@given(polys())
def test_substitution_never_raises_degree(p):
    q = p.substitute_linear(0.5, -1.5, 2.0, 0.25)
    assert q.degree <= p.degree


def test_zero_polynomial_has_degree_zero():
    assert BivariatePolynomial().degree == 0
    assert BivariatePolynomial({(2, 1): 0.0}).degree == 0


def test_degree_is_total_degree():
    p = BivariatePolynomial({(1, 0): 2.0, (2, 3): -1.0})
    assert p.degree == 5


def test_partial_derivatives():
    p = BivariatePolynomial({(2, 1): 3.0, (0, 1): 1.0})  # 3x^2y + y
    assert p.partial("x") == BivariatePolynomial({(1, 1): 6.0})
    assert p.partial("y") == BivariatePolynomial({(2, 0): 3.0, (0, 0): 1.0})


def test_json_roundtrip():
    for p in (BivariatePolynomial({(1, 2): -0.5, (0, 0): 3.0}), BivariatePolynomial(),
              MultiPoly(4, {(1, 0, 2, 0): 1e-300, (0, 0, 0, 3): -2.5}), MultiPoly(3)):
        data = json.loads(json.dumps(p.to_json()))
        back = (BivariatePolynomial.from_json(data) if type(p) is BivariatePolynomial
                else MultiPoly.from_json(p.nvars, data))
        assert type(back) is type(p) and back == p, p


def test_bivariate_arithmetic_stays_bivariate():
    p = BivariatePolynomial({(2, 1): 3.0, (0, 1): 1.0})
    q = BivariatePolynomial({(1, 0): -1.0})
    for r in (p + q, p - q, p * q, -p, p + 2.0, p - 1.0, p * 2.0, 2.0 * p, p * 3, p.partial("x"),
              p.substitute_linear(1.0, 2.0, 3.0, 4.0), BivariatePolynomial.const(5.0)):
        assert type(r) is BivariatePolynomial and r.nvars == 2
    assert type(MultiPoly(2, {(1, 0): 1.0}) + 1.0) is MultiPoly


def test_vectorized_evaluation():
    p = BivariatePolynomial({(1, 1): 1.0})
    xs = np.array([1.0, 2.0])
    np.testing.assert_allclose(p(xs, xs), xs * xs)


def test_multipoly_eval_and_degree():
    g = MultiPoly(3, {(1, 5, 0): 1.0, (0, 0, 1): -1.0})  # x*y^5 - z1
    assert g.degree == 6
    assert g(2.0, 1.0, 3.0) == 2.0 - 3.0


def test_multipoly_lift_keeps_values():
    g = MultiPoly(3, {(1, 0, 2): 2.0})
    assert g.lift(5)(2.0, 0.0, 3.0, 9.0, 9.0) == g(2.0, 0.0, 3.0)


def test_univariate_helpers():
    coeffs = (3.0, -5.0, 1.0)  # 3 - 5x + x^2
    assert poly1_eval(coeffs, 2.0) == 3 - 10 + 4
    np.testing.assert_allclose(poly1_der(coeffs), [-5.0, 2.0])


def _reference_eval(terms, *args):
    """The evaluation loop MultiPoly had before every polynomial went through
    eval_terms: term by term, skipping zero exponents."""
    out = 0.0
    for key, c in terms.items():
        term = c
        for v, e in zip(args, key):
            if e:
                term = term * np.power(v, e)
        out = out + term
    return out


@st.composite
def terms_and_args(draw):
    nvars = draw(st.integers(2, 5))
    terms = draw(st.dictionaries(st.tuples(*[exponent] * nvars), coeff, max_size=6))
    size = draw(st.sampled_from([None, 1, 7]))
    if size is None:
        args = [draw(st.floats(-2, 2)) for _ in range(nvars)]
    else:
        args = [np.array(draw(st.lists(st.floats(-2, 2), min_size=size, max_size=size)))
                for _ in range(nvars)]
    return MultiPoly(nvars, terms), args


@given(terms_and_args())
@settings(max_examples=200)
def test_eval_terms_matches_the_reference_loop_bit_for_bit(case):
    p, args = case
    got = eval_terms(p.terms, p.terms.values(), *args)
    want = _reference_eval(p.terms, *args)
    if p.is_zero():  # zeros shaped like the broadcast args
        want = np.zeros(np.broadcast(*args).shape)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes()
    assert np.asarray(p(*args), dtype=float).tobytes() == np.asarray(got, dtype=float).tobytes()
