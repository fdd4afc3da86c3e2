import json
import math

import pytest

from pfaffinc import chains as ch
from pfaffinc.errors import DomainViolation, NotUnivariateForm
from pfaffinc.poly import BivariatePolynomial, MultiPoly


# -- verify_chain ---------------------------------------------------------------

def test_exp_poly_chain_verifies():
    chain = ch.chain_exp_poly((0.0, 3.0, 1.0))  # exp(x^2 + 3x)
    rep = ch.verify_chain(chain, samples=400, tol=1e-6)
    assert rep.passed


def test_cos_halfangle_chain_verifies():
    rep = ch.verify_chain(ch.chain_cos_halfangle(), samples=400, tol=1e-6)
    assert rep.passed


def test_wrong_declared_partial_fails_with_unit_error():
    gx = MultiPoly(3, {(0, 0, 1): 2.0})  # claims d/dx exp(x) = 2 exp(x)
    bad = ch.PfaffianChain(
        [ch.ChainLink("exp-poly", ((0.0, 1.0),), gx, MultiPoly(3))],
        (-2.0, 2.0, -2.0, 2.0))
    rep = ch.verify_chain(bad, samples=100, tol=1e-6)
    assert not rep.passed
    assert 0.4 <= rep.checks[0].max_error <= 1.1


@pytest.mark.parametrize("axis", ["x", "y"])
def test_nan_error_fails_its_link(axis):
    # a NaN compares false with everything, so a running max() kept the old
    # maximum and the link passed
    exp_x = MultiPoly(3, {(0, 0, 1): 1.0})
    nan = MultiPoly(3, {(0, 0, 0): math.nan})
    gx, gy = (nan, MultiPoly(3)) if axis == "x" else (exp_x, nan)
    chain = ch.PfaffianChain([ch.ChainLink("exp-poly", ((0.0, 1.0),), gx, gy)],
                             (-2.0, 2.0, -2.0, 2.0))
    rep = ch.verify_chain(chain, samples=20, tol=1e-6)
    assert not rep.passed
    check = rep.checks[0]
    assert math.isnan(check.max_error) and math.isnan(getattr(check, f"max_error_{axis}"))


def test_chain_without_links_passes_with_no_checks():
    rep = ch.verify_chain(ch.function_constant_graph().chain, samples=5)
    assert rep.passed and rep.checks == []


def test_sampling_region_must_stay_inside():
    chain = ch.chain_exp_poly((0.0, 1.0))
    with pytest.raises(DomainViolation):
        ch.verify_chain(chain, samples=10, region=(-5.0, 5.0, -1.0, 1.0))


# -- order_and_degree -------------------------------------------------------------

def test_worked_example_order_and_degree():
    pf_fn = ch.function_worked_example()
    assert ch.order_and_degree(pf_fn) == (1, (2, 6))


def test_plain_polynomial_is_order_zero():
    p = BivariatePolynomial({(2, 1): 1.0, (0, 3): -2.0})
    pf_fn = ch.function_from_polynomial(p)
    assert ch.order_and_degree(pf_fn) == (0, (0, 3))


def test_cos_function_has_order_two():
    order, _deg = ch.order_and_degree(ch.function_cos())
    assert order == 2


def test_cos_function_evaluates_to_y_minus_cos():
    f = ch.function_cos()
    for x in (-2.0, -0.5, 0.0, 1.2):
        assert math.isclose(f.eval(x, 0.25), 0.25 - math.cos(x), abs_tol=1e-12)


# -- extend_with_integral -----------------------------------------------------------

def test_integral_of_exp_matches_closed_form():
    ext = ch.extend_with_integral(ch.function_exp_graph(), 0.0)
    link = ext.chain.links[-1]
    for x in (-1.5, -0.3, 0.4, 1.7):
        got = link.eval(x, 0.0, ext.chain.links[:-1])
        assert abs(got - (math.exp(x) - 1.0)) <= 1e-8
    rep = ch.verify_chain(ext.chain, samples=60, tol=1e-6)
    assert rep.passed


def test_integral_of_constant_is_linear_and_raises_order():
    base = ch.function_constant_graph(1.0)
    ext = ch.extend_with_integral(base, 0.0)
    assert ch.order_and_degree(ext)[0] == ch.order_and_degree(base)[0] + 1
    link = ext.chain.links[-1]
    assert abs(link.eval(1.25, 0.0, []) - 1.25) <= 1e-12
    assert abs(ext.eval(0.5, 0.5)) <= 1e-12  # y - x vanishes on y = x


def test_integral_of_exp_over_x_verifies_at_coarse_tol():
    ext = ch.extend_with_integral(ch.function_exp_over_x(), 0.1)
    rep = ch.verify_chain(ext.chain, samples=60, tol=1e-4)
    assert rep.passed


def test_integral_extension_rejects_other_shapes():
    with pytest.raises(NotUnivariateForm):
        ch.extend_with_integral(ch.function_worked_example(), 0.0)


def test_new_link_is_independent_of_y():
    ext = ch.extend_with_integral(ch.function_exp_graph(), 0.0)
    link = ext.chain.links[-1]
    prefix = ext.chain.links[:-1]
    h = 1e-4
    for x in (-1.0, 0.3, 1.1):
        up = link.eval(x, h, prefix)
        dn = link.eval(x, -h, prefix)
        assert abs(up - dn) / (2 * h) <= 1e-10


def test_integral_extension_increments_order():
    for base in (ch.function_exp_graph(), ch.function_constant_graph()):
        ext = ch.extend_with_integral(base, 0.0)
        assert ext.chain.order == base.chain.order + 1


# -- built-in chain coverage ----------------------------------------------------------

@pytest.mark.parametrize("chain", [
    ch.chain_exp_poly((0.0, 1.0)),
    ch.chain_exp_poly((0.0, 3.0, 1.0)),
    ch.chain_cos_halfangle(),
    ch.chain_reciprocal_pair(),
], ids=["exp", "exp-quad", "cos-half", "exp-over-x"])
def test_builtin_chains_verify_at_tight_tolerance(chain):
    rep = ch.verify_chain(chain, samples=1000, tol=1e-6)
    assert rep.passed, [c.max_error for c in rep.checks]


def test_chain_json_roundtrip():
    chain = ch.chain_cos_halfangle()
    data = ch.chain_to_json(chain)
    back = ch.chain_from_json(data)
    rep = ch.verify_chain(back, samples=50, tol=1e-6)
    assert rep.passed
    assert [l.kind for l in back.links] == [l.kind for l in chain.links]


def test_integral_chain_json_roundtrip():
    ext = ch.extend_with_integral(ch.function_exp_graph(), 0.0)
    back = ch.chain_from_json(ch.chain_to_json(ext.chain))
    link = back.links[-1]
    assert abs(link.eval(1.0, 0.0, back.links[:-1]) - (math.e - 1)) <= 1e-8


# -- the node table -------------------------------------------------------------

NODE_EXAMPLES = {  # JSON params of a first link, whose gx has 3 variables
    "exp-poly": {"coeffs": [0.25, -1.0, 0.5]},
    "tan-half": {},
    "cos2-half": {},
    "reciprocal": {},
    "poly": {"poly": BivariatePolynomial({(2, 1): 1.5, (0, 0): -0.25}).to_json()},
    "integral": {"inner": MultiPoly(2, {(1, 0): 2.0, (0, 0): 0.5}).to_json(), "from": 0.3},
}


def test_every_node_kind_has_an_example():
    assert set(NODE_EXAMPLES) == set(ch.NODE_KINDS)


@pytest.mark.parametrize("kind", sorted(NODE_EXAMPLES))
def test_node_kind_roundtrips_through_json_bit_for_bit(kind):
    entry = {"node_kind": kind, "gx": {}, "gy": {}, "fd_step": 1e-5,
             "params": NODE_EXAMPLES[kind]}
    chain = ch.chain_from_json({"links": [entry], "region": [0.2, 1.5, -1.0, 1.0]})
    saved = json.loads(json.dumps(ch.chain_to_json(chain)))
    assert saved["links"] == [entry]
    back = ch.chain_from_json(saved)
    for x, y in ((0.25, -0.5), (0.7, 0.0), (1.4, 0.9)):
        assert back.eval_links(x, y) == chain.eval_links(x, y)

