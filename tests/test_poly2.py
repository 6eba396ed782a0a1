import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from cyclelab import bernstein as bn
from cyclelab import poly2 as p2
from cyclelab.poly2 import Poly2, parse_poly


def test_eval_examples():
    p = parse_poly("x^2 + y^2")
    assert p(1.0, 1.0) == pytest.approx(2.0, abs=0)
    assert Poly2.zero()(3.7, -1.2) == 0.0
    # -y + x(1-x^2-y^2)^3 vanishes on the unit circle
    s = parse_poly("1 - x^2 - y^2")
    q = p2.add(parse_poly("-1*y"), p2.mul(Poly2.variable("x"), p2.mul(s, p2.mul(s, s))))
    assert q(1.0, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_zero_polynomial_degree_sentinel():
    assert Poly2.zero().degree == float("-inf")
    assert parse_poly("2").degree == 0
    assert parse_poly("x*y^2").degree == 3


def test_monomial_form_drops_zero_coefficients():
    p = Poly2.monomial({(1, 0): 1.0, (2, 2): 0.0})
    assert (2, 2) not in p.coeffs


def test_derivative_examples():
    assert oracles.same_coeffs(parse_poly("x^2*y").derivative("x"), parse_poly("2*x*y"))
    d2 = parse_poly("1 - x^2 - y^2").derivative("x", 2)
    assert oracles.same_coeffs(d2, parse_poly("-2"))
    assert oracles.is_zero(Poly2.zero().derivative("y"))


def test_derivative_commutes_exactly():
    rng = np.random.default_rng(7)
    for _ in range(20):
        coeffs = {(i, j): rng.standard_normal() for i in range(4) for j in range(4)}
        p = Poly2.monomial(coeffs)
        a = p.derivative("x").derivative("y")
        b = p.derivative("y").derivative("x")
        assert oracles.same_coeffs(a, b, 0.0)


def test_arith_examples():
    x, y = Poly2.variable("x"), Poly2.variable("y")
    assert oracles.same_coeffs(p2.mul(x, y), parse_poly("x*y"))
    p = parse_poly("3*x^2 - y + 1")
    assert oracles.is_zero(p2.add(p, p2.scale(p, -1.0)))
    prod = p2.mul(parse_poly("1 - x^2 - y^2"), parse_poly("-2*x"))
    assert oracles.same_coeffs(prod, parse_poly("-2*x + 2*x^3 + 2*x*y^2"), 0.0)


def test_mul_degree_adds():
    p = parse_poly("x^2 + 1")
    q = parse_poly("y^3 - x")
    assert p2.mul(p, q).degree == p.degree + q.degree


coeff_strategy = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.floats(-10, 10, allow_nan=False, allow_infinity=False),
    max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(coeff_strategy, coeff_strategy, st.floats(-2, 2), st.floats(-2, 2))
def test_add_is_pointwise_addition(ca, cb, x, y):
    pa, pb = Poly2.monomial(ca), Poly2.monomial(cb)
    lhs = p2.add(pa, pb)(x, y)
    rhs = pa(x, y) + pb(x, y)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(coeff_strategy, coeff_strategy, st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
def test_mul_is_pointwise_product(ca, cb, x, y):
    pa, pb = Poly2.monomial(ca), Poly2.monomial(cb)
    lhs = p2.mul(pa, pb)(x, y)
    rhs = pa(x, y) * pb(x, y)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("m", [0, 1, 2, 3, 7, 170, 340])
def test_basis_rows_match_scalar_recurrence(m):
    # the array path is the scalar recurrence row by row, to the last bit
    rng = np.random.default_rng(m)
    u = np.concatenate([rng.uniform(0.0, 1.0, 300), rng.uniform(-1.0, 2.0, 300),
                        [0.0, 0.5, 1.0, 1e-300]])
    rows = np.array([bn._basis_row_scalar(m, x) for x in u.tolist()])
    assert np.array_equal(bn.bernstein_basis_row(m, u), rows)


def test_two_forms_agree_on_box():
    rng = np.random.default_rng(11)
    box = (-2.0, 2.0, -2.0, 2.0)
    for _ in range(5):
        coeffs = {(i, j): rng.standard_normal() for i in range(4) for j in range(4)}
        p = Poly2.monomial(coeffs)
        b = oracles.to_bernstein(p, box)
        X = rng.uniform(-2, 2, 200)
        Y = rng.uniform(-2, 2, 200)
        scale = np.max(np.abs(p(X, Y))) + 1.0
        assert np.max(np.abs(b(X, Y) - p(X, Y))) / scale < 1e-12


def test_bernstein_roundtrip_and_cap():
    s = parse_poly("1 - x^2 - y^2")
    b = oracles.to_bernstein(s, (-1.5, 1.5, -1.5, 1.5))
    assert oracles.same_coeffs(oracles.to_monomial(b), s, 1e-12)
    big = oracles.to_bernstein(s, (-1.5, 1.5, -1.5, 1.5), degrees=(20, 20))
    with pytest.raises(oracles.ConversionOverflow):
        oracles.to_monomial(big)
    # cap boundary: total degree 30 converts, 31 does not
    ok = oracles.to_bernstein(s, (-1.5, 1.5, -1.5, 1.5), degrees=(15, 15))
    oracles.to_monomial(ok)


@pytest.mark.parametrize("text,expect", [
    ("-1*x^2*y^0", {(2, 0): -1.0}),
    ("x", {(1, 0): 1.0}),
    (" - y + 2.5*x*y^2 ", {(0, 1): -1.0, (1, 2): 2.5}),
    ("1 - x^2 - y^2", {(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1.0}),
    ("3e-2*x", {(1, 0): 0.03}),
    ("x^2+x^2", {(2, 0): 2.0}),
])
def test_parse_poly(text, expect):
    assert oracles.same_coeffs(parse_poly(text), Poly2.monomial(expect), 0.0)


def test_parse_poly_unicode_minus_and_errors():
    assert oracles.same_coeffs(parse_poly("−1*x"), parse_poly("-x"))
    with pytest.raises(ValueError):
        parse_poly("x**2")
    with pytest.raises(ValueError):
        parse_poly("")
