import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from cyclelab import field as fd
from cyclelab import poly2 as p2
from cyclelab.poly2 import Poly2, parse_poly


def test_divergence_examples():
    assert fd.divergence(fd.PolyVectorField(parse_poly("x"), parse_poly("y"))) \
        .same_coeffs(parse_poly("2"))
    assert fd.divergence(fd.PolyVectorField(parse_poly("-y"), parse_poly("x"))).is_zero()


def test_divergence_ck3_closed_form(ck):
    s = parse_poly("1 - x^2 - y^2")
    want = p2.add(
        p2.scale(p2.mul(s, p2.mul(s, s)), 2.0),
        p2.scale(p2.mul(p2.mul(s, s), parse_poly("x^2 + y^2")), -6.0),
    )
    assert fd.divergence(ck[3]).same_coeffs(want, 1e-12)
    # vanishes identically on the unit circle
    th = np.linspace(0, 2 * np.pi, 17)
    div = fd.divergence(ck[3])
    assert np.max(np.abs(div(np.cos(th), np.sin(th)))) < 1e-14


def test_perp(ck):
    one_zero = fd.PolyVectorField(parse_poly("1"), Poly2.zero())
    assert fd.perp(one_zero).P.is_zero()
    assert fd.perp(one_zero).Q.same_coeffs(parse_poly("1"))
    # quarter turn squared is -identity, coefficient-wise
    pp = fd.perp(fd.perp(ck[2]))
    assert pp.P.same_coeffs(p2.scale(ck[2].P, -1.0), 0.0)
    assert pp.Q.same_coeffs(p2.scale(ck[2].Q, -1.0), 0.0)
    # CK(1): (-Q, P)(1, 0) = (-1, 0)
    px, py = fd.perp(ck[1])(1.0, 0.0)
    assert (px, py) == (pytest.approx(-1.0), pytest.approx(0.0))


def test_rotate_family_identity_and_linearity(ck):
    X = ck[2]
    same = fd.rotate_family(X, 0.0, 0.37)
    assert same.P.same_coeffs(X.P, 0.0) and same.Q.same_coeffs(X.Q, 0.0)
    lam, eps = 0.03, 0.21
    rot = fd.rotate_family(X, lam, eps)
    manual_p = p2.add(X.P, p2.scale(fd.perp(X).P, lam * eps))
    manual_q = p2.add(X.Q, p2.scale(fd.perp(X).Q, lam * eps))
    assert rot.P.same_coeffs(manual_p, 0.0) and rot.Q.same_coeffs(manual_q, 0.0)


def test_rotate_family_polar_law(ck):
    # radial law r(s^2 - mu) for rotated CK(2): compare radial components
    mu = 0.01
    rot = fd.rotate_family(ck[2], mu / 0.1, 0.1)
    rng = np.random.default_rng(5)
    r = rng.uniform(0.6, 1.4, 40)
    th = rng.uniform(0, 2 * np.pi, 40)
    x, y = r * np.cos(th), r * np.sin(th)
    p, q = rot(x, y)
    radial = (x * p + y * q) / r
    s = 1 - r * r
    assert np.max(np.abs(radial - r * (s**2 - mu))) < 1e-12


def test_gradient_collapse_family(ck):
    s = parse_poly("1 - x^2 - y^2")
    assert fd.gradient_collapse_family(ck[3], s, 0.0).P.same_coeffs(ck[3].P, 0.0)
    const = Poly2.constant(4.2)
    same = fd.gradient_collapse_family(ck[3], const, 0.7)
    assert same.P.same_coeffs(ck[3].P, 0.0) and same.Q.same_coeffs(ck[3].Q, 0.0)
    # polar law r s (s^2 - 2 lam)
    lam = 0.02
    pert = fd.gradient_collapse_family(ck[3], s, lam)
    rng = np.random.default_rng(6)
    r = rng.uniform(0.7, 1.3, 40)
    th = rng.uniform(0, 2 * np.pi, 40)
    x, y = r * np.cos(th), r * np.sin(th)
    p, q = pert(x, y)
    radial = (x * p + y * q) / r
    ss = 1 - r * r
    assert np.max(np.abs(radial - r * ss * (ss**2 - 2 * lam))) < 1e-12


def test_divergence_decomposition_identity(ck):
    # div(family) = div X + lam (|grad R|^2 + R Lap R) at coefficient level
    R = parse_poly("1 - x^2 - y^2")
    lam = 0.013
    fam = fd.gradient_collapse_family(ck[3], R, lam)
    Rx, Ry = p2.derivative(R, "x"), p2.derivative(R, "y")
    lap = p2.add(p2.derivative(Rx, "x"), p2.derivative(Ry, "y"))
    extra = p2.add(p2.add(p2.mul(Rx, Rx), p2.mul(Ry, Ry)), p2.mul(R, lap))
    want = p2.add(fd.divergence(ck[3]), p2.scale(extra, lam))
    assert fd.divergence(fam).same_coeffs(want, 1e-12)


def test_rotation_preserves_singularities(ck):
    rot = fd.rotate_family(ck[2], 0.05, 0.1)
    assert rot.P(0.0, 0.0) == 0.0 and rot.Q(0.0, 0.0) == 0.0
    # any common zero stays a zero; dyadic parameters keep the coefficient
    # arithmetic exact so the zero is preserved to the last bit
    X = fd.PolyVectorField(parse_poly("x - 1"), parse_poly("y - 2"))
    rx, ry = fd.rotate_family(X, 0.25, 0.5)(1.0, 2.0)
    assert rx == 0.0 and ry == 0.0


def test_cr_distance_examples(ck):
    box = (-1.5, 1.5, -1.5, 1.5)
    assert fd.cr_distance(ck[1], ck[1], box, r=1) == 0.0
    shifted = fd.PolyVectorField(p2.add(ck[1].P, Poly2.constant(1e-3)), ck[1].Q)
    assert fd.cr_distance(ck[1], shifted, box, r=2) == pytest.approx(1e-3, rel=1e-12)
    # distance to the rotated family is lam*eps times the perp functional
    lam, eps = 0.01, 0.1
    rot = fd.rotate_family(ck[2], lam, eps)
    d = fd.cr_distance(ck[2], rot, box, r=1)
    perp_functional = fd.cr_distance(
        fd.PolyVectorField(Poly2.zero(), Poly2.zero()), fd.perp(ck[2]), box, r=1
    )
    assert d == pytest.approx(lam * eps * perp_functional, rel=1e-12)


def test_cr_distance_pseudometric(rng):
    box = (-1.0, 1.0, -1.0, 1.0)
    fields = []
    for _ in range(3):
        coeffs_p = {(i, j): rng.standard_normal() for i in range(3) for j in range(2)}
        coeffs_q = {(i, j): rng.standard_normal() for i in range(2) for j in range(3)}
        fields.append(fd.PolyVectorField(Poly2.monomial(coeffs_p), Poly2.monomial(coeffs_q)))
    a, b, c = fields
    dab = fd.cr_distance(a, b, box, 1)
    dba = fd.cr_distance(b, a, box, 1)
    assert dab == dba
    dac = fd.cr_distance(a, c, box, 1)
    dcb = fd.cr_distance(c, b, box, 1)
    assert dab <= dac + dcb + 1e-12


def test_registry_and_literals(ck):
    assert fd.parse_field("CK(3)").P.same_coeffs(ck[3].P, 0.0)
    vdp = fd.parse_field("vanderpol(1.0)")
    assert vdp.P.same_coeffs(parse_poly("y"), 0.0)
    assert vdp.Q.same_coeffs(parse_poly("-x + y - x^2*y"), 0.0)
    lit = fd.parse_field({"p": "-y", "q": "x"})
    assert lit.degree == 1
    with pytest.raises(ValueError):
        fd.parse_field("CK(x)")
    with pytest.raises(ValueError):
        fd.parse_field(42)


def test_ck_polar_reduction_against_oracle(ck):
    # the library field's radial component matches the polar oracle's law
    for k in (1, 2, 3):
        r = np.linspace(0.5, 1.4, 19)
        x, y = r, np.zeros_like(r)
        p, q = ck[k](x, y)
        radial = (x * p + y * q) / r
        law = oracles.ck_radial(k)
        assert np.max(np.abs(radial - np.array([law(v) for v in r]))) < 1e-13


# monomial exponent maps of total degree <= 12: sparse (a few terms) or dense
# (every exponent of a degree-d triangle), coefficients of mixed magnitude
_coeff = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
_sparse = st.dictionaries(st.tuples(st.integers(0, 12), st.integers(0, 12))
                          .filter(lambda ij: ij[0] + ij[1] <= 12), _coeff, max_size=6)
_dense = st.integers(0, 12).flatmap(lambda d: st.fixed_dictionaries(
    {(i, j): _coeff for i in range(d + 1) for j in range(d + 1 - i)}))
_monomial = st.one_of(_sparse, _dense).map(Poly2.monomial)
_collapse = st.floats(-0.5, 0.5, allow_nan=False).map(
    lambda lam: fd.gradient_collapse_family(fd.ck_system(3), parse_poly("1 - x^2 - y^2"), lam))
_fields = st.one_of(st.builds(fd.PolyVectorField, _monomial, _monomial),
                    st.just(fd.PolyVectorField(Poly2.zero(), Poly2.zero())), _collapse)
_point = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(_fields, st.lists(st.tuples(_point, _point), min_size=1, max_size=5))
def test_compiled_rhs_is_eval_poly_bit_for_bit(X, points):
    rhs = X.rhs()
    assert X.rhs() is rhs  # compiled once per field
    for x, y in points:
        # float.hex tells -0.0 from 0.0
        assert [v.hex() for v in rhs(x, y)] == [X.P(x, y).hex(), X.Q(x, y).hex()]
