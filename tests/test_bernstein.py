import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from cyclelab import bernstein as bn
from cyclelab.poly2 import Poly2, parse_poly
from cyclelab.registry import CANONICAL_FUNCTIONS, canonical_function


@pytest.fixture(scope="module")
def paraboloid():
    return canonical_function("paraboloid", (-2, 2, -2, 2))


@pytest.fixture(scope="module")
def xsq():
    # f(x, y) = x^2 on the unit box, tensored with a constant
    return bn.SampledField(
        value=lambda x, y: np.asarray(x, float) ** 2 + 0.0 * np.asarray(y, float),
        box=(0, 1, 0, 1),
        derivs={
            (1, 0): lambda x, y: 2.0 * np.asarray(x, float) + 0.0 * np.asarray(y, float),
            (0, 1): lambda x, y: 0.0 * np.asarray(x, float) * np.asarray(y, float),
            (2, 0): lambda x, y: 2.0 + 0.0 * np.asarray(x, float) * np.asarray(y, float),
            (1, 1): lambda x, y: 0.0 * np.asarray(x, float) * np.asarray(y, float),
            (0, 2): lambda x, y: 0.0 * np.asarray(x, float) * np.asarray(y, float),
        },
    )


def test_bernstein_partition_of_unity():
    for m in (5, 40, 160):
        B = bn.bernstein_basis_row(m, np.linspace(0.0, 1.0, 13))
        assert np.max(np.abs(B.sum(axis=1) - 1.0)) < 1e-12


def test_bernstein_derivative_basis_native():
    s = parse_poly("1 - x^2 - y^2")
    b = oracles.to_bernstein(s, (-2, 2, -2, 2), degrees=(40, 40))
    dx = b.derivative("x")
    assert isinstance(dx, bn.BernsteinPoly)
    xs = np.linspace(-1.9, 1.9, 50)
    assert np.max(np.abs(dx(xs, 0.3 * xs) - (-2 * xs))) < 1e-10


def test_degenerate_box_rejected():
    with pytest.raises(bn.DegenerateBox):
        bn.BernsteinPoly(np.ones((2, 2)), (1.0, 1.0, 0.0, 1.0))


def test_fit_constant_is_constant():
    f = bn.SampledField(value=lambda x, y: np.ones(np.broadcast(x, y).shape),
                        box=(0, 1, 0, 1))
    b = bn.bernstein_fit(f, 7, 3)
    pts = np.linspace(0, 1, 9)
    assert np.max(np.abs(b(pts, pts[::-1]) - 1.0)) < 1e-14


def test_fit_reproduces_linear():
    f = bn.SampledField(
        value=lambda x, y: np.asarray(x, float) + 0.0 * np.asarray(y, float),
        box=(0, 1, 0, 1),
        derivs={(1, 0): lambda x, y: np.ones(np.broadcast(x, y).shape),
                (0, 1): lambda x, y: np.zeros(np.broadcast(x, y).shape)},
    )
    b = bn.bernstein_fit(f, 5, 5)
    xs = np.linspace(0, 1, 37)
    assert np.max(np.abs(b(xs, xs**2) - xs)) < 1e-12


def test_second_moment_identity(xsq):
    # B(x^2) = x^2 + x(1-x)/m: deviation at 1/2 with m = 10 is exactly 0.025
    b = bn.bernstein_fit(xsq, 10, 2)
    dev = b(0.5, 0.25) - 0.25
    assert dev == pytest.approx(0.025, abs=1e-12)


def test_cr_error_frozen_values(paraboloid):
    b = bn.bernstein_fit(paraboloid, 40, 40)
    errs = bn.cr_error(paraboloid, b, r=2)
    # error polynomial is -(4-x^2)/m - (4-y^2)/n: frozen extrema on the box
    assert errs[(0, 0)] == pytest.approx(0.2, abs=1e-9)
    assert errs[(1, 0)] == pytest.approx(0.1, abs=1e-12)
    assert errs[(0, 1)] == pytest.approx(0.1, abs=1e-12)
    assert errs[(2, 0)] == pytest.approx(0.05, abs=1e-12)
    assert errs[(1, 1)] == pytest.approx(0.0, abs=1e-12)


def test_cr_error_monotone_in_degree(paraboloid):
    errors = []
    for m in (10, 20, 40, 80):
        b = bn.bernstein_fit(paraboloid, m, m)
        errors.append(bn.cr_error(paraboloid, b, r=0)[(0, 0)])
    assert all(b < a for a, b in zip(errors, errors[1:]))


def test_corner_interpolation(paraboloid):
    b = bn.bernstein_fit(paraboloid, 13, 9)
    for x in (-2.0, 2.0):
        for y in (-2.0, 2.0):
            assert abs(b(x, y) - paraboloid.value(x, y)) < 1e-12


def test_min_degree_linear_returns_one():
    f = bn.SampledField(
        value=lambda x, y: np.asarray(x, float) + 0.0 * np.asarray(y, float),
        box=(0, 1, 0, 1),
        derivs={(1, 0): lambda x, y: np.ones(np.broadcast(x, y).shape),
                (0, 1): lambda x, y: np.zeros(np.broadcast(x, y).shape)},
    )
    assert bn.min_degree_for_tolerance(f, (0, 1, 0, 1), 1, 1e-9) == (1, 1)


def test_min_degree_matches_analytic_threshold(paraboloid):
    # max error is 8/m at the center: 8/m < 0.25 gives m > 32 analytically;
    # m = 32 sits exactly on the boundary so float rounding may admit it
    m, n = bn.min_degree_for_tolerance(paraboloid, (-2, 2, -2, 2), 0, 0.25, cap=64)
    assert m == n and m in (32, 33)
    b31 = bn.bernstein_fit(paraboloid, 31, 31)
    assert bn.cr_error(paraboloid, b31, r=0)[(0, 0)] > 0.25
    b33 = bn.bernstein_fit(paraboloid, 33, 33)
    assert bn.cr_error(paraboloid, b33, r=0)[(0, 0)] < 0.25


def test_min_degree_trace_keeps_each_fit(paraboloid):
    box = (-2, 2, -2, 2)
    trace = []
    m, _ = bn.min_degree_for_tolerance(paraboloid, box, 1, 0.25, cap=64, grid_density=51,
                                       trace=trace)
    degrees = [d for d, _, _ in trace]
    assert len(set(degrees)) == len(degrees) and m in degrees
    for d, errs, fit in trace:
        fresh = bn.bernstein_fit(paraboloid, d, d, box)
        assert fit.box == fresh.box and np.array_equal(fit.grid, fresh.grid)
        assert set(errs) == {(0, 0), (0, 1), (1, 0)}


def test_min_degree_cap_exceeded(paraboloid):
    with pytest.raises(bn.CapExceeded) as exc:
        bn.min_degree_for_tolerance(paraboloid, (-2, 2, -2, 2), 0, 1e-4, cap=16)
    assert exc.value.best_errors[(0, 0)] > 0


def test_insufficient_derivatives():
    f = bn.SampledField(value=lambda x, y: np.asarray(x, float), box=(0, 1, 0, 1))
    b = bn.bernstein_fit(f, 4, 4)
    with pytest.raises(bn.InsufficientDerivatives):
        bn.cr_error(f, b, r=2)
    with pytest.raises(bn.InsufficientDerivatives):
        bn.min_degree_for_tolerance(f, (0, 1, 0, 1), 2, 0.1)


def test_missing_derivative_raises(paraboloid):
    # a derivative the field does not supply is an error, not a difference
    linear = bn.SampledField(
        value=lambda x, y: np.asarray(x, float) + 0.0 * np.asarray(y, float),
        box=(0, 1, 0, 1),
        derivs={(1, 0): lambda x, y: np.ones(np.broadcast(x, y).shape)},
    )
    assert linear.derivative(0, 0, 0.5, 0.5) == 0.5
    assert linear.derivative(1, 0, 0.5, 0.5) == 1.0
    for i, j in [(0, 1), (2, 0), (1, 1)]:
        with pytest.raises(bn.InsufficientDerivatives):
            linear.derivative(i, j, 0.5, 0.5)
    with pytest.raises(bn.InsufficientDerivatives):
        paraboloid.derivative(3, 0, 0.5, 0.5)


def test_r_max_is_the_order_supplied_in_full(paraboloid, xsq):
    def supplying(*keys):
        return bn.SampledField(value=paraboloid.value, box=paraboloid.box,
                               derivs={k: paraboloid.derivs[k] for k in keys})

    assert supplying().r_max == 0
    assert supplying((1, 0)).r_max == 0  # one first derivative is not order 1
    assert supplying((1, 0), (0, 1)).r_max == 1
    assert paraboloid.r_max == 2 and xsq.r_max == 2
    with pytest.raises(AttributeError):
        paraboloid.r_max = 3


def test_grid_density_floor(paraboloid):
    b = bn.bernstein_fit(paraboloid, 8, 8)
    with pytest.raises(ValueError):
        bn.cr_error(paraboloid, b, r=0, grid_density=20)


def test_derivative_consistency_check(paraboloid):
    assert oracles.check_consistency(paraboloid) < 1e-4
    broken = bn.SampledField(
        value=paraboloid.value, box=paraboloid.box,
        derivs={(1, 0): lambda x, y: 0.0 * np.asarray(x, float)},
    )
    with pytest.raises(bn.InsufficientDerivatives):
        oracles.check_consistency(broken)


def test_kingsley_convergence_all_orders():
    # transcendental test function: every |k| <= 2 error strictly shrinks
    f = canonical_function("wave", (-2, 2, -2, 2))
    b40 = bn.bernstein_fit(f, 40, 40)
    b160 = bn.bernstein_fit(f, 160, 160)
    e40 = bn.cr_error(f, b40, r=2)
    e160 = bn.cr_error(f, b160, r=2)
    for k in e40:
        assert e160[k] < e40[k]


def test_error_table_csv(tmp_path, paraboloid):
    b = bn.bernstein_fit(paraboloid, 10, 10)
    errs = bn.cr_error(paraboloid, b, r=1)
    path = tmp_path / "errors.csv"
    bn.error_table_csv([(10, 10, errs)], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "m,n,k_i,k_j,max_error"
    assert len(lines) == 1 + len(errs)
    assert lines[1].startswith("10,10,0,0,")


# the documented jet order: by total order, then by the x-order i
JET_KEYS = [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0), (0, 3), (1, 2), (2, 1), (3, 0)]

_coef = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


@st.composite
def _polys(draw):
    """Monomial or Bernstein polynomials of degree up to 5 in each variable."""
    if draw(st.booleans()):
        return Poly2.monomial(draw(st.dictionaries(
            st.tuples(st.integers(0, 5), st.integers(0, 5)), _coef, max_size=12)))
    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    grid = draw(st.lists(_coef, min_size=(m + 1) * (n + 1), max_size=(m + 1) * (n + 1)))
    ax, ay = draw(st.floats(-2, 1)), draw(st.floats(-2, 1))
    wx, wy = draw(st.floats(0.25, 3)), draw(st.floats(0.25, 3))
    return bn.BernsteinPoly(np.reshape(grid, (m + 1, n + 1)), (ax, ax + wx, ay, ay + wy))


@settings(max_examples=60, deadline=None)
@given(_polys(), st.integers(0, 3))
def test_jets_match_nested_derivatives_bit_for_bit(p, r):
    X, Y = bn.mesh((-1.5, 1.0, -0.5, 2.0), 9)
    got = bn.jets(p, r, X, Y)
    assert list(got) == JET_KEYS[: (r + 1) * (r + 2) // 2]
    for (i, j), values in got.items():
        assert np.array_equal(values, p.derivative("x", i).derivative("y", j)(X, Y))


@pytest.mark.parametrize("name", sorted(CANONICAL_FUNCTIONS))
def test_jets_of_sampled_field_are_its_derivatives(name):
    f = canonical_function(name, (-2, 2, -2, 2))
    X, Y = bn.mesh(f.box, 11)
    got = bn.jets(f, 2, X, Y)
    assert list(got) == JET_KEYS[:6]
    for (i, j), values in got.items():
        assert np.array_equal(values, f.derivative(i, j, X, Y))
