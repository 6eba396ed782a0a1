import gc
import math
import weakref
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.polynomial.legendre import leggauss

import oracles
from cyclelab import cycles as cy
from cyclelab import flow
from cyclelab.bernstein import SampledField, bernstein_fit
from cyclelab.field import (
    CollapseField, PolyVectorField, ck_system, collapse_integrands, divergence,
    gradient_collapse_family, rotate_family, vanderpol,
)
from cyclelab.poly2 import Poly2, add, parse_poly, scale

S = parse_poly("1 - x^2 - y^2")


def eps_perp(X, eps):
    pp = oracles.perp(X)
    return PolyVectorField(scale(pp.P, eps), scale(pp.Q, eps))


def test_section_construction_and_transversality(ck):
    sec = cy.section_for_field(ck[1], (1.0, 0.0))
    assert sec.xi_of(sec.point_at(0.3)) == pytest.approx(0.3, abs=1e-15)
    # direction points outward: xi < 0 on the interior component
    assert sec.xi_of((0.7, 0.0)) < 0 < sec.xi_of((1.2, 0.0))
    with pytest.raises(ValueError):
        cy.section_for_field(ck[1], (0.0, 0.0))  # singular base
    with pytest.raises(ValueError):
        # a section along the flow direction is not transversal
        sec_bad = cy.Section(base=(1.0, 0.0), direction=(0.0, 1.0), half_length=0.3)
        sec_bad.check_transversal(ck[1])


@pytest.mark.parametrize("half", [0.0, -0.55, math.nan, math.inf])
def test_section_rejects_a_half_length_that_is_not_finite_and_positive(ck, half):
    """With no segment every orbit ran to t_max and every d(xi) call failed,
    so a census came back empty and reports passed saying nothing."""
    with pytest.raises(ValueError, match="half_length"):
        cy.Section(base=(1.0, 0.0), direction=(1.0, 0.0), half_length=half)
    with pytest.raises(ValueError, match="half_length"):
        cy.section_for_field(ck[1], (1.0, 0.0), half)


@settings(max_examples=200, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(0.0, 2 * math.pi),
       st.floats(-1.0, 1.0))
def test_section_geometry_has_point_at_bits(bx, by, angle, xi):
    sec = cy.Section(base=(bx, by), direction=(math.cos(angle), math.sin(angle)),
                     half_length=0.5)
    gx, gy, nx, ny, tx, ty, half = sec.geometry
    assert np.array([gx + xi * tx, gy + xi * ty]).tobytes() == sec.point_at(xi).tobytes()
    assert np.array([nx, ny]).tobytes() == sec.normal.tobytes()
    assert np.array([gx, gy, tx, ty, half]).tobytes() == np.array(
        [*sec.base, *sec.direction, sec.half_length]).tobytes()


def test_return_map_examples(ck, section):
    assert cy.return_map(ck[1], section, 0.0) == pytest.approx(0.0, abs=1e-10)
    pi_neg = cy.return_map(ck[1], section, -0.5)
    assert -0.5 < pi_neg < 0.0
    # oracle agreement
    want = oracles.ck1_exact_map(0.5) - 1.0
    assert pi_neg == pytest.approx(want, abs=1e-9)
    # semi-stable CK(2): inside approaches, outside recedes (and far enough
    # out the quintic growth escapes before the first return)
    pi_out = cy.return_map(ck[2], section, 0.02)
    assert pi_out > 0.02
    pi_in = cy.return_map(ck[2], section, -0.1)
    assert -0.1 < pi_in < 0.0
    with pytest.raises((flow.Divergence, flow.StepUnderflow)):
        cy.return_map(ck[2], section, 0.2)


def test_displacement_signs_ck3(ck, section):
    assert cy.displacement(ck[3], section, -0.1) > 0
    assert cy.displacement(ck[3], section, 0.1) < 0
    assert cy.displacement(ck[3], section, 0.0) == pytest.approx(0.0, abs=1e-10)


def test_find_cycles_ck1(ck, section):
    cens = cy.find_cycles(ck[1], section, (-0.5, 0.5), 25)
    assert len(cens) == 1
    assert cens[0].xi_star == pytest.approx(0.0, abs=1e-8)
    assert cens[0].mean_radius == pytest.approx(1.0, abs=1e-8)


def test_find_cycles_split_ck3(ck, section):
    lam = 0.02
    fam = gradient_collapse_family(ck[3], S, lam)
    cens = cy.find_cycles(fam, section, (-0.3, 0.3), 25)
    assert len(cens) == 3
    targets = oracles.collapse_ck3_radii(lam)
    for c, t in zip(cens, targets):
        assert c.mean_radius == pytest.approx(t, abs=1e-6)
    assert [c.stability for c in cens] == ["stable", "unstable", "stable"]


_return_coordinate = st.one_of(st.floats(-3.0, 3.0), st.floats(-1e-300, 1e-300),
                               st.sampled_from([0.0, -0.0, 5e-324, 1e300, -1e300]))


@settings(max_examples=200, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(0.0, 2 * math.pi),
       st.lists(st.tuples(st.floats(-1.0, 1.0), _return_coordinate, _return_coordinate),
                max_size=40),
       st.booleans())
@example(0.0, 0.0, 0.0, [], True)
@example(1.0, 0.0, 0.3, [(0.1, 1.0, 0.0), (-0.2, -0.0, 5e-324)], False)
def test_displacement_row_is_xi_of_bit_for_bit(bx, by, angle, returns, fails):
    """A row's d(xi) values are xi_of(point) - xi of its returns, bit for bit,
    and a row that ends in an OrbitFailure keeps it there."""
    sec = cy.Section(base=(bx, by), direction=(math.cos(angle), math.sin(angle)),
                     half_length=0.5)
    xis = [xi for xi, _, _ in returns] + [0.25, 0.5]
    hits = [(1.0, np.array([px, py])) for _, px, py in returns]
    failure = flow.NoCrossing("no return")
    if fails:
        hits.append(failure)
    row = cy._displacement_row(sec, xis, hits)
    ref = [sec.xi_of(p) - xi for xi, (_, p) in zip(xis, hits[:len(returns)])]
    assert [v.hex() for v in row[:len(returns)]] == [v.hex() for v in ref]
    assert row[len(returns):] == ([failure] if fails else [])


def _counting_displacement(monkeypatch, fail_inside=None):
    """Record every d(xi) argument; raise NoCrossing strictly inside fail_inside."""
    calls = []
    real = cy.displacement

    def d(X, section, xi, *args, **kwargs):
        calls.append(xi)
        if fail_inside is not None and fail_inside[0] < xi < fail_inside[1]:
            raise flow.NoCrossing("injected")
        return real(X, section, xi, *args, **kwargs)

    monkeypatch.setattr(cy, "displacement", d)
    return calls


def test_find_cycles_brent_calls_per_root(ck, section, monkeypatch):
    lam = 0.02
    fam = gradient_collapse_family(ck[3], S, lam)
    calls = _counting_displacement(monkeypatch)
    cens = cy.find_cycles(fam, section, (-0.3, 0.3), 25)
    seeds = np.linspace(-0.3, 0.3, 25)
    assert np.array_equal(calls[:25], seeds)
    solves = np.array(calls[25:])
    assert len(cens) == 3
    in_brackets = 0
    for c, t in zip(cens, oracles.collapse_ck3_radii(lam)):
        assert abs(c.mean_radius - t) < 1e-8
        k = np.searchsorted(seeds, c.xi_star) - 1
        in_bracket = int(np.sum((seeds[k] < solves) & (solves < seeds[k + 1])))
        assert in_bracket <= 10
        in_brackets += in_bracket
    # every call beyond the seeds is a root's solve, inside its bracket
    assert len(solves) == in_brackets


def _scipy_brentq(f, a, b, **kwargs):
    from scipy.optimize import brentq

    root, info = brentq(f, a, b, xtol=1e-12, full_output=True, **kwargs)
    return root.hex(), info.function_calls


def _port_brentq(f, a, b):
    # the port takes the end values; SciPy counts the two calls they cost
    calls = [a, b]

    def counted(x):
        calls.append(x)
        return f(x)

    root = cy._brentq(counted, a, b, f(a), f(b))
    return root.hex(), len(calls)


_BRENT_CASES = {
    "flat_triple_root": (lambda x: 1e-9 * (x - 0.3) ** 3 + 1e-17, -0.2, 0.9),
    "zero_at_left_end": (lambda x: x * (x + 2.0), 0.0, 1.0),
    "zero_at_right_end": (lambda x: (x - 0.5) ** 3, -1.0, 0.5),
    "steep_tanh": (lambda x: math.tanh(400.0 * (x - 0.1234)), -1.0, 1.0),
    "kink": (lambda x: math.copysign(abs(x - 0.7) ** 0.25, x - 0.7), 0.0, 3.0),
}


@pytest.mark.parametrize("case", sorted(_BRENT_CASES))
def test_brentq_port_matches_scipy(case):
    f, a, b = _BRENT_CASES[case]
    assert _port_brentq(f, a, b) == _scipy_brentq(f, a, b)
    assert _port_brentq(f, b, a) == _scipy_brentq(f, b, a)


@settings(max_examples=200, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.sampled_from(range(4)))
def test_brentq_port_matches_scipy_on_random_brackets(a, b, k):
    f = [lambda x: 1e-9 * (x - 0.3) ** 3 + 1e-17,
         lambda x: math.tanh(50.0 * (x - 0.1)),
         lambda x: math.cos(x) - x,
         lambda x: (x - 0.2) * (x + 0.7) * (x - 1.3) + 1e-3 * math.sin(40.0 * x)][k]
    try:
        ref = _scipy_brentq(f, a, b)
    except ValueError:
        with pytest.raises(ValueError):
            _port_brentq(f, a, b)
        return
    assert _port_brentq(f, a, b) == ref


def test_brentq_port_errors_match_scipy(monkeypatch):
    same_sign = lambda x: x * x + 1.0  # noqa: E731
    steep = _BRENT_CASES["steep_tanh"][0]
    for solve in (_scipy_brentq, _port_brentq):
        with pytest.raises(ValueError):
            solve(same_sign, -1.0, 1.0)
    with pytest.raises(RuntimeError):
        _scipy_brentq(steep, -1.0, 1.0, maxiter=3)
    monkeypatch.setattr(cy, "_BRENT_MAXITER", 3)
    with pytest.raises(RuntimeError):
        _port_brentq(steep, -1.0, 1.0)


@pytest.mark.parametrize("ftol", [1e-12, 1e-14, 1e-16])
@pytest.mark.parametrize("a,b", [(-0.2, 0.9), (0.9, -0.2), (0.297, 0.3)])
def test_brentq_ftol_stops_at_the_first_point_below_it(a, b, ftol):
    """With ftol > 0 the root is the first point, the smaller-|f| bracket end
    first, whose |f| is below ftol, and no call follows it."""
    f = _BRENT_CASES["flat_triple_root"][0]
    seen = []

    def counted(x):
        seen.append(x)
        return f(x)

    root = cy._brentq(counted, a, b, f(a), f(b), ftol=ftol)
    near_end = min((a, b), key=lambda x: abs(f(x)))
    assert root == next(x for x in [near_end] + seen if abs(f(x)) < ftol)
    calls = len(seen)
    seen.clear()
    cy._brentq(counted, a, b, f(a), f(b))
    assert calls < len(seen)


@pytest.mark.parametrize("tol", [1e-10, 1e-11])
@pytest.mark.parametrize("k", [3, 5])
def test_find_cycles_multiple_root_stops_in_the_noise_band(section, k, tol):
    """On a window whose seeds miss the exact cycle at xi = 0, the root of a
    flat odd-degree d lands within twice the closed-form band where |d| is
    below the integrator tolerance."""
    X = ck_system(k)
    cens = cy.find_cycles(X, section, (-0.29, 0.31), 25, tol=tol)
    assert len(cens) == 1
    assert abs(cens[0].xi_star) <= 2 * oracles.noise_band(k, tol)
    assert abs(cy.displacement(X, section, cens[0].xi_star, tol)) < tol


def test_find_cycles_ck3_root_is_the_seed_at_zero(ck, section, monkeypatch):
    """|d| at the seed xi = 0 is below tol, so Brent returns that bracket end
    without a call, and the cycle is the exact, non-hyperbolic one."""
    assert np.linspace(-0.3, 0.3, 25)[12] == 0.0
    calls = _counting_displacement(monkeypatch)
    cens = cy.find_cycles(ck[3], section, (-0.3, 0.3), 25, tol=1e-10)
    assert len(cens) == 1
    assert cens[0].xi_star == 0.0
    assert len(calls) == 25
    assert cens[0].stability == "non-hyperbolic"


def test_find_cycles_drops_a_root_whose_solve_fails(ck, section, monkeypatch):
    lam = 0.02
    fam = gradient_collapse_family(ck[3], S, lam)
    r_in = oracles.collapse_ck3_radii(lam)[0]
    seeds = np.linspace(-0.3, 0.3, 25)
    k = np.searchsorted(seeds, section.xi_of((r_in, 0.0))) - 1
    _counting_displacement(monkeypatch, fail_inside=(seeds[k], seeds[k + 1]))
    cens = cy.find_cycles(fam, section, (-0.3, 0.3), 25)
    assert len(cens) == 2
    for c, t in zip(cens, oracles.collapse_ck3_radii(lam)[1:]):
        assert abs(c.mean_radius - t) < 1e-8


def test_find_cycles_empty_for_contracted_rotation(ck, section):
    fam = rotate_family(ck[2], -0.1, 0.1)  # lam*eps = -0.01: r' > 0 everywhere
    cens = cy.find_cycles(fam, section, (-0.3, 0.3), 15)
    assert cens == []


def _nearest_of_census(X, section, xi_range, n_seeds, tol):
    """What nearest_cycle must return: the census cycle nearest xi = 0, the
    first in ascending xi on a tie."""
    census = cy.find_cycles(X, section, xi_range, n_seeds, tol)
    if not census:
        raise ValueError("no cycle found in the configured xi range")
    return min(census, key=lambda c: abs(c.xi_star))


def _both_nearest(X, section, xi_range, n_seeds, tol):
    """(result, d(xi) arguments) of the census reference, then of
    nearest_cycle; a result is the cycle or the ValueError message."""
    out = []
    for search in (_nearest_of_census, cy.nearest_cycle):
        calls = []
        real = cy.displacement

        def d(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cy, "displacement", d)
            try:
                got = search(X, section, xi_range, n_seeds, tol)
            except ValueError as exc:
                got = str(exc)
        out.append((got, calls))
    return out


def _assert_same_cycle(a, b):
    if isinstance(a, str) or isinstance(b, str):
        assert a == b == "no cycle found in the configured xi range"
        return
    assert a.xi_star.hex() == b.xi_star.hex()
    assert a.period.hex() == b.period.hex()
    assert a.exponent.hex() == b.exponent.hex()
    assert a.points.tobytes() == b.points.tobytes()


@cache
def _nearest_system(name):
    """(field, section) of each system the nearest-cycle property runs on."""
    if name == "vanderpol(1.0)":
        X = vanderpol(1.0)
        return X, cy.section_for_field(X, (2.0, 0.0))
    if name == "CK(3) collapse":
        X = gradient_collapse_family(ck_system(3), S, 0.02)
    else:
        X = ck_system(int(name[3]))
    return X, cy.section_for_field(ck_system(1), (1.0, 0.0))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["CK(1)", "CK(2)", "CK(3)", "CK(5)", "vanderpol(1.0)",
                        "CK(3) collapse"]),
       st.floats(-0.4, 0.2), st.floats(0.05, 0.6), st.integers(2, 25),
       st.sampled_from([1e-10, 1e-11]))
def test_nearest_cycle_is_the_census_cycle_nearest_zero(name, lo, width, n_seeds, tol):
    """The same cycle, bit for bit, on windows with and without the cycle
    (CK(2)'s outer seeds escape), from no more d(xi) calls than the census."""
    X, section = _nearest_system(name)
    (want, census_calls), (got, calls) = _both_nearest(X, section, (lo, lo + width),
                                                        n_seeds, tol)
    _assert_same_cycle(got, want)
    assert len(calls) <= len(census_calls)


@pytest.mark.parametrize("system,xi_range,calls", [
    ("CK(3)", (-0.3, 0.3), (25, 3)),
    ("CK(3)", (-0.29, 0.31), (41, 18)),
    ("CK(5)", (-0.29, 0.31), (30, 7)),
    ("vanderpol(1.0)", (-0.3, 0.3), (27, 5)),
])
def test_nearest_cycle_calls(system, xi_range, calls):
    X, section = _nearest_system(system)
    (want, census_calls), (got, nearest_calls) = _both_nearest(X, section, xi_range, 25,
                                                               1e-10)
    _assert_same_cycle(got, want)
    assert (len(census_calls), len(nearest_calls)) == calls


def _synthetic_d(roots, fail=(), sign=1.0):
    """A stand-in for displacement: d(xi) = sign * prod(xi - r over roots),
    which raises NoCrossing strictly inside each fail interval."""
    def d(X, section, xi, tol=None, **kwargs):
        if any(a < xi < b for a, b in fail):
            raise flow.NoCrossing("injected")
        return sign * math.prod(xi - r for r in roots)

    return d


def _stub_cycle(X, section, xi, tol=None):
    """A stand-in for build_cycle that integrates nothing."""
    return cy.LimitCycle(section=section, xi_star=float(xi), period=0.0,
                         points=np.zeros((1, 2)), exponent=0.0)


def _synthetic_nearest(monkeypatch, roots, xi_range, n_seeds, fail=(), sign=1.0):
    """nearest_cycle's result and d(xi) arguments on _synthetic_d(roots,
    fail, sign), checked against the census reference of _both_nearest.
    build_cycle is stubbed."""
    monkeypatch.setattr(cy, "displacement", _synthetic_d(roots, fail, sign))
    monkeypatch.setattr(cy, "build_cycle", _stub_cycle)
    (want, census_calls), (got, calls) = _both_nearest(None, None, xi_range, n_seeds, 0.0)
    _assert_same_cycle(got, want)
    assert len(calls) <= len(census_calls)
    return got, calls


def test_nearest_cycle_tie_takes_the_lower_root(monkeypatch):
    # seeds -1, -0.5, 0, 0.5, 1: exact zeros at both +-0.5, and no root solve
    got, calls = _synthetic_nearest(monkeypatch, [-0.5, 0.5], (-1.0, 1.0), 5)
    assert got.xi_star == -0.5 and set(calls) <= {-1.0, -0.5, 0.0, 0.5, 1.0}
    # Brent returns the seeds +-0.5 from the brackets [0, 0.5], at distance
    # 0, and [-1, -0.5], at distance 0.5, after one call in the latter: the
    # tie needs the farther bracket
    got, calls = _synthetic_nearest(monkeypatch, [-0.5 - 1e-13, 0.5 - 1e-13], (-1.0, 1.0), 5)
    assert got.xi_star == -0.5 and sum(-1.0 < xi < -0.5 for xi in calls) == 1


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_nearest_cycle_merge_across_a_seed_keeps_the_lower_root(monkeypatch, sign):
    # -0.5 - 4e-9 and -0.5 + 3e-9 merge into the lower, farther root, whose
    # bracket lies outward of the nearer one's
    got, _ = _synthetic_nearest(monkeypatch, [-0.5 - 4e-9, -0.5 + 3e-9], (-1.0, 1.0), 5,
                                sign=sign)
    assert abs(got.xi_star - (-0.5 - 4e-9)) < 1e-11
    # seeds 1.5e-8 apart, a root in each of three brackets, each within 1e-8
    # of the one below: the middle one merges into the lowest, so the top
    # one, the nearest, stays
    lo = -0.1
    h = 1.5e-8
    roots = [lo + h - 2e-9, lo + h + 7e-9, lo + 2 * h + 1e-9]
    got, _ = _synthetic_nearest(monkeypatch, roots, (lo, lo + 4 * h), 5, sign=sign)
    assert abs(got.xi_star - roots[2]) < 1e-12


@pytest.mark.parametrize("spacing", [2e-9, 1e-8])
def test_nearest_cycle_chains_at_fine_seed_spacing(monkeypatch, spacing):
    lo = -2e-8
    roots = [lo + k * spacing + 1e-10 for k in range(1, 8)]
    _synthetic_nearest(monkeypatch, roots, (lo, lo + 9 * spacing), 10)


def test_nearest_cycle_zero_at_seeds(monkeypatch):
    # a zero at the last seed is a root of its own, found with no root solve
    got, calls = _synthetic_nearest(monkeypatch, [1.0, 2.0], (0.5, 1.0), 3)
    assert got.xi_star == 1.0 and set(calls) <= {0.5, 0.75, 1.0}
    # a zero at a seed whose upper neighbour fails is no root
    got, _ = _synthetic_nearest(monkeypatch, [0.25, 0.9], (0.0, 1.0), 5,
                                fail=[(0.49, 0.51)])
    assert abs(got.xi_star - 0.9) < 1e-11
    # a zero at the seed xi = 0 and Brent roots beside it
    got, _ = _synthetic_nearest(monkeypatch, [-0.1, 0.0, 0.1], (-1.0, 1.0), 5)
    assert got.xi_star == 0.0


def test_nearest_cycle_drops_a_bracket_whose_solve_fails(monkeypatch):
    got, _ = _synthetic_nearest(monkeypatch, [0.1, -0.3], (-1.0, 1.0), 5,
                                fail=[(0.05, 0.15)])
    assert abs(got.xi_star - (-0.3)) < 1e-11


def test_nearest_cycle_empty_census_raises(monkeypatch):
    got, _ = _synthetic_nearest(monkeypatch, [], (-1.0, 1.0), 5)
    assert got == "no cycle found in the configured xi range"
    got, _ = _synthetic_nearest(monkeypatch, [0.5], (-1.0, 1.0), 5, fail=[(0.4, 0.6)])
    assert got == "no cycle found in the configured xi range"


_OFFSETS = st.sampled_from([0.0, 1e-9, -1e-9, 4e-9, -4e-9, 6e-9, -6e-9, 1.2e-8, -1.2e-8])


@st.composite
def _synthetic_cases(draw):
    """(roots, xi_range, n_seeds, fail intervals, sign): roots at or within
    a few merge distances of seeds or anywhere in a bracket, optionally
    mirrored for ties at +-a; windows symmetric with exact seeds, arbitrary,
    or with seed spacing at or below the merge distance."""
    kind = draw(st.sampled_from(["symmetric", "arbitrary", "fine"]))
    if kind == "symmetric":
        lo, hi, n = -1.0, 1.0, draw(st.sampled_from([3, 5, 9]))
    else:
        n = draw(st.integers(2, 12))
        lo = draw(st.floats(-1.0, 0.9))
        step = draw(st.sampled_from([5e-9, 1e-8, 1.5e-8]) if kind == "fine"
                    else st.floats(1e-3, 0.2))
        hi = lo + (n - 1) * step
    seeds = np.linspace(lo, hi, n)
    h = (hi - lo) / (n - 1)
    offset = _OFFSETS | st.floats(0.0, 1.0).map(lambda t: t * h)
    roots = [float(seeds[i]) + off for i, off in
             draw(st.lists(st.tuples(st.integers(0, n - 1), offset), max_size=5))]
    if draw(st.booleans()):
        roots += [-r for r in roots]
    roots = sorted(set(roots))  # simple roots: Brent may not converge at a multiple one
    fail = []
    for i, inside in draw(st.lists(st.tuples(st.integers(0, n - 1), st.booleans()),
                                   max_size=2)):
        s = float(seeds[i])
        fail.append((s + 0.2 * h, s + 0.8 * h) if inside else (s - 0.1 * h, s + 0.1 * h))
    return roots, (lo, hi), n, fail, draw(st.sampled_from([1.0, -1.0]))


@settings(max_examples=300, deadline=None)
@given(_synthetic_cases())
def test_nearest_cycle_matches_the_census_on_synthetic_displacements(case):
    roots, xi_range, n, fail, sign = case
    with pytest.MonkeyPatch.context() as mp:
        _synthetic_nearest(mp, roots, xi_range, n, fail, sign)


def _nearest_hex(roots):
    """The root nearest xi = 0, the lower on a tie, as float.hex; None for none."""
    return float(min(roots, key=lambda r: (abs(r), r))).hex() if roots else None


@settings(max_examples=300, deadline=None)
@given(_synthetic_cases())
def test_census_matches_the_reference_census(case):
    """find_cycles' roots and nearest_cycle's root, by float.hex, are those
    of oracles.census_roots, the census rule as one eager sort-and-sweep."""
    roots, xi_range, n, fail, sign = case
    d = _synthetic_d(roots, fail, sign)
    want = oracles.census_roots(lambda xi: d(None, None, xi), np.linspace(*xi_range, n), 0.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cy, "displacement", d)
        mp.setattr(cy, "build_cycle", _stub_cycle)
        census = cy.find_cycles(None, None, xi_range, n, 0.0)
        try:
            nearest = cy.nearest_cycle(None, None, xi_range, n, 0.0).xi_star.hex()
        except ValueError:
            nearest = None
    assert [c.xi_star.hex() for c in census] == [float(r).hex() for r in want]
    assert nearest == _nearest_hex(want)


@pytest.mark.parametrize("name, xi_range", [
    ("CK(3)", (-0.29, 0.31)), ("CK(5)", (-0.29, 0.31)), ("CK(3) collapse", (-0.3, 0.3)),
    ("vanderpol(1.0)", (-0.3, 0.3)),
])
def test_census_matches_the_reference_census_on_fields(name, xi_range):
    X, section = _nearest_system(name)
    seeds = np.linspace(*xi_range, 25)
    want = oracles.census_roots(lambda xi: cy.displacement(X, section, xi, 1e-10), seeds, 1e-10)
    census = cy.find_cycles(X, section, xi_range, 25, 1e-10)
    assert [c.xi_star.hex() for c in census] == [float(r).hex() for r in want]
    assert cy.nearest_cycle(X, section, xi_range, 25, 1e-10).xi_star.hex() == _nearest_hex(want)


def test_census_is_freed_without_the_cycle_collector(ck, section):
    """A census is in no reference cycle: once its cycles() has run, it is
    freed, and its stored returns with it, as soon as its last reference
    goes, with the cyclic garbage collector off."""
    census = cy._Census(ck[3], section, (-0.3, 0.3), 25, cy.DEFAULT_CYCLE_TOL)
    assert census.cycles()
    freed = weakref.ref(census)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del census
        assert freed() is None
    finally:
        if enabled:
            gc.enable()


def test_census_merge_boundary_is_inclusive(monkeypatch):
    """Two roots exactly _MERGE_XI apart are one cycle, the lower: with d = 0
    everywhere on (0, 1e-8) and two seeds, both seeds are roots, and the
    census keeps only the first, as oracles.census_roots does."""
    monkeypatch.setattr(cy, "displacement", lambda X, section, xi, tol=None, **kwargs: 0.0)
    monkeypatch.setattr(cy, "build_cycle", _stub_cycle)
    xi_range = (0.0, 1e-8)
    assert xi_range[1] - xi_range[0] == cy._MERGE_XI
    census = cy._Census(None, None, xi_range, 2, 0.0)
    assert [census.kept(a) for a in range(2)] == [0.0, None]
    want = oracles.census_roots(lambda xi: 0.0, np.linspace(*xi_range, 2), 0.0)
    assert want == [0.0]
    assert ([c.xi_star.hex() for c in cy.find_cycles(None, None, xi_range, 2, 0.0)]
            == [float(r).hex() for r in want])
    assert cy.nearest_cycle(None, None, xi_range, 2, 0.0).xi_star.hex() == _nearest_hex(want)


@pytest.mark.parametrize("census", [cy.find_cycles, cy.nearest_cycle])
@pytest.mark.parametrize("xi_range", [(0.3, -0.3), (0.3, 0.3), (-math.inf, 0.3),
                                      (-0.3, math.nan), (-0.3, math.inf)])
def test_census_rejects_a_window_that_is_not_finite_and_ascending(census, xi_range,
                                                                   monkeypatch):
    calls = _counting_displacement(monkeypatch)
    with pytest.raises(ValueError, match="xi_range"):
        census(None, None, xi_range, 5, 0.0)
    assert calls == []


def test_cycle_invariants(ck, section):
    c = cy.build_cycle(ck[1], section, 0.0)
    assert abs(cy.displacement(ck[1], section, c.xi_star)) < 1e-10
    assert c.closure_error() < 1e-8
    assert c.period == pytest.approx(2 * np.pi, abs=1e-8)


@pytest.mark.parametrize("k,expected", [(1, 1), (2, 2), (3, 3)])
def test_multiplicity(ck, section, k, expected):
    est = cy.multiplicity(ck[k], section, 0.0)
    assert est.d == expected


def test_multiplicity_ck1_coefficient(ck, section):
    est = cy.multiplicity(ck[1], section, 0.0)
    assert est.coefficients[1] == pytest.approx(np.exp(-4 * np.pi) - 1.0, abs=1e-6)


def test_multiplicity_guards(ck, ck_cycles):
    with pytest.raises(ValueError):
        cy.multiplicity(ck[1], ck_cycles[1], d_max=7)


def test_multiplicity_reversal_fallback(ck, section):
    # strongly repelling cycle: the reversed CK(1) still reports d = 1
    rev = PolyVectorField(scale(ck[1].P, -1.0), scale(ck[1].Q, -1.0))
    est = cy.multiplicity(rev, section, 0.0)
    assert est.d == 1


def test_characteristic_exponents(ck, ck_cycles):
    assert ck_cycles[1].exponent == pytest.approx(-4 * np.pi, abs=1e-8)
    for k in (2, 3):
        assert ck_cycles[k].exponent == pytest.approx(0.0, abs=1e-8)


def test_middle_cycle_exponent_eq7_sign_law(ck, section):
    # strictly positive and within 1% of 8 pi lam across the lambda sweep
    for lam in (0.005, 0.01, 0.02, 0.04):
        fam = gradient_collapse_family(ck[3], S, lam)
        cens = cy.find_cycles(fam, section, (-0.35, 0.35), 29)
        mid = min(cens, key=lambda c: abs(c.xi_star))
        assert mid.exponent > 0
        assert mid.exponent == pytest.approx(8 * np.pi * lam, rel=0.01)


def test_divergence_integral_terms(ck, section):
    lam = 0.02
    fam = gradient_collapse_family(ck[3], S, lam)
    cens = cy.find_cycles(fam, section, (-0.3, 0.3), 25)
    mid = cens[1]
    ib, ig, il = cy.divergence_integral_terms(ck[3], S, lam, mid)
    assert ib == pytest.approx(0.0, abs=1e-6)
    assert ig == pytest.approx(0.16 * np.pi, abs=1e-6)
    assert il == pytest.approx(0.0, abs=1e-6)
    assert ib + ig + il == pytest.approx(cy.characteristic_exponent(fam, mid), abs=1e-8)


def test_divergence_terms_degenerate_cases(ck, ck_cycles):
    from cyclelab.poly2 import Poly2
    ib, ig, il = cy.divergence_integral_terms(ck[1], S, 0.0, ck_cycles[1])
    assert ig == 0.0 and il == 0.0
    assert ib == pytest.approx(ck_cycles[1].exponent, abs=1e-8)
    ib2, ig2, il2 = cy.divergence_integral_terms(ck[1], Poly2.constant(1.0), 0.7,
                                                 ck_cycles[1])
    assert ig2 == 0.0 and il2 == 0.0


def test_divergence_terms_sum_identity_random_lambda(ck, section, rng):
    lam = float(rng.uniform(0.005, 0.05))
    fam = gradient_collapse_family(ck[3], S, lam)
    cens = cy.find_cycles(fam, section, (-0.35, 0.35), 29)
    mid = min(cens, key=lambda c: abs(c.xi_star))
    ib, ig, il = cy.divergence_integral_terms(ck[3], S, lam, mid)
    assert ib + ig + il == pytest.approx(cy.characteristic_exponent(fam, mid), abs=1e-8)


def test_gradient_square_integral_is_i_grad_over_lambda(ck, ck_cycles):
    lam = 0.02
    got = cy.gradient_square_integral(S, ck_cycles[3])
    assert float(got * lam).hex() == float(
        cy.divergence_integral_terms(ck[3], S, lam, ck_cycles[3])[1]).hex()
    # |grad S|^2 = 4 on the unit circle, over one period 2 pi
    assert got == pytest.approx(8 * np.pi, abs=1e-9)


def test_perko_derivative_closed_form(ck, section):
    eps = 0.1
    for k in (2, 3):
        cyc = cy.build_cycle(ck[k], section, 0.0)
        val = cy.perko_derivative(ck[k], eps_perp(ck[k], eps), cyc)
        assert val == pytest.approx(2 * np.pi * eps, abs=1e-8)
    # CK(1): div X = -2 and X ^ eps*perp(X) = eps on the unit circle, so
    # A(t) = -2t and the integral is eps (e^(4 pi) - 1) / 2
    val = cy.perko_derivative(ck[1], eps_perp(ck[1], eps), cy.build_cycle(ck[1], section, 0.0))
    assert val == pytest.approx(eps * np.expm1(4 * np.pi) / 2, rel=1e-8)


def test_perko_self_wedge_vanishes(ck, ck_cycles):
    assert cy.perko_derivative(ck[2], ck[2], ck_cycles[2]) == pytest.approx(0.0, abs=1e-10)


def test_perko_ratio_constant_over_lambda(ck, section):
    # finite-difference displacement derivative vs the integral: the ratio
    # (the unknown positive prefactor) is constant across lambda
    eps = 0.1
    cyc = cy.build_cycle(ck[2], section, 0.0)
    pk = cy.perko_derivative(ck[2], eps_perp(ck[2], eps), cyc)
    ratios = []
    for lam in (1e-4, 2e-4, 4e-4):
        d = cy.displacement(rotate_family(ck[2], lam, eps), section, 0.0)
        ratios.append((d / lam) / pk)
    base = ratios[0]
    assert all(abs(r / base - 1.0) < 0.01 for r in ratios)


@pytest.mark.parametrize("k", [1, 2, 3, 5])
@pytest.mark.parametrize("orientation", [1.0, -1.0])
def test_perko_derivative_gives_the_displacement_slope(section, k, orientation):
    """d/dlam d(xi*; lam) = exp(K) * M / (X(p0) ^ u) for the rotated family,
    M = perko_derivative, K the cycle's exponent, u the section direction:
    the constant and the sign of the identity, on either orientation of u."""
    X, eps, lam = ck_system(k), 0.1, 1e-5
    sec = cy.Section(section.base, orientation * section.direction, section.half_length)
    cyc = cy.build_cycle(X, sec, 0.0, 1e-12)
    p, q = X(*sec.point_at(cyc.xi_star))
    u = sec.direction
    slope = math.exp(cyc.exponent) * cy.perko_derivative(X, eps_perp(X, eps), cyc) / (
        p * u[1] - q * u[0])
    d = cy.displacement(rotate_family(X, lam, eps), sec, cyc.xi_star, 1e-12)
    assert d / lam == pytest.approx(slope, rel=1e-4)


def test_multiplier_identity(ck, section):
    # exp(exponent) equals the variational return-map derivative
    c1 = cy.build_cycle(ck[1], section, 0.0)
    mult = oracles.return_map_derivative(ck[1], c1)
    assert mult == pytest.approx(np.exp(-4 * np.pi), rel=1e-8)
    assert np.exp(c1.exponent) == pytest.approx(mult, rel=1e-6)
    # and on every hyperbolic cycle produced by the splitting
    fam = gradient_collapse_family(ck[3], S, 0.02)
    for c in cy.find_cycles(fam, section, (-0.3, 0.3), 25):
        mult = oracles.return_map_derivative(fam, c)
        assert np.exp(c.exponent) == pytest.approx(mult, rel=1e-6)


def test_theorem1_splitting_exact(ck, section):
    cyc = cy.build_cycle(ck[3], section, 0.0)
    rep = cy.theorem1_splitting(ck[3], cyc, S, 0.02)
    assert rep.success and not rep.time_reversed
    assert len(rep.census) == 3
    assert rep.alternating
    targets = oracles.collapse_ck3_radii(0.02)
    for c, t in zip(rep.census, targets):
        assert c.mean_radius == pytest.approx(t, abs=1e-5)
    assert rep.middle_exponent == pytest.approx(8 * np.pi * 0.02, rel=0.01)


def test_theorem1_splitting_rejects_hyperbolic(ck, section):
    cyc = cy.build_cycle(ck[1], section, 0.0)
    with pytest.raises(ValueError):
        cy.theorem1_splitting(ck[1], cyc, S, 0.02)


def test_theorem1_splitting_time_reversal(ck, section):
    rev = PolyVectorField(scale(ck[3].P, -1.0), scale(ck[3].Q, -1.0))
    sec = cy.section_for_field(rev, (1.0, 0.0))
    cyc = cy.build_cycle(rev, sec, 0.0)
    rep = cy.theorem1_splitting(rev, cyc, S, 0.02)
    assert rep.time_reversed and rep.success


def test_theorem1_splitting_takes_a_polynomial(ck_cycles):
    F = SampledField(value=lambda x, y: 1 - x * x - y * y, box=(-2, 2, -2, 2))
    with pytest.raises(TypeError):
        cy.theorem1_splitting(ck_system(3), ck_cycles[3], F, 0.02)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_collapse_oracle_matches_its_radial_law(k):
    # the closed form against brute bracketing of the same radial law
    got = oracles.radial_cycle_radii(oracles.collapse_radial(k, 0.02))
    assert np.allclose(got, oracles.collapse_radii(k, 0.02), atol=1e-12)


def test_theorem1_splitting_ck5(section):
    # the theorem covers every odd degree, not only k = 3
    lam = 0.02
    X = ck_system(5)
    rep = cy.theorem1_splitting(X, cy.build_cycle(X, section, 0.0), S, lam)
    assert rep.success and not rep.time_reversed
    assert len(rep.census) == 3
    for c, t in zip(rep.census, oracles.collapse_radii(5, lam)):
        assert abs(c.mean_radius - t) < 1e-6
    assert rep.middle_exponent == pytest.approx(8 * np.pi * lam, rel=0.01)


def test_collapse_census_ck4(section):
    # even degree: s^3 = 2 lam has one real root, so only one companion
    lam = 0.02
    cens = cy.find_cycles(gradient_collapse_family(ck_system(4), S, lam), section,
                          (-0.3, 0.3), 25)
    assert len(cens) == 2
    for c, t in zip(cens, oracles.collapse_radii(4, lam)):
        assert abs(c.mean_radius - t) < 1e-6
    assert [c.stability for c in cens] == ["stable", "unstable"]


@pytest.mark.parametrize("c", [1e-3, -1e-3, 1e-4, -1e-4])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_unfolding_parity(section, k, c):
    """The paper's parity statement on CK(k) + (-c x, -c y), polar form
    r' = r(s^k - c), s = 1 - r^2: a cycle of odd multiplicity k continues
    as exactly one cycle, stable, whichever the sign of c; one of even
    multiplicity splits in two, stable inside unstable, for c > 0 and
    vanishes for c < 0. Each exponent is 2 pi times the radial law's slope,
    -4 pi r^2 k s^(k-1)."""
    X = ck_system(k)
    Y = PolyVectorField(add(X.P, scale(Poly2.variable("x"), -c)),
                        add(X.Q, scale(Poly2.variable("y"), -c)))
    census = cy.find_cycles(Y, section, (-0.3, 0.3), 25, tol=1e-10)
    radii = oracles.unfolding_radii(k, c)
    assert len(radii) == (1 if k % 2 else 2 if c > 0 else 0)
    assert len(census) == len(radii)
    assert [cycle.stability for cycle in census] == ["stable", "unstable"][:len(radii)]
    for cycle, r in zip(census, radii):
        assert np.hypot(*section.point_at(cycle.xi_star)) == pytest.approx(r, abs=1e-7)
        exponent = -4 * math.pi * r * r * k * (1 - r * r) ** (k - 1)
        # about 50 times the radius error at k = 5, c = 1e-4, where s = 0.16
        assert cycle.exponent == pytest.approx(exponent, rel=1e-5)


_SAME_SEED_INTERVAL = (
    "two of the three cycles share one seed interval of the 25-seed census, so they give no "
    "sign change and are lost; seed refinement where |d| has an interior minimum (ROADMAP "
    "item 5) is the fix"
)


@pytest.mark.parametrize("lam", [
    2e-2, 2e-3,
    pytest.param(2e-4, marks=pytest.mark.xfail(strict=True, reason=_SAME_SEED_INTERVAL)),
    pytest.param(2e-5, marks=pytest.mark.xfail(strict=True, reason=_SAME_SEED_INTERVAL)),
])
def test_collapse_census_lambda_ladder(section, lam):
    # the theorem holds for arbitrarily small perturbations: all three cycles
    # of CK(3) + lam * S grad S, at radii sqrt(1 -/+ sqrt(2 lam)) and 1
    cens = cy.find_cycles(gradient_collapse_family(ck_system(3), S, lam), section,
                          (-0.3, 0.3), 25)
    assert len(cens) == 3
    for c, t in zip(cens, oracles.collapse_radii(3, lam)):
        assert abs(c.mean_radius - t) < 1e-6


def test_stability_alternation_in_splitting(ck, section):
    rep = cy.theorem1_splitting(ck[3], cy.build_cycle(ck[3], section, 0.0), S, 0.01)
    signs = [np.sign(c.exponent) for c in rep.census]
    assert all(a * b < 0 for a, b in zip(signs, signs[1:]))


def test_theorem1_splitting_runs_every_orbit_at_its_tol(ck, section, monkeypatch):
    """The split's multiplicity fit runs at the split's tol, as its census
    does: every orbit, on the scalar driver (_advance) or started in
    lockstep (_initial_steps), runs at 1e-9."""
    cyc = cy.build_cycle(ck[3], section, 0.0, 1e-9)
    tols = []
    for name, at in (("_advance", 10), ("_initial_steps", 6)):
        def spy(*args, kernel=getattr(flow, name), at=at):
            tols.append(args[at])
            return kernel(*args)

        monkeypatch.setattr(flow, name, spy)
    rep = cy.theorem1_splitting(ck[3], cyc, S, 0.02, tol=1e-9)
    assert tols and set(tols) == {1e-9}
    assert rep.success and cyc.multiplicity.d == 3


def test_time_reversed_split_builds_no_cycle(ck, monkeypatch):
    """An unstable cycle's split reverses time and takes the census of the
    reversed field on the input cycle's section and xi*: it integrates no
    cycle of its own, neither by build_cycle nor by its orbit
    (flow._crossing_orbit)."""
    X = PolyVectorField(scale(ck[3].P, -1.0), scale(ck[3].Q, -1.0))
    cyc = cy.build_cycle(X, cy.section_for_field(X, (1.0, 0.0)), 0.0)
    calls = []
    for module, name in ((cy, "build_cycle"), (flow, "_crossing_orbit")):
        def spy(*args, kernel=getattr(module, name), name=name, **kwargs):
            calls.append(name)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    rep = cy.theorem1_splitting(X, cyc, S, 0.02)
    assert rep.time_reversed and rep.success
    assert calls == []


def _hex(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("case", ["CK(3)", "CK(5)", "hyperbolic", "time-reversed"])
def test_theorem1_wave_matches_the_scalar_path(ck, section, monkeypatch, case):
    """theorem1_splitting runs the multiplicity's first window on X and the
    census's seeds on X + lam * s grad s as one lockstep wave of 50 lanes.
    Its report, and the multiplicity it stores on the cycle, have the bits
    of the scalar path, where the cycle's multiplicity is given and the
    census runs alone. Of the wave's kept seed steps only the middle cycle's
    at xi = 0 are built into _Steps, when its cycle is built."""
    if case == "time-reversed":
        X = PolyVectorField(scale(ck[3].P, -1.0), scale(ck[3].Q, -1.0))
        sec = cy.section_for_field(X, (1.0, 0.0))
    else:
        X, sec = {"CK(3)": ck[3], "CK(5)": ck_system(5), "hyperbolic": ck[1]}[case], section
    waved, given = cy.build_cycle(X, sec, 0.0), cy.build_cycle(X, sec, 0.0)
    given.multiplicity = cy.multiplicity(X, given)

    def split(cycle):
        try:
            return cy.theorem1_splitting(X, cycle, S, 0.02)
        except ValueError as exc:
            return str(exc)

    ref = split(given)
    lanes, built = [], []
    lockstep, steps = flow._lockstep, flow._Trail.steps

    def counted_lockstep(select, member, *args):
        lanes.append(len(member))
        return lockstep(select, member, *args)

    def counted_steps(trail):
        built.append(trail.lane)
        return steps(trail)

    monkeypatch.setattr(flow, "_lockstep", counted_lockstep)
    monkeypatch.setattr(flow._Trail, "steps", counted_steps)
    rep = split(waved)
    if case == "hyperbolic":
        assert rep == ref and rep.startswith("splitting needs")
    else:
        assert rep.success and rep.time_reversed == (case == "time-reversed")
        assert ([_hex((c.xi_star, c.period, c.exponent)) for c in rep.census]
                == [_hex((c.xi_star, c.period, c.exponent)) for c in ref.census])
    assert _hex(waved.multiplicity.coefficients) == _hex(given.multiplicity.coefficients)
    assert lanes == [50]
    assert len(built) == (case in ("CK(3)", "CK(5)"))


def test_displacement_csv(tmp_path, ck, ck_cycles):
    path = tmp_path / "d.csv"
    ck_cycles[1].displacement_samples_csv(path, ck[1], window=0.02, n=5)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "xi,displacement"
    assert len(lines) == 6


def test_build_cycle_integrates_the_cycle_once(ck, section, monkeypatch):
    # the cycle is sampled from the orbit of the return search itself
    def no_second_orbit(*args, **kwargs):
        raise AssertionError("build_cycle integrated the cycle a second time")

    monkeypatch.setattr(flow, "integrate", no_second_orbit)
    cyc = cy.build_cycle(ck[1], section, 0.0)
    assert cyc.closure_error() < 1e-8
    assert cyc.period == pytest.approx(2 * np.pi, abs=1e-8)


@pytest.mark.parametrize("name, xi_range, tol", [
    ("CK(1)", (-0.5, 0.5), 1e-10),
    ("CK(3)", (-0.3, 0.3), 1e-10),
    ("CK(3)", (-0.29, 0.31), 1e-10),
    ("CK(5)", (-0.29, 0.31), 1e-10),
    ("CK(3) collapse", (-0.3, 0.3), 1e-10),
    ("CK(3) collapse", (-0.3, 0.3), 1e-11),
    ("vanderpol(1.0)", (-0.3, 0.3), 1e-10),
])
def test_census_cycles_are_built_from_their_roots_returns(name, xi_range, tol, monkeypatch):
    """find_cycles and nearest_cycle build each cycle from the return its
    root's d(xi) call integrated, when the census kept it: the same period,
    exponent and points, bit for bit, as build_cycle integrates."""
    X, section = _nearest_system(name)
    built = []
    real = cy.build_cycle

    def counted(*args, **kwargs):
        built.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(cy, "build_cycle", counted)
    census = cy.find_cycles(X, section, xi_range, 25, tol)
    nearest = cy.nearest_cycle(X, section, xi_range, 25, tol)
    monkeypatch.undo()
    # at least one of the len(census) + 1 cycles is built from a kept return
    assert len(built) <= len(census)
    for cyc in census + [nearest]:
        # only a root whose own d(xi) call left |d| >= tol is integrated again
        d = cy.displacement(X, section, cyc.xi_star, tol)
        assert (cyc.xi_star in built) == (abs(d) >= tol)
        ref = cy.build_cycle(X, section, cyc.xi_star, tol)
        assert cyc.period.hex() == ref.period.hex()
        assert cyc.exponent.hex() == ref.exponent.hex()
        assert cyc.points.tobytes() == ref.points.tobytes()
        assert np.array_equal(cyc._orbit.times, ref._orbit.times)


def test_census_returns_are_forgotten_on_failure(ck, section, monkeypatch):
    """No census state outlives its call, also one that raises. A census of
    CK(1) that raises once its root's return is kept leaves nothing that the
    next census, of CK(3), reads: CK(3)'s cycle at the same xi = 0 is built
    from its own orbit."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cy, "displacement", _synthetic_d([], fail=[(-2.0, 2.0)]))
        with pytest.raises(ValueError):
            cy.nearest_cycle(None, None, (-1.0, 1.0), 5, 0.0)
        assert cy.find_cycles(None, None, (-1.0, 1.0), 5, 0.0) == []

    def fail(*args, **kwargs):
        raise RuntimeError("injected")

    ref = cy.build_cycle(ck[3], section, 0.0, 1e-10)
    assert not np.array_equal(cy.build_cycle(ck[1], section, 0.0, 1e-10)._orbit.times,
                              ref._orbit.times)
    for census in (cy.find_cycles, cy.nearest_cycle):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cy, "characteristic_exponent", fail)
            with pytest.raises(RuntimeError, match="injected"):
                census(ck[1], section, (-0.3, 0.3), 25, 1e-10)
        got = census(ck[3], section, (-0.3, 0.3), 25, 1e-10)
        got = got[0] if isinstance(got, list) else got
        assert got.xi_star == 0.0
        assert np.array_equal(got._orbit.times, ref._orbit.times)
        assert got.points.tobytes() == ref.points.tobytes()


def _per_panel_quad(cycle, integrand):
    """The cycle quadrature of panel doubling: the 10-point Gauss-Legendre
    rule on 8, 16, 32, ... equal panels of [0, period], one integrand call
    per panel, until two levels agree to 1e-12. An independent reference for
    _quad_over_cycle's per-step rule. At 1e-10 it would stop at 16 panels,
    1.3e-11 off on the outer cycle of the CK(3) + 0.02 s grad s census, where
    the per-step rule is within 1e-15 of 1024 panels."""
    nodes, wts = leggauss(10)
    prev, panels = None, 8
    while panels <= 512:
        total = 0.0
        edges = np.linspace(0.0, cycle.period, panels + 1)
        lo, hi = edges[:-1, None], edges[1:, None]
        level = cycle._orbit.eval(0.5 * (hi - lo) * nodes + 0.5 * (lo + hi))
        for a, b, pts in zip(edges[:-1], edges[1:], level):
            total += 0.5 * (b - a) * float(np.sum(wts * integrand(pts[:, 0], pts[:, 1])))
        if prev is not None and abs(total - prev) < 1e-12 * max(1.0, abs(total)):
            return total
        prev = total
        panels *= 2
    raise AssertionError("the reference quadrature did not converge")


def _cycle_steps(cycle):
    """(t_old, t_end) of each step of the cycle's orbit that starts before
    the period, the last one cut at the period."""
    times = [t for t in cycle._orbit.times.tolist() if t < cycle.period]
    return list(zip(times, times[1:] + [cycle.period]))


def _per_step_quad(cycle, integrand):
    """The cycle quadrature with one integrand call per orbit step: the
    reference for _quad_over_cycle, which must have these bits."""
    nodes, wts = leggauss(10)
    total = 0.0
    for a, b in _cycle_steps(cycle):
        pts = cycle._orbit.eval(0.5 * (b - a) * nodes + 0.5 * (a + b))
        total += 0.5 * (b - a) * float(np.sum(wts * integrand(pts[:, 0], pts[:, 1])))
    return total


def test_collapse_field_census_meets_the_exact_split_oracles(ck, section):
    """CK(3) + 0.02 R grad R with R the Bernstein form of S, a CollapseField,
    meets criterion 2's closed-form oracles: three cycles at the polar radii,
    alternating in stability, the middle exponent 8 pi lam."""
    lam = 0.02
    Y = gradient_collapse_family(ck[3], oracles.to_bernstein(S, (-1.5, 1.5, -1.5, 1.5)), lam)
    assert isinstance(Y, CollapseField)
    census = cy.find_cycles(Y, section, (-0.3, 0.3), 25)
    assert len(census) == 3
    for c, target in zip(census, oracles.collapse_ck3_radii(lam)):
        assert c.mean_radius == pytest.approx(target, abs=1e-5)
    signs = [np.sign(c.exponent) for c in census]
    assert all(a * b < 0 for a, b in zip(signs, signs[1:]))
    assert census[1].exponent == pytest.approx(8 * np.pi * lam, rel=0.01)


@pytest.fixture(scope="module")
def bernstein_collapse_cycle():
    # a degree-24 Bernstein fit of S, so the family is a CollapseField, and
    # its divergence and the I_grad, I_lap integrands evaluate R's
    # Bernstein jets
    R = bernstein_fit(SampledField(value=lambda x, y: 1 - x * x - y * y,
                                   box=(-1.5, 1.5, -1.5, 1.5)), 24, 24)
    fam = gradient_collapse_family(ck_system(3), R, 0.02)
    assert isinstance(fam, CollapseField)
    section = cy.section_for_field(ck_system(1), (1.0, 0.0))
    (cyc,) = cy.find_cycles(fam, section, (-0.3, 0.3), 7)
    return R, fam, cyc


@pytest.mark.parametrize("basis", ["monomial", "bernstein"])
def test_quadrature_matches_the_per_step_form(basis, ck, ck_cycles, bernstein_collapse_cycle,
                                              monkeypatch):
    if basis == "monomial":
        R, F, cyc = S, ck[3], ck_cycles[3]
    else:
        R, F, cyc = bernstein_collapse_cycle

    def quantities():
        return [float(v).hex() for v in (cy.characteristic_exponent(F, cyc),
                                         *cy.divergence_integral_terms(ck[3], R, 0.02, cyc))]

    batched = cy._quad_over_cycle
    shapes = []

    def counted(cycle, integrand):
        def f(x, y):
            shapes.append(np.shape(x))
            return integrand(x, y)
        return batched(cycle, f)

    monkeypatch.setattr(cy, "_quad_over_cycle", counted)
    got = quantities()
    monkeypatch.setattr(cy, "_quad_over_cycle", _per_step_quad)
    assert got == quantities()
    # one integrand call per quadrature, on the nodes of all of its steps
    assert shapes == [(len(_cycle_steps(cyc)), 10)] * 4


def test_quadrature_agrees_with_panel_doubling(ck, section, bernstein_collapse_cycle):
    """The per-step rule and the panel doubling it replaced agree to 1e-11
    on the exponent of CK(1)-CK(5), of the CK(3) + 0.02 s grad s census and
    of the Bernstein collapse field's cycle, and on |grad S|^2 there."""
    cases = [(ck_system(k), cy.build_cycle(ck_system(k), section, 0.0)) for k in (1, 2, 3, 5)]
    fam = gradient_collapse_family(ck[3], S, 0.02)
    cases += [(fam, c) for c in cy.find_cycles(fam, section, (-0.3, 0.3), 25)]
    cases.append(bernstein_collapse_cycle[1:])
    assert len(cases) == 8
    grad_square = collapse_integrands(S)[0]
    for X, cyc in cases:
        assert cy.characteristic_exponent(X, cyc) == pytest.approx(
            _per_panel_quad(cyc, divergence(X)), rel=0.0, abs=1e-11)
        assert cy._quad_over_cycle(cyc, grad_square) == pytest.approx(
            _per_panel_quad(cyc, grad_square), rel=0.0, abs=1e-11)


def test_split_census_exponents_meet_the_closed_form(ck, section):
    lam = 0.02
    census = cy.find_cycles(gradient_collapse_family(ck[3], S, lam), section, (-0.3, 0.3), 25)
    got = [c.exponent for c in census]
    assert got == pytest.approx(oracles.collapse_ck3_exponents(lam), rel=0.0, abs=1e-8)
