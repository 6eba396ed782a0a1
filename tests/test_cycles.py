import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from cyclelab import cycles as cy
from cyclelab import flow
from cyclelab.bernstein import SampledField
from cyclelab.field import (
    PolyVectorField, ck_system, gradient_collapse_family, perp, rotate_family,
)
from cyclelab.poly2 import parse_poly, scale

S = parse_poly("1 - x^2 - y^2")


def eps_perp(X, eps):
    pp = perp(X)
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
    for c, t in zip(cens, oracles.collapse_ck3_radii(lam)):
        assert abs(c.mean_radius - t) < 1e-8
        k = np.searchsorted(seeds, c.xi_star) - 1
        in_bracket = int(np.sum((seeds[k] < solves) & (solves < seeds[k + 1])))
        assert in_bracket == c.root_d_calls <= 10
    assert len(solves) == sum(c.root_d_calls for c in cens)


def _scipy_brentq(f, a, b, **kwargs):
    from scipy.optimize import brentq

    root, info = brentq(f, a, b, xtol=1e-12, full_output=True, **kwargs)
    return root.hex(), info.function_calls


def _port_brentq(f, a, b):
    # the port takes the end values; SciPy counts the two calls they cost
    root, calls = cy._brentq(f, a, b, f(a), f(b))
    return root.hex(), calls + 2


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
