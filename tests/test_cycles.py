import numpy as np
import pytest

import oracles
from cyclelab import cycles as cy
from cyclelab import flow
from cyclelab.field import PolyVectorField, gradient_collapse_family, perp, rotate_family
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
    mult = cy.return_map_derivative(ck[1], c1)
    assert mult == pytest.approx(np.exp(-4 * np.pi), rel=1e-8)
    assert np.exp(c1.exponent) == pytest.approx(mult, rel=1e-6)
    # and on every hyperbolic cycle produced by the splitting
    fam = gradient_collapse_family(ck[3], S, 0.02)
    for c in cy.find_cycles(fam, section, (-0.3, 0.3), 25):
        mult = cy.return_map_derivative(fam, c)
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
