"""Acceptance suite: the ten gate criteria, each at its stated tolerance.

Every test prints one pass line on success (run with -s to see them inline);
a failing assertion is the corresponding fail line. Expected values come from
closed-form polar reductions of the canonical circular systems (see
oracles.py), never from the code paths under test.
"""
import time

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

import oracles
import cyclelab.discriminant as dc
from cyclelab import annulus as an
from cyclelab import cycles as cy
from cyclelab import lab
from cyclelab.bernstein import SampledField, bernstein_fit, cr_error
from cyclelab import bernstein, field, poly2
from cyclelab.field import PolyVectorField, gradient_collapse_family, rotate_family
from cyclelab.poly2 import parse_poly, scale
from cyclelab.registry import canonical_function

S = parse_poly("1 - x^2 - y^2")
SPLIT_RADII = oracles.collapse_ck3_radii(0.02)   # sqrt(0.8), 1, sqrt(1.2)


def _ok(n, msg):
    print(f"\n[acceptance] criterion {n}: PASS - {msg}")


@pytest.fixture(scope="module")
def split_census(ck, section):
    fam = gradient_collapse_family(ck[3], S, 0.02)
    return fam, cy.find_cycles(fam, section, (-0.3, 0.3), 25)


def test_criterion_1_nonhyperbolicity_detection(ck, section):
    t0 = time.perf_counter()
    exps = {k: cy.build_cycle(ck[k], section, 0.0).exponent for k in (2, 3)}
    mults = {k: cy.multiplicity(ck[k], section, 0.0).d for k in (1, 2, 3)}
    elapsed = time.perf_counter() - t0
    assert exps[2] == pytest.approx(0.0, abs=1e-8)
    assert exps[3] == pytest.approx(0.0, abs=1e-8)
    assert mults == {1: 1, 2: 2, 3: 3}
    assert elapsed < 30.0
    _ok(1, f"exponents {exps[2]:.2e}/{exps[3]:.2e}, multiplicities 1/2/3, "
           f"{elapsed:.1f}s")


def test_criterion_2_theorem1_exact_split(ck, section):
    t0 = time.perf_counter()
    fam = gradient_collapse_family(ck[3], S, 0.02)
    census = cy.find_cycles(fam, section, (-0.3, 0.3), 25)
    elapsed = time.perf_counter() - t0
    assert len(census) == 3
    for c, target in zip(census, SPLIT_RADII):
        assert c.mean_radius == pytest.approx(target, abs=1e-5)
    signs = [np.sign(c.exponent) for c in census]
    assert all(a * b < 0 for a, b in zip(signs, signs[1:]))
    middle = census[1]
    assert middle.exponent == pytest.approx(8 * np.pi * 0.02, rel=0.01)
    assert elapsed < 60.0
    _ok(2, f"radii {[round(c.mean_radius, 6) for c in census]}, middle exponent "
           f"{middle.exponent:.6f}, {elapsed:.1f}s")


def test_criterion_3_divergence_decomposition(ck, split_census):
    fam, census = split_census
    middle = census[1]
    ib, ig, il = cy.divergence_integral_terms(ck[3], S, 0.02, middle)
    assert ib == pytest.approx(0.0, abs=1e-6)
    assert ig == pytest.approx(0.16 * np.pi, abs=1e-6)
    assert il == pytest.approx(0.0, abs=1e-6)
    independent = cy.characteristic_exponent(fam, middle)
    assert ib + ig + il == pytest.approx(independent, abs=1e-8)
    _ok(3, f"terms ({ib:.2e}, {ig:.12f}, {il:.2e}), sum-vs-exponent "
           f"{abs(ib + ig + il - independent):.2e}")


def test_criterion_4_theorem1_surrogate_split(monkeypatch):
    cfg = lab.ExperimentConfig.from_dict({
        "pipeline": "split-theorem1", "system": "CK(3)", "lambda": 0.02,
        "surrogate": True, "eps_target": 0.4, "window_width": 0.95,
        "degree_cap": 256, "r": 1, "xi_range": [-0.2, 0.2], "n_seeds": 21,
    })
    # the perturbed field evaluates the degree-170 fit's own jets: while the
    # split runs its census and the annulus flux, no basis row above the
    # fit's degree (the degree search and the Whitney log, outside them,
    # reach the cap, 256), and no product of anything but a Poly2 anywhere
    row_degrees = {"other": set(), "perturbed": set()}
    phase, bernstein_products = ["other"], []

    def counted(row):
        def counted_row(m, u):
            row_degrees[phase[0]].add(m)
            return row(m, u)
        return counted_row

    def perturbed(stage):
        def run(*args, **kwargs):
            phase[0] = "perturbed"
            try:
                return stage(*args, **kwargs)
            finally:
                phase[0] = "other"
        return run

    def counted_mul(p, q, mul=poly2.mul):
        if not (isinstance(p, poly2.Poly2) and isinstance(q, poly2.Poly2)):
            bernstein_products.append((p, q))
        return mul(p, q)

    monkeypatch.setattr(bernstein, "bernstein_basis_row", counted(bernstein.bernstein_basis_row))
    monkeypatch.setattr(bernstein, "_basis_row_scalar", counted(bernstein._basis_row_scalar))
    for module in (poly2, field):
        monkeypatch.setattr(module, "mul", counted_mul)
    monkeypatch.setattr(cy, "theorem1_splitting", perturbed(cy.theorem1_splitting))
    monkeypatch.setattr(an, "flux_margin", perturbed(an.flux_margin))
    rep = lab.run_pipeline(cfg)
    assert rep.payload["degree"] == [170, 170]
    assert max(row_degrees["perturbed"]) == 170 and max(row_degrees["other"]) == 256
    assert bernstein_products == []
    census = rep.payload["census"]
    assert census["count"] == 3
    radii = [c["radius"] for c in census["cycles"]]
    for r, target in zip(radii, SPLIT_RADII):
        assert r == pytest.approx(target, abs=1e-2)
    # the logged Whitney distance to the limit family (the quantity the
    # approximation theorem controls) decreases monotonically in degree, from
    # the first fit that is nonzero on the ring: a fit that vanishes there is
    # exactly as far from the limit family as the limit term is large, and the
    # next fit can tie with it in exact arithmetic
    log = rep.payload["whitney_log"]
    first = next((i for i, e in enumerate(log) if e["to_unperturbed"] > 0), len(log))
    seq = [e["to_limit_family"] for e in log[first:]]
    assert all(b < a for a, b in zip(seq, seq[1:]))
    assert rep.checks["split_succeeded"]
    _ok(4, f"degree {rep.payload['degree']}, lambda {rep.payload['lambda_used']:.4f}, "
           f"radii dev {[round(float(abs(r - t)), 5) for r, t in zip(radii, SPLIT_RADII)]}, "
           f"distance log {seq[0]:.3f}->{seq[-1]:.2e}")


def test_criterion_5_rotated_even_degree_census(ck, section):
    plus = cy.find_cycles(rotate_family(ck[2], 0.1, 0.1), section, (-0.3, 0.3), 25)
    assert len(plus) == 2
    targets = oracles.rotated_ck2_radii(0.01)
    for c, t in zip(plus, targets):
        assert c.mean_radius == pytest.approx(t, abs=1e-5)
    minus = cy.find_cycles(rotate_family(ck[2], -0.1, 0.1), section, (-0.3, 0.3), 25)
    assert minus == []
    _ok(5, f"+0.01 -> radii {[round(c.mean_radius, 6) for c in plus]}, -0.01 -> none")


def test_criterion_6_perko_derivative(ck, section):
    eps = 0.1
    # closed form 2 pi eps on the non-hyperbolic members (divergence vanishes
    # along their cycle; CK(1) has div = -2 there and no such closed form)
    for k in (2, 3):
        cyc = cy.build_cycle(ck[k], section, 0.0)
        pp = oracles.perp(ck[k])
        direction = PolyVectorField(scale(pp.P, eps), scale(pp.Q, eps))
        val = cy.perko_derivative(ck[k], direction, cyc)
        assert val == pytest.approx(2 * np.pi * eps, abs=1e-8)
    cyc2 = cy.build_cycle(ck[2], section, 0.0)
    pp2 = oracles.perp(ck[2])
    pk = cy.perko_derivative(ck[2], PolyVectorField(scale(pp2.P, eps), scale(pp2.Q, eps)),
                             cyc2)
    ratios = []
    for lam in (1e-4, 2e-4, 4e-4):
        d = cy.displacement(rotate_family(ck[2], lam, eps), section, 0.0)
        ratios.append((d / lam) / pk)
    assert all(abs(r / ratios[0] - 1.0) < 0.01 for r in ratios)
    _ok(6, f"2*pi*eps reproduced, FD ratios {[round(r, 4) for r in ratios]}")


def test_criterion_7_bernstein_frozen_values():
    xsq = SampledField(
        value=lambda x, y: np.asarray(x, float) ** 2 + 0.0 * np.asarray(y, float),
        box=(0, 1, 0, 1),
    )
    dev = bernstein_fit(xsq, 10, 2)(0.5, 0.5) - 0.25
    assert dev == pytest.approx(0.025, abs=1e-12)

    parab = canonical_function("paraboloid", (-2, 2, -2, 2))
    b40 = bernstein_fit(parab, 40, 40)
    assert cr_error(parab, b40, r=0)[(0, 0)] == pytest.approx(0.2, abs=1e-9)

    wave = canonical_function("wave", (-2, 2, -2, 2))
    e40 = cr_error(wave, bernstein_fit(wave, 40, 40), r=2)
    e160 = cr_error(wave, bernstein_fit(wave, 160, 160), r=2)
    assert all(e160[k] < e40[k] for k in e40)
    _ok(7, f"B(x^2) dev {dev:.12f}, paraboloid m=40 err 0.2, all 6 orders "
           f"shrink 40->160")


def test_criterion_8_discriminant_ground_truth():
    rng = np.random.default_rng(88)
    checked = 0
    for d in range(2, 7):
        count = 0
        while count < 1000:
            p = dc.MonicPoly(tuple(rng.uniform(-2, 2, d)))
            delta = dc.discriminant(p)
            scl = max(1.0, float(np.max(np.abs(p.full_coeffs()))))
            if abs(delta) < 1e-9 * scl:
                continue  # boundary stratum excluded: law needs squarefree
            r = dc.real_root_census(p)
            assert int(np.sign(delta)) == (-1) ** ((d - r) // 2), (d, p.coeffs)
            assert not oracles.has_repeated_root(p)
            count += 1
            checked += 1
        # constructed repeated roots sit below the threshold
        for _ in range(25):
            a = rng.uniform(-1.5, 1.5)
            c = npoly.polyfromroots([a, a] + list(rng.uniform(-1.5, 1.5, d - 2)))
            q = dc.MonicPoly(tuple(c[:-1]))
            scl = max(1.0, float(np.max(np.abs(q.full_coeffs()))))
            assert abs(dc.discriminant(q)) < 1e-9 * scl
            assert oracles.has_repeated_root(q)
    _ok(8, f"{checked} squarefree samples, 100% sign-law agreement, repeated "
           f"roots at threshold")


def test_criterion_9_annulus(ck, ck_cycles):
    ann = an.build_trapping_annulus(ck[3], ck_cycles[3], 0.1, -0.35, 0.35)
    rep_x = an.verify_annulus(ck[3], ann, n_samples=256, invariance_orbits=32,
                              horizon_periods=20.0)
    assert oracles.verified(rep_x) and rep_x.min_flux_margin > 0
    assert rep_x.orbits_contained == rep_x.orbits_total == 32
    perturbed = gradient_collapse_family(ck[3], S, 0.02)
    rep_y = an.verify_annulus(perturbed, ann, n_samples=256, invariance_orbits=32,
                              horizon_periods=20.0)
    assert oracles.verified(rep_y) and rep_y.min_flux_margin > 0
    _ok(9, f"margins X {rep_x.min_flux_margin:.4f} / perturbed "
           f"{rep_y.min_flux_margin:.4f}, 32+32 orbits contained over 20T")


def test_criterion_10_determinism(ck, section, tmp_path):
    a = dc.q2_search(ck[3], section, 3, 1e-3, 6, seed=123)
    b = dc.q2_search(ck[3], section, 3, 1e-3, 6, seed=123)
    assert [(s.index, s.phi, s.n_real_roots) for s in a.samples] == \
           [(s.index, s.phi, s.n_real_roots) for s in b.samples]

    texts = []
    for pipeline, extra in (
        ("find", {"system": "CK(1)", "xi_range": [-0.4, 0.4], "n_seeds": 11}),
        ("rotate-theorem2", {"system": "CK(2)", "lambda_eps_values": [0.01]}),
        ("q2-search", {"system": "CK(3)", "q2_samples": 2}),
    ):
        cfg = lab.ExperimentConfig.from_dict({"pipeline": pipeline, "seed": 7, **extra})
        pair = [lab.run_pipeline(cfg).payload_text() for _ in range(2)]
        assert pair[0] == pair[1], f"{pipeline} payload not byte-stable"
        texts.append(pair[0])
    assert len(set(texts)) == 3
    _ok(10, "q2 search and all sampled pipelines byte-reproducible under fixed seed")
