import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.polynomial import polynomial as npoly

import oracles
import cyclelab.discriminant as dc
from cyclelab import flow
from cyclelab.field import gradient_collapse_family, rotate_family
from cyclelab.poly2 import parse_poly

S = parse_poly("1 - x^2 - y^2")


@pytest.mark.parametrize("coeffs,expect", [
    ((-1.0, 0.0), 4.0),            # x^2 - 1
    ((2.0, 3.0), 1.0),             # b^2 - 4c with b=3, c=2
    ((0.0, -1.0, 0.0), 4.0),       # x^3 - x: -4p^3 - 27q^2
    ((0.0, 1.0, 0.0), -4.0),       # x^3 + x
    ((0.0, -1.0, 0.0, 0.0, 0.0), -256.0),  # x^5 - x: 256 p^5
])
def test_discriminant_values(coeffs, expect):
    assert dc.discriminant(dc.MonicPoly(coeffs)) == pytest.approx(expect, rel=1e-12)


def test_discriminant_repeated_root_is_zero():
    p = dc.MonicPoly((0.0, 1.0, -2.0))  # x(x-1)^2
    assert abs(dc.discriminant(p)) < 1e-12
    assert oracles.has_repeated_root(p)


def test_discriminant_degree_guard():
    with pytest.raises(dc.DegreeTooSmall):
        dc.discriminant(dc.MonicPoly((1.0,)))


@pytest.mark.parametrize("coeffs,count", [
    ((1.0, 0.0), 0),               # x^2 + 1
    ((0.0, -1.0, 0.0), 3),         # x^3 - x
    ((0.0, -1.0, 0.0, 0.0, 0.0), 3),  # x^5 - x = x(x^2-1)(x^2+1)
    ((0.0, 1.0, -2.0), 2),         # x(x-1)^2: distinct roots counted once
])
def test_real_root_census(coeffs, count):
    assert dc.real_root_census(dc.MonicPoly(coeffs)) == count


_SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1.0, -1.0,
            1e300, -1e300)


@st.composite
def _monic_coeffs(draw):
    """The coefficients a_0..a_{d-1} of a monic polynomial of degree 1 to 6:
    drawn as they come (signed zeros, subnormals, magnitudes up to 1e300),
    or from roots, with a near-double pair 1e-14 to 1e-4 apart, rational
    roots and a scale from 1e-12 to 1e5."""
    d = draw(st.integers(1, 6))
    if draw(st.booleans()):
        value = st.one_of(st.sampled_from(_SPECIAL), st.floats(-1e300, 1e300),
                          st.floats(-10, 10), st.integers(-5, 5).map(float))
        return tuple(draw(st.lists(value, min_size=d, max_size=d)))
    scale = 10.0 ** draw(st.integers(-12, 5))
    rational = st.fractions(min_value=-3, max_value=3, max_denominator=12).map(float)
    roots = draw(st.lists(st.one_of(rational, st.floats(-3, 3)), min_size=d, max_size=d))
    if d >= 2 and draw(st.booleans()):
        roots[1] = roots[0] + 10.0 ** draw(st.floats(-14, -4))
    return tuple(npoly.polyfromroots([r * scale for r in roots])[:-1].tolist())


def _hex(chain):
    return [[float(v).hex() for v in c] for c in chain]


@settings(max_examples=1000, deadline=None)
@given(_monic_coeffs())
@example((0.0, 0.0, 0.0))
@example((-1.0, 0.0))
@example((1e300, -1e300, 1e300, -1e300))
@example((1e300, 1e300, 1e300, 1e300, 1e300, 1e300))
@example((5e-324, -5e-324, 0.0, -0.0, 1e-310))
def test_sturm_chain_is_numpy_polydiv_chain(coeffs):
    """The Sturm chain on floats has, entry by entry, the bits of the chain
    whose remainders NumPy's polydiv takes, NaN and inf included, and the
    counts of real roots agree with the count by np.sign."""
    p = dc.MonicPoly(coeffs)
    with np.errstate(all="ignore"):
        ref, count = oracles.sturm_chain(p), oracles.real_root_census(p)
    assert _hex(dc._sturm_chain(p)) == _hex(ref)
    assert dc.real_root_census(p) == count


@pytest.mark.parametrize("d,sign,expect", [
    (3, +1, (3,)), (3, -1, (1,)),
    (5, +1, (5, 1)), (5, -1, (3,)),
    (4, +1, (4, 0)), (4, -1, (2,)),
    (2, +1, (2,)), (2, -1, (0,)),
])
def test_root_count_congruence(d, sign, expect):
    assert dc.root_count_congruence(d, sign) == expect


def test_congruence_rejects_zero():
    with pytest.raises(dc.ZeroDiscriminant):
        dc.root_count_congruence(3, 0)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_sign_law_matches_sturm(d, seed):
    rng = np.random.default_rng(seed)
    p = dc.MonicPoly(tuple(rng.uniform(-2, 2, d)))
    delta = dc.discriminant(p)
    scale = max(1.0, float(np.max(np.abs(p.full_coeffs()))))
    if abs(delta) < 1e-9 * scale:
        return  # boundary stratum: the law applies to squarefree inputs
    r = dc.real_root_census(p)
    assert int(np.sign(delta)) == (-1) ** ((d - r) // 2)
    assert r in dc.root_count_congruence(d, int(np.sign(delta)))


def test_constructed_repeated_roots_hit_threshold(rng):
    for d in range(2, 7):
        for _ in range(20):
            a = rng.uniform(-1.5, 1.5)
            others = rng.uniform(-1.5, 1.5, d - 2)
            c = npoly.polyfromroots([a, a] + list(others))
            p = dc.MonicPoly(tuple(c[:-1]))
            scale = max(1.0, float(np.max(np.abs(p.full_coeffs()))))
            assert abs(dc.discriminant(p)) < 1e-9 * scale
            assert oracles.has_repeated_root(p)


def test_fit_exact_cubic():
    xs = 0.05 * np.cos(np.pi * np.arange(13) / 12)
    m = dc.fit_displacement_poly([(x, x**3) for x in xs], 3)
    assert np.max(np.abs(m.coeffs)) < 1e-9
    m = dc.fit_displacement_poly([(x, 2 * x**3 - 0.02 * x) for x in xs], 3)
    assert m.coeffs == pytest.approx((0.0, -0.01, 0.0), abs=1e-12)


def test_fit_scaling_invariance():
    xs = 0.05 * np.cos(np.pi * np.arange(13) / 12)
    base = [(x, 2 * x**3 - 0.02 * x) for x in xs]
    scaled = [(x, 7.25 * v) for x, v in base]
    a = dc.fit_displacement_poly(base, 3)
    b = dc.fit_displacement_poly(scaled, 3)
    assert np.max(np.abs(np.array(a.coeffs) - np.array(b.coeffs))) < 1e-9


def test_fit_guards():
    xs = 0.05 * np.cos(np.pi * np.arange(13) / 12)
    with pytest.raises(dc.LeadingCoefficientVanishes):
        dc.fit_displacement_poly([(x, x**2) for x in xs], 3)
    with pytest.raises(ValueError):
        dc.fit_displacement_poly([(x, x**3) for x in xs[:6]], 3)


def test_fit_ck3_unit_divided_out(ck, section):
    samples = dc.displacement_samples(ck[3], section, 3, 0.0125)
    m = dc.fit_displacement_poly(samples, 3)
    assert all(abs(a) < 1e-6 for a in m.coeffs)


def test_phi_examples(ck, section):
    # unperturbed: the structure factor is x^3, discriminant 0
    assert abs(oracles.phi(ck[3], section, 3)) < 1e-12
    # split family: three real roots near the window, positive discriminant
    fam = gradient_collapse_family(ck[3], S, 0.02)
    val = oracles.phi(fam, section, 3)
    assert val > 0
    fit = dc.fit_displacement_poly(dc.displacement_samples(fam, section, 3, 0.025), 3)
    assert dc.real_root_census(fit) == 3
    # rotated family: single real root, negative discriminant
    rot = rotate_family(ck[3], 0.1, 0.1)  # lam*eps = 0.01
    val = oracles.phi(rot, section, 3)
    assert val < 0
    fit = dc.fit_displacement_poly(dc.displacement_samples(rot, section, 3, 0.025), 3)
    assert dc.real_root_census(fit) == 1


def test_fit_roots_reproduce_census(ck, section):
    from cyclelab import cycles as cy
    fam = gradient_collapse_family(ck[3], S, 0.02)
    census = cy.find_cycles(fam, section, (-0.3, 0.3), 25)
    xis = sorted(c.xi_star for c in census)
    samples = dc.displacement_samples(fam, section, 3, 0.12, n=53)
    roots = oracles.fit_roots(samples, 3, fit_degree=12)
    assert len(roots) == 3
    for r, x in zip(roots, xis):
        assert r == pytest.approx(x, abs=1e-4)


def test_q2_deterministic(ck, section):
    a = dc.q2_search(ck[3], section, 3, 1e-3, 4, seed=42)
    b = dc.q2_search(ck[3], section, 3, 1e-3, 4, seed=42)
    assert [(s.index, s.phi, s.n_real_roots) for s in a.samples] == \
           [(s.index, s.phi, s.n_real_roots) for s in b.samples]
    assert a.best_phi == b.best_phi
    c = dc.q2_search(ck[3], section, 3, 1e-3, 4, seed=43)
    assert a.best_phi != c.best_phi


def test_q2_zero_radius_reproduces_phi(ck, section):
    rep = dc.q2_search(ck[3], section, 3, 0.0, 3, seed=1)
    vals = [s.phi for s in rep.samples]
    assert all(v is not None and abs(v) < 1e-12 for v in vals)
    assert vals[0] == vals[1] == vals[2]


def test_q2_empty(ck, section):
    rep = dc.q2_search(ck[3], section, 3, 1e-3, 0, seed=5)
    assert rep.samples == [] and rep.best_index is None and rep.histogram == {}


def test_q2_csv(tmp_path, ck, section):
    rep = dc.q2_search(ck[3], section, 3, 1e-3, 3, seed=9)
    path = tmp_path / "q2.csv"
    rep.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "seed_index,phi,n_real_roots,radius,error"
    assert len(lines) == 4
    assert all(line.endswith(",") for line in lines[1:])  # no sample failed


def _q2_scalar(X, section, d, radius, n_samples, seed, window):
    """q2_search's samples one field at a time, each through
    displacement_samples on the scalar driver."""
    out = []
    for i in range(n_samples):
        Y = dc._perturb_coeffs(X, np.random.default_rng([seed, i]), radius)
        try:
            fit = dc.fit_displacement_poly(dc.displacement_samples(Y, section, d, window), d)
        except (flow.OrbitFailure, dc.LeadingCoefficientVanishes) as exc:
            out.append((i, None, None, type(exc).__name__))
            continue
        out.append((i, dc.discriminant(fit), dc.real_root_census(fit), None))
    return out


@pytest.mark.parametrize("radius, n_samples, seed", [(0.3, 8, 3), (1e-3, 5, 1)])
def test_q2_batched_matches_per_field_scalar_path(tmp_path, ck, section, radius, n_samples,
                                                  seed):
    """Sample for sample: the discriminant's bits, the root census and the
    failure's name. At radius 0.3 five fields never return to the section
    and two fits lose their leading coefficient."""
    rep = dc.q2_search(ck[3], section, 3, radius, n_samples, seed=seed, window=0.025)
    got = [(s.index, s.phi, s.n_real_roots, s.error) for s in rep.samples]
    assert got == _q2_scalar(ck[3], section, 3, radius, n_samples, seed, 0.025)
    if radius == 0.3:
        errors = [s.error for s in rep.samples if s.error]
        assert sorted(errors) == ["LeadingCoefficientVanishes"] * 2 + ["NoCrossing"] * 5
        rep.to_csv(tmp_path / "q2.csv")
        rows = (tmp_path / "q2.csv").read_text().splitlines()[1:]
        assert [row.rsplit(",", 1)[1] for row in rows] == [s.error or "" for s in rep.samples]


@pytest.mark.parametrize("seed", [[3, 5], [1, 0]])
def test_perturb_coeffs_draws_one_jitter_per_monomial(ck, seed):
    """The jitters drawn at once are those of one draw per monomial, in the
    order of the monomials."""
    rng = np.random.default_rng(seed)
    Y = dc._perturb_coeffs(ck[3], np.random.default_rng(seed), 0.3)
    for p, q in ((ck[3].P, Y.P), (ck[3].Q, Y.Q)):
        ref = dict(p.coeffs)
        for i in range(8):
            for j in range(8 - i):
                ref[(i, j)] = ref.get((i, j), 0.0) + rng.uniform(-0.3, 0.3)
        assert q.coeffs == ref


@pytest.mark.parametrize("max_attempts", [flow._LOCKSTEP_MAX_ATTEMPTS, 4])
def test_lockstep_displacements_build_no_field_rhs(ck, section, monkeypatch, max_attempts):
    """A lockstep displacements call groups its fields once and evaluates
    each field through its group's evaluators, also where its lanes continue
    on the scalar driver (after 4 attempts), so no field builds its own
    rhs(); next_section_crossing still does."""
    from cyclelab import cycles as cy
    from cyclelab import field as fd

    monkeypatch.setattr(flow, "_LOCKSTEP_MAX_ATTEMPTS", max_attempts)
    grouped = []

    def counted(fields):
        grouped.append(len(fields))
        return fd.lane_evaluators(fields)

    monkeypatch.setattr(cy, "lane_evaluators", counted)
    monkeypatch.setattr(flow, "lane_evaluators", counted)
    fields = [dc._perturb_coeffs(ck[3], np.random.default_rng([7, i]), 1e-3) for i in range(4)]
    nodes = dc._nodes(3, 0.025)
    assert len(fields) * len(nodes) >= flow._LOCKSTEP_MIN_LANES
    rows = cy.displacements(fields, section, nodes)
    assert grouped == [len(fields)]
    assert not any("_evaluator" in X.__dict__ for X in fields)
    assert rows == [[cy.displacement(X, section, xi) for xi in nodes] for X in fields]
    assert all("_evaluator" in X.__dict__ for X in fields)
