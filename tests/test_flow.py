import numpy as np
import pytest

from cyclelab import flow
from cyclelab.cycles import Section
from cyclelab.field import PolyVectorField
from cyclelab.poly2 import parse_poly

ROT = PolyVectorField(parse_poly("-y"), parse_poly("x"))
SEC = Section(base=(1.0, 0.0), direction=(1.0, 0.0), half_length=0.55)


def test_harmonic_rotation_endpoint():
    orb = flow.integrate(ROT, (1.0, 0.0), 2 * np.pi, tol=1e-10)
    assert np.linalg.norm(orb.states[-1] - [1.0, 0.0]) < 1e-9


def test_ck_invariant_circle(ck):
    for k in (1, 2, 3):
        orb = flow.integrate(ck[k], (1.0, 0.0), 100.0, tol=1e-10)
        r = np.hypot(orb.states[:, 0], orb.states[:, 1])
        assert np.max(np.abs(r - 1.0)) < 1e-8


def test_divergence_error():
    X = PolyVectorField(parse_poly("x"), parse_poly("y"))
    with pytest.raises(flow.Divergence) as exc:
        flow.integrate(X, (1.0, 0.0), 20.0)
    assert exc.value.t == pytest.approx(np.log(1e3), abs=0.5)
    assert isinstance(exc.value, flow.OrbitFailure)


def test_times_strictly_increasing():
    orb = flow.integrate(ROT, (0.3, 0.1), 5.0)
    assert np.all(np.diff(orb.times) > 0)


def test_dense_output_consistency():
    # interpolant agrees with a fresh tighter integration at step midpoints
    orb = flow.integrate(ROT, (1.0, 0.0), 6.0, tol=1e-8)
    rng = np.random.default_rng(0)
    for idx in rng.choice(len(orb.times) - 1, size=5, replace=False):
        tm = 0.5 * (orb.times[idx] + orb.times[idx + 1])
        ref = flow.integrate(ROT, orb.states[idx], tm - orb.times[idx], tol=1e-12)
        err = np.linalg.norm(orb.eval(tm) - ref.states[-1])
        assert err < 10 * 1e-8


def test_tolerance_refinement_monotone():
    errors = []
    for tol in [1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10]:
        orb = flow.integrate(ROT, (1.0, 0.0), 2 * np.pi, tol=tol)
        errors.append(np.linalg.norm(orb.states[-1] - [1.0, 0.0]))
    assert all(b <= a for a, b in zip(errors, errors[1:]))


def test_time_reversal(ck):
    from cyclelab.poly2 import scale
    tol = 1e-10
    # neutral rotation over a long span, contracting CK(1) over a short one
    # (the reversed leg amplifies error by the expansion factor)
    for X, t_end in ((ROT, 7.0), (ck[1], 1.0)):
        fwd = flow.integrate(X, (0.5, 0.2), t_end, tol=tol)
        Xrev = PolyVectorField(scale(X.P, -1.0), scale(X.Q, -1.0))
        back = flow.integrate(Xrev, fwd.states[-1], t_end, tol=tol)
        assert np.linalg.norm(back.states[-1] - [0.5, 0.2]) < 100 * tol


def test_crossing_period():
    t, p = flow.next_section_crossing(ROT, (1.0, 0.0), SEC, +1, t_max=10.0,
                                      t_offset=1e-3)
    assert t == pytest.approx(2 * np.pi, abs=1e-9)
    assert abs(p[1]) < 1e-12


def test_ck1_inward_monotonicity(ck):
    t, p = flow.next_section_crossing(ck[1], (0.5, 0.0), SEC, +1, t_max=10.0,
                                      t_offset=1e-3)
    assert t == pytest.approx(2 * np.pi, abs=1e-6)
    assert 0.5 < p[0] < 1.0


def test_equilibrium_no_crossing(ck):
    with pytest.raises(flow.NoCrossing) as exc:
        flow.next_section_crossing(ck[2], (0.0, 0.0), SEC, +1, t_max=15.0)
    assert isinstance(exc.value, flow.OrbitFailure)


def test_crossings_never_skipped(ck):
    # theta' = 1 for the CK family: exactly one positive crossing per period
    count = 0
    x0 = np.array([0.5, 0.0])
    elapsed = 0.0
    horizon = 50 * 2 * np.pi
    while True:
        try:
            t, p = flow.next_section_crossing(
                ck[1], x0, SEC, +1, t_max=horizon + 0.5 - elapsed, t_offset=1e-9
            )
        except flow.NoCrossing:
            break
        elapsed += t
        if elapsed > horizon + 0.25:
            break
        count += 1
        x0 = p
    assert count == 50


def test_crossing_residual_refinement(ck):
    _, p = flow.next_section_crossing(ck[3], (0.8, 0.0), SEC, +1, t_max=10.0,
                                      t_offset=1e-3)
    # residual measured against the section line
    assert abs(np.dot(p - SEC.base, SEC.normal)) < 1e-12


def test_double_crossing_within_one_step():
    # y = 12.49 - 5t + t^2/2 dips 0.01 below the section and comes back
    # inside one accepted step, which a probe scan of the step misses
    X = PolyVectorField(parse_poly("1"), parse_poly("x"))
    sec = Section(base=(0.0, 0.0), direction=(1.0, 0.0), half_length=5.0)
    t, p = flow.next_section_crossing(X, (-5.0, 12.49), sec, +1, t_max=15.0)
    assert t == pytest.approx(5.0 + np.sqrt(0.02), abs=1e-9)
    assert abs(np.dot(p - sec.base, sec.normal)) < 1e-12


def test_left_neighborhood():
    X = PolyVectorField(parse_poly("x - y"), parse_poly("x + y"))  # unstable focus
    with pytest.raises(flow.LeftNeighborhood) as exc:
        flow.next_section_crossing(X, (1.05, 0.0), SEC, +1, t_max=50.0,
                                   neighborhood_radius=1.0)
    assert isinstance(exc.value, flow.OrbitFailure)


def test_orbit_csv(tmp_path):
    orb = flow.integrate(ROT, (1.0, 0.0), 1.0, tol=1e-8)
    path = tmp_path / "orbit.csv"
    orb.to_csv(path, n=11)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,x,y"
    assert len(lines) == 12
    t0, x0, y0 = (float(v) for v in lines[1].split(","))
    assert (t0, x0, y0) == (0.0, 1.0, 0.0)


def test_bad_arguments():
    with pytest.raises(ValueError):
        flow.integrate(ROT, (1, 0), -1.0)
    with pytest.raises(ValueError):
        flow.integrate(ROT, (1, 0), 1.0, tol=0.0)
