import functools
import math
import signal
import sys
from contextlib import contextmanager
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from numpy.polynomial import polynomial as P
from hypothesis import example, given, settings, strategies as st

import oracles
from cyclelab import flow
from cyclelab.cycles import Section
from cyclelab.field import PolyVectorField, ck_system, vanderpol
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


def test_orbit_csv(tmp_path):
    orb = flow.integrate(ROT, (1.0, 0.0), 1.0, tol=1e-8)
    path = tmp_path / "orbit.csv"
    oracles.orbit_csv(orb, path, n=11)
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


@contextmanager
def _within(seconds):
    """Fail, rather than hang, when the block runs longer than seconds."""
    def stop(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("x0", [(np.nan, 0.0), (np.inf, 0.0), (0.0, -np.inf)])
def test_non_finite_start_is_rejected(x0):
    # a NaN start once made every attempt a rejected NaN step, forever
    with _within(1.0), pytest.raises(ValueError, match="finite"):
        flow.integrate(ck_system(3), x0, 1.0)


def test_nan_step_underflows():
    # finite start, but the RHS overflows to NaN: the NaN step size fails
    # the step floor instead of being retried forever
    with _within(1.0), pytest.raises(flow.StepUnderflow):
        flow.integrate(ck_system(3), (1e200, 0.0), 1.0)


@pytest.mark.parametrize("min_lanes", [1, 48, flow._LOCKSTEP_MIN_LANES])
def test_lockstep_nan_step_underflows(monkeypatch, min_lanes):
    monkeypatch.setattr(flow, "_LOCKSTEP_MIN_LANES", min_lanes)
    X = ck_system(3)
    rows = [[(X, SEC.point_at(0.1), +1)], [(X, (1e200, 0.0), +1), (X, SEC.point_at(0.1), +1)]]
    with _within(1.0):
        got = flow.next_section_crossings(rows, SEC, **_LOCKSTEP_KW)
        refs = [_crossing_or_failure(*row[0], **_LOCKSTEP_KW) for row in rows]
    assert len(got[1]) == 1 and isinstance(got[1][0], flow.StepUnderflow)
    assert all(_same(row[0], ref) for row, ref in zip(got, refs))


def test_crossing_rejects_zero_tol(ck, section):
    # tol = 0 once ran the orbit into the 2,000,000-step budget
    with pytest.raises(ValueError):
        flow.next_section_crossing(ck[1], section.point_at(0.1), section, +1, tol=0.0)


def test_crossing_rejects_zero_t_max(ck, section):
    with pytest.raises(ValueError):
        flow.next_section_crossing(ck[1], section.point_at(0.1), section, +1, t_max=0.0)


def test_crossing_rejects_negative_t_max(ck, section):
    # a negative t_max once integrated backward in time
    with pytest.raises(ValueError):
        flow.next_section_crossing(ck[1], section.point_at(0.1), section, +1, t_max=-1.0)


class _CountedField:
    """A field stand-in whose RHS counts its calls."""

    def __init__(self, X):
        self.f, self.calls = X.rhs(), 0

    def rhs(self):
        return self

    def __call__(self, x, y):
        self.calls += 1
        return self.f(x, y)


@pytest.mark.parametrize("tol", [1e-8, 1e-10])
@pytest.mark.parametrize("name", ["ROT", "CK(1)", "vanderpol(1)"])
def test_stepper_matches_scipy_reference(ck, name, tol):
    """The float stepper against SciPy's DOP853 solver on the same RHS.

    SciPy's error estimates are BLAS dot products of nearly equal stage
    derivatives, which cancel, so their rounding moves each proposed step by
    a relative amount that plain floats cannot repeat. Hence: the same
    accepted and rejected steps (the same RHS calls), the first step exactly,
    later step ends within 1e-4 relative, and the two solutions, compared at
    the same times, within 1e-12. SciPy's dense output costs 3 RHS calls per
    step, and so does the float stepper's once every step is interpolated.
    """
    from scipy.integrate import DOP853
    from scipy.integrate._ivp.common import OdeSolution

    X = {"ROT": ROT, "CK(1)": ck[1], "vanderpol(1)": vanderpol(1.0)}[name]
    f = X.rhs()
    ref = DOP853(lambda t, z: np.array(f(z[0], z[1])), 0.0, np.array([0.5, 0.2]), 10.0,
                 rtol=tol, atol=tol)
    times, dense = [0.0], []
    while ref.status == "running":
        ref.step()
        times.append(ref.t)
        stepping_calls = ref.nfev - 3 * len(dense)
        dense.append(ref.dense_output())
    ref_sol = OdeSolution(times, dense)
    counted = _CountedField(X)
    orb = flow.integrate(counted, (0.5, 0.2), 10.0, tol=tol)
    assert counted.calls == stepping_calls
    assert len(orb.times) == len(times)
    assert orb.times[1] == times[1]
    assert np.allclose(orb.times, times, rtol=1e-4, atol=0.0)
    assert np.max(np.abs(ref_sol(orb.times).T - orb.states)) < 1e-12
    mid = 0.5 * (orb.times[1:] + orb.times[:-1])
    assert np.max(np.abs(ref_sol(mid).T - orb.eval(mid))) < 1e-12
    assert counted.calls == ref.nfev


def _at(step, s):
    """The step's interpolant at s on floats."""
    return flow._interpolant(step.F, *step.y_old, s)


def _eval_by_steps(orbit, t):
    """Orbit.eval's reference: each time through its own step's interpolant,
    on floats."""
    ts = np.asarray(t, dtype=float).ravel()
    idx = np.clip(np.searchsorted(orbit.times[1:], ts, side="left"), 0,
                  len(orbit._segments) - 1)
    out = np.empty((ts.size, 2))
    for k, (i, tk) in enumerate(zip(idx.tolist(), ts.tolist())):
        step = orbit._segments[i]
        out[k] = _at(step, (tk - step.t_old) / step.h)
    return out.reshape(np.shape(t) + (2,))


@pytest.mark.parametrize("name", ["CK(3)", "vanderpol(1)"])
def test_orbit_eval_matches_step_loop(ck, name):
    X = {"CK(3)": ck[3], "vanderpol(1)": vanderpol(1.0)}[name]
    orb = flow.integrate(X, (0.8, 0.1), 12.0)
    rng = np.random.default_rng(7)
    ts = np.concatenate([rng.uniform(0.0, orb.t_end, 300), orb.times,
                         [0.0, orb.t_end, -0.5, -1e-9, orb.t_end + 1e-9, orb.t_end + 0.7]])
    for t in (ts, ts[:60].reshape(6, 10), ts[:0], orb.t_end, 0.3, -0.5, np.float64(2.0),
              np.array(7.5)):
        got = orb.eval(t)
        assert got.shape == np.shape(t) + (2,)
        assert np.array_equal(got, _eval_by_steps(orb, t))


def test_orbit_eval_builds_only_the_steps_it_needs(ck):
    orb = flow.integrate(ck[3], (0.8, 0.1), 12.0)
    i = len(orb._segments) // 2
    step = orb._segments[i]
    orb.eval(step.t_old + step.h * np.array([0.1, 0.5, 1.0]))
    # the dense output costs 3 RHS calls per step it is built for
    assert [k for k, s in enumerate(orb._segments) if s._F is not None] == [i]


def _reference_steps(f, x0, t_bound, tol):
    """Each accepted step as (t_old, t, y_old, y, K), one attempt after the
    other through _attempt and _control, with the step rules of SciPy's
    DOP853 solver written out; for orbits that do not fail."""
    t, x, y, k1x, k1y, h_abs, rejected, _ = flow._start(f, x0, t_bound, tol)
    while rejected or t < t_bound:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        if not rejected:
            h_abs = max(h_abs, min_step)
        t_new = min(t + h_abs, t_bound)
        x_new, y_new, K, e5x, e5y, e3x, e3y = flow._attempt(f, x, y, k1x, k1y, t_new - t)
        sx = tol + max(abs(x), abs(x_new)) * tol
        sy = tol + max(abs(y), abs(y_new)) * tol
        accepted, h_abs = flow._control(abs(t_new - t), e5x / sx, e5y / sy, e3x / sx,
                                        e3y / sy, rejected)
        rejected = not accepted
        if accepted:
            yield t, t_new, (x, y), (x_new, y_new), K
            t, x, y, k1x, k1y = t_new, x_new, y_new, K[-2], K[-1]


def _reference_crossing(f, x0, section, sign, t_max, tol, t_offset):
    """(t_star, point, steps up to its own) of next_section_crossing, step by
    step: each step's dense output, its roots on the segment (_line_roots)
    in ascending order, and each root tested as next_section_crossing says."""
    bx, by, nx, ny, tx, ty, half = section.geometry
    steps = []
    for t_old, t, y_old, y, K in _reference_steps(f, x0, t_max, tol):
        F = flow._dense(f, t - t_old, y_old, y, K)
        steps.append((t_old, t, y_old, y, K, F))
        for s in flow._line_roots(y_old, y, F, bx, by, nx, ny, (tx, ty, half)):
            t_star = t_old + s * (t - t_old)
            px, py = flow._interpolant(F, *y_old, s)
            if t_star > t_offset and abs((px - bx) * tx + (py - by) * ty) <= half:
                u, v = f(px, py)
                if np.sign(u * nx + v * ny) == sign:
                    return t_star, (px, py), steps
    raise flow.NoCrossing


def _bytes(*values):
    return np.array(values, dtype=float).tobytes()


@pytest.mark.parametrize("name", ["CK(3)", "q2"])
def test_scalar_loop_matches_step_by_step_reference(ck, name):
    """integrate's steps, next_section_crossing's crossings and
    _crossing_orbit's orbit, by bytes, against the step-by-step reference."""
    from cyclelab.discriminant import _perturb_coeffs

    X = ck[3] if name == "CK(3)" else _perturb_coeffs(ck[3], np.random.default_rng(5), 1e-3)
    f = X.rhs()
    ref = list(_reference_steps(f, (0.8, 0.1), 12.0, 1e-10))
    orb = flow.integrate(X, (0.8, 0.1), 12.0)
    assert orb.times.tobytes() == _bytes(0.0, *(r[1] for r in ref))
    assert orb.states.tobytes() == _bytes((0.8, 0.1), *(r[3] for r in ref))
    assert [(s.t_old, s.y_old, s.K) for s in orb._segments] == [(r[0], r[2], r[4]) for r in ref]
    for xi in (-0.3, 0.0, 0.25):
        x0 = SEC.point_at(xi)
        t_star, p, steps = _reference_crossing(f, x0, SEC, +1, 30.0, 1e-10, 1e-6)
        got = flow.next_section_crossing(X, x0, SEC, +1, 30.0, 1e-10, 1e-6)
        assert (got[0].hex(), got[1].tobytes()) == (t_star.hex(), _bytes(*p))
        t_orbit, p_orbit, orbit = flow._crossing_orbit(X, x0, SEC, +1, 30.0, 1e-10, 1e-6)
        assert (t_orbit.hex(), p_orbit.tobytes()) == (t_star.hex(), _bytes(*p))
        assert orbit.times.tobytes() == _bytes(0.0, *(r[1] for r in steps))
        assert orbit.states.tobytes() == _bytes(x0, *(r[3] for r in steps))
        assert [s.F for s in orbit._segments] == [r[5] for r in steps]


@pytest.mark.parametrize("xi, rhs_calls, dense_builds", [(-0.2, 304, 20), (0.1, 289, 19)])
def test_return_work_counts(ck, monkeypatch, xi, rhs_calls, dense_builds):
    """d(xi) of CK(3) on the split pipeline's section at tol 1e-10: RHS
    calls, the crossing sign's included, and dense output builds."""
    from cyclelab import cycles as cy

    section = cy.section_for_field(ck[3], (1.0, 0.0), 0.55)
    counted = _CountedField(ck[3])
    dense = flow._dense
    built = []
    monkeypatch.setattr(flow, "_dense", lambda *args: built.append(1) or dense(*args))
    cy.displacement(counted, section, xi, 1e-10)
    assert (counted.calls, len(built)) == (rhs_calls, dense_builds)


# The generic form of flow._line_roots: F_i multiplies s^a (1 - s)^b,
# (a, b) = _DENSE_POWERS[i], and _TO_BERNSTEIN[j - 1][i] is the j-th
# degree-7 Bernstein coefficient on [0, 1] of that product.
_DENSE_POWERS = ((1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3))
_TO_BERNSTEIN = tuple(
    tuple(comb(7 - a - b, j - a) / comb(7, j) if 0 <= j - a <= 7 - a - b else 0.0
          for a, b in _DENSE_POWERS)
    for j in range(1, 7))


def _sum(terms):
    """sum() as Python 3.11 adds floats, left to right; from 3.12 on sum()
    compensates the rounding."""
    total = 0
    for v in terms:
        total = total + v
    return total


def _line_roots_generic(step, bx, by, nx, ny):
    """(ruled out, roots) by lists and sums over _TO_BERNSTEIN."""
    x, y = step.y_old
    g0 = (x - bx) * nx + (y - by) * ny
    x, y = step.y
    g1 = (x - bx) * nx + (y - by) * ny
    c = [nx * u + ny * v for u, v in zip(*step.F)]
    if (g0 > 0 < g1 or g0 < 0 > g1) and abs(g0) > _sum(map(abs, c)):
        return True, []
    return False, flow._bernstein_roots([g0] + [g0 + _sum(ci * m for ci, m in zip(c, row))
                                                for row in _TO_BERNSTEIN] + [g1])


def test_line_roots_match_generic_formula(ck):
    """The written-out crossing screen against its generic form, on CK(3)
    and q2-perturbed orbits cut by random lines, lines tangent to the orbit
    shifted slightly inward (two crossings in one step), and the one-step dip
    of test_double_crossing_within_one_step."""
    from cyclelab.discriminant import _perturb_coeffs

    rng = np.random.default_rng(11)
    cases = []
    for X in [ck[3]] + [_perturb_coeffs(ck[3], rng, 1e-3) for _ in range(2)]:
        orb = flow.integrate(X, (0.9, 0.0), 13.0)
        for t in rng.uniform(0.0, orb.t_end, 40):
            px, py = orb.eval(t)
            angle = rng.uniform(0.0, 2 * np.pi)
            cases.append((orb, px, py, np.cos(angle), np.sin(angle)))
            # the orbit turns toward the origin: its tangent line moved 1e-4
            # toward it is cut twice within about 0.03 in time
            u, v = X.rhs()(px, py)
            speed = np.hypot(u, v)
            cases.append((orb, px - 1e-4 * px, py - 1e-4 * py, -v / speed, u / speed))
    dip = PolyVectorField(parse_poly("1"), parse_poly("x"))
    cases.append((flow.integrate(dip, (-5.0, 12.49), 15.0), 0.0, 0.0, 0.0, 1.0))
    seen = {"ruled out": 0, 0: 0, 1: 0, 2: 0}
    for orb, bx, by, nx, ny in cases:
        bx, by, nx, ny = float(bx), float(by), float(nx), float(ny)
        for step in orb._segments:
            ruled_out, ref = _line_roots_generic(step, bx, by, nx, ny)
            assert flow._line_roots(step.y_old, step.y, step.F, bx, by, nx, ny) == ref
            seen["ruled out" if ruled_out else len(ref)] += 1
    assert min(seen.values()) > 0, seen


@functools.cache
def _screen_steps(name):
    """The steps, dense output built, of about two revolutions of a real
    orbit of each field the off-segment screen is tested on."""
    from cyclelab.discriminant import _perturb_coeffs
    from cyclelab.field import gradient_collapse_family

    if name == "vanderpol(1.0)":
        X, x0, t_end = vanderpol(1.0), (2.0, 0.0), 14.0
    elif name.startswith("q2"):
        X = _perturb_coeffs(ck_system(3), np.random.default_rng(int(name[3:])), 1e-3)
        x0, t_end = (0.9, 0.0), 13.0
    elif name == "CK(3) collapse":
        X = gradient_collapse_family(ck_system(3), parse_poly("1 - x^2 - y^2"), 0.02)
        x0, t_end = (0.9, 0.0), 13.0
    else:
        X, x0, t_end = ck_system(int(name[3])), (0.9, 0.0), 13.0
    steps = flow.integrate(X, x0, t_end)._segments
    for step in steps:
        step.F  # built on first use
    return steps


def _segment_test(px, py, bx, by, tx, ty, half):
    """_step_crossing's segment test of a point, as _lockstep also takes it."""
    return abs((px - bx) * tx + (py - by) * ty) <= half


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(["CK(1)", "CK(2)", "CK(3)", "CK(4)", "CK(5)", "CK(3) collapse",
                        "q2 1", "q2 2", "vanderpol(1.0)"]),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 2 * np.pi),
       st.floats(-3.0, 3.0), st.booleans(),
       st.one_of(st.floats(0.0, 4.0),
                 st.sampled_from(["at", "below", "above", "below 1e-12", "above 1e-12"])))
def test_off_segment_screen_skips_no_crossing(name, where, s0, angle, tau, flat, half):
    """A line through a point of a real orbit's step, with the segment's
    middle tau from that point along the line, and half-lengths at random
    or just below or above the tangent coordinate of the step's first
    crossing; with flat, the step's dense output loses its part along the
    line, so that the screen's bound is tight up to rounding. A step the
    screen rules out holds no root, nor any point of 33 others in [0, 1],
    that passes _step_crossing's segment test, by _interpolant on floats or
    on lane arrays, and the lane kernel decides as the float kernel does."""
    steps = _screen_steps(name)
    step = steps[min(int(where * len(steps)), len(steps) - 1)]
    tx, ty = math.cos(angle), math.sin(angle)
    nx, ny = -ty, tx
    if flat:
        F = tuple(zip(*((u - (tx * u + ty * v) * tx, v - (tx * u + ty * v) * ty)
                        for u, v in zip(*step.F))))
        (x, y), (f0x, f0y) = step.y_old, (F[0][0], F[1][0])
        step = flow._Step(step.t_old, step.t, step.y_old, (x + f0x, y + f0y), None, None)
        step._F = F
    px, py = _at(step, s0)
    bx, by = px - tau * tx, py - tau * ty
    roots = flow._line_roots(step.y_old, step.y, step.F, bx, by, nx, ny)
    if isinstance(half, str):
        if not roots:
            return
        qx, qy = _at(step, roots[0])
        at = abs((qx - bx) * tx + (qy - by) * ty)
        half = {"at": at, "below": math.nextafter(at, 0.0), "above": math.nextafter(at, math.inf),
                "below 1e-12": at - 1e-12, "above 1e-12": at + 1e-12}[half]
    off = flow._off_segment(step.y_old, step.F, bx, by, tx, ty, half)
    lane = flow._off_segment((np.array([step.y_old[0]]), np.array([step.y_old[1]])),
                             [[np.array([v]) for v in Fk] for Fk in step.F], bx, by, tx, ty, half)
    assert lane.tolist() == [off]
    if not off:
        return
    s = np.array(roots + np.linspace(0.0, 1.0, 33).tolist())
    lx, ly = flow._interpolant([[np.full(s.size, v) for v in Fk] for Fk in step.F],
                               np.full(s.size, step.y_old[0]), np.full(s.size, step.y_old[1]), s)
    assert not _segment_test(lx, ly, bx, by, tx, ty, half).any()
    for u in s.tolist():
        assert not _segment_test(*_at(step, u), bx, by, tx, ty, half)


_screen_value = st.one_of(st.floats(-3.0, 3.0), st.floats(-1e-3, 1e-3),
                          st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 1e300, -1e300,
                                           5e-324]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_screen_value, _screen_value, st.lists(_screen_value, min_size=14,
                                                                 max_size=14)),
                min_size=1, max_size=12),
       st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(0.0, 2 * np.pi),
       st.floats(0.0, 3.0))
def test_off_segment_lanes_decide_as_floats(lanes, bx, by, angle, half):
    """Column for column the lane kernel makes the float kernel's decision,
    and NaN or inf in a step never rules it out. _lockstep runs the lane
    kernel with overflow and invalid operations silenced, as here."""
    tx, ty = math.cos(angle), math.sin(angle)
    want = [flow._off_segment((x, y), (F[:7], F[7:]), bx, by, tx, ty, half) for x, y, F in lanes]
    x, y, F = (np.array(v) for v in zip(*lanes))
    with np.errstate(over="ignore", invalid="ignore"):
        got = flow._off_segment((x, y), (list(F.T[:7]), list(F.T[7:])), bx, by, tx, ty, half)
    assert got.tolist() == want
    assert not any(off for (u, v, G), off in zip(lanes, want)
                   if not all(map(math.isfinite, [u, v, *G])))


@pytest.mark.parametrize("end, hit", [(0.55 - 1e-15, True), (0.55, True), (0.55 + 1e-15, False),
                                      (-0.55 + 1e-15, True), (-0.55 - 1e-15, False)])
def test_crossing_at_the_segment_end(end, hit):
    """A hand-built step along y = s - 1/2 at x = end, its crossing of the
    line y = 0 within 1e-15 of the segment end x = 0.55: the screen keeps
    the step, and the crossing counts when it lies on the segment."""
    step = flow._Step(0.0, 1.0, (end, -0.5), (end, 0.5), None, None)
    step._F = ((0.0,) * 7, (1.0,) + (0.0,) * 6)
    geometry = (0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.55)
    assert not flow._off_segment(step.y_old, step.F, 0.0, 0.0, 1.0, 0.0, 0.55)
    got = flow._step_crossing(step.t_old, step.h, step.y_old, step.y, step.F,
                              lambda x, y: (0.0, 1.0), geometry, +1, 0.0)
    if hit:
        assert (got[0], got[1].tolist()) == (0.5, [end, 0.0])
    else:
        assert got is None


def test_far_crossing_is_never_solved(ck, monkeypatch):
    """A return of CK(3) to the section through (1, 0) meets the section
    line twice, near (1, 0) and near (-1, 0); only the crossings near the
    segment are solved."""
    kept = []
    args = (ck[3], SEC.point_at(0.1), SEC, +1, 10.0, 1e-10, 1e-6)
    flow.next_section_crossing(*args, _kept=kept)
    line = [(s, _at(step, s)[0]) for step in kept
            for s in flow._line_roots(step.y_old, step.y, step.F, 1.0, 0.0, 0.0, 1.0)]
    assert sum(x < 0 for _, x in line) == 1
    solved = []
    roots = flow._bernstein_roots

    def counted(b):
        found = roots(b)
        solved.extend(found)
        return found

    monkeypatch.setattr(flow, "_bernstein_roots", counted)
    flow.next_section_crossing(*args)
    assert solved == [s for s, x in line if x > 0]


def _bernstein_product(p, q):
    """Bernstein coefficients on [0, 1] of the product of two polynomials given
    by theirs; an end coefficient is the product of the factors' end values."""
    m, n = len(p) - 1, len(q) - 1
    out = [0.0] * (m + n + 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += comb(m, i) * comb(n, j) / comb(m + n, i + j) * a * b
    return out


def _factors(simple, touch, pair, far):
    """(Bernstein coefficients, power coefficients) of the degree-7 product of
    (s - r) over the simple roots, (s - touch)^2, complex-pair factors
    (s - a)^2 + b^2 with a moving on by 0.75 each, and (s - far), far
    outside [0, 1], when one degree is left."""
    linear = list(simple) + ([touch, touch] if touch is not None else [])
    a, b = pair
    bern, power = [1.0], np.array([1.0])
    for r in linear:
        bern, power = _bernstein_product(bern, [-r, 1.0 - r]), P.polymul(power, [-r, 1.0])
    while len(bern) < 7:
        c0 = a * a + b * b
        bern = _bernstein_product(bern, [c0, c0 - a, (1 - a) ** 2 + b * b])
        power = P.polymul(power, [c0, -2 * a, 1.0])
        a += 0.75
    if len(bern) == 7:
        bern, power = _bernstein_product(bern, [-far, 1.0 - far]), P.polymul(power, [-far, 1.0])
    return bern, power


def _polished_root(r, bern):
    """A real root of the polynomial with Bernstein coefficients bern on
    [0, 1], by Newton's method from r to a fixed point, with every value and
    slope computed exactly from bern's exact power form. np.roots'
    companion eigenvalues can be 2e-9 off where three roots 0.05 apart flank
    a lifted touch, and the float power form of the same product rounds
    apart from bern: where four roots 0.05 apart end at s = 1 its roots lie
    2e-9 from bern's."""
    n = len(bern) - 1
    c = [Fraction(0)] * (n + 1)
    for j, v in enumerate(bern):
        for k in range(n - j + 1):
            c[j + k] += Fraction(v) * comb(n, j) * comb(n - j, k) * (-1) ** k
    for _ in range(60):
        s = Fraction(r)
        slope = sum(i * v * s ** (i - 1) for i, v in enumerate(c) if i)
        if slope == 0:
            break
        r, last = float(s - sum(v * s ** i for i, v in enumerate(c)) / slope), r
        if r == last:
            break
    return r


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(1, 19), unique=True, max_size=4),
    st.floats(0.0, 0.9),
    st.sampled_from([(), (0.0,), (1.0,), (0.0, 1.0)]),
    st.booleans(),
    st.tuples(st.floats(-1.0, 1.0), st.floats(0.25, 1.0)),
    st.sampled_from([-2.5, -1.0, 2.0, 3.5]),
    st.floats(1e-6, 1e3),
    st.sampled_from([-1.0, 1.0]),
)
@example([4, 12], 0.0, (), False, (0.5, 0.3), 3.5, 1.0, 1.0)      # two roots in one step
@example([10], 0.5, (), True, (0.5, 0.3), 3.5, 1.0, -1.0)         # a touch alone
@example([4, 10, 16], 0.3, (0.0, 1.0), True, (0.5, 0.3), 3.5, 1.0, 1.0)
@example([19, 16, 17, 18], 0.0, (1.0,), True, (0.0, 1.0), -2.5, 1.0, -1.0)
def test_bernstein_roots_match_np_roots(interior, jitter, ends, touch, pair, far, size, sign):
    """Sign changes of degree-7 polynomials on [0, 1] against np.roots.

    The interior roots lie at least 0.04 apart. With ``touch`` the first of
    them is a double root moved about 1e-10 away from zero, so that rounding
    cannot push it across: a touch with no sign change, which is no
    crossing. Roots at s = 0 and s = 1 are exact zeros of the end
    coefficients, as when a step starts or ends on the section line.
    """
    points = [(5 * i + jitter) / 100 for i in interior]
    touch_at = points.pop(0) if touch and points else None
    bern, power = _factors(list(ends) + points, touch_at, pair, far)
    if touch_at is not None:
        # + lift * s (1 - s), which keeps any roots at s = 0 and s = 1
        lift = 1e-10 * np.sign(P.polyval(touch_at + 0.004, power))
        bern = [v + lift * j * (7 - j) / 42 for j, v in enumerate(bern)]
        power = power + lift * np.array([0.0, 1.0, -1.0, 0, 0, 0, 0, 0])
    b = [sign * size * v for v in bern]
    got = flow._bernstein_roots(b)

    ref = np.roots(sign * size * power[::-1])
    ref = [_polished_root(r, b) for r in ref.real[np.abs(ref.imag) < 1e-7]]
    ref = sorted(r for r in ref if -1e-9 < r < 1 + 1e-9)
    if touch_at is not None:
        assert all(abs(s - touch_at) > 1e-5 for s in got)
    assert len(got) == len(ref) == len(ends) + len(points)
    assert np.allclose(got, ref, rtol=0.0, atol=1e-9)
    assert got == sorted(got)
    assert all(0.0 <= s <= 1.0 for s in got)


def _bernstein_row(split, magnitudes, sign, flips):
    """A degree-7 Bernstein row of the given magnitudes, of one sign before
    position split and of the other from there, with the signs at flips
    turned."""
    return [m * sign * (1 if i < split else -1) * (-1 if i in flips else 1)
            for i, m in enumerate(magnitudes)]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.builds(
    _bernstein_row,
    st.integers(0, 8),
    st.lists(st.one_of(st.just(0.0), st.floats(-12.0, 12.0).map(lambda e: 10.0 ** e)),
             min_size=8, max_size=8),
    st.sampled_from([-1.0, 1.0]),
    st.one_of(st.just(frozenset()), st.frozensets(st.integers(0, 7), max_size=2))),
    min_size=1, max_size=16))
@example([
    [1.0, 1.0, 0.5, -0.2, -1.0, -1.0, -1.0, -2.0],      # one sign change
    [1.0, 1.0, 1.0, 0.0, -1.0, -1.0, -1.0, -1.0],       # Newton from 0.5
    [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0],          # a root at 0.5 exactly
    # Newton from 0.5 leaves the bracket and bisects
    [1e7, 6e9, 9e6, 0.0, -1e11, 0.0, -1e5, -0.1],
    [0.0, 1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 4.0],           # a root at s = 0
    [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -0.0],          # a root at s = 1
    [0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0],           # both
    [0.0, -1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 4.0],          # s = 0 and one inside
    [1.0, 1e-300, -1e-300, -1.0, 1.0, 1.0, 1.0, 1.0],   # two sign changes
])
def test_lane_roots_match_bernstein_roots(rows):
    """Column for column, the root search on lane arrays gives
    _bernstein_roots' roots in its order, and _single_roots gives
    _single_root's, bit for bit."""
    b = np.array(rows).T
    got = [[] for _ in rows]
    for cols, s in flow._lane_roots(b):
        for j, v in zip(cols.tolist(), s.tolist()):
            got[j].append(v.hex())
    assert got == [[v.hex() for v in flow._bernstein_roots(row)] for row in rows]
    one = [j for j, row in enumerate(rows) if flow._sign_changes(row) == 1]
    assert ([v.hex() for v in flow._single_roots(b[:, one]).tolist()]
            == [flow._single_root(rows[j]).hex() for j in one])


def _lockstep_fields(ck):
    """Fields for the lockstep tests: six monomial supports and a
    CollapseField of a Bernstein R, which lane_evaluators leaves out of every
    lane group (its select is None), with orbits that cross, never cross
    (NoCrossing), leave the safety box (Divergence) and blow up in finite
    time (StepUnderflow, with overflow inside the lane arrays). The orbits of the seventh field are the
    graphs y = (x - 0.5)(x - 1.1)(x - 1.3)(x - 1.5) + const, so a step can
    meet the section line three times, which leaves as many sign changes
    among its Bernstein coefficients, and cross it upward twice."""
    from cyclelab.discriminant import _perturb_coeffs
    from cyclelab.field import gradient_collapse_family

    rng = np.random.default_rng(3)
    repelling3 = PolyVectorField(parse_poly("-y - x + x^3 + x*y^2"),
                                 parse_poly("x - y + x^2*y + y^3"))
    repelling7 = PolyVectorField(parse_poly("-y + x^7 + 3*x^5*y^2 + 3*x^3*y^4 + x*y^6"),
                                 parse_poly("x + x^6*y + 3*x^4*y^3 + 3*x^2*y^5 + y^7"))
    box = (-2.0, 2.0, -2.0, 2.0)
    return [repelling3, repelling7, ck[1], ck[3],
            _perturb_coeffs(ck[1], rng, 0.05), _perturb_coeffs(ck[1], rng, 0.3),
            PolyVectorField(parse_poly("1"), parse_poly("4*x^3 - 13.2*x^2 + 13.96*x - 4.66")),
            _perturb_coeffs(ck[3], rng, 1e-3), _perturb_coeffs(ck[3], rng, 0.3),
            gradient_collapse_family(ck[1], oracles.to_bernstein(parse_poly("1 - x^2 - y^2"), box),
                                     0.02)]


def _crossing_or_failure(X, x0, sign, **kw):
    try:
        return flow.next_section_crossing(X, x0, SEC, sign, **kw)
    except flow.OrbitFailure as exc:
        return exc


def _same(got, ref):
    if isinstance(ref, flow.OrbitFailure):
        return type(got) is type(ref) and str(got) == str(ref)
    return got[0] == ref[0] and np.array_equal(got[1], ref[1])


_LOCKSTEP_KW = dict(t_max=30.0, tol=1e-10, t_offset=1e-6)


@pytest.fixture(scope="module")
def scalar_lanes(ck):
    """Lanes (X, x0, direction_sign) and next_section_crossing's result for each."""
    lanes = [(X, SEC.point_at(xi), sign) for X in _lockstep_fields(ck)
             for xi, sign in ((-0.5, 1), (-0.2, 1), (0.0, 1), (0.3, 1), (0.55, 1), (0.0, -1))]
    return lanes, [_crossing_or_failure(*lane, **_LOCKSTEP_KW) for lane in lanes]


@pytest.mark.parametrize("min_lanes, max_attempts", [
    # every lane in lockstep to its end
    (1, 10 ** 6),
    # every lane continues on the scalar driver after 13 attempts, three of
    # them right after a rejected attempt
    (1, 13),
    # a threshold above the default, and the default
    (48, flow._LOCKSTEP_MAX_ATTEMPTS),
    (flow._LOCKSTEP_MIN_LANES, flow._LOCKSTEP_MAX_ATTEMPTS),
])
def test_lockstep_matches_next_section_crossing(scalar_lanes, monkeypatch, min_lanes,
                                                max_attempts):
    """Lane for lane, the lockstep driver gives next_section_crossing's
    (t_star, point) bits, or a failure of the same type and message. The
    suite turns RuntimeWarnings into errors, so overflow in a lane array
    must stay silent, as it is on floats."""
    monkeypatch.setattr(flow, "_LOCKSTEP_MIN_LANES", min_lanes)
    monkeypatch.setattr(flow, "_LOCKSTEP_MAX_ATTEMPTS", max_attempts)
    searched_one_by_one = []
    bernstein_roots = flow._bernstein_roots

    def counted(b):
        if sys._getframe(1).f_code.co_name == "_lane_roots":
            searched_one_by_one.append(flow._sign_changes(b))
        return bernstein_roots(b)

    monkeypatch.setattr(flow, "_bernstein_roots", counted)
    lanes, refs = scalar_lanes
    got = flow.next_section_crossings([[lane] for lane in lanes], SEC, **_LOCKSTEP_KW)
    assert [len(row) for row in got] == [1] * len(lanes)
    for (hit,), ref in zip(got, refs):
        assert _same(hit, ref), (hit, ref)
    kinds = {type(ref).__name__ for ref in refs}
    assert kinds == {"tuple", "NoCrossing", "Divergence", "StepUnderflow"}, kinds
    # the graph field's six lanes are too few to step in lockstep by default
    assert min(searched_one_by_one, default=2) >= 2
    assert searched_one_by_one or min_lanes > 6


@pytest.mark.parametrize("min_lanes, max_attempts, ended", [
    # every lane in lockstep to its end; the collapse field's lanes belong to
    # no group and run on the scalar driver throughout
    (1, 10 ** 6, {"lockstep", "scalar"}),
    # the lanes that do not cross in 13 attempts continue on the scalar driver
    (1, 13, {"lockstep", "handed over", "scalar"}),
    # the 60 lanes fall in groups too small for lockstep, above the default
    # threshold and at it
    (48, flow._LOCKSTEP_MAX_ATTEMPTS, {"scalar"}),
    (flow._LOCKSTEP_MIN_LANES, flow._LOCKSTEP_MAX_ATTEMPTS, {"scalar"}),
])
def test_lockstep_keeps_the_steps_of_lanes_that_ask(scalar_lanes, monkeypatch, min_lanes,
                                                     max_attempts, ended):
    """A lane that hands over a list keeps the orbit that
    next_section_crossing(_kept=...) keeps, float for float: its times, its
    states and its eval at every step's Gauss nodes, whether it ends in
    lockstep or on the scalar driver after the hand-over."""
    monkeypatch.setattr(flow, "_LOCKSTEP_MIN_LANES", min_lanes)
    monkeypatch.setattr(flow, "_LOCKSTEP_MAX_ATTEMPTS", max_attempts)
    lanes, refs = scalar_lanes
    kept = [[] for _ in lanes]
    got = flow.next_section_crossings([[(*lane, steps)] for lane, steps in zip(lanes, kept)],
                                      SEC, **_LOCKSTEP_KW)
    nodes = np.polynomial.legendre.leggauss(10)[0]
    seen = set()
    for lane, steps, (hit,), ref in zip(lanes, kept, got, refs):
        assert _same(hit, ref), (hit, ref)
        if isinstance(ref, flow.OrbitFailure):
            continue
        X, x0, sign = lane
        ref_steps = []
        flow.next_section_crossing(X, x0, SEC, sign, _kept=ref_steps, **_LOCKSTEP_KW)
        trail = bool(steps) and isinstance(steps[0], flow._Trail)
        seen.add("scalar" if not trail else "lockstep" if len(steps) == 1 else "handed over")
        orbit, ref_orbit = flow._orbit(x0, steps), flow._orbit(x0, ref_steps)
        assert orbit.times.tobytes() == ref_orbit.times.tobytes()
        assert orbit.states.tobytes() == ref_orbit.states.tobytes()
        lo, hi = ref_orbit.times[:-1, None], ref_orbit.times[1:, None]
        t = 0.5 * (hi - lo) * nodes + 0.5 * (lo + hi)
        assert orbit.eval(t).tobytes() == ref_orbit.eval(t).tobytes()
    assert seen == ended


def test_kept_trail_survives_another_call(ck, monkeypatch):
    """A lane's _Trail holds its group's attempt arrays as they were made
    and gathers the lane's steps only in steps(), so a second call on the
    same fields and groups, from other points, leaves the first call's steps
    byte for byte as they were."""
    from cyclelab.field import gradient_collapse_family, lane_evaluators

    monkeypatch.setattr(flow, "_LOCKSTEP_MIN_LANES", 1)
    fields = [ck[3], gradient_collapse_family(ck[3], parse_poly("1 - x^2 - y^2"), 0.02)]
    groups = fields, lane_evaluators(fields)

    def call(xis):
        kept = [[] for _ in fields for _ in xis]
        lanes = [(X, SEC.point_at(xi), 1) for X in fields for xi in xis]
        got = flow.next_section_crossings([[(*lane, steps)] for lane, steps in zip(lanes, kept)],
                                          SEC, **_LOCKSTEP_KW, _groups=groups)
        assert all(isinstance(hit, tuple) for (hit,) in got)
        assert all(len(steps) == 1 and isinstance(steps[0], flow._Trail) for steps in kept)
        return [steps[0] for steps in kept]

    def data(trail):
        steps = trail.steps()
        assert steps
        return np.array([(s.t_old, s.t, *s.y_old, *s.y, *s.K, *s.F[0], *s.F[1])
                         for s in steps]).tobytes()

    trails = call((-0.3, -0.1, 0.2))
    before = [data(trail) for trail in trails]
    call((-0.2, 0.1, 0.25))
    assert [data(trail) for trail in trails] == before


def test_lockstep_attempts_search_only_lanes_left_to_search(ck, section, monkeypatch):
    """q2-search's displacements at seed 1, 24 fields x 13 nodes in one
    group, take 22 lockstep attempts, and 7 of them have lanes left to
    search after the screens: the departures from the section and the
    returns. No search kernel runs on zero lanes, and no crossing-sign
    evaluator is built for zero lanes."""
    from cyclelab import cycles as cy
    from cyclelab import discriminant as dc
    from cyclelab import field as fd

    calls = {"_off_segment": [], "_line_bernstein": [], "_lane_roots": [], "_controls": []}

    def wrap(name, lane_row):
        kernel = getattr(flow, name)

        def counted(*args):
            row = lane_row(*args)
            if isinstance(row, np.ndarray):  # not a call of the scalar driver
                calls[name].append(row.size)
            return kernel(*args)

        monkeypatch.setattr(flow, name, counted)

    wrap("_off_segment", lambda y_old, *_: y_old[0])
    wrap("_line_bernstein", lambda g0, *_: g0)
    wrap("_lane_roots", lambda b: b[0])
    wrap("_controls", lambda h_abs, *_: h_abs)
    evaluated = []

    def lane_evaluators(fields):
        def counted(lanes, select):
            if isinstance(lanes, np.ndarray):
                evaluated.append(lanes.size)
            return select(lanes)

        return [(members, select and functools.partial(counted, select=select))
                for members, select in fd.lane_evaluators(fields)]

    monkeypatch.setattr(cy, "lane_evaluators", lane_evaluators)
    fields = [dc._perturb_coeffs(ck[3], np.random.default_rng([1, i]), 1e-3) for i in range(24)]
    cy.displacements(fields, section, dc._nodes(3, 0.025), tol=flow.DEFAULT_TOL)
    assert len(calls["_controls"]) == 22
    assert len(calls["_lane_roots"]) == 7
    assert calls["_line_bernstein"] == calls["_lane_roots"]
    assert min(calls["_off_segment"] + calls["_lane_roots"]) > 0
    assert len(evaluated) > 1 and min(evaluated) > 0


@pytest.mark.parametrize("min_lanes", [1, 48, flow._LOCKSTEP_MIN_LANES])
def test_lockstep_rows_end_at_their_first_failure(ck, monkeypatch, min_lanes):
    """A row collects what a loop over its lanes collects before its first
    failure, which ends it."""
    monkeypatch.setattr(flow, "_LOCKSTEP_MIN_LANES", min_lanes)
    xis = (-0.5, 0.0, 0.3, -0.2, 0.55)
    rows = [[(X, SEC.point_at(xi), +1) for xi in xis] for X in _lockstep_fields(ck)]
    got = flow.next_section_crossings(rows, SEC, **_LOCKSTEP_KW)
    for row, hits in zip(rows, got):
        ref = []
        for lane in row:
            ref.append(_crossing_or_failure(*lane, **_LOCKSTEP_KW))
            if isinstance(ref[-1], flow.OrbitFailure):
                break
        assert len(hits) == len(ref)
        assert all(_same(hit, r) for hit, r in zip(hits, ref))
    assert 0 < sum(len(hits) < len(xis) for hits in got) < len(rows)


def test_lockstep_rejects_bad_arguments(ck):
    rows = [[(ck[1], SEC.point_at(0.1), +1)]]
    for kw in (dict(t_max=0.0), dict(t_max=-1.0), dict(tol=0.0)):
        with pytest.raises(ValueError):
            flow.next_section_crossings(rows, SEC, **kw)
    assert flow.next_section_crossings([], SEC) == []
    assert flow.next_section_crossings([[]], SEC) == [[]]


@pytest.mark.parametrize("min_lanes", [1, 48, flow._LOCKSTEP_MIN_LANES])
def test_lane_starts_raise_the_first_bad_lanes_error(ck, monkeypatch, min_lanes):
    """Lanes that start on arrays raise what the scalar starts raise first
    in lane order."""
    monkeypatch.setattr(flow, "_LOCKSTEP_MIN_LANES", min_lanes)
    good = SEC.point_at(0.1)
    rows = [[(ck[3], good, +1), (ck[3], (np.nan, 0.0), +1)], [(ck[3], (0.0, np.inf), +1)]]
    with pytest.raises(ValueError, match=r"^the start point \(nan, 0\.0\) must be finite$"):
        flow.next_section_crossings(rows, SEC, **_LOCKSTEP_KW)
    rows = [[(ck[3], good, +1)] * 3]
    for kw, message in ((dict(t_max=0.0), "the time bound"), (dict(tol=0.0), "tol")):
        with pytest.raises(ValueError, match=f"^{message} must be > 0$"):
            flow.next_section_crossings(rows, SEC, **{**_LOCKSTEP_KW, **kw})


def _initial_step_reference(lanes, t_bound, tol):
    """_initial_step on each lane (x, y, fx, fy, a, b, c, d), whose RHS is
    (a x + b, c y + d), or the type of the first error it raises."""
    try:
        return [flow._initial_step(lambda u, v, a=a, b=b, c=c, d=d: (a * u + b, c * v + d),
                                   x, y, fx, fy, t_bound, tol).hex()
                for x, y, fx, fy, a, b, c, d in lanes]
    except ArithmeticError as exc:
        return type(exc)


_start_value = st.one_of(st.floats(-3.0, 3.0), st.floats(-1e-12, 1e-12),
                         st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300]))
_rng = np.random.default_rng(34)
# 4,000 random lanes, each of which takes the power of _initial_step: about
# one in twenty would round otherwise under NumPy's power
_many_starts = np.concatenate([_rng.normal(size=(4000, 4)) * 10.0 ** _rng.uniform(-3, 3, (4000, 1)),
                               _rng.normal(size=(4000, 4))], axis=1).tolist()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(*[_start_value] * 8), min_size=1, max_size=12),
       st.sampled_from([1e-9, 1e-4, 0.5, 200.0, 1e300]),
       st.sampled_from([1e-12, 1e-10, 1e-6, 1.0]))
# d0 and d1 below 1e-5, d1 and d2 at most 1e-15; then the step above t_bound
@example([(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0), (1.0, 0.5, 0.0, 0.0, 1.0, -1.0, 2.0, -1.0),
          (0.7, -0.2, 0.3, -0.4, 1.0, 0.0, 1.0, 0.0), (1e-300, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
          (0.7, -0.2, np.nan, 0.4, 1.0, 0.0, 1.0, 0.0),
          (0.7, -0.2, 0.3, 0.4, 1.0, np.inf, 1.0, 0.0)], 200.0, 1e-10)
@example([(0.7, -0.2, 0.3, -0.4, 1.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)],
         1e-9, 1e-10)
# d1 = inf gives h0 = 0; d1 = 0 with d2 NaN divides 0.01 by max(d1, d2) = 0
@example([(0.7, -0.2, 0.3, -0.4, 1.0, 0.0, 1.0, 0.0), (0.7, -0.2, np.inf, 0.0, 1.0, 0.0, 1.0, 0.0)],
         200.0, 1e-10)
@example([(0.7, -0.2, 0.0, 0.0, 1.0, np.nan, 1.0, 0.0)], 200.0, 1e-10)
@example(_many_starts, 200.0, 1e-10)
def test_lane_initial_steps_are_initial_step(lanes, t_bound, tol):
    """The initial step on lane arrays gives _initial_step's bits on every
    lane and raises where _initial_step raises, with no RuntimeWarning."""
    ref = _initial_step_reference(lanes, t_bound, tol)
    x, y, fx, fy, a, b, c, d = (np.array(v, dtype=float) for v in zip(*lanes))

    def f(u, v):
        return a * u + b, c * v + d

    if isinstance(ref, type):
        with pytest.raises(ref):
            flow._initial_steps(f, x, y, fx, fy, t_bound, tol)
        return
    got = flow._initial_steps(f, x, y, fx, fy, t_bound, tol)
    assert [v.hex() for v in got.tolist()] == ref


def _value_slope_generic(b, u):
    """de Casteljau's algorithm for any degree, as a loop."""
    v, w = 1 - u, b
    while len(w) > 2:
        w = [p * v + q * u for p, q in zip(w, w[1:])]
    p, q = w
    return p * v + q * u, (len(b) - 1) * (q - p)


_casteljau_value = st.one_of(st.floats(-1e3, 1e3), st.floats(-1e-300, 1e-300),
                             st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324,
                                              -5e-324, 1e300]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.lists(_casteljau_value, min_size=8, max_size=8),
                          st.one_of(st.floats(0.0, 1.0), _casteljau_value)),
                min_size=1, max_size=12))
@example([([1.0, 2.0, -3.0, 0.5, 0.0, -0.0, 7.0, -1.0], 0.3),
          ([0.0] * 8, -0.0), ([-0.0] * 8, 0.5), ([np.inf, -np.inf] * 4, 0.5),
          ([np.nan] + [1.0] * 7, 0.25), ([5e-324] * 8, 1.0), ([1.0] * 8, 5e-324)])
def test_value_slope_is_de_casteljau_on_floats_and_lanes(rows):
    """The written-out degree-7 de Casteljau step against the generic loop,
    on floats and on lane arrays, bit for bit."""
    ref = [[v.hex() for v in _value_slope_generic(b, u)] for b, u in rows]
    assert [[v.hex() for v in flow._value_slope(b, u)] for b, u in rows] == ref
    b = np.array([b for b, _ in rows]).T
    u = np.array([u for _, u in rows])
    with np.errstate(over="ignore", invalid="ignore"):
        value, slope = flow._value_slope(b, u)
    assert [[g.hex(), s.hex()] for g, s in zip(value.tolist(), slope.tolist())] == ref


def _python_power(v, e):
    """Python's float v ** e, or None where Python raises or gives a complex."""
    try:
        p = v ** e
    except ArithmeticError:
        return None
    return p if isinstance(p, float) else None


# the exponents of the stepper's powers: _control's ** 2 and ** -0.125 and
# _initial_step's ** (1 / 8)
_EXPONENTS = (2, -0.125, 1 / 8)


_power_special = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1.0, -1.0,
                  1.3407807929942596e154, 1.3407807929942597e154, 1.7976931348623157e308,
                  np.inf, -np.inf, np.nan)
# 60,000 doubles: random bit patterns, mostly far from 1, and uniform and
# log-normal draws near the errors and steps the stepper meets
_many_doubles = np.concatenate([_rng.integers(0, 2 ** 63 - 1, 20_000, dtype=np.int64).view(float),
                                _rng.uniform(0.0, 10.0, 20_000),
                                _rng.lognormal(0.0, 20.0, 20_000)]).tolist()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(), st.floats(0.0, 1e-300), st.floats(0.0, 10.0),
                          st.sampled_from(_power_special)), min_size=1, max_size=40))
@example(list(_power_special))
@example(_many_doubles)
def test_lane_powers_are_python_powers(values):
    """np.float_power, by which _controls and _initial_steps take the
    stepper's powers on lanes, gives Python's float ** bit for bit for each
    exponent they use, wherever Python gives a float: on random doubles,
    subnormals, +-0, +-inf and NaN."""
    for e in _EXPONENTS:
        pairs = [(v, p) for v in values if (p := _python_power(v, e)) is not None]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            got = np.float_power(np.array([v for v, _ in pairs], dtype=float), e)
        assert [g.hex() for g in got.tolist()] == [p.hex() for _, p in pairs], e


def _control_reference(rows):
    """_control on each row, or the type of the first error it raises."""
    try:
        return [(accepted, h.hex()) for accepted, h in (flow._control(*row) for row in rows)]
    except ArithmeticError as exc:
        return type(exc)


def _straddle(h, e3):
    """Scaled errors (e5x, e5y, e3x, e3y) whose combined error norm at step h
    lies at, just below or just above 1: with e3 = 0 it is h |e5| / sqrt(2)."""
    e5 = math.sqrt(2.0) / h
    return [(h, v, 0.0, e3, 0.0) for v in (e5, math.nextafter(e5, 0.0),
                                            math.nextafter(e5, math.inf),
                                            e5 * (1 - 1e-9), e5 * (1 + 1e-9))]


_magnitude = st.one_of(st.just(0.0), st.floats(-330.0, 300.0).map(lambda e: 10.0 ** e))
_error = st.one_of(st.builds(lambda m, s: m * s, _magnitude, st.sampled_from([-1.0, 1.0])),
                   st.sampled_from([np.inf, -np.inf, np.nan, 5e-324, 1e-160, -0.0]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.one_of(_magnitude, st.just(np.nan)), _error, _error, _error, _error,
                          st.booleans()), min_size=1, max_size=12))
@example([row + (rejected,) for h in (1e-3, 0.37, 2.0) for e3 in (0.0, 1e-3)
          for row in _straddle(h, e3) for rejected in (False, True)])
@example([(0.1, 0.0, 0.0, 0.0, 0.0, False), (0.1, 0.0, 0.0, 0.0, 0.0, True),
          (0.0, 1.0, 1.0, 1.0, 1.0, False), (0.1, 1e-160, 0.0, 3e-161, 0.0, False),
          (0.1, 1e-170, 1e-170, 0.0, 0.0, True), (0.1, np.inf, 0.0, 0.0, 0.0, False),
          (0.1, np.inf, 1.0, np.inf, 0.0, True), (0.1, np.nan, 0.0, 0.0, 0.0, False),
          (0.1, 0.0, 0.0, np.nan, 0.0, True), (0.1, 1e200, 0.0, 0.0, 0.0, False),
          (np.inf, 1e-3, 0.0, 0.0, 0.0, False), (0.1, 0.0, 0.0, 1e300, 1e300, False)])
# n5 = 0 and 0.01 * n3 underflows to 0: _control divides by zero
@example([(0.1, 1.0, 0.0, 0.0, 0.0, False), (0.1, 0.0, 0.0, 2e-162, 0.0, False)])
def test_lane_control_is_control(rows):
    """The step-size control on lane arrays gives _control's outcome on every
    lane, bit for bit, and raises where _control raises."""
    ref = _control_reference(rows)
    h, e5x, e5y, e3x, e3y = (np.array(v, dtype=float) for v in list(zip(*rows))[:5])
    rejected = np.array([row[5] for row in rows])
    if isinstance(ref, type):
        with pytest.raises(ref):
            flow._controls(h, e5x, e5y, e3x, e3y, rejected)
        return
    accepted, h_next = flow._controls(h, e5x, e5y, e3x, e3y, rejected)
    assert [(bool(a), v.hex()) for a, v in zip(accepted.tolist(), h_next.tolist())] == ref


def test_tableau_is_scipys_dop853():
    """The tableau rows and their column lists are the nonzero entries of
    SciPy's DOP853 tableau, weight for weight: A's rows 1-11 (_A), A_EXTRA
    (_A_DENSE), B, E5 and E3 (_B, _E5, _E3 over _B_COLUMNS) and D (_D). The
    float and the lane kernels are both built from these tables, so this is
    the one check of the tables themselves."""
    from scipy.integrate import DOP853

    def nonzero(row):
        columns = tuple(np.flatnonzero(row).tolist())
        return columns, [float(row[j]).hex() for j in columns]

    ours = list(zip(flow._A_COLUMNS + flow._A_DENSE_COLUMNS, flow._A + flow._A_DENSE))
    ours += [(flow._B_COLUMNS, row) for row in (flow._B, flow._E5, flow._E3)]
    ours += [(flow._D_COLUMNS, row) for row in flow._D]
    theirs = [*DOP853.A[1:], *DOP853.A_EXTRA, DOP853.B, DOP853.E5, DOP853.E3, *DOP853.D]
    assert [(columns, [w.hex() for w in row]) for columns, row in ours] == \
        [nonzero(row) for row in theirs]


def _tableau_lanes():
    """Lanes (x, y, k1x, k1y, h) for the lane tableau test: generic values,
    whose every stage sum tells the tableau's columns apart, and lanes with
    -0.0, infinities and NaN in the state, k and h. The first lane's points,
    k and stage sums are all -0.0 under _LINEAR: -0.0 + (-0.0) is -0.0, where
    a sum started at +0.0 would give +0.0."""
    rng = np.random.default_rng(26)
    generic = [tuple(row) for row in np.column_stack([rng.uniform(-2.0, 2.0, (40, 4)),
                                                      rng.uniform(1e-3, 0.2, 40)]).tolist()]
    special = [(-0.0, -0.0, -0.0, -0.0, 0.1), (-0.0, 0.5, 0.25, -0.0, 0.1),
               (0.3, -0.4, 0.2, 0.7, -0.0), (0.3, -0.4, 0.2, 0.7, 0.0),
               (np.inf, 0.2, 0.1, 0.3, 0.05), (0.2, -np.inf, 0.1, 0.3, 0.05),
               (np.nan, 0.2, 0.1, 0.3, 0.05), (0.3, 0.2, np.inf, -0.5, 0.05),
               (0.3, 0.2, 0.1, -np.inf, 0.05), (0.3, 0.2, 0.1, np.nan, 0.05),
               (0.3, 0.2, 0.1, 0.4, np.inf), (0.3, 0.2, 0.1, 0.4, np.nan),
               (1e300, -1e300, 1e300, 1e300, 10.0), (5e-324, -5e-324, 5e-324, -0.0, 0.1)]
    return special + generic


def _linear(x, y):
    """A linear field whose values at -0.0 are -0.0."""
    return 0.75 * x + 0.5 * y, 0.25 * x + 1.25 * y


def _linear_lanes(x, y, out):
    out[0], out[1] = _linear(x, y)
    return out


def _tableau_fields():
    """(float RHS per lane, lane RHS) pairs: _linear, and two degree-7 fields
    of one lane group (field.lane_evaluators), lanes alternating between them."""
    from cyclelab.discriminant import _perturb_coeffs
    from cyclelab.field import lane_evaluators

    fields = [_perturb_coeffs(ck_system(3), np.random.default_rng(k), 0.3) for k in (5, 6)]
    (_, select), = lane_evaluators(fields)
    n = len(_tableau_lanes())
    return [([_linear] * n, _linear_lanes),
            ([select(k % 2) for k in range(n)], select(np.arange(n) % 2))]


@pytest.mark.parametrize("which", [0, 1])
def test_lane_tableau_is_attempt_and_dense_bit_for_bit(which):
    """_lane_attempt and _lane_dense give every lane the bits of _attempt and
    _dense on that lane's floats: the step, all 16 stage derivatives, the
    error estimates e5 and e3 and the dense output coefficients, -0.0,
    infinities and NaN included. The values are generic, so a wrong column
    list beside _A, _B, _A_DENSE or _D changes them."""
    lanes = _tableau_lanes()
    floats, lane_rhs = _tableau_fields()[which]
    want = []
    for f, (x, y, k1x, k1y, h) in zip(floats, lanes):
        stages = [(k1x, k1y)]

        def kept(u, v, f=f, stages=stages):
            stages.append(f(u, v))
            return stages[-1]

        x_new, y_new, K, e5x, e5y, e3x, e3y = flow._attempt(kept, x, y, k1x, k1y, h)
        F = flow._dense(kept, h, (x, y), (x_new, y_new), K)
        assert len(stages) == 16
        want.append([x_new, y_new, *sum(stages, ()), e5x, e5y, e3x, e3y, *F[0], *F[1]])
    x, y, k1x, k1y, h = (np.array(v) for v in zip(*lanes))
    z = np.array([x, y])
    with np.errstate(all="ignore"):
        z_new, K, e5, e3 = flow._lane_attempt(lane_rhs, z, np.array([k1x, k1y]), h)
        F = flow._lane_dense(lane_rhs, h, z, z_new, K)
    assert K.shape == (16, 2, len(lanes)) and F.shape == (2, 7, len(lanes))
    got = np.concatenate([z_new, K.reshape(32, -1), e5, e3, F[0], F[1]]).T
    assert [[v.hex() for v in row] for row in got.tolist()] == \
        [[v.hex() for v in row] for row in want]
