"""Numerical integration of planar polynomial fields with dense output.

One private generator drives SciPy's adaptive Dormand-Prince 5(4) stepper
(explicit embedded pair with a free 4th-order dense interpolant) and yields
every accepted step; it alone watches the step status, the step budget and
the safety box. ``integrate`` collects the steps into an Orbit.
``next_section_crossing`` solves each step for its section crossings
exactly: the dense output on a step is a quartic in time, so its normal
coordinate against the section line is a quartic whose real roots in the
step are the crossings. Every way an orbit can fail derives from
OrbitFailure. Stiff integrators are not needed here: polynomial fields near
attracting cycles at our perturbation sizes are non-stiff.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import RK45

DEFAULT_TOL = 1e-10
_SAFETY_BOX = 1e3
_MAX_STEPS = 2_000_000


class OrbitFailure(Exception):
    """The orbit could not be followed to the requested time or crossing."""


class StepUnderflow(OrbitFailure):
    """The adaptive stepper failed (stiffness or blow-up)."""


class Divergence(OrbitFailure):
    """Trajectory left the safety box |x|, |y| <= box."""

    def __init__(self, t, point, box):
        super().__init__(f"orbit left the safety box {box:g} at t={t:.6g}")
        self.t = t
        self.point = point


class NoCrossing(OrbitFailure):
    """No section crossing found within t_max."""


class LeftNeighborhood(OrbitFailure):
    """Orbit exited the configured neighborhood before returning."""


@dataclass
class Orbit:
    """Adaptive-step trajectory with per-step dense interpolants.

    Times are strictly increasing; ``eval`` interpolates anywhere inside
    [t0, t_end] with the local error the integrator tolerances imply.
    """

    field_ref: object
    x0: tuple[float, float]
    times: np.ndarray
    states: np.ndarray  # (n, 2)
    tol: tuple[float, float]  # (rtol, atol)
    _segments: list = field(default_factory=list, repr=False)

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def eval(self, t):
        """Dense-output evaluation at scalar or array t."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty((t_arr.size, 2))
        seg_ends = np.array([s.t_max for s in self._segments])
        idx = np.clip(np.searchsorted(seg_ends, t_arr, side="left"), 0, len(self._segments) - 1)
        for k in range(t_arr.size):
            out[k] = self._segments[idx[k]](t_arr[k])
        if np.isscalar(t) or np.asarray(t).shape == ():
            return out[0]
        return out.reshape(np.shape(t) + (2,))

    def sample(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        ts = np.linspace(self.times[0], self.t_end, n)
        return ts, self.eval(ts)

    def to_csv(self, path, n: int | None = None) -> None:
        """Dump t,x,y rows; the accepted steps by default, or n dense samples."""
        if n is None:
            ts, pts = self.times, self.states
        else:
            ts, pts = self.sample(n)
        lines = ["t,x,y"]
        for t, (x, y) in zip(ts, pts):
            lines.append(f"{float(t)!r},{float(x)!r},{float(y)!r}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _steps(X, x0, t_bound, tol):
    """Accepted steps from x0 over [0, t_bound], as (dense segment, end state).

    Ends when t_bound is reached; raises StepUnderflow when the stepper fails
    or the step budget runs out and Divergence when a step ends outside the
    safety box.
    """
    solver = RK45(X.rhs(), 0.0, np.asarray(x0, dtype=float), t_bound=float(t_bound),
                  rtol=tol, atol=tol)
    for _ in range(_MAX_STEPS):
        if solver.status == "finished":
            return
        msg = solver.step()
        if solver.status == "failed":
            raise StepUnderflow(msg or "step size underflow")
        if np.max(np.abs(solver.y)) > _SAFETY_BOX:
            raise Divergence(solver.t, solver.y.copy(), _SAFETY_BOX)
        yield solver.dense_output(), solver.y.copy()
    raise StepUnderflow("step budget exhausted")


def _orbit(X, x0, tol, steps) -> Orbit:
    x0 = np.asarray(x0, dtype=float)
    return Orbit(
        field_ref=X,
        x0=tuple(x0),
        times=np.array([0.0] + [seg.t_max for seg, _ in steps]),
        states=np.array([x0] + [y for _, y in steps]),
        tol=(tol, tol),
        _segments=[seg for seg, _ in steps],
    )


def integrate(X, x0, t_end: float, tol: float = DEFAULT_TOL) -> Orbit:
    """Flow of X from x0 over [0, t_end].

    Raises Divergence when the orbit leaves the safety box and StepUnderflow
    when the stepper gives up.
    """
    if t_end <= 0:
        raise ValueError("t_end must be > 0")
    if tol <= 0:
        raise ValueError("tol must be > 0")
    return _orbit(X, x0, tol, list(_steps(X, x0, t_end, tol)))


def _line_roots(seg, base, nrm):
    """Ascending s in [0, 1] where the step's interpolant meets the section line.

    With s = (t - t_old) / h the interpolant is y_old + h Q [s, s^2, s^3, s^4],
    so its normal coordinate is the quartic g0 + h (nrm . Q) [s, ..., s^4].
    A touch whose double root comes out as a complex pair is not a crossing.
    """
    g0 = float(np.dot(seg.y_old - base, nrm))
    c = seg.h * (nrm @ seg.Q)
    if abs(g0) > np.sum(np.abs(c)):
        return ()  # |g - g0| <= sum |c| on [0, 1], so g has no root here
    roots = np.roots(np.append(c[::-1], g0))
    s = roots.real[roots.imag == 0]
    return np.sort(s[(s >= 0.0) & (s <= 1.0)])


def _first_crossing(X, steps, section, direction_sign, t_max, t_offset, neighborhood_radius):
    """next_section_crossing's (t_star, point), searched over the given steps."""
    base = np.asarray(section.base, dtype=float)
    nrm = np.asarray(section.normal, dtype=float)
    tang = np.asarray(section.direction, dtype=float)
    half = float(section.half_length)
    for seg, y in steps:
        if neighborhood_radius is not None and np.linalg.norm(y - base) > neighborhood_radius:
            raise LeftNeighborhood(
                f"orbit left the radius-{neighborhood_radius:g} neighborhood at t={seg.t_max:.6g}"
            )
        for s in _line_roots(seg, base, nrm):
            t_star = seg.t_old + s * seg.h
            p = seg(t_star)
            if (t_star > t_offset and abs(np.dot(p - base, tang)) <= half
                    and np.sign(np.dot(X.rhs()(t_star, p), nrm)) == np.sign(direction_sign)):
                return float(t_star), p
    raise NoCrossing(f"no crossing in (0, {t_max}]")


def _crossing_orbit(X, x0, section, direction_sign, t_max, tol, t_offset,
                    neighborhood_radius=None):
    """next_section_crossing's (t_star, point), plus the orbit up to the crossing step."""
    kept = []

    def kept_steps():
        for step in _steps(X, x0, t_max, tol):
            kept.append(step)
            yield step

    t_star, p = _first_crossing(X, kept_steps(), section, direction_sign, t_max, t_offset,
                                neighborhood_radius)
    return t_star, p, _orbit(X, x0, tol, kept)


def next_section_crossing(
    X,
    x0,
    section,
    direction_sign: int = +1,
    t_max: float = 200.0,
    tol: float = DEFAULT_TOL,
    t_offset: float = 0.0,
    neighborhood_radius: float | None = None,
):
    """First crossing of the section segment with the requested sign.

    ``section`` needs attributes base (2-vector), direction (unit tangent of
    the segment), half_length and normal (unit normal). A crossing counts
    when the orbit meets the segment with sign(velocity . normal) equal to
    direction_sign, at a time strictly greater than t_offset. The hit time is
    the exact root of the step's dense interpolant on the section line.

    Returns (t_star, point). Raises an OrbitFailure: NoCrossing, Divergence,
    StepUnderflow or LeftNeighborhood.
    """
    return _first_crossing(X, _steps(X, x0, t_max, tol), section, direction_sign, t_max,
                           t_offset, neighborhood_radius)
