"""Numerical integration of planar polynomial fields with dense output.

The integrator is the adaptive Dormand-Prince 5(4) pair (Dormand & Prince
1980) with Shampine's quartic dense output (Hairer-Norsett-Wanner, Solving
ODEs I, II.6), stepped on plain floats with the step control of SciPy's
Dormand-Prince solver and fed by the field's compiled evaluator; no SciPy
stepper runs here. One private generator takes every step; it alone
watches the step budget and the safety box. ``integrate`` collects the
steps into an Orbit. ``next_section_crossing`` solves each step for its
section crossings exactly: the dense output on a step is a quartic in time,
so its normal coordinate against the section line is a quartic whose real
roots in the step are the crossings. Every way an orbit can fail derives
from OrbitFailure. Stiff integrators are not needed here: polynomial fields
near attracting cycles at our perturbation sizes are non-stiff.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_TOL = 1e-10
_SAFETY_BOX = 1e3
_MAX_STEPS = 2_000_000

# the Dormand-Prince 5(4) tableau and Shampine's dense-output matrix P, as in
# SciPy's Dormand-Prince solver: stage i of a step is
# f(y + h * sum_j _A[i-2][j] k_j), the step ends at y + h * sum_i _B[i] k_i
# and h * sum_i _E[i] k_i estimates its error, k_7 being f at the step's end;
# the interpolant at s = (t - t_old) / h is
# y_old + h * sum_i k_i * sum_j _P[i][j] s^(j+1)
_A = ((1/5,),
      (3/40, 9/40),
      (44/45, -56/15, 32/9),
      (19372/6561, -25360/2187, 64448/6561, -212/729),
      (9017/3168, -355/33, 46732/5247, 49/176, -5103/18656))
_B = (35/384, 0, 500/1113, 125/192, -2187/6784, 11/84)
_E = (-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40)
_P = ((1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432),
      (0, 0, 0, 0),
      (0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799),
      (0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072),
      (0, 127303824393/49829197408, -318862633887/49829197408,
       701980252875/199316789632),
      (0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844),
      (0, 40617522/29380423, -110615467/29380423, 69997945/29380423))
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10

# max over s in [0, 1] of |sum_j _P[i][j] s^(j+1)|, the weight of k_i in the
# interpolant, on a grid fine enough that the 0.1% margin covers its spacing
_P_MAX = tuple(
    1.001 * float(np.max(np.abs(np.polynomial.polynomial.polyval(np.linspace(0, 1, 10001),
                                                                  (0,) + row))))
    for row in _P)


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

    times: np.ndarray
    states: np.ndarray  # (n, 2)
    _segments: list = field(default_factory=list, repr=False)

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def eval(self, t):
        """Dense-output evaluation at scalar or array t."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty((t_arr.size, 2))
        idx = np.clip(np.searchsorted(self.times[1:], t_arr, side="left"), 0,
                      len(self._segments) - 1)
        for k, (i, tk) in enumerate(zip(idx.tolist(), t_arr.tolist())):
            step = self._segments[i]
            out[k] = step.at((tk - step.t_old) / step.h)
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


class _Step:
    """One accepted step from (t_old, y_old) to (t, y) with its seven stage
    derivatives K = (k1x, k1y, ..., k7x, k7y). The dense output's 2x4 matrix
    Q = K^T P is built on first use."""

    __slots__ = ("t_old", "t", "h", "y_old", "y", "K", "_Q")

    def __init__(self, t_old, t, y_old, y, K):
        self.t_old, self.t, self.h = t_old, t, t - t_old
        self.y_old, self.y, self.K = y_old, y, K
        self._Q = None

    @property
    def Q(self):
        if self._Q is None:
            kx, ky = self.K[0::2], self.K[1::2]
            self._Q = tuple(tuple(sum(k * p for k, p in zip(ks, col)) for col in zip(*_P))
                            for ks in (kx, ky))
        return self._Q

    def at(self, s):
        """The interpolant at s = (t - t_old) / h, as (x, y)."""
        (qx, qy), (x, y), h = self.Q, self.y_old, self.h
        s2 = s * s
        s3 = s2 * s
        s4 = s3 * s
        return (x + h * (qx[0] * s + qx[1] * s2 + qx[2] * s3 + qx[3] * s4),
                y + h * (qy[0] * s + qy[1] * s2 + qy[2] * s3 + qy[3] * s4))


def _steps(X, x0, t_bound, tol):
    """Accepted Dormand-Prince 5(4) steps from x0 over [0, t_bound], as _Steps.

    The step control is SciPy's Dormand-Prince solver's, operation for
    operation: its initial step, the factor 0.9 * err^(-1/5) clamped to
    [0.2, 10], no growth right after a rejection, a floor of 10 ulp of t and
    the RMS norm of the error scaled by tol * (1 + max |y|) componentwise.
    Ends when t_bound is reached; raises StepUnderflow when the step falls
    below that floor or the step budget runs out and Divergence when a step
    ends outside the safety box.
    """
    if not t_bound > 0:
        raise ValueError("the time bound must be > 0")
    if not tol > 0:
        raise ValueError("tol must be > 0")
    f = X.rhs()
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), (a61, a62, a63, a64, a65) = _A
    b1, _, b3, b4, b5, b6 = _B
    e1, _, e3, e4, e5, e6, e7 = _E
    t = 0.0
    x, y = float(x0[0]), float(x0[1])
    k1x, k1y = f(x, y)
    h_abs = _initial_step(f, x, y, k1x, k1y, t_bound, tol)
    for _ in range(_MAX_STEPS):
        if t >= t_bound:
            return
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise StepUnderflow(f"step size fell below 10 ulp at t={t:.6g}")
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = abs(h)
            k2x, k2y = f(x + (a21 * k1x) * h, y + (a21 * k1y) * h)
            k3x, k3y = f(x + (a31 * k1x + a32 * k2x) * h, y + (a31 * k1y + a32 * k2y) * h)
            k4x, k4y = f(x + (a41 * k1x + a42 * k2x + a43 * k3x) * h,
                         y + (a41 * k1y + a42 * k2y + a43 * k3y) * h)
            k5x, k5y = f(x + (a51 * k1x + a52 * k2x + a53 * k3x + a54 * k4x) * h,
                         y + (a51 * k1y + a52 * k2y + a53 * k3y + a54 * k4y) * h)
            k6x, k6y = f(x + (a61 * k1x + a62 * k2x + a63 * k3x + a64 * k4x + a65 * k5x) * h,
                         y + (a61 * k1y + a62 * k2y + a63 * k3y + a64 * k4y + a65 * k5y) * h)
            x_new = x + h * (b1 * k1x + b3 * k3x + b4 * k4x + b5 * k5x + b6 * k6x)
            y_new = y + h * (b1 * k1y + b3 * k3y + b4 * k4y + b5 * k5y + b6 * k6y)
            k7x, k7y = f(x_new, y_new)
            ex = ((e1 * k1x + e3 * k3x + e4 * k4x + e5 * k5x + e6 * k6x + e7 * k7x) * h
                  / (tol + max(abs(x), abs(x_new)) * tol))
            ey = ((e1 * k1y + e3 * k3y + e4 * k4y + e5 * k5y + e6 * k6y + e7 * k7y) * h
                  / (tol + max(abs(y), abs(y_new)) * tol))
            err = _rms(ex, ey)
            if err < 1:
                factor = _MAX_FACTOR if err == 0 else min(_MAX_FACTOR, _SAFETY * err ** -0.2)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** -0.2)
            rejected = True
        step = _Step(t, t_new, (x, y), (x_new, y_new),
                     (k1x, k1y, k2x, k2y, k3x, k3y, k4x, k4y, k5x, k5y, k6x, k6y, k7x, k7y))
        t, x, y, k1x, k1y = t_new, x_new, y_new, k7x, k7y
        if abs(x) > _SAFETY_BOX or abs(y) > _SAFETY_BOX:
            raise Divergence(t, np.array([x, y]), _SAFETY_BOX)
        yield step
    raise StepUnderflow("step budget exhausted")


def _initial_step(f, x, y, fx, fy, t_bound, tol):
    """SciPy's select_initial_step (Hairer-Norsett-Wanner II.4) for order 4."""
    sx, sy = tol + abs(x) * tol, tol + abs(y) * tol
    d0 = _rms(x / sx, y / sy)
    d1 = _rms(fx / sx, fy / sy)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_bound)
    gx, gy = f(x + h0 * fx, y + h0 * fy)
    d2 = _rms((gx - fx) / sx, (gy - fy) / sy) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, t_bound)


def _rms(u, v):
    return math.sqrt(u * u + v * v) / 2 ** 0.5


def _orbit(x0, steps) -> Orbit:
    return Orbit(
        times=np.array([0.0] + [step.t for step in steps]),
        states=np.array([(float(x0[0]), float(x0[1]))] + [step.y for step in steps]),
        _segments=steps,
    )


def integrate(X, x0, t_end: float, tol: float = DEFAULT_TOL) -> Orbit:
    """Flow of X from x0 over [0, t_end].

    Raises ValueError unless t_end > 0 and tol > 0, Divergence when the orbit
    leaves the safety box and StepUnderflow when the stepper gives up.
    """
    return _orbit(x0, list(_steps(X, x0, t_end, tol)))


def _line_roots(step, bx, by, nx, ny):
    """Ascending s in [0, 1] where the step's interpolant meets the section line.

    With s = (t - t_old) / h the interpolant is y_old + h Q [s, s^2, s^3, s^4],
    so its normal coordinate is the quartic g0 + h (n . Q) [s, ..., s^4].
    |g - g0| <= h sum_i |n . k_i| _P_MAX[i] on [0, 1] rules most steps out
    before Q is built; of the rest, a quartic whose Bernstein coefficients on
    [0, 1] share one strict sign has no root there, since it is a convex
    combination of them. A touch whose double root comes out as a complex
    pair is not a crossing.
    """
    x, y = step.y_old
    g0 = (x - bx) * nx + (y - by) * ny
    k1x, k1y, _, _, k3x, k3y, k4x, k4y, k5x, k5y, k6x, k6y, k7x, k7y = step.K
    w1, _, w3, w4, w5, w6, w7 = _P_MAX
    if abs(g0) > step.h * (w1 * abs(k1x * nx + k1y * ny) + w3 * abs(k3x * nx + k3y * ny)
                           + w4 * abs(k4x * nx + k4y * ny) + w5 * abs(k5x * nx + k5y * ny)
                           + w6 * abs(k6x * nx + k6y * ny) + w7 * abs(k7x * nx + k7y * ny)):
        return ()
    c1, c2, c3, c4 = (step.h * (nx * a + ny * b) for a, b in zip(*step.Q))
    bern = (g0 + c1 / 4, g0 + c1 / 2 + c2 / 6, g0 + 3 * c1 / 4 + c2 / 2 + c3 / 4,
            g0 + c1 + c2 + c3 + c4)
    if (g0 > 0 and min(bern) > 0) or (g0 < 0 and max(bern) < 0):
        return ()
    roots = np.roots([c4, c3, c2, c1, g0])
    s = roots.real[roots.imag == 0]
    return np.sort(s[(s >= 0.0) & (s <= 1.0)]).tolist()


def _first_crossing(X, steps, section, direction_sign, t_max, t_offset, neighborhood_radius):
    """next_section_crossing's (t_star, point), searched over the given steps."""
    bx, by = (float(v) for v in section.base)
    nx, ny = (float(v) for v in section.normal)
    tx, ty = (float(v) for v in section.direction)
    half = float(section.half_length)
    f = X.rhs()
    for step in steps:
        if (neighborhood_radius is not None
                and math.hypot(step.y[0] - bx, step.y[1] - by) > neighborhood_radius):
            raise LeftNeighborhood(
                f"orbit left the radius-{neighborhood_radius:g} neighborhood at t={step.t:.6g}"
            )
        for s in _line_roots(step, bx, by, nx, ny):
            t_star = step.t_old + s * step.h
            px, py = step.at(s)
            if t_star > t_offset and abs((px - bx) * tx + (py - by) * ty) <= half:
                u, v = f(px, py)
                if np.sign(u * nx + v * ny) == np.sign(direction_sign):
                    return t_star, np.array([px, py])
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
    return t_star, p, _orbit(x0, kept)


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

    Returns (t_star, point). Raises ValueError unless t_max > 0 and tol > 0,
    and an OrbitFailure: NoCrossing, Divergence, StepUnderflow or
    LeftNeighborhood.
    """
    return _first_crossing(X, _steps(X, x0, t_max, tol), section, direction_sign, t_max,
                           t_offset, neighborhood_radius)
