"""Sections, return and displacement maps, limit cycles and their invariants.

The displacement map d(xi) = pi(xi) - xi on a transversal section is the
basic diagnostic: its zeros are cycles, the order of its first nonvanishing
derivative at a zero is the cycle's multiplicity, and the characteristic
exponent integral(div X over one period) decides hyperbolicity (its
exponential is the return-map multiplier).

Multiplicity is estimated by a least-squares polynomial fit of displacement
samples at Chebyshev nodes in a symmetric window, not by repeated finite
differences: displacement evaluations carry integrator noise near 1e-10 and
high-order differences would amplify it beyond usability at order >= 3.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import flow
from .field import PolyVectorField, divergence, gradient_collapse_family, scale
from .poly2 import Poly2, derivative

DEFAULT_T_MAX = 400.0
# cycle location works one decade below the flow default so located fixed
# points satisfy the 1e-10 displacement-residual contract
DEFAULT_CYCLE_TOL = 1e-11
# LimitCycle.points: samples of the cycle's orbit at equal time steps
_CYCLE_SAMPLES = 1024


class Inconclusive(Exception):
    """No fit coefficient cleared the significance thresholds."""

    def __init__(self, message, table=None):
        super().__init__(message)
        self.table = table


@dataclass(frozen=True)
class Section:
    """Transversal segment with signed coordinate xi (xi < 0 interior).

    base sits on or near the cycle, direction is the unit tangent of the
    segment pointing to the exterior component, half_length bounds |xi|.
    """

    base: np.ndarray
    direction: np.ndarray
    half_length: float

    def __post_init__(self):
        b = np.asarray(self.base, dtype=float)
        d = np.asarray(self.direction, dtype=float)
        n = np.linalg.norm(d)
        if n == 0:
            raise ValueError("zero direction")
        d = d / n
        b.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "base", b)
        object.__setattr__(self, "direction", d)
        object.__setattr__(self, "half_length", float(self.half_length))

    @property
    def normal(self) -> np.ndarray:
        dx, dy = self.direction
        return np.array([-dy, dx])

    def xi_of(self, point) -> float:
        return float(np.dot(np.asarray(point) - self.base, self.direction))

    def point_at(self, xi: float) -> np.ndarray:
        return self.base + xi * self.direction

    def check_transversal(self, X: PolyVectorField, min_fraction: float = 0.02, n: int = 33):
        """Require |X wedge direction| / |X| bounded away from 0 along the segment."""
        xs = np.linspace(-self.half_length, self.half_length, n)
        pts = self.base[None, :] + xs[:, None] * self.direction[None, :]
        p, q = X(pts[:, 0], pts[:, 1])
        wedge = p * self.direction[1] - q * self.direction[0]
        mag = np.hypot(p, q)
        frac = np.abs(wedge) / np.maximum(mag, 1e-300)
        if mag.min() == 0.0 or frac.min() < min_fraction:
            raise ValueError(
                f"field not transversal to the section (min |X^d|/|X| = {frac.min():.3g})"
            )
        return float(frac.min())


def section_for_field(X: PolyVectorField, base, half_length: float = 0.55) -> Section:
    """Section through base, directed along the outward normal of X there."""
    b = np.asarray(base, dtype=float)
    p, q = X(b[0], b[1])
    v = np.hypot(p, q)
    if v == 0:
        raise ValueError("base point is a singularity")
    # rotate the flow direction by -90 deg; for counterclockwise cycles this
    # points away from the enclosed region
    d = np.array([q, -p]) / v
    o = orientation_sign(X, b)
    sec = Section(base=b, direction=o * d, half_length=half_length)
    sec.check_transversal(X)
    return sec


def orientation_sign(X: PolyVectorField, point) -> int:
    """+1 when the orbit through point winds counterclockwise about the origin-side."""
    p, q = X(point[0], point[1])
    w = point[0] * q - point[1] * p
    return 1 if w >= 0 else -1


def crossing_sign(X: PolyVectorField, section: Section) -> int:
    p, q = X.rhs()(float(section.base[0]), float(section.base[1]))
    s = np.dot([p, q], section.normal)
    if s == 0:
        raise ValueError("flow tangent to the section at its base")
    return 1 if s > 0 else -1


def return_map(X, section, xi, tol=DEFAULT_CYCLE_TOL) -> float:
    """First-return coordinate pi(xi) on the section."""
    _, p = flow.next_section_crossing(
        X, section.point_at(xi), section, crossing_sign(X, section),
        t_max=DEFAULT_T_MAX, tol=tol, t_offset=1e-6,
    )
    return section.xi_of(p)


def displacement(X, section, xi, tol=DEFAULT_CYCLE_TOL) -> float:
    """d(xi) = pi(xi) - xi; zeros are periodic orbits."""
    return return_map(X, section, xi, tol) - xi


@dataclass
class MultiplicityEstimate:
    d: int
    coefficients: np.ndarray           # c_j ~ d^(j)(0)/j!
    scaled_coefficients: np.ndarray    # c_j * h^j, the fit's native output
    residual: float
    h: float
    d_max: int

    def table(self):
        return [
            {"j": j, "coefficient": float(self.coefficients[j]),
             "scaled": float(self.scaled_coefficients[j])}
            for j in range(len(self.coefficients))
        ]


@dataclass
class LimitCycle:
    """Periodic orbit anchored at a section fixed point."""

    section: Section
    xi_star: float
    period: float
    times: np.ndarray
    points: np.ndarray
    exponent: float
    multiplicity: MultiplicityEstimate | None = None
    root_d_calls: int | None = None    # census d(xi) calls inside the root's bracket
    _orbit: flow.Orbit | None = field(default=None, repr=False)

    @property
    def mean_radius(self) -> float:
        return float(np.mean(np.hypot(self.points[:, 0], self.points[:, 1])))

    @property
    def stability(self) -> str:
        if self.exponent < -1e-9:
            return "stable"
        if self.exponent > 1e-9:
            return "unstable"
        return "non-hyperbolic"

    def closure_error(self) -> float:
        return float(np.linalg.norm(self.points[0] - self.points[-1]))

    def displacement_samples_csv(self, path, X, window=0.05, n=33):
        xis = self.xi_star + np.linspace(-window, window, n)
        lines = ["xi,displacement"]
        for xi in xis:
            try:
                d = displacement(X, self.section, xi)
            except flow.OrbitFailure:
                continue
            lines.append(f"{float(xi)!r},{float(d)!r}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def build_cycle(X, section, xi_star, tol=DEFAULT_CYCLE_TOL) -> LimitCycle:
    period, _, orbit = flow._crossing_orbit(
        X, section.point_at(xi_star), section, crossing_sign(X, section),
        t_max=DEFAULT_T_MAX, tol=tol, t_offset=1e-6,
    )
    ts = np.linspace(0.0, period, _CYCLE_SAMPLES)
    cyc = LimitCycle(
        section=section, xi_star=float(xi_star), period=period,
        times=ts, points=orbit.eval(ts), exponent=0.0, _orbit=orbit,
    )
    cyc.exponent = characteristic_exponent(X, cyc)
    return cyc


def _quad_over_cycle(cycle: LimitCycle, integrand: Callable, tol: float = 1e-10,
                     max_panels: int = 512) -> float:
    """Adaptive panelwise Gauss-Legendre of integrand(x, y) along the orbit."""
    orbit = cycle._orbit
    T = cycle.period
    nodes, wts = leggauss(10)
    prev = None
    panels = 8
    while panels <= max_panels:
        total = 0.0
        edges = np.linspace(0.0, T, panels + 1)
        lo, hi = edges[:-1, None], edges[1:, None]
        level = orbit.eval(0.5 * (hi - lo) * nodes + 0.5 * (lo + hi))
        # one integrand call per panel: a Bernstein polynomial's values
        # depend in their last bits on how many points it is evaluated at
        for a, b, pts in zip(edges[:-1], edges[1:], level):
            total += 0.5 * (b - a) * float(np.sum(wts * integrand(pts[:, 0], pts[:, 1])))
        if prev is not None and abs(total - prev) < tol * max(1.0, abs(total)):
            return total
        prev = total
        panels *= 2
    return prev


def characteristic_exponent(X: PolyVectorField, cycle: LimitCycle, tol: float = 1e-10) -> float:
    """integral over one period of div X along the cycle."""
    div = divergence(X)
    return _quad_over_cycle(cycle, lambda x, y: div(x, y), tol)


def divergence_integral_terms(X: PolyVectorField, R: Poly2, lam: float,
                              cycle: LimitCycle) -> tuple[float, float, float]:
    """The three divergence integrals of the gradient-collapse family.

    Returns (I_base, I_grad, I_lap) where I_base integrates div X, I_grad
    integrates lam * |grad R|^2 and I_lap integrates lam * R * (Rxx + Ryy),
    all along the given (perturbed-family) cycle. Their sum equals the
    characteristic exponent of the perturbed field on that cycle.
    """
    Rx, Ry = derivative(R, "x"), derivative(R, "y")
    Rxx, Ryy = derivative(Rx, "x"), derivative(Ry, "y")
    i_base = characteristic_exponent(X, cycle)
    i_grad = lam * _quad_over_cycle(cycle, lambda x, y: Rx(x, y) ** 2 + Ry(x, y) ** 2)
    i_lap = lam * _quad_over_cycle(cycle, lambda x, y: R(x, y) * (Rxx(x, y) + Ryy(x, y)))
    return i_base, i_grad, i_lap


_BRENT_XTOL = 1e-12
_BRENT_RTOL = 4 * sys.float_info.epsilon
_BRENT_MAXITER = 100


def _brentq(f, xa, xb, fa, fb):
    """Root of f in [xa, xb] by Brent's method (Brent 1973, ch. 4), given
    fa = f(xa) and fb = f(xb), and the number of f calls it made.

    A port of SciPy's C brentq, operation for operation, so root and call
    count equal those of scipy.optimize.brentq(f, xa, xb, xtol=1e-12,
    full_output=True) bit for bit, less the two calls SciPy spends on the
    bracket ends. Raises ValueError when fa and fb have the same sign or f
    returns NaN, and RuntimeError after _BRENT_MAXITER iterations.
    """
    xpre, xcur = float(xa), float(xb)
    fpre, fcur = float(fa), float(fb)
    xblk = fblk = spre = scur = 0.0
    calls = 0
    if fpre == 0:
        return xpre, calls
    if fcur == 0:
        return xcur, calls
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_BRENT_XTOL + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur, calls
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
        calls += 1
        if math.isnan(fcur):
            raise ValueError(f"the function value at x={xcur:.6g} is NaN")
    raise RuntimeError(f"Failed to converge after {_BRENT_MAXITER} iterations, value is {xcur}")


def find_cycles(X, section, xi_range, n_seeds: int = 25,
                tol=DEFAULT_CYCLE_TOL) -> list[LimitCycle]:
    """Census of section fixed points: bracket sign changes of d, root each
    bracket by Brent's method to 1e-12, merge roots within 1e-8. The root
    solve is _brentq, a port of SciPy's brentq (Brent 1973).

    Seeds where the return map is undefined are skipped, and so is a bracket
    whose root solve meets an orbit failure; an empty census is a valid
    result. Each cycle records in root_d_calls how many d(xi) calls its root
    solve took beyond the bracket ends (None for a root that is a seed).
    """
    lo, hi = float(xi_range[0]), float(xi_range[1])
    seeds = np.linspace(lo, hi, n_seeds)
    vals = []
    for xi in seeds:
        try:
            vals.append(displacement(X, section, xi, tol))
        except flow.OrbitFailure:
            vals.append(None)
    roots = []
    for a in range(n_seeds - 1):
        xa, xb, da, db = seeds[a], seeds[a + 1], vals[a], vals[a + 1]
        if da is None or db is None:
            continue
        if da == 0.0:
            roots.append((xa, None))
            continue
        if np.sign(da) * np.sign(db) < 0:
            try:
                roots.append(_brentq(lambda xi: displacement(X, section, xi, tol),
                                     xa, xb, da, db))
            except flow.OrbitFailure:
                continue
    if vals[-1] == 0.0:
        roots.append((seeds[-1], None))
    roots.sort(key=lambda r: r[0])
    merged = []
    for r in roots:
        if not merged or r[0] - merged[-1][0] > 1e-8:
            merged.append(r)
    census = []
    for xi, calls in merged:
        cyc = build_cycle(X, section, xi, tol)
        cyc.root_d_calls = calls
        census.append(cyc)
    return census


def _scaled_fit(u, values, degree: int):
    """Least-squares coefficients of values ~ sum_k c_k u^k, k <= degree, and
    the RMS residual of that fit."""
    V = np.vander(u, degree + 1, increasing=True)
    scaled, *_ = np.linalg.lstsq(V, values, rcond=None)
    return scaled, float(np.sqrt(np.mean((V @ scaled - values) ** 2)))


def _reversed(X: PolyVectorField) -> PolyVectorField:
    """The field with time reversed: (-P, -Q)."""
    return PolyVectorField(scale(X.P, -1.0), scale(X.Q, -1.0))


def multiplicity(X, cycle_or_section, xi_star=None, d_max: int = 6, h: float = 0.05,
                 tol=flow.DEFAULT_TOL, _allow_reversal: bool = True) -> MultiplicityEstimate:
    """Order of the first significant displacement derivative at the cycle.

    Fits displacement samples at 4*d_max+1 Chebyshev nodes in [xi*-h, xi*+h]
    by a degree-d_max polynomial in the scaled coordinate xi/h and returns
    the smallest order whose scaled coefficient c_j h^j clears both the
    absolute floor 1e-7 and 1e3 times the fit residual.

    The window adapts: h halves while the sampled displacements exceed 2h
    (the fit would leave the perturbative regime; hyperbolic cycles have
    |d| ~ h, so the factor must be > 1) or while sampling escapes outright.
    If the forward samples never settle, the field is integrated in reverse
    time instead; multiplicity is invariant under time reversal.
    """
    if d_max > 6:
        raise ValueError("d_max must be <= 6")
    if isinstance(cycle_or_section, LimitCycle):
        section = cycle_or_section.section
        xi0 = cycle_or_section.xi_star
    else:
        section = cycle_or_section
        xi0 = float(xi_star)
    n_nodes = 4 * d_max + 1
    floor_abs, resid_factor = 1e-7, 1e3
    noise_floor = 1e-8  # below this the residual is integrator noise, not tail
    h_cur = h
    last_est = None
    last_exc = None
    for _ in range(10):
        nodes = xi0 + h_cur * np.cos(np.pi * np.arange(n_nodes) / (n_nodes - 1))
        try:
            d_vals = np.array([displacement(X, section, xi, tol=tol) for xi in nodes])
        except flow.OrbitFailure as exc:
            last_exc = exc
            h_cur *= 0.5
            continue
        if np.max(np.abs(d_vals)) > 2.0 * h_cur:
            h_cur *= 0.5
            continue
        scaled, residual = _scaled_fit((nodes - xi0) / h_cur, d_vals, d_max)
        coefficients = scaled / h_cur ** np.arange(d_max + 1)
        thr = max(floor_abs, resid_factor * residual)
        est = MultiplicityEstimate(
            d=0, coefficients=coefficients, scaled_coefficients=scaled,
            residual=residual, h=h_cur, d_max=d_max,
        )
        for j in range(1, d_max + 1):
            if abs(scaled[j]) > thr:
                est.d = j
                return est
        last_est = est
        if residual > noise_floor:
            # truncation-limited: the unmodeled tail shrinks as h^(d_max+1)
            # while the leading coefficient only loses h^d, so retry smaller
            h_cur *= 0.5
            continue
        raise Inconclusive(
            f"no displacement coefficient above max(1e-7, 1e3*residual)={thr:.3g}",
            table=est.table(),
        )
    if _allow_reversal:
        return multiplicity(_reversed(X), section, xi0, d_max, h, tol, _allow_reversal=False)
    raise Inconclusive(
        f"displacement sampling never settled down to h={h_cur:.3g} ({last_exc})",
        table=last_est.table() if last_est else None,
    )


def perko_derivative(X: PolyVectorField, dX_dlam: PolyVectorField,
                     cycle: LimitCycle, tol: float = 1e-12) -> float:
    """Displacement-map lambda-derivative integral along the cycle.

    integral over [0, T] of exp(-A(t)) * (X ^ dX/dlam) at gamma(t), with
    A(t) = integral_0^t div X (Perko, Differential Equations and Dynamical
    Systems, 3rd ed., 4.5); the overall nonzero constant of the underlying
    identity is taken as 1, so only signs and ratios of this quantity are
    meaningful. Panelwise Gauss-Legendre on the cycle's orbit, doubling the
    panels as _quad_over_cycle does until two levels agree to tol. A at a
    node is the earlier panels' integrals plus a Gauss rule from the panel
    start to the node.
    """
    div = divergence(X)
    nodes, wts = leggauss(10)
    unit = 0.5 * (1.0 + nodes)  # the Gauss nodes on [0, 1]
    prev = None
    panels = 8
    while panels <= 512:
        edges = np.linspace(0.0, cycle.period, panels + 1)
        lo, width = edges[:-1, None], np.diff(edges)
        t = lo + width[:, None] * unit                   # (panels, 10)
        sub = lo[..., None] + (t - lo)[..., None] * unit  # (panels, 10, 10) on [lo, t]
        pts = cycle._orbit.eval(np.concatenate([t.ravel(), sub.ravel()]))
        (x, y), (xs, ys) = pts[:t.size].T, pts[t.size:].T
        panel_div = 0.5 * width * (div(x, y).reshape(t.shape) @ wts)
        A = ((np.cumsum(panel_div) - panel_div)[:, None]
             + 0.5 * (t - lo) * (div(xs, ys).reshape(sub.shape) @ wts))
        (p, q), (dp, dq) = X(x, y), dX_dlam(x, y)
        wedge = (p * dq - q * dp).reshape(t.shape)
        total = float(np.sum(0.5 * width * ((np.exp(-A) * wedge) @ wts)))
        if prev is not None and abs(total - prev) < tol * max(1.0, abs(total)):
            return total
        prev = total
        panels *= 2
    return prev


@dataclass
class SplittingReport:
    lam: float
    census: list[LimitCycle]
    middle_index: int | None
    middle_exponent: float | None
    positivity_ok: bool
    alternating: bool
    success: bool
    time_reversed: bool
    messages: list[str]
    perturbed: PolyVectorField


def _alternating(census: Sequence[LimitCycle]) -> bool:
    if len(census) < 2:
        return True
    signs = [np.sign(c.exponent) for c in census]
    return all(signs[i] * signs[i + 1] < 0 for i in range(len(signs) - 1))


def theorem1_splitting(
    X: PolyVectorField,
    cycle: LimitCycle,
    R: Poly2,
    lam: float,
    xi_range=(-0.3, 0.3),
    n_seeds: int = 25,
    tol=flow.DEFAULT_TOL,
) -> SplittingReport:
    """Split an odd-degree non-hyperbolic cycle with a gradient-collapse family.

    R is a polynomial vanishing on the cycle, exactly or approximately (a
    Bernstein fit of a sampled vanishing function serves as well). The
    perturbed field X + lam * R grad R has its cycle census over xi_range
    reported; success means at least three cycles with alternating
    stability, with the continued middle cycle turned hyperbolic unstable
    (positive exponent).
    """
    if not isinstance(R, Poly2):
        raise TypeError(f"R must be a Poly2, got {type(R).__name__}")
    messages: list[str] = []
    est = cycle.multiplicity or multiplicity(X, cycle)
    if est.d < 3 or est.d % 2 == 0:
        raise ValueError(
            f"splitting needs a non-hyperbolic cycle of odd degree >= 3, got d={est.d}"
        )
    time_reversed = False
    X_work, cycle_work = X, cycle
    if est.scaled_coefficients[est.d] > 0:
        # unstable cycle: reverse time so the construction sees a stable one
        X_work = _reversed(X)
        cycle_work = build_cycle(X_work, cycle.section, cycle.xi_star, tol)
        time_reversed = True
        messages.append("time reversed: input cycle was unstable")

    X_pert = gradient_collapse_family(X_work, R, lam)
    census = find_cycles(X_pert, cycle_work.section, xi_range, n_seeds, tol)

    middle_index = None
    middle_exponent = None
    if census:
        dists = [abs(c.xi_star - cycle_work.xi_star) for c in census]
        middle_index = int(np.argmin(dists))
        span = xi_range[1] - xi_range[0]
        if dists[middle_index] > 0.5 * span:
            middle_index = None
    if middle_index is None:
        messages.append("continued middle cycle not found in the census window")
        positivity_ok = False
    else:
        middle_exponent = census[middle_index].exponent
        positivity_ok = middle_exponent > 0
        if not positivity_ok:
            messages.append("middle-cycle exponent not positive")

    alternating = _alternating(census)
    success = len(census) >= 3 and alternating and positivity_ok
    return SplittingReport(
        lam=lam, census=census, middle_index=middle_index,
        middle_exponent=middle_exponent, positivity_ok=positivity_ok,
        alternating=alternating, success=success, time_reversed=time_reversed,
        messages=messages, perturbed=X_pert,
    )
