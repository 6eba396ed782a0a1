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

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import solve_ivp

from . import flow
from .bernstein import CapExceeded, bernstein_fit, min_degree_for_tolerance
from .field import PolyVectorField, divergence, gradient_collapse_family, scale
from .poly2 import Poly2, derivative

DEFAULT_T_MAX = 400.0
# cycle location works one decade below the flow default so located fixed
# points satisfy the 1e-10 displacement-residual contract
DEFAULT_CYCLE_TOL = 1e-11


class Inconclusive(Exception):
    """No fit coefficient cleared the significance thresholds."""

    def __init__(self, message, table=None):
        super().__init__(message)
        self.table = table


class CycleLost(Exception):
    """Continuation of a cycle under perturbation failed."""


class DegreeCapExceeded(Exception):
    """The Bernstein degree search hit its cap inside the splitting pipeline."""


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
    p, q = X(section.base[0], section.base[1])
    s = np.dot([p, q], section.normal)
    if s == 0:
        raise ValueError("flow tangent to the section at its base")
    return 1 if s > 0 else -1


def _return(X, section, xi, t_max=DEFAULT_T_MAX, tol=DEFAULT_CYCLE_TOL,
            neighborhood_radius=None):
    q0 = section.point_at(xi)
    sign = crossing_sign(X, section)
    t, p = flow.next_section_crossing(
        X, q0, section, sign, t_max=t_max, tol=tol, t_offset=1e-6,
        neighborhood_radius=neighborhood_radius,
    )
    return t, section.xi_of(p)


def return_map(X, section, xi, t_max=DEFAULT_T_MAX, tol=DEFAULT_CYCLE_TOL,
               neighborhood_radius=None) -> float:
    """First-return coordinate pi(xi) on the section."""
    return _return(X, section, xi, t_max, tol, neighborhood_radius)[1]


def displacement(X, section, xi, t_max=DEFAULT_T_MAX, tol=DEFAULT_CYCLE_TOL,
                 neighborhood_radius=None) -> float:
    """d(xi) = pi(xi) - xi; zeros are periodic orbits."""
    return return_map(X, section, xi, t_max, tol, neighborhood_radius) - xi


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


def build_cycle(X, section, xi_star, tol=DEFAULT_CYCLE_TOL, n_samples=1024) -> LimitCycle:
    period, _, orbit = flow._crossing_orbit(
        X, section.point_at(xi_star), section, crossing_sign(X, section),
        t_max=DEFAULT_T_MAX, tol=tol, t_offset=1e-6,
    )
    ts = np.linspace(0.0, period, n_samples)
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
        for a, b in zip(edges[:-1], edges[1:]):
            ts = 0.5 * (b - a) * nodes + 0.5 * (a + b)
            pts = orbit.eval(ts)
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
    div = divergence(X)
    Rx, Ry = derivative(R, "x"), derivative(R, "y")
    Rxx, Ryy = derivative(Rx, "x"), derivative(Ry, "y")
    i_base = _quad_over_cycle(cycle, lambda x, y: div(x, y))
    i_grad = lam * _quad_over_cycle(cycle, lambda x, y: Rx(x, y) ** 2 + Ry(x, y) ** 2)
    i_lap = lam * _quad_over_cycle(cycle, lambda x, y: R(x, y) * (Rxx(x, y) + Ryy(x, y)))
    return i_base, i_grad, i_lap


def find_cycles(X, section, xi_range, n_seeds: int = 25, tol=DEFAULT_CYCLE_TOL,
                dedup: float = 1e-8, t_max=DEFAULT_T_MAX,
                neighborhood_radius=None) -> list[LimitCycle]:
    """Census of section fixed points: bracket sign changes of d, bisect, dedup.

    Seeds where the return map is undefined are skipped; an empty census is a
    valid result.
    """
    lo, hi = float(xi_range[0]), float(xi_range[1])
    seeds = np.linspace(lo, hi, n_seeds)
    vals = []
    for xi in seeds:
        try:
            vals.append(displacement(X, section, xi, t_max, tol, neighborhood_radius))
        except flow.OrbitFailure:
            vals.append(None)
    roots = []
    for a in range(n_seeds - 1):
        da, db = vals[a], vals[a + 1]
        if da is None or db is None:
            continue
        if da == 0.0:
            roots.append(seeds[a])
            continue
        if np.sign(da) * np.sign(db) < 0:
            xlo, xhi, dlo = seeds[a], seeds[a + 1], da
            while xhi - xlo > 1e-12:
                xm = 0.5 * (xlo + xhi)
                try:
                    dm = displacement(X, section, xm, t_max, tol, neighborhood_radius)
                except flow.OrbitFailure:
                    break
                if dm == 0.0:
                    xlo = xhi = xm
                    break
                if np.sign(dm) == np.sign(dlo):
                    xlo, dlo = xm, dm
                else:
                    xhi = xm
            else:
                roots.append(0.5 * (xlo + xhi))
                continue
            if xlo == xhi:
                roots.append(xlo)
    if vals[-1] == 0.0:
        roots.append(seeds[-1])
    roots.sort()
    merged = []
    for r in roots:
        if not merged or r - merged[-1] > dedup:
            merged.append(r)
    return [build_cycle(X, section, r, tol) for r in merged]


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
        V = np.vander((nodes - xi0) / h_cur, d_max + 1, increasing=True)
        scaled, *_ = np.linalg.lstsq(V, d_vals, rcond=None)
        residual = float(np.sqrt(np.mean((V @ scaled - d_vals) ** 2)))
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
        X_rev = PolyVectorField(scale(X.P, -1.0), scale(X.Q, -1.0))
        return multiplicity(X_rev, section, xi0, d_max, h, tol, _allow_reversal=False)
    raise Inconclusive(
        f"displacement sampling never settled down to h={h_cur:.3g} ({last_exc})",
        table=last_est.table() if last_est else None,
    )


def return_map_derivative(X: PolyVectorField, cycle: LimitCycle, tol: float = 1e-12) -> float:
    """pi'(xi*) through the variational flow along the cycle.

    Integrates the linearized equation delta' = DX(gamma(t)) delta over one
    period and projects along the flow direction:
    pi'(0) = [X(p) ^ Phi(T) u] / [X(p) ^ u] with u the section direction.
    Numerically independent of the divergence quadrature, so the multiplier
    identity exp(exponent) = pi'(xi*) is a genuine cross-check.
    """
    Px, Py, Qx, Qy = X.jacobian()

    def rhs(t, z):
        x, y, dx, dy = z
        p, q = X(x, y)
        return [p, q, Px(x, y) * dx + Py(x, y) * dy, Qx(x, y) * dx + Qy(x, y) * dy]

    p0 = cycle.section.point_at(cycle.xi_star)
    u = cycle.section.direction
    sol = solve_ivp(rhs, [0.0, cycle.period], [p0[0], p0[1], u[0], u[1]],
                    method="DOP853", rtol=tol, atol=tol)
    x, y, dx, dy = sol.y[:, -1]
    p, q = X(p0[0], p0[1])
    wedge_num = p * dy - q * dx
    wedge_den = p * u[1] - q * u[0]
    return float(wedge_num / wedge_den)


def perko_derivative(X: PolyVectorField, dX_dlam: PolyVectorField,
                     cycle: LimitCycle, tol: float = 1e-12) -> float:
    """Displacement-map lambda-derivative integral along the cycle.

    integral over [0, T] of exp(-integral_0^t div X) * (X ^ dX/dlam) at
    gamma(t); the overall nonzero constant of the underlying identity is
    taken as 1, so only signs and ratios of this quantity are meaningful.
    """
    div = divergence(X)

    def rhs(t, z):
        x, y, a, acc = z
        p, q = X(x, y)
        dp, dq = dX_dlam(x, y)
        wedge = p * dq - q * dp
        return [p, q, div(x, y), np.exp(-a) * wedge]

    p0 = cycle.section.point_at(cycle.xi_star)
    sol = solve_ivp(rhs, [0.0, cycle.period], [p0[0], p0[1], 0.0, 0.0],
                    method="DOP853", rtol=tol, atol=tol)
    return float(sol.y[3, -1])


@dataclass
class SplittingReport:
    lam: float
    r: int
    eps_target: float | None
    degree: tuple[int, int] | None
    degree_trace: list
    census: list[LimitCycle]
    middle_index: int | None
    middle_exponent: float | None
    positivity_ok: bool
    alternating: bool
    success: bool
    time_reversed: bool
    messages: list[str]
    surrogate: Poly2 | None = None
    perturbed: PolyVectorField | None = None


def _alternating(census: Sequence[LimitCycle]) -> bool:
    if len(census) < 2:
        return True
    signs = [np.sign(c.exponent) for c in census]
    return all(signs[i] * signs[i + 1] < 0 for i in range(len(signs) - 1))


def theorem1_splitting(
    X: PolyVectorField,
    cycle: LimitCycle,
    F,
    lam: float,
    r: int = 1,
    eps_target: float | None = None,
    box=None,
    degree_cap: int = 256,
    error_boxes=None,
    search_grid_density: int = 51,
    xi_range=(-0.3, 0.3),
    n_seeds: int = 25,
    tol=flow.DEFAULT_TOL,
) -> SplittingReport:
    """Split an odd-degree non-hyperbolic cycle with a gradient-collapse family.

    F is either an exact polynomial vanishing on the cycle (used directly) or
    a SampledField, in which case a Bernstein fit of diagonal degree chosen by
    the tolerance search at derivative order r+1 stands in for it. The
    perturbed field's cycle census over xi_range is reported; success means
    at least three cycles with alternating stability, with the continued
    middle cycle turned hyperbolic unstable (positive exponent).
    """
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
        X_work = PolyVectorField(scale(X.P, -1.0), scale(X.Q, -1.0))
        cycle_work = build_cycle(X_work, cycle.section, cycle.xi_star, tol)
        time_reversed = True
        messages.append("time reversed: input cycle was unstable")

    degree = None
    trace: list = []
    if isinstance(F, Poly2):
        R = F
    else:
        if box is None:
            rad = float(np.max(np.hypot(cycle.points[:, 0], cycle.points[:, 1])))
            half = 1.5 * rad
            box = (-half, half, -half, half)
        if eps_target is None:
            raise ValueError("eps_target is required for a sampled F")
        try:
            degree = min_degree_for_tolerance(
                F, box, r + 1, eps_target, cap=degree_cap,
                grid_density=search_grid_density,
                error_boxes=error_boxes, trace=trace,
            )
        except CapExceeded as exc:
            raise DegreeCapExceeded(str(exc)) from exc
        R = bernstein_fit(F, degree[0], degree[1], box)

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
        lam=lam, r=r, eps_target=eps_target, degree=degree, degree_trace=trace,
        census=census, middle_index=middle_index, middle_exponent=middle_exponent,
        positivity_ok=positivity_ok, alternating=alternating, success=success,
        time_reversed=time_reversed, messages=messages, surrogate=R,
        perturbed=X_pert,
    )
