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

find_cycles, nearest_cycle and theorem1_splitting ask one lazy census
(_Census) with one merge rule. The census keeps the returns of its own d(xi)
calls, and builds the cycles of its roots from them. theorem1_splitting owns
the multiplicity of the cycle it splits: it runs the fit's first window and
the perturbed census's seeds as one wave of orbits, in lockstep where their
fields allow (flow.next_section_crossings), and stores the fit on the cycle.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cache, partial
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import flow
from .field import (CollapseField, PolyVectorField, collapse_integrands, divergence,
                    gradient_collapse_family, lane_evaluators, scale)
from .bernstein import BernsteinPoly, SampledField
from .poly2 import Poly2

DEFAULT_T_MAX = 400.0
# the tolerance of direct calls that give none, one decade below the flow
# default; every pipeline passes its integrator_tol (1e-10) instead
DEFAULT_CYCLE_TOL = 1e-11
# a return to the section counts only after this time
_T_OFFSET = 1e-6
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
    segment pointing to the exterior component, half_length (finite, > 0)
    bounds |xi|. geometry holds them as the floats the integrator reads,
    (bx, by, nx, ny, tx, ty, half_length), with (nx, ny) the normal.
    """

    base: np.ndarray
    direction: np.ndarray
    half_length: float
    geometry: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        b = np.asarray(self.base, dtype=float)
        d = np.asarray(self.direction, dtype=float)
        n = np.linalg.norm(d)
        if n == 0:
            raise ValueError("zero direction")
        if not 0.0 < self.half_length < math.inf:
            raise ValueError(f"half_length must be finite and > 0, got {self.half_length}")
        d = d / n
        b.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "base", b)
        object.__setattr__(self, "direction", d)
        object.__setattr__(self, "half_length", float(self.half_length))
        (bx, by), (tx, ty) = b.tolist(), d.tolist()
        object.__setattr__(self, "geometry", (bx, by, -ty, tx, tx, ty, self.half_length))

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


def crossing_sign(X: PolyVectorField, section: Section, rhs=None) -> int:
    """The sign of the flow across the section at its base, from X.rhs() or
    the given evaluator of X."""
    p, q = (X.rhs() if rhs is None else rhs)(*section.geometry[:2])
    s = np.dot([p, q], section.normal)
    if s == 0:
        raise ValueError("flow tangent to the section at its base")
    return 1 if s > 0 else -1


def _start_point(section, xi) -> tuple[float, float]:
    """section.point_at(xi)'s bits as the two floats the orbit of d(xi) starts from."""
    bx, by, _, _, tx, ty, _ = section.geometry
    return bx + xi * tx, by + xi * ty


def return_map(X, section, xi, tol=DEFAULT_CYCLE_TOL, _returns=None) -> float:
    """First-return coordinate pi(xi) on the section. A census passes its
    own store of returns as _returns: a return with |pi(xi) - xi| < tol is
    kept there, as xi -> (period, the orbit's steps), for the cycle it may
    become."""
    kept = None if _returns is None else []
    hit = flow.next_section_crossing(
        X, _start_point(section, xi), section, crossing_sign(X, section),
        t_max=DEFAULT_T_MAX, tol=tol, t_offset=_T_OFFSET, _kept=kept,
    )
    return _returned(section, xi, hit, kept, tol, _returns)


def _returned(section, xi, hit, kept, tol, returns) -> float:
    """pi(xi) from the first return hit = (t_star, point) of the orbit from
    xi, whose steps up to it are in kept, if given; a return with
    |pi(xi) - xi| < tol then goes into returns (see return_map)."""
    t_star, p = hit
    pi = section.xi_of(p)
    if kept is not None and abs(pi - xi) < tol:
        returns[xi] = t_star, kept
    return pi


def displacement(X, section, xi, tol=DEFAULT_CYCLE_TOL, _returns=None) -> float:
    """d(xi) = pi(xi) - xi; zeros are periodic orbits."""
    return return_map(X, section, xi, tol, _returns) - xi


def displacements(fields, section, xis, tol=DEFAULT_CYCLE_TOL) -> list[list]:
    """d(xi) of every field at the xis, one row per field, as a loop calling
    displacement(X, section, xi, tol) collects them, bit for bit, until its
    first OrbitFailure; a row that meets one ends with it. All orbits run at
    once, in lockstep (_crossings)."""
    rows = _crossings([[(X, xi) for xi in xis] for X in fields], section, tol)
    return [_displacement_row(section, xis, row) for row in rows]


def _crossings(rows, section, tol) -> list[list]:
    """flow.next_section_crossings of rows of lanes (X, xi[, kept]), each the
    orbit of d(xi) on X: from _start_point(section, xi), with X's
    crossing_sign, at d(xi)'s time bound and offset. No field builds its
    own rhs(): each is evaluated through its group's evaluators
    (field.lane_evaluators), which both the crossing signs and the lockstep
    driver use, so the fields are grouped once."""
    fields = list({id(lane[0]): lane[0] for row in rows for lane in row}.values())
    groups = lane_evaluators(fields)
    signs = {}
    for members, select in groups:
        for k, m in enumerate(members):
            signs[id(fields[m])] = crossing_sign(fields[m], section,
                                                 None if select is None else select(k))
    rows = [[(X, _start_point(section, xi), signs[id(X)], *kept) for X, xi, *kept in row]
            for row in rows]
    return flow.next_section_crossings(rows, section, t_max=DEFAULT_T_MAX, tol=tol,
                                       t_offset=_T_OFFSET, _groups=(fields, groups))


def _displacement_row(section, xis, hits) -> list:
    """d(xi) from the crossings of the orbits from the xis, failures kept.
    The returns' coordinates come from one np.vecdot, whose loop is the dot
    that xi_of's np.dot runs, so each has xi_of's bits (np.matmul and
    np.einsum can round them otherwise)."""
    points = [hit[1] for hit in hits if not isinstance(hit, flow.OrbitFailure)]
    pis = iter(np.vecdot(np.reshape(points, (-1, 2)) - section.base, section.direction).tolist())
    return [hit if isinstance(hit, flow.OrbitFailure) else next(pis) - xi
            for xi, hit in zip(xis, hits)]


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
    points: np.ndarray
    exponent: float
    multiplicity: MultiplicityEstimate | None = None
    _orbit: flow.Orbit | None = field(default=None, repr=False)

    @property
    def mean_radius(self) -> float:
        return float(np.mean(np.hypot(self.points[:, 0], self.points[:, 1])))

    @property
    def stability(self) -> str:
        """The sign of the exponent beyond +-1e-9, but "non-hyperbolic" for
        a multiple cycle (multiplicity d > 1): there the exponent's sign
        only tells on which side of the exact cycle the root lies."""
        if self.multiplicity is not None and self.multiplicity.d > 1:
            return "non-hyperbolic"
        if self.exponent < -1e-9:
            return "stable"
        if self.exponent > 1e-9:
            return "unstable"
        return "non-hyperbolic"

    def closure_error(self) -> float:
        return float(np.linalg.norm(self.points[0] - self.points[-1]))

    def displacement_samples_csv(self, path, X, window=0.05, n=33, tol=DEFAULT_CYCLE_TOL):
        xis = self.xi_star + np.linspace(-window, window, n)
        lines = ["xi,displacement"]
        for xi in xis:
            try:
                d = displacement(X, self.section, xi, tol)
            except flow.OrbitFailure:
                continue
            lines.append(f"{float(xi)!r},{float(d)!r}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def build_cycle(X, section, xi_star, tol=DEFAULT_CYCLE_TOL) -> LimitCycle:
    period, _, orbit = flow._crossing_orbit(
        X, section.point_at(xi_star), section, crossing_sign(X, section),
        t_max=DEFAULT_T_MAX, tol=tol, t_offset=_T_OFFSET,
    )
    return _cycle(X, section, xi_star, period, orbit)


def _cycle(X, section, xi_star, period, orbit) -> LimitCycle:
    """The cycle through xi_star from its orbit up to the return at period."""
    cyc = LimitCycle(
        section=section, xi_star=float(xi_star), period=period,
        points=orbit.eval(np.linspace(0.0, period, _CYCLE_SAMPLES)), exponent=0.0, _orbit=orbit,
    )
    cyc.exponent = characteristic_exponent(X, cyc)
    return cyc


@cache
def _gauss_rule() -> tuple[np.ndarray, np.ndarray]:
    """The 10-point Gauss-Legendre nodes and weights on [-1, 1] of every cycle
    quadrature. Computed on first use: its eigen-solve at import would add
    about 1 MB to the resident memory of runs that never integrate over a
    cycle. Read-only, as every caller shares them."""
    nodes, wts = leggauss(10)
    nodes.setflags(write=False)
    wts.setflags(write=False)
    return nodes, wts


def _step_rule(cycle: LimitCycle) -> tuple[np.ndarray, np.ndarray]:
    """The node times of every cycle quadrature, (steps, 10), and each step's
    half width: the 10-point Gauss-Legendre rule on each accepted step of
    the cycle's orbit that starts before the period, the step that crosses
    it cut at the period. The orbit is one degree-7 polynomial per step
    (flow.Orbit), so the rule lays no node across a step's seam."""
    nodes, _ = _gauss_rule()
    times = cycle._orbit.times
    edges = np.append(times[:np.searchsorted(times, cycle.period)], cycle.period)
    lo, hi = edges[:-1, None], edges[1:, None]
    half = 0.5 * (hi - lo)
    return half * nodes + 0.5 * (lo + hi), half[:, 0]


def _quad_over_cycle(cycle: LimitCycle, integrand: Callable) -> float:
    """integral over one period of integrand(x, y) along the cycle's orbit,
    by the 10-point Gauss-Legendre rule on each of its steps (_step_rule).

    integrand is called once, on the (steps, 10) node arrays, and each
    step's weighted row sum is added up in step order. That gives the bits
    of one call per step: tests/test_cycles.py keeps that form as the
    reference and checks both bit for bit, on monomial and on Bernstein
    integrands. The rule's error is far below the orbit's own, which the
    integrator tolerance sets.
    """
    t, half = _step_rule(cycle)
    pts = cycle._orbit.eval(t)
    rows = np.sum(_gauss_rule()[1] * integrand(pts[..., 0], pts[..., 1]), axis=1)
    total = 0.0
    for term in half * rows:
        total += term
    return total


def characteristic_exponent(X: PolyVectorField | CollapseField, cycle: LimitCycle) -> float:
    """integral over one period of div X along the cycle (field.divergence),
    by _quad_over_cycle."""
    return _quad_over_cycle(cycle, divergence(X))


def gradient_square_integral(F, cycle: LimitCycle) -> float:
    """integral over one period of |grad F|^2 along the cycle, F a Poly2, a
    BernsteinPoly or a SampledField. Only the two first derivatives are
    evaluated, never F itself."""
    if isinstance(F, SampledField):
        Fx, Fy = partial(F.derivative, 1, 0), partial(F.derivative, 0, 1)
    else:
        Fx, Fy = F.derivative("x"), F.derivative("y")

    def integrand(x, y):
        gx, gy = Fx(x, y), Fy(x, y)
        return gx * gx + gy * gy

    return _quad_over_cycle(cycle, integrand)


def divergence_integral_terms(X: PolyVectorField, R: Poly2 | BernsteinPoly, lam: float,
                              cycle: LimitCycle) -> tuple[float, float, float]:
    """The three divergence integrals of the gradient-collapse family.

    Returns (I_base, I_grad, I_lap) where I_base integrates div X, I_grad
    integrates lam * |grad R|^2 and I_lap integrates lam * R * (Rxx + Ryy),
    all along the given (perturbed-family) cycle. Their sum equals the
    characteristic exponent of the perturbed field on that cycle.
    """
    grad_square, r_laplacian = collapse_integrands(R)
    i_base = characteristic_exponent(X, cycle)
    i_grad = lam * _quad_over_cycle(cycle, grad_square)
    i_lap = lam * _quad_over_cycle(cycle, r_laplacian)
    return i_base, i_grad, i_lap


_BRENT_XTOL = 1e-12
_BRENT_RTOL = 4 * sys.float_info.epsilon
_BRENT_MAXITER = 100


def _brentq(f, xa, xb, fa, fb, ftol=0.0):
    """Root of f in [xa, xb] by Brent's method (Brent 1973, ch. 4), given
    fa = f(xa) and fb = f(xb).

    A port of SciPy's C brentq, operation for operation, so the root and
    the f calls equal those of scipy.optimize.brentq(f, xa, xb, xtol=1e-12)
    bit for bit, less the two calls SciPy spends on the bracket ends. With
    ftol > 0 it also stops once the bracket end it would return (the one
    with the smaller |f|) has |f| < ftol: that is the first point, ends
    first, whose |f| is below ftol. ftol = 0 never stops early, so the bits
    stay SciPy's. Raises ValueError when fa and fb have the same sign or f
    returns NaN, and RuntimeError after _BRENT_MAXITER iterations.
    """
    xpre, xcur = float(xa), float(xb)
    fpre, fcur = float(fa), float(fb)
    xblk = fblk = spre = scur = 0.0
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
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
        if fcur == 0 or abs(sbis) < delta or abs(fcur) < ftol:
            return xcur
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
        if math.isnan(fcur):
            raise ValueError(f"the function value at x={xcur:.6g} is NaN")
    raise RuntimeError(f"Failed to converge after {_BRENT_MAXITER} iterations, value is {xcur}")


# census roots this close in xi are one cycle; the lower one is kept
_MERGE_XI = 1e-8


class _Census:
    """The seed census of find_cycles, nearest_cycle and theorem1_splitting:
    d at n_seeds seeds spread evenly over xi_range, each bracket's root and
    whether it is kept, each computed once, when first asked or, for the
    seeds, in a wave. Bracket a is [seeds[a], seeds[a + 1]]; the last seed
    is a bracket of its own. returns is the census's own store of the
    returns its d(xi) calls keep (return_map). ValueError unless xi_range is
    finite and ascending."""

    def __init__(self, X, section, xi_range, n_seeds, tol):
        lo, hi = float(xi_range[0]), float(xi_range[1])
        if not -math.inf < lo < hi < math.inf:
            raise ValueError(f"xi_range must be finite and ascending, got {(lo, hi)}")
        self.X, self.section, self.tol = X, section, tol
        self.seeds = np.linspace(lo, hi, n_seeds)
        self.returns = {}
        self.d = partial(displacement, X, section, tol=tol, _returns=self.returns)
        self.seed_ds = {}  # i -> d at seeds[i], None where the return map is undefined
        self.roots, self.kept_roots = {}, {}  # a -> root(a), a -> kept(a)

    def seed_d(self, i):
        """d at seeds[i], None where the return map is undefined."""
        if i not in self.seed_ds:
            try:
                self.seed_ds[i] = self.d(self.seeds[i])
            except flow.OrbitFailure:
                self.seed_ds[i] = None
        return self.seed_ds[i]

    def wave(self, rows) -> list[list]:
        """d at every seed, as seed_d gives it, from one _crossings call that
        runs the given rows of lanes (X, xi) after one row per seed; returns
        the crossings of those rows. Each seed's orbit keeps its steps, which
        become _Steps only when cycle builds a root's cycle from them."""
        kept = [[] for _ in self.seeds]
        hits = _crossings([[(self.X, xi, steps)] for xi, steps in zip(self.seeds, kept)] + rows,
                          self.section, self.tol)
        for i, (xi, steps, (hit,)) in enumerate(zip(self.seeds, kept, hits)):
            self.seed_ds[i] = None if isinstance(hit, flow.OrbitFailure) else (
                _returned(self.section, xi, hit, steps, self.tol, self.returns) - xi)
        return hits[len(self.seeds):]

    def root(self, a):
        """Bracket a's root, or None: seeds[a] where d is exactly 0, else the
        _brentq root (ftol = tol) of a sign change. A bracket with an
        undefined end, or whose solve meets an orbit failure, has none."""
        if a not in self.roots:
            self.roots[a] = self._root(a)
        return self.roots[a]

    def _root(self, a):
        da = self.seed_d(a)
        if a == len(self.seeds) - 1:
            return self.seeds[a] if da == 0.0 else None
        if da is None or (db := self.seed_d(a + 1)) is None:
            return None
        if da == 0.0:
            return self.seeds[a]
        if np.sign(da) * np.sign(db) < 0:
            try:
                return _brentq(self.d, self.seeds[a], self.seeds[a + 1], da, db, ftol=self.tol)
            except flow.OrbitFailure:
                return None
        return None

    def kept(self, a):
        """Bracket a's root if the census keeps it, else None, by the one
        merge rule: a root is kept unless a kept root of a lower bracket lies
        at most _MERGE_XI below it. A lower bracket is asked only while its
        upper seed lies that close below the root."""
        if a not in self.kept_roots:
            self.kept_roots[a] = self._kept(a)
        return self.kept_roots[a]

    def _kept(self, a):
        xi = self.root(a)
        b = a - 1
        while xi is not None and b >= 0 and xi - self.seeds[b + 1] <= _MERGE_XI:
            below = self.root(b)
            if below is not None and xi - below <= _MERGE_XI and self.kept(b) is not None:
                return None
            b -= 1
        return xi

    def cycle(self, xi) -> LimitCycle:
        """The cycle of root xi: built from the return of its own d(xi) call
        when the census kept it, else integrated by build_cycle, with the
        same bits either way."""
        if xi not in self.returns:
            return build_cycle(self.X, self.section, xi, self.tol)
        period, steps = self.returns[xi]
        return _cycle(self.X, self.section, xi, period,
                      flow._orbit(_start_point(self.section, xi), steps))

    def cycles(self) -> list[LimitCycle]:
        """find_cycles' census: every seed first, then each kept root's cycle."""
        for i in range(len(self.seeds)):
            self.seed_d(i)
        return [self.cycle(xi) for a in range(len(self.seeds))
                if (xi := self.kept(a)) is not None]


def find_cycles(X, section, xi_range, n_seeds: int = 25,
                tol=DEFAULT_CYCLE_TOL) -> list[LimitCycle]:
    """Census of section fixed points, ascending in xi: d at n_seeds seeds
    spread evenly over xi_range, first, in ascending order; then each seed
    bracket's root in bracket order, kept unless a kept root lies within
    1e-8 below it (_Census.kept). The root solve is _brentq, a port of
    SciPy's brentq (Brent 1973), with ftol = tol: it stops at 1e-12 in xi or
    at the first point whose |d| is below the integrator tolerance,
    whichever comes first. Below tol the sign of d is integrator error, so a
    simple root moves by at most tol / |d'(xi*)|, and the solve of a
    multiple root, where d is flat, stops inside that noise band instead of
    pinning noise to 1e-12.

    Seeds where the return map is undefined are skipped, and so is a bracket
    whose root solve meets an orbit failure; an empty census is a valid
    result. Each cycle is built from the return its root's d(xi) call
    integrated, which the census keeps in its own store. ValueError unless
    xi_range is finite and ascending.
    """
    return _Census(X, section, xi_range, n_seeds, tol).cycles()


def nearest_cycle(X, section, xi_range, n_seeds: int = 25,
                  tol=DEFAULT_CYCLE_TOL) -> LimitCycle:
    """The cycle of find_cycles(X, section, xi_range, n_seeds, tol) nearest
    xi = 0, the first in ascending xi on a tie, bit for bit, from fewer
    d(xi) calls. ValueError when the census is empty, or unless xi_range is
    finite and ascending.

    The same census rule as find_cycles, asked lazily: brackets are visited
    in order of their distance from 0, until the next cannot hold a root
    nearer than the best kept one, and a seed is evaluated only when a
    bracket needs it. Only the nearest cycle is built, from its root's
    return as in find_cycles.
    """
    census = _Census(X, section, xi_range, n_seeds, tol)
    seeds = census.seeds
    # distance from 0 of each bracket; the last seed's is the seed itself
    dist = np.abs(np.clip(0.0, seeds, np.append(seeds[1:], seeds[-1:])))
    best = (math.inf, None)  # (|xi|, xi) of the nearest kept root
    for a in np.argsort(dist, kind="stable").tolist():
        if dist[a] > best[0]:
            break
        if (xi := census.kept(a)) is not None:
            best = min(best, (abs(xi), xi))
    if best[1] is None:
        raise ValueError("no cycle found in the configured xi range")
    return census.cycle(best[1])


def _scaled_fit(u, values, degree: int):
    """Least-squares coefficients of values ~ sum_k c_k u^k, k <= degree, and
    the RMS residual of that fit."""
    V = np.vander(u, degree + 1, increasing=True)
    scaled, *_ = np.linalg.lstsq(V, values, rcond=None)
    return scaled, float(np.sqrt(np.mean((V @ scaled - values) ** 2)))


def _reversed(X: PolyVectorField) -> PolyVectorField:
    """The field with time reversed: (-P, -Q)."""
    return PolyVectorField(scale(X.P, -1.0), scale(X.Q, -1.0))


def _chebyshev_nodes(center: float, half_width: float, n: int) -> np.ndarray:
    """The n Chebyshev-Lobatto points center + half_width * cos(pi k / (n - 1)),
    k = 0..n-1, of the multiplicity and discriminant fits."""
    return center + half_width * np.cos(np.pi * np.arange(n) / (n - 1))


def multiplicity(X, cycle_or_section, xi_star=None, d_max: int = 6, h: float = 0.05,
                 tol=flow.DEFAULT_TOL, _allow_reversal: bool = True,
                 _first_window=None) -> MultiplicityEstimate:
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

    A caller that runs the first window's orbits with others of its own
    (theorem1_splitting) hands over _first_window(nodes): d at the nodes,
    raising the first OrbitFailure as the loop over them would.
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
    for attempt in range(10):
        nodes = _chebyshev_nodes(xi0, h_cur, n_nodes)
        try:
            d_vals = np.array(_first_window(nodes) if attempt == 0 and _first_window else
                              [displacement(X, section, xi, tol=tol) for xi in nodes])
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


def perko_derivative(X: PolyVectorField, dX_dlam: PolyVectorField, cycle: LimitCycle) -> float:
    """Displacement-map lambda-derivative integral along the cycle.

    M = integral over [0, T] of exp(-A(t)) * (X ^ dX/dlam) at gamma(t), with
    A(t) = integral_0^t div X (Perko, Differential Equations and Dynamical
    Systems, 3rd ed., 4.5). On the cycle through p0 = section.point_at(xi*),
    with K = cycle.exponent = A(T) and u the section's direction,

        d/dlam d(xi*; lam) at lam = 0  =  exp(K) * M / (X(p0) ^ u),

    for either orientation of u. The 10-point Gauss-Legendre rule on each
    step of the cycle's orbit (_step_rule); A at a node is the earlier
    steps' integrals plus a 10-point rule from the step start to the node.
    """
    div = divergence(X)
    nodes, wts = _gauss_rule()
    unit = 0.5 * (1.0 + nodes)  # the Gauss nodes on [0, 1]
    t, half = _step_rule(cycle)                       # (steps, 10)
    lo = cycle._orbit.times[:len(half), None]
    sub = lo[..., None] + (t - lo)[..., None] * unit  # (steps, 10, 10) on [lo, t]
    pts = cycle._orbit.eval(np.concatenate([t.ravel(), sub.ravel()]))
    (x, y), (xs, ys) = pts[:t.size].T, pts[t.size:].T
    step_div = half * (div(x, y).reshape(t.shape) @ wts)
    A = ((np.cumsum(step_div) - step_div)[:, None]
         + 0.5 * (t - lo) * (div(xs, ys).reshape(sub.shape) @ wts))
    (p, q), (dp, dq) = X(x, y), dX_dlam(x, y)
    wedge = (p * dq - q * dp).reshape(t.shape)
    return float(np.sum(half * ((np.exp(-A) * wedge) @ wts)))


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
    perturbed: PolyVectorField | CollapseField


def _alternating(census: Sequence[LimitCycle]) -> bool:
    signs = [np.sign(c.exponent) for c in census]
    return all(signs[i] * signs[i + 1] < 0 for i in range(len(signs) - 1))


def theorem1_splitting(
    X: PolyVectorField,
    cycle: LimitCycle,
    R: Poly2 | BernsteinPoly,
    lam: float,
    xi_range=(-0.3, 0.3),
    n_seeds: int = 25,
    tol=flow.DEFAULT_TOL,
) -> SplittingReport:
    """Split an odd-degree non-hyperbolic cycle with a gradient-collapse family.

    R is a polynomial vanishing on the cycle, exactly or approximately: a
    monomial Poly2, or a BernsteinPoly fit of a sampled vanishing function.
    The perturbed field X + lam * R grad R (field.gradient_collapse_family:
    a PolyVectorField for a Poly2, a CollapseField for a BernsteinPoly)
    has its cycle census over xi_range reported; success means at least
    three cycles with alternating stability, with the continued middle cycle
    turned hyperbolic unstable (positive exponent).

    The cycle's multiplicity (multiplicity at tol) is stored on it, unless
    it has one. Its first window on X and the census's seeds on X + lam *
    R grad R run as one wave (_Census.wave), all orbits at once; later
    windows, the Brent roots and the census of a time-reversed field run
    as they would alone, and so does the census of a cycle whose
    multiplicity was given.
    """
    if not isinstance(R, (Poly2, BernsteinPoly)):
        raise TypeError(f"R must be a Poly2 or a BernsteinPoly, got {type(R).__name__}")
    messages: list[str] = []
    X_pert = gradient_collapse_family(X, R, lam)
    pert_census = _Census(X_pert, cycle.section, xi_range, n_seeds, tol)
    if cycle.multiplicity is None:
        def first_window(nodes):
            # one row, which ends at its first failure as the loop over the nodes does
            hits, = pert_census.wave([[(X, xi) for xi in nodes]])
            row = _displacement_row(cycle.section, nodes, hits)
            if isinstance(row[-1], flow.OrbitFailure):
                raise row[-1]
            return row

        cycle.multiplicity = multiplicity(X, cycle, tol=tol, _first_window=first_window)
    est = cycle.multiplicity
    if est.d < 3 or est.d % 2 == 0:
        raise ValueError(
            f"splitting needs a non-hyperbolic cycle of odd degree >= 3, got d={est.d}"
        )
    time_reversed = False
    if est.scaled_coefficients[est.d] > 0:
        # unstable cycle: reverse time so the construction sees a stable one;
        # the cycle is the reversed field's too, on the same section
        time_reversed = True
        messages.append("time reversed: input cycle was unstable")
        X_pert = gradient_collapse_family(_reversed(X), R, lam)
        pert_census = _Census(X_pert, cycle.section, xi_range, n_seeds, tol)
    census = pert_census.cycles()

    middle_index = None
    middle_exponent = None
    if census:
        dists = [abs(c.xi_star - cycle.xi_star) for c in census]
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
