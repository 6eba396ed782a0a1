"""Independent polar-reduction oracles for the canonical circular systems.

Every CK-family perturbation used in the tests has a radial law r' = g(r)
with theta' = h(r) decoupled (by rotational symmetry), so return maps and
cycle radii reduce to one-dimensional integrations and root finds. The
library under test never sees these reductions: it integrates the planar
Cartesian fields. References of another kind sit alongside: the variational
return-map derivative, integrated by SciPy rather than by the library's
stepper; the closed-form jets of the windowed signed distance to the unit
circle (the CK cycle); and helpers the library itself does not need, kept
as references for tests (the even-odd membership test of one polygon, the
real zeros of the guarded displacement fit, its discriminant phi, the
repeated-root probe at the critical points, the Sturm chain and count with
NumPy's polydiv and np.sign, polynomial values by NumPy's polyval2d (the
reference of the compiled Horner bodies), the zero test and the
coefficient comparison of polynomials, the verdict of an annulus
verification, an orbit's CSV dump, the quarter-turn of a field, the
conversions between the monomial and Bernstein bases, the finite-difference
check of supplied derivatives and the cycle census's
sort-and-sweep root rule).
"""
import math

import numpy as np
from numpy.polynomial import polynomial as npoly
from numpy.polynomial.polynomial import polyroots
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from cyclelab import annulus as an
from cyclelab import cycles
from cyclelab import discriminant as dc
from cyclelab import flow
from cyclelab.bernstein import BernsteinPoly, InsufficientDerivatives
from cyclelab.field import PolyVectorField
from cyclelab.poly2 import Poly2, scale


def polar_return(radial, angular=None, r0=1.0, span=2 * np.pi, tol=1e-13):
    """Radius after one revolution of dr/dtheta = radial(r)/angular(r)."""
    ang = angular or (lambda r: 1.0)
    sol = solve_ivp(lambda th, r: [radial(r[0]) / ang(r[0])], [0.0, span], [r0],
                    method="DOP853", rtol=tol, atol=tol)
    return float(sol.y[0, -1])


def ck_radial(k):
    return lambda r: r * (1 - r * r) ** k


def ck1_exact_map(r0, t=2 * np.pi):
    """Closed-form radial flow of r' = r(1 - r^2)."""
    a = np.exp(-2 * t)
    return 1.0 / np.sqrt(1.0 + (1.0 / r0**2 - 1.0) * a)


def rotated_ck_radial(k, mu):
    """Radial law of the rotated family: r' = r(s^k - mu), s = 1 - r^2."""
    return lambda r: r * ((1 - r * r) ** k - mu)


def rotated_ck_angular(k, mu):
    return lambda r: 1.0 + mu * (1 - r * r) ** k


def collapse_radial(k, lam):
    """Radial law of CK(k) + lam * s grad s: r' = r s (s^(k-1) - 2 lam)."""
    return lambda r: r * (1 - r * r) * ((1 - r * r) ** (k - 1) - 2 * lam)


def collapse_radii(k, lam):
    """Cycle radii r = sqrt(1 - s) of the perturbed family, ascending (k >= 2).

    s^(k-1) = 2 lam has the two real roots +/-(2 lam)^(1/(k-1)) for odd k and
    only the positive one for even k; s = 0 is the continued unit circle.
    """
    s = (2 * lam) ** (1.0 / (k - 1))
    return tuple(np.sqrt(1 - t) for t in ((s, 0.0, -s) if k % 2 else (s, 0.0)))


def noise_band(k, tol):
    """Half-width of the xi band around CK(k)'s cycle where |d| < tol.

    From r' = r(1 - r^2)^k, near the cycle d(xi) ~ 2 pi (-2 xi)^k, so
    |d| < tol for |xi| < (tol / (2 pi 2^k))^(1/k). Inside the band the sign
    of d is integrator error, so a census root there is as good as any.
    """
    return (tol / (2 * math.pi * 2**k)) ** (1.0 / k)


def collapse_ck3_radial(lam):
    return collapse_radial(3, lam)


def collapse_ck3_radii(lam):
    """The three cycle radii of the perturbed CK(3): s in {0, +/-sqrt(2 lam)}."""
    return collapse_radii(3, lam)


def collapse_ck3_exponents(lam):
    """The exponents of the three cycles of collapse_ck3_radii, in that order.

    On a circle r' = f(r) = r s (s^2 - 2 lam) vanishes and theta' = 1, so
    the exponent is 2 pi f'(r) = -4 pi r^2 (3 s^2 - 2 lam): 8 pi lam on
    s = 0 and -16 pi lam (1 -/+ sqrt(2 lam)) on s = +/-sqrt(2 lam).
    """
    s = math.sqrt(2 * lam)
    return (-16 * math.pi * lam * (1 - s), 8 * math.pi * lam, -16 * math.pi * lam * (1 + s))


def unfolding_radii(k, c):
    """Cycle radii, ascending, of CK(k) + (-c x, -c y) = CK(k) + (c/2) grad s,
    s = 1 - x^2 - y^2, whose polar form is r' = r(s^k - c), theta' = 1.

    The cycles are the real roots s of s^k = c with s < 1: for odd k the one
    root sign(c) |c|^(1/k) whatever the sign of c, for even k the two roots
    +/-c^(1/k) when c > 0 and none when c < 0.
    """
    a = abs(c) ** (1.0 / k)
    roots = (math.copysign(a, c),) if k % 2 else (a, -a) if c > 0 else ()
    return tuple(math.sqrt(1 - s) for s in roots)


def rotated_ck2_radii(mu):
    """Cycle radii of rotated CK(2) at lam*eps = mu > 0: s^2 = mu."""
    s = np.sqrt(mu)
    return np.sqrt(1 - s), np.sqrt(1 + s)


def radial_cycle_radii(radial, r_window=(0.5, 1.5), n=4001):
    """All roots of the radial law inside the window (brute bracketing)."""
    rs = np.linspace(*r_window, n)
    vals = np.array([radial(r) for r in rs])
    roots = []
    for i in range(n - 1):
        if vals[i] == 0.0:
            roots.append(rs[i])
        elif vals[i] * vals[i + 1] < 0:
            roots.append(brentq(radial, rs[i], rs[i + 1], xtol=1e-14))
    return np.array(roots)


def return_map_derivative(X, cycle, tol=1e-12):
    """pi'(xi*) through the variational flow along the cycle.

    Integrates the linearized equation delta' = DX(gamma(t)) delta over one
    period with SciPy's DOP853 and projects along the flow direction:
    pi'(0) = [X(p) ^ Phi(T) u] / [X(p) ^ u] with u the section direction.
    Numerically independent of the divergence quadrature, so the multiplier
    identity exp(exponent) = pi'(xi*) (Liouville's formula) is a genuine
    cross-check.
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
    return float((p * dy - q * dx) / (p * u[1] - q * u[0]))


def _window(u, width):
    """w(u) = 1 - S((u - h)/h), h = width/2, S the quintic smoothstep, and
    its first two derivatives in u."""
    h = width / 2.0
    s = np.clip((u - h) / h, 0.0, 1.0)
    w = 1.0 - s**3 * (10.0 - 15.0 * s + 6.0 * s**2)
    return w, -30.0 * s**2 * (1.0 - s) ** 2 / h, -60.0 * s * (1.0 - s) * (1.0 - 2.0 * s) / h**2


def windowed_circle_distance(x, y, width):
    """Jets of F = phi(d), phi(d) = d w(|d|), d = r - 1: the windowed signed
    distance to the unit circle, keyed (i, j) for d^(i+j) F / dx^i dy^j.

    grad F = phi' r_hat and Hess F = (phi'/r) t_hat t_hat^T + phi'' r_hat r_hat^T,
    since Hess r = t_hat t_hat^T / r.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    r = np.hypot(x, y)
    d = r - 1.0
    u = np.abs(d)
    w, w1, w2 = _window(u, width)
    phi1 = w + u * w1
    phi2 = np.sign(d) * (2.0 * w1 + u * w2)
    nx, ny = x / r, y / r
    tx, ty = -ny, nx
    return {
        (0, 0): d * w,
        (1, 0): phi1 * nx,
        (0, 1): phi1 * ny,
        (2, 0): phi1 / r * tx * tx + phi2 * nx * nx,
        (1, 1): phi1 / r * tx * ty + phi2 * nx * ny,
        (0, 2): phi1 / r * ty * ty + phi2 * ny * ny,
    }


def points_in_polygon(pts, poly):
    """Even-odd ray-crossing membership in one closed polygon (first ==
    last): the library's sweep, as in_region runs it on each curve."""
    return an._even_odd(an._by_y(pts), poly)


def fit_roots(samples, degree, fit_degree=None):
    """Real zeros of the guarded displacement fit inside the sample window.

    The monic factor from fit_displacement_poly has faithful root structure
    but its root positions absorb the unit's variation over the window; the
    zeros of the full guarded fit do not, so cycle locations read off here
    can be checked against the census.
    """
    scaled, _, h = dc._guarded_fit(samples, degree, fit_degree)
    roots = polyroots(scaled)
    real = roots[np.abs(roots.imag) < 1e-8].real * h
    return np.sort(real[np.abs(real) <= h])


def phi(X, section, d, window=0.025, center=0.0, tol=flow.DEFAULT_TOL):
    """Discriminant of the monic degree-d displacement fit near the cycle."""
    samples = dc.displacement_samples(X, section, d, window, center, tol=tol)
    return dc.discriminant(dc.fit_displacement_poly(samples, d))


def has_repeated_root(p, tol=1e-10):
    """Nonconstant gcd(p, p'), probed at the critical points.

    p shares a root with p' exactly when p vanishes at some zero of p', so
    the flag is min over critical points c of |p(c)| relative to the local
    coefficient scale. This is numerically much better conditioned than
    thresholding the Euclidean remainder cascade (a float-rounded double
    root splits into simple roots ~ sqrt(eps) apart, which still registers
    here: |p(c)| ~ separation^2).
    """
    crit = polyroots(p.derivative_coeffs())
    crit = crit[np.abs(crit.imag) < 1e-8].real
    if crit.size == 0:
        return False
    scale = float(np.max(np.abs(p.full_coeffs())))
    local = scale * (1.0 + np.abs(crit)) ** p.degree
    return bool(np.any(np.abs(p(crit)) < tol * local))


def sturm_chain(p):
    """The Sturm chain of the monic p as arrays, its remainders taken by
    NumPy's polydiv: discriminant._sturm_chain's trims and eps cut."""
    chain = [p.full_coeffs()]
    dp = p.derivative_coeffs()
    if np.max(np.abs(dp)) > 0:
        chain.append(dp / np.max(np.abs(dp)))
    eps = 1e-13
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        scale = max(np.max(np.abs(a)), 1.0)
        _, rem = npoly.polydiv(a, b)
        while len(rem) > 1 and abs(rem[-1]) < eps * scale:
            rem = rem[:-1]
        if len(rem) == 1 and abs(rem[0]) < eps * scale:
            break
        m = np.max(np.abs(rem))
        chain.append(-rem / m)
    return chain


def real_root_census(p):
    """The Sturm count of p's distinct real roots on sturm_chain, with the
    signs at -inf and +inf taken by np.sign."""
    def variations(values):
        signs = [s for s in np.sign(values) if s != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)

    chain = sturm_chain(p)
    at_pinf = [c[-1] for c in chain]
    at_minf = [c[-1] * (-1.0) ** (len(c) - 1) for c in chain]
    return variations(at_minf) - variations(at_pinf)


def dense(p):
    """The dense (degx+1, degy+1) coefficient matrix of the Poly2 p."""
    if not p.coeffs:
        return np.zeros((1, 1))
    C = np.zeros((max(i for i, _ in p.coeffs) + 1, max(j for _, j in p.coeffs) + 1))
    for (i, j), c in p.coeffs.items():
        C[i, j] = c
    return C


def eval_poly(p, x, y):
    """p(x, y) by NumPy's polyval2d on dense(p), for scalars or broadcasting
    arrays: the reference whose bits Poly2 values and a field's rhs() keep
    at every finite point."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    return npoly.polyval2d(x, y, dense(p))


def is_zero(p):
    """Whether the monomial polynomial p is zero."""
    return not p.coeffs


def same_coeffs(a, b, tol=0.0):
    """Whether the monomial forms a and b agree coefficient by coefficient
    within tol."""
    keys = set(a.coeffs) | set(b.coeffs)
    return all(abs(a.coeffs.get(k, 0.0) - b.coeffs.get(k, 0.0)) <= tol for k in keys)


def verified(report):
    """Whether an annulus.VerificationReport passes all three clauses."""
    return report.inward_ok and report.singularity_free and report.invariance_ok


def orbit_csv(orbit, path, n=None):
    """Write an Orbit as t,x,y rows: its accepted steps, or n dense samples
    evenly spaced in time."""
    if n is None:
        ts, pts = orbit.times, orbit.states
    else:
        ts = np.linspace(orbit.times[0], orbit.t_end, n)
        pts = orbit.eval(ts)
    lines = ["t,x,y"] + [f"{float(t)!r},{float(x)!r},{float(y)!r}" for t, (x, y) in zip(ts, pts)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


MONOMIAL_CONVERSION_CAP = 30


class ConversionOverflow(Exception):
    """Bernstein-to-monomial conversion requested above the degree cap."""


def to_monomial(p):
    """The BernsteinPoly p in monomial form; capped at total degree 30, as the
    conversion is exponentially ill-conditioned."""
    m, n = p.grid.shape[0] - 1, p.grid.shape[1] - 1
    if m + n > MONOMIAL_CONVERSION_CAP:
        raise ConversionOverflow(
            f"bernstein ({m},{n}) exceeds the total-degree cap "
            f"{MONOMIAL_CONVERSION_CAP} for monomial conversion"
        )
    ax, bx, ay, by = p.box

    def axis_matrix(d, a, w):
        # bernstein -> power in u, then u = (x - a)/w -> power in x
        U = np.zeros((d + 1, d + 1))
        for i in range(d + 1):
            for k in range(i, d + 1):
                U[k, i] = (-1.0) ** (k - i) * math.comb(d, k) * math.comb(k, i)
        T = np.zeros((d + 1, d + 1))
        for k in range(d + 1):
            for j in range(k + 1):
                T[j, k] = math.comb(k, j) * (-a) ** (k - j) / w**k
        return T @ U

    C = axis_matrix(m, ax, bx - ax) @ p.grid @ axis_matrix(n, ay, by - ay).T
    return Poly2.monomial({(i, j): C[i, j] for i in range(C.shape[0])
                           for j in range(C.shape[1]) if C[i, j] != 0.0})


def to_bernstein(p, box, degrees=None):
    """The monomial polynomial p exactly as a BernsteinPoly on box, of degree
    at least degrees = (m, n) when given."""
    ax, bx, ay, by = (float(v) for v in box)
    C = dense(p)
    dx, dy = C.shape[0] - 1, C.shape[1] - 1
    if degrees is not None:
        dx, dy = max(dx, degrees[0]), max(dy, degrees[1])
        C = np.pad(C, ((0, dx + 1 - C.shape[0]), (0, dy + 1 - C.shape[1])))

    def axis_matrix(d, a, w):
        # x^j -> power in u where x = a + w u, then u^k -> Bernstein:
        # the i-th coefficient of u^k is C(i, k) / C(d, k)
        S = np.zeros((d + 1, d + 1))
        for j in range(d + 1):
            for k in range(j + 1):
                S[k, j] = math.comb(j, k) * a ** (j - k) * w**k
        T = np.zeros((d + 1, d + 1))
        for i in range(d + 1):
            for k in range(i + 1):
                T[i, k] = math.comb(i, k) / math.comb(d, k)
        return T @ S

    grid = axis_matrix(dx, ax, bx - ax) @ C @ axis_matrix(dy, ay, by - ay).T
    return BernsteinPoly(grid, (ax, bx, ay, by))


def perp(X):
    """Quarter-turn of the field: (-Q, P)."""
    return PolyVectorField(scale(X.Q, -1.0), X.P)


def check_consistency(f, rng=None, n_points=20, tol=1e-4):
    """Cross-check a SampledField's supplied first derivatives against its
    central differences.

    Returns the worst discrepancy at random interior points; raises
    InsufficientDerivatives if it exceeds tol.
    """
    def central_difference(i, j, x, y):
        h = 1e-5
        if i:
            return (f.value(x + h, y) - f.value(x - h, y)) / (2 * h)
        return (f.value(x, y + h) - f.value(x, y - h)) / (2 * h)

    rng = rng or np.random.default_rng(0)
    ax, bx, ay, by = f.box
    pad_x, pad_y = 0.05 * (bx - ax), 0.05 * (by - ay)
    x = rng.uniform(ax + pad_x, bx - pad_x, n_points)
    y = rng.uniform(ay + pad_y, by - pad_y, n_points)
    worst = 0.0
    for (i, j) in [(1, 0), (0, 1)]:
        if (i, j) not in f.derivs:
            continue
        a = np.asarray(f.derivs[(i, j)](x, y), dtype=float)
        b = np.asarray(central_difference(i, j, x, y), dtype=float)
        worst = max(worst, float(np.max(np.abs(a - b))))
    if worst > tol:
        raise InsufficientDerivatives(
            f"supplied derivatives disagree with finite differences by {worst:.2e}"
        )
    return worst


def census_roots(d, seeds, tol):
    """The roots of a cycle census over seeds, ascending, by the rule the
    census had as one eager loop: d(xi) at every seed first, in ascending
    order (None where d raises flow.OrbitFailure); each bracket
    [seeds[a], seeds[a + 1]] has the root seeds[a] where d is exactly 0
    (the last seed is a bracket of its own), else the cycles._brentq root,
    with ftol = tol, of a sign change, and none when an end is None or the
    solve raises flow.OrbitFailure; the roots are stable-sorted and each
    root within 1e-8 of the last kept one merges into it."""
    vals = []
    for xi in seeds:
        try:
            vals.append(d(xi))
        except flow.OrbitFailure:
            vals.append(None)
    roots = []
    for a, da in enumerate(vals):
        db = vals[a + 1] if a + 1 < len(vals) else None
        if da == 0.0 and (a + 1 == len(vals) or db is not None):
            roots.append(seeds[a])
        elif da is not None and db is not None and np.sign(da) * np.sign(db) < 0:
            try:
                roots.append(cycles._brentq(d, seeds[a], seeds[a + 1], da, db, ftol=tol))
            except flow.OrbitFailure:
                pass
    roots.sort()
    kept = []
    for r in roots:
        if not kept or r - kept[-1] > 1e-8:
            kept.append(r)
    return kept
