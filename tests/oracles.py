"""Independent polar-reduction oracles for the canonical circular systems.

Every CK-family perturbation used in the tests has a radial law r' = g(r)
with theta' = h(r) decoupled (by rotational symmetry), so return maps and
cycle radii reduce to one-dimensional integrations and root finds. The
library under test never sees these reductions: it integrates the planar
Cartesian fields. Two references of another kind sit alongside: the
variational return-map derivative, integrated by SciPy rather than by the
library's stepper, and the closed-form jets of the windowed signed distance
to the unit circle (the CK cycle).
"""
import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq


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


def collapse_ck3_radial(lam):
    return collapse_radial(3, lam)


def collapse_ck3_radii(lam):
    """The three cycle radii of the perturbed CK(3): s in {0, +/-sqrt(2 lam)}."""
    return collapse_radii(3, lam)


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
