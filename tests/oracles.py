"""Independent polar-reduction oracles for the canonical circular systems.

Every CK-family perturbation used in the tests has a radial law r' = g(r)
with theta' = h(r) decoupled (by rotational symmetry), so return maps and
cycle radii reduce to one-dimensional integrations and root finds. The
library under test never sees these reductions: it integrates the planar
Cartesian fields.
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
