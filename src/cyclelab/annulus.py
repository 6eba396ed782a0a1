"""Trapping annulus construction and verification.

The annular region between two closed curves traps the flow when the field
crosses both curves inward. Each curve is built from an orbit arc of the
rotated field Z = X + lambda0 * Xperp running from a section point back to
its first section return, closed by the short section sub-segment between
the two endpoints. Because X wedge Z = lambda0 |X|^2 never vanishes off the
singular set, X is automatically transversal to the arc; the sign of lambda0
decides which side X points to, so the inner curve and outer curve need
opposite signs. Both signs are fixed here from the cycle's orientation; only
|lambda0| comes from the caller.

Verification is sampling-based, not certified: inward flux at curve samples
(the normals' side from the curve's orientation, as the rotation signs), a
singularity probe on a grid filling the region, and forward-orbit
containment from boundary seeds. verify_annulus runs all three clauses;
flux_margin runs the first alone, with no orbit and no grid, for a caller
that reports only the flux (the split pipeline).

Region membership is the even-odd ray-crossing test against both curves,
run as a sweep: the points are sorted by y once, each edge takes the
contiguous run of points whose height it straddles, and only those
(edge, point) pairs are tested: O((points + edges) log points) plus one
test per pair, about two per point on a simple curve, rather than
points x edges.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import flow
from .cycles import _T_OFFSET, DEFAULT_T_MAX, LimitCycle, Section, crossing_sign
from .field import PolyVectorField, rotate_family


class ReturnFailed(Exception):
    """Rotated orbit did not return inside the required section interval."""


class NotStable(Exception):
    """Construction needs a stable (or non-hyperbolic) cycle."""


@dataclass
class Annulus:
    """Two closed piecewise-smooth curves bounding a trapping region.

    Polylines are closed (first point repeated last); each has exactly two
    smoothness corners, at the section junction indices recorded here.
    """

    s1: np.ndarray
    s2: np.ndarray
    corners_s1: tuple[int, int]
    corners_s2: tuple[int, int]
    xi1: float
    xi2: float
    xi_z1: float
    xi_z2: float
    lambda0_s1: float
    lambda0_s2: float
    section: Section
    period: float

    def to_csv(self, path):
        lines = ["curve,index,x,y"]
        for name, poly in (("S1", self.s1), ("S2", self.s2)):
            for i, (x, y) in enumerate(poly):
                lines.append(f"{name},{i},{float(x)!r},{float(y)!r}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _by_y(pts: np.ndarray):
    """The points' coordinates with their y-sort order, shared by every
    polygon tested against them."""
    x, y = pts[:, 0], pts[:, 1]
    order = np.argsort(y, kind="stable")
    return x, y, order, y[order]


def _even_odd(points, poly: np.ndarray) -> np.ndarray:
    x, y, order, ys = points
    x0, y0 = poly[:-1, 0], poly[:-1, 1]
    x1, y1 = poly[1:, 0], poly[1:, 1]
    # each edge's straddled points, min(y0, y1) <= y < max(y0, y1), are one
    # run of the y-sorted order; NaN ys sort last and fall in no run
    start = np.searchsorted(ys, np.minimum(y0, y1), side="left")
    counts = np.searchsorted(ys, np.maximum(y0, y1), side="left") - start
    edge = np.repeat(np.arange(len(x0)), counts)
    pt = order[np.arange(len(edge)) + np.repeat(start - (np.cumsum(counts) - counts), counts)]
    ex0, ey0 = x0[edge], y0[edge]
    x_int = ex0 + (y[pt] - ey0) * (x1[edge] - ex0) / (y1[edge] - ey0)
    return np.bincount(pt[x[pt] < x_int], minlength=len(x)) % 2 == 1


def in_region(pts: np.ndarray, annulus: Annulus) -> np.ndarray:
    """Membership in the open region between the two curves."""
    points = _by_y(pts)
    return _even_odd(points, annulus.s2) & ~_even_odd(points, annulus.s1)


def _orientation(points: np.ndarray) -> int:
    """Sign of twice the enclosed area of a closed polyline."""
    x, y = points[:-1, 0], points[:-1, 1]
    x2, y2 = points[1:, 0], points[1:, 1]
    return 1 if np.sum(x * y2 - x2 * y) >= 0 else -1


def _arc(Z, section, xi_from, tol, n_samples):
    p0 = section.point_at(xi_from)
    sign = crossing_sign(Z, section)
    t_ret, p_ret, orbit = flow._crossing_orbit(
        Z, p0, section, sign, t_max=DEFAULT_T_MAX, tol=tol, t_offset=_T_OFFSET
    )
    ts = np.linspace(0.0, t_ret, n_samples)
    pts = orbit.eval(ts)
    pts[-1] = p_ret
    return pts, section.xi_of(p_ret)


def _close_with_section_segment(arc: np.ndarray, section, xi_end, xi_start,
                                n_seg: int = 9) -> tuple[np.ndarray, tuple[int, int]]:
    seg_xis = np.linspace(xi_end, xi_start, n_seg)[1:]
    seg = np.array([section.point_at(x) for x in seg_xis])
    poly = np.vstack([arc, seg])
    poly[-1] = arc[0]  # close exactly
    return poly, (0, len(arc) - 1)


def build_trapping_annulus(
    X: PolyVectorField,
    cycle: LimitCycle,
    lambda0: float,
    xi1: float,
    xi2: float,
    tol=flow.DEFAULT_TOL,
    n_samples: int = 1024,
) -> Annulus:
    """Build the two transversal curves around a stable cycle.

    xi1 < 0 < xi2 pick the section anchors; for each side the rotated field
    X + lambda0_i * Xperp is integrated from the anchor to its first section
    return, which must land strictly between the anchor and the cycle
    (xi1 < xi_Z < 0, resp. 0 < xi_Z < xi2). Each side makes one attempt
    with lambda0_i = +/-|lambda0|, the sign chosen so the unrotated field
    crosses the arc toward the annulus (counterclockwise cycles need +
    inside, - outside); the sign of the caller's lambda0 is ignored.
    lambda0 = 0 is the degenerate fallback using the plain return orbit,
    validated by the stable-cycle return inequality alone.
    """
    if not (xi1 < 0.0 < xi2):
        raise ValueError("need xi1 < 0 < xi2")
    if cycle.stability == "unstable":
        raise NotStable(f"cycle exponent {cycle.exponent:.3g} > 0")
    section = cycle.section
    orient = _orientation(cycle.points)

    def build_side(xi_from, inner: bool):
        # inward transversality requires sign(lambda0) = orient for the inner
        # curve and -orient for the outer one; lambda0 = 0 stays +0.0
        want = orient if inner else -orient
        lam = want * abs(lambda0) if lambda0 != 0.0 else 0.0
        Z = X if lam == 0.0 else rotate_family(X, lam, 1.0)
        try:
            arc, xi_z = _arc(Z, section, xi_from, tol, n_samples)
        except flow.OrbitFailure as exc:
            last = f"{type(exc).__name__}: {exc}"
        else:
            last = f"xi_Z={xi_z}"
            if inner and xi1 < xi_z < 0.0:
                return arc, xi_z, lam
            if not inner and 0.0 < xi_z < xi2:
                return arc, xi_z, lam
        raise ReturnFailed(
            f"rotated return from xi={xi_from} failed ({last}); no admissible "
            f"sign of lambda0 returns inside the required interval"
        )

    arc1, xi_z1, lam1 = build_side(xi1, inner=True)
    arc2, xi_z2, lam2 = build_side(xi2, inner=False)
    s1, corners1 = _close_with_section_segment(arc1, section, xi_z1, xi1)
    s2, corners2 = _close_with_section_segment(arc2, section, xi_z2, xi2)
    return Annulus(
        s1=s1, s2=s2, corners_s1=corners1, corners_s2=corners2,
        xi1=xi1, xi2=xi2, xi_z1=xi_z1, xi_z2=xi_z2,
        lambda0_s1=lam1, lambda0_s2=lam2, section=section, period=cycle.period,
    )


@dataclass
class VerificationReport:
    inward_ok: bool
    min_flux_margin: float
    singularity_free: bool
    min_field_magnitude: float
    invariance_ok: bool
    orbits_total: int
    orbits_contained: int


def _resample_closed(poly: np.ndarray, n: int) -> np.ndarray:
    seg = np.diff(poly, axis=0)
    lengths = np.hypot(seg[:, 0], seg[:, 1])
    s = np.concatenate([[0.0], np.cumsum(lengths)])
    targets = np.linspace(0.0, s[-1], n, endpoint=False)
    idx = np.clip(np.searchsorted(s, targets, side="right") - 1, 0, len(seg) - 1)
    frac = (targets - s[idx]) / np.where(lengths[idx] == 0, 1.0, lengths[idx])
    return poly[idx] + frac[:, None] * seg[idx]


def _inward_normals(n_pts: np.ndarray, side: int) -> np.ndarray:
    """side * (t_y, -t_x) at the points of a resampled closed curve, t the
    unit tangent by central differences; see flux_margin for side."""
    tang = np.roll(n_pts, -1, axis=0) - np.roll(n_pts, +1, axis=0)
    tang /= np.maximum(np.linalg.norm(tang, axis=1, keepdims=True), 1e-300)
    return side * np.stack([tang[:, 1], -tang[:, 0]], axis=1)


def flux_margin(Y: PolyVectorField, annulus: Annulus, n_samples: int = 256) -> float:
    """The smallest normalized inward flux Y.n/|Y| on the annulus's curves:
    clause (i) of verify_annulus, alone.

    Each curve is resampled at n_samples points, and each corner is checked
    against both adjacent segment normals. The normals come from each
    curve's orientation: (t_y, -t_x) points out of a counterclockwise curve,
    and the region lies outside s1 and inside s2, so the inward normal is
    (t_y, -t_x) times the orientation of s1 and times minus that of s2. The
    flux is inward on every sample when the margin is positive.
    """
    min_margin = np.inf
    for poly, corners, sign in ((annulus.s1, annulus.corners_s1, 1),
                                (annulus.s2, annulus.corners_s2, -1)):
        side = sign * _orientation(poly)
        pts = _resample_closed(poly, n_samples)
        normals = _inward_normals(pts, side)
        p, q = Y(pts[:, 0], pts[:, 1])
        vel = np.stack([p, q], axis=1)
        speed = np.linalg.norm(vel, axis=1)
        margin = np.einsum("ij,ij->i", vel, normals) / np.maximum(speed, 1e-300)
        min_margin = min(min_margin, float(margin.min()))
        # corner vertices: both adjacent segment normals must pass
        for corner in corners:
            cpt = poly[corner]
            # each segment's tangent along the curve
            for t in (cpt - (poly[corner - 1] if corner > 0 else poly[-2]),
                      poly[corner + 1] - cpt):
                nrm = np.linalg.norm(t)
                if nrm == 0:
                    continue
                t = t / nrm
                cand = side * np.array([t[1], -t[0]])
                pv, qv = Y(cpt[0], cpt[1])
                sp = float(np.hypot(pv, qv))
                min_margin = min(min_margin, float((pv * cand[0] + qv * cand[1]) / max(sp, 1e-300)))
    return float(min_margin)


def verify_annulus(
    Y: PolyVectorField,
    annulus: Annulus,
    n_samples: int = 256,
    invariance_orbits: int = 32,
    horizon_periods: float = 20.0,
    tol=flow.DEFAULT_TOL,
) -> VerificationReport:
    """Check the three trapping clauses for the field Y on the annulus.

    (i) normalized inward flux Y.n/|Y| > 0 at curve samples, corners checked
    against both adjacent segment normals (flux_margin); (ii) no singularity
    on an 80 x 80 grid filling the region, where a grid with no point in
    the region reads min_field_magnitude 0; (iii) forward orbits seeded on
    both curves stay in the region for horizon_periods periods (none for
    invariance_orbits=0), where an orbit that fails (flow.OrbitFailure)
    counts as not contained. All clauses are reported; none raises. A
    caller that reads only clause (i) calls flux_margin, which integrates
    nothing.
    """
    min_margin = flux_margin(Y, annulus, n_samples)
    inward_ok = min_margin > 0.0

    # singularity probe on a grid covering the region
    lo = annulus.s2.min(axis=0) - 0.05
    hi = annulus.s2.max(axis=0) + 0.05
    xs = np.linspace(lo[0], hi[0], 80)
    ys = np.linspace(lo[1], hi[1], 80)
    GX, GY = np.meshgrid(xs, ys, indexing="ij")
    grid = np.stack([GX.ravel(), GY.ravel()], axis=1)
    members = grid[in_region(grid, annulus)]
    if len(members) == 0:
        min_mag = 0.0
    else:
        p, q = Y(members[:, 0], members[:, 1])
        min_mag = float(np.min(np.hypot(p, q)))
    singularity_free = min_mag > 1e-8

    contained = 0
    horizon = horizon_periods * annulus.period
    half = invariance_orbits // 2
    seeds = np.vstack([
        _resample_closed(annulus.s1, half),
        _resample_closed(annulus.s2, invariance_orbits - half),
    ])
    for seed in seeds:
        try:
            orbit = flow.integrate(Y, seed, horizon, tol=max(tol, 1e-9))
        except flow.OrbitFailure:
            continue
        if bool(np.all(in_region(orbit.states[1:], annulus))):
            contained += 1

    return VerificationReport(
        inward_ok=inward_ok,
        min_flux_margin=min_margin,
        singularity_free=singularity_free,
        min_field_magnitude=min_mag,
        invariance_ok=contained == len(seeds),
        orbits_total=len(seeds),
        orbits_contained=contained,
    )
