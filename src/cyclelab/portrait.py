"""Deterministic SVG phase portraits: cycles, section, annulus, sample orbits.

Output bytes depend only on the inputs (fixed float formatting, no
timestamps), so portraits participate in the reproducibility contract.
"""
from __future__ import annotations

import numpy as np

from . import flow

_FMT = "{:.5f}"


def _path(points: np.ndarray, cls: str, color: str, width: float,
          close: bool = False) -> str:
    coords = " L ".join(
        f"{_FMT.format(x)} {_FMT.format(y)}" for x, y in points
    )
    z = " Z" if close else ""
    return (
        f'<path class="{cls}" d="M {coords}{z}" fill="none" '
        f'stroke="{color}" stroke-width="{_FMT.format(width)}"/>'
    )


def _sample_orbit_seeds(cycles, section):
    seeds = []
    if section is not None:
        for frac in (-0.9, -0.45, 0.45, 0.9):
            seeds.append(section.point_at(frac * section.half_length))
    elif cycles:
        c = np.mean(cycles[0], axis=0)
        seeds = [c + np.array([0.1, 0.0]), c + np.array([0.3, 0.0])]
    return seeds


def render_phase_portrait(field=None, cycles=(), section=None, annulus=None,
                          orbits=None, size: int = 640, margin: float = 0.15,
                          orbit_time: float = 6.0) -> str:
    """Compose the portrait; returns the SVG document as text.

    Cycle polylines are drawn as closed paths with class "cycle"; annulus
    curves carry class "annulus" with circle markers (class "corner") at
    their two junction vertices; sample orbits (integrated here when a field
    is supplied and none are passed) use class "orbit".
    """
    groups: list[str] = []
    all_pts = [np.asarray(c) for c in cycles]
    if annulus is not None:
        all_pts += [annulus.s1, annulus.s2]
    if section is not None:
        ends = np.array([
            section.point_at(-section.half_length),
            section.point_at(+section.half_length),
        ])
        all_pts.append(ends)
    if orbits is None and field is not None:
        orbits = []
        for seed in _sample_orbit_seeds(cycles, section):
            try:
                orb = flow.integrate(field, seed, orbit_time, tol=1e-8)
            except flow.OrbitFailure:
                continue
            ts = np.linspace(0.0, orb.t_end, 240)
            orbits.append(orb.eval(ts))
    orbits = orbits or []
    all_pts += [np.asarray(o) for o in orbits]
    if not all_pts:
        all_pts = [np.array([[-1.0, -1.0], [1.0, 1.0]])]
    stack = np.vstack(all_pts)
    lo = stack.min(axis=0)
    hi = stack.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-6))
    pad = margin * span
    x0, y0 = lo[0] - pad, lo[1] - pad
    w = (hi[0] - lo[0]) + 2 * pad
    h = (hi[1] - lo[1]) + 2 * pad

    def to_svg(points):
        pts = np.asarray(points, dtype=float)
        sx = (pts[:, 0] - x0) / w * size
        sy = size - (pts[:, 1] - y0) / h * size  # y grows upward in the plane
        return np.stack([sx, sy], axis=1)

    stroke = 1.4
    for orbit_pts in orbits:
        groups.append(_path(to_svg(orbit_pts), "orbit", "#9aa7b0", stroke * 0.6))
    if annulus is not None:
        for poly, corners in ((annulus.s1, annulus.corners_s1),
                              (annulus.s2, annulus.corners_s2)):
            pts = to_svg(poly)
            groups.append(_path(pts, "annulus", "#2a7f62", stroke))
            for idx in corners:
                cx, cy = pts[idx]
                groups.append(
                    f'<circle class="corner" cx="{_FMT.format(cx)}" '
                    f'cy="{_FMT.format(cy)}" r="3.50000" fill="#2a7f62"/>'
                )
    if section is not None:
        ends = np.array([
            section.point_at(-section.half_length),
            section.point_at(+section.half_length),
        ])
        groups.append(_path(to_svg(ends), "section", "#b05a2a", stroke))
    for cyc_pts in cycles:
        groups.append(_path(to_svg(np.asarray(cyc_pts)), "cycle", "#27457a",
                            stroke * 1.3, close=True))
    body = "\n".join(groups)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">\n'
        f'<rect width="{size}" height="{size}" fill="white"/>\n'
        f"{body}\n</svg>\n"
    )
