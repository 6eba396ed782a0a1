"""Experiment harness: configs, pipelines, reports, and the numeric surrogate
for a smooth function vanishing on a cycle.

The surrogate is the windowed signed distance to the cycle: zero on the
cycle, unit gradient there, and cut off by a C^2 polynomial window before
the distance function loses smoothness at the cut locus. When a splitting
experiment carries a reference vanishing polynomial (the registry systems
do), the surrogate run can rescale its perturbation size so that both
families produce the same leading-order instability on the cycle -- the two
choices of vanishing function differ by a smooth positive factor, and the
equal gradient-square integral is what makes their censuses comparable.

Reports serialize to a human-readable indented text tree whose payload is
byte-reproducible for a fixed config and seed; the wall-clock line is
excluded from the reproducibility contract.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from . import annulus as an
from . import cycles as cy
from . import flow
from .discriminant import (
    LeadingCoefficientVanishes,
    discriminant as _poly_discriminant,
    displacement_samples,
    fit_displacement_poly,
    q2_search,
    real_root_census,
    root_count_congruence,
)
from .bernstein import (
    DEFAULT_GRID_DENSITY, SampledField, bernstein_fit, cr_error, error_table_csv,
    jets, mesh, min_degree_for_tolerance,
)
from .field import PolyVectorField, gradient_collapse_family, parse_field, rotate_family
from .registry import default_section_base, exact_vanishing_poly, canonical_function


class WindowTooWide(Exception):
    """Window reaches the cycle's cut locus; signed distance loses smoothness."""


# ------------------------------------------------------------------ numeric F
class _OrbitCurve:
    """A cycle as its own orbit: gamma(t) is the orbit's dense output,
    gamma' = X(gamma) and gamma'' = DX(gamma) X(gamma)."""

    def __init__(self, X: PolyVectorField, cycle: cy.LimitCycle):
        # only the surrogate split needs SciPy
        from scipy.spatial import cKDTree

        self.X, self.DX = X, X.jacobian()
        self.orbit, self.T = cycle._orbit, cycle.period
        self.dense_t = np.linspace(0.0, self.T, 1024, endpoint=False)
        self.dense_pts = self.orbit.eval(self.dense_t)
        self.tree = cKDTree(self.dense_pts)

    def jet(self, t):
        """gamma, gamma' and gamma'' at times t, as (x, y, x', y', x'', y'')."""
        x, y = self.orbit.eval(t).T
        p, q = self.X(x, y)
        Px, Py, Qx, Qy = (d(x, y) for d in self.DX)
        return x, y, p, q, Px * p + Py * q, Qx * p + Qy * q

    def nearest_parameter(self, q: np.ndarray) -> np.ndarray:
        """Parameters of the nearest curve points to query points (M, 2):
        Newton on the foot-point condition, started at the nearest dense point."""
        t = self.dense_t[self.tree.query(q)[1]]
        for _ in range(6):
            gx, gy, dx, dy, d2x, d2y = self.jet(t)
            rx, ry = q[:, 0] - gx, q[:, 1] - gy
            g = rx * dx + ry * dy
            gp = -(dx * dx + dy * dy) + rx * d2x + ry * d2y
            # gp = 0 where every curve point is a foot point (a circle's centre)
            step = np.divide(g, gp, out=np.zeros_like(g), where=np.abs(gp) > 1e-14)
            t = np.mod(t - step, self.T)
        return t

    def max_curvature(self) -> float:
        _, _, dx, dy, d2x, d2y = self.jet(self.dense_t)
        return float(np.max(np.abs(dx * d2y - dy * d2x) / np.hypot(dx, dy) ** 3))

    def ambiguous_at(self, width: float) -> bool:
        """Nearest-point ambiguity probe at the given offset distance.

        Points offset by width along both normals must project back to the
        parameter they came from; a jump means the offset crossed the cut
        locus (or a fold of the curve) and the distance function is no
        longer smooth there.
        """
        t = self.dense_t[::16]
        gx, gy, dx, dy, _, _ = self.jet(t)
        speed = np.hypot(dx, dy)
        nx, ny = -dy / speed, dx / speed
        for sgn in (+1.0, -1.0):
            q = np.stack([gx + sgn * width * nx, gy + sgn * width * ny], axis=1)
            t_back = self.nearest_parameter(q)
            gap = np.abs(t_back - t)
            gap = np.minimum(gap, self.T - gap)
            if np.any(gap > 0.1 * self.T):
                return True
        return False


def _smoothstep5(t):
    """The quintic smoothstep and its first two derivatives, clamped to [0, 1]."""
    t = np.clip(t, 0.0, 1.0)
    return (t * t * t * (10.0 + t * (-15.0 + 6.0 * t)),
            30.0 * t * t * (1.0 - t) ** 2, 60.0 * t * (1.0 - t) * (1.0 - 2.0 * t))


def build_numeric_F(X: PolyVectorField, cycle: cy.LimitCycle,
                    window_width: float) -> SampledField:
    """Windowed signed distance to the cycle of X as a sampled scalar field.

    F = phi(d) = d w(|d|) vanishes on the cycle with unit-magnitude gradient
    there; the signed distance d is negative on the interior component
    (matching the section coordinate). The C^2 polynomial window w equals 1
    within window_width/2 of the cycle and 0 beyond window_width, standing in
    for a smooth extension to the plane. The foot point is found by Newton's
    method on the cycle's orbit, started from the nearest of 1,024 orbit
    points (a k-d tree). With N and t the unit normal and tangent there and
    c = orient * kappa, the derivatives are exact: grad F = phi' N and
    Hess F = phi' c/(1 + c d) t t^T + phi'' N N^T (Gilbarg & Trudinger 14.6).

    Raises WindowTooWide when the window reaches the cycle's cut locus
    (radius of curvature, or half the self-approach gap of the cycle),
    where the nearest point stops being unique.
    """
    curve = _OrbitCurve(X, cycle)
    focal = 1.0 / curve.max_curvature()
    if window_width >= focal or curve.ambiguous_at(min(window_width, 0.999 * focal)):
        raise WindowTooWide(
            f"window {window_width:g} reaches the cycle's cut locus "
            f"(focal distance {focal:.3g})"
        )
    orient = an._orientation(cycle.points)
    half = window_width / 2.0
    # bernstein.jets asks for each derivative at the same points in turn;
    # one foot-point solve serves them all
    last = [None, None]  # the last query points and their foot parameters

    def jet(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        shape = np.broadcast_shapes(x.shape, y.shape)
        q = np.stack([np.broadcast_to(x, shape).ravel(),
                      np.broadcast_to(y, shape).ravel()], axis=1)
        if not np.array_equal(last[0], q):
            last[:] = [q, curve.nearest_parameter(q)]
        gx, gy, dx, dy, d2x, d2y = curve.jet(last[1])
        speed = np.hypot(dx, dy)
        tx, ty = dx / speed, dy / speed
        nx, ny = orient * ty, -orient * tx
        rx, ry = q[:, 0] - gx, q[:, 1] - gy
        dist = np.hypot(rx, ry)
        sign = np.where(nx * rx + ny * ry < 0.0, -1.0, 1.0)
        c = orient * (dx * d2y - dy * d2x) / speed**3
        s, s1, s2 = _smoothstep5((dist - half) / half)
        w = 1.0 - s
        phi1 = w - dist * s1 / half
        phi2 = -sign * (2.0 * s1 / half + dist * s2 / half**2)
        bend = phi1 * c / (1.0 + c * sign * dist)
        out = {
            (0, 0): sign * dist * w,
            (1, 0): phi1 * nx,
            (0, 1): phi1 * ny,
            (2, 0): bend * tx * tx + phi2 * nx * nx,
            (1, 1): bend * tx * ty + phi2 * nx * ny,
            (0, 2): bend * ty * ty + phi2 * ny * ny,
        }
        return {k: float(v[0]) if shape == () else v.reshape(shape) for k, v in out.items()}

    # the approximation box only needs to contain the cycle comfortably;
    # oversizing it slows Bernstein convergence quadratically
    rad = np.hypot(cycle.points[:, 0], cycle.points[:, 1])
    box_half = 1.5 * rad.max()
    box = (-box_half, box_half, -box_half, box_half)
    derivs = {k: (lambda x, y, k=k: jet(x, y)[k]) for k in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))}
    return SampledField(value=lambda x, y: jet(x, y)[(0, 0)], box=box, r_max=2, derivs=derivs)


def gradient_square_integral(F, cycle: cy.LimitCycle, n: int = 512) -> float:
    """Time integral of |grad F|^2 along the cycle (trapezoid rule on its orbit)."""
    ts = np.linspace(0.0, cycle.period, n, endpoint=False)
    pts = cycle._orbit.eval(ts)
    jet = jets(F, 1, pts[:, 0], pts[:, 1])
    gx, gy = jet[(1, 0)], jet[(0, 1)]
    return float(np.mean(gx * gx + gy * gy) * cycle.period)


def surrogate_lambda(lam_ref: float, F_ref, F_hat, cycle: cy.LimitCycle) -> float:
    """Perturbation size giving the surrogate family the same leading-order
    cycle instability as the reference family.

    Scales by the ratio of gradient-square integrals along the cycle: the
    characteristic exponent a gradient-collapse family gives the continued
    cycle is lam times this integral, so matching it makes the two censuses
    comparable at first order.
    """
    num = gradient_square_integral(F_ref, cycle)
    den = gradient_square_integral(F_hat, cycle)
    return lam_ref * num / den


def ring_boxes(cycle: cy.LimitCycle, inner: float = 0.86, outer: float = 1.16,
               n_sectors: int = 16) -> list[tuple[float, float, float, float]]:
    """Boxes tiling an annular band around the cycle (degree-search focus).

    Enough sectors keep each bounding box close to its arc, so the boxes do
    not dip toward the window's transition zone where the surrogate is rough.
    """
    rad = np.hypot(cycle.points[:, 0], cycle.points[:, 1])
    r_lo, r_hi = inner * rad.min(), outer * rad.max()
    boxes = []
    for k in range(n_sectors):
        th = np.linspace(2 * np.pi * k / n_sectors, 2 * np.pi * (k + 1) / n_sectors, 33)
        xs = np.concatenate([r_lo * np.cos(th), r_hi * np.cos(th)])
        ys = np.concatenate([r_lo * np.sin(th), r_hi * np.sin(th)])
        boxes.append((xs.min(), xs.max(), ys.min(), ys.max()))
    return boxes


def _collapse_term_grids(Rvals: dict, lam: float):
    """C^1 jet of the gradient-collapse perturbation (lam*R*Rx, lam*R*Ry)
    from the jet of R on a grid (to second order)."""
    R, Rx, Ry = Rvals[(0, 0)], Rvals[(1, 0)], Rvals[(0, 1)]
    Rxx, Rxy, Ryy = Rvals[(2, 0)], Rvals[(1, 1)], Rvals[(0, 2)]
    return {
        (0, 0): (lam * R * Rx, lam * R * Ry),
        (1, 0): (lam * (Rx * Rx + R * Rxx), lam * (Rx * Ry + R * Rxy)),
        (0, 1): (lam * (Ry * Rx + R * Rxy), lam * (Ry * Ry + R * Ryy)),
    }


# ------------------------------------------------------------------ config
_PIPELINES = ("find", "split-theorem1", "rotate-theorem2", "bernstein-study",
              "annulus", "q2-search")


@dataclass
class ExperimentConfig:
    """Validated experiment description; see the README for the grammar."""

    pipeline: str
    system: object = "CK(3)"
    section_base: tuple[float, float] | None = None
    section_half_length: float = 0.55
    lam: float = 0.02
    eps: float = 0.1
    lambda0: float = 0.1
    r: int = 1
    eps_target: float = 0.4
    surrogate: bool = False
    window_width: float = 0.95
    strength_calibration: bool = True
    degree_cap: int = 256
    xi_range: tuple[float, float] = (-0.3, 0.3)
    n_seeds: int = 25
    annulus_xi: tuple[float, float] = (-0.35, 0.35)
    lambda_eps_values: tuple[float, ...] = (-0.01, 0.01)
    fit_degree: int = 2
    bern_function: str = "paraboloid"
    bern_box: tuple[float, float, float, float] = (-2.0, 2.0, -2.0, 2.0)
    bern_degrees: tuple[int, ...] = (10, 20, 40, 80, 160)
    q2_radius: float = 1e-3
    q2_samples: int = 24
    q2_degree: int = 3
    window: float = 0.025
    integrator_tol: float = flow.DEFAULT_TOL
    verify_samples: int = 256
    invariance_orbits: int = 32
    horizon_periods: float = 20.0
    also_perturbed: bool = True
    seed: int = 0

    def validate(self):
        if self.pipeline not in _PIPELINES:
            raise ValueError(f"pipeline must be one of {_PIPELINES}")
        if not (0.0 < self.lam <= 0.1):
            raise ValueError("lambda must lie in (0, 0.1]")
        if not (0.0 < self.eps <= 0.1):
            raise ValueError("eps must lie in (0, 0.1]")
        if self.r not in (1, 2, 3):
            raise ValueError("r must be one of {1, 2, 3}")
        for v in self.lambda_eps_values:
            if not (0.0 < abs(v) <= 0.1):
                raise ValueError("lambda_eps sweep values must have 0 < |v| <= 0.1")
        if not (self.xi_range[0] < self.xi_range[1]):
            raise ValueError("bad xi_range")
        return self

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        known = {f.name for f in ExperimentConfig.__dataclass_fields__.values()}
        aliases = {"lambda": "lam"}
        kwargs = {}
        for k, v in raw.items():
            key = aliases.get(k, k.replace("-", "_"))
            if key not in known:
                raise ValueError(f"unknown config key {k!r}")
            if isinstance(v, list):
                v = tuple(v)
            kwargs[key] = v
        return ExperimentConfig(**kwargs).validate()

    def echo(self) -> dict:
        out = {}
        for name in self.__dataclass_fields__:
            v = getattr(self, name)
            if isinstance(v, tuple):
                v = list(v)
            if isinstance(v, PolyVectorField):
                v = repr(v.P) + " ; " + repr(v.Q)
            out[name] = v
        return out


# ------------------------------------------------------------------ report
def _serialize(obj, indent=0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.extend(_serialize(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_scalar(v)}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}[{i}]:")
                lines.extend(_serialize(v, indent + 1))
            else:
                lines.append(f"{pad}[{i}]: {_scalar(v)}")
    else:
        lines.append(f"{pad}{_scalar(obj)}")
    return lines


def _scalar(v) -> str:
    if isinstance(v, (np.floating,)):
        v = float(v)
    if isinstance(v, (np.integer,)):
        v = int(v)
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "null"
    return str(v)


@dataclass
class Report:
    """Structured experiment outcome; payload is byte-stable under a fixed
    config and seed (wall clock excluded)."""

    pipeline: str
    config: dict
    payload: dict
    checks: dict
    wall_clock_s: float = 0.0
    version: str = ""

    @property
    def all_passed(self) -> bool:
        return all(bool(v) for v in self.checks.values())

    def payload_text(self) -> str:
        head = [
            "cyclelab-report v1",
            f"tool_version: {self.version or __version__}",
            f"pipeline: {self.pipeline}",
            "config:",
        ]
        body = _serialize(self.config, 1)
        body += ["payload:"] + _serialize(self.payload, 1)
        body += ["checks:"] + _serialize(self.checks, 1)
        body += [f"all_passed: {_scalar(self.all_passed)}"]
        return "\n".join(head + body) + "\n"

    def to_text(self) -> str:
        return self.payload_text() + f"wall_clock_s: {self.wall_clock_s!r}\n"

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_text())


def _cycle_entry(c: cy.LimitCycle, tol) -> dict:
    entry = {
        "xi_star": c.xi_star,
        "radius": c.mean_radius,
        "period": c.period,
        "exponent": c.exponent,
        "stability": c.stability,
        "tolerance": tol,
    }
    if c.multiplicity is not None:
        entry["multiplicity"] = c.multiplicity.d
        entry["multiplicity_window"] = c.multiplicity.h
    return entry


def _census_payload(census, tol):
    return {"count": len(census),
            "cycles": [_cycle_entry(c, tol) for c in census]}


def _section_for(cfg: ExperimentConfig, X) -> cy.Section:
    base = cfg.section_base or default_section_base(cfg.system)
    if base is None:
        raise ValueError("no section base configured and none known for this system")
    return cy.section_for_field(X, base, cfg.section_half_length)


# ------------------------------------------------------------------ pipelines
def run_pipeline(config: ExperimentConfig, out_dir=None) -> Report:
    """Dispatch an experiment; every module error surfaces in the report."""
    config.validate()
    t0 = time.perf_counter()
    X = parse_field(config.system)
    runner = {
        "find": _run_find,
        "split-theorem1": _run_split,
        "rotate-theorem2": _run_rotate,
        "bernstein-study": _run_bernstein,
        "annulus": _run_annulus,
        "q2-search": _run_q2,
    }[config.pipeline]
    payload, checks, artifacts = runner(config, X, out_dir)
    rep = Report(
        pipeline=config.pipeline, config=config.echo(), payload=payload,
        checks=checks, wall_clock_s=time.perf_counter() - t0,
        version=__version__,
    )
    if out_dir is not None:
        import os

        os.makedirs(out_dir, exist_ok=True)
        rep.save(os.path.join(out_dir, "report.txt"))
        for name, writer in artifacts.items():
            writer(os.path.join(out_dir, name))
    return rep


def _find_census(config, X, with_multiplicity=True):
    section = _section_for(config, X)
    census = cy.find_cycles(X, section, config.xi_range, config.n_seeds,
                            tol=config.integrator_tol)
    if with_multiplicity:
        for c in census:
            try:
                c.multiplicity = cy.multiplicity(X, c, tol=config.integrator_tol)
            except cy.Inconclusive:
                c.multiplicity = None
    return section, census


def _run_find(config, X, out_dir):
    section, census = _find_census(config, X)
    payload = {"census": _census_payload(census, config.integrator_tol)}
    checks = {
        "cycles_converged": all(abs(cy.displacement(X, section, c.xi_star,
                                                    tol=config.integrator_tol)) < 1e-10
                                for c in census),
        "polylines_closed": all(c.closure_error() < 1e-8 for c in census),
    }
    artifacts = {}
    if census:
        artifacts["displacement.csv"] = (
            lambda path, c0=census[0]: c0.displacement_samples_csv(path, X)
        )
    artifacts["portrait.svg"] = _portrait_writer(X, census, section, None)
    return payload, checks, artifacts


def _run_split(config, X, out_dir):
    section = _section_for(config, X)
    seed_cycle = _nearest_cycle(config, X, section)
    seed_cycle.multiplicity = cy.multiplicity(X, seed_cycle, tol=config.integrator_tol)

    payload: dict = {}
    checks: dict = {}
    F_ref = exact_vanishing_poly(config.system)
    lam_used = config.lam
    degree = None
    distance_log = []
    if not config.surrogate:
        if F_ref is None:
            raise ValueError("no exact vanishing polynomial known; use surrogate: true")
        R = F_ref
        payload["mode"] = "exact"
    else:
        F_hat = build_numeric_F(X, seed_cycle, config.window_width)
        if config.strength_calibration and F_ref is not None:
            lam_used = surrogate_lambda(config.lam, F_ref, F_hat, seed_cycle)
            payload["lambda_calibration_ratio"] = lam_used / config.lam
        # R is the lowest-degree Bernstein fit whose order-(r+1) errors on
        # the ring around the cycle are below eps_target
        boxes = ring_boxes(seed_cycle)
        trace: list = []
        degree = min_degree_for_tolerance(
            F_hat, F_hat.box, config.r + 1, config.eps_target, cap=config.degree_cap,
            grid_density=51, error_boxes=boxes, trace=trace,
        )
        fits = {m: fit for m, _, fit in trace}
        R = fits[degree[0]]
        payload["mode"] = "surrogate"
        # distance diagnostics along the probed degrees, ascending, reusing
        # the search's fits; measured on the ring where the dynamics lives
        # (elsewhere the window junk dominates every fit equally). F jets are
        # sampled once per box.
        log_grids = [(GX, GY, _collapse_term_grids(jets(F_hat, 2, GX, GY), lam_used))
                     for GX, GY in (mesh(sub, 31) for sub in boxes[::4])]
        for m in sorted(fits):
            d_limit = d_base = 0.0
            for GX, GY, limit_side in log_grids:
                poly_side = _collapse_term_grids(jets(fits[m], 2, GX, GY), lam_used)
                for k, (pa, qa) in poly_side.items():
                    pb, qb = limit_side[k]
                    d_limit = max(d_limit, float(np.max(np.hypot(pa - pb, qa - qb))))
                    d_base = max(d_base, float(np.max(np.hypot(pa, qa))))
            distance_log.append({"degree": m, "to_limit_family": d_limit,
                                 "to_unperturbed": d_base})
        payload["whitney_log"] = distance_log

    report = cy.theorem1_splitting(X, seed_cycle, R, lam_used, config.xi_range,
                                   config.n_seeds, config.integrator_tol)
    payload["lambda_used"] = lam_used
    payload["degree"] = list(degree) if degree else None
    payload["census"] = _census_payload(report.census, config.integrator_tol)
    payload["middle_exponent"] = report.middle_exponent
    payload["time_reversed"] = report.time_reversed
    payload["messages"] = report.messages

    if report.middle_index is not None and not config.surrogate:
        mid = report.census[report.middle_index]
        ib, ig, il = cy.divergence_integral_terms(X, R, lam_used, mid)
        payload["divergence_terms"] = {
            "base": ib, "gradient_square": ig, "laplacian": il,
            "sum": ib + ig + il,
        }

    ann_rep = None
    annulus_obj = None
    try:
        annulus_obj = an.build_trapping_annulus(
            X, seed_cycle, config.lambda0, config.annulus_xi[0],
            config.annulus_xi[1], tol=config.integrator_tol,
        )
        ann_rep = an.verify_annulus(
            report.perturbed, annulus_obj, config.verify_samples,
            invariance_orbits=8, horizon_periods=5.0,
        )
        payload["annulus"] = {
            "xi_z1": annulus_obj.xi_z1, "xi_z2": annulus_obj.xi_z2,
            "perturbed_inward_ok": ann_rep.inward_ok,
            "min_flux_margin": ann_rep.min_flux_margin,
        }
    except (an.ReturnFailed, an.NotStable) as exc:
        payload["annulus"] = {"error": f"{type(exc).__name__}: {exc}"}

    checks["split_succeeded"] = report.success
    checks["at_least_three_cycles"] = len(report.census) >= 3
    checks["alternating_stability"] = report.alternating
    checks["middle_exponent_positive"] = report.positivity_ok
    if ann_rep is not None:
        checks["annulus_inward_perturbed"] = ann_rep.inward_ok
    if distance_log:
        # strict from the first fit that is nonzero on the ring: a fit that
        # vanishes there is exactly as far from the limit family as the limit
        # term is large, and the next fit can tie with it in exact arithmetic
        first = next((i for i, e in enumerate(distance_log) if e["to_unperturbed"] > 0),
                     len(distance_log))
        seqs = [e["to_limit_family"] for e in distance_log[first:]]
        checks["whitney_to_limit_monotone"] = all(
            b < a for a, b in zip(seqs, seqs[1:])
        )

    artifacts = {
        "portrait.svg": _portrait_writer(
            report.perturbed, report.census, section, annulus_obj
        ),
        "census.csv": _census_csv_writer(report.census),
    }
    return payload, checks, artifacts


def _run_rotate(config, X, out_dir):
    section = _section_for(config, X)
    sweeps = []
    checks = {}
    for mu in config.lambda_eps_values:
        Y = rotate_family(X, mu / config.eps, config.eps)
        census = cy.find_cycles(Y, section, config.xi_range, config.n_seeds,
                                tol=config.integrator_tol)
        entry = {"lambda_eps": mu, "census": _census_payload(census, config.integrator_tol)}
        window = config.window
        for _ in range(5):
            samples = displacement_samples(Y, section, config.fit_degree,
                                           window, tol=config.integrator_tol,
                                           skip_failures=True)
            if len(samples) < 4 * config.fit_degree + 1:
                window *= 0.5  # too many escapes: the removed-cycle side blows up
                continue
            try:
                fit = fit_displacement_poly(samples, config.fit_degree)
            except LeadingCoefficientVanishes:
                window *= 0.5  # escape-side tail polluted the fit
                continue
            delta = _poly_discriminant(fit)
            entry["weierstrass_fit"] = list(fit.coeffs)
            entry["phi"] = delta
            entry["phi_window"] = window
            entry["real_root_census"] = real_root_census(fit)
            if delta != 0.0:
                admissible = root_count_congruence(config.fit_degree,
                                                   1 if delta > 0 else -1)
                entry["admissible_root_counts"] = list(admissible)
                checks[f"congruence_lambda_eps_{mu}"] = (
                    entry["real_root_census"] in admissible
                )
            break
        else:
            entry["phi_error"] = "displacement sampling escaped at every window"
        sweeps.append(entry)
    payload = {"sweeps": sweeps}
    artifacts = {"census.csv": _sweep_csv_writer(sweeps)}
    return payload, checks, artifacts


def _run_bernstein(config, X, out_dir):
    f = canonical_function(config.bern_function, config.bern_box)
    rows = []
    table = []
    for m in config.bern_degrees:
        b = bernstein_fit(f, m, m, config.bern_box)
        errs = cr_error(f, b, config.bern_box, r=2)
        rows.append((m, m, errs))
        table.append({"m": m, "n": m,
                      "errors": {f"{i}{j}": v for (i, j), v in sorted(errs.items())}})
    first, last = rows[0][2], rows[-1][2]
    # an order whose exact error is zero keeps only rounding: eps times the
    # size of f, which a |k|-th derivative of a degree-m fit amplifies by
    # about (2m)^|k|; such orders cannot shrink and are exempt from the
    # strict test
    size = float(np.max(np.abs(f.value(*mesh(config.bern_box, DEFAULT_GRID_DENSITY)))))
    m_max = max(m for m, _, _ in rows)
    floor = {k: np.finfo(float).eps * (2 * m_max) ** sum(k) * size for k in first}
    at_floor = sorted(k for k in first if max(first[k], last[k]) <= floor[k])
    payload = {"function": config.bern_function, "box": list(config.bern_box),
               "table": table,
               "rounding_floor_orders": {f"{i}{j}": floor[i, j] for i, j in at_floor}}
    checks = {
        "all_orders_shrink": all(last[k] < first[k] for k in first if k not in at_floor),
    }
    artifacts = {"errors.csv": lambda path, rows=rows: error_table_csv(rows, path)}
    return payload, checks, artifacts


def _run_annulus(config, X, out_dir):
    section, census = _find_census(config, X, with_multiplicity=False)
    if not census:
        raise ValueError("no cycle found to wrap an annulus around")
    cycle = census[0]
    ann = an.build_trapping_annulus(X, cycle, config.lambda0,
                                    config.annulus_xi[0], config.annulus_xi[1],
                                    tol=config.integrator_tol)
    rep = an.verify_annulus(X, ann, config.verify_samples,
                            config.invariance_orbits, config.horizon_periods,
                            tol=config.integrator_tol)
    payload = {
        "xi1": ann.xi1, "xi2": ann.xi2, "xi_z1": ann.xi_z1, "xi_z2": ann.xi_z2,
        "lambda0_s1": ann.lambda0_s1, "lambda0_s2": ann.lambda0_s2,
        "verification": {
            "inward_ok": rep.inward_ok,
            "min_flux_margin": rep.min_flux_margin,
            "singularity_free": rep.singularity_free,
            "min_field_magnitude": rep.min_field_magnitude,
            "invariance_ok": rep.invariance_ok,
            "orbits_contained": rep.orbits_contained,
            "orbits_total": rep.orbits_total,
        },
    }
    checks = {
        "inward": rep.inward_ok,
        "singularity_free": rep.singularity_free,
        "invariant": rep.invariance_ok,
    }
    if config.also_perturbed:
        F = exact_vanishing_poly(config.system)
        if F is not None:
            Y = gradient_collapse_family(X, F, config.lam)
            rep2 = an.verify_annulus(Y, ann, config.verify_samples,
                                     config.invariance_orbits,
                                     config.horizon_periods,
                                     tol=config.integrator_tol)
            payload["perturbed_verification"] = {
                "inward_ok": rep2.inward_ok,
                "min_flux_margin": rep2.min_flux_margin,
                "invariance_ok": rep2.invariance_ok,
                "orbits_contained": rep2.orbits_contained,
            }
            checks["perturbed_inward"] = rep2.inward_ok
            checks["perturbed_invariant"] = rep2.invariance_ok
    artifacts = {
        "annulus.csv": lambda path, a=ann: a.to_csv(path),
        "portrait.svg": _portrait_writer(X, census, section, ann),
    }
    return payload, checks, artifacts


def _run_q2(config, X, out_dir):
    section = _section_for(config, X)
    rep = q2_search(X, section, config.q2_degree, config.q2_radius,
                       config.q2_samples, config.seed, window=config.window,
                       tol=config.integrator_tol)
    payload = {
        "radius": rep.radius,
        "n_samples": rep.n_samples,
        "seed": rep.seed,
        "best_index": rep.best_index,
        "best_phi": rep.best_phi,
        "histogram": {str(k): v for k, v in sorted(rep.histogram.items())},
        "negative_phi_found": bool(rep.best_phi is not None and rep.best_phi < 0),
        "failures": sum(1 for s in rep.samples if s.error),
    }
    checks = {"completed": True}
    artifacts = {"q2_census.csv": lambda path, r=rep: r.to_csv(path)}
    return payload, checks, artifacts


# ------------------------------------------------------------------ helpers
def _nearest_cycle(config, X, section) -> cy.LimitCycle:
    """The census cycle nearest xi = 0 (registry systems sit at xi = 0)."""
    census = cy.find_cycles(X, section, config.xi_range, config.n_seeds,
                            tol=config.integrator_tol)
    if not census:
        raise ValueError("no cycle found in the configured xi range")
    return min(census, key=lambda c: abs(c.xi_star))


def _census_csv_writer(census):
    def write(path):
        lines = ["xi_star,radius,period,exponent,stability"]
        for c in census:
            lines.append(
                f"{c.xi_star!r},{c.mean_radius!r},{c.period!r},{c.exponent!r},{c.stability}"
            )
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    return write


def _sweep_csv_writer(sweeps):
    def write(path):
        lines = ["lambda_eps,count,xi_star,radius,exponent"]
        for entry in sweeps:
            mu = entry["lambda_eps"]
            cycles = entry["census"]["cycles"]
            if not cycles:
                lines.append(f"{mu!r},0,,,")
            for c in cycles:
                lines.append(
                    f"{mu!r},{entry['census']['count']},{c['xi_star']!r},"
                    f"{c['radius']!r},{c['exponent']!r}"
                )
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    return write


def _portrait_writer(X, census, section, annulus_obj):
    def write(path):
        from .portrait import render_phase_portrait

        svg = render_phase_portrait(
            field=X,
            cycles=[c.points for c in census],
            section=section,
            annulus=annulus_obj,
        )
        with open(path, "w") as fh:
            fh.write(svg)

    return write
