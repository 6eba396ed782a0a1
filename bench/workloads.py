"""Workload configs and the closed-form oracles their reports are checked against.

Every oracle here is computed from the polar reduction of CK(3) and its
gradient-collapse family, never from cyclelab output:

* CK(3) perturbed by lam * R * grad R with R = 1 - x^2 - y^2 has the radial
  law r' = r s (s^2 - 2 lam), s = 1 - r^2, so its cycles sit at
  s in {-sqrt(2 lam), 0, +sqrt(2 lam)}, i.e. radii sqrt(1 - sqrt(2 lam)), 1
  and sqrt(1 + sqrt(2 lam)).
* On the unit circle |grad R|^2 = 4 and the period is 2 pi, so the middle
  cycle's characteristic exponent is lam * 4 * 2 pi = 8 pi lam.
* A monic real polynomial of degree d with nonzero discriminant Delta and n
  distinct real roots obeys sign(Delta) = (-1)^((d - n) / 2).
"""
from __future__ import annotations

import csv
import math
import os

# Why each workload exists, and its traced layer shares, are in bench/README.md.
WORKLOADS = {
    "split-exact": {
        "pipeline": "split-theorem1", "system": "CK(3)",
    },
    "q2-search": {
        "pipeline": "q2-search", "system": "CK(3)", "q2_samples": 24,
        "q2_radius": 1e-3, "q2_degree": 3,
    },
    "surrogate-split": {
        "pipeline": "split-theorem1", "system": "CK(3)", "lambda": 0.02,
        "surrogate": True, "eps_target": 0.63, "window_width": 0.95,
        "degree_cap": 256, "r": 1, "xi_range": [-0.2, 0.2], "n_seeds": 11,
    },
}

# (radius tolerance, middle-exponent relative tolerance or None)
_SPLIT_TOLERANCES = {
    "split-exact": (1e-5, 0.01),      # acceptance criterion 2
    "surrogate-split": (1e-2, None),  # acceptance criterion 4
}


def config_for(workload: str, seed: int) -> dict:
    """The raw config handed to ExperimentConfig.from_dict.

    The seed reaches the program only as the config's ``seed``: it draws the
    q2 perturbations, and the split pipelines are deterministic without it.
    """
    return {**WORKLOADS[workload], "seed": seed}


def needs_out_dir(workload: str) -> bool:
    """q2 writes its per-sample discriminants only to the q2_census.csv side file."""
    return workload == "q2-search"


def split_radii(lam: float) -> list[float]:
    s = math.sqrt(2.0 * lam)
    return [math.sqrt(1.0 - s), 1.0, math.sqrt(1.0 + s)]


def middle_exponent(lam: float) -> float:
    return 8.0 * math.pi * lam


def real_roots_allowed(degree: int, n_real: int, delta: float) -> bool:
    """Sign law of the discriminant against a count of distinct real roots.

    A zero discriminant (a repeated root) constrains only the range of n.
    """
    if not 0 <= n_real <= degree:
        return False
    if delta == 0.0:
        return True
    if (degree - n_real) % 2:
        return False
    return (1.0 if ((degree - n_real) // 2) % 2 == 0 else -1.0) == math.copysign(1.0, delta)


def check(workload: str, report, out_dir) -> tuple[list[str], float | None]:
    """Oracle checks on one report; returns (failures, largest radius error)."""
    failures = [f"report check {k} is false" for k, v in report.checks.items() if not v]
    if workload == "q2-search":
        return failures + _check_q2(report, out_dir), None
    radius_tol, exponent_rtol = _SPLIT_TOLERANCES[workload]
    lam = float(report.config["lam"])  # the input, echoed; the oracle is closed-form in it
    cycles = report.payload["census"]["cycles"]
    want = split_radii(lam)
    if len(cycles) != len(want):
        return failures + [f"census has {len(cycles)} cycles, oracle has {len(want)}"], None
    got = sorted(float(c["radius"]) for c in cycles)
    radius_err = max(abs(g - w) for g, w in zip(got, want))
    if not radius_err <= radius_tol:
        failures.append(f"radius error {radius_err:.3g} > {radius_tol:g}")
    if exponent_rtol is not None:
        mid, target = report.payload["middle_exponent"], middle_exponent(lam)
        if mid is None or not abs(float(mid) - target) <= exponent_rtol * target:
            failures.append(f"middle exponent {mid} not within {exponent_rtol:.0%} of {target}")
    return failures, radius_err


def _check_q2(report, out_dir) -> list[str]:
    failures = []
    payload, degree = report.payload, int(report.config["q2_degree"])
    counted = sum(payload["histogram"].values()) + payload["failures"]
    if counted != payload["n_samples"]:
        failures.append(f"histogram + failures = {counted} != n_samples {payload['n_samples']}")
    with open(os.path.join(out_dir, "q2_census.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != payload["n_samples"]:
        failures.append(f"q2_census.csv has {len(rows)} rows for {payload['n_samples']} samples")
    for row in rows:
        if not row["phi"]:
            continue  # a failed sample, counted in payload["failures"]
        delta, n_real = float(row["phi"]), int(row["n_real_roots"])
        if not real_roots_allowed(degree, n_real, delta):
            failures.append(f"sample {row['seed_index']}: {n_real} real roots "
                            f"against discriminant {delta!r}")
    return failures
