import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from cyclelab import cycles as cy
from cyclelab import lab
from cyclelab.field import ck_system
from cyclelab.portrait import render_phase_portrait
from cyclelab.registry import exact_vanishing_poly


@pytest.fixture(scope="module")
def ck3_numeric_F(ck, ck_cycles):
    return lab.build_numeric_F(ck[3], ck_cycles[3], 0.95)


def test_numeric_f_values(ck3_numeric_F):
    F = ck3_numeric_F
    # zero on the cycle, negative inside, positive outside (matching xi)
    assert F.value(1.0, 0.0) == pytest.approx(0.0, abs=1e-9)
    assert F.value(0.9, 0.0) == pytest.approx(-0.1, abs=1e-6)
    assert F.value(1.05, 0.0) == pytest.approx(0.05, abs=1e-6)
    assert F.value(0.0, 1.2) == pytest.approx(0.2, abs=1e-6)


def test_numeric_f_unit_gradient(ck_cycles, ck3_numeric_F):
    F = ck3_numeric_F
    pts = ck_cycles[3].points[::64]
    g = np.hypot(F.derivative(1, 0, pts[:, 0], pts[:, 1]),
                 F.derivative(0, 1, pts[:, 0], pts[:, 1]))
    assert g.min() > 0.99 and g.max() < 1.01


def test_numeric_f_window_vanishes_far(ck3_numeric_F):
    assert ck3_numeric_F.value(0.0, 0.0) == 0.0
    assert ck3_numeric_F.value(1.49, 1.49) == 0.0


def test_numeric_f_window_too_wide(ck, ck_cycles):
    with pytest.raises(lab.WindowTooWide):
        lab.build_numeric_F(ck[3], ck_cycles[3], 1.2)


def test_numeric_f_derivative_consistency(ck3_numeric_F):
    assert ck3_numeric_F.check_consistency(n_points=10) < 1e-4


def test_numeric_f_jets_match_closed_form(ck3_numeric_F):
    # CK(3)'s cycle is the unit circle; its windowed signed distance has a
    # closed-form 2-jet (oracles.windowed_circle_distance). Compared inside
    # the window on a 101^2 mesh of the approximation box
    F = ck3_numeric_F
    X, Y = lab.mesh(F.box, 101)
    inside = np.abs(np.hypot(X, Y) - 1.0) < 0.95
    got = lab.jets(F, 2, X[inside], Y[inside])
    want = oracles.windowed_circle_distance(X[inside], Y[inside], 0.95)
    assert np.count_nonzero(want[(2, 0)]) > 1000
    for k, tol in (((0, 0), 1e-9), ((1, 0), 1e-8), ((0, 1), 1e-8),
                   ((2, 0), 1e-7), ((1, 1), 1e-7), ((0, 2), 1e-7)):
        assert np.max(np.abs(got[k] - want[k])) < tol, k


def _argmin_nearest_parameter(curve, q):
    """Foot-point search started from a brute-force arg-min over the orbit
    curve's dense points, the reference for the k-d tree start."""
    ox = q[:, 0, None] - curve.dense_pts[None, :, 0]
    oy = q[:, 1, None] - curve.dense_pts[None, :, 1]
    t = curve.dense_t[np.argmin(ox * ox + oy * oy, axis=1)]
    for _ in range(6):
        gx, gy, dx, dy, d2x, d2y = curve.jet(t)
        rx, ry = q[:, 0] - gx, q[:, 1] - gy
        g = rx * dx + ry * dy
        gp = -(dx * dx + dy * dy) + rx * d2x + ry * d2y
        with np.errstate(invalid="ignore", divide="ignore"):
            t = np.mod(t - np.where(np.abs(gp) > 1e-14, g / gp, 0.0), curve.T)
    return t


def test_numeric_f_tree_start_matches_argmin(ck, ck_cycles, ck3_numeric_F, monkeypatch):
    # 70^2 = 4,900 points over the approximation box, which holds the whole
    # window band around the cycle; one foot-point solve serves the 2-jet.
    # The reference is a surrogate built afresh with the arg-min start, so
    # it shares no foot points with the fixture
    F = ck3_numeric_F
    X, Y = lab.mesh(F.box, 70)
    got = lab.jets(F, 2, X, Y)
    monkeypatch.setattr(lab._OrbitCurve, "nearest_parameter", _argmin_nearest_parameter)
    want = lab.jets(lab.build_numeric_F(ck[3], ck_cycles[3], 0.95), 2, X, Y)
    assert np.count_nonzero(want[(0, 0)]) > 1000
    for k in want:
        assert np.array_equal(got[k], want[k]), k


def test_surrogate_lambda_calibration(ck_cycles, ck3_numeric_F):
    F_ref = exact_vanishing_poly("CK(3)")
    lam = lab.surrogate_lambda(0.02, F_ref, ck3_numeric_F, ck_cycles[3])
    # |grad s| = 2 on the cycle vs unit-gradient distance: ratio 4
    assert lam == pytest.approx(0.08, rel=1e-3)


def test_config_validation():
    with pytest.raises(ValueError):
        lab.ExperimentConfig.from_dict({"pipeline": "warp"})
    with pytest.raises(ValueError):
        lab.ExperimentConfig.from_dict({"pipeline": "find", "lambda": 0.2})
    with pytest.raises(ValueError):
        lab.ExperimentConfig.from_dict({"pipeline": "find", "eps": 0.0})
    with pytest.raises(ValueError):
        lab.ExperimentConfig.from_dict({"pipeline": "find", "r": 4})
    with pytest.raises(ValueError):
        lab.ExperimentConfig.from_dict({"pipeline": "find", "nonsense": 1})
    with pytest.raises(ValueError):
        lab.ExperimentConfig.from_dict({"pipeline": "rotate-theorem2",
                                        "lambda_eps_values": [0.0, 0.01]})
    cfg = lab.ExperimentConfig.from_dict({"pipeline": "find", "lambda": 0.05})
    assert cfg.lam == 0.05


def test_find_pipeline_and_idempotence(tmp_path):
    cfg = lab.ExperimentConfig.from_dict({
        "pipeline": "find", "system": "CK(1)", "xi_range": [-0.5, 0.5],
        "n_seeds": 15,
    })
    rep = lab.run_pipeline(cfg, out_dir=tmp_path)
    assert rep.all_passed
    census = rep.payload["census"]
    assert census["count"] == 1
    assert census["cycles"][0]["multiplicity"] == 1
    # idempotence: re-running find at the same tolerance reproduces xi*
    xi = census["cycles"][0]["xi_star"]
    again = cy.find_cycles(ck_system(1), cy.section_for_field(ck_system(1), (1.0, 0.0)),
                           (xi - 0.05, xi + 0.05), 5, tol=cfg.integrator_tol)
    assert again[0].xi_star == pytest.approx(xi, abs=1e-10)
    assert (tmp_path / "report.txt").exists()
    assert (tmp_path / "portrait.svg").exists()


def test_report_payload_deterministic():
    cfg = lab.ExperimentConfig.from_dict({
        "pipeline": "q2-search", "system": "CK(3)", "q2_samples": 3, "seed": 11,
    })
    a = lab.run_pipeline(cfg)
    b = lab.run_pipeline(cfg)
    assert a.payload_text() == b.payload_text()
    assert a.to_text() != a.payload_text()  # wall clock present in full text


def test_rotate_pipeline_even_degree_census(ck):
    cfg = lab.ExperimentConfig.from_dict({
        "pipeline": "rotate-theorem2", "system": "CK(2)",
        "lambda_eps_values": [-0.01, 0.01],
    })
    rep = lab.run_pipeline(cfg)
    by_mu = {sw["lambda_eps"]: sw for sw in rep.payload["sweeps"]}
    assert by_mu[-0.01]["census"]["count"] == 0
    assert by_mu[0.01]["census"]["count"] == 2
    radii = [c["radius"] for c in by_mu[0.01]["census"]["cycles"]]
    assert radii[0] == pytest.approx(np.sqrt(0.9), abs=1e-5)
    assert radii[1] == pytest.approx(np.sqrt(1.1), abs=1e-5)
    assert by_mu[0.01]["phi"] > 0 and by_mu[0.01]["real_root_census"] == 2
    assert by_mu[-0.01]["phi"] < 0 and by_mu[-0.01]["real_root_census"] == 0
    assert rep.all_passed


def test_bernstein_pipeline(tmp_path):
    cfg = lab.ExperimentConfig.from_dict({
        "pipeline": "bernstein-study", "bern_function": "gauss",
        "bern_degrees": [10, 40],
    })
    rep = lab.run_pipeline(cfg, out_dir=tmp_path)
    assert rep.checks["all_orders_shrink"]
    assert (tmp_path / "errors.csv").read_text().startswith("m,n,k_i,k_j")


def test_bernstein_default_config_passes():
    # paraboloid: the (1,1) error is zero in exact arithmetic, so only
    # rounding is left there, and rounding grows with the degree
    rep = lab.run_pipeline(lab.ExperimentConfig.from_dict({"pipeline": "bernstein-study"}))
    assert rep.checks["all_orders_shrink"]
    floors = rep.payload["rounding_floor_orders"]
    assert list(floors) == ["11"]
    # eps * (2 * 160)^2 * max|f|, with max|f| = 7 on the default box
    assert floors["11"] == pytest.approx(np.finfo(float).eps * 320 ** 2 * 7.0, rel=1e-12)
    # the (1,1) errors sit at least 100 times below their floor
    assert max(row["errors"]["11"] for row in rep.payload["table"]) * 100 < floors["11"]
    assert rep.all_passed


def test_bernstein_rounding_floor_exempts_only_floor_orders():
    rep = lab.run_pipeline(lab.ExperimentConfig.from_dict({
        "pipeline": "bernstein-study", "bern_degrees": [40, 10],
    }))
    assert list(rep.payload["rounding_floor_orders"]) == ["11"]
    assert not rep.checks["all_orders_shrink"]  # every other order grows


def test_annulus_pipeline(tmp_path):
    cfg = lab.ExperimentConfig.from_dict({
        "pipeline": "annulus", "system": "CK(3)", "lambda0": 0.1,
        "annulus_xi": [-0.35, 0.35], "invariance_orbits": 6,
        "horizon_periods": 4,
    })
    rep = lab.run_pipeline(cfg, out_dir=tmp_path)
    assert rep.all_passed
    assert rep.payload["verification"]["min_flux_margin"] > 0
    assert rep.payload["perturbed_verification"]["inward_ok"]
    svg = (tmp_path / "portrait.svg").read_text()
    assert svg.count('class="annulus"') == 2
    assert svg.count('class="corner"') == 4


def test_split_pipeline_exact(tmp_path):
    cfg = lab.ExperimentConfig.from_dict({
        "pipeline": "split-theorem1", "system": "CK(3)", "lambda": 0.02,
    })
    rep = lab.run_pipeline(cfg, out_dir=tmp_path)
    assert rep.all_passed
    assert rep.payload["census"]["count"] == 3
    svg = (tmp_path / "portrait.svg").read_text()
    assert svg.count('class="cycle"') == 3
    lines = (tmp_path / "census.csv").read_text().strip().splitlines()
    assert lines[0] == "xi_star,radius,period,exponent,stability"
    assert len(lines) == 4


def test_portrait_empty_census(section):
    svg = render_phase_portrait(field=ck_system(1), cycles=[], section=section)
    assert svg.count('class="cycle"') == 0
    assert svg.count('class="section"') == 1
    assert svg.count('class="orbit"') >= 1


def test_portrait_deterministic(ck, ck_cycles, section):
    a = render_phase_portrait(field=ck[1], cycles=[ck_cycles[1].points], section=section)
    b = render_phase_portrait(field=ck[1], cycles=[ck_cycles[1].points], section=section)
    assert a == b


SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run_cli(args, cwd):
    # the child runs in cwd, so a relative PYTHONPATH would not find the package
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "cyclelab.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


def test_cli_find_and_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": "CK(1)", "xi_range": [-0.4, 0.4],
                               "n_seeds": 11}))
    r1 = _run_cli(["find", "--config", str(cfg), "--out", str(tmp_path / "a"),
                   "--seed", "5"], tmp_path)
    assert r1.returncode == 0, r1.stderr
    r2 = _run_cli(["find", "--config", str(cfg), "--out", str(tmp_path / "b"),
                   "--seed", "5"], tmp_path)
    assert r2.returncode == 0
    pa = [ln for ln in (tmp_path / "a" / "report.txt").read_text().splitlines()
          if not ln.startswith("wall_clock_s")]
    pb = [ln for ln in (tmp_path / "b" / "report.txt").read_text().splitlines()
          if not ln.startswith("wall_clock_s")]
    assert pa == pb


def test_cli_hard_error_exit_code(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"lambda": 0.9}))
    r = _run_cli(["split", "--config", str(cfg)], tmp_path)
    assert r.returncode == 1
    assert "error" in r.stderr


def test_cli_q2(tmp_path):
    cfg = tmp_path / "q2.json"
    cfg.write_text(json.dumps({"system": "CK(3)", "q2_samples": 2}))
    r = _run_cli(["q2", "--config", str(cfg), "--out", str(tmp_path / "o"),
                  "--seed", "9"], tmp_path)
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "o" / "q2_census.csv").exists()


_NO_SCIPY = """
import math, sys
import cyclelab, cyclelab.cli
from cyclelab import cycles, lab
from cyclelab.field import PolyVectorField, ck_system, gradient_collapse_family, perp
from cyclelab.poly2 import parse_poly, scale
X = gradient_collapse_family(ck_system(3), parse_poly("1 - x^2 - y^2"), 0.02)
section = cycles.section_for_field(ck_system(1), (1.0, 0.0))
assert len(cycles.find_cycles(X, section, (-0.3, 0.3), 25)) == 3
ck2 = ck_system(2)
pp = perp(ck2)
eps_perp = PolyVectorField(scale(pp.P, 0.1), scale(pp.Q, 0.1))
perko = cycles.perko_derivative(ck2, eps_perp, cycles.build_cycle(ck2, section, 0.0))
assert abs(perko - 2 * math.pi * 0.1) < 1e-8
cfg = lab.ExperimentConfig.from_dict({"pipeline": "split-theorem1", "system": "CK(3)"})
assert lab.run_pipeline(cfg).all_passed
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_census_and_split_pipeline_load_no_scipy(tmp_path):
    # SciPy costs most of an interpreter's start-up; only the surrogate's k-d
    # tree of foot-point starts (cKDTree) may import it, inside the call
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    r = subprocess.run([sys.executable, "-c", _NO_SCIPY], capture_output=True,
                       text=True, cwd=tmp_path, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
