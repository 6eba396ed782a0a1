import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from cyclelab import cycles as cy
from cyclelab import annulus, flow, lab
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
    assert oracles.check_consistency(ck3_numeric_F, n_points=10) < 1e-4


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
    # only the product lambda_eps enters the rotated field: eps is no key
    with pytest.raises(ValueError, match="unknown config key 'eps'"):
        lab.ExperimentConfig.from_dict({"pipeline": "rotate-theorem2", "eps": 0.1})
    with pytest.raises(ValueError):
        lab.ExperimentConfig.from_dict({"pipeline": "find", "r": 4})
    with pytest.raises(ValueError):
        lab.ExperimentConfig.from_dict({"pipeline": "find", "nonsense": 1})
    with pytest.raises(ValueError):
        lab.ExperimentConfig.from_dict({"pipeline": "rotate-theorem2",
                                        "lambda_eps_values": [0.0, 0.01]})
    # a census needs a bracket; with fewer seeds find would pass on an empty census
    for n in (-1, 0, 1):
        with pytest.raises(ValueError, match="n_seeds must be >= 2"):
            lab.ExperimentConfig.from_dict({"pipeline": "find", "n_seeds": n})
    cfg = lab.ExperimentConfig.from_dict({"pipeline": "find", "lambda": 0.05})
    assert cfg.lam == 0.05


@pytest.mark.parametrize("key", ["q2_degree", "fit_degree"])
def test_config_rejects_degrees_below_two(key):
    for degree in (-1, 0, 1):
        with pytest.raises(ValueError, match=key):
            lab.ExperimentConfig.from_dict({"pipeline": "q2-search", key: degree})
    assert getattr(lab.ExperimentConfig.from_dict({"pipeline": "q2-search", key: 2}), key) == 2


_BAD_SAMPLING = [
    ({"window": 0}, "window"), ({"window": -0.025}, "window"),
    ({"window": float("nan")}, "window"), ({"window": float("inf")}, "window"),
    ({"q2_radius": -0.001}, "q2_radius"), ({"q2_radius": float("nan")}, "q2_radius"),
    ({"q2_radius": float("inf")}, "q2_radius"), ({"q2_samples": -1}, "q2_samples"),
    ({"section_half_length": 0}, "section_half_length"),
    ({"section_half_length": -0.55}, "section_half_length"),
    ({"section_half_length": float("nan")}, "section_half_length"),
    ({"section_half_length": float("inf")}, "section_half_length"),
    ({"xi_range": [-float("inf"), 0.3]}, "xi_range"),
    ({"xi_range": [-0.3, float("nan")]}, "xi_range"),
    ({"xi_range": [0.3, -0.3]}, "xi_range"),
    ({"verify_samples": 0}, "verify_samples"), ({"invariance_orbits": -1}, "invariance_orbits"),
    ({"horizon_periods": 0}, "horizon_periods"),
    ({"horizon_periods": float("nan")}, "horizon_periods"),
    ({"horizon_periods": float("inf")}, "horizon_periods"),
    ({"annulus_xi": [-float("inf"), 0.35]}, "annulus_xi"),
    ({"annulus_xi": [0.1, 0.35]}, "annulus_xi"), ({"annulus_xi": [-0.35, 0.0]}, "annulus_xi"),
    ({"annulus_xi": [-0.35, float("nan")]}, "annulus_xi"),
    ({"window_width": -0.5}, "window_width"), ({"window_width": 0}, "window_width"),
    ({"window_width": float("nan")}, "window_width"),
    ({"window_width": float("inf")}, "window_width"),
    ({"eps_target": 0}, "eps_target"), ({"eps_target": -0.4}, "eps_target"),
    ({"eps_target": float("nan")}, "eps_target"), ({"eps_target": float("inf")}, "eps_target"),
    ({"degree_cap": 0}, "degree_cap"), ({"degree_cap": -256}, "degree_cap"),
    ({"section_base": [float("nan"), 0.0]}, "section_base"),
    ({"section_base": [float("inf"), 0.0]}, "section_base"),
    ({"section_base": [1.0, -float("inf")]}, "section_base"),
    ({"section_base": [1.0]}, "section_base"),
    ({"section_base": [1.0, 0.0, 2.0]}, "section_base"),
    ({"lambda_eps_values": []}, "lambda_eps_values"),
    ({"bern_degrees": []}, "bern_degrees"), ({"bern_degrees": [10, 0]}, "bern_degrees"),
    ({"bern_degrees": [-1]}, "bern_degrees"),
    ({"lambda0": float("nan")}, "lambda0"), ({"lambda0": float("inf")}, "lambda0"),
    ({"lambda0": -float("inf")}, "lambda0"),
    ({"integrator_tol": 0}, "integrator_tol"), ({"integrator_tol": -1e-10}, "integrator_tol"),
    ({"integrator_tol": float("nan")}, "integrator_tol"),
    ({"integrator_tol": float("inf")}, "integrator_tol"),
    ({"integrator_tol": 1e-30}, "integrator_tol"),
    ({"n_seeds": 2.5}, "n_seeds"), ({"q2_samples": 2.5}, "q2_samples"),
    ({"q2_samples": True}, "q2_samples"), ({"q2_degree": 3.5}, "q2_degree"),
    ({"fit_degree": 2.0}, "fit_degree"), ({"degree_cap": 256.0}, "degree_cap"),
    ({"degree_cap": True}, "degree_cap"), ({"verify_samples": True}, "verify_samples"),
    ({"invariance_orbits": 2.5}, "invariance_orbits"), ({"seed": 1.5}, "seed"),
    ({"seed": True}, "seed"), ({"r": True}, "r"), ({"r": 1.0}, "r"),
    ({"bern_degrees": [10.5, 20]}, "bern_degrees"), ({"bern_degrees": [True]}, "bern_degrees"),
    ({"surrogate": "false"}, "surrogate"), ({"surrogate": 1}, "surrogate"),
    ({"xi_range": [0.1]}, "xi_range"), ({"xi_range": ["-0.3", 0.3]}, "xi_range"),
    ({"annulus_xi": [-0.3]}, "annulus_xi"), ({"annulus_xi": [-0.35, 0.35, 1.0]}, "annulus_xi"),
    ({"section_base": [True, 0.0]}, "section_base"),
    ({"section_base": ["1.0", 0.0]}, "section_base"),
    ({"lambda_eps_values": ["0.01"]}, "lambda_eps_values"),
    ({"lambda_eps_values": [0.0, 0.01]}, "lambda_eps_values"),
    ({"lambda": "0.02"}, "lambda"), ({"lambda0": "1"}, "lambda0"),
    ({"horizon_periods": "2"}, "horizon_periods"),
    ({"window": True}, "window"), ({"integrator_tol": True}, "integrator_tol"),
    ({"q2_radius": True}, "q2_radius"), ({"section_half_length": True}, "section_half_length"),
    ({"bern_box": [1, 2, 3]}, "bern_box"), ({"bern_box": [0, 0, 0, 1]}, "bern_box"),
    ({"bern_box": [-2.0, 2.0, float("nan"), 2.0]}, "bern_box"),
    ({"bern_function": "nope"}, "bern_function"), ({"seed": -1}, "seed"),
    ({"system": 5}, "system"),
]


@pytest.mark.parametrize("raw, key", _BAD_SAMPLING)
def test_config_rejects_bad_sampling(raw, key):
    """window, section_half_length and horizon_periods must be finite and
    > 0, q2_radius finite and >= 0, q2_samples and invariance_orbits >= 0,
    verify_samples >= 1, xi_range finite with lo < hi and annulus_xi finite
    with lo < 0 < hi; the surrogate's window_width and eps_target finite and
    > 0 and degree_cap >= 1; section_base null or two finite numbers. Once a
    zero window failed only after every orbit, a negative one and a negative
    sample count passed, and a negative radius failed in NumPy's sampler; a
    section half-length not > 0 passed with every orbit dropped, an infinite
    xi_range end failed in NumPy's linspace, and the annulus keys failed
    only after the census. A negative window_width ran the whole surrogate
    split, a NaN eps_target probed every degree up to the cap, and a
    one-number section_base failed with IndexError. An empty lambda_eps_values
    ran no sweep and passed, an empty bern_degrees failed with IndexError,
    and a NaN lambda0 dropped the split's annulus check: lambda_eps_values
    and bern_degrees must be nonempty, each degree >= 1, and lambda0
    finite. An infinite integrator_tol passed find on an empty census, and
    one of 1e-30 ran find for minutes: integrator_tol must be finite and at
    least SciPy's rtol floor 100 * 2^-52. An integer key must be an int and
    no bool, surrogate a bool, xi_range, annulus_xi and section_base two
    numbers and every lambda_eps_values entry a number: a string surrogate
    "false" ran the surrogate split, a degree 10.5 was fitted, a float
    n_seeds failed with a TypeError that named no key, a one-number xi_range
    with IndexError, and r = true was taken as 1."""
    for pipeline in ("q2-search", "rotate-theorem2"):
        with pytest.raises(ValueError, match=key):
            lab.ExperimentConfig.from_dict({"pipeline": pipeline, **raw})


def test_config_errors_start_with_the_key():
    # the key as it is written in a config: lambda, not the field name lam
    for raw, key in _BAD_SAMPLING:
        with pytest.raises(ValueError) as err:
            lab.ExperimentConfig.from_dict({"pipeline": "find", **raw})
        assert str(err.value).startswith(f"{key} "), (raw, str(err.value))


def test_every_config_key_is_declared_with_its_rule():
    for f in dataclasses.fields(lab.ExperimentConfig):
        assert "rule" in f.metadata, f.name


def test_readme_config_block_lists_every_key_with_its_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Config grammar", 1)[1].split("```", 2)[1]
    listed = json.loads(re.sub(r"//.*", "", block))
    defaults = lab.ExperimentConfig(pipeline="find").echo()
    del defaults["pipeline"]
    defaults["lambda"] = defaults.pop("lam")
    assert listed == defaults


def test_config_accepts_the_sampling_bounds():
    cfg = lab.ExperimentConfig.from_dict({"pipeline": "q2-search", "window": 1e-6,
                                          "q2_radius": 0.0, "q2_samples": 0})
    assert (cfg.window, cfg.q2_radius, cfg.q2_samples) == (1e-6, 0.0, 0)
    cfg = lab.ExperimentConfig.from_dict({"pipeline": "annulus", "verify_samples": 1,
                                          "invariance_orbits": 0, "horizon_periods": 1e-6,
                                          "section_half_length": 1e-6})
    assert (cfg.verify_samples, cfg.invariance_orbits) == (1, 0)
    cfg = lab.ExperimentConfig.from_dict({"pipeline": "split-theorem1", "surrogate": True,
                                          "window_width": 1e-6, "eps_target": 1e-6,
                                          "degree_cap": 1, "section_base": [1.0, 0.0]})
    assert (cfg.window_width, cfg.eps_target, cfg.degree_cap) == (1e-6, 1e-6, 1)
    assert cfg.section_base == (1.0, 0.0)
    # lambda0 = 0 is the annulus's documented plain-return fallback
    cfg = lab.ExperimentConfig.from_dict({"pipeline": "bernstein-study", "lambda0": 0.0,
                                          "bern_degrees": [1], "lambda_eps_values": [0.1]})
    assert (cfg.lambda0, cfg.bern_degrees, cfg.lambda_eps_values) == (0.0, (1,), (0.1,))
    cfg = lab.ExperimentConfig.from_dict({"pipeline": "find", "integrator_tol": 100 * 2.0 ** -52})
    assert cfg.integrator_tol == 100 * 2.0 ** -52
    # integers where numbers are asked, and every pipeline's defaults
    cfg = lab.ExperimentConfig.from_dict({"pipeline": "annulus", "xi_range": [-1, 1],
                                          "annulus_xi": [-1, 1], "section_base": [1, 0],
                                          "lambda_eps_values": [0.1, -0.1]})
    assert (cfg.xi_range, cfg.annulus_xi, cfg.section_base) == ((-1, 1), (-1, 1), (1, 0))
    for pipeline in lab._PIPELINES:
        assert lab.ExperimentConfig.from_dict({"pipeline": pipeline}).pipeline == pipeline


@pytest.mark.parametrize("command, raw, key", [
    ("q2", {"window": 0}, "window"), ("rotate", {"window": 0}, "window"),
    ("rotate", {"window": -0.025}, "window"), ("q2", {"q2_samples": -1}, "q2_samples"),
    ("q2", {"q2_radius": -0.001}, "q2_radius"),
    ("find", {"section_half_length": 0}, "section_half_length"),
    ("q2", {"section_half_length": -0.55}, "section_half_length"),
    ("rotate", {"section_half_length": float("nan")}, "section_half_length"),
    ("split", {"section_half_length": 0}, "section_half_length"),
    ("find", {"xi_range": [-float("inf"), 0.3]}, "xi_range"),
    ("annulus", {"verify_samples": 0}, "verify_samples"),
    ("annulus", {"horizon_periods": 0}, "horizon_periods"),
    ("split", {"surrogate": True, "window_width": -0.5}, "window_width"),
    ("split", {"surrogate": True, "window_width": float("nan")}, "window_width"),
    ("split", {"surrogate": True, "eps_target": float("nan")}, "eps_target"),
    ("split", {"surrogate": True, "eps_target": 0}, "eps_target"),
    ("split", {"surrogate": True, "degree_cap": 0}, "degree_cap"),
    ("find", {"section_base": [float("nan"), 0.0]}, "section_base"),
    ("find", {"section_base": [1.0]}, "section_base"),
    ("split", {"section_base": [float("inf"), 0.0]}, "section_base"),
    ("rotate", {"lambda_eps_values": []}, "lambda_eps_values"),
    ("split", {"lambda0": float("nan")}, "lambda0"),
    ("bernstein", {"bern_degrees": []}, "bern_degrees"),
    ("find", {"integrator_tol": 1e-30}, "integrator_tol"),
    ("split", {"surrogate": "false"}, "surrogate"),
    ("bernstein", {"bern_degrees": [10.5, 20]}, "bern_degrees"),
    ("find", {"n_seeds": 2.5}, "n_seeds"), ("q2", {"q2_samples": 2.5}, "q2_samples"),
    ("q2", {"seed": 1.5}, "seed"), ("find", {"xi_range": [0.1]}, "xi_range"),
    ("annulus", {"annulus_xi": [-0.3]}, "annulus_xi"), ("find", {"r": True}, "r"),
    ("q2", {"window": True}, "window"), ("bernstein", {"bern_box": [1, 2, 3]}, "bern_box"),
])
def test_cli_rejects_bad_sampling_before_any_orbit(tmp_path, monkeypatch, capsys, command, raw,
                                                   key):
    from cyclelab import cli

    integrated = []

    def no_orbit(*args, **kwargs):
        integrated.append(args)
        raise AssertionError("an orbit was integrated")

    monkeypatch.setattr(flow, "_advance", no_orbit)
    monkeypatch.setattr(flow, "next_section_crossings", no_orbit)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(raw))
    assert cli.main([command, "--config", str(cfg)]) == 1
    assert integrated == []
    assert f"error: ValueError: {key}" in capsys.readouterr().err


@pytest.mark.parametrize("system", ["CK(0)", "vanderpol(nan)", {"p": "x^^2", "q": "y"}],
                         ids=["CK(0)", "vanderpol(nan)", "bad-term"])
def test_cli_names_the_system_key_when_the_field_is_rejected(tmp_path, monkeypatch, capsys,
                                                            system):
    from cyclelab import cli

    def no_orbit(*args, **kwargs):
        raise AssertionError("an orbit was integrated")

    monkeypatch.setattr(flow, "_advance", no_orbit)
    monkeypatch.setattr(flow, "next_section_crossings", no_orbit)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"system": system}))
    assert cli.main(["find", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error: ValueError: system ")


@pytest.mark.parametrize("text, error", [
    ("[1, 2]", "ValueError"), ('{"window": ', "JSONDecodeError"), (None, "FileNotFoundError"),
], ids=["list", "malformed", "missing"])
def test_cli_reports_a_bad_config_file_in_one_line(tmp_path, capsys, text, error):
    from cyclelab import cli

    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    assert cli.main(["find", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}: ") and err.count("\n") == 1, err


def test_side_file_cells_are_numbers_or_labels(tmp_path):
    # a NumPy scalar once reached the exponent column as np.float64(...)
    for pipeline, name in (("rotate-theorem2", "census.csv"), ("split-theorem1", "census.csv"),
                           ("find", "displacement.csv")):
        lab.run_pipeline(lab.ExperimentConfig.from_dict({"pipeline": pipeline}),
                         out_dir=tmp_path / pipeline)
        rows = (tmp_path / pipeline / name).read_text().splitlines()[1:]
        assert rows, pipeline
        for row in rows:
            cells = row.split(",")
            if name == "displacement.csv":
                # the error column: empty, as no orbit of the default find fails
                assert cells.pop() == ""
            for cell in cells:
                if cell not in ("stable", "unstable", "non-hyperbolic"):
                    float(cell)


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


@pytest.mark.parametrize("raw", [
    {"system": "CK(1)", "integrator_tol": 1e-8},
    {"system": "CK(3)", "integrator_tol": 1e-8, "xi_range": [-0.29, 0.31]},
    {"system": "CK(3)", "integrator_tol": 1e-11},
])
def test_find_convergence_check_is_at_the_integrator_tol(raw):
    # the census stops each root where |d| < integrator_tol, so a looser
    # tolerance passes the check and a tighter one must meet it
    rep = lab.run_pipeline(lab.ExperimentConfig.from_dict({"pipeline": "find", **raw}))
    assert rep.payload["census"]["count"] == 1
    assert rep.checks["cycles_converged"] is True
    assert rep.all_passed


@pytest.mark.parametrize("system", ["CK(3)", "CK(5)"])
def test_find_labels_a_multiple_cycle_non_hyperbolic(system):
    # off the seed grid the census root lies in the multiple cycle's noise
    # band, where the exponent's sign tells nothing about the cycle
    rep = lab.run_pipeline(lab.ExperimentConfig.from_dict(
        {"pipeline": "find", "system": system, "xi_range": [-0.29, 0.31]}))
    (cycle,) = rep.payload["census"]["cycles"]
    assert cycle["multiplicity"] > 1 and abs(cycle["xi_star"]) > 1e-4
    assert cycle["stability"] == "non-hyperbolic"


def test_find_displacement_csv_is_at_the_integrator_tol(tmp_path):
    # the side file samples d(xi) at the tolerance the census ran at
    tol = 1e-8
    cfg = lab.ExperimentConfig.from_dict({"pipeline": "find", "system": "CK(1)",
                                          "integrator_tol": tol})
    lab.run_pipeline(cfg, out_dir=tmp_path)
    X = ck_system(1)
    section = cy.section_for_field(X, (1.0, 0.0))
    lines = (tmp_path / "displacement.csv").read_text().strip().splitlines()
    assert lines[0] == "xi,displacement,error" and len(lines) == 34
    for line in lines[1:]:
        xi, d, error = line.split(",")
        assert error == ""
        assert float(d).hex() == cy.displacement(X, section, float(xi), tol=tol).hex()


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


def test_split_pipeline_integrates_no_annulus_orbit(monkeypatch):
    """The split report reads only the annulus's flux clause, so no
    invariance orbit is integrated for it."""
    def integrate(*args, **kwargs):
        raise RuntimeError("flow.integrate called")

    monkeypatch.setattr(flow, "integrate", integrate)
    rep = lab.run_pipeline(lab.ExperimentConfig.from_dict({
        "pipeline": "split-theorem1", "system": "CK(3)",
    }))
    assert rep.all_passed
    assert rep.checks["annulus_inward_perturbed"] is True
    block = rep.payload["annulus"]
    assert sorted(block) == ["min_flux_margin", "perturbed_inward_ok", "xi_z1", "xi_z2"]
    assert block["perturbed_inward_ok"] == (block["min_flux_margin"] > 0.0)


def test_split_integrates_only_the_annulus_arcs(monkeypatch):
    """Every cycle of the default split, the seed cycle and the three of the
    perturbed census, is built from the return its root's d(xi) call
    integrated; the only orbits integrated again are the annulus arcs."""
    callers = []
    real = cy._return_orbit

    def counted(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(*args, **kwargs)

    for module in (cy, annulus):
        monkeypatch.setattr(module, "_return_orbit", counted)
    rep = lab.run_pipeline(lab.ExperimentConfig.from_dict({"pipeline": "split-theorem1"}))
    assert rep.all_passed
    assert callers == ["_arc", "_arc"]


def test_split_d_call_budget(monkeypatch):
    """The default split finds its seed cycle, the exact one at the seed
    xi = 0, from 3 d(xi) calls (seeds -0.025, 0 and 0.025), and runs on 61
    orbits, counted on both drivers: d(xi) calls and the lanes handed to the
    lockstep driver. The 50-lane wave, the multiplicity's first window and
    the perturbed census's seeds, follows the 3 seeds."""
    calls = []
    waves = []
    real_d, real_wave = cy.displacement, flow.next_section_crossings

    def d(*args, **kwargs):
        calls.append(args[2])
        return real_d(*args, **kwargs)

    def wave(rows, *args, **kwargs):
        waves.append((len(calls), sum(map(len, rows))))
        return real_wave(rows, *args, **kwargs)

    monkeypatch.setattr(cy, "displacement", d)
    monkeypatch.setattr(flow, "next_section_crossings", wave)
    rep = lab.run_pipeline(lab.ExperimentConfig.from_dict({"pipeline": "split-theorem1"}))
    assert rep.all_passed
    assert waves == [(3, 50)]
    assert sorted(calls[:3]) == sorted(np.linspace(-0.3, 0.3, 25)[11:14])
    assert len(calls) + sum(lanes for _, lanes in waves) == 61


def test_split_without_a_vanishing_polynomial_fails_before_any_orbit(monkeypatch):
    def d(*args, **kwargs):
        raise AssertionError("displacement reached")

    monkeypatch.setattr(cy, "displacement", d)
    with pytest.raises(ValueError, match="no exact vanishing polynomial known"):
        lab.run_pipeline(lab.ExperimentConfig.from_dict({
            "pipeline": "split-theorem1", "system": "vanderpol(1.0)",
        }))


def test_split_payload_spells_numpy_bools_as_bools():
    # the split checks compare NumPy floats, so they are np.bool_ values
    rep = lab.run_pipeline(lab.ExperimentConfig.from_dict({"pipeline": "split-theorem1"}))
    assert isinstance(rep.checks["middle_exponent_positive"], np.bool_)
    lines = rep.payload_text().splitlines()
    assert "  middle_exponent_positive: true" in lines
    assert "  split_succeeded: true" in lines
    assert not [line for line in lines if line.endswith((": True", ": False"))]
    assert lab._scalar(np.bool_(False)) == "false"


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


def _run_cli(args, cwd, timeout=None):
    # the child runs in cwd, so a relative PYTHONPATH would not find the package
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "cyclelab.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=env, timeout=timeout)


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


@pytest.mark.parametrize("degree", [0, 1])
def test_cli_q2_degree_below_two_fails_at_parse_time(tmp_path, degree):
    # degree 0 once hung the stepper on a NaN node, degree 1 integrated
    # every orbit before failing
    cfg = tmp_path / "q2.json"
    cfg.write_text(json.dumps({"q2_degree": degree}))
    r = _run_cli(["q2", "--config", str(cfg)], tmp_path, timeout=60)
    assert r.returncode == 1
    assert "q2_degree" in r.stderr


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
from cyclelab.field import PolyVectorField, ck_system, gradient_collapse_family
from cyclelab.poly2 import parse_poly, scale
X = gradient_collapse_family(ck_system(3), parse_poly("1 - x^2 - y^2"), 0.02)
section = cycles.section_for_field(ck_system(1), (1.0, 0.0))
assert len(cycles.find_cycles(X, section, (-0.3, 0.3), 25)) == 3
ck2 = ck_system(2)
eps_perp = PolyVectorField(scale(ck2.Q, -0.1), scale(ck2.P, 0.1))  # 0.1 (-Q, P)
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
