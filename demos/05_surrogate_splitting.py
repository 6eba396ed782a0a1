"""Splitting through the full numeric surrogate path (takes a few minutes).

When no exact polynomial vanishing on the cycle is available, the pipeline
builds one: the windowed signed distance to the cycle (measured on the
cycle's own orbit, with exact derivatives from the field) is sampled,
a tensor Bernstein fit of diagonal degree chosen by a derivative-controlled
tolerance search stands in for it, and the gradient-collapse family built
from that polynomial splits the cycle. On CK(3) the surrogate run can be
validated against the exact-polynomial census; since the two vanishing
functions differ by a smooth positive factor (gradient 1 versus 2 on the
cycle), the surrogate's perturbation size is rescaled by the ratio of
gradient-square integrals to make the censuses comparable.
"""
import numpy as np

from cyclelab import lab

cfg = lab.ExperimentConfig.from_dict({
    "pipeline": "split-theorem1",
    "system": "CK(3)",
    "lambda": 0.02,
    "surrogate": True,
    "window_width": 0.95,
    "eps_target": 0.4,
    "degree_cap": 256,
    "r": 1,
    "xi_range": [-0.2, 0.2],
    "n_seeds": 21,
})
report = lab.run_pipeline(cfg, out_dir="surrogate_out")

print(f"calibrated lambda: {report.payload['lambda_used']:.5f} "
      f"(x{report.payload['lambda_calibration_ratio']:.3f} of the reference)")
print(f"chosen Bernstein degree: {report.payload['degree']}")
targets = (np.sqrt(0.8), 1.0, np.sqrt(1.2))
print("census vs the exact-polynomial reference radii:")
for c, t in zip(report.payload["census"]["cycles"], targets):
    print(f"  radius {c['radius']:.6f}  (reference {t:.6f}, "
          f"dev {abs(c['radius'] - t):.5f})  {c['stability']}")
print("Whitney distance of the polynomial family to its sampled limit, by degree:")
for e in report.payload["whitney_log"]:
    print(f"  degree {e['degree']:3d}: {e['to_limit_family']:.6f}")
print(f"checks: {report.checks}")
print("report and portrait written to surrogate_out/")
