"""One benchmark process: set up cyclelab, run a workload, print one JSON line.

Started by run.py with the thread caps already in its environment. With
--setup-only it stops once the pipeline is ready to run, which is how run.py
samples set-up time more than once per invocation.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time

import numpy as np

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import workloads  # noqa: E402  (bench/ is sys.path[0] for this script)

PROBE_INTERVAL_S = 0.25
SETUP_PROBES = 40
# speed-probe kernel time that defines nominal speed: run_norm_s equals the
# wall time of a run in which the kernel takes this long
PROBE_NOMINAL_S = 5e-3
# set-up time follows the kernel's speed only in part (much of it is loading
# modules): log raw set-up time against log kernel time had slope 0.43-0.56
# in each of four sets of 30-50 samples on a 2-vCPU Xeon VM, so set-up is
# scaled by the square root of the speed factor
SETUP_SPEED_EXPONENT = 0.5


def machine_facts() -> dict:
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class SpeedProbe:
    """Samples the machine's speed while a run is in progress.

    Every PROBE_INTERVAL_S of wall time a SIGALRM handler times a fixed
    kernel that does not touch cyclelab: scalar NumPy polynomial evaluation
    in a Python loop, the shape of cyclelab's hot path. On a shared host the
    speed of one vCPU drifts by tens of percent between minutes; the kernel
    times during a run measure the speed that run saw.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._coeffs = np.linspace(-1.0, 1.0, 64).reshape(8, 8)

    def kernel(self):
        acc = 0.0
        for i in range(150):
            acc += float(np.polynomial.polynomial.polyval2d(0.5 + 1e-6 * i, 0.25, self._coeffs))
            acc = float(np.array([acc, 1.0])[0]) * 1e-9

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self.samples.clear()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self._tick(None, None)

    def sample_now(self, n: int) -> float:
        """Time the kernel n times back to back; returns speed_s()."""
        self.samples = []
        for _ in range(n):
            self._tick(None, None)
        return self.speed_s()

    def speed_s(self) -> float:
        """Harmonic mean of the kernel times.

        Samples are spaced evenly in wall time, and the wall time of a run is
        its work times the harmonic mean of the per-operation cost over wall
        time, so this is the factor that scales the run's wall time.
        """
        return statistics.harmonic_mean(self.samples)


def run_once(lab, config, workload: str, out_dir: str, probe: SpeedProbe | None = None) -> dict:
    """One timed run_pipeline call, then its oracle checks (untimed).

    With a probe, the run also reports run_norm_s: its wall time scaled to
    nominal speed by the probe-kernel times during the run.
    """
    out = out_dir if workloads.needs_out_dir(workload) else None
    result = {"sha256": None, "radius_err": None, "failures": []}
    report = None
    t0 = time.perf_counter()
    try:
        with probe or contextlib.nullcontext():
            report = lab.run_pipeline(config, out_dir=out)
    except Exception as exc:  # a raising pipeline is a failed run, not a crash
        result["failures"].append(f"raised {type(exc).__name__}: {exc}")
    result["run_s"] = time.perf_counter() - t0
    if probe is not None:
        result["probe_s"] = probe.speed_s()
        result["run_norm_s"] = result["run_s"] * PROBE_NOMINAL_S / result["probe_s"]
    if report is not None:
        failures, result["radius_err"] = workloads.check(workload, report, out)
        result["failures"] += failures
        result["sha256"] = hashlib.sha256(report.payload_text().encode()).hexdigest()
    return result


def measure(lab, config, args) -> dict:
    """Closed loop, one client: runs back to back until the window is used.

    A run starts only when one more run of the last run's length still fits
    in --seconds; the first run always starts.
    """
    runs, t0, probe = [], time.perf_counter(), SpeedProbe()
    while True:
        runs.append(run_once(lab, config, args.workload, args.out, probe))
        if time.perf_counter() - t0 + runs[-1]["run_s"] > args.seconds:
            return {"runs": runs}


def trace(lab, config, args) -> dict:
    """One untraced run, then two traced runs whose work counts must agree."""
    from tracer import LAYERS, WORK_COUNTS, Tracer, layer_metrics, save_spans

    runs = [run_once(lab, config, args.workload, args.out)]
    tracer = Tracer()
    tracer.install()
    layers, spans = [], []
    try:
        for run_id in (1, 2):
            tracer.reset()
            runs.append(run_once(lab, config, args.workload, args.out))
            layers.append(layer_metrics(tracer))
            spans.append(tracer.snapshot(run_id))
    finally:
        tracer.uninstall()

    first, second = layers
    for key in WORK_COUNTS:
        if first[key] != second[key]:
            runs[2]["failures"].append(f"work count {key} {second[key]} != {first[key]}")
    for run, m in zip(runs[1:], layers):
        self_sum = sum(m[f"{lay}.self_s"] for lay in LAYERS)
        if not abs(self_sum - m["trace.run_s"]) <= 1e-9 * m["trace.run_s"] + 1e-9:
            run["failures"].append(f"layer self times sum to {self_sum}, "
                                   f"traced run_s is {m['trace.run_s']}")
    first["cycles.radius_err"] = runs[1]["radius_err"] or 0.0
    first["trace.untraced_run_s"] = runs[0]["run_s"]
    first["trace.overhead_s"] = first["trace.run_s"] - runs[0]["run_s"]

    save_spans(os.path.join(args.out, "spans.npz"), spans)
    return {"runs": runs, "layers": first}


def die_with_parent(parent_pid: int) -> None:
    """Have the kernel kill this process when run.py ends, so that a worker
    never outlives an invocation that was interrupted or killed."""
    with contextlib.suppress(OSError, AttributeError):
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    if os.getppid() != parent_pid:  # the parent ended before the call above
        os._exit(1)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before it started us")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--parent-pid", type=int, required=True)
    args = parser.parse_args()
    die_with_parent(args.parent_pid)

    from cyclelab import lab
    from cyclelab.field import parse_field

    config = lab.ExperimentConfig.from_dict(workloads.config_for(args.workload, args.seed))
    parse_field(config.system)
    setup_s = time.monotonic() - args.spawned_at
    # set-up is too short to probe while it runs; the speed right after it
    # stands in for the speed during it
    setup_probe_s = SpeedProbe().sample_now(SETUP_PROBES)
    result = {"setup_raw_s": setup_s, "setup_probe_s": setup_probe_s,
              "setup_s": setup_s * (PROBE_NOMINAL_S / setup_probe_s) ** SETUP_SPEED_EXPONENT}
    if not args.setup_only:
        result.update((trace if args.trace else measure)(lab, config, args))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["facts"] = machine_facts()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
