"""cyclelab benchmark: time to a checked result of whole pipelines.

    python3 bench/run.py --workload split-exact --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Every run goes through the public entry
point ``lab.run_pipeline`` in a fresh worker process and is checked against
closed-form oracles (bench/workloads.py). With --trace 0 the last stdout line
reports the end-to-end metrics; with --trace 1 a separate run wraps each
layer's public functions (bench/tracer.py) and reports per-layer metrics.
The last line is always one JSON object with keys correct, attempted, failed
and metrics; earlier lines carry the machine facts and per-run details.
Exit code 0 means every run passed every check.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_out")
HASHES = os.path.join(OUT, "payload_sha256.json")
WORKER = os.path.join(BENCH, "worker.py")
SETUP_SAMPLES = 5   # fresh interpreters timed per invocation, the worker included
DEADLINE_S = 170.0  # an invocation must end within 180 s


def declared() -> tuple[set[str], dict[str, str], dict[str, str]]:
    """The timed workloads and the units of the e2e and per-layer metrics
    that BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({w["name"] for w in spec["workloads"]},
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def code_digest() -> str:
    """Hash of the program and benchmark sources, naming 'the same code'."""
    digest = hashlib.sha256()
    for top in ("src", "bench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(f for f in filenames if f.endswith(".py")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read() + b"\0")
    return digest.hexdigest()


def check_payload_hashes(runs: list[dict], key: str) -> None:
    """Fail each run whose payload hash differs from an earlier run of this code."""
    store = {}
    if os.path.exists(HASHES):
        with open(HASHES) as fh:
            store = json.load(fh)
    expected = store.get(key) or next((r["sha256"] for r in runs if r["sha256"]), None)
    for run in runs:
        if run["sha256"] is not None and run["sha256"] != expected:
            run["failures"].append(f"payload sha256 {run['sha256']} != {expected} "
                                   f"recorded for {key}")
    if expected is not None and key not in store:
        store[key] = expected
        tmp = HASHES + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(store, fh, indent=1, sort_keys=True)
        os.replace(tmp, HASHES)


def spawn(argv: list[str], env: dict, timeout: float | None) -> dict:
    """Run one worker to completion and parse its JSON line."""
    cmd = [sys.executable, WORKER, *argv, "--parent-pid", str(os.getpid()),
           "--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=None if timeout is None else max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"worker exceeded its {timeout:.0f} s budget") from None
    finally:
        # also on SIGTERM/SIGINT (see main): the worker never outlives us
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def interrupted(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, interrupted)
    sys.path.insert(0, BENCH)
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cyclelab", "__init__.py")):
        print(f"error: no cyclelab sources under {os.path.join(ROOT, 'src')}; "
              "run from the root of a cyclelab checkout", file=sys.stderr)
        return 2
    timed, e2e_units, layer_units = declared()

    started = time.monotonic()
    nproc = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = nproc
    run_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--out", run_dir]

    def remaining():
        # workloads outside BENCHMARK.json (surrogate-split) run without a deadline
        if args.workload not in timed:
            return None
        return DEADLINE_S - (time.monotonic() - started)

    try:
        # set-up is an e2e metric only; a traced invocation skips the extra samples
        setup = [spawn(common + ["--setup-only"], env, remaining())
                 for _ in range(0 if args.trace else SETUP_SAMPLES - 1)]
        result = spawn(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                       env, remaining())
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup = [{k: v for k, v in r.items() if k.startswith("setup")} for r in setup + [result]]
    runs = result["runs"]
    check_payload_hashes(runs, f"{args.workload} seed={args.seed} code={code_digest()[:16]}")
    failed = sum(1 for r in runs if r["failures"])

    if args.trace:
        values = result["layers"]
    else:
        values = {"run_norm_s": statistics.median(r["run_norm_s"] for r in runs),
                  "setup_s": statistics.median(r["setup_s"] for r in setup),
                  "peak_rss_mb": result["peak_rss_mb"]}
    units = layer_units if args.trace else e2e_units
    if set(values) != set(units):
        print(f"error: measured metrics {sorted(set(values) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "facts": result["facts"], "setup_samples": setup,
            "runs": runs}
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump({**info, "metrics": metrics}, fh, indent=1)
    print(json.dumps(info))
    for i, run in enumerate(runs):
        for failure in run["failures"]:
            print(f"run {i} failed: {failure}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
