"""Span tracing of cyclelab's public functions, installed from outside the package.

Each wrapped call records one span: a name ``<layer>.<function>``, start and
end times, and the index of the span that was open when it began. Spans live
in flat in-memory arrays and are written once, after the traced runs.

Several modules import functions by name (``from .poly2 import mul``), so a
wrapper must replace the original in every cyclelab module that holds it,
not only in the module that defines it.
"""
from __future__ import annotations

import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("field", "poly2", "bernstein", "flow", "cycles", "annulus", "discriminant", "lab")
ORBIT_FAILURES = ("NoCrossing", "LeftNeighborhood", "Divergence", "StepUnderflow")
# work counts that must repeat exactly between two traced runs of one config
WORK_COUNTS = ("field.rhs_calls", "cycles.d_calls", "flow.integrate_steps",
               "bernstein.search_probes")


class Tracer:
    """Wraps the layers of an imported cyclelab and records spans per run."""

    def __init__(self):
        self.names: list[str] = []
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.errors: list[tuple[int, str]] = []
        self.results: dict[int, object] = {}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def reset(self):
        """Forget the recorded spans; the wrappers stay installed."""
        del self.names[:], self.parents[:], self.starts[:], self.ends[:], self.errors[:]
        self.results.clear()
        self._stack[:] = [-1]

    def wrap(self, name, fn, on_result=None):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        errors, results, stack, clock = self.errors, self.results, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                ends[idx] = clock()
                stack.pop()
                errors.append((idx, type(exc).__name__))
                raise
            ends[idx] = clock()
            stack.pop()
            if on_result is not None:
                results[idx] = on_result(out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Wrap every public function of each layer, wherever it is bound."""
        import cyclelab  # the package imports every layer
        from cyclelab import field, lab

        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"cyclelab.{layer}"]
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj, _ON_RESULT.get(attr))
        modules = [cyclelab] + [m for n, m in sys.modules.items() if n.startswith("cyclelab.")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])

        # the integrators call the closure that PolyVectorField.rhs returns
        rhs_factory = field.PolyVectorField.rhs

        def rhs(field_self):
            return self.wrap("field.rhs", rhs_factory(field_self))

        self._patch(field.PolyVectorField, "rhs", rhs)

        # every evaluation of the numeric vanishing surrogate F goes through
        # SampledField.value of the field build_numeric_F returns
        build = lab.build_numeric_F

        def build_numeric_F(*args, **kwargs):
            sampled = build(*args, **kwargs)
            sampled.value = self.wrap("lab.surrogate", sampled.value)
            return sampled

        for module in (cyclelab, lab):
            self._patch(module, "build_numeric_F", build_numeric_F)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def snapshot(self, run_id: int) -> dict:
        """The recorded spans as arrays, tagged with a run id."""
        return {
            "run": np.full(len(self.names), run_id, dtype=np.int32),
            "name": list(self.names),
            "parent": np.frombuffer(self.parents, dtype=np.int64).copy(),
            "start": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self.ends, dtype=np.float64).copy(),
        }


def save_spans(path: str, snapshots: list[dict]) -> None:
    """Write snapshots to one .npz; span names become indices into ``names``."""
    table: dict[str, int] = {}
    codes = [table.setdefault(name, len(table)) for snap in snapshots for name in snap["name"]]
    np.savez_compressed(
        path, names=np.array(list(table), dtype=str), name=np.array(codes, dtype=np.int32),
        **{k: np.concatenate([s[k] for s in snapshots]) for k in ("run", "parent", "start", "end")},
    )


def _steps(orbit):
    return len(orbit.times) - 1


def _orbits(rep):
    return rep.orbits_contained, rep.orbits_total


def _q2(rep):
    return rep.n_samples, sum(1 for s in rep.samples if s.error)


_ON_RESULT = {
    "integrate": _steps,
    "find_cycles": len,
    "verify_annulus": _orbits,
    "q2_search": _q2,
}


def _tail(ms: np.ndarray) -> float:
    """Highest of p99, p95, p90 and p50 with at least ten samples beyond it."""
    for q in (0.99, 0.95, 0.9):
        if ms.size * (1.0 - q) >= 10.0:
            return float(np.quantile(ms, q))
    return float(np.quantile(ms, 0.5)) if ms.size else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced run (the root span is lab.run_pipeline)."""
    names = np.array(tracer.names, dtype=object)
    parent = np.frombuffer(tracer.parents, dtype=np.int64)
    dur = np.frombuffer(tracer.ends, dtype=np.float64) - np.frombuffer(tracer.starts, dtype=np.float64)
    n = len(names)
    child_time = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(child_time, parent[has_parent], dur[has_parent])
    self_time = dur - child_time
    layer = np.array([s.split(".", 1)[0] for s in names], dtype=object)
    parent_name = np.where(has_parent, names[np.maximum(parent, 0)], "")

    def where(name):
        return names == name

    def outer_s(*fns):
        """Inclusive time of the named spans, not counting direct recursion."""
        sel = np.zeros(n, dtype=bool)
        for fn in fns:
            sel |= where(fn) & (parent_name != fn)
        return float(dur[sel].sum())

    def count(name, under=None):
        sel = where(name)
        if under is not None:
            sel &= parent_name == under
        return int(sel.sum())

    def ms(name):
        return dur[where(name)] * 1e3

    def result_sum(name, pick):
        return sum(pick(tracer.results[i]) for i in np.flatnonzero(where(name)))

    m: dict[str, float] = {}
    for lay in LAYERS:
        m[f"{lay}.self_s"] = float(self_time[layer == lay].sum())

    rhs = where("field.rhs")
    m["field.rhs_calls"] = int(rhs.sum())
    m["field.rhs_us"] = float(dur[rhs].mean() * 1e6) if rhs.any() else 0.0
    m["field.collapse_s"] = outer_s("field.gradient_collapse_family")

    m["poly2.mul_calls"] = count("poly2.mul")
    m["poly2.mul_s"] = outer_s("poly2.mul")
    m["poly2.eval_calls"] = count("poly2.eval_poly")
    m["poly2.eval_s"] = outer_s("poly2.eval_poly")

    m["bernstein.search_s"] = outer_s("bernstein.min_degree_for_tolerance")
    m["bernstein.search_probes"] = count("bernstein.bernstein_fit",
                                         under="bernstein.min_degree_for_tolerance")
    m["bernstein.fit_calls"] = count("bernstein.bernstein_fit")
    m["bernstein.fit_s"] = outer_s("bernstein.bernstein_fit")

    m["lab.surrogate_evals"] = count("lab.surrogate")
    m["lab.surrogate_s"] = outer_s("lab.surrogate")

    crossing = ms("flow.next_section_crossing")
    m["flow.crossing_calls"] = int(crossing.size)
    m["flow.crossing_s"] = float(crossing.sum() / 1e3)
    m["flow.crossing_ms_p50"] = float(np.median(crossing)) if crossing.size else 0.0
    m["flow.crossing_ms_tail"] = _tail(crossing)
    m["flow.rhs_per_crossing"] = (
        count("field.rhs", under="flow.next_section_crossing") / crossing.size
        if crossing.size else 0.0)
    m["flow.integrate_calls"] = count("flow.integrate")
    m["flow.integrate_steps"] = result_sum("flow.integrate", int)
    m["flow.integrate_s"] = outer_s("flow.integrate")
    failed = [name for idx, name in tracer.errors if layer[idx] == "flow"]
    for exc in ORBIT_FAILURES:
        m[f"flow.fail.{exc}"] = failed.count(exc)

    d_ms = ms("cycles.displacement")
    m["cycles.d_calls"] = int(d_ms.size)
    m["cycles.d_ms_p50"] = float(np.median(d_ms)) if d_ms.size else 0.0
    m["cycles.d_ms_tail"] = _tail(d_ms)
    m["cycles.census_s"] = outer_s("cycles.find_cycles")
    census_d = count("cycles.displacement", under="cycles.find_cycles")
    roots = result_sum("cycles.find_cycles", int)
    m["cycles.census_d_calls"] = census_d
    m["cycles.d_calls_per_root"] = census_d / roots if roots else 0.0
    m["cycles.multiplicity_s"] = outer_s("cycles.multiplicity")
    m["cycles.multiplicity_d_calls"] = count("cycles.displacement", under="cycles.multiplicity")
    m["cycles.quad_s"] = outer_s("cycles.characteristic_exponent",
                                 "cycles.divergence_integral_terms")
    m["cycles.build_cycle_s"] = outer_s("cycles.build_cycle")

    m["annulus.build_s"] = outer_s("annulus.build_trapping_annulus")
    m["annulus.verify_s"] = outer_s("annulus.verify_annulus")
    contained = result_sum("annulus.verify_annulus", lambda r: r[0])
    total = result_sum("annulus.verify_annulus", lambda r: r[1])
    m["annulus.orbits_contained_ratio"] = contained / total if total else 0.0

    samples = result_sum("discriminant.q2_search", lambda r: r[0])
    sample_failures = result_sum("discriminant.q2_search", lambda r: r[1])
    m["discriminant.samples"] = samples
    m["discriminant.sample_fail_ratio"] = sample_failures / samples if samples else 0.0
    m["discriminant.fit_s"] = outer_s("discriminant.fit_displacement_poly",
                                      "discriminant.discriminant",
                                      "discriminant.real_root_census")

    root = where("lab.run_pipeline") & ~has_parent
    m["trace.run_s"] = float(dur[root].sum())
    m["trace.spans"] = n
    return m
