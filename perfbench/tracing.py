"""Spans around the calls into each layer of qlow, for the traced run only.

install() rebinds the module-level functions through which each layer is
entered, in every qlow module that binds the name (optimize binds
qaoa_state, ansatz binds evolve, and so on), plus numpy.linalg.eigh as called
from qlow.laplacians. Spans (id, name, start, end, parent) stay in memory
and are written out when the execution ends. A span's self time is its
duration minus the time its direct children cover; calls nest and run on one
thread, so that cover is the sum of the children's durations.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("statevector", "laplacians", "ansatz", "objectives", "problems",
          "optimize", "cli", "experiments")
LATENCY = ("laplacians.evolve.hypercube", "statevector.apply_phase",
           "laplacians.evolve.ballcut")
_LAP_KIND = {"WeightedHypercube": "hypercube", "BallCut": "ballcut",
             "CompleteGraph": "complete", "CustomSparse": "custom"}

# name -> unit of every metric the traced run reports, in a fixed order.
PER_LAYER = {}
for _base in LATENCY:
    PER_LAYER.update({f"{_base}.calls": "count", f"{_base}.s": "s",
                      f"{_base}.us_p50": "us", f"{_base}.us_tail": "us"})
    if _base != "laplacians.evolve.ballcut":
        PER_LAYER[f"{_base}.gbps_computed"] = "GB/s"
PER_LAYER.update({
    "laplacians.hypercube_rotation.calls": "count",
    "laplacians.hypercube_rotation.s": "s",
    "statevector.wrap.calls": "count",
    "ansatz.qaoa_state.calls": "count",
    "ansatz.qaoa_state.s": "s",
    "ansatz.qaoa_state.self_s": "s",
    "objectives.evaluate.mean.calls": "count",
    "objectives.evaluate.mean.s": "s",
    "objectives.evaluate.gibbs.calls": "count",
    "objectives.evaluate.gibbs.s": "s",
    "laplacians.evolve_many.calls": "count",
    "laplacians.evolve_many.states": "count",
    "laplacians.evolve_many.s": "s",
    "laplacians.eigh.calls": "count",
    "laplacians.eigh.s": "s",
    "laplacians.spectral_cache.calls": "count",
    "laplacians.spectral_cache.hit_ratio": "ratio",
    "problems.from_dense.calls": "count",
    "problems.from_dense.s": "s",
    "problems.from_terms.calls": "count",
    "problems.from_terms.s": "s",
    "problems.terms": "count",
    "problems.term_tables.calls": "count",
    "problems.term_tables.s": "s",
    "cli.load_manifest.calls": "count",
    "cli.load_manifest.s": "s",
    "optimize.grid_scan.points": "count",
    "optimize.grid_scan.s": "s",
    "optimize.refine.evals": "count",
    "optimize.refine.s": "s",
    "optimize.simulations": "count",
    "experiments.write_records.calls": "count",
    "experiments.write_records.s": "s",
    "experiments.write_records.bytes": "B",
})
PER_LAYER.update({f"layer.{layer}.self_s": "s" for layer in LAYERS})
PER_LAYER.update({"trace.spans": "count", "trace.overhead_s": "s"})
# Counts that must repeat exactly between two runs of the same input.
COUNTS = tuple(k for k, unit in PER_LAYER.items() if unit == "count")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, int, int]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack = [-1]
        self._next = 0

    def call(self, name, fn, args, kwargs):
        sid = self._next
        self._next += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, name, t0, t1, parent))

    def write(self, path) -> None:
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t_base = min((s[2] for s in self.spans), default=0)
        payload = {
            "fields": ["id", "name", "start_ns", "end_ns", "parent"],
            "names": names,
            "spans": [[s[0], index[s[1]], s[2] - t_base, s[3] - t_base, s[4]]
                      for s in self.spans],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points of the already imported qlow package."""
    from qlow import (cli, experiments, laplacians, objectives, optimize,
                      problems, statevector)

    modules = [m for k, m in sys.modules.items() if k == "qlow" or k.startswith("qlow.")]
    counters = tracer.counters

    def rebind(orig, new):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)

    def spanned(orig, name, after=None):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            result = tracer.call(name, orig, args, kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result
        rebind(orig, wrapper)

    def spectral(lap):
        if type(lap).__name__ in ("BallCut", "CustomSparse"):
            counters["spectral_calls"] += 1
            counters["spectral_hits"] += lap._eig is not None

    evolve = laplacians.evolve

    @functools.wraps(evolve)
    def evolve_wrapper(state, lap, beta):
        kind = _LAP_KIND.get(type(lap).__name__, "other")
        if kind == "hypercube":
            counters["hypercube_bytes"] += 32 * state.n << state.n
        spectral(lap)
        return tracer.call(f"laplacians.evolve.{kind}", evolve, (state, lap, beta), {})

    rebind(evolve, evolve_wrapper)

    evolve_many = laplacians.evolve_many

    @functools.wraps(evolve_many)
    def evolve_many_wrapper(state, lap, betas):
        counters["evolve_many_states"] += len(betas)
        spectral(lap)
        return tracer.call("laplacians.evolve_many", evolve_many, (state, lap, betas), {})

    rebind(evolve_many, evolve_many_wrapper)

    evaluate = objectives.evaluate

    @functools.wraps(evaluate)
    def evaluate_wrapper(obj, *args, **kwargs):
        name = f"objectives.evaluate.{type(obj).__name__.lower()}"
        return tracer.call(name, evaluate, (obj, *args), kwargs)

    rebind(evaluate, evaluate_wrapper)

    def phase_bytes(result, state, *args, **kwargs):
        counters["phase_bytes"] += 40 * state.amps.size

    def count_terms(result, *args, **kwargs):
        counters["terms"] += len(result.terms)

    def count_points(result, *args, **kwargs):
        counters["grid_points"] += result[2].size

    def record_bytes(result, records, path):
        counters["records_bytes"] += os.path.getsize(path)

    spanned(statevector.apply_phase, "statevector.apply_phase", phase_bytes)
    spanned(laplacians.hypercube_rotation, "laplacians.hypercube_rotation")
    spanned(problems.from_dense, "problems.from_dense", count_terms)
    spanned(problems.from_terms, "problems.from_terms", count_terms)
    spanned(optimize.qaoa_state, "ansatz.qaoa_state")
    spanned(optimize._grid_scan_p1, "optimize.grid_scan", count_points)
    spanned(optimize._local_refine, "optimize.refine")
    spanned(optimize.evaluate_schedule, "optimize.evaluate_schedule")
    spanned(optimize.optimize_schedule, "optimize.optimize_schedule")
    spanned(optimize.optimize_relaxed_schedule, "optimize.optimize_relaxed_schedule")
    spanned(cli.load_manifest, "cli.load_manifest")
    spanned(experiments._relaxation_task, "experiments.relaxation_task")
    spanned(experiments.write_records, "experiments.write_records", record_bytes)

    for cls, method, name in ((statevector.Statevector, "__post_init__", "statevector.wrap"),
                              (problems.DiagonalProblem, "term_tables", "problems.term_tables")):
        orig = getattr(cls, method)

        def method_wrapper(self, *args, _orig=orig, _name=name, **kwargs):
            return tracer.call(_name, _orig, (self, *args), kwargs)

        setattr(cls, method, functools.wraps(orig)(method_wrapper))

    eigh = np.linalg.eigh

    @functools.wraps(eigh)
    def eigh_wrapper(*args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__") == laplacians.__name__:
            return tracer.call("laplacians.eigh", eigh, args, kwargs)
        return eigh(*args, **kwargs)

    np.linalg.eigh = eigh_wrapper


def _tail(lat_us: np.ndarray) -> tuple[float, float]:
    """(percentile, value): the highest percentile, to 0.1, with at least ten
    samples beyond it; the median when there are fewer than 20 samples."""
    n = lat_us.size
    pct = 50.0 if n < 20 else np.floor(1000.0 * (1.0 - 10.0 / n)) / 10.0
    return pct, float(np.percentile(lat_us, pct))


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], dict[str, dict]]:
    """Every PER_LAYER metric except trace.overhead_s, from one execution, and
    for each us_tail the percentile it is and the number of calls it covers."""
    names = {s[0]: s[1] for s in tracer.spans}
    child = defaultdict(int)
    for sid, name, t0, t1, parent in tracer.spans:
        child[parent] += t1 - t0
    calls = defaultdict(int)
    total = defaultdict(int)
    own = defaultdict(int)
    lat = defaultdict(list)
    direct_rotations = [0, 0]
    for sid, name, t0, t1, parent in tracer.spans:
        dur = t1 - t0
        calls[name] += 1
        total[name] += dur
        own[name] += dur - child[sid]
        if name in LATENCY:
            lat[name].append(dur / 1e3)
        if name == "laplacians.hypercube_rotation" and not names.get(
                parent, "").startswith("laplacians.evolve"):
            direct_rotations[0] += 1
            direct_rotations[1] += dur
    c = tracer.counters
    out, tails = {}, {}
    for base in LATENCY:
        values = np.asarray(lat[base])
        pct, tail = _tail(values) if values.size else (0.0, 0.0)
        out[f"{base}.calls"] = calls[base]
        out[f"{base}.s"] = total[base] / 1e9
        out[f"{base}.us_p50"] = float(np.median(values)) if values.size else 0.0
        out[f"{base}.us_tail"] = tail
        tails[f"{base}.us_tail"] = {"percentile": pct, "calls": int(values.size)}
    for base, key in (("laplacians.evolve.hypercube", "hypercube_bytes"),
                      ("statevector.apply_phase", "phase_bytes")):
        out[f"{base}.gbps_computed"] = c[key] / total[base] if total[base] else 0.0
    out["laplacians.hypercube_rotation.calls"] = direct_rotations[0]
    out["laplacians.hypercube_rotation.s"] = direct_rotations[1] / 1e9
    out["statevector.wrap.calls"] = calls["statevector.wrap"]
    for name in ("ansatz.qaoa_state", "objectives.evaluate.mean", "objectives.evaluate.gibbs",
                 "laplacians.evolve_many", "laplacians.eigh", "problems.from_dense",
                 "problems.from_terms", "problems.term_tables", "cli.load_manifest",
                 "experiments.write_records"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = total[name] / 1e9
    out["ansatz.qaoa_state.self_s"] = own["ansatz.qaoa_state"] / 1e9
    out["laplacians.evolve_many.states"] = c["evolve_many_states"]
    out["laplacians.spectral_cache.calls"] = c["spectral_calls"]
    out["laplacians.spectral_cache.hit_ratio"] = (
        c["spectral_hits"] / c["spectral_calls"] if c["spectral_calls"] else 0.0)
    out["problems.terms"] = c["terms"]
    out["optimize.grid_scan.points"] = c["grid_points"]
    out["optimize.grid_scan.s"] = total["optimize.grid_scan"] / 1e9
    out["optimize.refine.evals"] = calls["optimize.evaluate_schedule"]
    out["optimize.refine.s"] = total["optimize.refine"] / 1e9
    out["optimize.simulations"] = c["grid_points"] + calls["ansatz.qaoa_state"]
    out["experiments.write_records.bytes"] = c["records_bytes"]
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            v for k, v in own.items() if k.split(".", 1)[0] == layer) / 1e9
    out["trace.spans"] = len(tracer.spans)
    return out, tails
