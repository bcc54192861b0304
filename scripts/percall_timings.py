#!/usr/bin/env python3
"""Per-call costs of the small-n simulation path and of ball-cut mixers, and the
import of qlow.cli.

Times, at --n qubits on uncoupled gaussian spins with a hypercube mixer:
a p=1 qaoa_state; the raw simulation core the search loops call, where the
checkout has one (ansatz._simulate); the mixer kernel _rotate_qubits and the
phase kernel _phase; a whole 24x24 p=1 scan, in milliseconds, under Mean and
under Gibbs, each scored by a scorer built before the timing (the whole scan
and not a point, since a scan that fills the rows of time-reversal twins
simulates only 12 of its 24 rows on this hypercube from |+>^n); and one p=1
optimize_schedule with the search settings of acceptance criterion 8a. On
a 3-regular maxcut on --n qubits (even) with the same 24x24 grid, where the
checkout screens p=1 Mean searches by a closed form: the closed-form table
over the grid (optimize._p1_mean_closed_form, built before the timing); the
screened scan that such a search makes, with its screen (optimize._screen),
scorer and state buffers built before the timing, and the same for a
Gibbs(20) search where the checkout screens one (its Walsh-shell table is
built inside the scan, so it is in the time); and one p=1 search with
the states it simulates beside it (the calls to its scorer, so a checkout
without the screen reports its full count). The
single-state timings draw a new beta on every call, from more values than
laplacians keeps block unitaries for, so no call reuses one;
raw_core_p1_same_beta_us repeats one beta, so every call after the first does.
The ball-cut rows time unit-hypercube ball cuts on --n qubits centred on 0,
of radius n // 2 (at --n 12 the size of the ballcut-ramp12 benchmark workload
and the largest ball of `reproduce proxy`) and n // 2 + 1 (at --n 8 the ball
of `reproduce shadow`): the first evolution, which builds the eigenbasis, then
one single-beta and one 64-beta evolution on the kept basis.
sample_dense<n>_calls_ms times three in-process `qlow sample` calls through
qlow.cli.main, each on its own random dense table on --n qubits with a
two-round schedule and 1000 shots (at --n 14 the shape of the sample-dense14
benchmark workload); it goes only through main, so it times any checkout
alike.
Each figure is the fastest of --repeats timeit runs, which on a shared
machine is the least disturbed. The import time is the median over --imports
fresh interpreters. Prints one JSON object; run it with PYTHONPATH pointing at
the src directory of the checkout to time.
"""

import argparse
import contextlib
import io
import itertools
import json
import statistics
import subprocess
import sys
import tempfile
import time
import timeit
from pathlib import Path

import numpy as np

from qlow import ansatz, cli, laplacians, optimize, statevector
from qlow.ansatz import Schedule, qaoa_state
from qlow.laplacians import BallCut, hypercube
from qlow.objectives import Gibbs, Mean, _scorer
from qlow.optimize import BETA_RANGE, GAMMA_RANGE, SearchConfig, _grid_scan_p1, optimize_schedule
from qlow.problems import maxcut_3regular, uncoupled_spins


def per_call_us(fn, repeats: int) -> float:
    """The fastest over repeats of the mean time of one call, in microseconds;
    each repeat makes as many calls as fit in about 0.2 s, and at least one."""
    t0 = time.perf_counter()
    fn()
    number = max(1, int(0.2 / max(time.perf_counter() - t0, 1e-7)))
    return min(timeit.repeat(fn, number=number, repeat=repeats)) / number * 1e6


def import_s(count: int) -> float:
    code = "import time; t = time.perf_counter(); import qlow.cli; print(time.perf_counter() - t)"
    runs = [float(subprocess.check_output([sys.executable, "-c", code])) for _ in range(count)]
    return statistics.median(runs)


def sample_manifests(folder: Path, n: int) -> list[str]:
    """Three sample manifests, each a random dense table on n qubits and a
    two-round schedule."""
    paths = []
    for index in range(3):
        rng = np.random.default_rng([5, index, n])
        values = rng.normal(size=1 << n)
        gammas, betas = rng.uniform(-0.6, 0.6, size=2), rng.uniform(0.1, 1.4, size=2)
        path = folder / f"sample{index}.json"
        path.write_text(json.dumps({
            "experiment": "sample",
            "problem": {"family": "dense", "n": n, "values": values.tolist()},
            "schedule": {"gammas": gammas.tolist(), "betas": betas.tolist()},
        }))
        paths.append(str(path))
    return paths


def sample_calls(paths: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        for path in paths:
            if cli.main(["sample", "--manifest", path, "--shots", "1000", "--seed", "5"]) != 0:
                raise RuntimeError(f"qlow sample failed on {path}")


def scored_states(search) -> int:
    """How many states search() scores, by a counting scorer in optimize."""
    count, scorer = 0, optimize._scorer

    def counting(*args):
        score = scorer(*args)

        def counted(amps):
            nonlocal count
            count += 1
            return score(amps)

        return counted

    optimize._scorer = counting
    try:
        search()
    finally:
        optimize._scorer = scorer
    return count


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=10)
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--imports", type=int, default=5)
    args = ap.parse_args()

    n = args.n
    problem = uncoupled_spins(n, "gaussian", 0)
    lap = hypercube(n)
    betas = itertools.cycle(np.linspace(0.1, 3.0, 4099).reshape(-1, 1))
    plus = statevector._plus_amps(n)
    grid = SearchConfig(resolution=(24, 24), top_k=3)
    out = {"n": n, "numpy": np.__version__}
    out["qaoa_state_p1_us"] = per_call_us(
        lambda: qaoa_state(problem, lap, Schedule([0.37], next(betas))), args.repeats
    )
    core = getattr(ansatz, "_simulate", None)
    if core is not None:
        gammas = np.array([0.37])
        out["raw_core_p1_us"] = per_call_us(
            lambda: core(plus, problem, lap, gammas, next(betas)), args.repeats
        )
        beta = next(betas)
        out["raw_core_p1_same_beta_us"] = per_call_us(
            lambda: core(plus, problem, lap, gammas, beta), args.repeats
        )
    out["rotate_qubits_us"] = per_call_us(
        lambda: laplacians._rotate_qubits(plus, np.full(n, next(betas)[0])), args.repeats
    )
    out["phase_us"] = per_call_us(
        lambda: statevector._phase(plus, problem.dense, 0.37), args.repeats
    )
    for name, obj in (("mean", Mean()), ("gibbs", Gibbs(20.0))):
        score = _scorer(obj, problem)
        out[f"grid_scan_24x24_{name}_ms"] = per_call_us(
            lambda: _grid_scan_p1(problem, lap, score, grid, None), args.repeats
        ) / 1e3
    out["optimize_p1_8a_ms"] = per_call_us(
        lambda: optimize_schedule(problem, lap, 1, Mean(), grid), args.repeats
    ) / 1e3
    maxcut = maxcut_3regular(n)
    closed_form = getattr(optimize, "_p1_mean_closed_form", None)
    if closed_form is not None:
        table, _ = closed_form(maxcut, lap.b)
        axes = np.linspace(*GAMMA_RANGE, 24), np.linspace(*BETA_RANGE, 24)
        out["closed_form_grid_24x24_maxcut_us"] = per_call_us(lambda: table(*axes), args.repeats)
    screen_of = getattr(optimize, "_screen", None)
    if screen_of is not None:
        for name, obj in (("", Mean()), ("_gibbs", Gibbs(20.0))):
            screen = screen_of(maxcut, lap, obj, None)
            if screen is None:  # a checkout that screens no Gibbs search, or above its byte cap
                continue
            score, buffers = _scorer(obj, maxcut), optimize._search_buffers(1 << n)
            out[f"grid_scan_24x24_maxcut{name}_screened_ms"] = per_call_us(
                lambda: _grid_scan_p1(maxcut, lap, score, grid, None, buffers, screen=screen), args.repeats
            ) / 1e3
    out["search_p1_maxcut_ms"] = per_call_us(
        lambda: optimize_schedule(maxcut, lap, 1, Mean(), grid), args.repeats
    ) / 1e3
    out["search_p1_maxcut_states"] = scored_states(lambda: optimize_schedule(maxcut, lap, 1, Mean(), grid))
    for radius in (n // 2, n // 2 + 1):
        cut = BallCut(hypercube(n), center=0, radius=radius)

        def first_evolution():
            cut._eig = None
            laplacians._mix(plus, cut, 0.37)

        key = f"ballcut_n{n}_r{radius}"
        out[f"{key}_vertices"] = int(cut.ball().size)
        out[f"{key}_first_evolve_ms"] = per_call_us(first_evolution, args.repeats) / 1e3
        out[f"{key}_evolve_us"] = per_call_us(lambda: laplacians._mix(plus, cut, 0.37), args.repeats)
        out[f"{key}_evolve_64_betas_us"] = per_call_us(
            lambda: laplacians._mix_many(plus, cut, np.linspace(0.1, 3.0, 64)), args.repeats
        )
    with tempfile.TemporaryDirectory() as folder:
        paths = sample_manifests(Path(folder), n)
        sample_us = per_call_us(lambda: sample_calls(paths), args.repeats)
        out[f"sample_dense{n}_calls_ms"] = sample_us / 1e3
    if args.imports:
        out["import_qlow_cli_s"] = import_s(args.imports)
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
