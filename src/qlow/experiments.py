"""Data-generating pipelines reproducing the headline tables and trend
figures, emitting rows in a fixed CSV schema.

Every pipeline is deterministic under (config, master seed): per-task seeds
are spawned from SeedSequence([master, task_index]), so results do not depend
on worker count or execution order. Deterministic problem families (chain,
grid) and the schedule search, which draws no random numbers, give identical
rows across seeds; those are computed once and replicated.
"""

from __future__ import annotations

import concurrent.futures
import csv
import functools
import itertools
import math
import time
from dataclasses import astuple, dataclass, fields

import numpy as np
from numpy.random import SeedSequence, default_rng

from . import _bits
from .analytic import DISTRIBUTIONS, distribution_qaoa, draw_fields, landau_zener, optimal_gamma
from .ansatz import qaoa_state
from .errors import ConfigError, ResourceError, bind_choice
from .laplacians import (
    BallCut,
    _rotate_qubits,
    ball_uniform_state,
    hamming_shell_state,
    hypercube,
    randomize_phases,
)
from .objectives import OBJECTIVES, Gibbs, Mean, _scorer, approximation_ratio, improvement_proxy
from .optimize import (
    RoundingConfig,
    SearchConfig,
    _grid_scan_p1,
    classical_restart_baseline,
    default_qaoa_solver,
    iterated_rounding,
    optimize_relaxed_schedule,
    optimize_schedule,
)
from .problems import (
    DiagonalProblem,
    chain_detuned,
    from_dense,
    grid_ferromagnet_2d,
    hamming_ramp,
    maxcut_3regular,
)
from .statevector import (
    GROUND_TOL,
    Statevector,
    _expect,
    _phase,
    _plus_amps,
    check_qubit_count,
    ground_state_mass,
    max_qubits,
    plus_state,
)


@dataclass(frozen=True)
class ExperimentRecord:
    """One CSV row: the fields, in order, are the columns."""

    experiment: str
    family: str
    n: int
    p: int
    j2: float | None
    seed: int
    solver: str
    objective: str
    value: float
    ground_prob: float | None
    approx_ratio: float | None
    wall_ms: float

    def __post_init__(self) -> None:
        if self.ground_prob is not None and not -1e-9 <= self.ground_prob <= 1 + 1e-9:
            raise ValueError("ground probability outside [0, 1]")

    def row(self) -> list[str]:
        def cell(name, x):
            if name == "wall_ms":
                return f"{x:.3f}"
            if x is None:
                return ""
            if isinstance(x, float):
                return f"{x:.10g}"
            return str(x)

        return [cell(name, getattr(self, name)) for name in CSV_HEADER]


CSV_HEADER = [f.name for f in fields(ExperimentRecord)]
# rows sort by the columns before the measured ones; a missing j2 sorts first
_KEY_COLUMNS = CSV_HEADER[: CSV_HEADER.index("value")]


def record_sort_key(r: ExperimentRecord):
    key = (getattr(r, name) for name in _KEY_COLUMNS)
    return tuple(-math.inf if x is None else x for x in key)


def write_records(records: list[ExperimentRecord], path) -> None:
    rows = [r.row() for r in sorted(records, key=record_sort_key)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)


def task_seed(master_seed: int, index: int) -> int:
    """Stable per-task seed; independent of worker count and ordering."""
    return int(SeedSequence([int(master_seed), int(index)]).generate_state(1)[0])


def _map_tasks(fn, tasks, jobs: int) -> list[ExperimentRecord]:
    """The records fn returns for each task, concatenated in task order; the
    tasks run in `jobs` worker processes when there is more than one."""
    if jobs <= 1 or len(tasks) <= 1:
        results = map(fn, tasks)
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as ex:
            results = list(ex.map(fn, tasks))
    return [record for records in results for record in records]


def objective_from_config(cfg: str | dict | None) -> object:
    """The objective a pipeline's objective_cfg names: a kind with its
    defaults, or an object {"kind": ..., field: value, ...}; None is "mean"."""
    spec = {"kind": cfg} if isinstance(cfg, str) else cfg
    return bind_choice("$.params.objective_cfg", OBJECTIVES, spec, "kind", "mean")()


def objective_tag(obj) -> str:
    """The kind of an OBJECTIVES objective followed by its fields (mean, gibbs20,
    cvar0.25); the class name of any other."""
    for kind, cls in OBJECTIVES.items():
        if type(obj) is cls:
            return kind + "".join(f"{value:g}" for value in astuple(obj))
    return type(obj).__name__.lower()


# ---------------------------------------------------------------------------
# independent-spin table


def _batched_uncoupled(dist: str, n: int, gamma: float, beta: float, n_seeds: int, seed: int):
    """Single round on n_seeds independent-spin instances at once, their
    fields drawn by `analytic.draw_fields`.

    The phase tables of all instances form one (n_seeds, 2^n) array, built
    from the per-qubit parity signs. The phase and the mixer are the shared
    kernels statevector._phase and laplacians._rotate_qubits, with the
    instance axis leading.
    """
    alphas = draw_fields(dist, default_rng(seed), (n_seeds, n))
    signs = _bits.parity_signs(n, 1 << np.arange(n)[:, None])  # (n, 2^n)
    values = alphas @ signs  # (S, 2^n)
    amps = _rotate_qubits(_phase(_plus_amps(n), values, gamma), np.full(n, beta))

    probs = np.abs(amps) ** 2
    energy = (probs * values).sum(axis=1) / n  # per-spin mean energy
    gmin = values.min(axis=1, keepdims=True)
    gmass = np.where(values <= gmin + GROUND_TOL, probs, 0.0).sum(axis=1)

    # per-spin marginal probability of that spin's own ground value
    spin_hits = np.empty((n_seeds, n))
    for j in range(n):
        p1 = probs @ ((1.0 - signs[j]) / 2.0)  # P(spin j reads 1)
        spin_hits[:, j] = np.where(alphas[:, j] > 0, p1, 1.0 - p1)

    return {
        "c_m": float(energy.mean()),
        "c_m_se": float(energy.std(ddof=1) / math.sqrt(n_seeds)),
        "overlap": float(spin_hits.mean()),
        "overlap_se": float(spin_hits.std(ddof=1) / math.sqrt(spin_hits.size)),
        "ground_mass": float(gmass.mean()),
        "ground_mass_se": float(gmass.std(ddof=1) / math.sqrt(n_seeds)),
    }


def run_fig2_table(n: int = 8, n_seeds: int = 10_000, seed: int = 0):
    """Per-spin single-round table: closed forms plus simulated confirmation.

    Returns (records, summary) where summary maps each distribution to its
    analytic values, optimal gamma, and batched-simulation statistics.
    """
    if n < 1 or n_seeds < 2:  # the standard errors need two instances
        raise ConfigError(f"fig2 needs n >= 1 and n_seeds >= 2, got {n} and {n_seeds}")
    # before _batched_uncoupled allocates its (n_seeds, 2^n) batch: the qubit cap
    # bounds each state, and the batch is held to one state at the cap
    check_qubit_count(n)
    if n_seeds << n > 1 << max_qubits():
        raise ResourceError(
            f"fig2 batch of n_seeds={n_seeds} states on n={n} qubits exceeds "
            f"2^{max_qubits()} amplitudes, one state at the qubit cap"
        )
    records: list[ExperimentRecord] = []
    summary: dict[str, dict] = {}
    beta = math.pi / 4
    for i, dist in enumerate(DISTRIBUTIONS):
        t0 = time.perf_counter()
        g_star = optimal_gamma(dist, beta)
        ana = distribution_qaoa(dist, g_star, beta)
        t_ana = (time.perf_counter() - t0) * 1e3
        records.append(
            ExperimentRecord(
                "fig2", dist, 1, 1, None, 0, "analytic", "mean",
                ana.c_m, ana.overlap, ana.ratio, t_ana,
            )
        )
        t0 = time.perf_counter()
        sim = _batched_uncoupled(dist, n, g_star, beta, n_seeds, task_seed(seed, i))
        t_sim = (time.perf_counter() - t0) * 1e3
        records.append(
            ExperimentRecord(
                "fig2", dist, n, 1, None, seed, "simulated", "mean",
                sim["c_m"], sim["overlap"], DISTRIBUTIONS[dist].ratio(sim["c_m"]), t_sim,
            )
        )
        summary[dist] = {"gamma_star": g_star, "analytic": ana, "simulated": sim}

    t0 = time.perf_counter()
    lz = landau_zener(1.0)
    records.append(
        ExperimentRecord(
            "fig2", "gaussian", 1, 0, None, 0, "annealing", "mean",
            lz.a_lz, lz.o_lz, lz.r_lz, (time.perf_counter() - t0) * 1e3,
        )
    )
    summary["annealing"] = {"lz": lz}
    return records, summary


# ---------------------------------------------------------------------------
# scale sweep and classical baseline


def _family_problem(family: str, n: int, j2: float, seed: int, rows: int, cols: int):
    if family == "chain":
        return chain_detuned(n, j2)
    if family == "grid":
        return grid_ferromagnet_2d(rows, cols, j2)
    if family == "maxcut":
        return maxcut_3regular(n, 0.5, j2, seed)
    raise ConfigError(f"unknown family {family!r}")


def _measure(problem: DiagonalProblem, state):
    """(mean energy, ground-state mass, approximation ratio) of a final state;
    the ratio is None for a constant problem."""
    mean = _expect(state.probabilities(), problem.dense)
    ratio = approximation_ratio(problem, mean) if problem.f_max > problem.f_min else None
    return mean, ground_state_mass(state, problem.dense), ratio


def _solve_and_measure(problem, p, objective, config):
    lap = hypercube(problem.n)
    sched, val = optimize_schedule(problem, lap, p, objective, config)
    _, gmass, ratio = _measure(problem, qaoa_state(problem, lap, sched))
    return val, gmass, ratio


def run_scale_sweep(
    family: str = "maxcut",
    p_list: tuple[int, ...] = (1, 2),
    j2_list: tuple[float, ...] = (0.2, 0.4, 0.6, 0.8, 1.0),
    seeds: int = 8,
    n: int = 12,
    rows: int = 3,
    cols: int = 4,
    objective_cfg: str | dict | None = None,
    resolution: tuple[int, int] = (48, 48),
    master_seed: int = 0,
    jobs: int = 1,
) -> list[ExperimentRecord]:
    tasks = [
        (family, n, rows, cols, p, float(j2), s, task_seed(master_seed, index),
         objective_cfg, tuple(resolution))
        for index, (p, j2, s) in enumerate(itertools.product(p_list, j2_list, range(seeds)))
    ]
    return _map_tasks(_scale_task, tasks, jobs)


def _scale_task(task):
    family, n, rows, cols, p, j2, s, instance_seed, objective_cfg, resolution = task
    t0 = time.perf_counter()
    problem = _family_problem(family, n, j2, instance_seed, rows, cols)
    obj = objective_from_config(objective_cfg)
    config = SearchConfig(resolution=resolution)
    val, gmass, ratio = _solve_and_measure(problem, p, obj, config)
    ms = (time.perf_counter() - t0) * 1e3
    return [
        ExperimentRecord(
            "scale", family, problem.n, p, j2, s, "qaoa", objective_tag(obj),
            val, gmass, ratio, ms,
        )
    ]


def run_ce_baseline(
    family: str = "grid",
    p_list: tuple[int, ...] = (1, 2, 3, 4, 6),
    seeds: int = 4,
    n: int = 12,
    rows: int = 3,
    cols: int = 4,
    j2: float = 1.0,
    restarts: int = 64,
    objective_cfg: str | dict | None = None,
    resolution: tuple[int, int] = (48, 48),
    master_seed: int = 0,
) -> list[ExperimentRecord]:
    """Classical product-state restarts vs schedule depth, per instance seed."""
    obj = objective_from_config(objective_cfg)
    config = SearchConfig(resolution=tuple(resolution))
    records = []
    qaoa_memo: dict = {}
    for s in range(seeds):
        inst_seed = task_seed(master_seed, s)
        problem = _family_problem(family, n, j2, inst_seed, rows, cols)
        t0 = time.perf_counter()
        frac = classical_restart_baseline(problem, restarts, seed=task_seed(master_seed, 1000 + s))
        ms = (time.perf_counter() - t0) * 1e3
        records.append(
            ExperimentRecord(
                "ce", family, problem.n, 0, j2, s, "classical", "mean",
                frac, frac, None, ms,
            )
        )
        for p in p_list:
            # deterministic families repeat across seeds; solve each p once
            key = (p,) if family in ("chain", "grid") else (p, s)
            if key not in qaoa_memo:
                t0 = time.perf_counter()
                val, gmass, ratio = _solve_and_measure(problem, p, obj, config)
                qaoa_memo[key] = (val, gmass, ratio, (time.perf_counter() - t0) * 1e3)
            val, gmass, ratio, ms = qaoa_memo[key]
            records.append(
                ExperimentRecord(
                    "ce", family, problem.n, p, j2, s, "qaoa", objective_tag(obj),
                    val, gmass, ratio, ms,
                )
            )
    return records


# ---------------------------------------------------------------------------
# per-term / per-qubit angle relaxation


def run_relaxation_compare(
    j2_list: tuple[float, ...] = (0.2, 0.4, 0.6, 0.8, 1.0),
    seeds: int = 20,
    rows: int = 3,
    cols: int = 4,
    objective_cfg: str | dict | None = "gibbs",
    resolution: tuple[int, int] = (48, 48),
    master_seed: int = 0,
    jobs: int = 1,
) -> list[ExperimentRecord]:
    """Standard vs gamma-relaxed vs beta-relaxed vs both, p=1, one grid
    instance per coupling ratio. Relaxed searches warm-start from the
    less-relaxed optimum, so their objective can only improve."""
    tasks = [(float(j2), rows, cols, seeds, objective_cfg, tuple(resolution)) for j2 in j2_list]
    return _map_tasks(_relaxation_task, tasks, jobs)


def _relaxation_task(task):
    """The four searches on one grid instance; each result is replicated
    over the seed indices, since the instance and searches are seed-free."""
    j2, rows, cols, seeds, objective_cfg, resolution = task
    problem = grid_ferromagnet_2d(rows, cols, j2)
    obj = objective_from_config(objective_cfg)
    config = SearchConfig(resolution=resolution)
    lap = hypercube(problem.n)
    relaxed = functools.partial(optimize_relaxed_schedule, problem, lap, obj, config)
    records = []

    def run(solver, search):
        t0 = time.perf_counter()
        sched, val = search()
        _, gmass, ratio = _measure(problem, qaoa_state(problem, lap, sched))
        ms = (time.perf_counter() - t0) * 1e3
        records.extend(
            ExperimentRecord(
                "freedom", "grid", problem.n, 1, j2, s, solver, objective_tag(obj),
                val, gmass, ratio, ms,
            )
            for s in range(seeds)
        )
        return sched

    std_sched = run("standard", lambda: optimize_schedule(problem, lap, 1, obj, config))
    g_sched = run("relax-gamma", lambda: relaxed(relax="gamma", warm=std_sched))
    run("relax-beta", lambda: relaxed(relax="beta", warm=std_sched))
    run("relax-both", lambda: relaxed(relax="both", warm=g_sched))
    return records


# ---------------------------------------------------------------------------
# flat landscapes and coherent cutting


def shell_landscape(n: int, resolution: int = 32):
    """Mean-energy landscape of the ramp from the middle Hamming shell."""
    problem = hamming_ramp(n)
    lap = hypercube(n)
    k = n // 2
    init = hamming_shell_state(n, k)
    config = SearchConfig(resolution=(resolution, resolution))
    _, _, table = _grid_scan_p1(problem, lap, _scorer(Mean(), problem), config, init)
    baseline = _expect(init.probabilities(), problem.dense)
    row_dev = float(np.max(table.max(axis=0) - table.min(axis=0)))
    full_dev = float(table.max() - table.min())
    return {
        "n": n,
        "k": k,
        "baseline": baseline,
        "gamma_row_deviation": row_dev,
        "full_variation": full_dev,
        "grid_min": float(table.min()),
        "table": table,
    }


def boosted_ball_state(n: int, center: int, radius: int, boost: float):
    """Ball state with the center's amplitude scaled up, then renormalized."""
    amps = ball_uniform_state(n, center, radius).amps
    amps[center] *= boost
    return Statevector(n, amps / np.linalg.norm(amps))


def _far_spike_problem(n: int, weight: int, height: float) -> DiagonalProblem:
    """Ramp plus a barrier on one far Hamming shell (outside the cut ball)."""
    w = _bits.popcounts(n)
    values = w.astype(np.float64)
    values[w == weight] += height
    return from_dense(n, values)


def run_shadow_defect(
    variant: str = "both",
    ns: tuple[int, ...] = (5, 7, 9),
    resolution: int = 32,
    n: int = 8,
    radius: int = 5,
    boost: float = 8.0,
    spike_weight: int | None = None,
    spike_height: float | None = None,
    search_resolution: tuple[int, int] = (64, 64),
    master_seed: int = 0,
):
    """flat: shell-state landscape scans. spike_cut: confined evolution vs
    free evolution when a barrier sits just outside the support ball. both:
    flat, then spike_cut.

    Returns (records, details).
    """
    if variant not in ("flat", "spike_cut", "both"):
        raise ConfigError("variant must be 'flat', 'spike_cut' or 'both'")
    if spike_weight is None:
        spike_weight = n - n // 4
    if spike_height is None:
        spike_height = float(n)
    if variant != "flat" and spike_weight <= radius:
        raise ConfigError("barrier must sit outside the cut ball")
    if variant != "flat" and spike_weight > n:
        raise ConfigError(f"barrier weight {spike_weight} exceeds n={n}: no Hamming shell has it")
    if variant != "flat" and not boost > 0:
        raise ConfigError("boost must be > 0")
    records: list[ExperimentRecord] = []
    details: dict = {}
    if variant != "spike_cut":
        for n_ in ns:
            t0 = time.perf_counter()
            res = shell_landscape(n_, resolution)
            ms = (time.perf_counter() - t0) * 1e3
            details[n_] = res
            records.extend(
                ExperimentRecord(
                    "shadow", f"shell-k{res['k']}", n_, 1, None, 0, solver, "mean",
                    res[key], None, None, ms,
                )
                for solver, key in (("scan-gamma-rows", "gamma_row_deviation"),
                                    ("scan-full-grid", "full_variation"))
            )
    if variant == "flat":
        return records, details

    ramp = hamming_ramp(n)
    spiked = _far_spike_problem(n, spike_weight, spike_height)
    init = boosted_ball_state(n, 0, radius, boost)
    free = hypercube(n)
    cut = BallCut(inner=free, center=0, radius=radius)
    config = SearchConfig(resolution=tuple(search_resolution))

    solvers = [
        ("nocut-mean", free, Mean()),
        ("nocut-gibbs", free, Gibbs(20.0)),
        ("ballcut", cut, Mean()),
    ]
    details.update(initial_mass=float(init.probabilities()[0]), boost=boost)
    for solver_name, lap, obj in solvers:
        for fam, problem in (("ramp", ramp), ("ramp-spike", spiked)):
            t0 = time.perf_counter()
            sched, val = optimize_schedule(problem, lap, 1, obj, config, initial=init)
            _, gmass, _ = _measure(problem, qaoa_state(problem, lap, sched, initial=init))
            ms = (time.perf_counter() - t0) * 1e3
            records.append(
                ExperimentRecord(
                    "shadow", fam, n, 1, None, 0, solver_name, objective_tag(obj),
                    val, gmass, None, ms,
                )
            )
            details[(solver_name, fam)] = {
                "value": val,
                "ground_mass": gmass,
                "gamma": float(sched.gammas[0]),
                "beta": float(sched.betas[0]),
            }
    return records, details


# ---------------------------------------------------------------------------
# single-round information gain


PROXY_KINDS = ("uniform", "ball", "ball-phase", "ball-cut", "ball-phase-cut")


def run_improvement_proxy(
    n_list: tuple[int, ...] = (6, 8, 10, 12),
    kinds: tuple[str, ...] = PROXY_KINDS,
    resolution: tuple[int, int] = (64, 64),
    master_seed: int = 0,
):
    """Normalized one-round gain for differently prepared starting states."""
    if not set(kinds) <= set(PROXY_KINDS):
        raise ConfigError(f"proxy state kinds must be among {PROXY_KINDS}, got {list(kinds)}")
    records = []
    details = {}
    config = SearchConfig(resolution=tuple(resolution))
    for i, n in enumerate(n_list):
        problem = hamming_ramp(n)
        free = hypercube(n)
        radius = n // 2
        cut = BallCut(inner=free, center=0, radius=radius)
        ball = ball_uniform_state(n, 0, radius)
        phased = randomize_phases(ball, task_seed(master_seed, i))
        starts = {
            "uniform": (plus_state(n), free),
            "ball": (ball, free),
            "ball-phase": (phased, free),
            "ball-cut": (ball, cut),
            "ball-phase-cut": (phased, cut),
        }
        for kind in kinds:
            init, lap = starts[kind]
            t0 = time.perf_counter()
            sched, _ = optimize_schedule(problem, lap, 1, Mean(), config, initial=init)
            gamma, beta = float(sched.gammas[0]), float(sched.betas[0])
            res = improvement_proxy(init, problem, lap, gamma, beta)
            ms = (time.perf_counter() - t0) * 1e3
            records.append(
                ExperimentRecord(
                    "proxy", "ramp", n, 1, None, master_seed, kind, "mean",
                    res.value, res.final_mass, None, ms,
                )
            )
            details[(n, kind)] = res
    return records, details


# ---------------------------------------------------------------------------
# iterated rounding curves


def run_rounding_curve(
    j2_list: tuple[float, ...] = (0.2, 1.0),
    seeds: int = 20,
    rows: int = 3,
    cols: int = 3,
    beta_r: float = 10.0,
    n_f: int | None = None,
    p: int = 1,
    objective_cfg: str | dict | None = None,
    resolution: tuple[int, int] = (32, 32),
    top_k: int = 3,
    master_seed: int = 0,
    jobs: int = 1,
) -> list[ExperimentRecord]:
    """Success probability as variables are frozen one at a time.

    Each trace row becomes one record; the frozen count is encoded in the
    solver tag (rounding-00, rounding-01, ...) since the schema has no
    iteration column.
    """
    tasks = [
        (float(j2), s, rows, cols, beta_r, n_f, p, objective_cfg,
         tuple(resolution), top_k, task_seed(master_seed, index))
        for index, (j2, s) in enumerate(itertools.product(j2_list, range(seeds)))
    ]
    return _map_tasks(_rounding_task, tasks, jobs)


def _rounding_task(task):
    (j2, s, rows, cols, beta_r, n_f, p, objective_cfg, resolution, top_k,
     rng_seed) = task
    problem = grid_ferromagnet_2d(rows, cols, j2)
    obj = objective_from_config(objective_cfg)
    config = SearchConfig(resolution=resolution, top_k=top_k)
    solver = default_qaoa_solver(p=p, objective=obj, config=config)
    rc = RoundingConfig(
        beta_r=beta_r,
        n_f=problem.n if n_f is None else n_f,
        seed=rng_seed,
    )
    t0 = time.perf_counter()
    _assignment, trace = iterated_rounding(problem, solver, rc)
    ms = (time.perf_counter() - t0) * 1e3 / max(1, len(trace))
    return [
        ExperimentRecord(
            "rounding", "grid", problem.n, p, j2, s, f"rounding-{step.iteration:02d}",
            objective_tag(obj), step.value, step.success_prob, None, ms,
        )
        for step in trace
    ]
