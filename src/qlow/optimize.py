"""Outer loops: grid + local search over schedules, greedy beta branches,
iterated rounding, and a classical product-state restart baseline."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from . import _bits
from .ansatz import (
    Schedule,
    multilinear_gradient,
    multilinear_value,
    qaoa_state,
)
from .errors import ConfigError
from .laplacians import evolve_many, hypercube
from .objectives import Mean, evaluate
from .problems import DiagonalProblem, freeze
from .statevector import Statevector, apply_phase, plus_state

# a rounding marginal this close to 0.5 is a tie: kernels miss an exact 0.5 by last bits
MARGINAL_TIE_TOL = 1e-12


@dataclass
class SearchConfig:
    gamma_range: tuple[float, float] = (-math.pi, math.pi)
    beta_range: tuple[float, float] = (0.0, math.pi)
    resolution: tuple[int, int] = (64, 64)
    method: str = "compass"
    tol: float = 1e-6
    max_iters: int = 500
    top_k: int = 5
    restarts: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.resolution[0] < 2 or self.resolution[1] < 2:
            raise ConfigError("grid resolution must be at least 2 per axis")
        for lo, hi in (self.gamma_range, self.beta_range):
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ConfigError("search ranges must be finite and ordered")
        if self.method not in ("compass", "simplex"):
            raise ConfigError("local method must be 'compass' or 'simplex'")
        if self.top_k < 1 or self.max_iters < 1 or self.tol <= 0:
            raise ConfigError("top_k, max_iters, tol must be positive")


@dataclass
class RoundingConfig:
    beta_r: float = 100.0
    n_f: int = 0
    reoptimize: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.beta_r < 0:
            raise ConfigError("rounding inverse temperature must be >= 0")
        if self.n_f < 0:
            raise ConfigError("n_f must be >= 0")


def evaluate_schedule(
    problem: DiagonalProblem,
    lap,
    schedule: Schedule,
    objective,
    initial: Statevector | None = None,
) -> float:
    state = qaoa_state(problem, lap, schedule, initial=initial)
    return evaluate(objective, state, problem, lap)


def compass_minimize(fun, x0, step, tol, max_iters):
    """Coordinate pattern search: probe +-step along each axis, move to the
    best improving probe, halve the step when none improves."""
    x = np.asarray(x0, dtype=np.float64).copy()
    fx = fun(x)
    step = float(step)
    d = x.size
    for _ in range(max_iters):
        if step < tol:
            break
        best_f = fx
        best_x = None
        for i in range(d):
            for sign in (1.0, -1.0):
                trial = x.copy()
                trial[i] += sign * step
                ft = fun(trial)
                if ft < best_f - 1e-15:
                    best_f = ft
                    best_x = trial
        if best_x is None:
            step *= 0.5
        else:
            x, fx = best_x, best_f
    return x, fx


def _local_refine(fun, x0, step, config: SearchConfig):
    if config.method == "simplex":
        res = scipy.optimize.minimize(
            fun,
            np.asarray(x0, dtype=np.float64),
            method="Nelder-Mead",
            options={
                "xatol": config.tol,
                "fatol": config.tol * 1e-2,
                "maxiter": config.max_iters * max(1, len(np.atleast_1d(x0))),
            },
        )
        return np.asarray(res.x), float(res.fun)
    return compass_minimize(fun, x0, step, config.tol, config.max_iters)


def _grid_axes(config: SearchConfig):
    gammas = np.linspace(*config.gamma_range, config.resolution[0])
    betas = np.linspace(*config.beta_range, config.resolution[1])
    return gammas, betas


def _grid_scan_p1(problem, lap, objective, config, initial):
    """Objective on the full (gamma, beta) grid; phase states reused per row
    and the beta sweep batched through evolve_many."""
    gammas, betas = _grid_axes(config)
    base = plus_state(problem.n) if initial is None else initial
    table = np.empty((gammas.size, betas.size))
    for i, g in enumerate(gammas):
        phased = apply_phase(base, problem.dense, float(g))
        for j, state in enumerate(evolve_many(phased, lap, betas)):
            table[i, j] = evaluate(objective, state, problem, lap)
    return gammas, betas, table


def optimize_schedule(
    problem: DiagonalProblem,
    lap,
    p: int,
    objective,
    config: SearchConfig | None = None,
    initial: Statevector | None = None,
) -> tuple[Schedule, float]:
    """Grid scan + local refinement at p=1; ramp-initialized refinement above.

    The returned value is never worse than the best scanned grid point: local
    searches start from grid points for p=1, and for p>1 the best p=1 point is
    included as a candidate with the extra rounds zeroed out (identity)."""
    if config is None:
        config = SearchConfig()
    if p < 1:
        raise ConfigError("round count must be >= 1")

    gammas, betas, table = _grid_scan_p1(problem, lap, objective, config, initial)
    flat_order = np.argsort(table, axis=None, kind="stable")
    grid_best_val = float(table.flat[flat_order[0]])

    def fun(x):
        """x holds the gammas of every round, then the betas."""
        k = x.size // 2
        return evaluate_schedule(
            problem, lap, Schedule(x[:k], x[k:]), objective, initial
        )

    step1 = max(
        (config.gamma_range[1] - config.gamma_range[0]) / config.resolution[0],
        (config.beta_range[1] - config.beta_range[0]) / config.resolution[1],
    )
    best_x1 = None
    best_f1 = np.inf
    for flat_idx in flat_order[: config.top_k]:
        i, j = np.unravel_index(flat_idx, table.shape)
        x, fx = _local_refine(fun, np.array([gammas[i], betas[j]]), step1, config)
        if fx < best_f1:
            best_x1, best_f1 = x, fx
    if best_f1 > grid_best_val:
        i, j = np.unravel_index(flat_order[0], table.shape)
        best_x1 = np.array([gammas[i], betas[j]])
        best_f1 = grid_best_val
    if p == 1:
        return Schedule(best_x1[:1], best_x1[1:]), best_f1

    g1, b1 = best_x1
    ks = np.arange(1, p + 1, dtype=np.float64)
    ramp = np.concatenate([(ks / p) * g1, (1.0 - (ks - 1) / p) * b1])
    embed = np.zeros(2 * p)
    embed[0], embed[p] = g1, b1

    starts = [ramp, embed]
    if config.restarts > 0:
        rng = np.random.default_rng(config.seed)
        for _ in range(config.restarts):
            rg = rng.uniform(*config.gamma_range, size=p)
            rb = rng.uniform(*config.beta_range, size=p)
            starts.append(np.concatenate([rg, rb]))
    best_x, best_f = None, np.inf
    for s in starts:
        x, fx = _local_refine(fun, s, step1, config)
        if fx < best_f:
            best_x, best_f = x, fx
    if best_f > best_f1:
        best_x, best_f = embed, fun(embed)
    return Schedule(best_x[:p], best_x[p:]), best_f


def optimize_relaxed_schedule(
    problem: DiagonalProblem,
    lap,
    objective,
    config: SearchConfig | None = None,
    relax: str = "gamma",
    warm: Schedule | None = None,
) -> tuple[Schedule, float]:
    """p=1 schedule with per-term gammas and/or per-qubit betas.

    Warm-started from the less-relaxed optimum (the scalar search, or `warm`
    when given), so the refined value can only improve on it."""
    if relax not in ("gamma", "beta", "both"):
        raise ConfigError("relax must be 'gamma', 'beta', or 'both'")
    if config is None:
        config = SearchConfig()
    n_terms = problem.masks.size
    n = problem.n

    if warm is None:
        warm, _ = optimize_schedule(problem, lap, 1, objective, config)
    g_init = (
        warm.gammas[0]
        if warm.gamma_relaxed
        else np.full(n_terms, float(warm.gammas[0]))
    )
    b_init = (
        warm.betas[0] if warm.beta_relaxed else np.full(n, float(warm.betas[0]))
    )

    # the relaxed side keeps its per-term or per-qubit angles; the other is averaged
    g0 = g_init if relax != "beta" else np.array([float(np.mean(g_init))])
    b0 = b_init if relax != "gamma" else np.array([float(np.mean(b_init))])
    x0 = np.concatenate([g0, b0])

    def unpack(x):
        g, b = x[: g0.size], x[g0.size :]
        return Schedule(
            g.reshape(1, -1) if relax != "beta" else g,
            b.reshape(1, -1) if relax != "gamma" else b,
        )

    def fun(x):
        return evaluate_schedule(problem, lap, unpack(x), objective)

    f0 = fun(x0)
    step = (config.gamma_range[1] - config.gamma_range[0]) / config.resolution[0]
    x, fx = _local_refine(fun, x0, step, config)
    if fx > f0:
        x, fx = x0, f0
    return unpack(x), fx


@dataclass(frozen=True)
class GreedyResult:
    betas: np.ndarray
    gamma: float
    value: float


def _best_gamma_for_betas(problem, betas, objective, config):
    lap = hypercube(problem.n)
    grid = np.linspace(*config.gamma_range, config.resolution[0])
    brow = np.asarray(betas, dtype=np.float64).reshape(1, -1)

    def fun(g):
        return evaluate_schedule(
            problem, lap, Schedule(np.atleast_1d(g)[:1], brow), objective
        )

    vals = [fun(g) for g in grid]
    i = int(np.argmin(vals))
    x, fx = compass_minimize(
        lambda v: fun(v[0]), np.array([grid[i]]), grid[1] - grid[0], config.tol,
        config.max_iters,
    )
    if fx > vals[i]:
        return float(grid[i]), float(vals[i])
    return float(x[0]), float(fx)


def greedy_beta_branch(
    problem: DiagonalProblem,
    p: int,
    objective,
    config: SearchConfig | None = None,
    passes: int = 1,
) -> GreedyResult:
    """Per-qubit beta branch search over {pi/4, 3pi/4}, one qubit at a time.

    Each candidate assignment is scored at its own best scalar gamma. Only
    p=1 branch assignments are explored; the branch pair comes from the fact
    that shifting beta by pi/2 on one qubit conjugates its mixer."""
    if p != 1:
        raise ConfigError("greedy branch search is defined for one round")
    if config is None:
        config = SearchConfig()
    betas = np.full(problem.n, math.pi / 4)
    gamma, value = _best_gamma_for_betas(problem, betas, objective, config)
    for _ in range(passes):
        improved = False
        for q in range(problem.n):
            trial = betas.copy()
            trial[q] = 3 * math.pi / 4 if trial[q] == math.pi / 4 else math.pi / 4
            g, v = _best_gamma_for_betas(problem, trial, objective, config)
            if v < value - 1e-12:
                betas, gamma, value = trial, g, v
                improved = True
        if not improved:
            break
    return GreedyResult(betas, gamma, value)


@dataclass(frozen=True)
class RoundingStep:
    iteration: int
    qubit: int
    bit: int
    marginals: dict[int, float]
    value: float
    success_prob: float


def _marginals(state: Statevector) -> np.ndarray:
    probs = state.probabilities()
    idx = _bits.indices(state.n)
    return np.array(
        [float(probs @ ((idx >> j) & 1)) for j in range(state.n)]
    )


def _ground_mass_of_completions(original, frozen, keep, probs):
    base = 0
    for q, b in frozen.items():
        base |= b << q
    m = len(keep)
    idx = np.arange(2**m, dtype=np.int64)
    full = np.full(2**m, base, dtype=np.int64)
    for j, q in enumerate(keep):
        full |= ((idx >> j) & 1) << q
    vals = original.dense[full]
    return float(probs[vals <= original.f_min + 1e-9].sum())


def iterated_rounding(
    problem: DiagonalProblem,
    solver,
    rounding: RoundingConfig,
) -> tuple[np.ndarray, list[RoundingStep]]:
    """Freeze one variable at a time, sampled by polarization, and fold it in.

    solver(sub_problem, context) -> (state, info); context carries the
    iteration number, the previous solver info, and the reoptimize flag.
    After n_f freezes the residual qubits are read off a final solve by
    measurement-argmax. Softmax selection is max-shifted and normalized over
    unfrozen indices only.
    """
    if rounding.n_f > problem.n:
        raise ConfigError("n_f cannot exceed the qubit count")
    rng = np.random.default_rng(rounding.seed)
    frozen: dict[int, int] = {}
    trace: list[RoundingStep] = []
    prev_info = None

    def solve(iteration):
        """Freeze, call the solver, attach the trace so far to any failure."""
        sub, keep = freeze(problem, frozen)
        context = {
            "iteration": iteration,
            "previous": prev_info,
            "reoptimize": rounding.reoptimize,
        }
        try:
            state, info = solver(sub, context)
        except Exception as exc:
            exc.rounding_trace = trace
            raise
        return sub, keep, state, info

    for iteration in range(rounding.n_f):
        if len(frozen) == problem.n:
            break
        sub, keep, state, prev_info = solve(iteration)
        probs = state.probabilities()
        margs = _marginals(state)
        d = np.abs(margs - 0.5)
        w = np.exp(rounding.beta_r * (d - d.max()))
        w = w / w.sum()
        j = int(rng.choice(len(keep), p=w))
        tie = abs(margs[j] - 0.5) <= MARGINAL_TIE_TOL
        bit = int(rng.integers(2)) if tie else int(margs[j] > 0.5)
        success = _ground_mass_of_completions(problem, frozen, keep, probs)
        trace.append(
            RoundingStep(
                iteration=iteration,
                qubit=keep[j],
                bit=bit,
                marginals={q: float(margs[i]) for i, q in enumerate(keep)},
                value=float(probs @ sub.dense),
                success_prob=success,
            )
        )
        frozen[keep[j]] = bit

    assignment = np.zeros(problem.n, dtype=np.int64)
    for q, b in frozen.items():
        assignment[q] = b
    if len(frozen) < problem.n:
        sub, keep, state, _ = solve(len(frozen))
        probs = state.probabilities()
        z = int(np.argmax(probs))
        for jj, q in enumerate(keep):
            assignment[q] = (z >> jj) & 1
        trace.append(
            RoundingStep(
                iteration=len(frozen),
                qubit=-1,
                bit=-1,
                marginals={q: float(m) for q, m in zip(keep, _marginals(state))},
                value=float(probs @ sub.dense),
                success_prob=_ground_mass_of_completions(problem, frozen, keep, probs),
            )
        )
    return assignment, trace


def default_qaoa_solver(p: int = 1, objective=None, config: SearchConfig | None = None):
    """Solver for iterated_rounding: optimize a p-round schedule per call.

    With reoptimize off, the schedule found on the first call is reused on
    later (smaller) sub-problems and only the state is recomputed."""
    objective = Mean() if objective is None else objective
    config = SearchConfig() if config is None else config

    def solve(sub: DiagonalProblem, context: dict):
        lap = hypercube(sub.n)
        prev = context.get("previous")
        if not context.get("reoptimize", True) and prev is not None:
            sched = prev["schedule"]
            state = qaoa_state(sub, lap, sched)
            return state, {"schedule": sched, "value": evaluate(objective, state, sub, lap)}
        sched, val = optimize_schedule(sub, lap, p, objective, config)
        return qaoa_state(sub, lap, sched), {"schedule": sched, "value": val}

    return solve


def classical_restart_baseline(
    problem: DiagonalProblem, restarts: int, seed: int = 0
) -> float:
    """Fraction of random product-state restarts whose local optimum rounds
    to a ground state. Angles theta parametrize x_i = sin^2(theta_i); the
    chain rule keeps the gradient exact and cheap."""
    if restarts < 1:
        raise ConfigError("need at least one restart")
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(restarts):
        theta0 = rng.uniform(0.0, math.pi, size=problem.n)

        def fun(theta):
            x = np.sin(theta) ** 2
            return multilinear_value(problem, x)

        def jac(theta):
            x = np.sin(theta) ** 2
            return multilinear_gradient(problem, x) * np.sin(2 * theta)

        res = scipy.optimize.minimize(fun, theta0, jac=jac, method="L-BFGS-B")
        x = np.sin(res.x) ** 2
        z = 0
        for i in range(problem.n):
            if x[i] > 0.5:
                z |= 1 << i
        if problem.dense[z] <= problem.f_min + 1e-9:
            hits += 1
    return hits / restarts
