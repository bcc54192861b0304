import dataclasses
import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import angles
from qlow import optimize
from qlow.ansatz import Schedule, _simulate, qaoa_state
from qlow.errors import ConfigError
from qlow.laplacians import (
    BallCut,
    CompleteGraph,
    WeightedHypercube,
    ball_uniform_state,
    hypercube,
    randomize_phases,
)
from qlow.objectives import CVaR, Gibbs, Mean, _scorer, evaluate
from qlow.optimize import (
    BETA_RANGE,
    GAMMA_RANGE,
    RoundingConfig,
    SearchConfig,
    _grid_scan_p1,
    _p1_mean_closed_form,
    classical_restart_baseline,
    compass_minimize,
    default_qaoa_solver,
    evaluate_schedule,
    iterated_rounding,
    optimize_relaxed_schedule,
    optimize_schedule,
)
from qlow.problems import (
    ZTerm,
    bush,
    chain_detuned,
    conflicted_pairs,
    fisher_chain,
    freeze,
    from_dense,
    from_terms,
    grid_ferromagnet_2d,
    hamming_ramp,
    maxcut_3regular,
    uncoupled_spins,
)
from qlow.statevector import GROUND_TOL, Statevector, _phase, basis_state, plus_state

FAST = SearchConfig(resolution=(16, 16), top_k=2)


def test_compass_minimizes_quadratic():
    fun = lambda x: (x[0] - 1.3) ** 2 + (x[1] + 0.4) ** 2
    x, fx = compass_minimize(fun, np.zeros(2), step=0.5, tol=1e-9, max_iters=500)
    np.testing.assert_allclose(x, [1.3, -0.4], atol=1e-6)
    assert fx < 1e-12


def test_compass_never_returns_worse_than_start():
    fun = lambda x: np.cos(3 * x[0]) + 0.2 * x[0] ** 2
    for x0 in (-2.0, 0.3, 1.7):
        _, fx = compass_minimize(fun, np.array([x0]), 0.4, 1e-8, 200)
        assert fx <= fun(np.array([x0])) + 1e-15


def test_compass_scores_x0_and_each_trial_once():
    """fun scores x0 and the 2d trials of each step, and an accepted trial's
    value is its centre value: no point is scored twice."""
    calls = []

    def fun(x):
        calls.append(x.copy())
        return (x[0] - 1.3) ** 2 + (x[1] + 0.4) ** 2

    x0 = np.zeros(2)
    # a tolerance no halving reaches in seven steps: the loop probes seven times
    x, fx = compass_minimize(fun, x0, step=0.5, tol=1e-300, max_iters=7)
    assert len(calls) == 1 + 7 * 2 * x0.size
    assert not np.array_equal(x, x0) and fx == fun(x)
    assert calls[0].tobytes() == x0.tobytes()


def test_screened_probe_scores_a_lone_live_trial_once():
    """A screen that leaves one trial far below the centre: the compass moves
    to it with one fun call for it, and scores no ruled-out trial."""
    calls = []

    def fun(x):
        calls.append(tuple(x))
        return (x[0] - 1.0) ** 2 + x[1] ** 2

    # an exact closed form, so only the trial towards (1, 0) is live at each step
    screen = (None, lambda g, b: (g - 1.0) ** 2 + b**2, 1e-12)
    x, fx = compass_minimize(fun, np.zeros(2), 0.5, 1e-9, 2, screen)
    assert calls == [(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)]
    assert tuple(x) == (1.0, 0.0) and fx == 0.0


def test_search_config_validation():
    # the angle ranges and the compass tolerance are module constants, not settings
    assert [f.name for f in dataclasses.fields(SearchConfig)] == ["resolution", "max_iters", "top_k"]
    with pytest.raises(ConfigError):
        SearchConfig(resolution=(1, 16))
    with pytest.raises(ConfigError):
        SearchConfig(top_k=0)
    with pytest.raises(ConfigError):
        SearchConfig(max_iters=0)


def test_rounding_config_validation():
    with pytest.raises(ConfigError):
        RoundingConfig(beta_r=-1.0)
    with pytest.raises(ConfigError):
        RoundingConfig(n_f=-1)


def test_optimize_never_worse_than_direct_grid():
    prob = from_dense(3, np.array([0.0, 2.0, -1.5, 3.0, 1.0, -0.5, 2.5, 0.25]))
    lap = hypercube(3)
    sched, val = optimize_schedule(prob, lap, 1, Mean(), FAST)
    # independent rescan of the same grid through the full evolution path
    grid_best = min(
        evaluate_schedule(prob, lap, Schedule([g], [b]), Mean())
        for g in np.linspace(*GAMMA_RANGE, FAST.resolution[0])
        for b in np.linspace(*BETA_RANGE, FAST.resolution[1])
    )
    assert val <= grid_best + 1e-9
    assert evaluate_schedule(prob, lap, sched, Mean()) == pytest.approx(val, abs=1e-9)


def test_optimize_two_rounds_not_worse_than_one():
    prob = conflicted_pairs(4, 0.5, 3.0)
    lap = hypercube(4)
    _, v1 = optimize_schedule(prob, lap, 1, Mean(), FAST)
    sched2, v2 = optimize_schedule(prob, lap, 2, Mean(), FAST)
    assert v2 <= v1 + 1e-10
    assert sched2.rounds == 2


@pytest.mark.parametrize("center", [3, 12, 36])
def test_more_rounds_never_end_above_one_round_on_a_ball_cut(center):
    # the p=2 start with a zeroed second round is the p=1 optimum only up to
    # the last bits of the spectral evolution
    prob, lap = hamming_ramp(6), BallCut(hypercube(6), center, 3)
    config = SearchConfig(resolution=(6, 5), top_k=1, max_iters=6)
    _, v1 = optimize_schedule(prob, lap, 1, Mean(), config)
    sched2, v2 = optimize_schedule(prob, lap, 2, Mean(), config)
    assert v2 <= v1
    assert evaluate_schedule(prob, lap, sched2, Mean()) == pytest.approx(v2, abs=1e-12)


def test_compass_searches_return_the_public_value_and_never_end_above_their_floor():
    prob, lap, obj = grid_ferromagnet_2d(2, 3), hypercube(6), Mean()
    config = SearchConfig(resolution=(8, 8), max_iters=30)
    public = lambda sched: evaluate(obj, qaoa_state(prob, lap, sched), prob)
    _, _, table = _grid_scan_p1(prob, lap, _scorer(obj, prob), config, None)
    sched1, v1 = optimize_schedule(prob, lap, 1, obj, config)
    assert v1 == public(sched1) and v1 <= table.min()
    sched2, v2 = optimize_schedule(prob, lap, 2, obj, config)
    assert v2 == public(sched2) and v2 <= v1
    relaxed, vr = optimize_relaxed_schedule(prob, lap, obj, config, relax="both")
    assert vr == public(relaxed) and vr <= v1


def test_optimize_reaches_uncoupled_ground_energy():
    prob = uncoupled_spins(3, "binary", seed=5)
    _, val = optimize_schedule(prob, hypercube(3), 1, Mean(), FAST)
    assert val == pytest.approx(prob.f_min, abs=1e-4)


def test_optimize_rejects_zero_rounds():
    prob = uncoupled_spins(2, "binary", seed=0)
    with pytest.raises(ConfigError):
        optimize_schedule(prob, hypercube(2), 0, Mean(), FAST)


def test_relaxed_improves_on_scalar_warm_start():
    prob = conflicted_pairs(4, 0.5, 3.0)
    lap = hypercube(4)
    _, scalar_val = optimize_schedule(prob, lap, 1, Mean(), FAST)
    for relax in ("gamma", "beta", "both"):
        sched, val = optimize_relaxed_schedule(prob, lap, Mean(), FAST, relax=relax)
        assert val <= scalar_val + 1e-9
        assert evaluate_schedule(prob, lap, sched, Mean()) == pytest.approx(
            val, abs=1e-9
        )


def test_relaxed_never_worse_than_given_warm_schedule():
    prob = uncoupled_spins(3, "binary", seed=2)
    lap = hypercube(3)
    warm = Schedule([0.3], [0.9])
    f0 = evaluate_schedule(prob, lap, warm, Mean())
    sched, val = optimize_relaxed_schedule(
        prob, lap, Mean(), FAST, relax="gamma", warm=warm
    )
    assert val <= f0 + 1e-12
    assert sched.gamma_relaxed and not sched.beta_relaxed


def random_relaxed_instance(n, seed):
    """Terms of weight 0 to 3 with random coefficients on a hypercube with
    unequal weights: no symmetry ties two points."""
    rng = np.random.default_rng(seed)
    terms = [ZTerm((), float(rng.normal()))]
    for w in (1, 1, 2, 2, 2, 3, 3):
        qubits = tuple(sorted(rng.choice(n, size=w, replace=False).tolist()))
        terms.append(ZTerm(qubits, float(rng.normal())))
    lap = WeightedHypercube(tuple(rng.uniform(0.3, 1.7, n)))
    return from_terms(n, terms), lap, rng


def relaxed_point(prob, relax, rng):
    n_gamma = 1 if relax == "beta" else prob.masks.size
    n_beta = 1 if relax == "gamma" else prob.n
    return rng.uniform(-1.0, 1.0, n_gamma + n_beta), n_gamma


def relaxed_search_fun(prob, lap, objective, relax, n_gamma):
    """fun of a relaxed compass search on the hypercube: the search's own
    simulation and scorer, as optimize_relaxed_schedule builds them for
    CVaR."""
    base = optimize._start(prob, lap, None)
    return optimize._search_fun(
        base, prob, lap, _scorer(objective, prob),
        lambda x: optimize._relaxed(x, relax, n_gamma), optimize._search_buffers(base.size),
    )


@pytest.mark.parametrize("relax", ["gamma", "beta", "both"])
@pytest.mark.parametrize("objective", [Mean(), Gibbs(4.0), CVaR(0.2)], ids=["mean", "gibbs", "cvar"])
def test_relaxed_search_fun_matches_full_simulation(relax, objective):
    """A relaxed search's fun on a hypercube with unequal weights scores the
    full simulation of its schedule at x and at every compass trial."""
    prob, lap, rng = random_relaxed_instance(7, seed=11)
    x, n_gamma = relaxed_point(prob, relax, rng)
    fun = relaxed_search_fun(prob, lap, objective, relax, n_gamma)
    assert fun(x) == evaluate_schedule(prob, lap, Schedule(*optimize._relaxed(x, relax, n_gamma)), objective)
    for step in (0.37, 1e-3):
        for k in range(2 * x.size):
            trial = optimize._trial(x, k, step)
            sched = Schedule(*optimize._relaxed(trial, relax, n_gamma))
            want = evaluate(objective, qaoa_state(prob, lap, sched), prob)
            value = fun(trial)
            assert math.isclose(value, want, rel_tol=1e-12, abs_tol=1e-13), (k, value, want)


@pytest.mark.parametrize("relax", ["gamma", "beta", "both"])
def test_compass_on_relaxed_search_fun_follows_the_full_route(relax):
    """Relaxed CVaR refines by compass: on the search's fun it takes the
    moves of compass on evaluate_schedule and ends at the same point."""
    prob, lap, rng = random_relaxed_instance(6, seed=5)
    x0, n_gamma = relaxed_point(prob, relax, rng)
    obj = CVaR(0.3)

    def fun(x):
        return evaluate_schedule(prob, lap, Schedule(*optimize._relaxed(x, relax, n_gamma)), obj)

    search_fun = relaxed_search_fun(prob, lap, obj, relax, n_gamma)
    x_search, f_search = compass_minimize(search_fun, x0, 0.2, 1e-4, 200)
    x_full, f_full = compass_minimize(fun, x0, 0.2, 1e-4, 200)
    np.testing.assert_array_equal(x_search, x_full)
    assert f_search == f_full == fun(x_full)
    assert f_full < fun(x0)


def central_differences(fun, x, h=2e-5):
    """The fourth-order central difference of fun at x along each axis. Its
    error is about h^4 times the fifth derivative plus 1e-16 |fun| / h: far
    below 1e-6 for these costs, where the second-order difference's h^2
    times the third derivative reached 6e-6 on a steep Gibbs case."""

    def along(e):
        return (8.0 * (fun(x + h * e) - fun(x - h * e)) - (fun(x + 2 * h * e) - fun(x - 2 * h * e))) / (12 * h)

    return np.array([along(e) for e in np.eye(x.size)])


@pytest.mark.parametrize("relax", ["gamma", "beta", "both"])
@pytest.mark.parametrize("objective", [Mean(), Gibbs(4.0)], ids=["mean", "gibbs"])
def test_relaxed_gradient_matches_full_simulation(relax, objective):
    """A relaxed search's value and gradient on seven qubits, terms up to
    weight 3 and unequal hypercube weights: the value is evaluate_schedule's,
    the gradient central differences of it."""
    prob, lap, rng = random_relaxed_instance(7, seed=11)
    x, n_gamma = relaxed_point(prob, relax, rng)
    base, score = optimize._start(prob, lap, None), _scorer(objective, prob)
    value, grad = optimize._value_and_grad(
        base, prob, lap, *optimize._relaxed(x, relax, n_gamma), score, optimize._search_buffers(base.size)
    )

    def public(x):
        return evaluate_schedule(prob, lap, Schedule(*optimize._relaxed(x, relax, n_gamma)), objective)

    assert value == public(x)
    np.testing.assert_allclose(grad, central_differences(public, x), rtol=0, atol=1e-6)


@pytest.mark.parametrize("relax", ["gamma", "beta", "both"])
def test_relaxed_gradient_search_ends_at_a_stationary_point(relax):
    """From a warm start, a relaxed Gibbs search stops by GRADIENT_TOL: its
    point's gradient is below it, and its value is the point's public value."""
    prob, lap, rng = random_relaxed_instance(6, seed=5)
    obj, warm = Gibbs(3.0), Schedule(rng.uniform(-1.0, 1.0, 1), rng.uniform(0.0, 1.0, 1))
    sched, value = optimize_relaxed_schedule(prob, lap, obj, FAST, relax=relax, warm=warm)
    assert value == evaluate_schedule(prob, lap, sched, obj)
    assert value < evaluate_schedule(prob, lap, warm, obj)
    base, score = optimize._start(prob, lap, None), _scorer(obj, prob)
    _, grad = optimize._value_and_grad(
        base, prob, lap, sched.gammas, sched.betas, score, optimize._search_buffers(base.size)
    )
    assert np.abs(grad).max() < optimize.GRADIENT_TOL


GRADIENT_MIXERS = {
    "hypercube": lambda n, rng: WeightedHypercube(tuple(rng.uniform(0.3, 1.7, n))),
    "complete": lambda n, rng: CompleteGraph(n),
    "ballcut": lambda n, rng: BallCut(hypercube(n), int(rng.integers(1 << n)), max(1, n // 2)),
}


@given(
    n=st.integers(2, 6),
    p=st.integers(1, 4),
    mixer=st.sampled_from(sorted(GRADIENT_MIXERS)),
    objective=st.sampled_from([Mean(), Gibbs(3.0)]),
    relax_gamma=st.booleans(),
    relax_beta=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_value_and_grad_matches_central_differences(n, p, mixer, objective, relax_gamma, relax_beta, seed):
    """The adjoint gradient against central differences of the plain
    simulation, on terms of weight 0 to 3; per-qubit betas on the hypercube
    only. The value is the search's fun(x) to the bit."""
    rng = np.random.default_rng(seed)
    terms = [ZTerm((), float(rng.normal()))]
    for w in rng.integers(1, min(3, n) + 1, size=5):
        terms.append(ZTerm(tuple(sorted(rng.choice(n, size=w, replace=False).tolist())), float(rng.normal())))
    prob, lap = from_terms(n, terms), GRADIENT_MIXERS[mixer](n, rng)
    relax_beta = relax_beta and mixer == "hypercube"
    gammas = rng.uniform(-1.0, 1.0, (p, prob.masks.size) if relax_gamma else p)
    betas = rng.uniform(-1.0, 1.0, (p, n) if relax_beta else p)
    base = optimize._start(prob, lap, None)
    score = _scorer(objective, prob)

    def fun(x):
        g, b = x[: gammas.size].reshape(gammas.shape), x[gammas.size :].reshape(betas.shape)
        return score(_simulate(base, prob, lap, g, b))

    buffers = optimize._search_buffers(base.size)
    value, grad = optimize._value_and_grad(base, prob, lap, gammas, betas, score, buffers)
    x = np.concatenate([gammas.ravel(), betas.ravel()])
    assert value == fun(x) and grad.shape == x.shape
    np.testing.assert_allclose(grad, central_differences(fun, x), rtol=0, atol=1e-6)


def test_value_and_grad_keeps_psi_and_lambda_in_the_three_buffers(monkeypatch):
    """On a hypercube every state of the forward and backward passes is one
    of the search's three buffers: what else it allocates (the phase's index
    chunks, small arrays) stays under a quarter of a state."""
    prob, lap = maxcut_3regular(14, seed=2), WeightedHypercube((1.0, 0.5) * 7)
    base, score = optimize._start(prob, lap, None), _scorer(Gibbs(3.0), prob)
    buffers = optimize._search_buffers(base.size)
    gammas, betas = np.array([0.3, -0.2, 0.5]), np.array([0.9, 0.4, 0.1])
    optimize._value_and_grad(base, prob, lap, gammas, betas, score, buffers)  # block unitaries cached
    tracemalloc.start()
    try:
        optimize._value_and_grad(base, prob, lap, gammas, betas, score, buffers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (16 << prob.n) // 4


def quadratic(x):
    a = np.array([[3.0, 1.0, 0.0], [1.0, 2.0, 0.5], [0.0, 0.5, 1.0]])
    d = x - np.array([1.0, -2.0, 0.5])
    return float(d @ a @ d), 2.0 * (a @ d)


def rosenbrock(x):
    value = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2
    grad = np.array([-400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]), 200.0 * (x[1] - x[0] ** 2)])
    return value, grad


@pytest.mark.parametrize(
    "fun, x0, argmin",
    [(quadratic, np.zeros(3), [1.0, -2.0, 0.5]), (rosenbrock, np.array([-1.2, 1.0]), [1.0, 1.0])],
    ids=["quadratic", "rosenbrock"],
)
def test_bfgs_stops_by_gradient_tolerance(fun, x0, argmin):
    x, fx, reason = optimize.bfgs_minimize(fun, x0, 0.5, 1e-8, 500)
    assert reason == "gtol"
    assert np.abs(fun(x)[1]).max() < 1e-8 and fx == fun(x)[0]
    np.testing.assert_allclose(x, argmin, atol=1e-6)


def test_bfgs_reports_its_iteration_cap():
    x, fx, reason = optimize.bfgs_minimize(rosenbrock, np.array([-1.2, 1.0]), 0.5, 1e-8, 3)
    assert reason == "max_iters" and fx < rosenbrock(np.array([-1.2, 1.0]))[0]


@given(st.lists(angles, min_size=1, max_size=4), st.floats(1e-3, 2.0), st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_bfgs_never_ends_above_its_start(x0, step, max_iters):
    """A wavy function with many local minima: every accepted step lowers the
    value, and the returned value is fun of the returned x."""

    def wavy(x):
        return float(np.sum(np.cos(3 * x) + 0.1 * x**2)), -3 * np.sin(3 * x) + 0.2 * x

    x0 = np.array(x0)
    x, fx, reason = optimize.bfgs_minimize(wavy, x0, step, 1e-9, max_iters)
    assert fx <= wavy(x0)[0] and fx == wavy(x)[0]
    assert reason in ("gtol", "line search", "max_iters")


@pytest.mark.parametrize(
    "objective, smooth", [(Mean(), True), (Gibbs(3.0), True), (CVaR(0.3), False)], ids=["mean", "gibbs", "cvar"]
)
def test_searches_above_the_p1_grid_refine_by_gradient_for_mean_and_gibbs(monkeypatch, objective, smooth):
    routes = []
    refine = optimize._local_refine

    def spy(fun, x0, step, config, screen=None, gradient=False):
        routes.append(gradient)
        return refine(fun, x0, step, config, screen, gradient)

    monkeypatch.setattr(optimize, "_local_refine", spy)
    prob, lap = conflicted_pairs(4, 0.5, 3.0), WeightedHypercube((1.0, 0.5, 2.0, 1.0))
    config = SearchConfig(resolution=(6, 5), top_k=1, max_iters=20)
    optimize_schedule(prob, lap, 1, objective, config)
    assert routes == [False]  # a scalar p=1 search keeps compass
    optimize_schedule(prob, lap, 2, objective, config)
    assert routes[1:] == [False, smooth, smooth]  # its p=1 stage, then the ramp and embed starts
    optimize_relaxed_schedule(prob, lap, objective, config, relax="both", warm=Schedule([0.3], [0.4]))
    assert routes[-1] == smooth


def test_relaxed_search_returns_the_public_value_of_its_schedule():
    prob, lap, _ = random_relaxed_instance(6, seed=3)
    for relax in ("gamma", "beta", "both"):
        sched, val = optimize_relaxed_schedule(prob, lap, Gibbs(3.0), FAST, relax=relax)
        assert val == evaluate_schedule(prob, lap, sched, Gibbs(3.0))


def test_relaxed_rejects_unknown_mode():
    prob = uncoupled_spins(2, "binary", seed=0)
    with pytest.raises(ConfigError):
        optimize_relaxed_schedule(prob, hypercube(2), Mean(), FAST, relax="nope")


def test_beta_branch_pair_is_value_preserving_on_pair_terms():
    # shifting every beta by pi/2 flips all bits up to phase, and a pure
    # pair-coupling cost is flip symmetric
    prob = from_terms(4, [ZTerm((0, 1), 1.0), ZTerm((1, 2), -0.7), ZTerm((2, 3), 0.4)])
    lap = hypercube(4)
    for gamma in (0.3, 0.7, -1.1):
        lo = evaluate_schedule(
            prob, lap, Schedule([gamma], np.full((1, 4), np.pi / 4)), Mean()
        )
        hi = evaluate_schedule(
            prob, lap, Schedule([gamma], np.full((1, 4), 3 * np.pi / 4)), Mean()
        )
        assert lo == pytest.approx(hi, abs=1e-10)


def test_iterated_rounding_solves_uncoupled_binary():
    prob = uncoupled_spins(6, "binary", seed=9)
    solver = default_qaoa_solver(p=1, config=SearchConfig(resolution=(24, 24), top_k=2))
    assignment, trace = iterated_rounding(
        prob, solver, RoundingConfig(beta_r=1e3, n_f=6, seed=0)
    )
    z = int(sum(int(b) << q for q, b in enumerate(assignment)))
    assert prob.dense[z] == pytest.approx(prob.f_min, abs=1e-9)
    assert len(trace) == 6
    assert [s.iteration for s in trace] == list(range(6))
    for step in trace:
        assert step.success_prob > 0.99


def test_iterated_rounding_nf_zero_reads_argmax():
    vals = np.array([3.0, 2.0, 4.0, 1.0, 5.0, -1.0, 6.0, 0.0])
    prob = from_dense(3, vals)
    solver = lambda sub: basis_state(sub.n, 5)
    assignment, trace = iterated_rounding(prob, solver, RoundingConfig(n_f=0))
    assert list(assignment) == [1, 0, 1]
    assert len(trace) == 1
    assert trace[0].qubit == -1 and trace[0].bit == -1
    assert trace[0].success_prob == pytest.approx(1.0)
    assert trace[0].value == pytest.approx(-1.0)


def test_iterated_rounding_trace_marginals_use_original_labels():
    prob = uncoupled_spins(4, "binary", seed=1)
    solver = default_qaoa_solver(p=1, config=SearchConfig(resolution=(12, 12), top_k=1))
    _, trace = iterated_rounding(prob, solver, RoundingConfig(beta_r=1e3, n_f=2, seed=3))
    frozen = set()
    for step in trace[:2]:
        assert set(step.marginals) == set(range(4)) - frozen
        frozen.add(step.qubit)
    # residual row covers whatever is left
    assert set(trace[2].marginals) == set(range(4)) - frozen


def test_iterated_rounding_rejects_nf_beyond_n():
    prob = uncoupled_spins(3, "binary", seed=0)
    with pytest.raises(ConfigError):
        iterated_rounding(prob, lambda sub: None, RoundingConfig(n_f=4))


def test_iterated_rounding_attaches_trace_to_solver_errors():
    prob = uncoupled_spins(4, "binary", seed=2)
    calls = {"k": 0}

    def solver(sub):
        if calls["k"] >= 2:
            raise RuntimeError("solver gave up")
        calls["k"] += 1
        return basis_state(sub.n, 0)

    with pytest.raises(RuntimeError) as exc_info:
        iterated_rounding(prob, solver, RoundingConfig(beta_r=1e3, n_f=4, seed=0))
    assert len(exc_info.value.rounding_trace) == 2


def test_iterated_rounding_deterministic_under_seed():
    prob = uncoupled_spins(5, "binary", seed=4)
    solver = default_qaoa_solver(p=1, config=SearchConfig(resolution=(12, 12), top_k=1))
    cfg = RoundingConfig(beta_r=50.0, n_f=5, seed=21)
    a1, t1 = iterated_rounding(prob, solver, cfg)
    a2, t2 = iterated_rounding(prob, solver, cfg)
    assert list(a1) == list(a2)
    assert [s.qubit for s in t1] == [s.qubit for s in t2]


def ground_mask_of_completions(original, frozen, keep):
    """Which sub-problem indices complete the frozen bits to a ground state of
    original, found by gathering original.dense at each completion's full
    index: a route independent of the sub.dense that iterated_rounding reads."""
    base = sum(bit << q for q, bit in frozen.items())
    idx = np.arange(1 << len(keep), dtype=np.int64)
    full = np.full(idx.size, base, dtype=np.int64)
    for j, q in enumerate(keep):
        full |= ((idx >> j) & 1) << q
    return original.dense[full] <= original.f_min + GROUND_TOL


ROUNDING_CASES = {
    "grid3x3": (grid_ferromagnet_2d(3, 3, j2=0.2), RoundingConfig(beta_r=10.0, n_f=5, seed=2)),
    "gaussian": (uncoupled_spins(7, "gaussian", seed=5), RoundingConfig(beta_r=10.0, n_f=7, seed=1)),
    # |+> ties every marginal, and this seed freezes qubit 2 to 1, which no
    # ground state has: the later sub-problems' minima are not the original's
    "wrong_freeze": (hamming_ramp(4), RoundingConfig(n_f=2, seed=0)),
}


@pytest.mark.parametrize("case", ROUNDING_CASES)
def test_rounding_success_prob_equals_the_mass_on_original_ground_completions(case):
    prob, rounding = ROUNDING_CASES[case]
    if case == "wrong_freeze":
        solve = lambda sub: plus_state(sub.n)
    else:
        solve = default_qaoa_solver(p=1, config=SearchConfig(resolution=(12, 12), top_k=1))
    solved = []

    def solver(sub):
        state = solve(sub)
        solved.append((sub, state.probabilities()))
        return state

    _, trace = iterated_rounding(prob, solver, rounding)
    assert len(trace) == len(solved) == rounding.n_f + (rounding.n_f < prob.n)
    frozen = {}
    for step, (sub, probs) in zip(trace, solved):
        mask = ground_mask_of_completions(prob, frozen, list(step.marginals))
        assert np.array_equal(sub.dense <= prob.f_min + GROUND_TOL, mask)
        assert step.success_prob == float(probs[mask].sum())
        if step.qubit >= 0:
            frozen[step.qubit] = step.bit
    assert trace[0].success_prob > 0
    assert (trace[-1].success_prob == 0) is (case == "wrong_freeze")


class FixedMarginal:
    """A one-qubit stand-in for a solver's state whose P(1) is exactly p1."""

    n = 1

    def __init__(self, p1):
        self.probs = np.array([1.0 - p1, p1])

    def probabilities(self):
        return self.probs


def test_iterated_rounding_treats_near_half_marginals_as_ties():
    # one ulp below 0.5, as kernel rounding leaves an exact 0.5 on symmetric
    # instances: the bit must be drawn as for 0.5 itself, not rounded down
    assert 0.5 - 5.6e-17 < 0.5
    prob = uncoupled_spins(1, "binary", seed=0)
    bits = {}
    for p1 in (0.5, 0.5 - 5.6e-17, 0.5 + 1e-13):
        solver = lambda sub, p1=p1: FixedMarginal(p1)
        bits[p1] = [
            iterated_rounding(prob, solver, RoundingConfig(n_f=1, seed=seed))[1][0].bit
            for seed in range(8)
        ]
    assert set(bits[0.5]) == {0, 1}
    assert bits[0.5 - 5.6e-17] == bits[0.5] == bits[0.5 + 1e-13]


def test_classical_restarts_always_solve_uncoupled():
    prob = uncoupled_spins(5, "binary", seed=8)
    assert classical_restart_baseline(prob, restarts=20, seed=0) == pytest.approx(1.0)


def test_classical_restart_rate_is_a_seeded_fraction():
    prob = conflicted_pairs(4, 0.5, 3.0)
    r1 = classical_restart_baseline(prob, restarts=16, seed=5)
    r2 = classical_restart_baseline(prob, restarts=16, seed=5)
    assert r1 == r2
    assert 0.0 <= r1 <= 1.0
    assert (r1 * 16) == pytest.approx(round(r1 * 16))
    with pytest.raises(ConfigError):
        classical_restart_baseline(prob, restarts=0)


CORE_MIXERS = {
    "hypercube": WeightedHypercube((0.5, 1.0, 0.0, 2.0)),
    "complete": CompleteGraph(4),
    "ballcut": BallCut(hypercube(4), center=5, radius=2),
}
CORE_OBJECTIVES = {"mean": Mean(), "gibbs": Gibbs(3.0)}


@pytest.fixture
def core_calls(monkeypatch):
    """Every call the search loops make to the raw core, with its result,
    recorded by a spy in optimize's namespace."""
    calls = []

    def spy(amps, problem, lap, gammas, betas, buffers=None):
        out = _simulate(amps, problem, lap, gammas, betas, buffers)
        # a search's result lives in its kept buffers, which the next simulation overwrites
        calls.append((amps, problem, lap, gammas.copy(), betas.copy(), out.copy()))
        return out

    monkeypatch.setattr(optimize, "_simulate", spy)
    return calls


def assert_core_calls_match_qaoa_state(calls):
    assert calls
    for start, prob, lap, gammas, betas, out in calls:
        initial = Statevector(prob.n, start)
        want = qaoa_state(prob, lap, Schedule(gammas, betas), initial=initial)
        assert out.tobytes() == want.amps.tobytes()


@pytest.mark.parametrize("with_initial", [False, True], ids=["plus", "initial"])
@pytest.mark.parametrize("obj_kind", sorted(CORE_OBJECTIVES))
@pytest.mark.parametrize("mixer", sorted(CORE_MIXERS))
def test_search_loops_on_the_raw_core_match_evaluate_schedule(
    core_calls, mixer, obj_kind, with_initial
):
    prob = conflicted_pairs(4, 0.5, 3.0)
    lap, obj = CORE_MIXERS[mixer], CORE_OBJECTIVES[obj_kind]
    initial = randomize_phases(ball_uniform_state(4, 5, 2), 11) if with_initial else None
    config = SearchConfig(resolution=(5, 4), top_k=2, max_iters=8)
    gammas, betas, table = _grid_scan_p1(prob, lap, _scorer(obj, prob), config, initial)
    for (i, g), (j, b) in itertools.product(enumerate(gammas), enumerate(betas)):
        assert table[i, j] == evaluate_schedule(prob, lap, Schedule([g], [b]), obj, initial)
    for p in (1, 2):
        sched, val = optimize_schedule(prob, lap, p, obj, config, initial=initial)
        assert val == evaluate_schedule(prob, lap, sched, obj, initial)
    if not with_initial:
        relaxations = ("gamma", "beta", "both") if mixer == "hypercube" else ("gamma",)
        for relax in relaxations:
            sched, val = optimize_relaxed_schedule(prob, lap, obj, config, relax=relax)
            assert val == evaluate_schedule(prob, lap, sched, obj)
    assert_core_calls_match_qaoa_state(core_calls)


@pytest.mark.parametrize("obj_kind", sorted(CORE_OBJECTIVES))
def test_rounding_solver_on_the_raw_core_matches_evaluate_schedule(core_calls, obj_kind):
    prob, obj = conflicted_pairs(4, 0.5, 3.0), CORE_OBJECTIVES[obj_kind]
    config = SearchConfig(resolution=(6, 5), top_k=1, max_iters=8)
    for p in (1, 2):
        solver = default_qaoa_solver(p=p, objective=obj, config=config)
        for frozen in ({}, {1: 0}):
            sub, _ = freeze(prob, frozen)
            state, lap = solver(sub), hypercube(sub.n)
            sched, value = optimize_schedule(sub, lap, p, obj, config)
            assert value == evaluate_schedule(sub, lap, sched, obj)
            assert state.amps.tobytes() == qaoa_state(sub, lap, sched).amps.tobytes()
    assert_core_calls_match_qaoa_state(core_calls)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("mixer", ["hypercube", "complete"])
def test_search_scores_its_states_in_three_kept_arrays(monkeypatch, mixer, p):
    scored, builds = [], []
    scorer = optimize._scorer

    def spy(*args):
        builds.append(args)
        score = scorer(*args)

        @functools.wraps(score)  # keeps the scorer's slope
        def recorded(amps):
            scored.append(amps)
            return score(amps)

        return recorded

    monkeypatch.setattr(optimize, "_scorer", spy)
    prob = conflicted_pairs(6, 0.5, 3.0)
    lap = hypercube(6) if mixer == "hypercube" else CompleteGraph(6)
    # five starts: from two, the closed-form screen of the hypercube p=1 search scores 23 states
    config = SearchConfig(resolution=(6, 5), top_k=5, max_iters=8)
    optimize_schedule(prob, lap, p, Mean(), config)
    # every scored array stays referenced, so no freed state can lend its address to a new one
    addresses = {amps.__array_interface__["data"][0] for amps in scored}
    assert len(scored) > 30 and len(addresses) <= 3
    assert len(builds) == 1  # the scan and the refinement share the search's one scorer


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("objective", [Mean(), Gibbs(), CVaR()], ids=["mean", "gibbs", "cvar"])
def test_search_peak_memory_stays_within_five_states(objective, p):
    """A search's own arrays at their peak. The problem's level table and the
    mixer's block unitaries are kept across searches, so an identical first
    search builds them before the traced one."""
    n = 14
    prob, lap = maxcut_3regular(n, seed=3), hypercube(n)
    config = SearchConfig(resolution=(8, 8), top_k=2, max_iters=6)
    optimize_schedule(prob, lap, p, objective, config)
    tracemalloc.start()
    try:
        optimize_schedule(prob, lap, p, objective, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * (16 << n)  # five complex128 states


TWIN_OBJECTIVES = {
    "mean": Mean(),
    "gibbs": Gibbs(3.0),
    "cvar": CVaR(0.3),
}
TWIN_WEIGHTS = {"ones": (1.0,) * 5, "ones_and_twos": (1.0, 2.0, 1.0, 2.0, 2.0)}
TWIN_STARTS = {"plus": None, "ball": ball_uniform_state(5, 6, 2)}


def twin_problem():
    """A table with every Walsh term, its values in [1, 3] so that each
    objective keeps well away from 0 and a relative bound means something."""
    return from_dense(5, np.random.default_rng(27).uniform(1.0, 3.0, 32))


@pytest.mark.parametrize("start", sorted(TWIN_STARTS))
@pytest.mark.parametrize("weights", sorted(TWIN_WEIGHTS))
@pytest.mark.parametrize("obj_kind", sorted(TWIN_OBJECTIVES))
def test_time_reversal_twins_take_the_same_value(obj_kind, weights, start):
    # psi(-gamma, pi - beta) = +-conj psi(gamma, beta) on integer weights from a real start
    prob, lap = twin_problem(), WeightedHypercube(TWIN_WEIGHTS[weights])
    obj, initial = TWIN_OBJECTIVES[obj_kind], TWIN_STARTS[start]
    assert optimize._has_twins(lap, initial)
    rng = np.random.default_rng(3)
    for g, b in zip(rng.uniform(*GAMMA_RANGE, 6), rng.uniform(*BETA_RANGE, 6)):
        value = evaluate_schedule(prob, lap, Schedule([g], [b]), obj, initial)
        twin = evaluate_schedule(prob, lap, Schedule([-g], [math.pi - b]), obj, initial)
        assert twin == pytest.approx(value, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("resolution", [(7, 6), (6, 5)])
@pytest.mark.parametrize("start", sorted(TWIN_STARTS))
@pytest.mark.parametrize("obj_kind", ["mean", "cvar"])
def test_filled_scan_entries_match_their_twins_and_own_points(obj_kind, start, resolution):
    prob, lap = twin_problem(), WeightedHypercube(TWIN_WEIGHTS["ones_and_twos"])
    obj, initial = TWIN_OBJECTIVES[obj_kind], TWIN_STARTS[start]
    config = SearchConfig(resolution=resolution)
    gammas, betas, table = _grid_scan_p1(prob, lap, _scorer(obj, prob), config, initial)
    rows = (gammas.size + 1) // 2
    for (i, g), (j, b) in itertools.product(enumerate(gammas), enumerate(betas)):
        own = evaluate_schedule(prob, lap, Schedule([g], [b]), obj, initial)
        if i < rows:  # simulated: the bytes of evaluate_schedule
            assert table[i, j] == own
        else:
            assert table[i, j] == table[gammas.size - 1 - i, betas.size - 1 - j]
            assert table[i, j] == pytest.approx(own, rel=1e-13, abs=0.0)


@pytest.fixture
def phases(monkeypatch):
    """The gammas of every phase the scan applies, by a spy in optimize's namespace."""
    calls = []

    def spy(amps, values, gamma, index=None, out=None):
        calls.append(gamma)
        return _phase(amps, values, gamma, index, out)

    monkeypatch.setattr(optimize, "_phase", spy)
    return calls


FULL_SCANS = {
    "complex_start": (
        WeightedHypercube((1.0, 2.0, 1.0, 1.0)),
        randomize_phases(ball_uniform_state(4, 5, 2), 11),
    ),
    "fractional_weights": (WeightedHypercube((0.5, 1.0, 0.0, 2.0)), None),
    "ball_cut": (BallCut(hypercube(4), center=5, radius=2), None),
    "complete_graph": (CompleteGraph(4), None),
}


@pytest.mark.parametrize("case", ["twins", *sorted(FULL_SCANS)])
@pytest.mark.parametrize("gamma_points", [7, 6])
def test_scan_phases_half_the_rows_only_on_the_twin_route(phases, case, gamma_points):
    prob = conflicted_pairs(4, 0.5, 3.0)
    lap, initial = FULL_SCANS.get(case, (WeightedHypercube((1.0, 2.0, 0.0, 1.0)), None))
    config = SearchConfig(resolution=(gamma_points, 5))
    gammas, _, _ = _grid_scan_p1(prob, lap, _scorer(Mean(), prob), config, initial)
    assert optimize._has_twins(lap, initial) == (case == "twins")
    rows = math.ceil(gamma_points / 2) if case == "twins" else gamma_points
    assert phases == list(gammas[:rows])


def test_twin_starts_are_refined_once(monkeypatch):
    calls = []
    refine = optimize._local_refine

    def spy(fun, x0, step, config, screen=None, gradient=False):
        calls.append(x0)
        return refine(fun, x0, step, config, screen, gradient)

    monkeypatch.setattr(optimize, "_local_refine", spy)
    prob, lap, obj = grid_ferromagnet_2d(2, 3), hypercube(6), Gibbs(3.0)
    config = SearchConfig(resolution=(8, 8), top_k=4, max_iters=20)
    _, _, table = _grid_scan_p1(prob, lap, _scorer(obj, prob), config, None)
    top = np.argsort(table, axis=None, kind="stable")[: config.top_k].tolist()
    distinct = [k for pos, k in enumerate(top) if table.size - 1 - k not in top[:pos]]
    assert len(distinct) < config.top_k  # the top entries hold a twin pair
    sched, val = optimize_schedule(prob, lap, 1, obj, config)
    assert len(calls) == len(distinct)
    assert val == evaluate_schedule(prob, lap, sched, obj)


def fields_and_couplings():
    """A constant, fields, couplings, and the masks of (1,) and (0, 1) twice."""
    terms = [
        ((), 0.7), ((0,), 0.3), ((1,), -1.1), ((0, 1), 0.4), ((1, 2), -0.8), ((0, 1), 0.25),
        ((2, 4), 1.3), ((3,), 0.5), ((0, 5), -0.6), ((1,), 0.2), ((), -0.1),
    ]
    return from_terms(6, [ZTerm(qs, c) for qs, c in terms])


# every family whose terms act on at most two qubits, n <= 12
CLOSED_FORM_PROBLEMS = {
    "uncoupled": lambda: uncoupled_spins(8, "gaussian", 1),
    "ramp": lambda: hamming_ramp(8),
    "chain": lambda: chain_detuned(9, 0.5),
    "fisher": lambda: fisher_chain(9, 2),
    "grid": lambda: grid_ferromagnet_2d(3, 3),
    "maxcut": lambda: maxcut_3regular(12, seed=1),
    "maxcut_j2": lambda: maxcut_3regular(12, j2=0.3, seed=1),
    "bush": lambda: bush(9),
    "conflicted": lambda: conflicted_pairs(8),
    "terms": fields_and_couplings,
    "frozen": lambda: freeze(maxcut_3regular(12, seed=4), {0: 1, 5: 0, 7: 1})[0],
}
CLOSED_FORM_WEIGHTS = {"ones": None, "unequal_and_zero": (0.5, 2.0, 0.0, 1.25, 1.0, 3.0)}


def closed_form_error(prob, lap, gammas, betas, values):
    """The largest gap between values and the simulated Mean at the points
    (gammas[k], betas[k]), per unit of sum |c|."""
    simulated = [evaluate_schedule(prob, lap, Schedule([g], [b]), Mean()) for g, b in zip(gammas, betas)]
    return np.abs(np.asarray(values) - simulated).max() / np.abs(prob.coeffs).sum()


@pytest.mark.parametrize("weights", sorted(CLOSED_FORM_WEIGHTS))
@pytest.mark.parametrize("family", sorted(CLOSED_FORM_PROBLEMS))
def test_p1_mean_closed_form_matches_the_simulation(family, weights):
    prob = CLOSED_FORM_PROBLEMS[family]()
    b = CLOSED_FORM_WEIGHTS[weights]
    lap = hypercube(prob.n) if b is None else WeightedHypercube(np.resize(b, prob.n))
    assert optimize._screen(prob, lap, Mean(), None) is not None
    grid, at = _p1_mean_closed_form(prob, lap.b)
    gammas, betas = np.linspace(*GAMMA_RANGE, 5), np.linspace(*BETA_RANGE, 4)
    pairs = np.array(list(itertools.product(gammas, betas))).T
    assert closed_form_error(prob, lap, *pairs, grid(gammas, betas).ravel()) <= 1e-13
    rng = np.random.default_rng(7)
    points = rng.uniform(*GAMMA_RANGE, 6), rng.uniform(*BETA_RANGE, 6)
    assert closed_form_error(prob, lap, *points, at(*points)) <= 1e-13


def test_p1_mean_closed_form_matches_the_simulation_at_n20():
    prob, lap = maxcut_3regular(20, seed=5), hypercube(20)
    _, at = _p1_mean_closed_form(prob, lap.b)
    gammas, betas = np.array([-2.1, 0.37, 1.4]), np.array([0.3, 2.9, 1.1])
    assert closed_form_error(prob, lap, gammas, betas, at(gammas, betas)) <= 1e-13


GRID_SHAPES = {4: (2, 2), 6: (2, 3), 9: (3, 3), 12: (3, 4)}
# (family, n): flip-invariant costs, whose table takes the even shells of the
# lower half, and costs with fields, whose table takes every shell: a grid with
# a field on qubit 0, and the ramp, whose f_min = 0 gives the smallest margin
WALSH_CASES = [
    *[("grid", n) for n in GRID_SHAPES],
    *[("maxcut", n) for n in (4, 6, 12)],  # no 3-regular graph has 9 vertices
    *[("field", n) for n in GRID_SHAPES],
    *[("ramp", n) for n in GRID_SHAPES],
]


def walsh_problem(family, n):
    if family == "maxcut":
        return maxcut_3regular(n, seed=1)
    if family == "ramp":
        return hamming_ramp(n)
    prob = grid_ferromagnet_2d(*GRID_SHAPES[n], j2=0.6)
    return prob if family == "grid" else from_terms(n, [*prob.terms, ZTerm((0,), 0.7)])


@pytest.mark.parametrize("eta", [3.0, 20.0])
@pytest.mark.parametrize("b", [1.0, 0.75])
@pytest.mark.parametrize(("family", "n"), WALSH_CASES)
def test_p1_gibbs_walsh_table_matches_the_simulation(monkeypatch, family, n, b, eta):
    """-g from the Walsh-shell table against the g of evaluate_schedule's value
    at every point of a grid, g = exp(-value - shift): the gap stays below a
    thousandth of the screen's margin. b = 1 has time-reversal twins, 0.75
    has none."""
    prob, lap, obj = walsh_problem(family, n), WeightedHypercube((b,) * n), Gibbs(eta)
    shapes = []
    walsh = optimize._walsh

    def spy(rows, work):
        shapes.append(rows.shape)
        return walsh(rows, work)

    monkeypatch.setattr(optimize, "_walsh", spy)
    grid, at, margin = optimize._screen(prob, lap, obj, None)
    assert at is None
    gammas, betas = np.linspace(*GAMMA_RANGE, 5), np.linspace(*BETA_RANGE, 4)
    table = grid(gammas, betas)
    flip_invariant = family in ("grid", "maxcut")
    assert np.array_equal(prob.dense, prob.dense[::-1]) == flip_invariant
    # even shells of the half: n // 2 + 1 of 2^(n-1) entries; every shell: n + 1 of 2^n
    shells, size = (n // 2 + 1, 1 << (n - 1)) if flip_invariant else (n + 1, 1 << n)
    assert set(shapes) == {(2, size), (2 * shells, size)}
    shift = float((-eta * prob.dense).max())
    for (i, g), (j, beta) in itertools.product(enumerate(gammas), enumerate(betas)):
        value = evaluate_schedule(prob, lap, Schedule([g], [beta]), obj)
        assert abs(table[i, j] + math.exp(-value - shift)) <= margin / 1000


def test_walsh_screen_declines_past_its_byte_cap():
    """Flip-invariant costs fit up to n = 13 (the half's table), others up to
    n = 12; a hypercube with unequal weights is never taken."""
    gibbs = Gibbs(20.0)
    for n, fits in ((12, True), (13, True), (14, False)):
        prob = grid_ferromagnet_2d(1, n)
        assert (optimize._screen(prob, hypercube(n), gibbs, None) is not None) == fits
    for n, fits in ((12, True), (13, False)):
        prob = from_terms(n, [*grid_ferromagnet_2d(1, n).terms, ZTerm((0,), 0.7)])
        assert (optimize._screen(prob, hypercube(n), gibbs, None) is not None) == fits
    unequal = WeightedHypercube((1.0,) * 5 + (2.0,))
    assert optimize._screen(grid_ferromagnet_2d(2, 3), unequal, gibbs, None) is None


@pytest.mark.parametrize("family", ["grid", "field"])
def test_walsh_screen_arrays_stay_within_their_stated_bytes(family):
    """(17 S + 56) bytes per entry of the table, S its shells (WALSH_SCREEN_BYTES),
    plus numpy's iterator buffers (8192 entries an operand) and the phase's
    gather chunk, which do not grow with n."""
    prob, lap = walsh_problem(family, 12), hypercube(12)
    grid, _, _ = optimize._screen(prob, lap, Gibbs(20.0), None)
    gammas, betas = np.linspace(*GAMMA_RANGE, 6), np.linspace(*BETA_RANGE, 48)
    grid(gammas, betas)  # builds the problem's level table, kept across searches
    tracemalloc.start()
    try:
        grid(gammas, betas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    shells, size = (7, 1 << 11) if family == "grid" else (13, 1 << 12)
    stated = (17 * shells + 56) * size
    assert peak <= stated + (256 << 10) and stated <= optimize.WALSH_SCREEN_BYTES


@pytest.fixture
def routes(monkeypatch):
    """What optimize_schedule does, by spies: whether each of its calls to
    _grid_scan_p1 passed a screen ("screened"), and how many states the
    scorers it builds score ("states")."""
    seen = {"screened": [], "states": 0}
    scan, scorer = optimize._grid_scan_p1, optimize._scorer

    def scan_spy(*args, screen=None):
        seen["screened"].append(screen is not None)
        return scan(*args, screen=screen)

    def scorer_spy(*args):
        score = scorer(*args)

        @functools.wraps(score)  # keeps the scorer's slope
        def counted(amps):
            seen["states"] += 1
            return score(amps)

        return counted

    monkeypatch.setattr(optimize, "_grid_scan_p1", scan_spy)
    monkeypatch.setattr(optimize, "_scorer", scorer_spy)
    return seen


def both_routes(monkeypatch, routes, prob, lap, p, config, objective):
    """The search's (schedule, value) with its screen, then with _screen off,
    and the states each route scored."""
    screened = optimize_schedule(prob, lap, p, objective, config)
    states = routes["states"]
    monkeypatch.setattr(optimize, "_screen", lambda *args: None)
    full = optimize_schedule(prob, lap, p, objective, config)
    assert routes["screened"] == [True, False]
    (sched, value), (want, want_value) = screened, full
    assert sched.gammas.tobytes() == want.gammas.tobytes()
    assert sched.betas.tobytes() == want.betas.tobytes()
    assert np.float64(value).tobytes() == np.float64(want_value).tobytes()
    return states, routes["states"] - states


ROUTE_CASES = {
    # (problem, mixer, resolution), searched for the Mean. The 7x7 grid holds
    # points of the cost's symmetries, whose values tie up to last bits.
    "maxcut": lambda: (maxcut_3regular(6, seed=0), hypercube(6), (7, 7)),
    # many exact ties: the value is a function of (gamma, beta) summed over equal spins
    "equal_fields": lambda: (from_terms(6, [ZTerm((q,), 1.0) for q in range(6)]), hypercube(6), (7, 7)),
    # no fields: a compass probe can tie its centre
    "grid": lambda: (grid_ferromagnet_2d(3, 3), hypercube(9), (12, 10)),
    # no time-reversal twins
    "fractional_b": lambda: (
        chain_detuned(6, 0.5), WeightedHypercube((0.5, 1.0, 1.5, 0.0, 2.0, 0.75)), (12, 10)
    ),
    # sum |c| = 1.2e7: both routes round phases near 4e7, so the gap grows with (sum |c|)^2
    "large_coefficients": lambda: (
        scaled(maxcut_3regular(8, j2=0.3, seed=2), 1e6), hypercube(8), (12, 10)
    ),
}
# Gibbs searches on the Walsh screen: the maxcut and grid above, and a chain
# with a field and every weight 0.5 (no time-reversal twins, every shell)
GIBBS_ROUTE_CASES = {
    "maxcut": ROUTE_CASES["maxcut"],
    "grid": ROUTE_CASES["grid"],
    "half_b": lambda: (
        from_terms(6, [*chain_detuned(6, 0.5).terms, ZTerm((2,), 0.4)]), WeightedHypercube((0.5,) * 6), (12, 10)
    ),
}
ROUTE_OBJECTIVES = {f"gibbs{eta}_{name}": Gibbs(float(eta)) for eta in (3, 20) for name in GIBBS_ROUTE_CASES}
ROUTE_CASES.update({key: GIBBS_ROUTE_CASES[key.split("_", 1)[1]] for key in ROUTE_OBJECTIVES})


def scaled(prob, factor):
    """prob with every coefficient times factor, and a field on qubit 0."""
    terms = [ZTerm(t.qubits, t.coeff * factor) for t in prob.terms]
    return from_terms(prob.n, [*terms, ZTerm((0,), 0.7 * factor)])


@pytest.mark.parametrize("top_k", [1, 3, 5])
@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("case", sorted(ROUTE_CASES))
def test_screened_search_returns_the_bytes_of_the_full_search(monkeypatch, routes, case, p, top_k):
    prob, lap, resolution = ROUTE_CASES[case]()
    config = SearchConfig(resolution=resolution, top_k=top_k, max_iters=40)
    screened, full = both_routes(monkeypatch, routes, prob, lap, p, config, ROUTE_OBJECTIVES.get(case, Mean()))
    assert screened <= full


def test_screen_scores_a_pinned_count_of_states(monkeypatch, routes):
    # a screen that went off unnoticed would score the full route's 551 states
    prob, lap = maxcut_3regular(12, seed=1), hypercube(12)
    config = SearchConfig(resolution=(16, 16), top_k=5, max_iters=40)
    assert both_routes(monkeypatch, routes, prob, lap, 1, config, Mean()) == (65, 551)


def test_gibbs_screen_scores_a_pinned_count_of_states(monkeypatch, routes):
    # a screen that went off unnoticed would score the full route's 543 states; the
    # compass trials are not screened, so the 125 left out are all scan entries
    prob, lap = grid_ferromagnet_2d(3, 4, j2=0.6), hypercube(12)
    config = SearchConfig(resolution=(16, 16), top_k=5, max_iters=40)
    assert both_routes(monkeypatch, routes, prob, lap, 1, config, Gibbs(20.0)) == (418, 543)


def test_screened_scan_simulates_its_top_k_and_leaves_inf_elsewhere():
    prob, lap = maxcut_3regular(12, seed=1), hypercube(12)
    config, score = SearchConfig(resolution=(16, 16), top_k=5), _scorer(Mean(), prob)
    screen = optimize._screen(prob, lap, Mean(), None)
    _, _, full = _grid_scan_p1(prob, lap, score, config, None)
    _, _, table = _grid_scan_p1(prob, lap, score, config, None, screen=screen)
    kept = np.isfinite(table)
    assert 0 < kept.sum() < table.size and np.isfinite(full).all()
    assert table[kept].tobytes() == full[kept].tobytes()
    assert kept.flat[np.argsort(full, axis=None, kind="stable")[: config.top_k]].all()


FULL_SCAN_SEARCHES = {
    # the Walsh screen takes a Gibbs search only on a hypercube with equal weights
    "gibbs": (Gibbs(3.0), WeightedHypercube((1.0, 2.0, 1.0, 1.0, 1.0)), None),
    "cvar": (CVaR(0.3), hypercube(5), None),
    "ball_start": (Mean(), hypercube(5), ball_uniform_state(5, 6, 2)),
    "ball_cut": (Mean(), BallCut(hypercube(5), center=5, radius=2), None),
    "complete_graph": (Mean(), CompleteGraph(5), None),
}


@pytest.mark.parametrize("case", [*sorted(FULL_SCAN_SEARCHES), "weight_three_term"])
def test_searches_outside_the_screen_scan_the_full_grid(routes, case):
    prob = fisher_chain(5, 1)
    objective, lap, initial = FULL_SCAN_SEARCHES.get(case, (Mean(), hypercube(5), None))
    if case == "weight_three_term":
        prob = from_terms(5, [*prob.terms, ZTerm((0, 2, 4), 0.5)])
    assert optimize._screen(prob, lap, objective, initial) is None
    optimize_schedule(prob, lap, 1, objective, SearchConfig(resolution=(6, 5), top_k=2, max_iters=4), initial)
    assert routes["screened"] == [False]
