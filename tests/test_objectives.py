import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from conftest import small_problems
from qlow.errors import ConfigError
from qlow.laplacians import hypercube
from qlow.objectives import (
    CVaR,
    Gibbs,
    Mean,
    approximation_ratio,
    _scorer,
    evaluate,
    improvement_proxy,
    mean_via_terms,
)
from qlow.optimize import SearchConfig, optimize_schedule
from qlow.problems import ZTerm, from_dense, from_terms, uncoupled_spins
from qlow.statevector import Statevector, basis_state, plus_state


@st.composite
def problem_state_pairs(draw, max_n=4):
    prob = draw(small_problems(max_n=max_n))
    dim = 1 << prob.n
    re = draw(st.lists(st.floats(-1, 1, allow_nan=False), min_size=dim, max_size=dim))
    im = draw(st.lists(st.floats(-1, 1, allow_nan=False), min_size=dim, max_size=dim))
    amps = np.array(re) + 1j * np.array(im)
    norm = np.linalg.norm(amps)
    if norm < 1e-9:
        amps = np.ones(dim, dtype=complex)
        norm = np.sqrt(dim)
    return prob, Statevector(prob.n, amps / norm)


def state_from_probs(probs):
    probs = np.asarray(probs, dtype=np.float64)
    n = int(np.log2(len(probs)))
    return Statevector(n, np.sqrt(probs).astype(complex))


def cvar_dual_oracle(probs, values, alpha):
    """Lower-tail CVaR via its concave dual, max_t [t - E[(t-f)+]/alpha].

    The dual is piecewise linear with kinks only at the atoms of f, so
    scanning t over the atom values is exact. Shares no code with the
    quantile-accumulation route in evaluate().
    """
    best = -np.inf
    for t in values:
        best = max(best, t - float(probs @ np.maximum(t - values, 0.0)) / alpha)
    return best


@given(problem_state_pairs())
@settings(max_examples=60, deadline=None)
def test_mean_matches_plain_sum(pair):
    prob, state = pair
    brute = float(np.abs(state.amps) ** 2 @ prob.dense)
    assert evaluate(Mean(), state, prob) == pytest.approx(brute, abs=1e-12)


@given(problem_state_pairs())
@settings(max_examples=60, deadline=None)
def test_mean_term_route_agrees_with_dense_route(pair):
    prob, state = pair
    dense_route = evaluate(Mean(), state, prob)
    term_route = mean_via_terms(prob, state)
    assert term_route == pytest.approx(dense_route, abs=1e-9)


@given(problem_state_pairs(), st.floats(min_value=0.05, max_value=40.0))
@settings(max_examples=60, deadline=None)
def test_gibbs_matches_logsumexp_oracle(pair, eta):
    prob, state = pair
    probs = state.probabilities()
    keep = probs > 0
    oracle = -float(logsumexp(-eta * prob.dense[keep], b=probs[keep]))
    got = evaluate(Gibbs(eta), state, prob)
    assert got == pytest.approx(oracle, abs=1e-9)


@given(problem_state_pairs(), st.floats(min_value=0.05, max_value=40.0))
@settings(max_examples=60, deadline=None)
def test_gibbs_sits_between_softmin_bounds(pair, eta):
    # Jensen: eta*f_min <= -log<e^{-eta f}> <= eta*<f>
    prob, state = pair
    g = evaluate(Gibbs(eta), state, prob)
    mean = evaluate(Mean(), state, prob)
    assert g >= eta * prob.f_min - 1e-8
    assert g <= eta * mean + 1e-8


def test_gibbs_large_eta_approaches_ground_energy():
    vals = np.array([0.0, 3.0, 5.0, 7.0])
    state = state_from_probs([0.1, 0.3, 0.3, 0.3])
    prob = from_dense(2, vals)
    eta = 1e3
    g = evaluate(Gibbs(eta), state, prob) / eta
    # soft-min correction is -log(p_ground)/eta
    assert g == pytest.approx(0.0 - np.log(0.1) / eta, abs=1e-12)


def test_gibbs_validation():
    with pytest.raises(ConfigError):
        Gibbs(0.0)
    with pytest.raises(ConfigError):
        Gibbs(-2.0)


@given(problem_state_pairs(), st.floats(min_value=0.01, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_cvar_matches_dual_oracle(pair, alpha):
    prob, state = pair
    oracle = cvar_dual_oracle(state.probabilities(), prob.dense, alpha)
    got = evaluate(CVaR(alpha), state, prob)
    assert got == pytest.approx(oracle, abs=1e-8)


def test_cvar_fractional_boundary_atom():
    # lowest 0.35 of mass = all of the -2 atom (0.2) plus 0.15 of the 0 atom
    state = state_from_probs([0.3, 0.2, 0.4, 0.1])
    prob = from_dense(2, np.array([1.0, -2.0, 0.0, 3.0]))
    got = evaluate(CVaR(0.35), state, prob)
    assert got == pytest.approx((0.2 * -2.0 + 0.15 * 0.0) / 0.35, abs=1e-12)


@given(problem_state_pairs())
@settings(max_examples=40, deadline=None)
def test_cvar_alpha_one_is_mean(pair):
    prob, state = pair
    assert evaluate(CVaR(1.0), state, prob) == pytest.approx(
        evaluate(Mean(), state, prob), abs=1e-9
    )


@given(small_problems(max_n=4), st.floats(min_value=0.01, max_value=1.0))
@settings(max_examples=40, deadline=None)
def test_cvar_on_basis_state_is_its_value(prob, alpha):
    z = prob.n  # arbitrary fixed index within range
    state = basis_state(prob.n, z)
    assert evaluate(CVaR(alpha), state, prob) == pytest.approx(
        float(prob.dense[z]), abs=1e-12
    )


@given(
    problem_state_pairs(),
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=0.001, max_value=0.99),
)
@settings(max_examples=60, deadline=None)
def test_cvar_monotone_in_alpha(pair, alpha, shrink):
    prob, state = pair
    smaller = alpha * shrink
    assert evaluate(CVaR(smaller), state, prob) <= evaluate(
        CVaR(alpha), state, prob
    ) + 1e-9


def test_cvar_validation():
    with pytest.raises(ConfigError):
        CVaR(0.0)
    with pytest.raises(ConfigError):
        CVaR(1.2)


@given(problem_state_pairs(), st.sampled_from([Mean(), Gibbs(0.5), Gibbs(3.0)]), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_scorer_slope_is_the_derivative_in_the_probabilities(pair, objective, seed):
    """factor * table, the slope at the state scored last, against a central
    difference of the objective along a random direction d in the
    probabilities, one that scales each entry so that none turns negative."""
    prob, state = pair
    probs = state.probabilities()
    d = probs * np.random.default_rng(seed).uniform(-1.0, 1.0, probs.size)
    h = 1e-6
    score = _scorer(objective, prob)
    shifted = [score(np.sqrt(probs + sign * h * d) + 0j) for sign in (1.0, -1.0)]
    score(state.amps)
    table, factor = score.slope()
    want = (shifted[0] - shifted[1]) / (2 * h)
    assert factor * float(table @ d) == pytest.approx(want, rel=1e-5, abs=1e-5 * max(1.0, abs(want)))


def test_approximation_ratio_endpoints():
    prob = from_dense(2, np.array([-1.0, 3.0, 0.5, 1.0]))
    assert approximation_ratio(prob, prob.f_min) == pytest.approx(1.0)
    assert approximation_ratio(prob, prob.f_max) == pytest.approx(0.0)
    mid = 0.5 * (prob.f_min + prob.f_max)
    assert approximation_ratio(prob, mid) == pytest.approx(0.5)


def test_approximation_ratio_rejects_constant_problem():
    prob = from_terms(3, [ZTerm((), 4.0)])
    with pytest.raises(ConfigError):
        approximation_ratio(prob, 4.0)


@given(problem_state_pairs())
@settings(max_examples=40, deadline=None)
def test_ratio_of_any_mean_lies_in_unit_interval(pair):
    prob, state = pair
    if prob.f_max - prob.f_min <= 0:
        return
    r = approximation_ratio(prob, evaluate(Mean(), state, prob))
    assert -1e-9 <= r <= 1 + 1e-9


def test_improvement_proxy_exact_solver_scores_one():
    prob = uncoupled_spins(5, "binary", seed=3)
    result = improvement_proxy(plus_state(5), prob, hypercube(5), -np.pi / 4, np.pi / 4)
    assert result.value == pytest.approx(1.0, abs=1e-9)
    assert result.final_mass == pytest.approx(1.0, abs=1e-9)
    assert result.initial_mass == pytest.approx(2.0**-5, abs=1e-12)
    assert not result.degenerate


def test_improvement_proxy_identity_angles_score_zero():
    prob = uncoupled_spins(4, "binary", seed=0)
    result = improvement_proxy(plus_state(4), prob, hypercube(4), 0.0, 0.0)
    assert abs(result.value) < 1e-12


def test_improvement_proxy_flags_degenerate_minima():
    two_grounds = from_dense(2, np.array([0.0, 0.0, 1.0, 2.0]))
    result = improvement_proxy(plus_state(2), two_grounds, hypercube(2), 0.1, 0.1)
    assert result.degenerate


def test_improvement_proxy_rejects_size_mismatch():
    prob = uncoupled_spins(3, "binary", seed=0)
    with pytest.raises(ValueError):
        improvement_proxy(plus_state(4), prob, hypercube(4), 0.0, 0.0)


def test_improvement_proxy_with_a_searched_round_solves_uncoupled():
    prob, lap, init = uncoupled_spins(4, "binary", seed=11), hypercube(4), plus_state(4)
    sched, _ = optimize_schedule(prob, lap, 1, Mean(), SearchConfig(), initial=init)
    result = improvement_proxy(init, prob, lap, float(sched.gammas[0]), float(sched.betas[0]))
    assert result.value > 0.9
