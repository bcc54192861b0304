import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qlow.errors import ConfigError
from qlow.laplacians import (
    BallCut,
    CompleteGraph,
    WeightedHypercube,
    ball_uniform_state,
    custom_from_edges,
    evolve,
    hypercube,
    hypercube_rotation,
    randomize_phases,
)
from qlow.ansatz import (
    Schedule,
    meanfield_evolve,
    meanfield_plus,
    meanfield_step,
    multilinear_gradient,
    multilinear_value,
    product_overlap,
    product_z_expectations,
    qaoa_state,
)
from qlow.problems import (
    conflicted_pairs,
    from_terms,
    hamming_ramp,
    uncoupled_spins,
    ZTerm,
)
from qlow.objectives import Mean
from qlow.optimize import SearchConfig, optimize_schedule
from qlow.statevector import Statevector, apply_phase, ground_state_mass, plus_state

from conftest import angles, small_problems

X = np.array([[0.0, 1.0], [1.0, 0.0]])


def kron_x(n, i):
    mat = np.array([[1.0]])
    for q in range(n - 1, -1, -1):
        mat = np.kron(mat, X if q == i else np.eye(2))
    return mat


def product_state(thetas: np.ndarray) -> Statevector:
    """Tensor product of per-qubit states cos(theta)|0> + sin(theta)|1>."""
    thetas = np.asarray(thetas, dtype=np.float64)
    n = thetas.shape[0]
    amps = np.array([1.0 + 0.0j])
    for i in range(n - 1, -1, -1):
        # qubit 0 is the least significant bit, hence the last kron factor
        amps = np.kron(amps, np.array([np.cos(thetas[i]), np.sin(thetas[i])]))
    return Statevector(n, amps)


def dense_qaoa_oracle(problem, gammas, betas):
    """Full-matrix reference: diag phases and expm mixers, innermost first."""
    n = problem.n
    gen = sum(kron_x(n, i) for i in range(n))
    psi = np.full(1 << n, 2.0 ** (-n / 2), dtype=complex)
    for g, b in zip(gammas, betas):
        psi = np.exp(-1j * g * problem.dense) * psi
        psi = expm(-1j * b * gen) @ psi
    return psi


@settings(max_examples=25, deadline=None)
@given(small_problems(max_n=4), st.lists(angles, min_size=1, max_size=3), st.data())
def test_qaoa_state_matches_dense_oracle(problem, gammas, data):
    betas = [data.draw(angles) for _ in gammas]
    sched = Schedule(np.array(gammas), np.array(betas))
    state = qaoa_state(problem, hypercube(problem.n), sched)
    oracle = dense_qaoa_oracle(problem, gammas, betas)
    np.testing.assert_allclose(state.amps, oracle, atol=1e-10)


def test_uncoupled_binary_exact_for_every_seed():
    # (gamma, beta) = (-pi/4, pi/4) solves every +-1 uncoupled instance, n <= 10
    sched = Schedule([-np.pi / 4], [np.pi / 4])
    for n in (2, 5, 10):
        for seed in range(8):
            prob = uncoupled_spins(n, "binary", seed)
            state = qaoa_state(prob, hypercube(n), sched)
            assert ground_state_mass(state, prob.dense) == pytest.approx(1.0, abs=1e-9)


def test_qaoa_initial_state_override():
    prob = hamming_ramp(3)
    init = plus_state(3)
    a = qaoa_state(prob, hypercube(3), Schedule([0.3], [0.4]))
    b = qaoa_state(prob, hypercube(3), Schedule([0.3], [0.4]), initial=init)
    np.testing.assert_allclose(a.amps, b.amps)
    with pytest.raises(ValueError):
        qaoa_state(prob, hypercube(3), Schedule([0.3], [0.4]), initial=plus_state(2))


def public_chain(problem, lap, schedule, initial=None):
    """qaoa_state rebuilt from the checked public operations, one state per step."""
    state = plus_state(problem.n) if initial is None else initial
    for k in range(schedule.rounds):
        if schedule.gamma_relaxed:
            state = apply_phase(state, schedule.gammas[k] @ problem.term_tables(), 1.0)
        else:
            state = apply_phase(state, problem.dense, float(schedule.gammas[k]))
        if schedule.beta_relaxed:
            state = hypercube_rotation(state, schedule.betas[k] * np.asarray(lap.b))
        else:
            state = evolve(state, lap, float(schedule.betas[k]))
    return state


def chain_cases():
    prob = conflicted_pairs(4, 0.5, 3.0)
    terms = len(prob.terms)
    weighted = WeightedHypercube((0.5, 1.0, 0.0, 2.0))
    custom = custom_from_edges(4, [(0, 1), (1, 3, 0.5), (3, 7), (7, 15, 2.0), (2, 6)])
    two = Schedule(np.array([0.37, -1.1]), np.array([0.6, 0.25]))
    g_rows = np.array([np.linspace(-0.9, 0.8, terms), np.linspace(0.3, -0.4, terms)])
    b_rows = np.array([[0.2, 0.9, -0.4, 1.3], [0.7, 0.0, 0.5, -0.1]])
    phased = randomize_phases(ball_uniform_state(4, 5, 2), 11)
    return {
        "hypercube-p1": (prob, hypercube(4), Schedule([0.37], [0.6]), None),
        "weighted-p2": (prob, weighted, two, None),
        "complete-p2": (prob, CompleteGraph(4), two, None),
        "ballcut-p2": (prob, BallCut(hypercube(4), center=5, radius=2), two, phased),
        "custom-p2": (prob, custom, two, phased),
        "relaxed-gamma": (prob, weighted, Schedule(g_rows, two.betas), None),
        "relaxed-beta": (prob, hypercube(4), Schedule(two.gammas, b_rows), phased),
        "relaxed-both": (prob, weighted, Schedule(g_rows, b_rows), phased),
    }


@pytest.mark.parametrize("case", sorted(chain_cases()))
def test_qaoa_state_equals_public_chain_bitwise(case):
    prob, lap, sched, initial = chain_cases()[case]
    out = qaoa_state(prob, lap, sched, initial=initial)
    assert np.array_equal(out.amps, public_chain(prob, lap, sched, initial).amps)


def test_initial_state_is_not_changed():
    prob = hamming_ramp(4)
    init = randomize_phases(ball_uniform_state(4, 0, 2), 3)
    before = init.amps.copy()
    config = SearchConfig(resolution=(4, 4), max_iters=3)
    for lap in (hypercube(4), CompleteGraph(4), BallCut(hypercube(4), center=0, radius=2)):
        qaoa_state(prob, lap, Schedule([0.3, -0.2], [0.4, 0.9]), initial=init)
        optimize_schedule(prob, lap, 1, Mean(), config, initial=init)
        assert np.array_equal(init.amps, before)


def test_zero_rounds_return_a_new_writable_copy_of_the_start():
    prob, lap, none = hamming_ramp(4), hypercube(4), Schedule([], [])
    init = randomize_phases(ball_uniform_state(4, 0, 2), 3)
    plus, same = qaoa_state(prob, lap, none), qaoa_state(prob, lap, none, initial=init)
    assert np.array_equal(plus.amps, plus_state(4).amps) and plus.amps.flags.writeable
    assert np.array_equal(same.amps, init.amps) and not np.shares_memory(same.amps, init.amps)


def test_schedule_shape_validation():
    with pytest.raises(ConfigError):
        Schedule(np.zeros((1, 2, 3)), np.zeros(1))
    with pytest.raises(ConfigError):
        Schedule(np.zeros(2), np.zeros(3))
    with pytest.raises(ConfigError):
        Schedule(np.array([np.inf]), np.zeros(1))


def test_schedule_shape_properties():
    sched = Schedule(np.array([[0.1, 0.2], [0.3, 0.4]]), np.array([0.5, 0.6]))
    assert sched.rounds == 2 and sched.gamma_relaxed and not sched.beta_relaxed


def test_relaxed_gamma_reduces_to_scalar():
    prob = conflicted_pairs(4, 0.5, 3.0)
    g = 0.37
    uniform = qaoa_state(prob, hypercube(4), Schedule([g], [0.6]))
    row = np.full((1, len(prob.terms)), g)
    relaxed = qaoa_state(prob, hypercube(4), Schedule(row, np.array([0.6])))
    np.testing.assert_allclose(relaxed.amps, uniform.amps, atol=1e-12)


def test_relaxed_beta_reduces_to_scalar():
    prob = hamming_ramp(4)
    b = 0.81
    uniform = qaoa_state(prob, hypercube(4), Schedule([0.2], [b]))
    row = np.full((1, 4), b)
    relaxed = qaoa_state(prob, hypercube(4), Schedule(np.array([0.2]), row))
    np.testing.assert_allclose(relaxed.amps, uniform.amps, atol=1e-12)


def test_relaxed_gamma_acts_per_term():
    # zeroing one term's gamma must equal evolving the problem without it
    terms = [ZTerm((0,), 1.0), ZTerm((1, 2), -2.0)]
    prob = from_terms(3, terms)
    sub = from_terms(3, terms[:1])
    row = np.array([[0.9, 0.0]])
    relaxed = qaoa_state(prob, hypercube(3), Schedule(row, np.array([0.5])))
    plain = qaoa_state(sub, hypercube(3), Schedule([0.9], [0.5]))
    np.testing.assert_allclose(relaxed.amps, plain.amps, atol=1e-12)


def test_relaxed_shape_errors():
    prob = hamming_ramp(3)
    with pytest.raises(ConfigError):
        qaoa_state(prob, hypercube(3), Schedule(np.zeros((1, 2)), np.array([0.1])))
    with pytest.raises(ConfigError):
        qaoa_state(prob, hypercube(3), Schedule(np.array([0.1]), np.zeros((1, 2))))
    with pytest.raises(ConfigError):
        qaoa_state(
            prob, CompleteGraph(3), Schedule(np.array([0.1]), np.zeros((1, 3)))
        )


def brute_multilinear(problem, x):
    """Independent oracle: sum over vertices of f(z) prod_i x_i^{z_i}(1-x_i)^{1-z_i}."""
    total = 0.0
    n = problem.n
    for z in range(1 << n):
        w = 1.0
        for i in range(n):
            zi = (z >> i) & 1
            w *= x[i] if zi else (1.0 - x[i])
        total += w * problem.dense[z]
    return total


@settings(max_examples=30, deadline=None)
@given(small_problems(max_n=4), st.data())
def test_multilinear_matches_bernoulli_average(problem, data):
    x = np.array([data.draw(st.floats(0, 1)) for _ in range(problem.n)])
    assert multilinear_value(problem, x) == pytest.approx(
        brute_multilinear(problem, x), abs=1e-9
    )


def test_multilinear_agrees_on_vertices():
    prob = conflicted_pairs(4, 0.5, 3.0)
    for z in range(16):
        x = np.array([(z >> i) & 1 for i in range(4)], dtype=float)
        assert multilinear_value(prob, x) == pytest.approx(prob.dense[z], abs=1e-10)


def test_multilinear_domain_check():
    with pytest.raises(ConfigError):
        multilinear_value(hamming_ramp(2), np.array([0.5, 1.2]))


def test_multilinear_gradient_checks_like_value():
    prob = hamming_ramp(3)
    with pytest.raises(ValueError):
        multilinear_gradient(prob, np.full(4, 0.5))
    with pytest.raises(ConfigError):
        multilinear_gradient(prob, np.array([0.1, 0.2, 7.0]))


def test_multilinear_gradient_matches_finite_differences():
    prob = conflicted_pairs(4, 0.5, 3.0)
    x = np.array([0.3, 0.7, 0.5, 0.2])
    grad = multilinear_gradient(prob, x)
    eps = 1e-6
    for i in range(4):
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        fd = (multilinear_value(prob, xp) - multilinear_value(prob, xm)) / (2 * eps)
        assert grad[i] == pytest.approx(fd, abs=1e-5)


def test_product_state_expectation_is_multilinear():
    prob = conflicted_pairs(4, 0.5, 3.0)
    thetas = np.array([0.3, 1.1, 0.7, 0.2])
    x = np.sin(thetas) ** 2
    state = product_state(thetas)
    mean = float(state.probabilities() @ prob.dense)
    assert mean == pytest.approx(multilinear_value(prob, x), abs=1e-10)


def test_product_state_little_endian():
    # theta = pi/2 on qubit 0 only: the excited index is 1, not 2^{n-1}
    state = product_state(np.array([np.pi / 2, 0.0]))
    assert abs(state.amps[1]) == pytest.approx(1.0, abs=1e-12)


def test_product_overlap_and_statevector_agree():
    # unequal angles, so a bit-order mix-up between the two would show
    thetas = np.array([0.3, 1.1, 0.7])
    qubits = np.stack([np.cos(thetas), np.sin(thetas)], 1)
    state = product_state(thetas)
    for target in range(8):
        assert product_overlap(qubits, target) == pytest.approx(
            abs(state.amps[target]) ** 2, abs=1e-12
        )


def test_meanfield_separable_is_exact():
    # single-spin problems factorize: mean-field marginals equal the true ones
    prob = uncoupled_spins(6, "gaussian", seed=5)
    sched = Schedule(np.array([0.7, -0.4]), np.array([0.5, 0.9]))
    qubits = meanfield_evolve(prob, hypercube(6), sched)
    exact = qaoa_state(prob, hypercube(6), sched)
    probs = exact.probabilities()
    zexp = product_z_expectations(qubits)
    for i in range(6):
        mask = np.array([(z >> i) & 1 for z in range(64)], dtype=bool)
        marginal = float(probs[mask].sum())  # P(z_i = 1) = (1 - <Z_i>)/2
        assert (1.0 - zexp[i]) / 2.0 == pytest.approx(marginal, abs=1e-10)


def test_meanfield_multiqubit_terms_silent_from_plus():
    # at |+>^n every <Z> is zero, so pair terms contribute no field
    pair_only = from_terms(4, [ZTerm((0, 1), 2.0), ZTerm((2, 3), -1.0)])
    qubits = meanfield_step(pair_only, hypercube(4), meanfield_plus(4), 0.9, 0.0)
    np.testing.assert_allclose(
        product_z_expectations(qubits), np.zeros(4), atol=1e-12
    )


@pytest.mark.parametrize("mixer_n", [3, 5])
def test_meanfield_step_rejects_mixer_size_mismatch(mixer_n):
    prob = hamming_ramp(4)
    with pytest.raises(ValueError, match=f"Laplacian is on {mixer_n} qubits, state on 4"):
        meanfield_step(prob, hypercube(mixer_n), meanfield_plus(4), 0.3, 0.2)


def test_meanfield_rejects_relaxed_schedules():
    prob = hamming_ramp(3)
    with pytest.raises(ConfigError):
        meanfield_evolve(prob, hypercube(3), Schedule(np.zeros((1, 4)), np.array([0.1])))
