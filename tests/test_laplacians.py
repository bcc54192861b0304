import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qlow.errors import ConfigError, ResourceError
from qlow.laplacians import (
    BallCut,
    CompleteGraph,
    CustomSparse,
    WeightedHypercube,
    _rotate_qubits,
    ball_uniform_state,
    custom_from_edges,
    evolve,
    evolve_many,
    hamming_shell_state,
    hypercube,
    hypercube_adjacency,
    hypercube_rotation,
    kinetic_energy,
    randomize_phases,
)
from qlow.statevector import Statevector, plus_state

from conftest import angles, random_states

X = np.array([[0.0, 1.0], [1.0, 0.0]])


def kron_x(n, i):
    """X on qubit i, identity elsewhere, little-endian (qubit 0 = last factor)."""
    mat = np.array([[1.0]])
    for q in range(n - 1, -1, -1):
        mat = np.kron(mat, X if q == i else np.eye(2))
    return mat


def rand_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return Statevector(n, amps / np.linalg.norm(amps))


def x_generator(thetas):
    """sum_i thetas[i] X_i as a dense matrix."""
    n = len(thetas)
    return sum(t * kron_x(n, i) for i, t in enumerate(thetas))


def rotate_per_qubit(amps, thetas):
    """Reference: the 2x2 rotations applied one qubit at a time."""
    out = np.array(amps, dtype=np.complex128)
    n = out.shape[-1].bit_length() - 1
    for i in range(n):
        c, s = np.cos(thetas[i]), np.sin(thetas[i])
        v = out.reshape(*out.shape[:-1], 1 << (n - 1 - i), 2, 1 << i)
        a0, a1 = v[..., 0, :].copy(), v[..., 1, :].copy()
        v[..., 0, :] = c * a0 - 1j * s * a1
        v[..., 1, :] = c * a1 - 1j * s * a0
    return out


# unequal angles with a zero and some above pi; n = 1, 3 lie below the block
# width of 4, n = 4 and 8 fill whole blocks, n = 5 and 9 end in a ragged block
ANGLES = [3.9, 0.0, -1.3, 0.45, 2.2, -3.5, 0.0, 4.4, 5.1]


@pytest.mark.parametrize("n", [1, 3, 4, 5, 8, 9])
def test_hypercube_rotation_matches_expm(n):
    thetas = np.array(ANGLES[:n])
    state = rand_state(n, n)
    out = hypercube_rotation(state, thetas)
    np.testing.assert_allclose(out.amps, expm(-1j * x_generator(thetas)) @ state.amps, atol=1e-12)
    # the weighted-hypercube mixer runs the same kernel with b = |thetas| / beta
    beta = 0.9
    b = np.abs(thetas) / beta
    oracle = expm(-1j * beta * x_generator(b))
    out = evolve(state, WeightedHypercube(tuple(b)), beta)
    np.testing.assert_allclose(out.amps, oracle @ state.amps, atol=1e-12)


def test_rotation_kernel_three_batch_axes_and_zero_blocks():
    # a (2, 3, 2) batch on n = 6; the lowest block of 4 has only zero angles
    n = 6
    rng = np.random.default_rng(11)
    amps = rng.normal(size=(2, 3, 2, 1 << n)) + 1j * rng.normal(size=(2, 3, 2, 1 << n))
    before = amps.copy()
    for thetas in ([0.0, 0.0, 0.0, 0.0, 0.8, -2.1], [0.3, -1.1, 3.6, 0.0, 0.8, -2.1]):
        oracle = expm(-1j * x_generator(thetas))
        out = _rotate_qubits(amps, np.array(thetas))
        assert out.shape == amps.shape
        np.testing.assert_allclose(out, amps @ oracle.T, atol=1e-12)
    # all angles zero: an unchanged copy, never the input itself
    out = _rotate_qubits(amps, np.zeros(n))
    assert out is not amps and np.array_equal(out, amps)
    assert np.array_equal(amps, before)


def test_rotation_kernel_matches_per_qubit_loop_at_17_qubits():
    # n = 17: the higher blocks run in 128-column chunks and the last block
    # holds one qubit
    n = 17
    rng = np.random.default_rng(17)
    thetas = rng.uniform(-4.0, 4.0, n)
    thetas[5] = 0.0
    amps = rand_state(n, 17).amps
    np.testing.assert_allclose(_rotate_qubits(amps, thetas), rotate_per_qubit(amps, thetas), rtol=0, atol=1e-12)


def test_hypercube_rotation_single_qubit_convention():
    # exp(-i beta X) = [[cos, -i sin], [-i sin, cos]]: the minus convention.
    beta = 0.42
    out = hypercube_rotation(Statevector(1, np.array([1.0, 0.0])), np.array([beta]))
    np.testing.assert_allclose(out.amps, [np.cos(beta), -1j * np.sin(beta)], atol=1e-14)


@pytest.mark.parametrize("count", [2, 4])
def test_hypercube_rotation_needs_one_angle_per_qubit(count):
    with pytest.raises(ValueError, match="rotation angles"):
        hypercube_rotation(plus_state(3), np.full(count, 0.3))


def test_rotation_kernel_batch_axis_matches_single_rotations():
    # the leading axis is a batch: each row equals its own single rotation,
    # bit for bit, and the zero angle on qubit 2 takes the skip branch
    n = 5
    thetas = np.array([0.3, -1.2, 0.0, 2.5, 0.7])
    rows = np.stack([rand_state(n, seed).amps for seed in range(4)])
    out = _rotate_qubits(rows, thetas)
    assert out.shape == (4, 1 << n)
    for k in range(4):
        single = hypercube_rotation(Statevector(n, rows[k]), thetas).amps
        assert np.array_equal(out[k], single)
    assert np.array_equal(rows, np.stack([rand_state(n, seed).amps for seed in range(4)]))


def test_complete_graph_matches_projector_exponential():
    n = 3
    beta = 1.1
    dim = 1 << n
    proj = np.full((dim, dim), 1.0 / dim)
    oracle = expm(-1j * beta * proj)
    state = rand_state(n, 1)
    out = evolve(state, CompleteGraph(n), beta)
    np.testing.assert_allclose(out.amps, oracle @ state.amps, atol=1e-12)


def test_custom_sparse_matches_hypercube():
    # same graph via the generic sparse path; elementwise-identical evolution
    n = 4
    adj = hypercube_adjacency(n)
    lap = CustomSparse(n, adj)
    state = rand_state(n, 2)
    a = evolve(state, lap, 0.8)
    b = evolve(state, hypercube(n), 0.8)
    np.testing.assert_allclose(a.amps, b.amps, atol=1e-10)


def test_custom_nonregular_keeps_degree_term():
    n = 2
    lap = custom_from_edges(n, [(0, 1), (1, 2)])  # path graph: not regular
    adj = lap.adjacency.toarray()
    deg = np.diag(adj.sum(axis=1))
    oracle = expm(-1j * 0.6 * (adj - deg))
    state = rand_state(n, 3)
    out = evolve(state, lap, 0.6)
    np.testing.assert_allclose(out.amps, oracle @ state.amps, atol=1e-10)


def test_custom_adjacency_validation():
    bad = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))  # asymmetric
    with pytest.raises(ConfigError):
        CustomSparse(1, bad)
    diag = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ConfigError):
        CustomSparse(1, diag)


def test_ballcut_matches_block_exponential():
    n = 4
    cut = BallCut(inner=hypercube(n), center=0, radius=2)
    ball = cut.ball()
    lball = cut.laplacian().toarray()
    state = rand_state(n, 4)
    out = evolve(state, cut, 0.7)
    # inside: exp(+i beta L) since L_bar = -L; outside: identity
    oracle_seg = expm(1j * 0.7 * lball) @ state.amps[ball]
    np.testing.assert_allclose(out.amps[ball], oracle_seg, atol=1e-10)
    outside = np.setdiff1d(np.arange(1 << n), ball)
    np.testing.assert_allclose(out.amps[outside], state.amps[outside], atol=1e-14)


def test_ballcut_probability_conservation():
    n = 6
    cut = BallCut(inner=hypercube(n), center=9, radius=3)
    state = rand_state(n, 5)
    for beta in (0.1, 0.9, 2.7):
        out = evolve(state, cut, beta)
        assert abs(out.norm() - 1.0) < 1e-10
        # mass inside the ball is separately conserved
        ball = cut.ball()
        before = float(np.sum(np.abs(state.amps[ball]) ** 2))
        after = float(np.sum(np.abs(out.amps[ball]) ** 2))
        assert after == pytest.approx(before, abs=1e-10)


def test_ballcut_confines_support():
    n = 5
    cut = BallCut(inner=hypercube(n), center=0, radius=2)
    state = ball_uniform_state(n, 0, 2)
    out = evolve(state, cut, 1.3)
    dist = np.array([bin(z).count("1") for z in range(1 << n)])
    assert np.max(np.abs(out.amps[dist > 2])) == 0.0


def test_ballcut_validation():
    with pytest.raises(ConfigError):
        BallCut(inner=hypercube(3), center=0, radius=7)
    with pytest.raises(ConfigError):
        BallCut(inner=hypercube(3), center=9, radius=1)
    with pytest.raises(ConfigError):
        BallCut(inner=BallCut(inner=hypercube(3), center=0, radius=1), center=0, radius=1)


def whole_graph_adjacency(inner):
    """The inner graph's full 2^n x 2^n adjacency, as ball cuts once sliced it."""
    if isinstance(inner, CompleteGraph):
        size = 1 << inner.n
        return sp.csr_matrix(np.full((size, size), 1.0 / size) - np.eye(size) / size)
    if isinstance(inner, CustomSparse):
        return inner.adjacency
    return hypercube_adjacency(inner.n, inner.b)


@pytest.mark.parametrize(
    "inner",
    [CompleteGraph(5), hypercube(5), WeightedHypercube((1.0, 0.5, 2.0, 0.0, 1.5)),
     custom_from_edges(5, [(0, 1), (1, 3, 0.5), (3, 7), (0, 31), (2, 12, 2.0)])],
    ids=["complete", "hypercube", "weighted", "custom"],
)
def test_ballcut_laplacian_matches_the_whole_graph_slice_bitwise(inner):
    cut = BallCut(inner=inner, center=0b10110, radius=2)
    ball = cut.ball()
    adj = whole_graph_adjacency(inner)[np.ix_(ball, ball)].tocsr()
    ref = (sp.diags(np.asarray(adj.sum(axis=1)).ravel()) - adj).tocsr()
    lap = cut.laplacian()
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(lap, attr), getattr(ref, attr))


def test_ballcut_over_complete_graph_builds_only_the_ball_block():
    cut = BallCut(inner=CompleteGraph(12), center=5, radius=1)
    tracemalloc.start()
    try:
        lap = cut.laplacian()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lap.shape == (13, 13)
    # the whole 2^12 x 2^12 dense matrix alone is 128 MiB
    assert peak < 16 * 2**20


def test_evolve_many_matches_single_calls():
    n = 5
    betas = np.linspace(-2, 2, 7)
    state = rand_state(n, 6)
    for lap in (hypercube(n), CompleteGraph(n),
                BallCut(inner=hypercube(n), center=3, radius=2),
                CustomSparse(n, hypercube_adjacency(n))):
        batch = evolve_many(state, lap, betas)
        for st_, b in zip(batch, betas):
            ref = evolve(state, lap, float(b))
            np.testing.assert_allclose(st_.amps, ref.amps, atol=1e-12)


def test_evolve_many_matches_expm():
    betas = np.array([-1.3, 0.0, 0.7, 17.0])
    path = custom_from_edges(4, [(z, z + 1) for z in range(15)])  # irregular
    adj = path.adjacency.toarray()
    cut = BallCut(inner=hypercube(6), center=0b101001, radius=3)
    ball = cut.ball()
    for lap, support, lbar in ((path, np.arange(16), adj - np.diag(adj.sum(axis=1))),
                               (cut, ball, -cut.laplacian().toarray())):
        state = rand_state(lap.n, 9)
        for out, b in zip(evolve_many(state, lap, betas), betas):
            ref = state.amps.copy()
            ref[support] = expm(-1j * b * lbar) @ state.amps[support]
            np.testing.assert_allclose(out.amps, ref, atol=1e-12)


# Above DENSE_EIG_VERTEX_CAP = 4096 vertices the spectral kernel runs
# expm_multiply instead of the cached eigenbasis; n = 13 is the smallest size
# that reaches it.


@pytest.mark.parametrize("beta", [0.7, 17.0])
def test_krylov_custom_matches_hypercube(beta):
    n = 13
    state = rand_state(n, 10)
    out = evolve(state, CustomSparse(n, hypercube_adjacency(n)), beta)
    ref = hypercube_rotation(state, np.full(n, beta))
    np.testing.assert_allclose(out.amps, ref.amps, atol=1e-12)


@pytest.mark.parametrize("beta", [0.7, 17.0])
def test_krylov_full_ball_matches_hypercube(beta):
    # Radius n keeps every vertex, so L_bar = A - n I: the hypercube mixer up
    # to the phase exp(i beta n) that the degree term contributes.
    n = 13
    cut = BallCut(inner=hypercube(n), center=0, radius=n)
    assert cut.ball().size == 1 << n
    state = rand_state(n, 11)
    out = evolve(state, cut, beta)
    ref = hypercube_rotation(state, np.full(n, beta)).amps * np.exp(1j * beta * n)
    np.testing.assert_allclose(out.amps, ref, atol=1e-12)


def test_krylov_ballcut_batch_confined_and_unitary():
    n = 13
    cut = BallCut(inner=hypercube(n), center=5, radius=7)
    ball = cut.ball()
    assert ball.size == 5812
    outside = np.setdiff1d(np.arange(1 << n), ball)
    state = rand_state(n, 12)
    betas = np.array([0.7, 17.0])
    for out, b in zip(evolve_many(state, cut, betas), betas):
        np.testing.assert_allclose(out.amps, evolve(state, cut, float(b)).amps, atol=1e-12)
        np.testing.assert_array_equal(out.amps[outside], state.amps[outside])
        assert abs(out.norm() - 1.0) < 1e-12


@settings(max_examples=30)
@given(random_states(max_n=4), angles)
def test_evolution_is_unitary(state, beta):
    for lap in (hypercube(state.n), CompleteGraph(state.n)):
        assert abs(evolve(state, lap, beta).norm() - 1.0) < 1e-10


def test_qubit_count_mismatch():
    with pytest.raises(ValueError):
        evolve(plus_state(3), hypercube(4), 0.5)


def test_kinetic_energy_psd_and_plus_ground():
    n = 4
    lap = hypercube(n)
    assert kinetic_energy(plus_state(n), lap) == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(7)
    for seed in range(5):
        state = rand_state(n, 100 + seed)
        assert kinetic_energy(state, lap) >= -1e-10


@pytest.mark.parametrize("lap", [CompleteGraph(7), hypercube(3)], ids=["complete7", "hypercube3"])
def test_kinetic_energy_rejects_qubit_count_mismatch(lap):
    with pytest.raises(ValueError, match="state on 4"):
        kinetic_energy(plus_state(4), lap)


def test_kinetic_energy_matches_dense_quadratic_form():
    n = 3
    adj = hypercube_adjacency(n).toarray()
    lmat = np.diag(adj.sum(axis=1)) - adj
    state = rand_state(n, 8)
    expected = float(np.real(state.amps.conj() @ (lmat @ state.amps)))
    assert kinetic_energy(state, hypercube(n)) == pytest.approx(expected, abs=1e-10)


def test_ball_uniform_state_support():
    state = ball_uniform_state(5, 0b00011, 1)
    nz = np.flatnonzero(state.amps)
    dist = np.array([bin(z ^ 0b00011).count("1") for z in nz])
    assert np.all(dist <= 1)
    assert state.norm() == pytest.approx(1.0, abs=1e-14)


def test_hamming_shell_state():
    state = hamming_shell_state(5, 2)
    nz = np.flatnonzero(state.amps)
    assert all(bin(z).count("1") == 2 for z in nz)
    assert len(nz) == 10
    with pytest.raises(ConfigError):
        hamming_shell_state(5, 6)


def test_randomize_phases_keeps_magnitudes():
    state = ball_uniform_state(5, 0, 2)
    out = randomize_phases(state, seed=3)
    np.testing.assert_allclose(np.abs(out.amps), np.abs(state.amps), atol=1e-14)
    again = randomize_phases(state, seed=3)
    np.testing.assert_allclose(out.amps, again.amps, atol=1e-15)


def test_weighted_hypercube_rejects_negative():
    with pytest.raises(ConfigError):
        WeightedHypercube((1.0, -0.5))
