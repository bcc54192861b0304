import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from scipy.linalg import block_diag, expm
from scipy.sparse.linalg import expm_multiply

from qlow import laplacians
from qlow.errors import ConfigError, ResourceError
from qlow.laplacians import (
    BallCut,
    CompleteGraph,
    CustomSparse,
    BLOCK_UNITARY_CACHE,
    WeightedHypercube,
    _BLOCK_XOR,
    _block_unitary,
    _lbar,
    _mix,
    _mix_many,
    _rotate_qubits,
    ball_uniform_state,
    custom_from_edges,
    evolve,
    evolve_many,
    hamming_shell_state,
    hypercube,
    hypercube_rotation,
    kinetic_energy,
    randomize_phases,
)
from qlow.statevector import Statevector, plus_state

from conftest import angles, random_states, run_fresh

X = np.array([[0.0, 1.0], [1.0, 0.0]])


def kron_x(n, i):
    """X on qubit i, identity elsewhere, little-endian (qubit 0 = last factor)."""
    mat = np.array([[1.0]])
    for q in range(n - 1, -1, -1):
        mat = np.kron(mat, X if q == i else np.eye(2))
    return mat


def hypercube_adjacency(n: int, b: tuple[float, ...] | None = None) -> sp.csr_matrix:
    """Adjacency of the weighted hypercube as an explicit sparse matrix."""
    b = (1.0,) * n if b is None else b
    size = 1 << n
    z = np.arange(size)
    rows, cols, vals = [], [], []
    for i in range(n):
        rows.append(z)
        cols.append(z ^ (1 << i))
        vals.append(np.full(size, float(b[i])))
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size),
    )


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


def test_block_unitary_matches_the_outer_product_table_bitwise():
    # the reference is the numpy table the kernel built before: one
    # np.multiply.outer per qubit, the highest qubit outermost
    rng = np.random.default_rng(5)
    blocks = [rng.uniform(-4.0, 4.0, k) for k in (1, 2, 3, 4) for _ in range(25)]
    blocks += [np.array([0.0, -0.0, np.pi / 2, -np.pi]), np.array([0.7, 0.0, 0.7])]
    for block in blocks:
        factors = np.ones(1, dtype=np.complex128)
        for c, s in zip(np.cos(block), np.sin(block)):
            factors = np.multiply.outer(np.array([c, -1j * s]), factors).ravel()
        want = factors[_BLOCK_XOR[: 1 << block.size, : 1 << block.size]]
        assert _block_unitary(block).tobytes() == want.tobytes()


def test_kept_block_unitaries_change_no_bit_and_stay_bounded():
    n = 10
    rng = np.random.default_rng(6)
    amps = rand_state(n, 6).amps
    lap = hypercube(n)
    angle_sets = [rng.uniform(0.0, np.pi, 3) for _ in range(BLOCK_UNITARY_CACHE // 2)]
    for betas in angle_sets * 2:  # the second pass reuses the kept unitaries
        fresh = [_rotate_qubits(amps, np.full(n, b)) for b in betas]
        kept = evolve_many(Statevector(n, amps), lap, betas)
        assert all(a.tobytes() == s.amps.tobytes() for a, s in zip(fresh, kept))
        assert len(lap._unitaries) <= BLOCK_UNITARY_CACHE
    assert lap == hypercube(n) and hash(lap) == hash(hypercube(n))


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


@pytest.mark.parametrize("weight", [np.nan, np.inf, -1.0])
def test_hypercube_weights_must_be_finite_and_non_negative(weight):
    with pytest.raises(ConfigError, match="finite and non-negative"):
        WeightedHypercube((weight, 1.0))


@pytest.mark.parametrize("weight", [np.nan, np.inf])
def test_custom_adjacency_weights_must_be_finite(weight):
    # symmetric with zero diagonal, so only the finiteness check can reject it
    adj = sp.csr_matrix(np.array([[0.0, weight], [weight, 0.0]]))
    with pytest.raises(ConfigError, match="must be finite"):
        CustomSparse(1, adj)
    with pytest.raises(ConfigError, match="must be finite"):
        custom_from_edges(1, [[0, 1, weight]])


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
    inners = {
        "BallCut": BallCut(inner=hypercube(3), center=0, radius=1),
        "CompleteGraph": CompleteGraph(3),
        "CustomSparse": CustomSparse(3, hypercube_adjacency(3)),
    }
    for name, inner in inners.items():
        with pytest.raises(ConfigError, match=f"WeightedHypercube, not {name}"):
            BallCut(inner=inner, center=0, radius=1)


def test_mixer_caches_are_not_constructor_arguments_and_not_compared():
    cut, twin = (BallCut(inner=hypercube(4), center=5, radius=2) for _ in range(2))
    evolve(plus_state(4), cut, 0.3)
    cut.laplacian()
    assert cut._eig is not None and twin._eig is None
    assert cut == twin
    assert "_eig" not in repr(cut)
    for cache in ("_ball", "_eig", "_lap"):
        with pytest.raises(TypeError):
            BallCut(inner=hypercube(4), center=5, radius=2, **{cache: None})
    with pytest.raises(TypeError):
        CustomSparse(3, hypercube_adjacency(3), _eig=None)


@pytest.mark.parametrize(
    "inner",
    [hypercube(5), WeightedHypercube((1.0, 0.5, 2.0, 0.0, 1.5))],
    ids=["hypercube", "weighted"],
)
def test_ballcut_laplacian_matches_the_whole_graph_slice_bitwise(inner):
    cut = BallCut(inner=inner, center=0b10110, radius=2)
    ball = cut.ball()
    adj = hypercube_adjacency(inner.n, inner.b)[np.ix_(ball, ball)].tocsr()  # the whole graph, sliced
    ref = (sp.diags(np.asarray(adj.sum(axis=1)).ravel()) - adj).tocsr()
    lap = cut.laplacian()
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(lap, attr), getattr(ref, attr))


def test_ballcut_laplacian_of_a_small_ball_builds_nothing_of_the_whole_cube():
    # a 137-vertex ball in 2^16 vertices: the whole-cube adjacency peaked at 61 MiB
    cut = BallCut(hypercube(16), center=0, radius=2)
    tracemalloc.start()
    try:
        lap = cut.laplacian()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the diagonal, then both directions of 16 centre edges and of 2 edges per weight-2 vertex
    assert lap.shape == (137, 137) and lap.nnz == 137 + 2 * (16 + 2 * 120)
    assert peak < 2**20


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


@pytest.mark.parametrize("lap", [hypercube(5), CompleteGraph(5)], ids=["hypercube", "complete"])
def test_mix_many_into_a_work_pair_yields_the_bytes_of_mix(lap):
    amps = rand_state(5, 6).amps
    work = (np.empty_like(amps), np.empty_like(amps))
    betas = np.linspace(-2, 2, 7)
    for out, b in zip(_mix_many(amps, lap, betas, work), betas):
        assert any(out is w for w in work)
        assert out.tobytes() == _mix(amps, lap, float(b)).tobytes()


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


# When its sector blocks would hold more than DENSE_EIG_VERTEX_CAP^2 = 4096^2
# entries, the spectral kernel runs expm_multiply instead of the cached
# eigenbasis; n = 13 is the smallest custom graph that reaches it. The n = 13
# ball cuts below split into blocks that fit (4M and 1.9M entries), so they
# check the block route against the hypercube; a ball with thirteen distinct
# weights has no pair, one block of 8192^2 entries, and runs expm_multiply.


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


@pytest.mark.parametrize("beta", [0.7, 17.0])
def test_krylov_unpaired_full_ball_matches_weighted_hypercube(beta):
    n = 13
    b = tuple(1.0 + 0.1 * k for k in range(n))
    cut = BallCut(inner=WeightedHypercube(b), center=0, radius=n)
    state = rand_state(n, 15)
    out = evolve(state, cut, beta)
    assert cut._eig is None  # no eigenbasis was built
    ref = _rotate_qubits(state.amps, beta * np.array(b)) * np.exp(1j * beta * sum(b))
    np.testing.assert_allclose(out.amps, ref, atol=1e-12)


def test_ballcut_blocks_above_4096_vertices_match_expm_multiply():
    cut = BallCut(inner=hypercube(14), center=0b10110011100101, radius=7)
    ball = cut.ball()
    assert ball.size == 9908
    state = rand_state(14, 16)
    betas = np.array([-1.1, 0.3, 1.5, 3.0])
    outs = evolve_many(state, cut, betas)
    assert cut._eig is not None
    for out, b in zip(outs, betas):
        ref = expm_multiply(-1j * b * _lbar(cut), state.amps[ball])
        np.testing.assert_allclose(out.amps[ball], ref, rtol=0, atol=1e-10)


def test_ballcut_basis_is_kept_as_blocks():
    # the 2510 x 2510 eigenbasis alone is 48 MiB
    cut = BallCut(inner=hypercube(12), center=1234, radius=6)
    cut.laplacian()
    tracemalloc.start()
    try:
        evolve(rand_state(12, 17), cut, 0.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    q, levels, index, stacks, qt = cut._eig
    assert [v.shape[1] for v in stacks] == [1, 2, 6, 17, 50, 147, 435]
    kept = levels.nbytes + index.nbytes + sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes for m in (q, qt))
    kept += sum(v.nbytes for v in stacks)
    assert kept < 4 * 2**20 and peak < 12 * 2**20


# Ball cuts take their eigenbasis sector by sector (pairs of equal-weight
# qubits, whose swap leaves the hypercube unchanged); custom graphs and ball
# cuts with no such pair still run one eigh of the whole L_bar.


def dense_eigenbasis(basis):
    """(evals, Q^T blockdiag(V_s)): a cached sector basis as one eigenbasis of L_bar;
    its kept CSR Q^T must equal Q's transpose."""
    q, levels, index, stacks, qt = basis
    assert qt.format == "csr" and abs(qt - q.T).max() == 0
    return levels[index], q.T @ block_diag(*[v for vs in stacks for v in vs])


def sector_inners(n):
    """A hypercube, and a weighted one with equal pairs (1, 0.5, 0) and a lone 2.0."""
    weights = (1.0, 0.5, 1.0, 2.0, 0.5, 1.0, 0.0, 0.0)[:n]
    return [hypercube(n), WeightedHypercube(weights)]


@pytest.mark.parametrize("n", [1, 3, 4, 7, 8])
def test_ballcut_sector_eigenbasis_matches_expm(n):
    beta = 1.3  # L_bar is real, so exp(+i beta L_bar) is the conjugate of the expm
    for inner in sector_inners(n):
        for center in {0, (1 << n) - 1, 0b1011010 & ((1 << n) - 1)}:
            for radius in range(n + 1):
                cut = BallCut(inner=inner, center=center, radius=radius)
                ball = cut.ball()
                lbar = -cut.laplacian().toarray()
                state = rand_state(n, 100 * n + radius)
                single = evolve(state, cut, beta)
                evals, evecs = dense_eigenbasis(cut._eig)
                np.testing.assert_allclose(evecs.T @ evecs, np.eye(ball.size), rtol=0, atol=1e-12)
                np.testing.assert_allclose((evecs * evals) @ evecs.T, lbar, rtol=0, atol=1e-12)
                u = expm(-1j * beta * lbar)
                for out, u_b in zip([single, *evolve_many(state, cut, np.array([beta, -beta]))],
                                    [u, u, u.conj()]):
                    ref = state.amps.copy()
                    ref[ball] = u_b @ state.amps[ball]
                    np.testing.assert_allclose(out.amps, ref, rtol=0, atol=1e-12)


def test_custom_graph_eigenbasis_is_one_whole_eigh():
    edges = [(0, 1), (1, 3, 0.5), (3, 7), (0, 31), (2, 12, 2.0), (12, 13), (5, 21, 1.5)]
    unpaired = WeightedHypercube((1.0, 0.5, 2.0, 0.0, 1.5))
    for lap in (CustomSparse(5, hypercube_adjacency(5)), custom_from_edges(5, edges),
                BallCut(inner=unpaired, center=0b00110, radius=3)):
        evolve(rand_state(5, 13), lap, 0.7)
        want = np.linalg.eigh(_lbar(lap).toarray())
        q, levels, index, [evecs], qt = lap._eig
        assert np.array_equal(q.toarray(), np.eye(q.shape[0])) and np.array_equal(qt.toarray(), q.toarray())
        assert np.array_equal(levels[index], want[0]) and np.array_equal(evecs[0], want[1])


def test_ballcut_eigh_takes_no_block_above_the_largest_sector(monkeypatch):
    # one eigh of the whole 2510-vertex ball took 2.3 s and most of 300 MiB;
    # the blocks' eighs, kept as blocks, hold 2.8 MiB of eigenvectors
    shapes = []
    eigh = np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    cut = BallCut(inner=hypercube(12), center=1234, radius=6)
    evolve(rand_state(12, 14), cut, 0.7)
    assert cut.ball().size == 2510
    assert len(shapes) == 64 and sum(s[0] for s in shapes) == 2510
    assert max(max(s) for s in shapes) == 435


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


def test_custom_and_ballcut_kinetic_energy_match_dense_quadratic_form():
    n = 5
    state = rand_state(n, 9)
    weighted = custom_from_edges(n, [(0, 1, 0.5), (1, 7), (3, 30, 2.0), (7, 30)])
    lmat = weighted.laplacian().toarray()
    assert kinetic_energy(state, weighted) == pytest.approx(
        float(np.real(np.vdot(state.amps, lmat @ state.amps))), abs=1e-12
    )
    cut = BallCut(hypercube(n), center=6, radius=2)
    seg = state.amps[cut.ball()]
    lmat = cut.laplacian().toarray()
    assert kinetic_energy(state, cut) == pytest.approx(
        float(np.real(np.vdot(seg, lmat @ seg))), abs=1e-12
    )


KINETIC_N15 = """
import numpy as np, scipy.sparse as sp
from qlow.laplacians import BallCut, CustomSparse, _kinetic, hypercube
rng = np.random.default_rng(0)
amps = rng.normal(size=1 << 15) + 1j * rng.normal(size=1 << 15)
upper = sp.triu(sp.random(1 << 15, 1 << 15, density=1e-4, random_state=rng), k=1)
for lap in (CustomSparse(15, upper + upper.T), BallCut(hypercube(15), center=12345, radius=9)):
    print(repr(_kinetic(amps, lap)))
"""


def test_kinetic_energy_does_not_depend_on_blas_threads():
    # a complex dot of 2^15 entries splits across OpenBLAS threads and moves the last bits
    one, two = (run_fresh(["-c", KINETIC_N15], OPENBLAS_NUM_THREADS=t) for t in ("1", "2"))
    assert len(one.split()) == 2
    assert one == two


@pytest.mark.parametrize("center", [9, -1])
def test_ball_uniform_state_rejects_a_center_out_of_range(center):
    # 9 once wrapped to the basis state |001>, -1 ended in numpy's OverflowError
    with pytest.raises(ConfigError, match="center out of range"):
        ball_uniform_state(3, center, 1)


def test_ball_uniform_state_support():
    # the state and the ball cut share one ball
    for n, center, radius in ((5, 0b00011, 1), (1, 1, 0), (6, 37, 3), (6, 63, 6)):
        state = ball_uniform_state(n, center, radius)
        dist = np.array([bin(z ^ center).count("1") for z in range(1 << n)])
        ball = np.flatnonzero(dist <= radius)
        assert np.array_equal(np.flatnonzero(state.amps), ball)
        assert np.array_equal(BallCut(hypercube(n), center=center, radius=radius).ball(), ball)
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


@pytest.mark.parametrize("cols", [4, 1 << 10])
def test_rotation_gemm_cols_moves_no_state_byte(monkeypatch, cols):
    """ROTATION_GEMM_COLS only splits each block's GEMM into slabs; at n=11 the
    default 128 binds on the top block alone, 4 on every block and 1024 on
    none. (Slabs of 1 or 2 columns move last bits: numpy multiplies such thin
    slabs by another kernel.)"""
    n = 11
    amps = rand_state(n, 11).amps
    thetas = np.random.default_rng(11).uniform(0.0, np.pi, n)
    want = _rotate_qubits(amps, thetas)
    monkeypatch.setattr(laplacians, "ROTATION_GEMM_COLS", cols)
    assert _rotate_qubits(amps, thetas).tobytes() == want.tobytes()


def test_block_unitary_cache_size_moves_no_state_byte(monkeypatch):
    """BLOCK_UNITARY_CACHE only bounds the kept unitaries: at 1 the dict is
    cleared before every new block, and the states keep their bytes."""
    n = 10
    amps = rand_state(n, 12).amps
    betas = np.random.default_rng(12).uniform(0.0, np.pi, 6)
    want = [_rotate_qubits(amps, np.full(n, b)) for b in betas]
    monkeypatch.setattr(laplacians, "BLOCK_UNITARY_CACHE", 1)
    lap = hypercube(n)
    for _ in range(2):  # the second pass would hit the kept unitaries at the default
        kept = evolve_many(Statevector(n, amps), lap, betas)
        assert all(a.tobytes() == s.amps.tobytes() for a, s in zip(want, kept))
        assert len(lap._unitaries) <= 1


def test_matrix_n_cap_stops_a_ball_cut_above_it(monkeypatch):
    """MATRIX_N_CAP bounds the qubits of custom-graph and ball-cut evolutions:
    at 4, a 4-qubit ball cut evolves and a 5-qubit one raises ResourceError
    before it builds an eigenbasis."""
    monkeypatch.setattr(laplacians, "MATRIX_N_CAP", 4)
    evolve(plus_state(4), BallCut(hypercube(4), center=0, radius=2), 0.3)
    cut = BallCut(hypercube(5), center=0, radius=2)
    with pytest.raises(ResourceError, match="n=4"):
        evolve(plus_state(5), cut, 0.3)
    assert cut._eig is None


@pytest.mark.parametrize("block", [1, 2, 3])
def test_rotation_block_width_moves_amplitudes_only_in_their_last_bits(monkeypatch, block):
    """ROTATION_BLOCK sets how many qubits one GEMM rotates, and with it the
    order in which each amplitude's products are summed, so it is part of the
    byte contract: at n=11 every width (3 leaves a ragged last block) agrees
    with the one-qubit-at-a-time rotation to rounding, not bit for bit."""
    n = 11
    amps = rand_state(n, 13).amps
    thetas = np.random.default_rng(13).uniform(0.0, np.pi, n)
    want = rotate_per_qubit(amps, thetas)
    monkeypatch.setattr(laplacians, "ROTATION_BLOCK", block)
    indices = np.arange(1 << block)
    monkeypatch.setattr(laplacians, "_BLOCK_XOR", np.bitwise_xor.outer(indices, indices))
    assert np.abs(_rotate_qubits(amps, thetas) - want).max() <= 1e-14
