"""Graph Laplacians over bitstring space and exact evolution under them.

The mixer convention throughout is exp(-i beta L_bar) with L_bar = -L_G.
Regular graphs (hypercube, complete graph) drop the degree term as a global
phase. The hypercube mixer is then the product of per-qubit rotations
exp(-i beta b_i X_i). One kernel, _rotate_qubits, applies it in blocks of
ROTATION_BLOCK = 4 qubits: each block's 16x16 unitary goes on the state in
one complex GEMM, so the state is read and written once per block instead of
once per qubit. The complete-graph mixer is the rank-1 update
psi + (exp(-i beta) - 1) <u|psi> u with u the uniform state. The raw-array
kernel _mix runs every mixer into a new array; evolve checks and wraps it, and
qaoa_state calls it directly. kinetic_energy always uses the positive-
semidefinite L_G = D_G - A_G, so it is >= 0 and vanishes exactly on the
uniform state of a connected graph.

CustomSparse and BallCut evolutions, single or batched over betas, share one
spectral kernel on the explicit L_bar restricted to its support. Up to
DENSE_EIG_VERTEX_CAP = 4096 vertices it applies a cached eigh of L_bar in
its real eigenbasis, as two real matrix products; above it, expm_multiply
runs once per beta. Both are accurate to well under 1e-10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from . import _bits
from .errors import ConfigError, ResourceError
from .statevector import Statevector, check_qubit_count

MATRIX_N_CAP = 16
DENSE_EIG_VERTEX_CAP = 1 << 12
ROTATION_BLOCK = 4
ROTATION_GEMM_COLS = 128
# entry (r, c) of a block unitary depends only on which qubits differ: r ^ c
_BLOCK_XOR = np.bitwise_xor.outer(np.arange(1 << ROTATION_BLOCK), np.arange(1 << ROTATION_BLOCK))


@dataclass(frozen=True)
class WeightedHypercube:
    """L_bar = sum_i b_i X_i; b_i >= 0 are per-qubit edge weights."""

    b: tuple[float, ...]

    def __post_init__(self) -> None:
        b = tuple(float(x) for x in self.b)
        if any(x < 0 for x in b):
            raise ConfigError("hypercube weights must be non-negative")
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return len(self.b)


def hypercube(n: int) -> WeightedHypercube:
    """The standard unit-weight hypercube graph on n qubits."""
    return WeightedHypercube((1.0,) * n)


@dataclass(frozen=True)
class CompleteGraph:
    """L_bar = P_plus = |+><+|^n (complete graph over 2^n vertices, normalized)."""

    n: int


@dataclass
class CustomSparse:
    """Arbitrary graph on the 2^n bitstrings: L_G = D_G - A_G.

    adjacency must be symmetric with zero diagonal. Evolution drops the degree
    term only when the graph is regular (global phase), which keeps the generic
    path elementwise-identical to the hypercube fast path on the same graph.
    """

    n: int
    adjacency: sp.csr_matrix
    _eig: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        check_qubit_count(self.n)
        size = 1 << self.n
        adj = sp.csr_matrix(self.adjacency, dtype=np.float64)
        if adj.shape != (size, size):
            raise ConfigError(f"adjacency must be {size} x {size}")
        if abs(adj - adj.T).max() > 1e-12:
            raise ConfigError("adjacency must be symmetric")
        if abs(adj.diagonal()).max() > 0:
            raise ConfigError("adjacency must have zero diagonal")
        self.adjacency = adj

    @property
    def degrees(self) -> np.ndarray:
        return np.asarray(self.adjacency.sum(axis=1)).ravel()

    @property
    def is_regular(self) -> bool:
        d = self.degrees
        return bool(np.ptp(d) <= 1e-12)

    def laplacian(self) -> sp.csr_matrix:
        return sp.diags(self.degrees) - self.adjacency


def custom_from_edges(n: int, edges: list[tuple[int, int]] | list[tuple[int, int, float]]) -> CustomSparse:
    size = 1 << n
    rows, cols, vals = [], [], []
    for edge in edges:
        u, v = int(edge[0]), int(edge[1])
        if not (0 <= u < size and 0 <= v < size):
            raise ConfigError(f"edge {tuple(edge)} has an endpoint outside [0, 2^n = {size})")
        w = float(edge[2]) if len(edge) > 2 else 1.0
        rows += [u, v]
        cols += [v, u]
        vals += [w, w]
    return CustomSparse(n, sp.csr_matrix((vals, (rows, cols)), shape=(size, size)))


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


@dataclass
class BallCut:
    """The inner graph restricted to the Hamming ball B(center, radius).

    Vertices outside the ball are deleted: evolution acts as identity there and
    never exchanges amplitude across the boundary. Inside, the full induced
    Laplacian D - A is used (boundary vertices lose degree, so the degree term
    is not a global phase and must be kept).
    """

    inner: WeightedHypercube | CompleteGraph | CustomSparse
    center: int
    radius: int
    _ball: np.ndarray | None = field(default=None, repr=False)
    _eig: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)
    _lap: sp.csr_matrix | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        n = self.inner.n
        if isinstance(self.inner, BallCut):
            raise ConfigError("nesting ball cuts is not supported")
        if not 0 <= self.radius <= n:
            raise ConfigError(f"radius must lie in [0, {n}]")
        if not 0 <= self.center < (1 << n):
            raise ConfigError("center out of range")

    @property
    def n(self) -> int:
        return self.inner.n

    def ball(self) -> np.ndarray:
        """Sorted basis indices inside the ball."""
        if self._ball is None:
            dist = np.bitwise_count(_bits.indices(self.n) ^ np.uint32(self.center))
            self._ball = np.flatnonzero(dist <= self.radius)
        return self._ball

    def laplacian(self) -> sp.csr_matrix:
        """Induced-subgraph Laplacian on the ball vertices (ball-local indexing)."""
        if self._lap is None:
            adj = _ball_adjacency(self.inner, self.ball())
            deg = np.asarray(adj.sum(axis=1)).ravel()
            self._lap = (sp.diags(deg) - adj).tocsr()
        return self._lap


def _ball_adjacency(inner, ball: np.ndarray) -> sp.csr_matrix:
    """The inner graph's adjacency between the ball vertices; only that block is built."""
    if isinstance(inner, CompleteGraph):
        # Normalization matching L_bar = P_plus: L = I - P_plus, edge weight 1/2^n.
        block = np.full((ball.size, ball.size), 1.0 / (1 << inner.n))
        np.fill_diagonal(block, 0.0)
        return sp.csr_matrix(block)
    if isinstance(inner, WeightedHypercube):
        return hypercube_adjacency(inner.n, inner.b)[np.ix_(ball, ball)].tocsr()
    if isinstance(inner, CustomSparse):
        return inner.adjacency[np.ix_(ball, ball)].tocsr()
    raise ConfigError(f"unsupported inner graph {type(inner).__name__}")


# ---------------------------------------------------------------------------
# evolution


def _rotate_qubits(amps: np.ndarray, thetas) -> np.ndarray:
    """prod_i exp(-i thetas[i] X_i) on the last axis of amps; leading axes batch.

    Qubit i is bit i of the basis index. The qubits go in blocks of
    ROTATION_BLOCK = 4 (the last block may be smaller). A block of k qubits
    acts as one 2^k x 2^k unitary, the tensor product of its 2x2 rotations,
    whose entry (r, c) is the product over the block of cos(theta_i) where r
    and c agree on bit i and -i sin(theta_i) where they differ. Each block is
    one np.matmul over a strided view: the lowest block multiplies rows of 2^k
    amplitudes by u.T, a higher block multiplies u into the (2^k, C) slabs of
    the axes below it.

    Why 4: a pass over the state costs about the same for one qubit as for a
    block, so blocks cut the passes from n to ceil(n / 4), while the GEMM
    work per amplitude doubles with each qubit added to a block. Why at most
    ROTATION_GEMM_COLS = 128 columns (rows, in the lowest block): that keeps
    every GEMM at 16 * 16 * 128 multiply-adds, below the size at which
    OpenBLAS wakes a second thread. At 256 columns, or with 32 x 32 blocks,
    the second thread ran, nearly doubling the CPU time with no gain in wall
    time. On a 2-vCPU Xeon VM at n = 18 this takes about 11-16 ms per call;
    rotating one qubit at a time took about 50 ms.

    Blocks whose angles are all zero are skipped. The input is never written;
    the result is a new array. It agrees with applying the 2x2 rotations one
    qubit at a time to rounding, not bit for bit, since the GEMM sums the 16
    products in its own order.
    """
    src = np.asarray(amps, dtype=np.complex128)
    n = src.shape[-1].bit_length() - 1
    thetas = np.asarray(thetas, dtype=np.float64)
    cur, spare = src, None
    for lo in range(0, n, ROTATION_BLOCK):
        block = thetas[lo : lo + ROTATION_BLOCK]
        if not block.any():
            continue
        k = block.size
        factors = np.ones(1, dtype=np.complex128)
        for c, s in zip(np.cos(block), np.sin(block)):
            factors = np.multiply.outer(np.array([c, -1j * s]), factors).ravel()
        u = factors[_BLOCK_XOR[: 1 << k, : 1 << k]]
        dst = np.empty(src.shape, dtype=np.complex128) if spare is None else spare
        if lo == 0:
            shape = (-1, math.gcd(src.size >> k, ROTATION_GEMM_COLS), 1 << k)
            np.matmul(cur.reshape(shape), u.T, out=dst.reshape(shape))
        else:
            cols = min(ROTATION_GEMM_COLS, 1 << lo)
            shape = (-1, 1 << k, (1 << lo) // cols, cols)
            np.matmul(u, cur.reshape(shape).swapaxes(-3, -2), out=dst.reshape(shape).swapaxes(-3, -2))
        spare = None if cur is src else cur
        cur = dst
    return np.array(src) if cur is src else cur


def hypercube_rotation(state: Statevector, thetas: np.ndarray) -> Statevector:
    """prod_i exp(-i thetas[i] X_i) applied via the tensor structure."""
    if np.shape(thetas) != (state.n,):
        raise ValueError(f"{np.shape(thetas)} rotation angles for a {state.n}-qubit state")
    return Statevector(state.n, _rotate_qubits(state.amps, thetas))


def _support(lap) -> np.ndarray | slice:
    """Basis indices that a custom-graph or ball-cut evolution acts on."""
    if not isinstance(lap, (CustomSparse, BallCut)):
        raise ConfigError(f"unsupported Laplacian {type(lap).__name__}")
    if lap.n > MATRIX_N_CAP:
        raise ResourceError(f"custom graphs and ball cuts capped at n={MATRIX_N_CAP}")
    return lap.ball() if isinstance(lap, BallCut) else slice(None)


def _lbar(lap: CustomSparse | BallCut) -> sp.csr_matrix:
    """L_bar on the support: -L on the ball; A, or A - D when not regular."""
    if isinstance(lap, BallCut):
        return -lap.laplacian()
    return lap.adjacency if lap.is_regular else lap.adjacency - sp.diags(lap.degrees)


def _spectral_evolve(lap: CustomSparse | BallCut, seg: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """Columns exp(-i b L_bar) seg for each b in betas, as an (m, k) array.

    eigh of a real symmetric L_bar gives real eigenvectors V, so both products
    are single real GEMMs against the real and imaginary parts stacked
    together; no complex copy of V is ever made. The parts are stacked as rows
    with V on the right (X^T V, then Z^T V^T): for so few vectors BLAS runs
    that layout about twice as fast as V^T X and V Z.
    """
    if seg.size > DENSE_EIG_VERTEX_CAP:
        lbar = _lbar(lap)
        out = np.empty((seg.size, betas.size), dtype=np.complex128)
        for j, b in enumerate(betas):
            out[:, j] = expm_multiply(-1j * b * lbar, seg)
        return out
    if lap._eig is None:
        lap._eig = np.linalg.eigh(_lbar(lap).toarray())
    evals, evecs = lap._eig
    y = np.stack([seg.real, seg.imag]) @ evecs
    z = np.exp(-1j * np.outer(betas, evals)) * (y[0] + 1j * y[1])
    rows = np.vstack([z.real, z.imag]) @ evecs.T
    return (rows[: betas.size] + 1j * rows[betas.size :]).T


def _check_qubits(n: int, lap) -> None:
    if lap.n != n:
        raise ValueError(f"Laplacian is on {lap.n} qubits, state on {n}")


def _mix(amps: np.ndarray, lap, beta: float) -> np.ndarray:
    """exp(-i beta L_bar) amps as a new array, for a Laplacian on as many qubits
    as amps has; amps is not changed."""
    if isinstance(lap, WeightedHypercube):
        return _rotate_qubits(amps, beta * np.asarray(lap.b))
    if isinstance(lap, CompleteGraph):
        return amps + (np.exp(-1j * beta) - 1.0) * np.mean(amps)
    support = _support(lap)
    out = amps.copy()
    out[support] = _spectral_evolve(lap, amps[support], np.array([float(beta)]))[:, 0]
    return out


def evolve(state: Statevector, lap, beta: float) -> Statevector:
    """Exact unitary exp(-i beta L_bar) applied to the state."""
    _check_qubits(state.n, lap)
    return Statevector(state.n, _mix(state.amps, lap, beta))


def evolve_many(state: Statevector, lap, betas: np.ndarray) -> list[Statevector]:
    """evolve(state, lap, b) for every b in betas.

    Custom graphs and ball cuts evolve all betas in one spectral-kernel call:
    two real GEMMs against the cached real eigenbasis up to
    DENSE_EIG_VERTEX_CAP vertices, one expm_multiply per beta above it.
    """
    betas = np.asarray(betas, dtype=np.float64)
    if isinstance(lap, (WeightedHypercube, CompleteGraph)):
        return [evolve(state, lap, float(b)) for b in betas]
    _check_qubits(state.n, lap)
    support = _support(lap)
    cols = _spectral_evolve(lap, state.amps[support], betas)
    out = []
    for j in range(betas.size):
        amps = state.amps.copy()
        amps[support] = cols[:, j]
        out.append(Statevector(state.n, amps))
    return out


# ---------------------------------------------------------------------------
# kinetic energy <L_G> with the positive-semidefinite convention


def _x_expectations(state: Statevector) -> np.ndarray:
    n = state.n
    out = np.empty(n)
    for i in range(n):
        v = state.amps.reshape(1 << (n - 1 - i), 2, 1 << i)
        out[i] = 2.0 * float(np.sum(v[:, 0, :].conj() * v[:, 1, :]).real)
    return out


def kinetic_energy(state: Statevector, lap) -> float:
    """<psi| L_G |psi> with L_G = D_G - A_G (>= 0; 0 iff uniform when connected)."""
    _check_qubits(state.n, lap)
    if isinstance(lap, WeightedHypercube):
        b = np.asarray(lap.b)
        return float(np.sum(b * (1.0 - _x_expectations(state))))
    if isinstance(lap, CompleteGraph):
        u_amp = np.sum(state.amps) * 2.0 ** (-state.n / 2)
        return float(1.0 - abs(u_amp) ** 2)
    if isinstance(lap, CustomSparse):
        lmat = lap.laplacian()
        return float(np.real(np.vdot(state.amps, lmat @ state.amps)))
    if isinstance(lap, BallCut):
        ball = lap.ball()
        seg = state.amps[ball]
        return float(np.real(np.vdot(seg, lap.laplacian() @ seg)))
    raise ConfigError(f"unsupported Laplacian {type(lap).__name__}")


# ---------------------------------------------------------------------------
# structured initial states


def ball_uniform_state(n: int, center: int, radius: int) -> Statevector:
    """Equal positive amplitudes on the Hamming ball B(center, radius)."""
    check_qubit_count(n)
    if radius > n or radius < 0:
        raise ConfigError(f"radius must lie in [0, {n}]")
    dist = np.bitwise_count(_bits.indices(n) ^ np.uint32(center))
    mask = dist <= radius
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[mask] = 1.0 / np.sqrt(mask.sum())
    return Statevector(n, amps)


def hamming_shell_state(n: int, weight: int) -> Statevector:
    """Equal positive amplitudes on strings of exactly the given popcount."""
    check_qubit_count(n)
    if not 0 <= weight <= n:
        raise ConfigError(f"weight must lie in [0, {n}]")
    mask = _bits.popcounts(n) == weight
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[mask] = 1.0 / np.sqrt(mask.sum())
    return Statevector(n, amps)


def randomize_phases(state: Statevector, seed: int) -> Statevector:
    """Each nonzero amplitude picks up an i.i.d. uniform phase; magnitudes kept."""
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(0.0, 2.0 * np.pi, size=state.amps.shape[0])
    amps = state.amps.copy()
    nz = amps != 0
    amps[nz] = amps[nz] * np.exp(1j * thetas[nz])
    return Statevector(state.n, amps)
