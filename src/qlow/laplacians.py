"""Graph Laplacians over bitstring space and exact evolution under them.

The mixer convention throughout is exp(-i beta L_bar) with L_bar = -L_G.
Regular graphs (hypercube, complete graph) drop the degree term as a global
phase. The hypercube mixer is then the product of per-qubit rotations
exp(-i beta b_i X_i). One kernel, _rotate_qubits, applies it in blocks of
ROTATION_BLOCK = 4 qubits: each block's 16x16 unitary goes on the state in one
complex GEMM (statevector._apply_block, which the Walsh transform shares), so
the state is read and written once per block, not once per qubit. The
complete-graph mixer is the rank-1 update psi + (exp(-i beta) - 1) <u|psi> u,
u the uniform state. The raw-array kernel _mix runs every mixer. The
hypercube and complete-graph mixers write into a caller's pair of buffers when
given one, so that a search keeps its states in place, and into new arrays
otherwise; evolve checks and wraps a new array, and ansatz._simulate calls
_mix directly. kinetic_energy always uses the positive-semidefinite
L_G = D_G - A_G, so it is >= 0 and vanishes exactly on the uniform state of a
connected graph.

CustomSparse and BallCut evolutions, single or batched over betas, share one
spectral kernel on the explicit L_bar restricted to its support. It applies a
cached real eigenbasis of L_bar kept as symmetry-sector blocks: an orthonormal
change of basis Q and one eigh per block. While the blocks hold at most
DENSE_EIG_VERTEX_CAP^2 = 4096^2 entries in all it does that; above,
expm_multiply runs once per beta. Both are accurate to well under 1e-10.

A ball cut, always over a weighted hypercube, takes its blocks from
qubit-pair symmetry sectors. In y = z XOR center the ball is |y| <= radius,
and swapping two qubits of equal weight maps the graph and the ball onto
themselves, so it commutes with L_bar. Pair such qubits; on each pair keep
|00> and |11> and replace |10>, |01> by (|10> +- |01>)/sqrt(2). These vectors,
the rows of Q, keep their Hamming weight, so they span the ball exactly, and
L_bar is block-diagonal in them, one block per set of antisymmetric pairs.
The blocks have a closed form (_sector_blocks), read off the ball's
neighbour table (BallCut._neighbours): -deg(y) on the diagonal, b_q between
y and y ^ 2^q for an unpaired qubit q, sqrt(2) b between a pair's 00 or 11
row and its symmetric 10 row, where that neighbour is inside the ball, and
nothing for an antisymmetric row's pair. Q itself is never stored as a
matrix: swapping the mixed pairs of a vertex (those whose two bits differ)
splits the ball into orbits, and on an orbit of 2^M vertices Q is
H^(x M) 2^(-M/2), so Q and Q^T are one gather, one batched matmul per M and
one scatter (_orbit_basis). At n = 12, radius 6 that is 64 blocks of at most
435 (2.8 MiB of eigenvectors instead of 48 MiB for one 2510 x 2510 basis); at
n = 14, radius 7, 27 MiB. Every ball over the unit hypercube fits up to
n = 14, and at n = 15 up to radius 7. A custom graph or a ball cut with no
equal-weight pair is one block with Q the identity, its eigh that of the
whole matrix.

Up to the cap a ball cut is numpy alone. scipy is imported inside the
functions that need it: a CustomSparse (the caller hands in a scipy graph)
and custom_from_edges, BallCut.laplacian (the tests' oracle), and the
expm_multiply route above the cap.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np
from numpy.random import default_rng

from . import _bits
from .errors import ConfigError, ResourceError
from .statevector import ROTATION_BLOCK, Statevector, _apply_block, _expect, check_qubit_count

if TYPE_CHECKING:
    import scipy.sparse as sp

MATRIX_N_CAP = 16
DENSE_EIG_VERTEX_CAP = 1 << 12
# entry (r, c) of a block unitary depends only on which qubits differ: r ^ c
_BLOCK_XOR = np.bitwise_xor.outer(np.arange(1 << ROTATION_BLOCK), np.arange(1 << ROTATION_BLOCK))
BLOCK_UNITARY_CACHE = 256


class SectorBasis(NamedTuple):
    """L_bar = Q^T V diag(levels[index]) V^T Q on a graph's support: Q
    orthonormal, V = blockdiag(V_s) over the symmetry sectors in Q's row order.
    stacks[g] holds the V_s of all c sectors of one size m_s as a (c, m_s, m_s)
    array; before the eighs it held the closed-form blocks Q_s L_bar Q_s^T
    (_sector_blocks). levels are the bitwise-distinct eigenvalues (240 to 338 of
    2510 at n = 12, radius 6), so an evolution takes one exp per level and beta.

    Q is kept by its orbits (_orbit_basis, _orbit_hadamards): support vertex
    gather[k] fills slot k of the orbit layout, whose row of Q is rows[k], and
    hadamards holds (H, count) for each orbit size 2^M present, in slot order:
    H = H^(x M) 2^(-M/2), and the count orbits of that size fill (2^M, count)
    slots, one row per swap pattern. gather and rows are None where Q is the
    identity: a custom graph, or a ball cut with no mixed pair."""

    levels: np.ndarray
    index: np.ndarray
    stacks: list[np.ndarray]
    gather: np.ndarray | None
    rows: np.ndarray | None
    hadamards: list[tuple[np.ndarray, int]]


@dataclass(frozen=True)
class WeightedHypercube:
    """L_bar = sum_i b_i X_i; b_i >= 0 are per-qubit edge weights."""

    b: tuple[float, ...]
    # _mix's block unitaries, kept across calls as BallCut keeps its eigh
    _unitaries: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        b = tuple(float(x) for x in self.b)
        if not all(0 <= x < math.inf for x in b):  # false for a NaN
            raise ConfigError("hypercube weights must be finite and non-negative")
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
    _eig: SectorBasis | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        import scipy.sparse as sp

        check_qubit_count(self.n)
        size = 1 << self.n
        adj = sp.csr_matrix(self.adjacency, dtype=np.float64)
        if adj.shape != (size, size):
            raise ConfigError(f"adjacency must be {size} x {size}")
        if not np.isfinite(adj.data).all():  # inf - inf is NaN, which passes the next check
            raise ConfigError("adjacency weights must be finite")
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
        import scipy.sparse as sp

        return sp.diags(self.degrees) - self.adjacency


def custom_from_edges(n: int, edges: Sequence[Sequence[float]]) -> CustomSparse:
    """The graph of (u, v) or (u, v, weight) edges; endpoints are integral numbers."""
    import scipy.sparse as sp

    size = 1 << n
    rows, cols, vals = [], [], []
    for edge in edges:
        if len(edge) not in (2, 3):
            raise ConfigError(f"edge {tuple(edge)} is not (u, v) or (u, v, weight)")
        if not all(float(e).is_integer() for e in edge[:2]):
            raise ConfigError(f"edge {tuple(edge)} has a non-integral endpoint")
        u, v = int(edge[0]), int(edge[1])
        if not (0 <= u < size and 0 <= v < size):
            raise ConfigError(f"edge {tuple(edge)} has an endpoint outside [0, 2^n = {size})")
        w = float(edge[2]) if len(edge) > 2 else 1.0
        rows += [u, v]
        cols += [v, u]
        vals += [w, w]
    return CustomSparse(n, sp.csr_matrix((vals, (rows, cols)), shape=(size, size)))


def _check_ball(n: int, center: int, radius: int) -> None:
    if not 0 <= radius <= n:
        raise ConfigError(f"radius must lie in [0, {n}]")
    if not 0 <= center < (1 << n):
        raise ConfigError("center out of range")


def _hamming_ball(n: int, center: int, radius: int) -> np.ndarray:
    """Sorted indices z with popcount(z ^ center) <= radius, center and radius checked."""
    _check_ball(n, center, radius)
    dist = np.bitwise_count(_bits.indices(n) ^ np.uint32(center))
    return np.flatnonzero(dist <= radius)


@dataclass
class BallCut:
    """A weighted hypercube restricted to the Hamming ball B(center, radius).

    Vertices outside the ball are deleted: evolution acts as identity there and
    never exchanges amplitude across the boundary. Inside, the full induced
    Laplacian D - A is used (boundary vertices lose degree, so the degree term
    is not a global phase and must be kept). A ball over another graph G is
    CustomSparse over G's ball-induced edges: outside vertices have degree 0.

    The first evolution builds the eigenbasis of -(D - A) and keeps it in _eig
    as qubit-pair symmetry sectors (_block_eigh): swapping two equal-weight
    qubits of y = z ^ center preserves both the graph and the ball, so -(D - A)
    commutes with it and splits exactly into one block per set of antisymmetric
    pairs. The blocks, L_bar times a ball state and the kinetic energy read one
    neighbour table (_neighbours), so none of them needs scipy; laplacian()
    builds the sparse D - A from the same table.
    """

    inner: WeightedHypercube
    center: int
    radius: int
    _ball: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _flips: tuple[np.ndarray, np.ndarray] | None = field(default=None, init=False, repr=False, compare=False)
    _eig: SectorBasis | None = field(default=None, init=False, repr=False, compare=False)
    _lap: sp.csr_matrix | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.inner, WeightedHypercube):
            raise ConfigError(f"ball cuts take a WeightedHypercube, not {type(self.inner).__name__}")
        _check_ball(self.n, self.center, self.radius)

    @property
    def n(self) -> int:
        return self.inner.n

    def ball(self) -> np.ndarray:
        """Sorted basis indices inside the ball."""
        if self._ball is None:
            self._ball = _hamming_ball(self.n, self.center, self.radius)
        return self._ball

    def _neighbours(self) -> tuple[np.ndarray, np.ndarray]:
        """(flips, deg): flips[q, k] is the ball index of ball[k] ^ 2^q, or the
        ball size where that flip leaves the ball, and deg[k] the induced
        degree, the sum of b_q over the flips that stay. The flips are found in
        the sorted ball by searchsorted one qubit at a time (runs of sorted
        queries, 3x faster than one vertex's n flips at a time)."""
        if self._flips is None:
            ball = self.ball()
            flips = (1 << np.arange(self.n))[:, None] ^ ball
            cols = np.minimum(np.searchsorted(ball, flips), ball.size - 1)
            inside = ball[cols] == flips
            deg = (np.asarray(self.inner.b)[:, None] * inside).sum(axis=0)
            self._flips = np.where(inside, cols, ball.size), deg
        return self._flips

    def laplacian(self) -> sp.csr_matrix:
        """Induced-subgraph Laplacian D - A on the ball vertices (ball-local
        indexing), in scipy CSR, built from the neighbour table."""
        if self._lap is None:
            import scipy.sparse as sp

            flips, deg = self._neighbours()
            qubits, rows = np.nonzero(flips < deg.size)
            weights = np.asarray(self.inner.b, dtype=np.float64)[qubits]
            adj = sp.csr_matrix((weights, (rows, flips[qubits, rows])), shape=(deg.size,) * 2)
            self._lap = (sp.diags(deg) - adj).tocsr()
        return self._lap


def _hypercube_mixer(n: int, b: list[float] | None = None) -> WeightedHypercube:
    if b is not None and len(b) != n:
        raise ConfigError(f"hypercube mixer has {len(b)} weights b for {n} qubits")
    return hypercube(n) if b is None else WeightedHypercube(tuple(b))


def _ballcut_mixer(n: int, radius: int, center: int = 0) -> BallCut:
    return BallCut(inner=hypercube(n), center=center, radius=radius)


# The builder behind each manifest mixer kind: the kind's keys are its keyword
# arguments after the qubit count.
MIXERS = {
    "hypercube": _hypercube_mixer,
    "complete": CompleteGraph,
    "ballcut": _ballcut_mixer,
    "custom": custom_from_edges,
}


# ---------------------------------------------------------------------------
# evolution


def _rotate_qubits(amps: np.ndarray, thetas, unitaries: dict | None = None, work=None) -> np.ndarray:
    """prod_i exp(-i thetas[i] X_i) on the last axis of amps; leading axes batch.

    Qubit i is bit i of the basis index. The qubits go in blocks of
    ROTATION_BLOCK = 4 (the last block may be smaller). A block of k qubits
    acts as one 2^k x 2^k unitary, the tensor product of its 2x2 rotations,
    whose entry (r, c) is the product over the block of cos(theta_i) where r
    and c agree on bit i and -i sin(theta_i) where they differ. Each block is
    one np.matmul over a strided view (_apply_block): the lowest block
    multiplies rows of 2^k amplitudes by u.T, a higher block multiplies u into
    the (2^k, C) slabs of the axes below it.

    Why 4: a pass over the state costs about the same for one qubit as for a
    block, so blocks cut the passes from n to ceil(n / 4), while the GEMM
    work per amplitude doubles with each qubit added to a block. Why at most
    ROTATION_GEMM_COLS = 128 columns (rows, in the lowest block): that keeps
    every GEMM at 16 * 16 * 128 multiply-adds, below the size at which
    OpenBLAS wakes a second thread. At 256 columns, or with 32 x 32 blocks,
    the second thread ran, nearly doubling the CPU time with no gain in wall
    time. On a 2-vCPU Xeon VM at n = 18 this takes about 11-16 ms per call;
    rotating one qubit at a time took about 50 ms.

    Blocks whose angles are all zero are skipped. A block reuses the unitary
    of an earlier block with the same angle bytes, in this call or in one
    given the same `unitaries` dict (cleared at BLOCK_UNITARY_CACHE entries).
    The passes alternate between two buffers, and the result is one of them:
    the pair `work` (complex arrays of amps' shape) when given, else new
    arrays. The input is not written unless it is work[1], which a caller
    that no longer needs it may pass to save a buffer: the passes then write
    over it, and the result is always work[0]. It agrees with applying
    the 2x2 rotations one qubit at a time to rounding, not bit for bit, since
    the GEMM sums the 16 products in its own order.
    """
    src = np.asarray(amps, dtype=np.complex128)
    n = src.shape[-1].bit_length() - 1
    thetas = np.asarray(thetas, dtype=np.float64)
    unitaries = {} if unitaries is None else unitaries
    bufs = [] if work is None else list(work)
    cur = src
    for lo in range(0, n, ROTATION_BLOCK):
        block = thetas[lo : lo + ROTATION_BLOCK]
        if not block.any():
            continue
        u = unitaries.get(block.tobytes())
        if u is None:
            if len(unitaries) >= BLOCK_UNITARY_CACHE:
                unitaries.clear()
            u = unitaries[block.tobytes()] = _block_unitary(block)
        if len(bufs) < 2:
            bufs.append(np.empty(src.shape, dtype=np.complex128))
        dst = bufs[1] if cur is bufs[0] else bufs[0]
        _apply_block(cur, u, lo, dst)
        cur = dst
    if cur is not src:
        return cur
    if not bufs:
        return np.array(src)
    np.copyto(bufs[0], src)
    return bufs[0]


def _block_unitary(block: np.ndarray) -> np.ndarray:
    """The read-only tensor product of exp(-i theta X) over a block's angles; its factor
    table multiplies Python complex scalars by numpy's formula, highest qubit leftmost."""
    factors = [1 + 0j]
    for c, s in zip(np.cos(block).tolist(), np.sin(block).tolist()):
        same, flip = complex(c, 0.0), -1j * s
        factors = [same * f for f in factors] + [flip * f for f in factors]
    u = np.array(factors)[_BLOCK_XOR[: 1 << block.size, : 1 << block.size]]
    u.flags.writeable = False
    return u


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
    """L_bar on the support in scipy CSR: -L on the ball; A, or A - D when not regular."""
    if isinstance(lap, BallCut):
        return -lap.laplacian()
    import scipy.sparse as sp

    return lap.adjacency if lap.is_regular else lap.adjacency - sp.diags(lap.degrees)


def _lbar_times(lap: CustomSparse | BallCut, seg: np.ndarray) -> np.ndarray:
    """L_bar seg for amplitudes seg on the support. A ball cut sums b_q seg[k ^ 2^q]
    over its neighbour table, minus deg seg, in numpy; a custom graph is _lbar's
    sparse product."""
    if isinstance(lap, BallCut):
        flips, deg = lap._neighbours()
        return np.einsum("q,qk->k", lap.inner.b, np.append(seg, 0)[flips]) - deg * seg
    return _lbar(lap) @ seg


def _swap_pairs(inner: WeightedHypercube) -> list[tuple[int, int]]:
    """Disjoint pairs (i, j) of equal-weight qubits; each swap maps the hypercube to itself."""
    by_weight: dict[float, list[int]] = {}
    for q, w in enumerate(inner.b):
        by_weight.setdefault(w, []).append(q)
    return [(qs[k], qs[k + 1]) for qs in by_weight.values() for k in range(0, len(qs) - 1, 2)]


def _sector_labels(lap: CustomSparse | BallCut) -> np.ndarray:
    """The sector of each support vertex: for a ball vertex y = z ^ center, the
    bitmask of the pairs p = (i, j) of _swap_pairs on which y has bit i = 0 and
    bit j = 1; all zero for a custom graph or a ball cut with no pair."""
    if isinstance(lap, CustomSparse):
        return np.zeros(1 << lap.n, dtype=np.int64)
    y = lap.ball() ^ lap.center
    label = np.zeros(y.size, dtype=np.int64)
    for p, (i, j) in enumerate(_swap_pairs(lap.inner)):
        label |= (~(y >> i) & (y >> j) & 1) << p
    return label


def _sector_blocks(lap: CustomSparse | BallCut, label: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """(order, stacks): Q L_bar Q^T as its sector blocks. Q's row k is named by
    support vertex order[k]: rows sorted by sector size, then by sector, so the
    sectors of one size are adjacent, and stacks[g] is the (c, m_s, m_s) array
    of the c blocks of size m_s, in ascending m_s. All stacks are views of one
    buffer.

    A custom graph is one block, L_bar itself, taken from scipy. A ball
    cut's entries come in closed form from its neighbour table (module
    docstring). Name each row by its ball vertex y = z ^ center. Through an
    unpaired qubit q the row meets row y ^ 2^q with weight b_q. A pair (i, j)
    links its 00 and 11 rows to the symmetric 10 row (bit i = 1, bit j = 0)
    with weight sqrt(2) b: flipping bit i joins 00 and 10 (bit j = 0), flipping
    bit j joins 10 and 11 (bit i = 1), so an antisymmetric 01 row has no
    entry through its pair. A flip that leaves the ball has no entry, and the
    diagonal is -deg(y), equal over a pair's 10 and 01 vertices."""
    _, inverse, counts = np.unique(label, return_inverse=True, return_counts=True)
    order = np.lexsort((label, counts[inverse]))
    size = counts[inverse][order]  # the block size of each row
    sizes, per_size = np.unique(counts, return_counts=True)
    flat = np.zeros(per_size @ sizes**2)
    stacks, a = [], 0
    for m, c in zip(sizes.tolist(), per_size.tolist()):
        stacks.append(flat[a : a + c * m * m].reshape(c, m, m))
        a += c * m * m
    if isinstance(lap, CustomSparse):
        flat[:] = _lbar(lap).toarray().ravel()
        return order, stacks
    # row k's first entry in flat, and its column within its block
    first = np.searchsorted(size, size)
    rel = np.arange(size.size) - first
    base = np.concatenate([[0], np.cumsum(size)])[first] + rel * size
    col = rel % size
    pos = np.empty_like(order)
    pos[order] = np.arange(order.size)
    flips, deg = lap._neighbours()
    y = lap.ball() ^ lap.center
    weight = np.repeat(np.asarray(lap.inner.b)[:, None], y.size, axis=1)
    for i, j in _swap_pairs(lap.inner):
        weight[i] *= math.sqrt(2) * (~(y >> j) & 1)
        weight[j] *= math.sqrt(2) * ((y >> i) & 1)
    # a zero weight also marks an antisymmetric row's flips, which leave its sector
    qubits, vertices = np.nonzero((weight != 0) & (flips < y.size))
    rows = pos[vertices]
    flat[base[rows] + col[pos[flips[qubits, vertices]]]] = weight[qubits, vertices]
    flat[base + col] = -deg[order]
    return order, stacks


def _orbit_basis(cut: BallCut, label: np.ndarray, order: np.ndarray) -> tuple:
    """(gather, rows, hadamards) of SectorBasis: Q by its orbits.

    Swapping the two bits of any set of a vertex's M mixed pairs (bits
    differ) keeps it in the ball, so the ball splits into orbits of 2^M
    vertices. Number an orbit's vertices by pattern: bit t is 1 where the
    t-th mixed pair reads 01 (bit i = 0, bit j = 1). The rows of Q named by
    the orbit's vertices span it, and row r's entry at vertex c is
    2^(-M/2) (-1)^popcount(r & c): + on a symmetric pair, and on an
    antisymmetric pair + at 10 and - at 01. The slots sort vertices by M,
    then pattern, then orbit (its vertex with every 01 swapped to 10), so the
    orbits of one M fill a (2^M, count) block, one row per pattern."""
    y = cut.ball() ^ cut.center
    mixed = np.zeros(y.size, dtype=np.int64)
    pattern = np.zeros(y.size, dtype=np.int64)
    key = y.copy()
    for p, (i, j) in enumerate(_swap_pairs(cut.inner)):
        anti = (label >> p) & 1
        pattern |= anti << mixed
        mixed += ((y >> i) ^ (y >> j)) & 1
        key ^= anti * ((1 << i) | (1 << j))
    gather = np.lexsort((key, pattern, mixed))
    hadamards = []
    for m, count in enumerate(np.bincount(mixed).tolist()):
        if count:
            signs = _bits.parity_signs(m, np.arange(1 << m)[:, None])
            hadamards.append((signs * 0.5 ** (m / 2), count >> m))
    return gather, np.argsort(order)[gather], hadamards


def _orbit_hadamards(cols: np.ndarray, basis: SectorBasis, forward: bool) -> np.ndarray:
    """Q cols (forward: support into sector coordinates) or Q^T cols, for an
    (m, c) array: one gather of rows, one GEMM per orbit size, one scatter.
    The gathered rows of one size lie as a (2^M, count c) matrix, so H goes on
    all of them at once; H is symmetric, so both directions apply the same
    matrices. At n = 12, radius 6 with 128 columns that took 1.1 ms, against
    2.7 ms for one batched matmul per orbit size on (c, 2^M, count) rows."""
    if basis.gather is None:
        return cols
    take, put = (basis.gather, basis.rows) if forward else (basis.rows, basis.gather)
    w = cols[take]
    out = np.empty_like(w)
    a = 0
    for h, count in basis.hadamards:
        b = a + h.shape[0] * count
        np.matmul(h, w[a:b].reshape(h.shape[0], -1), out=out[a:b].reshape(h.shape[0], -1))
        a = b
    w[put] = out
    return w


def _block_eigh(lap: CustomSparse | BallCut, label: np.ndarray) -> SectorBasis:
    """eigh of L_bar on the support, one symmetry sector at a time, kept as blocks.

    L_bar of a ball cut commutes with swapping the two bits of each pair from
    _swap_pairs (in y = z ^ center, which maps the ball to |y| <= radius), so in
    Q's basis it is block-diagonal, one block per set of antisymmetric pairs.
    _sector_blocks writes the blocks in closed form, the sectors of one size
    stacked, and each block gets its own eigh, whose eigenvectors overwrite it.
    At n = 12, radius 6 that is 64 blocks of at most 435 in 7 stacks, 2.8 MiB
    in all, against 48 MiB for the 2510 x 2510 eigenbasis. A custom graph or
    a ball cut with no equal-weight pair (or a ball inside one sector) is one
    block with Q the identity, and its one eigh is that of the whole L_bar.
    """
    order, stacks = _sector_blocks(lap, label)
    evals, a = np.empty(label.size), 0
    for v in stacks:
        for block in v:
            evals[a : a + block.shape[0]], block[...] = np.linalg.eigh(block)
            a += block.shape[0]
    levels, index = np.unique(evals.view(np.int64), return_inverse=True)
    q = _orbit_basis(lap, label, order) if label.any() else (None, None, [])
    return SectorBasis(levels.view(np.float64), index, stacks, *q)


def _times_blocks(rows: np.ndarray, stacks: list[np.ndarray]) -> np.ndarray:
    """rows @ blockdiag(every block of every stack), for an (r, m) array: one
    batched matmul per (c, m_s, m_s) stack."""
    out = np.empty(rows.shape)
    a = 0
    for v in stacks:
        count, size = v.shape[:2]
        b = a + count * size
        block = rows[:, a:b].reshape(-1, count, size).transpose(1, 0, 2) @ v
        out[:, a:b] = block.transpose(1, 0, 2).reshape(-1, b - a)
        a = b
    return out


def _spectral_evolve(lap: CustomSparse | BallCut, seg: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """Columns exp(-i b L_bar) seg for each b in betas, as an (m, k) array.

    The cached SectorBasis of _block_eigh gives L_bar = Q^T V Λ V^T Q, so seg
    goes into sector coordinates through Q's orbit Hadamards
    (_orbit_hadamards), through each stack of equal-size sectors by two
    batched real matmuls (_times_blocks) around the phases exp(-i b Λ), and
    back through the same Hadamards.
    The phases take one exp per distinct eigenvalue, gathered by index. The
    eigenvectors of a real symmetric L_bar are real, so each matmul multiplies
    the real and imaginary parts stacked together, and no complex copy of V is
    ever made. The parts are stacked as rows with V on the right (X^T V, then
    Z^T V^T): for so few vectors BLAS runs that layout about twice as fast as
    V^T X and V Z. At n = 12, radius 6 a call took 0.6 ms for one beta and
    1.4 ms for 12 (5.3 and 10.5 ms through one dense eigenbasis; 2 vCPUs,
    numpy 2.4.6, OpenBLAS 0.3.31). The orbit Hadamards take the transpose,
    support positions as rows, so that each orbit size is one GEMM.

    When the basis would hold more than DENSE_EIG_VERTEX_CAP^2 entries (the sum
    of m_s^2), expm_multiply runs once per beta instead: custom graphs and
    unpaired ball cuts above 4096 vertices, balls over the unit hypercube at
    n = 15 from radius 8 and at n = 16 from radius 7.
    """
    if lap._eig is None:
        label = _sector_labels(lap)
        sizes = np.unique(label, return_counts=True)[1]
        if sizes @ sizes > DENSE_EIG_VERTEX_CAP**2:
            from scipy.sparse.linalg import expm_multiply
            lbar = _lbar(lap)
            out = np.empty((seg.size, betas.size), dtype=np.complex128)
            for j, b in enumerate(betas):
                out[:, j] = expm_multiply(-1j * b * lbar, seg)
            return out
        lap._eig = _block_eigh(lap, label)
    basis = lap._eig
    y = _times_blocks(_orbit_hadamards(np.stack([seg.real, seg.imag], axis=1), basis, True).T, basis.stacks)
    z = np.exp(-1j * np.outer(betas, basis.levels))[:, basis.index] * (y[0] + 1j * y[1])
    # rows 2j and 2j + 1 hold beta j's real and imaginary parts, so the columns
    # that come back read as complex amplitudes through a view
    rows = np.stack([z.real, z.imag], axis=1).reshape(2 * betas.size, -1)
    rows = _times_blocks(rows, [v.transpose(0, 2, 1) for v in basis.stacks])
    return np.ascontiguousarray(_orbit_hadamards(rows.T, basis, False)).view(np.complex128)


def _check_qubits(n: int, lap) -> None:
    if lap.n != n:
        raise ValueError(f"Laplacian is on {lap.n} qubits, state on {n}")


def _mix(amps: np.ndarray, lap, beta: float, work=None) -> np.ndarray:
    """exp(-i beta L_bar) amps, for a Laplacian on as many qubits as amps has.
    A hypercube or complete-graph mixer writes into one of the pair `work`
    (complex arrays of amps' shape) when given; every other result is a new
    array. amps is not changed unless it is work[1] (_rotate_qubits): then a
    hypercube mixer writes over it and the result is work[0]."""
    if isinstance(lap, WeightedHypercube):
        return _rotate_qubits(amps, beta * np.asarray(lap.b), lap._unitaries, work)
    if isinstance(lap, CompleteGraph):
        out = None if work is None else work[0]
        return np.add(amps, (np.exp(-1j * beta) - 1.0) * np.mean(amps), out=out)
    return _mix_many(amps, lap, np.array([float(beta)]))[0]


def evolve(state: Statevector, lap, beta: float) -> Statevector:
    """Exact unitary exp(-i beta L_bar) applied to the state."""
    _check_qubits(state.n, lap)
    return Statevector(state.n, _mix(state.amps, lap, beta))


def _mix_many(amps: np.ndarray, lap, betas: np.ndarray, work=None) -> Iterable[np.ndarray]:
    """_mix(amps, lap, b) for every b in betas, in order. A hypercube or
    complete-graph mixer yields them one at a time, into the pair `work` when
    given (as _mix), so each yielded state must be read before the next is
    asked for. Custom graphs and ball cuts evolve all betas in one
    spectral-kernel call and return a list of new arrays: through the cached
    sector blocks while they fit DENSE_EIG_VERTEX_CAP^2 entries, one
    expm_multiply per beta above it."""
    if isinstance(lap, (WeightedHypercube, CompleteGraph)):
        return (_mix(amps, lap, float(b), work) for b in betas)
    support = _support(lap)
    cols = _spectral_evolve(lap, amps[support], betas)
    out = [amps.copy() for _ in range(betas.size)]
    for j, col in enumerate(out):
        col[support] = cols[:, j]
    return out


def evolve_many(state: Statevector, lap, betas: np.ndarray) -> list[Statevector]:
    """evolve(state, lap, b) for every b in betas, through _mix_many."""
    _check_qubits(state.n, lap)
    betas = np.asarray(betas, dtype=np.float64)
    return [Statevector(state.n, amps) for amps in _mix_many(state.amps, lap, betas)]


# ---------------------------------------------------------------------------
# kinetic energy <L_G> with the positive-semidefinite convention


def _x_expectations(amps: np.ndarray) -> np.ndarray:
    n = amps.size.bit_length() - 1
    out = np.empty(n)
    for i in range(n):
        v = amps.reshape(1 << (n - 1 - i), 2, 1 << i)
        out[i] = 2.0 * float(np.sum(v[:, 0, :].conj() * v[:, 1, :]).real)
    return out


def _kinetic(amps: np.ndarray, lap) -> float:
    """<psi| L_G |psi> of raw amplitudes, for a Laplacian on as many qubits."""
    if isinstance(lap, WeightedHypercube):
        b = np.asarray(lap.b)
        return float(np.sum(b * (1.0 - _x_expectations(amps))))
    if isinstance(lap, CompleteGraph):
        u_amp = np.sum(amps) * 2.0 ** (-lap.n / 2)
        return float(1.0 - abs(u_amp) ** 2)
    if isinstance(lap, (CustomSparse, BallCut)):
        # Re<seg|L seg> as two chunked real dots, so no BLAS thread split moves its bits
        if isinstance(lap, BallCut):
            seg = amps[lap.ball()]
            lseg = -_lbar_times(lap, seg)
        else:
            seg, lseg = amps, lap.laplacian() @ amps
        return _expect(seg.real, lseg.real) + _expect(seg.imag, lseg.imag)
    raise ConfigError(f"unsupported Laplacian {type(lap).__name__}")


def kinetic_energy(state: Statevector, lap) -> float:
    """<psi| L_G |psi> with L_G = D_G - A_G (>= 0; 0 iff uniform when connected)."""
    _check_qubits(state.n, lap)
    return _kinetic(state.amps, lap)


# ---------------------------------------------------------------------------
# structured initial states


def ball_uniform_state(n: int, center: int, radius: int) -> Statevector:
    """Equal positive amplitudes on the Hamming ball B(center, radius)."""
    check_qubit_count(n)
    ball = _hamming_ball(n, center, radius)
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[ball] = 1.0 / np.sqrt(ball.size)
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
    rng = default_rng(seed)
    thetas = rng.uniform(0.0, 2.0 * np.pi, size=state.amps.shape[0])
    amps = state.amps.copy()
    nz = amps != 0
    amps[nz] = amps[nz] * np.exp(1j * thetas[nz])
    return Statevector(state.n, amps)
