"""Diagonal cost-function generators, emitted as Z-term arrays plus dense tables.

Every problem is a real diagonal operator f = sum_t c_t prod_{i in t} Z_i with
Z_i |z> = (1 - 2 z_i)|z>. Generators record true extrema of the dense table.

A `DiagonalProblem` stores its terms only as `masks` (int64, bit i for qubit i)
and `coeffs` (float64) arrays in term order; duplicate masks add up. `ZTerm`s
live at the API edge: `from_terms` parses them once, and the `terms` view
rebuilds them from the arrays on each access.

Every construction checks the dense table against the terms through the Walsh
domain: the term coefficients, scattered onto their qubit masks, are one fast
Walsh-Hadamard transform away from the table (O(n 2^n) at any n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from . import _bits
from .analytic import draw_fields
from .errors import ConfigError, NumericError, bind
from .statevector import GROUND_TOL, check_qubit_count, fwht_array

WALSH_COEFF_CUTOFF = 1e-12


@dataclass(frozen=True)
class ZTerm:
    """A product of Z operators on `qubits` scaled by `coeff`; empty set = identity."""

    qubits: tuple[int, ...]
    coeff: float

    def __post_init__(self) -> None:
        qs = tuple(sorted(self.qubits))
        if len(set(qs)) != len(qs):
            raise ValueError(f"duplicate qubit in term {self.qubits}")
        if qs and qs[0] < 0:
            raise ValueError(f"negative qubit {qs[0]} in term {self.qubits}")
        object.__setattr__(self, "qubits", qs)
        object.__setattr__(self, "coeff", float(self.coeff))
        if not math.isfinite(self.coeff):
            raise ValueError("term coefficient must be finite")


def _magnitude(values: np.ndarray) -> float:
    """Scale of a table's rounding error, for its Walsh cutoff and check tolerance."""
    return max(1.0, float(np.max(np.abs(values))))


def _term_arrays(n: int, terms: Sequence[ZTerm]) -> tuple[np.ndarray, np.ndarray]:
    """(masks, coeffs) of `terms` in order; every qubit is checked below n before
    any mask is built, so no mask can overflow int64."""
    for t in terms:
        if t.qubits and t.qubits[-1] >= n:
            raise ValueError(f"term {t.qubits} references qubit >= n={n}")
    masks = np.fromiter((_bits.mask_of(t.qubits) for t in terms), np.int64, len(terms))
    coeffs = np.fromiter((t.coeff for t in terms), np.float64, len(terms))
    return masks, coeffs


def _qubit_tuples(masks: np.ndarray, n: int) -> list[tuple[int, ...]]:
    """The ascending qubit tuple of each mask, joined from 4-qubit lookup tables."""
    lows = range(0, n, 4)
    tables = [[tuple(lo + i for i in range(4) if v >> i & 1) for v in range(16)] for lo in lows]
    parts = [[table[v] for v in ((masks >> lo) & 15).tolist()] for lo, table in zip(lows, tables)]
    return [sum(p, ()) for p in zip(*parts)]


def _dense_from_terms(n: int, masks: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_t c_t (-1)^{popcount(z & m_t)}, adding one table of +-c_t per term in
    order: exactly c_t times the term's parity signs, so the sums keep their bits."""
    z = _bits.indices(n)
    scratch = np.empty_like(z)
    values = np.zeros(z.size, dtype=np.float64)
    for m, c in zip(masks, coeffs):
        parity = np.bitwise_count(np.bitwise_and(z, np.uint32(m), out=scratch)) & 1
        values += np.where(parity.view(bool), -c, c)
    return values


def _dense_from_walsh(n: int, masks: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """The same table as `_dense_from_terms` by an independent route: scatter the
    coefficients onto their masks (duplicates and the identity add up), then one
    unnormalized Walsh-Hadamard transform."""
    return fwht_array(np.bincount(masks, weights=coeffs, minlength=1 << n)) * 2.0 ** (n / 2)


@dataclass
class DiagonalProblem:
    """n qubits; Z terms stored only as equal-length `masks` (int64) and `coeffs`
    (float64) arrays, of which `terms` is a read-only view; and the dense table.
    terms_gap is the largest entry of |dense - sum of the terms|, checked here:
    a table from from_dense keeps the Walsh terms below WALSH_COEFF_CUTOFF out
    of its term list, so only the table holds them."""

    n: int
    masks: np.ndarray
    coeffs: np.ndarray
    dense: np.ndarray

    def __post_init__(self) -> None:
        check_qubit_count(self.n)
        self.masks = np.asarray(self.masks, dtype=np.int64)
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if self.masks.ndim != 1 or self.masks.shape != self.coeffs.shape:
            raise ValueError("masks and coeffs must be 1-D arrays of equal length")
        if self.masks.size and (self.masks.min() < 0 or self.masks.max() >> self.n):
            raise ValueError(f"term masks must lie in [0, 2^n) for n={self.n}")
        self.dense = np.asarray(self.dense, dtype=np.float64)
        if self.dense.shape != (1 << self.n,):
            raise ValueError("dense table length does not match 2^n")
        if not np.all(np.isfinite(self.dense)):
            raise ValueError("dense table contains non-finite entries")
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("term coefficients must be finite")
        rebuilt = _dense_from_walsh(self.n, self.masks, self.coeffs) if self.masks.size else 0.0
        self.terms_gap = float(np.max(np.abs(rebuilt - self.dense)))
        if self.masks.size and self.terms_gap > 1e-9 * _magnitude(self.dense):
            raise ValueError("dense table disagrees with term-list evaluation")
        self.f_min = float(self.dense.min())
        self.f_max = float(self.dense.max())
        self._term_tables: np.ndarray | None = None

    @property
    def terms(self) -> list[ZTerm]:
        """The terms as `ZTerm`s in stored order, built from the arrays on each access."""
        tuples = _qubit_tuples(self.masks, self.n)
        return [ZTerm(qs, c) for qs, c in zip(tuples, self.coeffs.tolist())]

    @property
    def argmin_set(self) -> np.ndarray:
        """All basis indices attaining f_min within GROUND_TOL."""
        return np.flatnonzero(self.dense <= self.f_min + GROUND_TOL)

    @cached_property
    def phase_table(self) -> tuple[np.ndarray, np.ndarray | None]:
        """(levels, index) with levels[index] bitwise equal to dense (-0.0 and 0.0
        apart), index uint8 or uint16; (dense, None) above 2^n/8 or 2^16 levels."""
        # Per phase at n=12-18 (2 vCPUs, numpy 2.4.6) levels took 0.12-0.2 of the
        # dense time at under 25 levels, 0.3-0.5 at 2^n/8 and 1.06-1.13 with all
        # 4096 distinct (gaussian n=12); the unique costs 1-1.5 dense phases.
        # A prefix of cap + 1 entries with more than cap levels rejects the table
        # before the full unique (0.26 against 0.44 ms on an all-distinct n=14 one).
        cap = min(self.dense.size >> 3, 1 << 16)
        bits = self.dense.view(np.int64)
        if np.unique(bits[: cap + 1]).size > cap:
            return self.dense, None
        bits, index = np.unique(bits, return_inverse=True)
        if bits.size > cap:
            return self.dense, None
        return bits.view(np.float64), index.astype(np.uint8 if bits.size <= 256 else np.uint16)

    def term_tables(self) -> np.ndarray:
        """Per-term dense eigenvalue tables, shape (T, 2^n); cached."""
        if self._term_tables is None:
            self._term_tables = self.coeffs[:, None] * _bits.parity_signs(self.n, self.masks[:, None])
        return self._term_tables


def from_terms(n: int, terms: Iterable[ZTerm]) -> DiagonalProblem:
    check_qubit_count(n)
    masks, coeffs = _term_arrays(n, list(terms))
    return DiagonalProblem(n, masks, coeffs, _dense_from_terms(n, masks, coeffs))


def from_dense(n: int, values: np.ndarray) -> DiagonalProblem:
    """Build a problem from a value table; terms recovered by Walsh expansion.

    The Pauli-Z coefficient of subset mask S is the normalized Walsh transform
    2^{-n} sum_z f(z) (-1)^{popcount(z & S)}; coefficients below
    WALSH_COEFF_CUTOFF times max(1, max |values|) are rounding noise and dropped.
    """
    check_qubit_count(n)
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (1 << n,):
        raise ValueError(f"dense table has {values.size} values, not 2^n = {1 << n}")
    coeffs = fwht_array(values) * 2.0 ** (-n / 2)
    masks = np.flatnonzero(np.abs(coeffs) > WALSH_COEFF_CUTOFF * _magnitude(values))
    return DiagonalProblem(n, masks, coeffs[masks], values)


# ---------------------------------------------------------------------------
# generators


def uncoupled_spins(n: int, dist: str, seed: int = 0) -> DiagonalProblem:
    """f = sum_i alpha_i Z_i, the i.i.d. alpha_i drawn by `analytic.draw_fields`
    (binary +-1, uniform on [-1, 1], or gaussian with variance 1/2)."""
    check_qubit_count(n)
    alphas = draw_fields(dist, np.random.default_rng(seed), n)
    terms = [ZTerm((i,), float(alphas[i])) for i in range(n)]
    return from_terms(n, terms)


def hamming_ramp(n: int) -> DiagonalProblem:
    """f = w = (1/2) sum_i (I - Z_i), i.e. values[z] = popcount(z)."""
    check_qubit_count(n)
    terms = [ZTerm((), n / 2.0)] + [ZTerm((i,), -0.5) for i in range(n)]
    return from_terms(n, terms)


def spike_band(n: int, a: float) -> tuple[int, int]:
    """Integer weights inside the closed interval n/4 +- n^a/2."""
    half = (float(n) ** a) / 2.0
    lo = int(np.ceil(n / 4 - half))
    hi = int(np.floor(n / 4 + half))
    return max(lo, 0), min(hi, n)


def spike(n: int, a: float = 0.0, b: float = 1.0) -> DiagonalProblem:
    """Ramp plus a barrier: values[z] = w + n^b on the weight band around n/4."""
    check_qubit_count(n)
    if n % 4 != 0:
        raise ConfigError(f"spike requires n divisible by 4, got {n}")
    try:
        (lo, hi), height = spike_band(n, a), float(n) ** b
    except OverflowError:
        raise ConfigError(f"n^a or n^b overflows a double for n={n}, a={a}, b={b}") from None
    w = _bits.popcounts(n)
    values = w.astype(np.float64)
    values[(w >= lo) & (w <= hi)] += height
    return from_dense(n, values)


def bush(n: int) -> DiagonalProblem:
    """H = P0 + (I - P0) w with P0 projecting qubit 0 onto |0>.

    Basis values: 1 whenever z_0 = 0, else popcount(z).
    """
    check_qubit_count(n)
    w = _bits.popcounts(n).astype(np.float64)
    z0 = (_bits.indices(n) & 1).astype(bool)
    values = np.where(z0, w, 1.0)
    return from_dense(n, values)


def kspin_ferromagnet(n: int, k: int = 3) -> DiagonalProblem:
    """f = -(sum_i Z_i)^k, values[z] = -(n - 2 popcount(z))^k."""
    check_qubit_count(n)
    if k < 1:
        raise ConfigError("k must be >= 1")
    s = (n - 2 * _bits.popcounts(n)).astype(np.float64)
    return from_dense(n, -(s**k))


def conflicted_pairs(n: int, epsilon: float = 0.1, delta: float = 2.2) -> DiagonalProblem:
    """Pairs (2i, 2i+1): -(1+eps) Z_{2i} - Z_{2i+1} + delta Z_{2i} Z_{2i+1}.

    Requires delta > 2 + eps > 2 so the coupling wins: each pair's ground state
    anti-aligns the two spins with the (1+eps) spin at its one-body minimum.
    """
    check_qubit_count(n)
    if n % 2 != 0:
        raise ConfigError("conflicted_pairs requires even n")
    if not epsilon > 0:
        raise ConfigError("epsilon must be > 0")
    if not delta > 2 + epsilon:
        raise ConfigError(f"delta must exceed 2 + epsilon = {2 + epsilon}")
    terms = []
    for i in range(n // 2):
        a, b = 2 * i, 2 * i + 1
        terms.append(ZTerm((a,), -(1.0 + epsilon)))
        terms.append(ZTerm((b,), -1.0))
        terms.append(ZTerm((a, b), delta))
    return from_terms(n, terms)


def fisher_chain(n: int, seed: int = 0) -> DiagonalProblem:
    """Open chain sum_i (J_i/2)(1 - Z_i Z_{i+1}) with J_i drawn from {1, 2}."""
    check_qubit_count(n)
    rng = np.random.default_rng(seed)
    js = rng.choice([1.0, 2.0], size=n - 1)
    terms = [ZTerm((), float(js.sum()) / 2.0)]
    terms += [ZTerm((i, i + 1), -float(js[i]) / 2.0) for i in range(n - 1)]
    return from_terms(n, terms)


def chain_detuned(n: int, j2: float = 1.0) -> DiagonalProblem:
    """Open ferromagnetic chain: first half couplings -1, second half -j2."""
    check_qubit_count(n)
    terms = []
    for i in range(n - 1):
        j = 1.0 if i < n // 2 else float(j2)
        terms.append(ZTerm((i, i + 1), -j))
    return from_terms(n, terms)


def grid_ferromagnet_2d(rows: int, cols: int, j2: float = 1.0) -> DiagonalProblem:
    """Nearest-neighbor ferromagnet on a rows x cols grid, split into two column
    blocks at ceil(cols/2): block-one edges couple at -1, block two and the seam
    at -j2. Qubit index = r * cols + c."""
    if rows < 1 or cols < 1:
        raise ConfigError(f"grid needs rows and cols >= 1, got {rows} x {cols}")
    n = rows * cols
    check_qubit_count(n)
    split = (cols + 1) // 2
    terms = []
    for r in range(rows):
        for c in range(cols):
            q = r * cols + c
            if c + 1 < cols:
                j = 1.0 if (c + 1) < split else float(j2)
                terms.append(ZTerm((q, q + 1), -j))
            if r + 1 < rows:
                j = 1.0 if c < split else float(j2)
                terms.append(ZTerm((q, q + cols), -j))
    return from_terms(n, terms)


def _random_regular_edges(d: int, n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Seeded configuration-model d-regular graph; resample on loops/multi-edges."""
    if (d * n) % 2 != 0 or d >= n:
        raise ConfigError(f"no {d}-regular graph on {n} vertices")
    stubs = np.repeat(np.arange(n), d)
    for _ in range(10_000):
        perm = rng.permutation(stubs)
        pairs = perm.reshape(-1, 2)
        edges = {tuple(sorted((int(u), int(v)))) for u, v in pairs}
        if len(edges) == len(pairs) and all(u != v for u, v in edges):
            return sorted(edges)
    raise NumericError("rejection sampling failed to produce a simple regular graph")


def maxcut_3regular(n: int, fraction: float = 0.5, j2: float = 1.0, seed: int = 0) -> DiagonalProblem:
    """H = sum_{(i,j) in E} J_ij Z_i Z_j on a random simple 3-regular graph;
    round(|E| * fraction) uniformly chosen edges get coupling j2, rest 1."""
    check_qubit_count(n)
    if n % 2 != 0 or n < 4:
        raise ConfigError("3-regular graphs need even n >= 4")
    if not 0 <= fraction <= 1:
        raise ConfigError(f"maxcut fraction must lie in [0, 1], got {fraction}")
    rng = np.random.default_rng(seed)
    edges = _random_regular_edges(3, n, rng)
    k = int(round(len(edges) * fraction))
    detuned = set(rng.choice(len(edges), size=k, replace=False).tolist()) if k else set()
    terms = [
        ZTerm(e, float(j2) if idx in detuned else 1.0) for idx, e in enumerate(edges)
    ]
    return from_terms(n, terms)


def _dense(n: int, values: list[float]) -> DiagonalProblem:
    return from_dense(n, values)


def _terms(n: int, terms: list[dict]) -> DiagonalProblem:
    return from_terms(n, [bind(ZTerm, t, f"$.problem.terms[{i}]")() for i, t in enumerate(terms)])


# The generator behind each manifest problem family: the family's keys are its
# keyword arguments, and its defaults are the family's defaults.
PROBLEMS = {
    "ramp": hamming_ramp,
    "uncoupled": uncoupled_spins,
    "chain": chain_detuned,
    "grid": grid_ferromagnet_2d,
    "maxcut": maxcut_3regular,
    "spike": spike,
    "bush": bush,
    "kspin": kspin_ferromagnet,
    "conflicted": conflicted_pairs,
    "fisher": fisher_chain,
    "dense": _dense,
    "terms": _terms,
}


# ---------------------------------------------------------------------------
# variable fixing (used by iterated rounding)


def freeze(problem: DiagonalProblem, assignment: dict[int, int]) -> tuple[DiagonalProblem, list[int]]:
    """Substitute fixed bits into the problem: Z_i -> (1 - 2 z_i) scalar.

    Returns the folded sub-problem on the surviving qubits (relabeled densely)
    and the list mapping new index -> original index. The folded constant is
    kept as an identity term, so sub-problem values equal original values on
    any completion.
    """
    if any(not 0 <= q < problem.n or bit not in (0, 1) for q, bit in assignment.items()):
        raise ValueError(f"freeze takes qubits in [0, {problem.n}) and bits 0 or 1: {assignment}")
    keep = [q for q in range(problem.n) if q not in assignment]
    if not keep:
        raise ValueError("cannot freeze every qubit; evaluate the dense table instead")
    ones = sum(1 << q for q, bit in assignment.items() if bit)
    signs = 1.0 - 2.0 * (np.bitwise_count(problem.masks & ones) & 1)
    relabeled = np.zeros_like(problem.masks)
    for new, orig in enumerate(keep):
        relabeled |= ((problem.masks >> orig) & 1) << new
    # bincount adds each mask's coefficients in term order, starting from 0.0
    masks, slot = np.unique(relabeled, return_inverse=True)
    folded = np.bincount(slot, weights=problem.coeffs * signs, minlength=masks.size)
    live = np.flatnonzero((folded != 0.0) | (masks == 0))
    tuples = _qubit_tuples(masks[live], len(keep))
    order = live[sorted(range(live.size), key=tuples.__getitem__)]  # by qubit tuple
    masks, folded = masks[order], folded[order]
    dense = _dense_from_terms(len(keep), masks, folded)
    return DiagonalProblem(len(keep), masks, folded, dense), keep
