"""Dense complex statevectors and the primitive evolutions everything composes.

Amplitudes live in a flat array of length 2^n indexed little-endian: bit i of
the index is qubit i, and Z_i |z> = (1 - 2 z_i) |z>. Hard cap n <= 24 unless
the QLOW_MAX_QUBITS environment variable raises it. Evolutions are exact
unitaries and do not renormalize; only fwht checks the norm, renormalizing
drift beyond NORM_TOL = 1e-10.

The scalar-gamma phases of ansatz._simulate and of optimize._grid_scan_p1, the
one p=1 grid scan with or without its closed-form screen, take a problem's
level table (DiagonalProblem.phase_table) when it has one; all other phases
are dense. The bytes match: each entry is the same exp of the same product.
The raw kernel _phase writes into a caller's buffer, so a search keeps one phased
state for all its simulations.

_apply_block, one GEMM of a 2^k x 2^k matrix on ROTATION_BLOCK qubits, runs
the hypercube mixer (laplacians._rotate_qubits) and _walsh, the one
Walsh-Hadamard transform: the fast transform's Kronecker factorisation (Fino
and Algazi, IEEE Trans. Comput. C-25, 1976), one +-1 block GEMM per block.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import _bits
from .errors import ConfigError, ResourceError

DEFAULT_MAX_QUBITS = 24
NORM_TOL = 1e-10
# a basis state within GROUND_TOL of the minimum cost counts as a ground state
GROUND_TOL = 1e-9
# OpenBLAS splits a longer dot across its threads, and the split changes the last bits
EXPECT_CHUNK = 1 << 12
# numpy computes x * <temporary> in place, as <temporary> * x, from 256 KiB of
# complex128 on when x has the temporary's shape; _phase writes that order out
ELIDE_ENTRIES = 1 << 14
GATHER_CHUNK = 1 << 12
# _apply_block's qubits and most columns per GEMM (laplacians._rotate_qubits says why)
ROTATION_BLOCK = 4
ROTATION_GEMM_COLS = 128
# entry (r, c) of the 2^k x 2^k Walsh-Hadamard block is (-1)^popcount(r & c)
_WALSH_BLOCK = _bits.parity_signs(ROTATION_BLOCK, np.arange(1 << ROTATION_BLOCK)[:, None])


def max_qubits() -> int:
    """Current qubit cap; QLOW_MAX_QUBITS overrides the default of 24."""
    raw = os.environ.get("QLOW_MAX_QUBITS")
    if raw is None:
        return DEFAULT_MAX_QUBITS
    try:
        cap = int(raw)
    except ValueError:
        cap = 0  # rejected below with the same message as any cap < 1
    if cap < 1:
        raise ConfigError(f"QLOW_MAX_QUBITS must be an integer >= 1, got {raw!r}")
    return cap


def check_qubit_count(n: int) -> None:
    if n < 1:
        raise ConfigError(f"qubit count must be >= 1, got {n}")
    if n > max_qubits():
        raise ResourceError(f"n={n} exceeds the cap of {max_qubits()} qubits")


@dataclass
class Statevector:
    """n qubits, 2^n complex amplitudes, little-endian basis indexing."""

    n: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        check_qubit_count(self.n)
        self.amps = np.asarray(self.amps, dtype=np.complex128)
        if self.amps.shape != (1 << self.n,):
            raise ValueError(
                f"amplitude array has shape {self.amps.shape}, expected ({1 << self.n},)"
            )

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amps) ** 2)))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2


def _plus_amps(n: int) -> np.ndarray:
    return np.full(1 << n, 2.0 ** (-n / 2), dtype=np.complex128)


def plus_state(n: int) -> Statevector:
    """|+>^n: every amplitude 2^(-n/2), phase 0."""
    check_qubit_count(n)
    return Statevector(n, _plus_amps(n))


def basis_state(n: int, z: int) -> Statevector:
    check_qubit_count(n)
    if not 0 <= z < (1 << n):
        raise ValueError(f"basis index {z} out of range for n={n}")
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[z] = 1.0
    return Statevector(n, amps)


def _phase(amps: np.ndarray, values: np.ndarray, gamma: float, index=None, out=None) -> np.ndarray:
    """exp(-i * gamma * f(z)) * amps[z] written into out, or into a new array when
    out is None; out must not be amps, and amps is not changed. f is values, or
    values[index] with values the distinct costs bit for bit: each entry is the
    same exp of the same product on both routes. Leading axes of values batch
    tables against one amps. The sign follows the ansatz convention
    exp(-i gamma f).

    The factor goes into out first, then the product, in the operand order that
    numpy's temporary elision gave amps * <factor>: the factor first where the
    result has at least ELIDE_ENTRIES entries and amps has its shape, amps
    first otherwise (numpy elides no temporary that amps broadcasts against).
    A complex product is not commutative in its last bit, so the order is
    written out by size.
    """
    if out is None:
        shape = values.shape if index is None else index.shape
        out = np.empty(np.broadcast_shapes(amps.shape, shape), dtype=np.complex128)
    if index is None:
        np.exp(np.multiply(-1j * gamma, values, out=out), out=out)
    else:
        factor = np.exp(-1j * gamma * values)
        # np.take casts the index to intp, by chunks so that the copy stays small;
        # "clip" (the index is in range) keeps it from buffering out
        for lo in range(0, index.size, GATHER_CHUNK):
            hi = lo + GATHER_CHUNK
            np.take(factor, index[lo:hi], out=out[lo:hi], mode="clip")
    if out.size < ELIDE_ENTRIES or amps.shape != out.shape:
        return np.multiply(amps, out, out=out)
    return np.multiply(out, amps, out=out)


def _expect(weights: np.ndarray, values: np.ndarray) -> float:
    """weights @ values for two 1-D float arrays, as one dot per EXPECT_CHUNK
    entries with the partial sums added in order, so that the result does not
    depend on the BLAS thread count. Up to 2^12 entries it is one plain dot."""
    total = float(weights[:EXPECT_CHUNK] @ values[:EXPECT_CHUNK])
    for lo in range(EXPECT_CHUNK, weights.size, EXPECT_CHUNK):
        total += float(weights[lo : lo + EXPECT_CHUNK] @ values[lo : lo + EXPECT_CHUNK])
    return total


def apply_phase(state: Statevector, values: np.ndarray, gamma: float) -> Statevector:
    """The phase kernel on a checked state and table, wrapped as a new state."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != state.amps.shape:
        raise ValueError(
            f"phase table length {values.shape} does not match state length {state.amps.shape}"
        )
    return Statevector(state.n, _phase(state.amps, values, gamma))


def fwht(state: Statevector) -> Statevector:
    """H^{tensor n} with 2^(-n/2) normalization; self-inverse, O(n 2^n).
    The result is renormalized only if its norm drifts beyond NORM_TOL."""
    amps = _walsh(state.amps * 2.0 ** (-state.n / 2))
    nrm2 = float(np.sum(np.abs(amps) ** 2))
    if abs(nrm2 - 1.0) > NORM_TOL:
        amps = amps / np.sqrt(nrm2)
    return Statevector(state.n, amps)


def _apply_block(amps: np.ndarray, u: np.ndarray, lo: int, out: np.ndarray) -> None:
    """u, a 2^k x 2^k matrix, on the k qubits from lo up of amps' last axis, into
    out (amps' shape and dtype, not amps): the lowest block multiplies rows of
    2^k entries by u.T, a higher block multiplies u into the (2^k, C) slabs of
    the axes below it, C at most ROTATION_GEMM_COLS."""
    k = u.shape[0].bit_length() - 1
    if lo == 0:
        shape = (-1, math.gcd(amps.size >> k, ROTATION_GEMM_COLS), 1 << k)
        np.matmul(amps.reshape(shape), u.T, out=out.reshape(shape))
    else:
        cols = min(ROTATION_GEMM_COLS, 1 << lo)
        shape = (-1, 1 << k, (1 << lo) // cols, cols)
        np.matmul(u, amps.reshape(shape).swapaxes(-3, -2), out=out.reshape(shape).swapaxes(-3, -2))


def _walsh(rows: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """sum_c (-1)^popcount(s & c) x[c] at every s: the unnormalized Walsh-Hadamard
    transform, in place, of each row of a real or complex (r, 2^m) array or of
    a 1-D one; returns rows. One _WALSH_BLOCK GEMM per ROTATION_BLOCK qubits,
    work.shape[0] rows at a time through work (rows' dtype; rows' shape when
    None), so that a small work makes no second (r, 2^m) array."""
    flat = rows.reshape(-1, rows.shape[-1])
    work = np.empty_like(flat) if work is None else work
    m = flat.shape[-1].bit_length() - 1
    blocks = [(lo, 1 << min(ROTATION_BLOCK, m - lo)) for lo in range(0, m, ROTATION_BLOCK)]
    for a in range(0, flat.shape[0], work.shape[0]):
        src = flat[a : a + work.shape[0]]
        cur, other = src, work[: src.shape[0]]
        for lo, width in blocks:
            _apply_block(cur, _WALSH_BLOCK[:width, :width], lo, other)
            cur, other = other, cur
        if cur is not src:
            src[...] = cur
    return rows


def overlap_probability(state: Statevector, target: int) -> float:
    """|<target|state>|^2 for a basis target."""
    if not 0 <= target < state.amps.shape[0]:
        raise ValueError(f"target {target} out of range")
    return float(np.abs(state.amps[target]) ** 2)


def ground_state_mass(state: Statevector, values: np.ndarray) -> float:
    """Probability mass on every z attaining min values[z], ties within GROUND_TOL."""
    values = np.asarray(values, dtype=np.float64)
    mask = values <= values.min() + GROUND_TOL
    return float(np.sum(np.abs(state.amps[mask]) ** 2))
