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
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

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
    amps = fwht_array(state.amps)
    nrm2 = float(np.sum(np.abs(amps) ** 2))
    if abs(nrm2 - 1.0) > NORM_TOL:
        amps = amps / np.sqrt(nrm2)
    return Statevector(state.n, amps)


def fwht_array(values: np.ndarray) -> np.ndarray:
    """Normalized Walsh-Hadamard transform of a length-2^n array (any dtype)."""
    a = np.array(values, dtype=np.complex128 if np.iscomplexobj(values) else np.float64)
    size = a.shape[0]
    n = size.bit_length() - 1
    if size != 1 << n:
        raise ValueError(f"length {size} is not a power of two")
    h = 1
    while h < size:
        a = a.reshape(-1, 2, h)
        top = a[:, 0, :] + a[:, 1, :]
        bot = a[:, 0, :] - a[:, 1, :]
        a = np.stack([top, bot], axis=1)
        h *= 2
    return a.reshape(size) * 2.0 ** (-n / 2)


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
