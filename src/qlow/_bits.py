"""Bit-level helpers over little-endian basis indices.

Convention used everywhere in this package: basis index z encodes qubit i in
bit i of z, so Z_i |z> = (1 - 2 * z_i) |z> with z_i = (z >> i) & 1.
"""

from __future__ import annotations

import numpy as np


def indices(n: int) -> np.ndarray:
    """All 2^n basis indices as uint32 (n <= 24 keeps this comfortably small)."""
    return np.arange(1 << n, dtype=np.uint32)


def popcounts(n: int) -> np.ndarray:
    """Hamming weight of every basis index, shape (2^n,), dtype int64."""
    return np.bitwise_count(indices(n)).astype(np.int64)


def parity_signs(n: int, mask) -> np.ndarray:
    """(-1)^{popcount(z & mask)} for every z; the eigenvalue table of prod_{i in mask} Z_i.
    Masks of shape (T, 1) give a (T, 2^n) table."""
    par = np.bitwise_count(indices(n) & np.uint32(mask)) & 1
    return 1.0 - 2.0 * par


def mask_of(qubits: tuple[int, ...]) -> int:
    m = 0
    for q in qubits:
        m |= 1 << q
    return m


def bitstring(z: int, n: int) -> str:
    """Render z with qubit 0 leftmost (little-endian display order)."""
    return "".join(str((z >> i) & 1) for i in range(n))
