import math

import numpy as np
import pytest
from hypothesis import given, settings

from qlow import statevector
from qlow.ansatz import Schedule, qaoa_state
from qlow.errors import ResourceError
from qlow.laplacians import hypercube
from qlow.problems import hamming_ramp
from qlow.statevector import (
    Statevector,
    _expect,
    _phase,
    apply_phase,
    basis_state,
    check_qubit_count,
    fwht,
    fwht_array,
    ground_state_mass,
    max_qubits,
    overlap_probability,
    plus_state,
)

from conftest import angles, random_states


def test_plus_state_amplitudes():
    st_ = plus_state(3)
    assert st_.amps.shape == (8,)
    np.testing.assert_allclose(st_.amps, np.full(8, 2 ** -1.5))
    assert st_.norm() == pytest.approx(1.0, abs=1e-14)


def test_basis_state_one_hot():
    st_ = basis_state(4, 9)
    assert st_.amps[9] == 1.0
    assert np.count_nonzero(st_.amps) == 1


def test_basis_state_range_check():
    with pytest.raises(ValueError):
        basis_state(3, 8)
    with pytest.raises(ValueError):
        basis_state(3, -1)


def test_qubit_cap_enforced():
    with pytest.raises(ResourceError):
        check_qubit_count(max_qubits() + 1)
    with pytest.raises(ValueError):
        check_qubit_count(0)


def test_qubit_cap_env_override(monkeypatch):
    monkeypatch.setenv("QLOW_MAX_QUBITS", "5")
    assert max_qubits() == 5
    with pytest.raises(ResourceError):
        check_qubit_count(6)
    monkeypatch.delenv("QLOW_MAX_QUBITS")
    assert max_qubits() == 24


def test_apply_phase_preserves_probabilities():
    state = plus_state(3)
    values = np.arange(8.0)
    phased = apply_phase(state, values, 0.7)
    np.testing.assert_allclose(phased.probabilities(), state.probabilities(), atol=1e-15)
    # the phase itself: amps[z] * exp(-i gamma f(z))
    np.testing.assert_allclose(phased.amps, state.amps * np.exp(-1j * 0.7 * values), atol=1e-15)


def test_apply_phase_shape_mismatch():
    with pytest.raises(ValueError):
        apply_phase(plus_state(2), np.zeros(8), 1.0)


def test_fwht_matches_dense_hadamard():
    # independent oracle: explicit H tensor power, little-endian kron order
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    n = 3
    mat = np.array([[1.0]])
    for _ in range(n):
        mat = np.kron(h, mat)
    rng = np.random.default_rng(5)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    out = fwht(Statevector(n, amps))
    np.testing.assert_allclose(out.amps, mat @ amps, atol=1e-12)


def test_fwht_plus_is_zero_string():
    out = fwht(plus_state(5))
    assert overlap_probability(out, 0) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=60)
@given(random_states())
def test_fwht_involution(state):
    twice = fwht(fwht(state))
    assert np.max(np.abs(twice.amps - state.amps)) < 1e-12


@settings(max_examples=60)
@given(random_states())
def test_fwht_preserves_norm(state):
    assert abs(fwht(state).norm() - 1.0) < 1e-10


def test_fwht_array_bad_length():
    with pytest.raises(ValueError):
        fwht_array(np.zeros(6))


@settings(max_examples=40)
@given(random_states(), angles)
def test_phase_then_unitary_norm(state, gamma):
    values = np.arange(float(state.amps.size))
    assert abs(apply_phase(state, values, gamma).norm() - 1.0) < 1e-10


def test_ground_state_mass_degenerate():
    values = np.array([0.0, 1.0, 0.0, 2.0])
    amps = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
    assert ground_state_mass(Statevector(2, amps), values) == pytest.approx(0.5)


def test_ground_state_mass_tie_tolerance():
    values = np.array([0.0, 1e-12, 1.0, 1.0])
    state = plus_state(2)
    assert ground_state_mass(state, values) == pytest.approx(0.5)


def test_statevector_shape_validation():
    with pytest.raises(ValueError):
        Statevector(2, np.zeros(3, dtype=complex))


@pytest.mark.parametrize("route", ["levels", "dense"])
@pytest.mark.parametrize("n", [13, 14])
def test_phase_multiplies_in_the_operand_order_numpys_elision_gave(n, route):
    """From 2^14 entries numpy computed amps * <factor> in place as <factor> * amps,
    and a complex product is not commutative in its last bit; _phase writes that
    order out, amps first below 2^14 and the factor first from there on."""
    rng = np.random.default_rng(n)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    levels = rng.normal(size=40)
    index = rng.integers(0, levels.size, size=1 << n).astype(np.uint8)
    gamma = 0.83
    if route == "levels":
        factor, args = np.exp(-1j * gamma * levels)[index], (levels, gamma, index)
    else:
        factor, args = np.exp(-1j * gamma * levels[index]), (levels[index], gamma)
    first, second = (factor, amps) if n >= 14 else (amps, factor)
    want = np.multiply(first, second)
    assert want.tobytes() != np.multiply(second, first).tobytes()  # the order shows here
    assert _phase(amps, *args).tobytes() == want.tobytes()
    out = np.empty_like(amps)
    assert _phase(amps, *args, out=out) is out
    assert out.tobytes() == want.tobytes()


def test_batched_phase_multiplies_amps_first_at_any_size():
    # numpy elides no temporary that amps broadcasts against: 2 x 2^13 rows
    rng = np.random.default_rng(5)
    amps = rng.normal(size=1 << 13) + 1j * rng.normal(size=1 << 13)
    values = rng.normal(size=(2, 1 << 13))
    factor = np.exp(-1j * 0.83 * values)
    want = np.multiply(amps, factor)
    assert want.tobytes() != np.multiply(factor, amps).tobytes()
    assert _phase(amps, values, 0.83).tobytes() == want.tobytes()


# The size-triggered branches of the kernels: each test shrinks (or grows) one
# constant so that a small input runs the branch the default leaves to large n.


def test_gather_chunk_moves_no_state_byte(monkeypatch):
    """GATHER_CHUNK only bounds the index copies of the level-table gather."""
    prob, lap = hamming_ramp(10), hypercube(10)  # 11 levels: a uint8 index
    assert prob.phase_table[1] is not None
    sched = Schedule([0.83, -0.4], [0.3, 1.1])
    want = qaoa_state(prob, lap, sched).amps
    monkeypatch.setattr(statevector, "GATHER_CHUNK", 7)  # 147 chunks, the last one short
    assert qaoa_state(prob, lap, sched).amps.tobytes() == want.tobytes()


@pytest.mark.parametrize("elide", [1, 1 << 30], ids=["factor_first", "amps_first"])
def test_elide_entries_moves_amplitudes_only_in_their_last_bits(monkeypatch, elide):
    """ELIDE_ENTRIES picks the operand order of the phase product, which is
    not byte-neutral: both orders agree with the polar route
    |a| exp(i (arg a - gamma f)) to 4e-15 of each amplitude's size."""
    rng = np.random.default_rng(15)
    amps = rng.normal(size=1 << 10) + 1j * rng.normal(size=1 << 10)
    values, gamma = 3.0 * rng.normal(size=1 << 10), 0.83
    polar = np.abs(amps) * np.exp(1j * (np.angle(amps) - gamma * values))
    monkeypatch.setattr(statevector, "ELIDE_ENTRIES", elide)
    got = _phase(amps, values, gamma)
    assert np.all(np.abs(got - polar) <= 4e-15 * np.abs(amps))


@pytest.mark.parametrize("chunk", [64, 100, 1 << 12], ids=["chunks", "short_last_chunk", "one_dot"])
def test_expect_chunk_moves_a_sum_only_in_its_last_bits(monkeypatch, chunk):
    """EXPECT_CHUNK sets where _expect splits its dot, which is not
    byte-neutral: every split agrees with math.fsum of the products to 1e-14
    of the summed magnitudes."""
    rng = np.random.default_rng(16)
    weights, values = rng.uniform(size=1 << 10), rng.normal(size=1 << 10)
    monkeypatch.setattr(statevector, "EXPECT_CHUNK", chunk)
    exact = math.fsum((weights * values).tolist())
    assert abs(_expect(weights, values) - exact) <= 1e-14 * float(np.abs(weights * values).sum())
