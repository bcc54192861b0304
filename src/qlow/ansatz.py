"""Evolvers: standard and relaxed QAOA, the multilinear extension of a cost,
mean-field stepping.

One round applies the problem phase exp(-i gamma f) and then the mixer
exp(-i beta L_bar); rounds compose innermost-first. Relaxed-gamma schedules
carry one angle per problem term, relaxed-beta one angle per qubit (hypercube
mixers only, since per-qubit angles require the tensor structure).

_simulate runs the rounds on one raw array through _phase_round and _mix_round,
which pick each round's kernel (statevector._phase, laplacians._mix,
_rotate_qubits for per-qubit betas); the adjoint backward pass in optimize
undoes rounds through the same two at sign -1. qaoa_state checks its inputs
once, calls _simulate and wraps the result; the searches in optimize call it
on flat angle arrays, with the three state buffers each search keeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .laplacians import WeightedHypercube, _check_qubits, _mix, _rotate_qubits
from .problems import DiagonalProblem
from .statevector import Statevector, _phase, check_qubit_count


@dataclass
class Schedule:
    """p rounds of (gamma, beta) angles, optionally relaxed.

    gammas: shape (p,) or (p, T) with T the number of problem terms.
    betas:  shape (p,) or (p, n) with n the qubit count.
    """

    gammas: np.ndarray | list[float | list[float]]
    betas: np.ndarray | list[float | list[float]]

    def __post_init__(self) -> None:
        try:
            self.gammas = np.atleast_1d(np.asarray(self.gammas, dtype=np.float64))
            self.betas = np.atleast_1d(np.asarray(self.betas, dtype=np.float64))
        except ValueError as exc:  # such as rows of unequal length
            raise ConfigError(f"schedule angles must be numbers or equal rows: {exc}") from exc
        if self.gammas.ndim > 2 or self.betas.ndim > 2 or 0 in self.gammas.shape[1:]:
            raise ConfigError("schedule arrays must be 1- or 2-dimensional, with no empty rows")
        if not (np.all(np.isfinite(self.gammas)) and np.all(np.isfinite(self.betas))):
            raise ConfigError("schedule angles must be finite")
        if self.rounds != (self.betas.shape[0] if self.betas.ndim else 1):
            raise ConfigError("gammas and betas disagree on round count")

    @property
    def rounds(self) -> int:
        return self.gammas.shape[0]

    @property
    def gamma_relaxed(self) -> bool:
        return self.gammas.ndim == 2

    @property
    def beta_relaxed(self) -> bool:
        return self.betas.ndim == 2


def _start(problem: DiagonalProblem, lap, initial: Statevector | None) -> np.ndarray:
    """The checked first amplitudes of a simulation: initial's, or |+>^n as a
    read-only broadcast of its one amplitude, which the first phase reads."""
    if initial is not None and initial.n != problem.n:
        raise ValueError("initial state size does not match problem")
    _check_qubits(problem.n, lap)
    check_qubit_count(problem.n)
    if initial is not None:
        return initial.amps
    return np.broadcast_to(np.complex128(2.0 ** (-problem.n / 2)), (1 << problem.n,))


def _simulate(amps, problem: DiagonalProblem, lap, gammas, betas, buffers=None) -> np.ndarray:
    """The rounds of qaoa_state on raw amplitudes, unchecked; amps is not changed.

    gammas has shape (p,) or (p, T), betas (p,) or (p, n), as in a Schedule.
    buffers, three complex arrays of amps' shape and none of them amps, take
    the phased state and the mixer's two passes; the result of a hypercube or
    complete-graph mixer is one of them. Without buffers every round writes
    new arrays. Zero rounds return amps itself."""
    phased, work = (None, None) if buffers is None else (buffers[0], buffers[1:])
    for gamma, beta in zip(gammas, betas):
        # two statements: the last round's state is released before the mixer runs
        amps = _phase_round(amps, problem, gamma, 1, phased)
        amps = _mix_round(amps, lap, beta, 1, work)
    return amps


def _phase_round(amps, problem: DiagonalProblem, gamma, sign: int, out) -> np.ndarray:
    """exp(-i sign gamma f) amps, one round's phase into out (_phase): a per-term
    gamma row weights term_tables(), a scalar gamma reads phase_table."""
    if np.ndim(gamma):
        return _phase(amps, gamma @ problem.term_tables(), float(sign), out=out)
    levels, index = problem.phase_table
    return _phase(amps, levels, sign * float(gamma), index, out=out)


def _mix_round(amps, lap, beta, sign: int, work) -> np.ndarray:
    """exp(-i sign beta L_bar) amps, one round's mixer into the pair work (_mix):
    a per-qubit beta row scales the weights b (_rotate_qubits), a scalar goes to _mix."""
    if np.ndim(beta):
        return _rotate_qubits(amps, sign * beta * np.asarray(lap.b), work=work)
    return _mix(amps, lap, sign * float(beta), work)


def qaoa_state(
    problem: DiagonalProblem,
    lap,
    schedule: Schedule,
    initial: Statevector | None = None,
) -> Statevector:
    """Alternate phase and mixer evolutions, p rounds, innermost round first;
    `initial` is not changed."""
    if schedule.beta_relaxed and not isinstance(lap, WeightedHypercube):
        raise ConfigError("per-qubit beta requires a hypercube mixer")
    if schedule.gamma_relaxed and schedule.gammas.shape[1] != problem.masks.size:
        raise ConfigError("per-term gammas must match the problem's term count")
    if schedule.beta_relaxed and schedule.betas.shape[1] != problem.n:
        raise ConfigError("per-qubit betas must match the qubit count")
    start = _start(problem, lap, initial)
    amps = _simulate(start, problem, lap, schedule.gammas, schedule.betas)
    return Statevector(problem.n, np.array(amps) if amps is start else amps)


# ---------------------------------------------------------------------------
# the multilinear extension of a cost and its gradient


def _spins(problem: DiagonalProblem, x: np.ndarray) -> np.ndarray:
    """1 - 2 x after checking that x is a point of [0, 1]^n."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (problem.n,):
        raise ValueError("x must have one entry per qubit")
    if np.any(x < -1e-12) or np.any(x > 1 + 1e-12):
        raise ConfigError("x must lie in [0, 1]^n")
    return 1.0 - 2.0 * x


def multilinear_value(problem: DiagonalProblem, x: np.ndarray) -> float:
    """f-hat(x): term-wise expectation with each Z_i replaced by (1 - 2 x_i).

    Equals f(z) exactly on 0/1 vertices and the product-state expectation with
    x_i the per-qubit excitation probability.
    """
    s = _spins(problem, x)
    # cumsum adds the terms one by one from 0.0, in term order, as a loop would
    addends = np.concatenate(([0.0], problem.coeffs * _term_products(problem.masks, s)))
    return float(np.cumsum(addends)[-1])


def _term_products(masks: np.ndarray, s: np.ndarray) -> np.ndarray:
    """prod_{i in m} s_i for each mask m, multiplied in ascending qubit order."""
    prods = np.ones(masks.shape)
    for i, si in enumerate(s):
        prods *= np.where((masks >> i) & 1, si, 1.0)
    return prods


def _leave_one_out(problem: DiagonalProblem, s: np.ndarray) -> np.ndarray:
    """Per qubit q: sum over terms T containing q of coeff_T * prod_{i in T, i != q} s_i.
    One entry per (term, qubit in it), its product taken over the term's mask
    without that qubit (exact when s_q = 0); bincount adds them in term order."""
    masks, n = problem.masks, problem.n
    holders = [np.flatnonzero((masks >> q) & 1) for q in range(n)]
    qubit = np.repeat(np.arange(n), [h.size for h in holders])
    term = np.concatenate(holders)
    rest = _term_products(masks[term] & ~(1 << qubit), s)
    return np.bincount(qubit, weights=problem.coeffs[term] * rest, minlength=n)


def multilinear_gradient(problem: DiagonalProblem, x: np.ndarray) -> np.ndarray:
    """d f-hat / d x_i; multilinearity makes each term's factor drop out once,
    and d(1 - 2 x_i)/d x_i = -2."""
    return -2.0 * _leave_one_out(problem, _spins(problem, x))


# ---------------------------------------------------------------------------
# mean-field evolution (product states in, product states out)


def meanfield_plus(n: int) -> np.ndarray:
    """(n, 2) array of per-qubit |+> states."""
    q = np.full((n, 2), 1.0 / np.sqrt(2.0), dtype=np.complex128)
    return q


def product_z_expectations(qubits: np.ndarray) -> np.ndarray:
    """<Z_j> per qubit for an (n, 2) product state."""
    return (np.abs(qubits[:, 0]) ** 2 - np.abs(qubits[:, 1]) ** 2).real


def meanfield_step(
    problem: DiagonalProblem,
    lap: WeightedHypercube,
    qubits: np.ndarray,
    gamma: float,
    beta: float,
) -> np.ndarray:
    """One mean-field round on an (n, 2) product state.

    The per-qubit potential keeps only the Z_j part of the trace: a term on T
    containing j contributes coeff * prod_{i in T, i != j} <Z_i> to the field
    on j (identity parts are per-qubit global phases and are dropped). All
    fields come from the pre-step state (synchronous update); the mean-field
    Laplacian of a hypercube is b_j X_j exactly since X_j is one-local.
    """
    if not isinstance(lap, WeightedHypercube):
        raise ConfigError("mean-field stepping is defined for hypercube mixers")
    _check_qubits(problem.n, lap)
    qubits = np.asarray(qubits, dtype=np.complex128)
    if qubits.shape != (problem.n, 2):
        raise ConfigError("mean-field state must be an (n, 2) product array")
    fields = _leave_one_out(problem, product_z_expectations(qubits))
    ph = -1j * gamma * fields
    phased = qubits * np.exp(np.stack([ph, -ph], axis=1))
    th = beta * np.asarray(lap.b)
    # exp(-i th X) = [[c, -i s], [-i s, c]] per qubit; [:, ::-1] swaps a0 and a1
    return np.cos(th)[:, None] * phased - 1j * np.sin(th)[:, None] * phased[:, ::-1]


def meanfield_evolve(
    problem: DiagonalProblem,
    lap: WeightedHypercube,
    schedule: Schedule,
    qubits: np.ndarray | None = None,
) -> np.ndarray:
    if schedule.gamma_relaxed or schedule.beta_relaxed:
        raise ConfigError("mean-field evolution takes scalar per-round angles")
    state = meanfield_plus(problem.n) if qubits is None else np.asarray(qubits, np.complex128)
    for k in range(schedule.rounds):
        state = meanfield_step(
            problem, lap, state, float(schedule.gammas[k]), float(schedule.betas[k])
        )
    return state


def product_overlap(qubits: np.ndarray, target: int) -> float:
    """Probability that measuring the product state yields basis string target."""
    p = 1.0
    for j in range(qubits.shape[0]):
        bit = (target >> j) & 1
        p *= float(np.abs(qubits[j, bit]) ** 2)
    return p
