"""Variational objectives over exact distributions, plus diagnostic metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ansatz import Schedule, qaoa_state
from .errors import ConfigError, NumericError
from .problems import DiagonalProblem
from .statevector import Statevector, _expect, _walsh, ground_state_mass


@dataclass(frozen=True)
class Mean:
    pass


@dataclass(frozen=True)
class Gibbs:
    """Soft-min objective -log<exp(-eta f)>; discounts high-energy support."""

    eta: float = 20.0

    def __post_init__(self) -> None:
        if not self.eta > 0:
            raise ConfigError("Gibbs eta must be positive")


@dataclass(frozen=True)
class CVaR:
    """Mean of the lowest alpha-quantile of the induced distribution over f."""

    alpha: float = 0.1

    def __post_init__(self) -> None:
        if not 0 < self.alpha <= 1:
            raise ConfigError("CVaR alpha must lie in (0, 1]")


Objective = Mean | Gibbs | CVaR

# The objective behind each manifest kind: the kind's keys are its fields.
OBJECTIVES = {"mean": Mean, "gibbs": Gibbs, "cvar": CVaR}


def evaluate(obj: Objective, state: Statevector, problem: DiagonalProblem) -> float:
    return _scorer(obj, problem)(state.amps)


def _scorer(obj: Objective, problem: DiagonalProblem):
    """The objective as a function of raw amplitudes (length 2^n, little-endian).

    Tables that depend only on the problem (Gibbs weights, the CVaR order) are
    built here, once; a search that scores many states builds one scorer. The
    scorer squares each state into a float buffer it owns (CVaR keeps a second
    one for the sorted probabilities), with the bytes of np.abs(amps) ** 2, so
    one scorer must not score two states at once. evaluate() is the scorer
    applied to one state.

    The Mean and Gibbs scorers also carry slope(): (table, factor) with
    dF/dp = factor * table at the state scored last, F the objective and p the
    probabilities. For Mean that is (f, 1); for Gibbs, F = -shift - log g with
    g = sum p w, it is (w, -1 / g). CVaR has no slope: its quantile makes it
    piecewise in p.
    """
    values = problem.dense
    probs = np.empty(values.shape)

    def square(amps):
        return np.square(np.abs(amps, out=probs), out=probs)

    if isinstance(obj, Mean):

        def mean(amps):
            return _expect(square(amps), values)

        mean.slope = lambda: (values, 1.0)
        return mean
    if isinstance(obj, Gibbs):
        weights = -obj.eta * values
        shift = float(weights.max())
        np.exp(np.subtract(weights, shift, out=weights), out=weights)
        last = {"g": math.nan}

        def gibbs(amps):
            g = last["g"] = _expect(square(amps), weights)
            if not np.isfinite(g) or g <= 0.0:
                raise NumericError("Gibbs objective overflowed despite max-shift")
            return -(shift + np.log(g))

        gibbs.slope = lambda: (weights, -1.0 / last["g"])
        return gibbs
    if isinstance(obj, CVaR):
        order = np.argsort(values, kind="stable")
        p = np.empty(values.shape)

        def cvar(amps):
            np.take(square(amps), order, out=p, mode="clip")
            cum = np.cumsum(p, out=probs)
            k = min(int(np.searchsorted(cum, obj.alpha)), p.size - 1)
            taken = float(cum[k - 1]) if k > 0 else 0.0
            # the k + 1 lowest costs, gathered over cum once it is read
            f = np.take(values, order[: k + 1], out=probs[: k + 1], mode="clip")
            below = _expect(p[:k], f[:k]) + (obj.alpha - taken) * float(f[k])
            return below / obj.alpha

        return cvar
    raise ConfigError(f"unknown objective {obj!r}")


def mean_via_terms(problem: DiagonalProblem, state: Statevector) -> float:
    """Mean energy as sum over terms of coeff * <prod Z>.

    Independent of the dense-table route in evaluate(); kept separate so the
    two can cross-check each other. <Z_S> for every mask S is one unnormalized
    Walsh-Hadamard transform of the probabilities, read at the term masks.
    """
    signed = _walsh(state.probabilities())
    return _expect(problem.coeffs, signed[problem.masks])


def approximation_ratio(problem: DiagonalProblem, mean_value: float) -> float:
    spread = problem.f_max - problem.f_min
    if spread <= 0:
        raise ConfigError("approximation ratio undefined for a constant problem")
    return (problem.f_max - mean_value) / spread


@dataclass(frozen=True)
class ProxyResult:
    """Normalized single-round gain in exact-solution probability."""

    value: float
    initial_mass: float
    final_mass: float
    gamma: float
    beta: float
    degenerate: bool


def improvement_proxy(
    initial: Statevector,
    problem: DiagonalProblem,
    lap,
    gamma: float,
    beta: float,
) -> ProxyResult:
    """The round (gamma, beta) from `initial`; gain normalized by 1 - 2^-n.

    The caller picks the round's angles, by a search or by hand. The
    normalization makes an exact solve from the uniform state score 1.
    Degenerate minima are handled by tracking total ground-state mass, with
    the flag set in the result.
    """
    if initial.n != problem.n:
        raise ValueError("initial state size does not match problem")
    final = qaoa_state(problem, lap, Schedule([gamma], [beta]), initial=initial)
    degenerate = len(problem.argmin_set) > 1
    c0 = ground_state_mass(initial, problem.dense)
    cf = ground_state_mass(final, problem.dense)
    norm = 1.0 - 2.0 ** (-problem.n)
    return ProxyResult(
        value=(cf - c0) / norm,
        initial_mass=c0,
        final_mass=cf,
        gamma=gamma,
        beta=beta,
        degenerate=degenerate,
    )
