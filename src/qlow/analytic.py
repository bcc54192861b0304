"""Closed forms for single-round evolution of independent spins and diabatic
sweep (Landau-Zener) averages.

Distribution conventions for the per-spin field alpha (f = alpha Z):
binary alpha in {-1, +1}; uniform on [-1, 1]; gaussian with variance 1/2,
so E|alpha| = 1/sqrt(pi). Closed forms below assume those normalizations.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError

def single_spin_overlap(alpha: float, gamma: float, beta: float) -> float:
    """Probability of the single-spin ground state after one round.

    For f = alpha Z starting from |+>: (1/2)(1 - sin(2 beta) sin(2 |alpha| gamma)).
    Not clamped; the caller checks ranges if it needs a probability.
    """
    return 0.5 * (1.0 - math.sin(2.0 * beta) * math.sin(2.0 * abs(alpha) * gamma))


def _gauss_average(f: Callable[[float], float], tol: float, what: str) -> float:
    """E[f(alpha)] over the gaussian law by quadrature on [-8, 8]."""
    import scipy.integrate
    val, err = scipy.integrate.quad(
        lambda a: f(a) * float(np.exp(-(np.array(a) ** 2)) / math.sqrt(math.pi)),
        -8.0, 8.0, epsabs=1e-12, epsrel=1e-12, limit=200,
    )
    if err > tol:
        raise NumericError(f"{what} quadrature did not converge")
    return val


@dataclass(frozen=True)
class FieldLaw:
    """One per-spin field law: its sampler and its single-round closed forms.

    c_m(gamma, s2b) is the mean energy per spin at s2b = sin 2beta: s2b times
    an odd function of gamma, whose minimum for s2b > 0 lies in bracket.
    overlap(gamma, beta) is the mean ground-state probability per spin. Every
    law is symmetric, so f_max = -f_star.
    """

    draw: Callable[[np.random.Generator, int | tuple[int, ...]], np.ndarray]
    c_m: Callable[[float, float], float]
    overlap: Callable[[float, float], float]
    f_star: float
    bracket: tuple[float, float]

    def ratio(self, c_m: float) -> float:
        """Approximation ratio (f_max - c_m) / (f_max - f_star) of a mean energy per spin."""
        f_max = -self.f_star
        return (f_max - c_m) / (f_max - self.f_star)


def _uniform_c_m(gamma: float, s2b: float) -> float:
    if abs(gamma) < 1e-5:
        return s2b * (2.0 / 3.0) * gamma
    return s2b * (math.sin(2.0 * gamma) - 2.0 * gamma * math.cos(2.0 * gamma)) / (4.0 * gamma**2)


def _uniform_overlap(gamma: float, beta: float) -> float:
    if abs(gamma) < 1e-8:
        return 0.5
    return 0.5 * (1.0 - math.sin(2.0 * beta) * (1.0 - math.cos(2.0 * gamma)) / (2.0 * gamma))


DISTRIBUTIONS = {
    "binary": FieldLaw(
        draw=lambda rng, size: rng.integers(0, 2, size) * 2.0 - 1.0,
        c_m=lambda gamma, s2b: s2b * math.sin(2.0 * gamma),
        overlap=lambda gamma, beta: single_spin_overlap(1.0, gamma, beta),
        f_star=-1.0, bracket=(-1.4, -0.3),
    ),
    "uniform": FieldLaw(
        draw=lambda rng, size: rng.uniform(-1.0, 1.0, size),
        c_m=_uniform_c_m,
        overlap=_uniform_overlap,
        f_star=-0.5, bracket=(-1.5, -0.6),
    ),
    "gaussian": FieldLaw(
        draw=lambda rng, size: rng.normal(0.0, math.sqrt(0.5), size),
        c_m=lambda gamma, s2b: math.exp(-(gamma**2)) * gamma * s2b,
        overlap=lambda gamma, beta: _gauss_average(
            lambda a: single_spin_overlap(a, gamma, beta), 1e-8, "overlap"
        ),
        f_star=-1.0 / math.sqrt(math.pi), bracket=(-1.1, -0.3),
    ),
}


def _law(dist: str) -> FieldLaw:
    try:
        return DISTRIBUTIONS[dist]
    except (KeyError, TypeError):
        raise ConfigError(f"unknown distribution {dist!r}") from None


def draw_fields(dist: str, rng: np.random.Generator, size: int | tuple[int, ...]) -> np.ndarray:
    """i.i.d. per-spin fields alpha of the named distribution, shaped size."""
    return _law(dist).draw(rng, size)


@dataclass(frozen=True)
class DistributionSummary:
    dist: str
    gamma: float
    beta: float
    c_m: float
    overlap: float
    f_star: float
    ratio: float


def distribution_qaoa(dist: str, gamma: float, beta: float) -> DistributionSummary:
    """Per-spin averages over a field distribution after one round."""
    law = _law(dist)
    c_m, o = law.c_m(gamma, math.sin(2.0 * beta)), law.overlap(gamma, beta)
    return DistributionSummary(dist, gamma, beta, c_m, o, law.f_star, law.ratio(c_m))


def optimal_gamma(dist: str, beta: float = math.pi / 4) -> float:
    """Best scalar gamma for the per-spin mean energy at fixed beta. c_m is sin 2beta
    times an odd function of gamma, so the bracket mirrors when sin 2beta < 0."""
    law = _law(dist)
    s2b = math.sin(2.0 * beta)
    if s2b == 0.0:
        raise ConfigError(f"every gamma gives the same energy at sin 2beta = 0 (beta = {beta})")
    lo, hi = law.bracket
    import scipy.optimize
    res = scipy.optimize.minimize_scalar(
        lambda g: law.c_m(g, s2b), bounds=(lo, hi) if s2b > 0 else (-hi, -lo),
        method="bounded", options={"xatol": 1e-10},
    )
    return float(res.x)


# ---------------------------------------------------------------------------
# diabatic sweep averages


@dataclass(frozen=True)
class LandauZener:
    """Sweep-rate-Gamma averages for gaussian per-spin fields.

    p_lz(alpha) is the per-spin success probability; o_lz its average over
    the field distribution; a_lz the average final energy per spin; r_lz the
    corresponding approximation ratio.
    """

    gamma_rate: float

    def __post_init__(self) -> None:
        if not (self.gamma_rate > 0 and math.isfinite(self.gamma_rate)):
            raise ConfigError("sweep rate must be positive and finite")

    def p_lz(self, alpha: float) -> float:
        return 1.0 - math.exp(-math.pi * alpha**2 / self.gamma_rate)

    @property
    def o_lz(self) -> float:
        g = self.gamma_rate
        return 1.0 - math.sqrt(g / (g + math.pi))

    @property
    def a_lz(self) -> float:
        return -math.sqrt(math.pi) / (math.pi + self.gamma_rate)

    @property
    def r_lz(self) -> float:
        g = self.gamma_rate
        return (2.0 * math.pi + g) / (2.0 * (math.pi + g))


def landau_zener(gamma_rate: float) -> LandauZener:
    return LandauZener(gamma_rate)


def lz_overlap_quadrature(gamma_rate: float) -> float:
    """O as a direct average of p_lz over the gaussian field, for checking."""
    return _gauss_average(LandauZener(gamma_rate).p_lz, 1e-9, "sweep")


def lz_numeric_success(
    gamma_rate: float,
    alpha: float = 1.0,
    t_final: float = 80.0,
    rtol: float = 1e-9,
) -> float:
    """Success probability from integrating the two-level sweep directly.

    H(t) = alpha X + (gamma_rate) t Z, swept from -t_final to +t_final,
    started in the instantaneous ground state (|0> for large negative t).
    The asymptotic probability oscillates at finite time, so the tail is
    averaged over a window of checkpoints.
    """
    LandauZener(gamma_rate)  # rejects a non-positive, infinite or NaN rate

    def rhs(t, y):
        a0 = y[0] + 1j * y[1]
        a1 = y[2] + 1j * y[3]
        d0 = -1j * (gamma_rate * t * a0 + alpha * a1)
        d1 = -1j * (alpha * a0 - gamma_rate * t * a1)
        return [d0.real, d0.imag, d1.real, d1.imag]

    import scipy.integrate
    checkpoints = np.linspace(0.8 * t_final, t_final, 25)
    sol = scipy.integrate.solve_ivp(
        rhs,
        (-t_final, t_final),
        [1.0, 0.0, 0.0, 0.0],
        method="DOP853",
        rtol=rtol,
        atol=rtol * 1e-2,
        t_eval=checkpoints,
        max_step=1.0,
    )
    if not sol.success:
        raise NumericError(f"sweep integration failed: {sol.message}")
    p1 = sol.y[2] ** 2 + sol.y[3] ** 2
    return float(np.mean(p1))

