"""Outer loops: grid + local search over schedules, iterated rounding, and
a classical product-state restart baseline.

Every search above the p=1 grid whose objective is smooth (Mean or Gibbs)
refines with bfgs_minimize on the gradient of _value_and_grad: every p>1
search, and every relaxed search (per-term gammas, per-qubit betas). Scalar
p=1 searches and CVaR keep compass_minimize. The gradient is the adjoint one
(Jones & Gacon, arXiv:2009.02823). The forward pass is the search's own
simulation and scorer, so the value is fun(x) bit for bit. With psi the final
state and F the objective of its probabilities p = |psi|^2, the backward pass
starts from lambda = (dF/dp) psi and uncomputes one round at a time, applying
the round's mixer and phase at sign -1 to psi and lambda alike through the
helpers the forward pass applies at +1 (ansatz._mix_round, _phase_round), so
it needs no stored trajectory: the search's three state buffers hold psi,
lambda and the kernels' output. With psi and lambda taken after round k's
mixer, phi and mu after its phase, L_bar the mixer's generator and f the cost:

- scalar beta_k: 2 Im<lambda|L_bar psi>; L_bar psi is sum_q b_q X_q psi on the
  hypercube, mean(psi) times the all-ones vector on the complete graph, and
  _lbar_times on the support of a custom graph or ball cut;
- per-qubit beta_kq: 2 b_q Im<lambda|X_q psi>, X_q psi being psi with bit q of
  the index flipped;
- scalar gamma_k: 2 Im<mu|f phi>;
- per-term gamma_kT: 2 c_T Im<mu|Z_T phi> = 2 c_T W[Im(conj(mu) phi)]_T, one
  unnormalized Walsh transform W read at the term masks.

dF/dp comes from the scorer's tables (objectives._scorer's slope): f for Mean,
-w/g for Gibbs. CVaR's quantile gives it none, so a search refines by gradient
exactly when its scorer has a slope.

Every p=1 search makes its grid by one scan, _grid_scan_p1, with an optional
screen (_screen): a table of values close to the simulated ones. Both screens
need the |+>^n start and a hypercube mixer.

Mean itself, with any weights b and no term on more than two qubits, takes a
closed form (_p1_mean_closed_form) that also screens the compass trials. With
f = c0 + sum_u h_u Z_u + sum_uv J_uv Z_u Z_v and theta_q = beta b_q
(arXiv:1706.02998, arXiv:2012.03421):

- <Z_u> = sin 2theta_u sin(2 gamma h_u) prod_w cos(2 gamma J_uw);
- <Z_u Z_v> = cos 2theta_u sin 2theta_v P_uv + sin 2theta_u cos 2theta_v P_vu
  + sin 2theta_u sin 2theta_v Q_uv, with
  P_uv = sin(2 gamma J_uv) cos(2 gamma h_v) prod_{w != u} cos(2 gamma J_vw) and
  Q_uv = [cos 2gamma(h_u - h_v) prod cos 2gamma(J_uw - J_vw)
          - cos 2gamma(h_u + h_v) prod cos 2gamma(J_uw + J_vw)] / 2,
  both products over w not in {u, v}.

Gibbs, with every weight b equal, takes a Walsh-shell table (_p1_gibbs_walsh)
of g = sum_z p_z w_z, w = exp(-eta f - shift) the scorer's weights. The value
-(shift + log g) rises as g falls, so the table holds -g. In the Walsh basis
b sum_q X_q is b (n - 2t) on popcount shell t, so with W the normalized
transform, phi the phased state and V_t = W P_t W phi, the state is
sum_t exp(-i beta b (n - 2t)) V_t, and g(beta) = sum_st exp(2i beta b (t - s))
A_st with A_st = <V_s|w V_t>: one A per gamma gives its whole beta row. W phi
has no weight on odd shells when f(z) = f(~z) (f == f[::-1]). A table value
costs more than a simulation, so the compass trials are not screened.

The screen only picks which points are simulated: every value that decides
the search (the top_k order, the floor, each compass move, the returned
value) is still the simulated one, so the result keeps its bytes. The
argument: the closed form c and the simulated Mean d of a point differ by
at most the margin m = SCREEN_MARGIN S (1 + S / 20) + terms_gap, with
S = max(1, sum_t |c_t|). They agreed to 9e-16 S or better on every family
with such terms, with unequal and zero weights, up to n = 20. Both routes
also round phases as large as pi S, a gap that grows as S^2: 4e-17 S^2 or
less on a maxcut with a field scaled from S = 12 to 1.2e10, which passes
1e-12 S from S = 1.2e6 on. So m keeps over 1000 times the largest gap of
either kind; terms_gap is what a table can hold beyond its term list. A
point with c > v + 2m, v the top_k-th smallest c of the grid, has d > v + m,
which is at least the top_k-th smallest d, so it cannot enter the top_k. A
compass trial with c > fx + m has d > fx and cannot be a move from the
centre value fx.

For Gibbs, c and d are the table's and the scorer's -g, and
m = SCREEN_MARGIN (n + 1) max(1, |shift|). They agreed to 3.7e-15 or better
(g <= 1) on grids, maxcuts, chains, ramps and costs with fields up to n = 12,
so they differ by at most m / 1000. An entry with c > v + 2m then has a g
below each of the top_k entries' by more than m, so a log g below theirs by
more than m / g >= m: far more than the 2.2e-16 (|shift| + |log g|) by which
rounding moves a value, so its value lies above all of theirs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from . import _bits
from .ansatz import (
    Schedule,
    _mix_round,
    _phase_round,
    _simulate,
    _start,
    multilinear_gradient,
    multilinear_value,
    qaoa_state,
)
from .errors import ConfigError, ResourceError
from .laplacians import (
    CompleteGraph,
    WeightedHypercube,
    _lbar_times,
    _mix_many,
    _support,
    hypercube,
)
from .objectives import Gibbs, Mean, _scorer, evaluate
from .problems import DiagonalProblem, freeze
from .statevector import GROUND_TOL, Statevector, _expect, _phase, _walsh, max_qubits

# a rounding marginal this close to 0.5 is a tie: kernels miss an exact 0.5 by last bits
MARGINAL_TIE_TOL = 1e-12
# the p=1 angle domain of every search, and the step at which compass search stops
GAMMA_RANGE = (-math.pi, math.pi)
BETA_RANGE = (0.0, math.pi)
COMPASS_TOL = 1e-6
# bfgs_minimize stops once every partial is below GRADIENT_TOL, or when its
# backtracking halves the step LINE_SEARCH_HALVINGS times without the Armijo
# decrease ARMIJO * t * slope
GRADIENT_TOL = 1e-6
LINE_SEARCH_HALVINGS = 30
ARMIJO = 1e-4
# the closed-form screen's margin per unit of S (1 + S / 20), S = max(1, sum |c|),
# and the Walsh screen's per unit of (n + 1) max(1, |shift|): over 1000 times the
# largest gap seen (module docstring)
SCREEN_MARGIN = 1e-12
# The Walsh screen holds 17 S + 56 bytes per entry of its 2^m-entry table, S
# shells (_p1_gibbs_walsh): 0.34 MiB for a flip-invariant cost at n = 12 (m = 11,
# S = 7), 0.68 MiB at n = 13, 1.08 MiB for any cost at n = 12 (m = 12, S = 13). A
# 48x48 Gibbs scan took 118 ms in full and 9 ms screened on a 2x6 grid, 110 and
# 25 ms with a field, 225 and 15 ms on a 13-spin chain (2 vCPUs, numpy 2.4.6,
# OpenBLAS 0.3.31). The cap is five n = 14 states, within which a search keeps
# its own arrays there; a flip-invariant cost at n = 14 would need 1.5 MiB, so
# larger searches scan unscreened.
WALSH_SCREEN_BYTES = 5 << 18


@dataclass
class SearchConfig:
    """What callers of a schedule search set: the p=1 grid's resolution
    (gammas, betas), the compass search's max_iters, and top_k, the grid points
    it refines. GAMMA_RANGE, BETA_RANGE and COMPASS_TOL are constants, since
    no caller needs another value."""

    resolution: tuple[int, int] = (64, 64)
    max_iters: int = 500
    top_k: int = 5

    def __post_init__(self) -> None:
        self.resolution = tuple(self.resolution)  # a manifest gives JSON lists
        if self.resolution[0] < 2 or self.resolution[1] < 2:
            raise ConfigError("grid resolution must be at least 2 per axis")
        if self.top_k < 1 or self.max_iters < 1:
            raise ConfigError("top_k and max_iters must be positive")


@dataclass
class RoundingConfig:
    beta_r: float = 100.0
    n_f: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.beta_r < 0:
            raise ConfigError("rounding inverse temperature must be >= 0")
        if self.n_f < 0:
            raise ConfigError("n_f must be >= 0")


def evaluate_schedule(
    problem: DiagonalProblem,
    lap,
    schedule: Schedule,
    objective,
    initial: Statevector | None = None,
) -> float:
    state = qaoa_state(problem, lap, schedule, initial=initial)
    return evaluate(objective, state, problem)


def _trial(x, k, step):
    """x moved along axis k // 2, by +step for even k and -step for odd k."""
    trial = x.copy()
    trial[k // 2] += step if k % 2 == 0 else -step
    return trial


def compass_minimize(fun, x0, step, tol, max_iters, screen=None):
    """Coordinate pattern search: score the trials +-step along each axis,
    move to the best improving one, halve the step when none improves.

    fun scores x0, then each step's 2d trials in the order (axis 0, +),
    (axis 0, -), (axis 1, +), ...; an accepted trial's value becomes fx, so
    no point is scored twice and the returned value is fun of the returned
    x. With a screen (_screen) whose at is not None, a trial whose
    closed-form value lies above fx + margin cannot be a move and is not
    scored."""
    x = np.asarray(x0, dtype=np.float64).copy()
    fx = fun(x)
    step = float(step)
    for _ in range(max_iters):
        if step < tol:
            break
        trials = [_trial(x, k, step) for k in range(2 * x.size)]
        live = range(len(trials))
        if screen is not None and screen[1] is not None:
            _, at, margin = screen
            live = np.flatnonzero(at(*np.array(trials).T) <= fx + margin)
        best_f, best_k = fx, None
        for k in live:
            ft = fun(trials[k])
            if ft < best_f - 1e-15:
                best_f, best_k = ft, k
        if best_k is None:
            step *= 0.5
        else:
            x, fx = trials[best_k], best_f
    return x, fx


def bfgs_minimize(fun, x0, step, gtol, max_iters):
    """Dense BFGS with Armijo backtracking on fun(x) -> (value, gradient).

    The first trial moves at most step along any axis; the inverse Hessian
    is then rescaled once by s.y / y.y and updated only where s.y > 0, which
    keeps it positive definite. Every accepted step lowers the value, so the
    returned value is at most fun(x0)'s, and it is fun of the returned x.
    Returns (x, value, reason): "gtol" once every partial is below gtol in
    magnitude, "line search" when LINE_SEARCH_HALVINGS halvings of a step
    find no Armijo decrease, "max_iters" after max_iters steps."""
    x = np.array(x0, dtype=np.float64)
    fx, g = fun(x)
    h = np.eye(x.size) * (step / max(float(np.abs(g).max()), gtol))
    for k in range(max_iters):
        if np.abs(g).max() < gtol:
            return x, fx, "gtol"
        d, t = -(h @ g), 1.0
        for _ in range(LINE_SEARCH_HALVINGS):
            xt = x + t * d
            ft, gt = fun(xt)
            if ft <= fx + ARMIJO * t * float(g @ d):
                break
            t *= 0.5
        else:
            return x, fx, "line search"
        s, y = xt - x, gt - g
        x, fx, g, sy = xt, ft, gt, float(s @ y)
        if sy > 0.0:
            if k == 0:
                h = np.eye(x.size) * (sy / float(y @ y))
            v = np.eye(x.size) - np.outer(s, y) / sy
            h = v @ h @ v.T + np.outer(s, s) / sy
    return x, fx, "gtol" if np.abs(g).max() < gtol else "max_iters"


def _local_refine(fun, x0, step, config: SearchConfig, screen=None, gradient=False):
    """The one local method of every search, from x0 with the search's
    max_iters: bfgs_minimize with GRADIENT_TOL when gradient is set (fun then
    returns (value, gradient)), else compass_minimize with COMPASS_TOL and
    the screen."""
    if gradient:
        return bfgs_minimize(fun, x0, step, GRADIENT_TOL, config.max_iters)[:2]
    return compass_minimize(fun, x0, step, COMPASS_TOL, config.max_iters, screen)


def _refine(fun, starts, step, config: SearchConfig, screen=None, floor=(None, math.inf), gradient=False):
    """The lowest (x, value) that _local_refine reaches from the starts, the
    first start winning a tie; floor, an (x, value) pair, when every start
    ends above floor's value.

    The floor is the point a search started from, with the value another
    route gave it: the scan table and the batched spectral evolution can
    differ from fun in the last bits, and the zero rounds that pad a p=1
    optimum are the identity only up to last bits on a spectral mixer, so
    without the floor a search could end a hair above its own start."""
    best_x, best_f = None, math.inf
    for start in starts:
        x, fx = _local_refine(fun, start, step, config, screen, gradient)
        if fx < best_f:
            best_x, best_f = x, fx
    return floor if best_f > floor[1] else (best_x, best_f)


def _search_buffers(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A search's three complex state buffers: the phased state and the mixer's
    two passes (_simulate)."""
    return tuple(np.empty(size, dtype=np.complex128) for _ in range(3))


def _has_twins(lap, initial) -> bool:
    """Whether every p=1 point (gamma, beta) has a time-reversal twin
    (-gamma, pi - beta) of the same objective value: true on a hypercube with
    integer weights from a real start (|+>^n when initial is None).

    With L = sum_q b_q X_q real, conjugating psi(gamma, beta) =
    exp(-i beta L) exp(-i gamma f) psi_0 gives psi(-gamma, -beta), and
    exp(-i pi L) = prod_q (-1)^b_q I, so psi(-gamma, pi - beta) =
    +-conj psi(gamma, beta): the same probabilities, so the same Mean,
    Gibbs and CVaR."""
    return (
        isinstance(lap, WeightedHypercube)
        and all(b.is_integer() for b in lap.b)
        and (initial is None or not initial.amps.imag.any())
    )


def _grid_scan_p1(problem, lap, score, config, initial, buffers=None, screen=None):
    """score, the search's one scorer (objectives._scorer), on the (gamma,
    beta) grid: one phase per gamma row into the first of buffers
    (_search_buffers; new ones when None), then the row's beta sweep by
    _mix_many, which writes a hypercube or complete-graph state into the
    other two; each state is scored before the next is made.

    With a screen (_screen), only the entries whose table value (a
    closed-form Mean, or -g for Gibbs) lies within 2 margin of the grid's
    top_k-th smallest one are simulated, a row's in one beta sweep, and every
    other entry reads +inf.

    When _has_twins(lap, initial) (a hypercube with integer weights, a real
    start), psi(-gamma, pi - beta) = +-conj psi(gamma, beta), so only the
    rows i < ceil(G / 2) are simulated, and row G-1-i is row i reversed:
    GAMMA_RANGE and BETA_RANGE are symmetric, so grid point (i, j) is the
    twin of (G-1-i, B-1-j), up to the last bit of linspace. A filled entry
    equals its twin bit for bit and its own point's value to rounding (about
    1e-14). The screen's table is filled the same way."""
    gammas = np.linspace(*GAMMA_RANGE, config.resolution[0])
    betas = np.linspace(*BETA_RANGE, config.resolution[1])
    base = _start(problem, lap, initial)
    phased, *work = _search_buffers(base.size) if buffers is None else buffers
    rows = (gammas.size + 1) // 2 if _has_twins(lap, initial) else gammas.size
    table = np.full((gammas.size, betas.size), math.inf)
    wanted = np.ones(table.shape, dtype=bool)
    if screen is not None:
        grid, _, margin = screen
        closed = np.empty(table.shape)
        closed[:rows] = grid(gammas[:rows], betas)
        closed[rows:] = closed[: gammas.size - rows][::-1, ::-1]
        k = min(config.top_k, closed.size) - 1
        wanted = closed <= np.partition(closed, k, axis=None)[k] + 2.0 * margin
    levels, index = problem.phase_table
    for i in np.flatnonzero(wanted[:rows].any(axis=1)):
        js = np.flatnonzero(wanted[i])
        _phase(base, levels, float(gammas[i]), index, out=phased)
        for j, amps in zip(js, _mix_many(phased, lap, betas[js], work)):
            table[i, j] = score(amps)
    table[rows:] = table[: gammas.size - rows][::-1, ::-1]
    return gammas, betas, table


def _screen(problem, lap, objective, initial):
    """(grid, at, margin), the screen of a p=1 search, or None when the search
    is not screened. Both screens need the |+>^n start and a hypercube mixer.

    Mean itself, with any weights b and no term on more than two qubits (a
    constant, fields and repeated masks included), takes _p1_mean_closed_form's
    grid and at, and the margin m = SCREEN_MARGIN S (1 + S / 20) + terms_gap,
    S = max(1, sum |c|). Gibbs, with all weights equal and arrays within
    WALSH_SCREEN_BYTES, takes _p1_gibbs_walsh's -g table, at None (no trial is
    screened) and its g-space margin."""
    if initial is not None or not isinstance(lap, WeightedHypercube):
        return None
    if type(objective) is Mean and not (np.bitwise_count(problem.masks) > 2).any():
        scale = max(1.0, float(np.abs(problem.coeffs).sum()))
        margin = SCREEN_MARGIN * scale * (1.0 + scale / 20.0) + problem.terms_gap
        return (*_p1_mean_closed_form(problem, lap.b), margin)
    if type(objective) is Gibbs and len(set(lap.b)) == 1:
        return _p1_gibbs_walsh(problem, lap, objective.eta)
    return None


def _p1_gibbs_walsh(problem, lap, eta):
    """(grid, None, margin): the Walsh-shell table of a Gibbs(eta) search from
    |+>^n on a hypercube lap whose weights all equal b (module docstring), or
    None when its arrays would pass WALSH_SCREEN_BYTES.

    grid(gammas, betas) is -g over every pair, g = sum_z p_z w_z with the
    scorer's weights w = exp(-eta f - shift), shift = max(-eta f). Per gamma:
    the phased state's unnormalized transform, masked to each shell t into
    the rows of X (real parts, then imaginary), each row transformed again
    (_walsh, two rows at a time through a (2, 2^m) work, so that no second X
    is made) and scaled by sqrt(w) and the normalization, so that
    X X^T gives A_st = <V_s|w V_t>, and g(beta) = sum_st conj(e_s) A_st e_t
    with e_t = exp(2i beta b t). A flip-invariant cost (f == f[::-1]) works on the
    lower half, m = n - 1 qubits: V_t(~z) = V_t(z), and t is the even shell
    |x'| + (|x'| mod 2) of the half's index x'. The margin is
    SCREEN_MARGIN (n + 1) max(1, |shift|)."""
    n, f, b = problem.n, problem.dense, lap.b[0]
    fold = 2 if np.array_equal(f, f[::-1]) else 1
    size = 1 << (n + 1 - fold)
    popcount = np.bitwise_count(np.arange(size))
    shells = popcount + (popcount & 1) if fold == 2 else popcount
    ts = np.flatnonzero(np.bincount(shells))
    k = ts.size
    if (17 * k + 56) * size > WALSH_SCREEN_BYTES:
        return None
    masks = shells == ts[:, None]
    weights = -eta * f
    shift = float(weights.max())
    root = np.sqrt(fold * np.exp(weights[:size] - shift)) * (fold / 2.0**n)
    plus = _start(problem, lap, None)[:size]
    levels, index = problem.phase_table
    levels, index = (levels[:size], None) if index is None else (levels, index[:size])

    def grid(gammas, betas):
        phased = np.empty(size, dtype=np.complex128)
        hat, work, x = np.empty((2, size)), np.empty((2, size)), np.empty((2 * k, size))
        e = np.exp(2j * b * np.outer(betas, ts))
        table = np.empty((len(gammas), len(betas)))
        for i, gamma in enumerate(gammas):
            _phase(plus, levels, float(gamma), index, out=phased)
            hat[0], hat[1] = phased.real, phased.imag
            _walsh(hat, work)
            np.multiply(hat[0], masks, out=x[:k])
            np.multiply(hat[1], masks, out=x[k:])
            _walsh(x, work)
            x *= root
            m = x @ x.T
            a = (m[:k, :k] + m[k:, k:]) + 1j * (m[:k, k:] - m[k:, :k])
            table[i] = -((e.conj() @ a) * e).sum(axis=1).real
        return table

    return grid, None, SCREEN_MARGIN * (n + 1) * max(1.0, abs(shift))


def _p1_mean_closed_form(problem, b):
    """(grid, at): the p=1 Mean from |+>^n on the hypercube with weights b, by
    the closed form in the module docstring, for a problem that _screen takes.

    grid(gammas, betas) is the (G, B) table over every pair, at(gammas,
    betas) the values at the pairs (gammas[k], betas[k]). Each is c0 plus a
    sum over n + 3E columns (fields, then P_uv, P_vu and Q_uv of the E
    couplings) of a gamma factor times a beta factor: one matmul for the
    grid, a product and a row sum for the points. Every gamma factor is a
    coefficient, at most one sine, and a product of cosines of 2 gamma times
    one row of a table of n + 1 angles (Q_uv takes two rows), so the largest
    intermediate holds len(gammas) (n + 4E) (n + 1) floats."""
    n, masks, coeffs = problem.n, problem.masks, problem.coeffs
    weight = np.bitwise_count(masks)
    above = masks & (masks - 1)  # each term's mask without its lowest qubit
    low, high = (np.bitwise_count((m & -m) - 1) for m in (masks, above))
    c0 = float(coeffs[weight == 0].sum())
    h = np.bincount(low[weight == 1], weights=coeffs[weight == 1], minlength=n)
    pairs = weight == 2
    upper = np.zeros((n, n))
    np.add.at(upper, (low[pairs], high[pairs]), coeffs[pairs])
    u, v = np.nonzero(upper)
    J, coupling = upper[u, v], upper + upper.T
    # rows of the coupling matrix without the pair's own entry: cos(0) = 1 leaves it out
    rest_u, rest_v = coupling[u], coupling[v]
    rest_u[np.arange(u.size), v] = rest_v[np.arange(u.size), u] = 0.0
    # one row per part: the couplings, then the argument of the part's lone cosine
    rows = np.vstack([
        np.column_stack([coupling, np.zeros(n)]),
        np.column_stack([rest_v, h[v]]),
        np.column_stack([rest_u, h[u]]),
        np.column_stack([rest_u - rest_v, h[u] - h[v]]),
        np.column_stack([rest_u + rest_v, h[u] + h[v]]),
    ])
    scale = np.concatenate([h, J, J, 0.5 * J, -0.5 * J])
    sines = np.concatenate([h, J, J])  # the sine arguments of the fields, P_uv and P_vu
    q = slice(n + 2 * u.size, n + 3 * u.size)
    # sin 2theta_q at column q, cos 2theta_q at n + q: cos_u sin_v, sin_u cos_v, sin_u sin_v
    left, right = np.concatenate([u + n, u, u]), np.concatenate([v, v + n, v])
    b = np.asarray(b, dtype=np.float64)

    def gamma_factors(gammas):
        t = 2.0 * np.asarray(gammas, dtype=np.float64)[:, None]
        parts = scale * np.prod(np.cos(t[:, :, None] * rows), axis=-1)
        parts[:, : sines.size] *= np.sin(t * sines)
        parts[:, q] += parts[:, q.stop :]
        return parts[:, : q.stop]

    def beta_factors(betas):
        angles = 2.0 * np.asarray(betas, dtype=np.float64)[:, None] * b
        trig = np.concatenate([np.sin(angles), np.cos(angles)], axis=1)
        return np.concatenate([trig[:, :n], trig[:, left] * trig[:, right]], axis=1)

    def grid(gammas, betas):
        return c0 + gamma_factors(gammas) @ beta_factors(betas).T

    def at(gammas, betas):
        return c0 + np.sum(gamma_factors(gammas) * beta_factors(betas), axis=1)

    return grid, at


def optimize_schedule(
    problem: DiagonalProblem,
    lap,
    p: int,
    objective,
    config: SearchConfig | None = None,
    initial: Statevector | None = None,
) -> tuple[Schedule, float]:
    """Grid scan + compass refinement at p=1; above it, refinement from a
    ramp and from the p=1 optimum padded with zero rounds, by BFGS on the
    adjoint gradient (module docstring) for Mean and Gibbs, by compass for
    CVaR.

    The returned value is never worse than the best scanned grid point. At
    p=1, _refine starts from the top_k grid points and falls back to the
    best of them. Where _has_twins(lap, initial) (a hypercube with integer
    weights, a real start), (gamma, beta) and (-gamma, pi - beta) take the
    same value, so the scan simulates half the grid (_grid_scan_p1) and a
    start is dropped when its twin is an earlier start: its refinement would
    only mirror the twin's. Dropped starts are not replaced. A value and its
    filled twin tie exactly, and the stable order puts the simulated one
    first, so the best grid point, the floor, always holds its own point's
    value. For p>1 the starts are a linear ramp from the p=1 optimum
    and that optimum with the extra rounds zeroed out, and the p=1 value is
    the floor: those rounds are the identity only up to last bits on a
    spectral mixer. So when the floor wins, the function returns the p=1
    value with that zero-padded schedule, and on a spectral mixer the
    schedule's own evaluate_schedule value can sit a few ulps above the
    returned value.

    The scan and every refinement simulation share one set of _search_buffers
    and one scorer, both built once per call; so does every gradient, whose
    backward pass runs in the same three buffers.

    When _screen gives a screen (the |+>^n start and a hypercube mixer, with
    Mean and no term on more than two qubits, or with Gibbs and equal
    weights), the p=1 stage simulates only what the screen's table (module
    docstring) cannot rule out, with _screen's margin m: the grid entries
    within 2m of the top_k-th smallest table value, and for Mean, of each
    compass step's trials those within m of the centre's value; a Gibbs
    search scores every trial. The table and the simulated value differ by
    less than m, so the entries left out cannot enter the top_k and the
    trials left out cannot be moves: the top_k order, the floor, every move
    and the returned value are those of the full scan and refinement, to the
    byte.

    A p whose dense (2p, 2p) BFGS inverse Hessian would hold more than
    2^max_qubits() entries, one state at the qubit cap, is a ResourceError
    before anything is simulated."""
    if config is None:
        config = SearchConfig()
    if p < 1:
        raise ConfigError("round count must be >= 1")
    if (2 * p) ** 2 > 1 << max_qubits():
        raise ResourceError(f"p={p} needs a ({2 * p}, {2 * p}) inverse Hessian, above 2^{max_qubits()} entries")

    base = _start(problem, lap, initial)
    buffers = _search_buffers(base.size)
    score = _scorer(objective, problem)

    def rounds(x):
        """x holds the gammas of every round, then the betas."""
        return x[: x.size // 2], x[x.size // 2 :]

    fun = _search_fun(base, problem, lap, score, rounds, buffers)
    screen = _screen(problem, lap, objective, initial)
    gammas, betas, table = _grid_scan_p1(problem, lap, score, config, initial, buffers, screen=screen)
    flat_order = np.argsort(table, axis=None, kind="stable")
    top = flat_order[: config.top_k].tolist()
    if _has_twins(lap, initial):
        # the twin of flat index k is size - 1 - k; its refinement mirrors k's
        top = [k for pos, k in enumerate(top) if table.size - 1 - k not in top[:pos]]
    grid_points = [
        np.array([gammas[i], betas[j]]) for i, j in zip(*np.unravel_index(top, table.shape))
    ]
    step = max(
        (GAMMA_RANGE[1] - GAMMA_RANGE[0]) / config.resolution[0],
        (BETA_RANGE[1] - BETA_RANGE[0]) / config.resolution[1],
    )
    floor = (grid_points[0], float(table.flat[flat_order[0]]))
    x1, f1 = _refine(fun, grid_points, step, config, screen, floor)
    if p == 1:
        return Schedule(x1[:1], x1[1:]), f1

    g1, b1 = x1
    ks = np.arange(1, p + 1, dtype=np.float64)
    ramp = np.concatenate([(ks / p) * g1, (1.0 - (ks - 1) / p) * b1])
    embed = np.zeros(2 * p)
    embed[0], embed[p] = g1, b1

    smooth = hasattr(score, "slope")
    fun = _search_fun(base, problem, lap, score, rounds, buffers, smooth)
    x, fx = _refine(fun, [ramp, embed], step, config, floor=(embed, f1), gradient=smooth)
    return Schedule(x[:p], x[p:]), fx


def optimize_relaxed_schedule(
    problem: DiagonalProblem,
    lap,
    objective,
    config: SearchConfig | None = None,
    relax: str = "gamma",
    warm: Schedule | None = None,
) -> tuple[Schedule, float]:
    """p=1 schedule with per-term gammas and/or per-qubit betas.

    Warm-started from the less-relaxed optimum (the scalar search, or `warm`
    when given), so the refined value can only improve on it: with Mean or
    Gibbs by BFGS on the adjoint gradient (module docstring), whose per-term
    gamma partials come from one Walsh transform and per-qubit beta partials
    from one bit flip each; with CVaR by compass, each trial a full
    simulation. Both refinements only accept a lower value, so the start
    needs no floor. The first step moves at most 2 pi / resolution[0] along
    any axis."""
    if relax not in ("gamma", "beta", "both"):
        raise ConfigError("relax must be 'gamma', 'beta', or 'both'")
    if relax != "gamma" and not isinstance(lap, WeightedHypercube):
        raise ConfigError("per-qubit beta requires a hypercube mixer")
    if config is None:
        config = SearchConfig()
    n_terms = problem.masks.size
    n = problem.n

    if warm is None:
        warm, _ = optimize_schedule(problem, lap, 1, objective, config)
    g_init = (
        warm.gammas[0]
        if warm.gamma_relaxed
        else np.full(n_terms, float(warm.gammas[0]))
    )
    b_init = (
        warm.betas[0] if warm.beta_relaxed else np.full(n, float(warm.betas[0]))
    )

    # the relaxed side keeps its per-term or per-qubit angles; the other is averaged
    g0 = g_init if relax != "beta" else np.array([float(np.mean(g_init))])
    b0 = b_init if relax != "gamma" else np.array([float(np.mean(b_init))])
    x0 = np.concatenate([g0, b0])
    plus = _start(problem, lap, None)
    score = _scorer(objective, problem)
    smooth = hasattr(score, "slope")
    fun = _search_fun(
        plus, problem, lap, score, lambda x: _relaxed(x, relax, g0.size), _search_buffers(plus.size), smooth
    )
    step = (GAMMA_RANGE[1] - GAMMA_RANGE[0]) / config.resolution[0]
    x, fx = _refine(fun, [x0], step, config, gradient=smooth)
    return Schedule(*_relaxed(x, relax, g0.size)), fx


def _relaxed(x, relax, n_gamma):
    """(gammas, betas) of a relaxed search's point x, shaped as in a p=1
    Schedule: n_gamma gammas, then the betas."""
    g, b = x[:n_gamma], x[n_gamma:]
    return (
        g.reshape(1, -1) if relax != "beta" else g,
        b.reshape(1, -1) if relax != "gamma" else b,
    )


def _search_fun(base, problem, lap, score, angles, buffers, gradient=False):
    """fun(x) for _refine: score of the state that _simulate makes from base
    at angles(x) = (gammas, betas) in the three buffers (_search_buffers),
    or with gradient the (value, gradient) pair of _value_and_grad there."""
    if gradient:
        return lambda x: _value_and_grad(base, problem, lap, *angles(x), score, buffers)
    return lambda x: score(_simulate(base, problem, lap, *angles(x), buffers))


def _value_and_grad(base, problem, lap, gammas, betas, score, buffers):
    """(value, gradient) of a schedule from base by the adjoint method of the
    module docstring; score is a Mean or Gibbs scorer (objectives._scorer).

    gammas is (p,) or (p, T) and betas (p,) or (p, n), as in a Schedule; the
    gradient holds the partials of the gammas, then of the betas, each
    raveled. The forward pass is _simulate into buffers, three complex arrays
    of base's shape (_search_buffers), then score, so value is the search's
    fun(x) bit for bit. It leaves the last round's phased state in
    buffers[0], which is the first state the backward pass needs; the
    backward pass then uncomputes each round with _mix_round and _phase_round
    at sign -1, the forward pass's helpers, carrying psi and lambda in the
    same three buffers (a mixer writes over its input: its work pair is
    (spare, input))."""
    psi = _simulate(base, problem, lap, gammas, betas, buffers)
    value = score(psi)
    table, factor = score.slope()

    def spare():
        return next(b for b in buffers if b is not psi and b is not lam)

    # lambda = dF/dpsi* = (dF/dp) psi, with the 2 of every 2 Im<.|.> folded in;
    # the real table multiplies each part, so no complex copy of it is made
    lam = buffers[2] if psi is buffers[1] else buffers[1]
    np.multiply(table, psi.real, out=lam.real)
    np.multiply(table, psi.imag, out=lam.imag)
    lam *= 2.0 * factor
    d_gamma, d_beta = np.empty(gammas.shape), np.empty(betas.shape)
    b = np.asarray(lap.b) if isinstance(lap, WeightedHypercube) else None
    for k in reversed(range(gammas.shape[0])):
        if betas.ndim == 2:
            d_beta[k] = b * _flip_overlaps(lam, psi)
        else:
            d_beta[k] = _mixer_overlap(lam, psi, lap, b)
        psi = buffers[0] if k == gammas.shape[0] - 1 else _mix_round(psi, lap, betas[k], -1, (spare(), psi))
        lam = _mix_round(lam, lap, betas[k], -1, (spare(), lam))
        if gammas.ndim == 2:  # Im(conj(mu) phi) read through the Walsh transform
            im = lam.real * psi.imag - lam.imag * psi.real
            d_gamma[k] = problem.coeffs * _walsh(im)[problem.masks]
        else:
            d_gamma[k] = _im_overlap(lam, psi, problem.dense)
        if k:
            psi = _phase_round(psi, problem, gammas[k], -1, spare())
            lam = _phase_round(lam, problem, gammas[k], -1, spare())
    return value, np.concatenate([d_gamma.ravel(), d_beta.ravel()])


def _im_overlap(lam, psi, weights=None):
    """Im<lam|weights psi> (weights 1 when None) for two arrays of one shape,
    by einsums over their real and imaginary views: no temporary state."""
    ops = () if weights is None else (weights,)
    spec = ",".join(["ijk"[: lam.ndim]] * (len(ops) + 2)) + "->"
    return float(np.einsum(spec, *ops, lam.real, psi.imag) - np.einsum(spec, *ops, lam.imag, psi.real))


def _flip_overlaps(lam, psi):
    """Im<lam|X_q psi> for every qubit q, X_q psi being psi with bit q of the
    index flipped: a reversed strided view of psi."""
    n = psi.size.bit_length() - 1
    return np.array([
        _im_overlap(lam.reshape(-1, 2, 1 << q), psi.reshape(-1, 2, 1 << q)[:, ::-1]) for q in range(n)
    ])


def _mixer_overlap(lam, psi, lap, b):
    """Im<lam|L_bar psi> for a scalar-beta mixer (module docstring)."""
    if b is not None:
        return float(b @ _flip_overlaps(lam, psi))
    if isinstance(lap, CompleteGraph):
        return float((np.conj(lam.sum()) * psi.mean()).imag)
    support = _support(lap)
    return _im_overlap(lam[support], _lbar_times(lap, psi[support]))


@dataclass(frozen=True)
class RoundingStep:
    iteration: int
    qubit: int
    bit: int
    marginals: dict[int, float]
    value: float
    success_prob: float


def _marginals(probs: np.ndarray, n: int) -> np.ndarray:
    """P(bit j = 1) for each of the n qubits under the distribution probs."""
    idx = _bits.indices(n)
    return np.array([_expect(probs, ((idx >> j) & 1).astype(np.float64)) for j in range(n)])


def iterated_rounding(
    problem: DiagonalProblem,
    solver,
    rounding: RoundingConfig,
) -> tuple[np.ndarray, list[RoundingStep]]:
    """Freeze one variable at a time, sampled by polarization, and fold it in.

    solver(sub_problem) returns a state on the sub-problem's qubits. Each
    step freezes, solves and records one RoundingStep, whose iteration is the
    frozen count. freeze keeps the constant it folds out, so sub.dense is the
    original table on the completions of the frozen bits, and a step's
    success_prob is the mass on sub's entries within GROUND_TOL of the
    original f_min. After n_f freezes the residual qubits are read off one more
    solve by measurement-argmax. Softmax selection is max-shifted and
    normalized over unfrozen indices only. A solver error carries the steps
    recorded so far as its rounding_trace.
    """
    if rounding.n_f > problem.n:
        raise ConfigError("n_f cannot exceed the qubit count")
    rng = default_rng(rounding.seed)
    frozen: dict[int, int] = {}
    trace: list[RoundingStep] = []
    while len(frozen) < problem.n:
        sub, keep = freeze(problem, frozen)
        try:
            state = solver(sub)
        except Exception as exc:
            exc.rounding_trace = trace
            raise
        probs = state.probabilities()
        margs = _marginals(probs, sub.n)
        if len(frozen) < rounding.n_f:
            d = np.abs(margs - 0.5)
            w = np.exp(rounding.beta_r * (d - d.max()))
            j = int(rng.choice(len(keep), p=w / w.sum()))
            tie = abs(margs[j] - 0.5) <= MARGINAL_TIE_TOL
            qubit, bit = keep[j], int(rng.integers(2)) if tie else int(margs[j] > 0.5)
        else:
            qubit = bit = -1
        trace.append(
            RoundingStep(
                iteration=len(frozen),
                qubit=qubit,
                bit=bit,
                marginals={q: float(m) for q, m in zip(keep, margs)},
                value=_expect(probs, sub.dense),
                success_prob=float(probs[sub.dense <= problem.f_min + GROUND_TOL].sum()),
            )
        )
        if qubit < 0:  # the read-off: each residual qubit takes its bit in the likeliest outcome
            z = int(np.argmax(probs))
            frozen.update({q: (z >> i) & 1 for i, q in enumerate(keep)})
        else:
            frozen[qubit] = bit
    return np.array([frozen[q] for q in range(problem.n)], dtype=np.int64), trace


def default_qaoa_solver(p: int = 1, objective=None, config: SearchConfig | None = None):
    """Solver for iterated_rounding: solve(sub) optimizes a p-round schedule
    on sub over the plain hypercube mixer and returns its final state."""
    objective = Mean() if objective is None else objective
    config = SearchConfig() if config is None else config

    def solve(sub: DiagonalProblem) -> Statevector:
        lap = hypercube(sub.n)
        sched, _ = optimize_schedule(sub, lap, p, objective, config)
        return qaoa_state(sub, lap, sched)

    return solve


def classical_restart_baseline(
    problem: DiagonalProblem, restarts: int, seed: int = 0
) -> float:
    """Fraction of random product-state restarts whose local optimum rounds
    to a ground state. Angles theta parametrize x_i = sin^2(theta_i); the
    chain rule keeps the gradient exact and cheap."""
    if restarts < 1:
        raise ConfigError("need at least one restart")
    import scipy.optimize
    rng = default_rng(seed)
    hits = 0
    for _ in range(restarts):
        theta0 = rng.uniform(0.0, math.pi, size=problem.n)

        def fun(theta):
            x = np.sin(theta) ** 2
            return multilinear_value(problem, x)

        def jac(theta):
            x = np.sin(theta) ** 2
            return multilinear_gradient(problem, x) * np.sin(2 * theta)

        res = scipy.optimize.minimize(fun, theta0, jac=jac, method="L-BFGS-B")
        x = np.sin(res.x) ** 2
        z = 0
        for i in range(problem.n):
            if x[i] > 0.5:
                z |= 1 << i
        if problem.dense[z] <= problem.f_min + GROUND_TOL:
            hits += 1
    return hits / restarts
