"""Outer loops: grid + local search over schedules, iterated rounding, and
a classical product-state restart baseline.

A compass search over relaxed p=1 angles on a hypercube mixer does not
simulate its probes. The final state is psi = M P |+> with the phase
P = exp(-i sum_T gamma_T c_T Z_T) and the mixer M = prod_q exp(-i theta_q X_q),
theta_q = beta_q b_q. Two identities give every probe from psi:

- beta_q -> beta_q +- s: the factors of M commute, so one more factor
  exp(-+i s b_q X_q) goes in front, and the probe is
  cos(s b_q) psi -+ i sin(s b_q) X_q psi. X_q psi is psi with bit q of the
  index flipped.
- gamma_T -> gamma_T +- s: exp(-+i s c_T Z_T) goes under the mixer. Z_q
  anticommutes with X_q, so M Z_T = Z_T prod_{q in T} exp(+2i theta_q X_q) M,
  and the probe is cos(s c_T) psi -+ i sin(s c_T) chi_T with
  chi_T = Z_T prod_{q in T} exp(+2i theta_q X_q) psi: |T| one-qubit updates
  and a parity sign.

Both need M to be a product of commuting one-qubit X rotations. The
complete-graph and ball-cut mixers are not, and a scalar gamma moves every
term at once, so those probes stay full simulations.

Every p=1 search makes its grid by one scan, _grid_scan_p1, with an optional
screen (_screen): a closed form (_p1_mean_closed_form) that also screens the
compass probes. A search gets one when all four of _screen's conditions hold:
the objective is Mean itself, the start is |+>^n, the mixer is a hypercube
(any weights b), and no term acts on more than two qubits. With
f = c0 + sum_u h_u Z_u + sum_uv J_uv Z_u Z_v and theta_q = beta b_q
(arXiv:1706.02998, arXiv:2012.03421):

- <Z_u> = sin 2theta_u sin(2 gamma h_u) prod_w cos(2 gamma J_uw);
- <Z_u Z_v> = cos 2theta_u sin 2theta_v P_uv + sin 2theta_u cos 2theta_v P_vu
  + sin 2theta_u sin 2theta_v Q_uv, with
  P_uv = sin(2 gamma J_uv) cos(2 gamma h_v) prod_{w != u} cos(2 gamma J_vw) and
  Q_uv = [cos 2gamma(h_u - h_v) prod cos 2gamma(J_uw - J_vw)
          - cos 2gamma(h_u + h_v) prod cos 2gamma(J_uw + J_vw)] / 2,
  both products over w not in {u, v}.

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
probe with c > fx + m has d > fx and cannot be a compass move from the
centre value fx.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _bits
from .ansatz import (
    Schedule,
    _simulate,
    _start,
    multilinear_gradient,
    multilinear_value,
    qaoa_state,
)
from .errors import ConfigError
from .laplacians import WeightedHypercube, _mix_many, _rotate_qubits, hypercube
from .objectives import Mean, _scorer, evaluate
from .problems import DiagonalProblem, freeze
from .statevector import GROUND_TOL, Statevector, _expect, _phase

# a rounding marginal this close to 0.5 is a tie: kernels miss an exact 0.5 by last bits
MARGINAL_TIE_TOL = 1e-12
# the p=1 angle domain of every search, and the step at which compass search stops
GAMMA_RANGE = (-math.pi, math.pi)
BETA_RANGE = (0.0, math.pi)
COMPASS_TOL = 1e-6
# the closed-form screen's margin per unit of S (1 + S / 20), S = max(1, sum |c|):
# over 1000 times the largest gap seen (module docstring)
SCREEN_MARGIN = 1e-12


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
    return evaluate(objective, state, problem, lap)


def _trial(x, k, step):
    """x moved along axis k // 2, by +step for even k and -step for odd k."""
    trial = x.copy()
    trial[k // 2] += step if k % 2 == 0 else -step
    return trial


def compass_minimize(fun, x0, step, tol, max_iters, probe=None):
    """Coordinate pattern search: probe +-step along each axis, move to the
    best improving probe, halve the step when none improves.

    probe(x, step) returns the 2d probe values in the order (axis 0, +),
    (axis 0, -), (axis 1, +), ...; fun scores x0 and each accepted centre, so
    the returned value is always fun of the returned x. The compass calls
    fun(x) before it probes around x, and a probe may keep what it needs of
    that centre. With no probe, _scored_probe(fun) scores each trial by fun
    and hands an accepted trial's value back as its centre value."""
    x = np.asarray(x0, dtype=np.float64).copy()
    if probe is None:
        fun, probe = _scored_probe(fun)
    fx = fun(x)
    step = float(step)
    for _ in range(max_iters):
        if step < tol:
            break
        values = probe(x, step)
        best_f, best_k = fx, None
        for k, ft in enumerate(values):
            if ft < best_f - 1e-15:
                best_f, best_k = ft, k
        if best_k is None:
            step *= 0.5
        else:
            x = _trial(x, best_k, step)
            fx = fun(x)
    return x, fx


def _local_refine(fun, x0, step, config: SearchConfig, probe=None):
    """compass_minimize from x0 with COMPASS_TOL and the search's max_iters:
    the one local method of every search."""
    return compass_minimize(fun, x0, step, COMPASS_TOL, config.max_iters, probe)


def _refine(fun, starts, step, config: SearchConfig, probe=None, floor=(None, math.inf)):
    """The lowest (x, value) that _local_refine reaches from the starts, the
    first start winning a tie; floor, an (x, value) pair, when every start
    ends above floor's value.

    The floor is the point a search started from, with the value another
    route gave it: the scan table, the hypercube probe route and the batched
    spectral evolution can differ from fun in the last bits, so without the
    floor a search could end a hair above its own start."""
    best_x, best_f = None, math.inf
    for start in starts:
        x, fx = _local_refine(fun, start, step, config, probe)
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
    +-conj psi(gamma, beta): the same probabilities and the same <L>, so the
    same Mean, Gibbs, CVaR and Combined."""
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

    With a screen (_screen), only the entries whose closed-form value lies
    within 2 margin of the grid's top_k-th smallest one are simulated, a
    row's in one beta sweep, and every other entry reads +inf.

    When _has_twins(lap, initial) (a hypercube with integer weights, a real
    start), psi(-gamma, pi - beta) = +-conj psi(gamma, beta), so only the
    rows i < ceil(G / 2) are simulated, and row G-1-i is row i reversed:
    GAMMA_RANGE and BETA_RANGE are symmetric, so grid point (i, j) is the
    twin of (G-1-i, B-1-j), up to the last bit of linspace. A filled entry
    equals its twin bit for bit and its own point's value to rounding (about
    1e-14). The closed-form table is filled the same way."""
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
    is not screened: grid and at are _p1_mean_closed_form's, and the margin
    is m = SCREEN_MARGIN S (1 + S / 20) + terms_gap, S = max(1, sum |c|). A
    search is screened when its objective is Mean itself, its start |+>^n,
    its mixer a hypercube (any weights), and no term acts on more than two
    qubits (a constant, fields and repeated masks included)."""
    if (
        type(objective) is not Mean
        or initial is not None
        or not isinstance(lap, WeightedHypercube)
        or (np.bitwise_count(problem.masks) > 2).any()
    ):
        return None
    scale = max(1.0, float(np.abs(problem.coeffs).sum()))
    margin = SCREEN_MARGIN * scale * (1.0 + scale / 20.0) + problem.terms_gap
    return (*_p1_mean_closed_form(problem, lap.b), margin)


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


def _scored_probe(fun, screen=None):
    """(centre, probe): fun and probe for compass_minimize, every trial scored
    by fun.

    centre(x) is fun(x), or the value the last probe scored x at, so an
    accepted trial is not scored twice; it keeps that value fx. probe(x, step)
    scores the 2d trials around x. With a screen (_screen), a trial whose
    closed-form value lies above fx + margin cannot be a move and reads +inf;
    only the others are scored."""
    kept = {"f": None, "scored": {}}

    def centre(x):
        f = kept["scored"].get(x.tobytes())
        kept["f"] = fun(x) if f is None else f
        return kept["f"]

    def probe(x, step):
        trials = [_trial(x, k, step) for k in range(2 * x.size)]
        live = range(len(trials))
        if screen is not None:
            _, at, margin = screen
            live = np.flatnonzero(at(*np.array(trials).T) <= kept["f"] + margin)
        values = [math.inf] * len(trials)
        for k in live:
            values[k] = fun(trials[k])
        kept["scored"] = {trials[k].tobytes(): values[k] for k in live}
        return values

    return centre, probe


def optimize_schedule(
    problem: DiagonalProblem,
    lap,
    p: int,
    objective,
    config: SearchConfig | None = None,
    initial: Statevector | None = None,
) -> tuple[Schedule, float]:
    """Grid scan + local refinement at p=1; ramp-initialized refinement above.

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
    and one scorer, both built once per call.

    When _screen gives a screen (a Mean objective, the |+>^n start, a
    hypercube mixer with any weights, and no term on more than two qubits),
    the p=1 stage simulates only what a closed-form value (module docstring)
    cannot rule out, with _screen's margin m: the grid entries within 2m of
    the top_k-th smallest closed-form value, and of each compass step's probes
    those within m of the centre's value (_scored_probe). The closed form and
    the simulated value differ by less than m, so the entries left out cannot
    enter the top_k and the probes left out cannot be moves: the top_k order,
    the floor, every move and the returned value are those of the full scan
    and refinement, to the byte."""
    if config is None:
        config = SearchConfig()
    if p < 1:
        raise ConfigError("round count must be >= 1")

    base = _start(problem, lap, initial)
    buffers = _search_buffers(base.size)
    score = _scorer(objective, problem, lap)

    def fun(x):
        """x holds the gammas of every round, then the betas."""
        k = x.size // 2
        return score(_simulate(base, problem, lap, x[:k], x[k:], buffers))

    screen = _screen(problem, lap, objective, initial)
    gammas, betas, table = _grid_scan_p1(problem, lap, score, config, initial, buffers, screen=screen)
    centre, probe = _scored_probe(fun, screen)
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
    x1, f1 = _refine(centre, grid_points, step, config, probe, floor)
    if p == 1:
        return Schedule(x1[:1], x1[1:]), f1

    g1, b1 = x1
    ks = np.arange(1, p + 1, dtype=np.float64)
    ramp = np.concatenate([(ks / p) * g1, (1.0 - (ks - 1) / p) * b1])
    embed = np.zeros(2 * p)
    embed[0], embed[p] = g1, b1

    x, fx = _refine(fun, [ramp, embed], step, config, floor=(embed, f1))
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
    when given), so the refined value can only improve on it."""
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
    if isinstance(lap, WeightedHypercube):
        fun, probe = _hypercube_probe(problem, lap, objective, relax)
    else:
        score, simulate = _relaxed_route(problem, lap, objective, relax)
        fun, probe = (lambda x: score(simulate(x))), None
    floor = (x0, fun(x0))
    step = (GAMMA_RANGE[1] - GAMMA_RANGE[0]) / config.resolution[0]
    x, fx = _refine(fun, [x0], step, config, probe, floor)
    return Schedule(*_relaxed(x, relax, g0.size)), fx


def _relaxed(x, relax, n_gamma):
    """(gammas, betas) of a relaxed search's point x, shaped as in a p=1
    Schedule: n_gamma gammas, then the betas."""
    g, b = x[:n_gamma], x[n_gamma:]
    return (
        g.reshape(1, -1) if relax != "beta" else g,
        b.reshape(1, -1) if relax != "gamma" else b,
    )


def _relaxed_route(problem, lap, objective, relax):
    """(score, simulate): a relaxed search's one scorer, and simulate(x), the
    final amplitudes at its point x from |+>^n by the raw core."""
    n_gamma = 1 if relax == "beta" else problem.masks.size
    plus = _start(problem, lap, None)
    return _scorer(objective, problem, lap), (
        lambda x: _simulate(plus, problem, lap, *_relaxed(x, relax, n_gamma))
    )


def _hypercube_probe(problem, lap: WeightedHypercube, objective, relax):
    """(centre, probe): fun and probe for compass_minimize over a relaxed
    search's points on a hypercube mixer.

    centre(x) scores simulate(x) (_relaxed_route) and keeps psi, the final
    state at x. probe(x, step) builds the probe states from the psi of the
    centre x (scored first, as compass_minimize does) by the
    identities in the module docstring and scores them with the same scorer;
    only the probes of a scalar gamma are simulated."""
    n_gamma = 1 if relax == "beta" else problem.masks.size
    score, simulate = _relaxed_route(problem, lap, objective, relax)
    b = np.asarray(lap.b)
    term_qubits = [np.flatnonzero((m >> np.arange(problem.n)) & 1) for m in problem.masks]
    kept = {"psi": None}

    def centre(x):
        kept["psi"] = simulate(x)
        return score(kept["psi"])

    def pair(psi, other, angle):
        """Scores of cos(angle) psi -+ i sin(angle) other, the + move first."""
        head, tail = math.cos(angle) * psi, 1j * math.sin(angle) * other
        return [score(head - tail), score(head + tail)]

    def probe(x, step):
        psi = kept["psi"]
        thetas = x[n_gamma:] * b
        values = []
        if relax == "beta":
            values += [score(simulate(_trial(x, k, step))) for k in (0, 1)]
        else:
            for qubits, coeff in zip(term_qubits, problem.coeffs):
                chi = psi
                for q in qubits:
                    # Z_q exp(2i theta_q X_q) = [[c, i s], [-i s, -c]] on (bit q = 0, bit q = 1)
                    c, s = math.cos(2.0 * thetas[q]), math.sin(2.0 * thetas[q])
                    v = chi.reshape(-1, 2, 1 << q)
                    chi = np.stack([c * v[:, 0] + 1j * s * v[:, 1], -1j * s * v[:, 0] - c * v[:, 1]], 1)
                    chi = chi.reshape(psi.shape)
                values += pair(psi, chi, step * coeff)
        if relax == "gamma":
            values += [score(_rotate_qubits(psi, sign * step * b)) for sign in (1.0, -1.0)]
        else:
            for q in range(problem.n):
                flipped = psi.reshape(-1, 2, 1 << q)[:, ::-1].reshape(psi.shape)
                values += pair(psi, flipped, step * b[q])
        return values

    return centre, probe


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
    rng = np.random.default_rng(rounding.seed)
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
    rng = np.random.default_rng(seed)
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
