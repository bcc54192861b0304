"""End-to-end acceptance gates for the headline quantitative claims.

One test per criterion (lettered sub-criteria get their own tests where they
pin distinct mechanisms). Each test asserts at the stated tolerance and prints
a single PASS line with the measured numbers; quantities that are reported but
deliberately not gated are printed with a "reported" prefix.

Everything here is deterministic: fixed seeds, no entropy, no network.
"""

import math
import time

import numpy as np
import pytest

from qlow import _bits
from qlow.analytic import (
    landau_zener,
    lz_numeric_success,
    lz_overlap_quadrature,
)
from qlow.ansatz import (
    Schedule,
    meanfield_evolve,
    meanfield_plus,
    meanfield_step,
    multilinear_value,
    product_overlap,
    product_z_expectations,
    qaoa_state,
)
from qlow.experiments import (
    run_fig2_table,
    run_relaxation_compare,
    run_rounding_curve,
    run_shadow_defect,
    shell_landscape,
    task_seed,
    write_records,
)
from qlow.laplacians import (
    BallCut,
    CompleteGraph,
    WeightedHypercube,
    custom_from_edges,
    evolve,
    hypercube,
)
from qlow.objectives import Mean, evaluate, mean_via_terms
from qlow.optimize import (
    RoundingConfig,
    SearchConfig,
    compass_minimize,
    default_qaoa_solver,
    iterated_rounding,
)
from qlow.problems import (
    ZTerm,
    from_dense,
    from_terms,
    hamming_ramp,
    kspin_ferromagnet,
    spike,
    uncoupled_spins,
)
from qlow.statevector import (
    Statevector,
    apply_phase,
    fwht,
    ground_state_mass,
    overlap_probability,
    plus_state,
)


def report(tag: str, detail: str) -> None:
    print(f"PASS {tag}: {detail}")


def reported(tag: str, detail: str) -> None:
    print(f"reported (not gated) {tag}: {detail}")


# ---------------------------------------------------------------------------
# criterion 1: single-round independent-spin table


def test_criterion_01_fig2_table():
    t0 = time.perf_counter()
    _records, summary = run_fig2_table(n=8, n_seeds=10_000, seed=0)
    elapsed = time.perf_counter() - t0

    b = summary["binary"]["analytic"]
    assert b.c_m == pytest.approx(-1.0, abs=1e-12)
    assert b.overlap == pytest.approx(1.0, abs=1e-12)
    assert b.ratio == pytest.approx(1.0, abs=1e-12)

    u = summary["uniform"]["analytic"]
    assert summary["uniform"]["gamma_star"] == pytest.approx(-1.04, abs=0.01)
    assert u.c_m == pytest.approx(-0.436, abs=0.002)
    assert u.overlap == pytest.approx(0.858, abs=0.002)
    assert u.ratio == pytest.approx(0.936, abs=0.002)

    g = summary["gaussian"]["analytic"]
    assert summary["gaussian"]["gamma_star"] == pytest.approx(
        -1 / math.sqrt(2), abs=0.01
    )
    assert g.c_m == pytest.approx(-1 / math.sqrt(2 * math.e), abs=1e-4)
    assert g.overlap == pytest.approx(0.789, abs=0.002)
    assert g.ratio == pytest.approx(0.88, abs=0.005)

    for dist in ("binary", "uniform", "gaussian"):
        ana = summary[dist]["analytic"]
        sim = summary[dist]["simulated"]
        # 1e-12 floor: binary draws are all identical, so the SE is exactly 0
        # and the band must still absorb float rounding
        assert abs(sim["c_m"] - ana.c_m) <= 3 * sim["c_m_se"] + 1e-12
        assert abs(sim["overlap"] - ana.overlap) <= 3 * sim["overlap_se"] + 1e-12

    assert elapsed < 120.0
    report(
        "criterion 1 (independent-spin table)",
        f"analytic pins hit; n=8 x 10^4 seeds within 3 SE for all three "
        f"distributions; runtime {elapsed:.1f}s < 120s",
    )


# ---------------------------------------------------------------------------
# criterion 2: exact-solution suite


def test_criterion_02a_hamming_ramp_exact():
    worst = 1.0
    for n in range(2, 13):
        prob = hamming_ramp(n)
        state = qaoa_state(
            prob, hypercube(n), Schedule([-math.pi / 2], [math.pi / 4])
        )
        p = overlap_probability(state, 0)
        worst = min(worst, p)
        assert p > 1 - 1e-6
    report(
        "criterion 2a (ramp p=1 exact, n<=12)",
        f"ground probability at (-pi/2, pi/4) >= {worst:.2e} > 1-1e-6 for n=2..12",
    )


def test_criterion_02b_kspin_ferromagnet_exact():
    # under the pinned phase convention the exact angle is gamma = -pi/4; the
    # written +pi/4 lands exactly on the antipodal all-ones string (global
    # bit-flip conjugation, see the decision ledger)
    for n in (3, 5, 7):
        prob = kspin_ferromagnet(n, 3)
        lap = hypercube(n)
        state = qaoa_state(prob, lap, Schedule([-math.pi / 4], [math.pi / 4]))
        assert ground_state_mass(state, prob.dense) == pytest.approx(1.0, abs=1e-9)
        anti = qaoa_state(prob, lap, Schedule([math.pi / 4], [math.pi / 4]))
        assert overlap_probability(anti, (1 << n) - 1) == pytest.approx(
            1.0, abs=1e-9
        )
    report(
        "criterion 2b (k=3 ferromagnet, n in {3,5,7})",
        "ground mass 1 within 1e-9 at (-pi/4, pi/4); all-ones mass 1 within "
        "1e-9 at (+pi/4, pi/4)",
    )


def test_criterion_02c_single_pair_exact():
    prob = from_terms(2, [ZTerm((0, 1), -1.0)])
    state = qaoa_state(
        prob, hypercube(2), Schedule([-math.pi / 4], [math.pi / 8])
    )
    mass = ground_state_mass(state, prob.dense)
    assert mass == pytest.approx(1.0, abs=1e-9)
    report(
        "criterion 2c (pair -Z1Z2 at beta=pi/8)",
        f"ground mass {mass:.12f} within 1e-9 of 1 at gamma=-pi/4",
    )


def test_criterion_02d_ghz_three_qubits():
    c = math.pi / 4
    prob = from_terms(3, [ZTerm((0, 1), c), ZTerm((1, 2), c), ZTerm((0, 2), c)])
    state = qaoa_state(prob, hypercube(3), Schedule([1.0], [math.pi / 4]))
    p000 = overlap_probability(state, 0)
    p111 = overlap_probability(state, 7)
    assert p000 + p111 == pytest.approx(1.0, abs=1e-9)
    assert p000 == pytest.approx(0.5, abs=1e-9)
    report(
        "criterion 2d (GHZ-3)",
        f"p(000)+p(111) = {p000 + p111:.12f}, p(000) = {p000:.12f} at (1, pi/4)",
    )


def test_criterion_02e_chain_needs_modified_mixer():
    prob = from_terms(3, [ZTerm((0, 1), -1.0), ZTerm((1, 2), -1.0)])
    ends_only = WeightedHypercube((1.0, 0.0, 1.0))
    state = qaoa_state(
        prob, ends_only, Schedule([3 * math.pi / 4], [math.pi / 4])
    )
    modified = ground_state_mass(state, prob.dense)
    assert modified == pytest.approx(1.0, abs=1e-9)

    standard = hypercube(3)
    best = 0.0
    for g in np.linspace(-math.pi, math.pi, 401):
        phased = apply_phase(plus_state(3), prob.dense, float(g))
        for b in np.linspace(0.0, math.pi, 201):
            best = max(
                best, ground_state_mass(evolve(phased, standard, float(b)), prob.dense)
            )
    assert best < 1 - 0.05
    report(
        "criterion 2e (3-site chain, mixer X1+X3)",
        f"modified mixer exact ({modified:.12f}); standard-mixer grid max "
        f"{best:.3f} <= 0.95",
    )


# ---------------------------------------------------------------------------
# criterion 3: single-round gain ceiling under the complete-graph mixer


def test_criterion_03_grover_gain_ceiling():
    worst_margin = np.inf
    for n in (6, 8, 10):
        lap = CompleteGraph(n)
        cap = 4.0 * 2.0**-n
        for s in range(10):
            rng = np.random.default_rng(task_seed(300 + n, s))
            values = rng.uniform(-1.0, 1.0, size=1 << n)
            c0 = ground_state_mass(plus_state(n), values)
            best = 0.0
            for g in np.linspace(-math.pi, math.pi, 64):
                phased = apply_phase(plus_state(n), values, float(g))
                for b in np.linspace(0.0, 2 * math.pi, 64):
                    best = max(
                        best, ground_state_mass(evolve(phased, lap, float(b)), values)
                    )
            gain = best - c0
            assert gain <= cap + 1e-9
            worst_margin = min(worst_margin, cap - gain)
    report(
        "criterion 3 (complete-graph single-round ceiling)",
        f"max overlap gain <= 4*2^-n + 1e-9 for n in (6, 8, 10) x 10 potentials; "
        f"smallest slack {worst_margin:.2e}",
    )


# ---------------------------------------------------------------------------
# criterion 4: diabatic sweep averages


def test_criterion_04_landau_zener():
    r1 = landau_zener(1.0).r_lz
    assert r1 == pytest.approx((2 * math.pi + 1) / (2 * math.pi + 2), abs=1e-12)

    for rate in (0.5, 1.0, 2.0):
        assert landau_zener(rate).o_lz == pytest.approx(
            lz_overlap_quadrature(rate), abs=1e-8
        )

    worst = 0.0
    for rate in (0.5, 1.0, 2.0):
        target = landau_zener(rate).p_lz(1.0)
        fine = lz_numeric_success(rate, alpha=1.0, rtol=1e-9)
        coarse = lz_numeric_success(rate, alpha=1.0, rtol=1e-7)
        assert abs(fine - coarse) < 1e-4  # tolerance convergence
        err = abs(fine - target)
        worst = max(worst, err)
        assert err <= 2e-2
    report(
        "criterion 4 (diabatic sweep)",
        f"R(1) exact to 1e-12; O matches quadrature to 1e-8 at rates "
        f"(0.5, 1, 2); two-level integration within {worst:.2e} <= 2e-2",
    )


# ---------------------------------------------------------------------------
# criterion 5: shell-state landscape flatness


def test_criterion_05_shell_flatness():
    strict = {}
    for n in (5, 7, 9):
        res = shell_landscape(n, resolution=32)
        assert res["gamma_row_deviation"] < 1e-9
        assert res["grid_min"] >= res["baseline"] - 1e-9
        strict[n] = res["full_variation"]

    even = shell_landscape(6, resolution=32)
    assert float(np.max(np.abs(even["table"] - even["baseline"]))) < 1e-9

    report(
        "criterion 5 (shell-state flatness, 32x32)",
        "gamma-direction variation < 1e-9 and no grid point beats the "
        "baseline for n in {5,7,9}; half-filled n=6 grid flat to 1e-9 "
        "against the unevolved value",
    )
    reported(
        "criterion 5 strict 2D variation at odd n",
        f"beta direction moves the objective by "
        f"{strict[5]:.3f}/{strict[7]:.3f}/{strict[9]:.3f} (n=5/7/9); the "
        "flatness claim is about the gamma direction (see ledger)",
    )


# ---------------------------------------------------------------------------
# criterion 6: confined vs free evolution around a far barrier


def test_criterion_06_cut_vs_uncut():
    _records, details = run_shadow_defect(
        variant="spike_cut", n=8, radius=5, boost=8.0
    )
    cut_ramp = details[("ballcut", "ramp")]["ground_mass"]
    cut_spike = details[("ballcut", "ramp-spike")]["ground_mass"]
    free_ramp = details[("nocut-mean", "ramp")]["ground_mass"]
    free_spike = details[("nocut-mean", "ramp-spike")]["ground_mass"]

    assert cut_spike >= free_spike
    assert cut_spike == pytest.approx(cut_ramp, abs=1e-6)
    drop = free_ramp - free_spike
    assert drop >= 0.03

    report(
        "criterion 6 (cut vs uncut ordering)",
        f"cut {cut_spike:.3f} >= uncut {free_spike:.3f} on ramp+spike; cut "
        f"ramp/spike equal within {abs(cut_ramp - cut_spike):.1e} <= 1e-6; "
        f"uncut drop {drop:.3f} >= 0.03",
    )
    refs = {"no-cut ramp": (free_ramp, 0.81), "no-cut spike": (free_spike, 0.71),
            "cut": (cut_spike, 0.96)}
    parts = [
        f"{k} {v:.3f} vs {ref:.2f} ({'within' if abs(v - ref) <= 0.05 else 'outside'} 0.05)"
        for k, (v, ref) in refs.items()
    ]
    reported(
        "criterion 6 absolute overlaps",
        "; ".join(parts) + "; unquantified initial-state boost, see ledger",
    )


# ---------------------------------------------------------------------------
# criterion 7: mean-field properties


def test_criterion_07_meanfield():
    # separable exactness: per-qubit marginals match the full statevector
    prob = uncoupled_spins(5, "uniform", seed=13)
    sched = Schedule([-0.9, 0.4], [0.7, 0.3])
    qubits = meanfield_evolve(prob, hypercube(5), sched)
    exact = qaoa_state(prob, hypercube(5), sched)
    probs = exact.probabilities()
    zexp = product_z_expectations(qubits)
    idx = _bits.indices(5)
    sep_dev = max(
        abs((1.0 - zexp[i]) / 2.0 - float(probs @ ((idx >> i) & 1)))
        for i in range(5)
    )
    assert sep_dev < 1e-10

    # pair terms see zero field at |+>^n, so nothing moves
    pair_only = from_terms(4, [ZTerm((0, 1), 2.0), ZTerm((2, 3), -1.0)])
    stepped = meanfield_step(
        pair_only, hypercube(4), meanfield_plus(4), 0.9, 0.0
    )
    assert np.all(product_z_expectations(stepped) == 0.0)

    # spike: one mean-field round beats the exact single round
    barrier = spike(8, 0.5, 1.25)
    lap = hypercube(8)
    gammas = np.linspace(-math.pi, math.pi, 801)

    def exact_overlap(g):
        state = qaoa_state(barrier, lap, Schedule([g], [math.pi / 4]))
        return overlap_probability(state, 0)

    def mf_overlap(g):
        q = meanfield_evolve(barrier, lap, Schedule([g], [math.pi / 4]))
        return product_overlap(q, 0)

    step = float(gammas[1] - gammas[0])
    ex_grid = np.array([exact_overlap(float(g)) for g in gammas])
    x_ex, neg_ex = compass_minimize(
        lambda x: -exact_overlap(float(x[0])),
        np.array([gammas[int(np.argmax(ex_grid))]]),
        step, 1e-10, 200,
    )
    exact_max = -neg_ex
    mf_grid = np.array([mf_overlap(float(g)) for g in gammas])
    _, neg_mf = compass_minimize(
        lambda x: -mf_overlap(float(x[0])),
        np.array([gammas[int(np.argmax(mf_grid))]]),
        step, 1e-10, 200,
    )
    mf_max = -neg_mf
    assert mf_max >= exact_max + 0.01

    report(
        "criterion 7 (mean-field)",
        f"separable marginal deviation {sep_dev:.1e} < 1e-10; pair terms "
        f"exactly silent from |+>; spike(8) max-over-gamma at beta=pi/4: "
        f"mean-field {mf_max:.4f} >= exact {exact_max:.4f} + 0.01",
    )


# ---------------------------------------------------------------------------
# criterion 8: iterated rounding


def test_criterion_08a_rounding_gaussian_rate():
    config = SearchConfig(resolution=(24, 24), top_k=3)
    hits = 0
    n_seeds = 100
    for s in range(n_seeds):
        prob = uncoupled_spins(10, "gaussian", seed=task_seed(800, s))
        solver = default_qaoa_solver(p=1, objective=Mean(), config=config)
        rc = RoundingConfig(beta_r=1e3, n_f=10, seed=task_seed(801, s))
        assignment, _ = iterated_rounding(prob, solver, rc)
        z = int(sum(int(b) << q for q, b in enumerate(assignment)))
        if prob.dense[z] <= prob.f_min + 1e-9:
            hits += 1
    rate = hits / n_seeds
    assert rate >= 0.99
    report(
        "criterion 8a (rounding solves gaussian spins)",
        f"exact-solution rate {rate:.3f} >= 0.99 over {n_seeds} seeds "
        f"(n=10, beta_r=1e3, p=1; plain single-measurement reference "
        f"0.789^10 ~ 0.09)",
    )


def test_criterion_08b_rounding_curve_monotone():
    records = run_rounding_curve(
        j2_list=(1.0,),
        seeds=20,
        rows=3,
        cols=3,
        beta_r=10.0,
        resolution=(32, 32),
        top_k=3,
        master_seed=0,
    )
    by_count: dict[int, list[float]] = {}
    for r in records:
        k = int(r.solver.split("-")[1])
        by_count.setdefault(k, []).append(r.ground_prob)
    medians = [float(np.median(by_count[k])) for k in sorted(by_count)]
    assert len(medians) == 9
    # gated from one freeze on; the unfrozen point is reported (the spin-flip
    # degenerate pair inflates it, see ledger)
    for a, b in zip(medians[1:], medians[2:]):
        assert b >= a - 1e-12
    report(
        "criterion 8b (grid J2=1 rounding curve)",
        "median success non-decreasing in frozen count (from 1 freeze on) "
        f"over 20 seeds: {[round(m, 3) for m in medians[1:]]}",
    )
    reported(
        "criterion 8b unfrozen starting point",
        f"median at zero freezes {medians[0]:.3f} counts both grounds of the "
        "spin-flip symmetric problem (see ledger)",
    )


# ---------------------------------------------------------------------------
# criterion 9: per-term / per-qubit relaxation ordering


def test_criterion_09_relaxation_ordering():
    records = run_relaxation_compare(
        j2_list=(0.2, 0.4, 0.6, 0.8, 1.0), seeds=20, master_seed=0
    )
    med: dict[tuple[float, str], float] = {}
    groups: dict[tuple[float, str], list[float]] = {}
    for r in records:
        groups.setdefault((r.j2, r.solver), []).append(r.ground_prob)
    for key, vals in groups.items():
        med[key] = float(np.median(vals))
    lines = []
    for j2 in (0.2, 0.4, 0.6, 0.8, 1.0):
        std = med[(j2, "standard")]
        g = med[(j2, "relax-gamma")]
        both = med[(j2, "relax-both")]
        assert g >= std - 1e-12
        assert both >= g - 1e-12
        lines.append(f"J2={j2:g}: {std:.3f} <= {g:.3f} <= {both:.3f}")
    report(
        "criterion 9 (relaxation ordering)",
        "median success standard <= gamma-relaxed <= both-relaxed at every "
        "J2: " + "; ".join(lines),
    )


# ---------------------------------------------------------------------------
# criterion 10: infrastructure property suite


def test_criterion_10_property_suite(tmp_path):
    rng = np.random.default_rng(99)
    amps = rng.normal(size=32) + 1j * rng.normal(size=32)
    state = Statevector(5, amps / np.linalg.norm(amps))

    ring = custom_from_edges(5, [(z, (z + 1) % 32) for z in range(32)])
    laps = [
        hypercube(5),
        CompleteGraph(5),
        ring,
        BallCut(inner=hypercube(5), center=0, radius=2),
    ]
    unit_dev = max(
        abs(evolve(state, lap, 0.83).norm() - 1.0) for lap in laps
    )
    assert unit_dev < 1e-10

    fw_dev = float(np.max(np.abs(fwht(fwht(state)).amps - state.amps)))
    assert fw_dev < 1e-12

    prob = from_dense(4, rng.uniform(-4, 4, size=16))
    ml_dev = max(
        abs(
            multilinear_value(
                prob, np.array([(z >> i) & 1 for i in range(4)], dtype=float)
            )
            - float(prob.dense[z])
        )
        for z in range(16)
    )
    assert ml_dev < 1e-10

    amps4 = rng.normal(size=16) + 1j * rng.normal(size=16)
    s4 = Statevector(4, amps4 / np.linalg.norm(amps4))
    term_dev = abs(mean_via_terms(prob, s4) - evaluate(Mean(), s4, prob))
    assert term_dev < 1e-9

    cut = BallCut(inner=hypercube(5), center=0, radius=2)
    ball = cut.ball()
    inside_before = float(np.sum(np.abs(state.amps[ball]) ** 2))
    moved = evolve(state, cut, 1.3)
    inside_after = float(np.sum(np.abs(moved.amps[ball]) ** 2))
    assert abs(inside_after - inside_before) < 1e-10

    # seeded pipeline determinism: identical CSV bytes apart from wall time
    paths = []
    for name in ("a.csv", "b.csv"):
        records, _ = run_fig2_table(n=5, n_seeds=300, seed=0)
        path = tmp_path / name
        write_records(records, path)
        paths.append(path)

    def strip_wall(path):
        lines = path.read_text().splitlines()
        return [",".join(line.split(",")[:-1]) for line in lines]

    assert strip_wall(paths[0]) == strip_wall(paths[1])

    report(
        "criterion 10 (property suite)",
        f"unitarity dev {unit_dev:.1e} < 1e-10; FWHT involution "
        f"{fw_dev:.1e} < 1e-12; multilinear vertex dev {ml_dev:.1e} < 1e-10; "
        f"term-vs-dense dev {term_dev:.1e} < 1e-9; ball mass conserved; "
        "repeated pipeline CSVs byte-identical outside the wall_ms column",
    )
