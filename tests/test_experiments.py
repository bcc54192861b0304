import csv
import math

import numpy as np
import pytest

from qlow import _bits, experiments
from qlow.ansatz import Schedule, qaoa_state
from qlow.errors import ConfigError
from qlow.experiments import (
    CSV_HEADER,
    ExperimentRecord,
    _batched_uncoupled,
    _far_spike_problem,
    boosted_ball_state,
    objective_from_config,
    objective_tag,
    run_ce_baseline,
    run_fig2_table,
    run_improvement_proxy,
    run_relaxation_compare,
    run_rounding_curve,
    run_scale_sweep,
    run_shadow_defect,
    shell_landscape,
    task_seed,
    write_records,
)
from qlow.laplacians import hypercube
from qlow.objectives import CVaR, Gibbs, Mean
from qlow.problems import from_dense
from qlow.statevector import ground_state_mass


def make_record(**overrides):
    base = dict(
        experiment="scale",
        family="chain",
        n=4,
        p=1,
        j2=0.5,
        seed=0,
        solver="qaoa",
        objective="mean",
        value=-1.25,
        ground_prob=0.5,
        approx_ratio=0.9,
        wall_ms=12.3456,
    )
    base.update(overrides)
    return ExperimentRecord(**base)


def test_record_row_formatting():
    rec = make_record(
        j2=None, value=1 / 3, ground_prob=None, approx_ratio=0.123456789012345
    )
    row = rec.row()
    assert row[4] == ""
    assert row[8] == "0.3333333333"
    assert row[9] == ""
    assert row[10] == "0.123456789"
    assert row[11] == "12.346"
    assert len(row) == len(CSV_HEADER)


def test_record_rejects_bad_ground_prob():
    with pytest.raises(ValueError):
        make_record(ground_prob=1.5)


def test_write_records_sorts_rows(tmp_path):
    recs = [
        make_record(experiment="scale", n=6, seed=1),
        make_record(experiment="scale", n=6, seed=0),
        make_record(experiment="ce", n=4, j2=None),
        make_record(experiment="scale", n=4, j2=0.2),
    ]
    out = tmp_path / "rows.csv"
    write_records(recs, out)
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_HEADER
    assert [r[0] for r in rows[1:]] == ["ce", "scale", "scale", "scale"]
    # within 'scale': n ascending, then seed
    assert rows[2][2] == "4" and rows[3][5] == "0" and rows[4][5] == "1"


def test_task_seed_is_stable_and_spread():
    assert task_seed(0, 0) == task_seed(0, 0)
    seeds = {task_seed(7, i) for i in range(200)}
    assert len(seeds) == 200
    assert task_seed(7, 3) != task_seed(8, 3)


@pytest.mark.parametrize("dist", ["binary", "uniform", "gaussian"])
def test_batched_uncoupled_matches_statevector_route(dist):
    n, n_seeds, gamma, beta, seed = 3, 4, -0.8, 0.6, 42
    got = _batched_uncoupled(dist, n, gamma, beta, n_seeds, seed)

    rng = np.random.default_rng(seed)
    if dist == "binary":
        alphas = rng.integers(0, 2, size=(n_seeds, n)) * 2.0 - 1.0
    elif dist == "uniform":
        alphas = rng.uniform(-1.0, 1.0, size=(n_seeds, n))
    else:
        alphas = rng.normal(0.0, math.sqrt(0.5), size=(n_seeds, n))

    idx = _bits.indices(n)
    energies, hits, masses = [], [], []
    for s in range(n_seeds):
        values = sum(
            alphas[s, j] * (1.0 - 2.0 * ((idx >> j) & 1)) for j in range(n)
        )
        prob = from_dense(n, values)
        state = qaoa_state(prob, hypercube(n), Schedule([gamma], [beta]))
        probs = state.probabilities()
        energies.append(float(probs @ values) / n)
        masses.append(ground_state_mass(state, values))
        for j in range(n):
            p1 = float(probs @ ((idx >> j) & 1))
            hits.append(p1 if alphas[s, j] > 0 else 1.0 - p1)

    assert got["c_m"] == pytest.approx(np.mean(energies), abs=1e-10)
    assert got["overlap"] == pytest.approx(np.mean(hits), abs=1e-10)
    assert got["ground_mass"] == pytest.approx(np.mean(masses), abs=1e-10)


def test_fig2_table_simulation_tracks_analytic():
    records, summary = run_fig2_table(n=6, n_seeds=2000, seed=1)
    assert len(records) == 7  # analytic + simulated per distribution, then sweep row
    for dist in ("binary", "uniform", "gaussian"):
        ana = summary[dist]["analytic"]
        sim = summary[dist]["simulated"]
        assert abs(sim["c_m"] - ana.c_m) <= 5 * sim["c_m_se"] + 1e-12
        assert abs(sim["overlap"] - ana.overlap) <= 5 * sim["overlap_se"] + 1e-12
    assert summary["binary"]["gamma_star"] == pytest.approx(-math.pi / 4, abs=1e-6)
    analytic_rows = [r for r in records if r.solver == "analytic"]
    assert all(r.n == 1 for r in analytic_rows)


@pytest.mark.parametrize("n", [5, 6])
def test_shell_landscape_matches_closed_form(n):
    res = shell_landscape(n, resolution=12)
    k = n // 2
    assert res["baseline"] == pytest.approx(float(k), abs=1e-12)
    assert res["gamma_row_deviation"] < 1e-9
    betas = np.linspace(0.0, math.pi, 12)
    expected = n / 2 - 0.5 * np.cos(2 * betas) * (n - 2 * k)
    np.testing.assert_allclose(res["table"], np.tile(expected, (12, 1)), atol=1e-9)
    if n % 2 == 0:
        assert res["full_variation"] < 1e-9
    else:
        # grid extrema, since the beta grid need not contain pi/2 exactly
        assert res["full_variation"] == pytest.approx(
            float(expected.max() - expected.min()), abs=1e-9
        )


def test_boosted_ball_state_shape():
    state = boosted_ball_state(5, 0, 2, 8.0)
    assert np.linalg.norm(state.amps) == pytest.approx(1.0, abs=1e-12)
    w = _bits.popcounts(5)
    inside = w <= 2
    assert np.all(state.amps[~inside] == 0)
    others = state.amps[inside & (np.arange(32) != 0)]
    assert np.allclose(np.abs(others), np.abs(others[0]))
    assert abs(state.amps[0]) == pytest.approx(8.0 * abs(others[0]), abs=1e-12)


@pytest.mark.parametrize("center", [9, -1])
def test_boosted_ball_state_rejects_a_center_out_of_range(center):
    with pytest.raises(ConfigError, match="center out of range"):
        boosted_ball_state(3, center, 1, 8.0)


def test_far_spike_problem_values():
    prob = _far_spike_problem(6, weight=5, height=3.5)
    w = _bits.popcounts(6)
    np.testing.assert_allclose(prob.dense[w != 5], w[w != 5].astype(float))
    np.testing.assert_allclose(prob.dense[w == 5], 5 + 3.5)


def test_objective_config_roundtrip():
    assert isinstance(objective_from_config(None), Mean)
    assert isinstance(objective_from_config("gibbs"), Gibbs)
    cv = objective_from_config({"kind": "cvar", "alpha": 0.25})
    assert isinstance(cv, CVaR) and cv.alpha == 0.25
    assert objective_tag(Mean()) == "mean"
    assert objective_tag(Gibbs(20.0)) == "gibbs20"
    assert objective_tag(CVaR(0.25)) == "cvar0.25"
    with pytest.raises(ConfigError):
        objective_from_config({"kind": "entropy"})


def test_shadow_defect_validation():
    with pytest.raises(ConfigError):
        run_shadow_defect(variant="nope")
    with pytest.raises(ConfigError):
        run_shadow_defect(variant="spike_cut", n=6, radius=5, spike_weight=4)


def test_shadow_defect_default_runs_both_halves():
    kw = dict(ns=(4,), resolution=6, n=6, radius=3, search_resolution=(6, 6))
    both, both_details = run_shadow_defect(**kw)
    flat, flat_details = run_shadow_defect(variant="flat", **kw)
    cut, cut_details = run_shadow_defect(variant="spike_cut", **kw)
    assert [r.row()[:11] for r in both] == [r.row()[:11] for r in flat + cut]
    assert both_details.keys() == flat_details.keys() | cut_details.keys()


def test_improvement_proxy_pipeline_smoke():
    records, details = run_improvement_proxy(
        n_list=(4,), kinds=("uniform", "ball"), resolution=(12, 12)
    )
    assert {r.solver for r in records} == {"uniform", "ball"}
    assert all(r.experiment == "proxy" and np.isfinite(r.value) for r in records)
    assert details[(4, "uniform")].value > 0.2


def test_improvement_proxy_rejects_an_unknown_kind_before_any_search(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("a search ran before the kinds were checked")

    monkeypatch.setattr(experiments, "optimize_schedule", no_search)
    with pytest.raises(ConfigError, match="bogus"):
        run_improvement_proxy(n_list=(4,), kinds=("uniform", "bogus"), resolution=(6, 6))


def test_rounding_curve_record_layout():
    records = run_rounding_curve(
        j2_list=(1.0,),
        seeds=2,
        rows=2,
        cols=2,
        beta_r=1e3,
        resolution=(12, 12),
        top_k=1,
        master_seed=0,
    )
    assert len(records) == 8  # 2 seeds x 4 freezes, no residual row
    tags = {r.solver for r in records}
    assert tags == {f"rounding-{k:02d}" for k in range(4)}
    assert all(0.0 <= r.ground_prob <= 1.0 for r in records)
    assert all(r.family == "grid" and r.n == 4 for r in records)


def test_scale_sweep_deterministic_family_repeats():
    records = run_scale_sweep(
        family="chain",
        p_list=(1,),
        j2_list=(0.5,),
        seeds=2,
        n=4,
        resolution=(8, 8),
        master_seed=3,
    )
    assert len(records) == 2
    assert records[0].value == records[1].value
    assert records[0].ground_prob == records[1].ground_prob
    assert all(r.family == "chain" and r.n == 4 for r in records)


def test_ce_baseline_memoizes_grid_solves():
    records = run_ce_baseline(
        family="grid",
        p_list=(1,),
        seeds=2,
        rows=2,
        cols=2,
        restarts=4,
        resolution=(8, 8),
        master_seed=0,
    )
    classical = [r for r in records if r.solver == "classical"]
    qaoa = [r for r in records if r.solver == "qaoa"]
    assert len(classical) == 2 and len(qaoa) == 2
    assert all(r.p == 0 for r in classical)
    assert qaoa[0].value == qaoa[1].value
    assert qaoa[0].wall_ms == qaoa[1].wall_ms  # second seed reuses the solve


def test_relaxation_compare_warm_start_ordering():
    records = run_relaxation_compare(
        j2_list=(0.6,), seeds=2, rows=2, cols=2, resolution=(12, 12)
    )
    assert len(records) == 8  # 4 variants x 2 replicated seeds
    by_solver = {r.solver: r.value for r in records if r.seed == 0}
    assert by_solver["relax-gamma"] <= by_solver["standard"] + 1e-9
    assert by_solver["relax-beta"] <= by_solver["standard"] + 1e-9
    assert by_solver["relax-both"] <= by_solver["relax-gamma"] + 1e-9
