import csv
import inspect
import json
import math
from pathlib import Path

import pytest

from qlow import experiments, laplacians, optimize
from qlow.cli import (
    DEFAULT_SEED,
    PIPELINES,
    REPRODUCIBLE,
    _default_manifest,
    bind_pipeline,
    main,
    validate_manifest,
)
from qlow.errors import ConfigError, NumericError, _fits
from qlow.laplacians import BallCut, CompleteGraph, CustomSparse, WeightedHypercube

from conftest import run_fresh


def write_manifest(tmp_path, payload, name="m.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


SOLVE_UNCOUPLED = {
    "experiment": "solve",
    "problem": {"family": "uncoupled", "n": 4, "dist": "binary", "seed": 3},
    "search": {"resolution": [16, 16], "top_k": 2},
}


def test_solve_prints_result_json(tmp_path, capsys):
    path = write_manifest(tmp_path, SOLVE_UNCOUPLED)
    assert main(["solve", "--manifest", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["n"] == 4 and out["p"] == 1
    assert out["seed"] == DEFAULT_SEED
    assert out["ground_prob"] > 0.95
    assert len(out["argmax_bitstring"]) == 4
    assert set(out["argmax_bitstring"]) <= {"0", "1"}
    assert out["argmax_value"] == pytest.approx(-4.0, abs=1e-6)
    assert out["ratio_flag"] is None


def test_solve_writes_out_directory(tmp_path, capsys):
    path = write_manifest(tmp_path, SOLVE_UNCOUPLED)
    out_dir = tmp_path / "res"
    assert main(["solve", "--manifest", path, "--out", str(out_dir)]) == 0
    stdout_doc = json.loads(capsys.readouterr().out)
    with open(out_dir / "solve.json") as fh:
        assert json.load(fh) == stdout_doc


def test_solve_requires_solve_experiment(tmp_path, capsys):
    payload = dict(SOLVE_UNCOUPLED, experiment="sample")
    path = write_manifest(tmp_path, payload)
    assert main(["solve", "--manifest", path]) == 2
    assert "config error" in capsys.readouterr().err


def test_constant_problem_sets_ratio_flag(tmp_path, capsys):
    payload = {
        "experiment": "solve",
        "problem": {"family": "terms", "n": 2, "terms": [{"qubits": [], "coeff": 2.0}]},
        "search": {"resolution": [8, 8], "top_k": 1},
    }
    path = write_manifest(tmp_path, payload)
    assert main(["solve", "--manifest", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["approx_ratio"] is None
    assert out["ratio_flag"] == "undefined-constant-problem"
    assert out["mean"] == pytest.approx(2.0, abs=1e-9)


def test_search_seed_is_rejected(tmp_path, capsys):
    # the search draws no random numbers, so it takes no seed; --seed seeds the
    # pipelines and sample's shots
    payload = dict(SOLVE_UNCOUPLED, search={"resolution": [16, 16], "seed": 3})
    path = write_manifest(tmp_path, payload)
    assert main(["solve", "--manifest", path]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "$.search" in err and "'seed'" in err


def test_malformed_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["solve", "--manifest", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_missing_manifest_is_config_error(tmp_path, capsys):
    assert main(["solve", "--manifest", str(tmp_path / "nope.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_schema_violations_report_json_path(tmp_path, capsys):
    payload = dict(SOLVE_UNCOUPLED, problem={"family": "mystery", "n": 4})
    path = write_manifest(tmp_path, payload)
    assert main(["solve", "--manifest", path]) == 2
    assert "$.problem.family" in capsys.readouterr().err

    payload = dict(SOLVE_UNCOUPLED, shots=100)
    path = write_manifest(tmp_path, payload)
    assert main(["solve", "--manifest", path]) == 2
    assert "shots" in capsys.readouterr().err


def test_qubit_cap_is_resource_exit(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QLOW_MAX_QUBITS", "4")
    payload = {
        "experiment": "solve",
        "problem": {"family": "ramp", "n": 5},
        "search": {"resolution": [8, 8], "top_k": 1},
    }
    path = write_manifest(tmp_path, payload)
    assert main(["solve", "--manifest", path]) == 3
    assert "resource cap" in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["abc", "0", "-3"])
def test_bad_qubit_cap_is_config_exit(tmp_path, capsys, monkeypatch, raw):
    monkeypatch.setenv("QLOW_MAX_QUBITS", raw)
    path = write_manifest(tmp_path, SOLVE_UNCOUPLED)
    assert main(["solve", "--manifest", path]) == 2
    assert "QLOW_MAX_QUBITS" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_usage_error(tmp_path, jobs):
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "scale", "--jobs", jobs, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["solve"], ["sample", "--shots", "1"]])
def test_single_process_commands_reject_jobs(tmp_path, capsys, command):
    path = write_manifest(tmp_path, SOLVE_UNCOUPLED)
    with pytest.raises(SystemExit) as exc:
        main(command + ["--manifest", path, "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_numeric_failure_is_exit_four(tmp_path, capsys, monkeypatch):
    import qlow.cli as cli_mod

    def boom(*a, **k):
        raise NumericError("synthetic instability")

    monkeypatch.setattr(cli_mod, "optimize_schedule", boom)
    path = write_manifest(tmp_path, SOLVE_UNCOUPLED)
    assert main(["solve", "--manifest", path]) == 4
    assert "numeric failure" in capsys.readouterr().err


SAMPLE_EXACT = {
    "experiment": "sample",
    "problem": {"family": "uncoupled", "n": 4, "dist": "binary", "seed": 3},
    "schedule": {"gammas": [-0.7853981633974483], "betas": [0.7853981633974483]},
}


def test_sample_exact_schedule_hits_ground_every_shot(tmp_path, capsys):
    path = write_manifest(tmp_path, SAMPLE_EXACT)
    assert main(["sample", "--manifest", path, "--shots", "6"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6
    assert len(set(lines)) == 1  # the state is a single basis state
    bits, value = lines[0].split(",")
    assert float(value) == pytest.approx(-4.0, abs=1e-9)
    assert len(bits) == 4


def test_sample_deterministic_under_seed(tmp_path, capsys):
    payload = dict(SAMPLE_EXACT, schedule={"gammas": [-0.3], "betas": [0.4]})
    path = write_manifest(tmp_path, payload)
    assert main(["sample", "--manifest", path, "--shots", "20", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert main(["sample", "--manifest", path, "--shots", "20", "--seed", "9"]) == 0
    assert capsys.readouterr().out == first
    assert main(["sample", "--manifest", path, "--shots", "20", "--seed", "10"]) == 0
    assert capsys.readouterr().out != first


def test_sample_zero_shots_and_out_file(tmp_path, capsys):
    path = write_manifest(tmp_path, SAMPLE_EXACT)
    out_dir = tmp_path / "s"
    assert main(
        ["sample", "--manifest", path, "--shots", "0", "--out", str(out_dir)]
    ) == 0
    assert capsys.readouterr().out == ""
    assert (out_dir / "samples.csv").read_text() == "bitstring,value\n"


def test_sample_rejects_negative_shots(tmp_path, capsys):
    path = write_manifest(tmp_path, SAMPLE_EXACT)
    assert main(["sample", "--manifest", path, "--shots", "-1"]) == 2


def strip_wall_ms(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("wall_ms")
    return [[c for i, c in enumerate(r) if i != drop] for r in rows]


def test_reproduce_fig2_is_deterministic(tmp_path, capsys):
    manifest = write_manifest(
        tmp_path,
        {"experiment": "fig2", "params": {"n": 5, "n_seeds": 300}},
    )
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["reproduce", "fig2", "--manifest", manifest, "--out", str(d1)]) == 0
    assert main(["reproduce", "fig2", "--manifest", manifest, "--out", str(d2)]) == 0
    capsys.readouterr()
    assert strip_wall_ms(d1 / "fig2.csv") == strip_wall_ms(d2 / "fig2.csv")
    assert len(strip_wall_ms(d1 / "fig2.csv")) == 8  # header + 7 rows


GOLDEN = Path(__file__).with_name("data")
TEXT_COLUMNS = {"experiment", "family", "solver", "objective"}


def first_eleven_columns(path):
    with open(path) as fh:
        return [row[:11] for row in csv.reader(fh)]


def assert_matches_golden(paths, golden):
    """Columns 1-11 of the CSVs at paths, their rows in that order under one
    header, against tests/data/<golden>. A change that moves a CSV value must
    update the golden file on purpose. Text and empty cells must match
    exactly, numbers to 1e-9 relative; the 1e-12 absolute floor only covers
    the scan-gamma-rows values of shadow, the rounding residue (~1e-15) of a
    quantity that is exactly zero."""
    got = first_eleven_columns(paths[0])
    for path in paths[1:]:
        header, *rows = first_eleven_columns(path)
        assert header == got[0]
        got += rows
    want = first_eleven_columns(GOLDEN / golden)
    assert got[0] == want[0] and len(got) == len(want)
    for row, ref in zip(got[1:], want[1:]):
        for column, cell, expected in zip(want[0], row, ref):
            if column in TEXT_COLUMNS or not expected:
                assert cell == expected, (column, row)
            else:
                assert math.isclose(
                    float(cell), float(expected), rel_tol=1e-9, abs_tol=1e-12
                ), (column, row)


@pytest.mark.parametrize("fig_id", ["fig2", "shadow"])
def test_reproduce_shipped_manifest_matches_golden_csv(tmp_path, capsys, fig_id):
    assert main(["reproduce", fig_id, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert_matches_golden([tmp_path / f"{fig_id}.csv"], f"{fig_id}.csv")


def reproduce_small(tmp_path, capsys, manifest, jobs):
    """Run `qlow reproduce` on manifest, a dict, with --jobs jobs into tmp_path."""
    path = write_manifest(tmp_path, manifest)
    args = ["reproduce", manifest["experiment"], "--manifest", path, "--jobs", jobs]
    assert main(args + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()


FREEDOM_SMALL = {
    "experiment": "freedom",
    "params": {
        "j2_list": [0.4, 1.0], "seeds": 1, "rows": 2, "cols": 3,
        "objective_cfg": {"kind": "gibbs", "eta": 20.0}, "resolution": [12, 12],
    },
}
ROUNDING_SMALL = {
    "experiment": "rounding",
    "params": {
        "j2_list": [0.2, 1.0], "seeds": 2, "rows": 2, "cols": 3,
        "resolution": [8, 8], "top_k": 2,
    },
}
SCALE_SMALL = {
    "experiment": "scale",
    "params": {
        "family": "maxcut", "n": 8, "p_list": [1, 2], "j2_list": [0.4, 1.0],
        "seeds": 2, "resolution": [12, 12],
    },
}


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_reproduce_small_freedom_matches_golden_csv(tmp_path, capsys, jobs):
    # tests/data/freedom_small.csv holds columns 1-11 of this run, recorded
    # when the relaxed searches came to refine by BFGS on the adjoint gradient
    reproduce_small(tmp_path, capsys, FREEDOM_SMALL, jobs)
    assert_matches_golden([tmp_path / "freedom.csv"], "freedom_small.csv")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_reproduce_small_rounding_matches_golden_csv(tmp_path, capsys, jobs):
    # tests/data/rounding_small.csv holds columns 1-11 of this run, both J2
    # files in turn, recorded before the rounding solver took one argument
    reproduce_small(tmp_path, capsys, ROUNDING_SMALL, jobs)
    files = [tmp_path / f"rounding_j2_{j2}.csv" for j2 in ("0.2", "1")]
    assert_matches_golden(files, "rounding_small.csv")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_reproduce_small_scale_matches_golden_csv(tmp_path, capsys, jobs):
    # tests/data/scale_small.csv holds columns 1-11 of this run, recorded
    # when the p=2 searches came to refine by BFGS on the adjoint gradient
    reproduce_small(tmp_path, capsys, SCALE_SMALL, jobs)
    assert_matches_golden([tmp_path / "scale.csv"], "scale_small.csv")


PROXY_SMALL = {
    "experiment": "proxy",
    "params": {
        "n_list": [4, 6],
        "kinds": ["uniform", "ball", "ball-phase", "ball-cut", "ball-phase-cut"],
        "resolution": [12, 12],
    },
}
CE_SMALL = {
    "experiment": "ce",
    "params": {
        "family": "maxcut", "n": 6, "p_list": [1, 2], "seeds": 2, "restarts": 8,
        "resolution": [8, 8],
    },
}


def test_reproduce_small_proxy_matches_golden_csv(tmp_path, capsys):
    # tests/data/proxy_small.csv holds columns 1-11 of this run, recorded
    # before the start states came from one table
    reproduce_small(tmp_path, capsys, PROXY_SMALL, "1")
    assert_matches_golden([tmp_path / "proxy.csv"], "proxy_small.csv")


def test_reproduce_small_ce_matches_golden_csv(tmp_path, capsys):
    # tests/data/ce_small.csv holds columns 1-11 of this run, recorded when
    # the p=2 searches came to refine by BFGS on the adjoint gradient
    reproduce_small(tmp_path, capsys, CE_SMALL, "1")
    assert_matches_golden([tmp_path / "ce.csv"], "ce_small.csv")


@pytest.mark.parametrize("fig_id", ["fig2", "shadow", "proxy", "ce"])
def test_reproduce_serial_pipelines_reject_jobs(tmp_path, capsys, fig_id):
    out = tmp_path / "out"
    assert main(["reproduce", fig_id, "--jobs", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"reproduce {fig_id}" in err
    assert not out.exists()


def test_reproduce_scale_jobs_do_not_change_rows(tmp_path, capsys):
    manifest = write_manifest(
        tmp_path,
        {
            "experiment": "scale",
            "params": {
                "family": "chain", "n": 6, "seeds": 2, "p_list": [1, 2],
                "j2_list": [0.4, 1.0], "resolution": [6, 6],
            },
        },
    )
    d1, d2 = tmp_path / "j1", tmp_path / "j2"
    for jobs, out in (("1", d1), ("2", d2)):
        args = ["reproduce", "scale", "--manifest", manifest, "--jobs", jobs]
        assert main(args + ["--out", str(out)]) == 0
    capsys.readouterr()
    rows = strip_wall_ms(d1 / "scale.csv")
    assert len(rows) == 1 + 2 * 2 * 2  # header + p_list x j2_list x seeds
    assert rows == strip_wall_ms(d2 / "scale.csv")


def test_reproduce_rejects_mismatched_manifest(tmp_path, capsys):
    manifest = write_manifest(tmp_path, {"experiment": "fig2", "params": {}})
    assert main(["reproduce", "scale", "--manifest", manifest]) == 2
    assert "does not match" in capsys.readouterr().err


def test_reproduce_unknown_id_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "nonsense"])
    assert exc.value.code == 2


def test_default_manifests_ship_valid():
    for ident in REPRODUCIBLE:
        manifest = _default_manifest(ident)
        assert manifest["experiment"] == ident


@pytest.mark.parametrize("fig_id", REPRODUCIBLE)
def test_shipped_params_bind_to_runner(fig_id):
    run = bind_pipeline(fig_id, _default_manifest(fig_id)["params"], DEFAULT_SEED, 1)
    assert run.func is PIPELINES[fig_id]
    inspect.signature(run.func).bind(*run.args, **run.keywords)
    assert DEFAULT_SEED in (run.keywords.get("seed"), run.keywords.get("master_seed"))


MALFORMED_PARAMS = {
    "unknown_key": ("fig2", {"bogus": 1}),
    "seed_in_params": ("scale", {"seed": 3}),
    "master_seed_in_params": ("freedom", {"master_seed": 3}),
    "jobs_in_params": ("scale", {"jobs": 2}),
    "bad_shadow_variant": ("shadow", {"variant": "nope"}),
    "fig2_zero_spins": ("fig2", {"n": 0}),
    "fig2_one_instance": ("fig2", {"n_seeds": 1}),
    "rounding_zero_rows": ("rounding", {"rows": 0}),
    "shadow_zero_qubits": ("shadow", {"ns": [0]}),
    "scale_zero_seeds": ("scale", {"seeds": 0}),
    "freedom_no_couplings": ("freedom", {"j2_list": []}),
    "scale_scalar_resolution": ("scale", {"resolution": 5}),
    "rounding_string_seeds": ("rounding", {"seeds": "2"}),
    "rounding_string_n_f": ("rounding", {"n_f": "2"}),
    "shadow_string_spike_height": ("shadow", {"spike_height": "x"}),
    "shadow_spike_outside_cube": ("shadow", {"variant": "spike_cut", "n": 6, "radius": 3, "spike_weight": 9}),
    "scale_scalar_objective_cfg": ("scale", {"objective_cfg": 5}),
    "ce_string_gibbs_eta": ("ce", {"objective_cfg": {"kind": "gibbs", "eta": "hot"}}),
    "scale_one_item_resolution": ("scale", {"resolution": [6]}),
    "scale_three_item_resolution": ("scale", {"resolution": [6, 6, 6]}),
}


@pytest.mark.parametrize(
    "fig_id,params", MALFORMED_PARAMS.values(), ids=MALFORMED_PARAMS.keys()
)
def test_reproduce_malformed_params_is_config_exit(tmp_path, capsys, fig_id, params):
    manifest = write_manifest(tmp_path, {"experiment": fig_id, "params": params})
    out = tmp_path / "out"
    assert main(["reproduce", fig_id, "--manifest", manifest, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert not out.exists()


FAMILY_SPECS = [
    ({"family": "ramp", "n": 4}, 4),
    ({"family": "uncoupled", "n": 3, "dist": "gaussian", "seed": 1}, 3),
    ({"family": "chain", "n": 4, "j2": 0.5}, 4),
    ({"family": "grid", "rows": 2, "cols": 2, "j2": 1.0}, 4),
    ({"family": "maxcut", "n": 4, "fraction": 0.5, "j2": 1.0, "seed": 0}, 4),
    ({"family": "spike", "n": 8, "a": 0.5, "b": 1.25}, 8),
    ({"family": "bush", "n": 4}, 4),
    ({"family": "kspin", "n": 3, "k": 3}, 3),
    ({"family": "conflicted", "n": 4, "epsilon": 0.5, "delta": 3.0}, 4),
    ({"family": "fisher", "n": 4, "seed": 2}, 4),
    ({"family": "dense", "n": 2, "values": [0.0, 1.0, -1.0, 2.0]}, 2),
    (
        {"family": "terms", "n": 3, "terms": [{"qubits": [0, 2], "coeff": -1.0}]},
        3,
    ),
]


def bound_section(key, spec):
    """Section `key` of a ramp solve manifest as validate_manifest binds it;
    a spec of None leaves the section out."""
    manifest = {"experiment": "solve", "problem": {"family": "ramp", "n": 3}}
    if spec is not None:
        manifest[key] = spec
    return validate_manifest(manifest)[key]


@pytest.mark.parametrize("spec,n", FAMILY_SPECS)
def test_problem_family_coverage(spec, n):
    prob = bound_section("problem", spec)()
    assert prob.n == n
    assert prob.dense.size == 1 << n


def test_problem_spec_errors():
    with pytest.raises(ConfigError):
        bound_section("problem", {"family": "mystery"})
    with pytest.raises(ConfigError):
        bound_section("problem", {"family": "ramp"})  # missing n


def test_mixer_coverage():
    assert isinstance(bound_section("mixer", None)(3), WeightedHypercube)
    weighted = bound_section("mixer", {"kind": "hypercube", "b": [1.0, 0.0, 2.0]})(3)
    assert weighted.b == (1.0, 0.0, 2.0)
    assert isinstance(bound_section("mixer", {"kind": "complete"})(3), CompleteGraph)
    cut = bound_section("mixer", {"kind": "ballcut", "radius": 2})(4)
    assert isinstance(cut, BallCut) and cut.radius == 2 and cut.center == 0
    custom = bound_section(
        "mixer", {"kind": "custom", "edges": [[0, 1], [1, 2, 0.5]]}
    )(2)
    assert isinstance(custom, CustomSparse)
    with pytest.raises(ConfigError):
        bound_section("mixer", {"kind": "torus"})


def terms_on(*qubits):
    term = {"qubits": list(qubits), "coeff": 1.0}
    return {"problem": {"family": "terms", "n": 3, "terms": [term]}}


BAD_INPUT = {
    "qubit_beyond_n": terms_on(5),
    "qubit_70": terms_on(70),
    "negative_qubit": terms_on(-1),
    "negative_dense_n": {"problem": {"family": "dense", "n": -2, "values": [1.0]}},
    "repeated_qubit": terms_on(1, 1),
    "dense_length": {"problem": {"family": "dense", "n": 3, "values": [0.0, 1.0, 2.0, 3.0]}},
    "hypercube_b_length": {
        "problem": {"family": "ramp", "n": 3},
        "mixer": {"kind": "hypercube", "b": [1.0, 1.0]},
    },
    "custom_endpoint": {
        "problem": {"family": "ramp", "n": 2},
        "mixer": {"kind": "custom", "edges": [[0, 1], [2, 4]]},
    },
    "custom_nonintegral_endpoint": {
        "problem": {"family": "ramp", "n": 2},
        "mixer": {"kind": "custom", "edges": [[0, 1.5]]},
    },
    "ballcut_without_radius": {
        "problem": {"family": "ramp", "n": 3},
        "mixer": {"kind": "ballcut", "center": 1},
    },
    "custom_without_edges": {
        "problem": {"family": "ramp", "n": 2},
        "mixer": {"kind": "custom"},
    },
    "ballcut_with_weights": {
        "problem": {"family": "ramp", "n": 3},
        "mixer": {"kind": "ballcut", "radius": 1, "b": [1.0, 1.0, 1.0]},
    },
    "complete_with_radius": {
        "problem": {"family": "ramp", "n": 3},
        "mixer": {"kind": "complete", "radius": 1},
    },
    "ramp_float_n": {"problem": {"family": "ramp", "n": 4.0}},
    "grid_float_rows": {"problem": {"family": "grid", "rows": 2.0, "cols": 2}},
    "kspin_float_k": {"problem": {"family": "kspin", "n": 3, "k": 3.0}},
    "ballcut_float_radius": {
        "problem": {"family": "ramp", "n": 3},
        "mixer": {"kind": "ballcut", "radius": 1.0},
    },
    "ramp_with_j2": {"problem": {"family": "ramp", "n": 4, "j2": 0.3, "seed": 9}},
    "grid_with_n": {"problem": {"family": "grid", "rows": 2, "cols": 2, "n": 9}},
    "maxcut_with_dist": {"problem": {"family": "maxcut", "n": 4, "dist": "binary"}},
    "mean_with_eta": {
        "problem": {"family": "ramp", "n": 3},
        "objective": {"kind": "mean", "eta": 5},
    },
    "gibbs_with_alpha": {
        "problem": {"family": "ramp", "n": 3},
        "objective": {"kind": "gibbs", "alpha": 0.2},
    },
}


@pytest.mark.parametrize("spec", BAD_INPUT.values(), ids=BAD_INPUT.keys())
def test_bad_problem_and_mixer_input_is_config_exit(tmp_path, capsys, spec):
    payload = {"experiment": "solve", "search": {"resolution": [4, 4], "top_k": 1}, **spec}
    assert main(["solve", "--manifest", write_manifest(tmp_path, payload)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err


@pytest.mark.parametrize("case,named", [
    ("negative_qubit", "negative qubit -1"),
    ("negative_dense_n", "qubit count must be >= 1, got -2"),
])
def test_negative_qubit_or_count_is_named(tmp_path, capsys, case, named):
    payload = {"experiment": "solve", **BAD_INPUT[case]}
    assert main(["solve", "--manifest", write_manifest(tmp_path, payload)]) == 2
    err = capsys.readouterr().err
    assert named in err and "shift count" not in err


def test_ball_cut_above_matrix_cap_is_resource_exit(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(laplacians, "MATRIX_N_CAP", 4)
    payload = solve_with(
        problem={"family": "ramp", "n": 5},
        mixer={"kind": "ballcut", "center": 0, "radius": 2},
        search={"resolution": [4, 4], "top_k": 1},
    )
    assert main(["solve", "--manifest", write_manifest(tmp_path, payload)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource cap: ") and "n=4" in err


def test_fig2_above_qubit_cap_is_resource_exit(tmp_path, capsys, monkeypatch):
    def allocate(*args):
        raise AssertionError("fig2 simulated a table above the qubit cap")

    # the batched fields and states of n=25 would take gigabytes; the cap must stop it first
    monkeypatch.setattr(experiments, "_batched_uncoupled", allocate)
    manifest = write_manifest(tmp_path, {"experiment": "fig2", "params": {"n": 25, "n_seeds": 2}})
    out = tmp_path / "out"
    assert main(["reproduce", "fig2", "--manifest", manifest, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource cap: ") and "n=25" in err
    assert not out.exists()


def test_fig2_batch_above_qubit_cap_is_resource_exit(tmp_path, capsys, monkeypatch):
    def allocate(*args):
        raise AssertionError("fig2 simulated a batch above the qubit cap")

    # 2^27 instances of 8 spins would hold 2^35 amplitudes; the cap must stop it first
    monkeypatch.setattr(experiments, "_batched_uncoupled", allocate)
    manifest = write_manifest(tmp_path, {"experiment": "fig2", "params": {"n": 8, "n_seeds": 1 << 27}})
    out = tmp_path / "out"
    assert main(["reproduce", "fig2", "--manifest", manifest, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource cap: ") and "n_seeds=134217728" in err
    assert not out.exists()


def test_round_count_above_hessian_cap_is_resource_exit(tmp_path, capsys, monkeypatch):
    def scan(*args, **kwargs):
        raise AssertionError("the search scanned for a p above the inverse-Hessian cap")

    # p = 100000 would need a dense (200000, 200000) BFGS inverse Hessian; the cap stops it first
    monkeypatch.setattr(optimize, "_grid_scan_p1", scan)
    payload = {"experiment": "solve", "problem": {"family": "ramp", "n": 2}, "p": 100000}
    out = tmp_path / "out"
    assert main(["solve", "--manifest", write_manifest(tmp_path, payload), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource cap: ") and "p=100000" in err
    assert not out.exists()


def test_dense_beyond_qubit_cap_is_resource_exit(tmp_path, capsys):
    payload = {"experiment": "solve", "problem": {"family": "dense", "n": 70, "values": [1.0]}}
    assert main(["solve", "--manifest", write_manifest(tmp_path, payload)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource cap: ") and "n=70" in err


RAMP = {"family": "ramp", "n": 3}
SCHEDULE = {"gammas": [0.1], "betas": [0.2]}


def solve_with(**sections):
    return {"experiment": "solve", "problem": RAMP, "search": {"resolution": [4, 4]}, **sections}


def sample_with(**sections):
    return {"experiment": "sample", "problem": RAMP, **sections}


def dense_with(*values):
    return solve_with(problem={"family": "dense", "n": 1, "values": list(values)})


def terms_with(*terms):
    return solve_with(problem={"family": "terms", "n": 2, "terms": list(terms)})


def custom_edges(*edges):
    return solve_with(mixer={"kind": "custom", "edges": list(edges)})


# the whole manifest binds: the top level against the keys of its experiment,
# every section against the function behind it
BAD_MANIFESTS = {
    "not_an_object": ("solve", [SOLVE_UNCOUPLED]),
    "no_experiment": ("solve", {"problem": RAMP}),
    "solve_without_problem": ("solve", {"experiment": "solve"}),
    "foreign_top_level_key": ("solve", solve_with(shots=100)),
    "params_on_solve": ("solve", solve_with(params={})),
    "schedule_on_solve": ("sample", solve_with(schedule=SCHEDULE)),
    "float_p": ("solve", solve_with(p=1.5)),
    "string_p": ("solve", solve_with(p="2")),
    "bool_p": ("solve", solve_with(p=True)),
    "zero_p_beside_schedule": ("sample", sample_with(p=0, schedule=SCHEDULE)),
    "p_beside_schedule": ("sample", sample_with(p=3, schedule=SCHEDULE)),
    "objective_beside_schedule": (
        "sample", sample_with(objective={"kind": "gibbs"}, schedule=SCHEDULE)
    ),
    "search_beside_schedule": ("sample", sample_with(search={"top_k": 1}, schedule=SCHEDULE)),
    "string_mixer": ("solve", solve_with(mixer="complete")),
    "string_objective": ("solve", solve_with(objective="gibbs")),
    "list_search": ("solve", solve_with(search=[4, 4])),
    "null_mixer": ("solve", solve_with(mixer=None)),
    "negative_grid": ("solve", solve_with(problem={"family": "grid", "rows": -1, "cols": -2})),
    "negative_maxcut_fraction": (
        "solve", solve_with(problem={"family": "maxcut", "n": 4, "fraction": -0.01})
    ),
    "string_dense_values": ("solve", dense_with("0", 1.0)),
    "bool_dense_values": ("solve", dense_with(True, 1.0)),
    "term_without_coeff": ("solve", terms_with({"qubits": [0]})),
    "term_with_foreign_key": ("solve", terms_with({"qubits": [0], "coeff": 1.0, "weight": 2})),
    "term_with_string_coeff": ("solve", terms_with({"qubits": [0], "coeff": "1"})),
    "one_item_edge": ("solve", custom_edges([0, 1], [2])),
    "four_item_edge": ("solve", custom_edges([0, 1, 1.0, 2.0])),
    "mixer_without_kind": ("solve", solve_with(mixer={"b": [1.0, 1.0, 1.0]})),
    "objective_without_kind": ("solve", solve_with(objective={"eta": 5.0})),
    "spike_band_overflow": ("solve", solve_with(problem={"family": "spike", "n": 4, "a": 1e308})),
    "spike_height_overflow": ("solve", solve_with(problem={"family": "spike", "n": 4, "b": 1e308})),
    # an int exponent is raised as a float, never as an unbounded Python int
    "spike_int_exponent_overflow": ("solve", solve_with(problem={"family": "spike", "n": 4, "a": 2000})),
    "one_item_resolution": ("solve", solve_with(search={"resolution": [4]})),
    "three_item_resolution": ("solve", solve_with(search={"resolution": [4, 4, 4]})),
    "search_method": ("solve", solve_with(search={"method": "compass"})),
    "schedule_without_betas": ("sample", sample_with(schedule={"gammas": [0.1]})),
    "schedule_with_foreign_key": ("sample", sample_with(schedule={**SCHEDULE, "p": 1})),
    "string_angles": ("sample", sample_with(schedule={"gammas": ["0.1"], "betas": [0.2]})),
    "scalar_angles": ("sample", sample_with(schedule={"gammas": 0.1, "betas": 0.2})),
    "ragged_schedule": (
        "sample", sample_with(schedule={"gammas": [[0.1, 0.2], [0.3]], "betas": [0.1, 0.2]})
    ),
    "empty_gamma_row": ("sample", sample_with(
        problem={"family": "dense", "n": 1, "values": [0.0, 0.0]},  # no terms, so no row length
        schedule={"gammas": [[]], "betas": [0.1]},
    )),
    "problem_on_fig2": ("reproduce fig2", {"experiment": "fig2", "problem": RAMP}),
    # a zero boost on a radius-0 ball leaves no amplitude to renormalize
    "shadow_zero_boost": ("reproduce shadow", {
        "experiment": "shadow", "params": {"variant": "spike_cut", "boost": 0.0, "radius": 0, "n": 6},
    }),
}


@pytest.mark.parametrize("command,payload", BAD_MANIFESTS.values(), ids=BAD_MANIFESTS.keys())
def test_bad_manifest_is_config_exit(tmp_path, capsys, command, payload):
    out = tmp_path / "out"
    argv = [*command.split(), "--manifest", write_manifest(tmp_path, payload), "--out", str(out)]
    assert main(argv + (["--shots", "3"] if command == "sample" else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert not out.exists()


RAMP_SOLVE = '{"experiment": "solve", "problem": {"family": "ramp", "n": 3}, '
# the loader rejects these numbers before any key is bound, so a key the search
# does not take (tol, gamma_range) exits on its number all the same
NONSTANDARD_JSON = {
    "gibbs_eta_infinity": ("solve", RAMP_SOLVE + '"objective": {"kind": "gibbs", "eta": Infinity}}'),
    "search_tol_nan": ("solve", RAMP_SOLVE + '"search": {"tol": NaN}}'),
    "range_minus_infinity": ("solve", RAMP_SOLVE + '"search": {"gamma_range": [-Infinity, 1.0]}}'),
    "rounding_beta_r_nan": (
        "reproduce rounding", '{"experiment": "rounding", "params": {"beta_r": NaN}}'
    ),
}


@pytest.mark.parametrize("command,text", NONSTANDARD_JSON.values(), ids=NONSTANDARD_JSON.keys())
def test_nonstandard_json_numbers_are_config_exit(tmp_path, capsys, command, text):
    path = tmp_path / "m.json"
    path.write_text(text)
    assert main([*command.split(), "--manifest", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "is not a JSON number" in capsys.readouterr().err


# 1e999 is a valid JSON number that json reads as inf; it is written as raw text,
# since json.dumps(inf) writes Infinity, which the loader rejects on its own
OVERFLOWING_JSON = {
    "hypercube_weight": ("solve", RAMP_SOLVE + '"mixer": {"kind": "hypercube", "b": [1e999, 1, 1]}}'),
    "custom_edge_weight": (
        "solve", RAMP_SOLVE + '"mixer": {"kind": "custom", "edges": [[0, 1, 1e999]]}}'
    ),
    "gibbs_eta": ("solve", RAMP_SOLVE + '"objective": {"kind": "gibbs", "eta": 1e999}}'),
    "negative_cvar_alpha": ("solve", RAMP_SOLVE + '"objective": {"kind": "cvar", "alpha": -1e999}}'),
    "dense_value": (
        "solve", '{"experiment": "solve", "problem": {"family": "dense", "n": 1, "values": [0, 1e999]}}'
    ),
    "scale_j2_list": ("reproduce scale", '{"experiment": "scale", "params": {"j2_list": [1e999]}}'),
    "freedom_j2_list": (
        "reproduce freedom", '{"experiment": "freedom", "params": {"j2_list": [0.5, 1e999]}}'
    ),
    "ce_j2": ("reproduce ce", '{"experiment": "ce", "params": {"j2": 1e999}}'),
    "rounding_beta_r": ("reproduce rounding", '{"experiment": "rounding", "params": {"beta_r": 1e999}}'),
    "shadow_boost": ("reproduce shadow", '{"experiment": "shadow", "params": {"boost": 1e999}}'),
}


@pytest.mark.parametrize("command,text", OVERFLOWING_JSON.values(), ids=OVERFLOWING_JSON.keys())
def test_json_numbers_beyond_a_double_are_config_exit(tmp_path, capsys, command, text):
    assert "Infinity" not in text and "NaN" not in text
    path, out = tmp_path / "m.json", tmp_path / "o"
    path.write_text(text)
    assert main([*command.split(), "--manifest", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "inf" in err and "Traceback" not in err
    assert "finite" in err
    assert not out.exists()


def test_manifest_that_is_not_utf8_is_config_exit(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_bytes('{"experiment": "solve", "note": "caf\xe9"}'.encode("latin-1"))
    assert main(["solve", "--manifest", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_freedom_null_objective_is_mean(tmp_path, capsys):
    # a null objective_cfg means Mean in every pipeline; freedom's default is Gibbs
    params = {"j2_list": [0.6], "seeds": 1, "rows": 2, "cols": 2, "resolution": [6, 6]}
    tags = {}
    for name, extra in (("default", {}), ("null", {"objective_cfg": None})):
        manifest = write_manifest(tmp_path, {"experiment": "freedom", "params": params | extra})
        out = tmp_path / name
        assert main(["reproduce", "freedom", "--manifest", manifest, "--out", str(out)]) == 0
        with open(out / "freedom.csv", newline="") as fh:
            tags[name] = {row["objective"] for row in csv.DictReader(fh)}
    assert tags == {"default": {"gibbs20"}, "null": {"mean"}}


def test_custom_edges_accept_integral_floats():
    want = bound_section("mixer", {"kind": "custom", "edges": [[0, 3], [1, 2]]})(2)
    got = bound_section("mixer", {"kind": "custom", "edges": [[0, 3.0], [1.0, 2]]})(2)
    assert (got.adjacency != want.adjacency).nnz == 0


def test_search_config_errors():
    with pytest.raises(ConfigError):
        bound_section("search", {"stride": 3})
    with pytest.raises(ConfigError):  # compass is the one local method, so no key picks one
        bound_section("search", {"method": "simplex"})
    cfg = bound_section("search", {"resolution": [8, 8]})()
    assert cfg.resolution == (8, 8)


# well-formed values for keys the search does not take: the angle ranges and
# the compass tolerance are module constants, and a search makes no restarts
DROPPED_SEARCH_KEYS = {"gamma_range": [-3.0, 3.0], "beta_range": [0.0, 3.0], "tol": 1e-6, "restarts": 2}


@pytest.mark.parametrize("key, value", DROPPED_SEARCH_KEYS.items(), ids=DROPPED_SEARCH_KEYS)
def test_search_takes_only_the_keys_its_callers_set(tmp_path, capsys, key, value):
    payload = dict(SOLVE_UNCOUPLED, search={"resolution": [8, 8], key: value})
    assert main(["solve", "--manifest", write_manifest(tmp_path, payload)]) == 2
    err = capsys.readouterr().err
    assert "$.search takes resolution, max_iters, top_k" in err and repr(key) in err


def test_each_command_binds_the_manifest_once(tmp_path, capsys, monkeypatch):
    # the commands run what validate_manifest bound: the `values` list is
    # type-checked once per call, and a bad search stops a call before the
    # problem is built
    import qlow.errors
    import qlow.problems

    values = [0.0, 1.0, -1.0, 2.0, 0.5, -0.5, 3.0, 1.5]
    checks, builds = [], []
    fits, from_dense = qlow.errors._fits, qlow.problems.from_dense

    def counting_fits(value, kind):
        if kind == list[float] and isinstance(value, list) and len(value) == len(values):
            checks.append(value)
        return fits(value, kind)

    def counting_from_dense(*args, **kwargs):
        builds.append(args)
        return from_dense(*args, **kwargs)

    monkeypatch.setattr(qlow.errors, "_fits", counting_fits)
    monkeypatch.setattr(qlow.problems, "from_dense", counting_from_dense)
    manifest = {
        "experiment": "solve",
        "problem": {"family": "dense", "n": 3, "values": values},
        "search": {"resolution": [4, 4], "top_k": 1},
    }
    path = write_manifest(tmp_path, manifest)
    for command in (["solve"], ["sample", "--shots", "2"]):
        checks.clear()
        builds.clear()
        assert main([*command, "--manifest", path]) == 0
        assert len(checks) == 1 and len(builds) == 1
    for search in ({"resolution": [4, 4], "stride": 3}, {"resolution": [4, 4], "top_k": 0}):
        builds.clear()
        bad = write_manifest(tmp_path, manifest | {"search": search}, "bad.json")
        assert main(["solve", "--manifest", bad]) == 2
        assert builds == []
        assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize(
    "value, item, fits",
    [
        ([0.5, True, 1.0], float, False),
        ([1, 2, 3], int, True),
        ([1, 2.0, 3], int, False),
        ([1, 2.5, -3], float, True),
        ([0.5, "1.0", 2.0], float, False),
        ([], float, True),
        ([[0.5, 1], [], [2.0]], list[float], True),
        ([[0.5, 1], [False]], list[float], False),
        ([1, None, 2], int | None, True),
        ([1.0, math.inf, 2.0], float, False),
        ([1.0, 2.0, math.nan], float, False),
        ([math.inf, -math.inf], float, False),
        ([1e308, 1e308, -1.0], float, True),  # the sum overflows, each item is finite
        ([1, 10**400], float, False),
        ([1, 10**400], int, True),
        ([[0.5], [1.0, -math.inf]], list[float], False),
    ],
)
def test_fits_checks_a_list_like_each_of_its_items(value, item, fits):
    # a plain item class is checked on one item per distinct type
    assert _fits(value, list[item]) is fits
    assert all(_fits(v, item) for v in value) is fits


DATA = Path(__file__).resolve().parent / "data"


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    # tests import scipy themselves, so only a fresh interpreter shows what qlow loads
    code = (
        "import sys, qlow.cli; "
        "print([m for m in ('scipy.optimize', 'scipy.integrate', 'scipy.sparse.linalg', "
        "'jsonschema') if m in sys.modules])"
    )
    assert run_fresh(["-c", code]).strip() == "[]"


def test_cli_calls_load_no_scipy_and_no_numpy_ma(tmp_path):
    # scipy.sparse cost every qlow process about 0.15 s and 21 MiB at import, and
    # numpy.ma 14 ms at the first flag-less np.unique. A maxcut solve, a ball cut
    # below the eigenbasis cap at p=1 and p=2, a dense sample and a small freedom
    # run need neither.
    ballcut = json.loads((DATA / "ballcut8_solve.json").read_text())
    dense = {
        "experiment": "sample", "problem": {"family": "dense", "n": 2, "values": [0.0, 1.0, -1.0, 2.0]},
        "schedule": {"gammas": [0.3], "betas": [0.4]},
    }
    maxcut = {"experiment": "solve", "problem": {"family": "maxcut", "n": 10, "seed": 3}}
    calls = [
        ["solve", "--manifest", write_manifest(tmp_path, maxcut, "maxcut.json")],
        ["solve", "--manifest", str(DATA / "ballcut8_solve.json")],
        ["solve", "--manifest", write_manifest(tmp_path, dict(ballcut, p=2), "ballcut_p2.json")],
        ["sample", "--manifest", write_manifest(tmp_path, dense, "dense.json"), "--shots", "5"],
        ["reproduce", "freedom", "--manifest", write_manifest(tmp_path, FREEDOM_SMALL, "freedom.json"),
         "--out", str(tmp_path / "freedom")],
    ]
    code = (
        "import sys; import qlow.cli as cli; "
        f"codes = [cli.main(args) for args in {calls!r}]; "
        "print(codes, [m for m in sys.modules if m.startswith('scipy') or m == 'numpy.ma'])"
    )
    assert run_fresh(["-c", code]).strip().splitlines()[-1] == "[0, 0, 0, 0, 0] []"


def test_gradient_searches_leave_scipy_optimize_unloaded(tmp_path):
    # importing scipy.optimize raises a qlow process's RSS by about 25 MiB; the
    # relaxed and p=2 searches refine with the in-repo BFGS, which needs none of it
    runs = [("freedom", FREEDOM_SMALL), ("scale", SCALE_SMALL)]
    calls = [
        ["reproduce", kind, "--manifest", write_manifest(tmp_path, payload, f"{kind}.json"),
         "--out", str(tmp_path / kind)]
        for kind, payload in runs
    ]
    code = (
        "import sys; from qlow.cli import main; "
        f"codes = [main(args) for args in {calls!r}]; "
        "print(codes, 'scipy.optimize' in sys.modules)"
    )
    assert run_fresh(["-c", code]).strip().splitlines()[-1] == "[0, 0] False"


def test_solve_output_does_not_depend_on_blas_threads():
    # at n=16 a plain 2^n-long dot splits across OpenBLAS threads and moves the last bits
    args = ["-m", "qlow.cli", "solve", "--manifest", str(DATA / "maxcut16_solve.json"), "--seed", "1"]
    one, two = (run_fresh(args, OPENBLAS_NUM_THREADS=t) for t in ("1", "2"))
    assert json.loads(one)["n"] == 16
    assert one == two


@pytest.mark.parametrize("name", ["maxcut16", "ballcut8", "fields10", "grid12gibbs"])
def test_solve_prints_the_recorded_bytes(name, capsys):
    # a change that moves any printed digit of a seeded solve fails here; CI cmps the same file
    assert main(["solve", "--manifest", str(DATA / f"{name}_solve.json"), "--seed", "1"]) == 0
    assert capsys.readouterr().out == (DATA / f"{name}_solve.stdout").read_text()


def test_ballcut_data_manifest_solves(capsys):
    # the manifest CI runs through the installed console script
    assert main(["solve", "--manifest", str(DATA / "ballcut8_solve.json"), "--seed", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["n"] == 8 and 0.0 < out["ground_prob"] <= 1.0
