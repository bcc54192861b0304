import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from qlow.cli import (
    DEFAULT_SEED,
    REPRODUCIBLE,
    _default_manifest,
    main,
    mixer_from_manifest,
    problem_from_manifest,
    search_from_manifest,
    validate_manifest,
)
from qlow.errors import ConfigError, NumericError
from qlow.laplacians import BallCut, CompleteGraph, CustomSparse, WeightedHypercube


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
    # restarts are seeded from --seed; a seed under "search" would be ignored
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


@pytest.mark.parametrize("fig_id", ["fig2", "shadow"])
def test_reproduce_shipped_manifest_matches_golden_csv(tmp_path, capsys, fig_id):
    # tests/data holds columns 1-11 of these runs; a change that moves a CSV
    # value must update them on purpose. Text and empty cells must match
    # exactly, numbers to 1e-9 relative; the 1e-12 absolute floor only covers
    # the scan-gamma-rows values of shadow, the rounding residue (~1e-15) of a
    # quantity that is exactly zero.
    assert main(["reproduce", fig_id, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    got = first_eleven_columns(tmp_path / f"{fig_id}.csv")
    want = first_eleven_columns(GOLDEN / f"{fig_id}.csv")
    assert got[0] == want[0] and len(got) == len(want)
    for row, ref in zip(got[1:], want[1:]):
        for column, cell, expected in zip(want[0], row, ref):
            if column in TEXT_COLUMNS or not expected:
                assert cell == expected, (column, row)
            else:
                assert math.isclose(
                    float(cell), float(expected), rel_tol=1e-9, abs_tol=1e-12
                ), (column, row)


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


@pytest.mark.parametrize("spec,n", FAMILY_SPECS)
def test_problem_family_coverage(spec, n):
    validate_manifest({"experiment": "solve", "problem": spec})
    prob = problem_from_manifest(spec)
    assert prob.n == n
    assert prob.dense.size == 1 << n


def test_problem_spec_errors():
    with pytest.raises(ConfigError):
        problem_from_manifest({"family": "mystery"})
    with pytest.raises(ConfigError):
        problem_from_manifest({"family": "ramp"})  # missing n


def test_mixer_coverage():
    assert isinstance(mixer_from_manifest(None, 3), WeightedHypercube)
    weighted = mixer_from_manifest({"kind": "hypercube", "b": [1.0, 0.0, 2.0]}, 3)
    assert weighted.b == (1.0, 0.0, 2.0)
    assert isinstance(mixer_from_manifest({"kind": "complete"}, 3), CompleteGraph)
    cut = mixer_from_manifest({"kind": "ballcut", "radius": 2}, 4)
    assert isinstance(cut, BallCut) and cut.radius == 2 and cut.center == 0
    custom = mixer_from_manifest(
        {"kind": "custom", "edges": [[0, 1], [1, 2, 0.5]]}, 2
    )
    assert isinstance(custom, CustomSparse)
    with pytest.raises(ConfigError):
        mixer_from_manifest({"kind": "torus"}, 3)


def terms_on(*qubits):
    term = {"qubits": list(qubits), "coeff": 1.0}
    return {"problem": {"family": "terms", "n": 3, "terms": [term]}}


BAD_INPUT = {
    "qubit_beyond_n": terms_on(5),
    "qubit_70": terms_on(70),
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
}


@pytest.mark.parametrize("spec", BAD_INPUT.values(), ids=BAD_INPUT.keys())
def test_bad_problem_and_mixer_input_is_config_exit(tmp_path, capsys, spec):
    payload = {"experiment": "solve", "search": {"resolution": [4, 4], "top_k": 1}, **spec}
    assert main(["solve", "--manifest", write_manifest(tmp_path, payload)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err


def test_search_config_errors():
    with pytest.raises(ConfigError):
        search_from_manifest({"stride": 3})
    cfg = search_from_manifest({"resolution": [8, 8], "method": "simplex"})
    assert cfg.resolution == (8, 8) and cfg.method == "simplex"
