"""Command-line front door: solve single instances, reproduce the shipped
experiment tables, and sample bitstrings, all driven by JSON manifests.

Exit codes: 0 success, 2 config/manifest error, 3 resource cap, 4 numeric
failure. All randomness flows from --seed; when omitted the fixed default
DEFAULT_SEED = 7 is used so runs are reproducible by default, never seeded
from entropy.
"""

from __future__ import annotations

import argparse
import functools
import importlib.resources
import json
import sys
from pathlib import Path

import jsonschema
import numpy as np

from . import _bits, experiments
from .ansatz import Schedule, qaoa_state
from .errors import ConfigError, NumericError, ResourceError
from .laplacians import BallCut, CompleteGraph, WeightedHypercube, custom_from_edges, hypercube
from .optimize import SearchConfig, optimize_schedule
from .problems import (
    bush,
    chain_detuned,
    conflicted_pairs,
    fisher_chain,
    from_dense,
    from_terms,
    grid_ferromagnet_2d,
    hamming_ramp,
    kspin_ferromagnet,
    maxcut_3regular,
    spike,
    uncoupled_spins,
    ZTerm,
)

DEFAULT_SEED = 7

REPRODUCIBLE = ("fig2", "scale", "ce", "freedom", "shadow", "proxy", "rounding")
# Pipelines that run their tasks in-process; they reject --jobs above 1.
SERIAL = ("fig2", "ce", "shadow", "proxy")


@functools.cache
def _validator():
    """The manifest schema's validator, with the schema itself checked once."""
    text = (
        importlib.resources.files("qlow")
        .joinpath("manifests", "schema.json")
        .read_text()
    )
    schema = json.loads(text)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def load_manifest(path: str | Path) -> dict:
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"manifest {path} is not valid JSON: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read manifest {path}: {exc}") from exc
    validate_manifest(manifest)
    return manifest


def validate_manifest(manifest: dict) -> None:
    error = jsonschema.exceptions.best_match(_validator().iter_errors(manifest))
    if error is not None:
        raise ConfigError(
            f"manifest invalid at {error.json_path}: {error.message}"
        ) from error


def problem_from_manifest(spec: dict):
    family = spec.get("family")
    try:
        if family == "ramp":
            return hamming_ramp(spec["n"])
        if family == "uncoupled":
            return uncoupled_spins(spec["n"], spec["dist"], spec.get("seed", 0))
        if family == "chain":
            return chain_detuned(spec["n"], spec.get("j2", 1.0))
        if family == "grid":
            return grid_ferromagnet_2d(spec["rows"], spec["cols"], spec.get("j2", 1.0))
        if family == "maxcut":
            return maxcut_3regular(
                spec["n"], spec.get("fraction", 0.5), spec.get("j2", 1.0),
                spec.get("seed", 0),
            )
        if family == "spike":
            return spike(spec["n"], spec.get("a", 0.0), spec.get("b", 1.0))
        if family == "bush":
            return bush(spec["n"])
        if family == "kspin":
            return kspin_ferromagnet(spec["n"], spec.get("k", 3))
        if family == "conflicted":
            return conflicted_pairs(
                spec["n"], spec.get("epsilon", 0.1), spec.get("delta", 2.2)
            )
        if family == "fisher":
            return fisher_chain(spec["n"], spec.get("seed", 0))
        if family == "dense":
            return from_dense(spec["n"], np.asarray(spec["values"], dtype=np.float64))
        if family == "terms":
            terms = [ZTerm(tuple(t["qubits"]), float(t["coeff"])) for t in spec["terms"]]
            return from_terms(spec["n"], terms)
    except KeyError as exc:
        raise ConfigError(f"problem spec for family {family!r} missing key {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad {family!r} problem spec: {exc}") from exc
    raise ConfigError(f"unknown problem family {family!r}")


def mixer_from_manifest(spec: dict | None, n: int):
    if spec is None:
        return hypercube(n)
    kind = spec.get("kind", "hypercube")
    if kind == "hypercube":
        b = spec.get("b")
        if b is not None and len(b) != n:
            raise ConfigError(f"hypercube mixer has {len(b)} weights b for {n} qubits")
        return hypercube(n) if b is None else WeightedHypercube(tuple(float(x) for x in b))
    if kind == "complete":
        return CompleteGraph(n)
    if kind == "ballcut":
        return BallCut(
            inner=hypercube(n), center=int(spec.get("center", 0)),
            radius=int(spec["radius"]),
        )
    if kind == "custom":
        return custom_from_edges(n, spec["edges"])
    raise ConfigError(f"unknown mixer kind {kind!r}")


def search_from_manifest(spec: dict | None) -> SearchConfig:
    if spec is None:
        return SearchConfig()
    kwargs = dict(spec)
    if "resolution" in kwargs:
        kwargs["resolution"] = tuple(kwargs["resolution"])
    if "gamma_range" in kwargs:
        kwargs["gamma_range"] = tuple(kwargs["gamma_range"])
    if "beta_range" in kwargs:
        kwargs["beta_range"] = tuple(kwargs["beta_range"])
    try:
        return SearchConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad search config: {exc}") from exc


def _search(manifest: dict, problem, lap, seed: int):
    """optimize_schedule with the manifest's objective, search settings and p,
    seeded from --seed; returns (objective, schedule, value)."""
    objective = experiments.objective_from_config(manifest.get("objective"))
    config = search_from_manifest(manifest.get("search"))
    config.seed = seed
    sched, value = optimize_schedule(problem, lap, int(manifest.get("p", 1)), objective, config)
    return objective, sched, value


def cmd_solve(args) -> int:
    manifest = load_manifest(args.manifest)
    if manifest["experiment"] != "solve":
        raise ConfigError("manifest experiment must be 'solve' for the solve command")
    problem = problem_from_manifest(manifest["problem"])
    lap = mixer_from_manifest(manifest.get("mixer"), problem.n)
    objective, sched, value = _search(manifest, problem, lap, args.seed)
    p = int(manifest.get("p", 1))
    state = qaoa_state(problem, lap, sched)
    mean, ground_prob, ratio = experiments._measure(problem, state)
    argmax = int(np.argmax(state.probabilities()))
    out = {
        "gammas": sched.gammas.tolist(),
        "betas": sched.betas.tolist(),
        "objective": experiments.objective_tag(objective),
        "value": value,
        "mean": mean,
        "ground_prob": ground_prob,
        "approx_ratio": ratio,
        "ratio_flag": None if ratio is not None else "undefined-constant-problem",
        "argmax_bitstring": _bits.bitstring(argmax, problem.n),
        "argmax_value": float(problem.dense[argmax]),
        "n": problem.n,
        "p": p,
        "seed": args.seed,
    }
    print(json.dumps(out, indent=2))
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        with open(Path(args.out) / "solve.json", "w") as fh:
            json.dump(out, fh, indent=2)
    return 0


def _default_manifest(experiment: str) -> dict:
    text = (
        importlib.resources.files("qlow")
        .joinpath("manifests", f"{experiment}.json")
        .read_text()
    )
    manifest = json.loads(text)
    validate_manifest(manifest)
    return manifest


def _run_experiment(experiment: str, params: dict, seed: int, jobs: int):
    params = dict(params)
    if experiment == "fig2":
        records, _ = experiments.run_fig2_table(seed=seed, **params)
        return {"fig2.csv": records}
    if experiment == "scale":
        records = experiments.run_scale_sweep(master_seed=seed, jobs=jobs, **params)
        return {"scale.csv": records}
    if experiment == "ce":
        records = experiments.run_ce_baseline(master_seed=seed, **params)
        return {"ce.csv": records}
    if experiment == "freedom":
        records = experiments.run_relaxation_compare(master_seed=seed, jobs=jobs, **params)
        return {"freedom.csv": records}
    if experiment == "shadow":
        variant = params.pop("variant", "both")
        flat_keys = {"ns", "resolution"}
        cut_keys = {
            "n", "radius", "boost", "spike_weight", "spike_height",
            "search_resolution",
        }
        records = []
        if variant in ("flat", "both"):
            kw = {k: v for k, v in params.items() if k in flat_keys}
            recs, _ = experiments.run_shadow_defect(
                variant="flat", master_seed=seed, **kw
            )
            records.extend(recs)
        if variant in ("spike_cut", "both"):
            kw = {k: v for k, v in params.items() if k in cut_keys}
            recs, _ = experiments.run_shadow_defect(
                variant="spike_cut", master_seed=seed, **kw
            )
            records.extend(recs)
        return {"shadow.csv": records}
    if experiment == "proxy":
        records, _ = experiments.run_improvement_proxy(master_seed=seed, **params)
        return {"proxy.csv": records}
    if experiment == "rounding":
        records = experiments.run_rounding_curve(master_seed=seed, jobs=jobs, **params)
        by_j2: dict[float, list] = {}
        for r in records:
            by_j2.setdefault(r.j2, []).append(r)
        return {
            f"rounding_j2_{j2:g}.csv": recs for j2, recs in sorted(by_j2.items())
        }
    raise ConfigError(f"unknown experiment id {experiment!r}")


def cmd_reproduce(args) -> int:
    if args.id not in REPRODUCIBLE:
        raise ConfigError(
            f"unknown figure id {args.id!r}; choose from {', '.join(REPRODUCIBLE)}"
        )
    if args.jobs > 1 and args.id in SERIAL:
        raise ConfigError(
            f"reproduce {args.id} runs serially; --jobs must be 1, got {args.jobs}"
        )
    manifest = load_manifest(args.manifest) if args.manifest else _default_manifest(args.id)
    if manifest["experiment"] != args.id:
        raise ConfigError(
            f"manifest experiment {manifest['experiment']!r} does not match id {args.id!r}"
        )
    outputs = _run_experiment(args.id, manifest.get("params", {}), args.seed, args.jobs)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, records in outputs.items():
        path = out_dir / name
        experiments.write_records(records, path)
        print(path)
    return 0


def cmd_sample(args) -> int:
    manifest = load_manifest(args.manifest)
    if manifest["experiment"] not in ("sample", "solve"):
        raise ConfigError("manifest experiment must be 'sample' (or 'solve') here")
    if args.shots < 0:
        raise ConfigError("shots must be >= 0")
    problem = problem_from_manifest(manifest["problem"])
    lap = mixer_from_manifest(manifest.get("mixer"), problem.n)
    if "schedule" in manifest:
        sched = Schedule(
            np.asarray(manifest["schedule"]["gammas"], dtype=np.float64),
            np.asarray(manifest["schedule"]["betas"], dtype=np.float64),
        )
    else:
        _, sched, _ = _search(manifest, problem, lap, args.seed)
    state = qaoa_state(problem, lap, sched)
    probs = state.probabilities()
    rng = np.random.default_rng(args.seed)
    lines = []
    if args.shots > 0:
        draws = rng.choice(probs.size, size=args.shots, p=probs)
        lines = [
            f"{_bits.bitstring(int(z), problem.n)},{problem.dense[int(z)]:.10g}"
            for z in draws
        ]
    for line in lines:
        print(line)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "samples.csv").write_text(
            "\n".join(["bitstring,value"] + lines) + "\n"
        )
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlow",
        description="Simulation laboratory for low-depth quantum optimization "
        "mechanisms on diagonal cost functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--seed", type=int, default=DEFAULT_SEED,
            help=f"master seed for all randomness (default {DEFAULT_SEED}, never entropy)",
        )
        p.add_argument("--out", default=None, help="output directory")

    p_solve = sub.add_parser("solve", help="optimize one instance from a manifest")
    p_solve.add_argument("--manifest", required=True)
    common(p_solve)
    p_solve.set_defaults(fn=cmd_solve)

    p_rep = sub.add_parser("reproduce", help="regenerate a named table/figure CSV")
    p_rep.add_argument("id", choices=REPRODUCIBLE)
    p_rep.add_argument("--manifest", default=None, help="override the shipped manifest")
    p_rep.add_argument("--jobs", type=_positive_int, default=1, help="worker processes (>= 1)")
    common(p_rep)
    p_rep.set_defaults(fn=cmd_reproduce)

    p_sam = sub.add_parser("sample", help="draw bitstring samples from a solved state")
    p_sam.add_argument("--manifest", required=True)
    p_sam.add_argument("--shots", type=int, required=True)
    common(p_sam)
    p_sam.set_defaults(fn=cmd_sample)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "reproduce" and args.out is None:
        args.out = "out"
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
