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
import inspect
import json
import sys
import types
import typing
from pathlib import Path

import jsonschema
import numpy as np

from . import _bits, experiments
from .ansatz import Schedule, qaoa_state
from .errors import ConfigError, NumericError, ResourceError
from .laplacians import MIXERS
from .optimize import SearchConfig, optimize_schedule
from .problems import PROBLEMS

DEFAULT_SEED = 7

# The runner behind each `reproduce` id. The manifest's params are its keyword
# arguments; --seed fills its master seed (`seed` for fig2, `master_seed` for
# the others) and --jobs its `jobs`, if it takes one.
PIPELINES = {
    "fig2": experiments.run_fig2_table,
    "scale": experiments.run_scale_sweep,
    "ce": experiments.run_ce_baseline,
    "freedom": experiments.run_relaxation_compare,
    "shadow": experiments.run_shadow_defect,
    "proxy": experiments.run_improvement_proxy,
    "rounding": experiments.run_rounding_curve,
}
REPRODUCIBLE = tuple(PIPELINES)
RESERVED_PARAMS = ("seed", "master_seed", "jobs")


def _packaged_json(name: str) -> dict:
    """A JSON file shipped in qlow/manifests."""
    return json.loads(importlib.resources.files("qlow").joinpath("manifests", name).read_text())


@functools.cache
def _validator():
    """The manifest schema's validator, with the schema itself checked once."""
    schema = _packaged_json("schema.json")
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


def _fits(value, kind) -> bool:
    """Whether a JSON value fits the annotation kind: an int (not a bool) for
    int, any number for float, a list or tuple of fitting items for a generic
    sequence, a fit to one member for a union."""
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is types.UnionType:
        return any(_fits(value, member) for member in args)
    if origin is not None:
        return isinstance(value, (list, tuple)) and all(_fits(v, args[0]) for v in value)
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def bind(fn, spec: dict, what: str, fixed=()) -> functools.partial:
    """fn with the keys of spec bound as its keyword arguments.

    A key that fn does not take or that is in `fixed` (the caller supplies those), a
    parameter with no default that spec leaves out, and a value that does not
    fit the parameter's annotation are ConfigErrors.
    """
    sig = inspect.signature(fn, eval_str=True).parameters
    params = {k: param for k, param in sig.items() if k not in fixed}
    unknown = sorted(set(spec) - set(params))
    if unknown:
        raise ConfigError(
            f"{what} takes no key {', '.join(unknown)}; it takes {', '.join(params) or 'none'}"
        )
    missing = [k for k, param in params.items() if param.default is param.empty and k not in spec]
    if missing:
        raise ConfigError(f"{what} is missing key {missing[0]!r}")
    for k, value in spec.items():
        kind = params[k].annotation
        if not _fits(value, kind):
            shown = inspect.formatannotation(kind)
            raise ConfigError(f"{what} key {k} must be {shown}, got {value!r}")
    return functools.partial(fn, **spec)


def bind_choice(section: str, table: dict, spec: dict, key: str, default=None, fixed=()):
    """bind for the entry of table that spec[key] names (default when spec has
    no key), on the other keys of spec; a name not in table is a ConfigError."""
    rest = dict(spec)
    choice = rest.pop(key, default)
    if not isinstance(choice, str) or choice not in table:
        raise ConfigError(f"unknown {section} {key} {choice!r}; known: {', '.join(table)}")
    return bind(table[choice], rest, f"{choice} {section}", fixed)


def problem_from_manifest(spec: dict):
    build = bind_choice("problem", PROBLEMS, spec, "family")
    try:
        return build()
    except ValueError as exc:
        raise ConfigError(f"bad {spec['family']!r} problem spec: {exc}") from exc


def mixer_from_manifest(spec: dict | None, n: int):
    return bind_choice("mixer", MIXERS, spec or {}, "kind", "hypercube", fixed=("n",))(n)


def search_from_manifest(spec: dict | None) -> SearchConfig:
    # JSON has no tuples: the ranges and the resolution arrive as lists
    kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in (spec or {}).items()}
    return bind(SearchConfig, kwargs, "search")()


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
        "p": sched.rounds,
        "seed": args.seed,
    }
    print(json.dumps(out, indent=2))
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        with open(Path(args.out) / "solve.json", "w") as fh:
            json.dump(out, fh, indent=2)
    return 0


def _default_manifest(experiment: str) -> dict:
    manifest = _packaged_json(f"{experiment}.json")
    validate_manifest(manifest)
    return manifest


def bind_pipeline(fig_id: str, params: dict, seed: int, jobs: int):
    """The runner of `reproduce fig_id` with params, seed and jobs bound.

    params bind as by bind: a seed or jobs set inside params is a key the
    runner does not take. --jobs above 1 for a runner that works in one
    process is a ConfigError too.
    """
    runner = PIPELINES[fig_id]
    names = inspect.signature(runner).parameters
    if jobs > 1 and "jobs" not in names:
        raise ConfigError(f"reproduce {fig_id} runs serially; --jobs must be 1, got {jobs}")
    kwargs = {"seed" if "seed" in names else "master_seed": seed}
    if "jobs" in names:
        kwargs["jobs"] = jobs
    run = bind(runner, params, f"reproduce {fig_id}", RESERVED_PARAMS)
    return functools.partial(run, **kwargs)


def cmd_reproduce(args) -> int:
    manifest = load_manifest(args.manifest) if args.manifest else _default_manifest(args.id)
    if manifest["experiment"] != args.id:
        raise ConfigError(
            f"manifest experiment {manifest['experiment']!r} does not match id {args.id!r}"
        )
    result = bind_pipeline(args.id, manifest.get("params", {}), args.seed, args.jobs)()
    # fig2, shadow and proxy also return a details dict, which no CSV holds
    records = result[0] if isinstance(result, tuple) else result
    if not records:
        raise ConfigError(
            f"reproduce {args.id} produced no rows; its params leave no work to do"
        )
    files = {f"{args.id}.csv": records}
    if args.id == "rounding":  # one file per J2
        j2s = sorted({r.j2 for r in records})
        files = {f"rounding_j2_{j2:g}.csv": [r for r in records if r.j2 == j2] for j2 in j2s}
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, recs in files.items():
        path = out_dir / name
        experiments.write_records(recs, path)
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
        sched = Schedule(**manifest["schedule"])
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
