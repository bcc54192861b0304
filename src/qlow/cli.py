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
from pathlib import Path

import numpy as np
from numpy.random import default_rng

from . import _bits, experiments
from .ansatz import Schedule, qaoa_state
from .errors import ConfigError, NumericError, ResourceError, bind, bind_choice
from .laplacians import MIXERS
from .objectives import OBJECTIVES
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


def _not_a_number(name: str):
    raise ValueError(f"{name} is not a JSON number")


def load_manifest(path: str | Path, accepts: tuple | None = None, wrong: str = "") -> dict:
    """The manifest at path as validate_manifest binds it. An experiment not in
    accepts (when given) is a ConfigError: wrong, formatted with the experiment."""
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh, parse_constant=_not_a_number)
    except ValueError as exc:  # a JSONDecodeError, a UnicodeDecodeError, or NaN/Infinity
        raise ConfigError(f"manifest {path} is not valid JSON: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read manifest {path}: {exc}") from exc
    bound = validate_manifest(manifest)
    if accepts is not None and bound["experiment"] not in accepts:
        raise ConfigError(wrong.format(bound["experiment"]))
    return bound


# The top level of each kind of manifest, as a signature to bind against. A
# None default marks an optional section; JSON null fits no dict.
def _solve_keys(problem: dict, mixer: dict = None, p: int = 1, objective: dict = None,
                search: dict = None): ...


def _sample_keys(problem: dict, mixer: dict = None, p: int = 1, objective: dict = None,
                 search: dict = None, schedule: dict = None): ...


def _reproduce_keys(params: dict = None): ...


MANIFESTS = {"solve": _solve_keys, "sample": _sample_keys} | dict.fromkeys(PIPELINES, _reproduce_keys)

# Each section bound to the function behind it, not yet called. A left-out
# section (None) takes its default; a left-out schedule stays None.
SECTIONS = {
    "problem": lambda spec: bind_choice("$.problem", PROBLEMS, spec, "family"),
    "mixer": lambda spec: bind_choice("$.mixer", MIXERS, spec, "kind", "hypercube", fixed=("n",)),
    "objective": lambda spec: bind_choice("$.objective", OBJECTIVES, spec, "kind", "mean"),
    "search": lambda spec: bind(SearchConfig, spec or {}, "$.search"),
    "schedule": lambda spec: spec if spec is None else bind(Schedule, spec, "$.schedule"),
}


def validate_manifest(manifest) -> dict:
    """Bind every section of manifest and build nothing: a bad one fails before
    any work. Returns the experiment, p, each section of its kind of manifest
    as SECTIONS binds it, and params bound against the runner."""
    if not isinstance(manifest, dict):
        raise ConfigError(f"$ must be an object, got {manifest!r:.60}")
    top = bind_choice("$", MANIFESTS, manifest, "experiment")
    if top.keywords.get("p", 1) < 1:
        raise ConfigError(f"$ key 'p' must be >= 1, got {top.keywords['p']}")
    unused = sorted({"p", "objective", "search"} & top.keywords.keys())
    if "schedule" in top.keywords and unused:
        raise ConfigError(f"$ key 'schedule' fixes the angles, so {', '.join(unused)} must go")
    sections = inspect.signature(top.func).bind(**top.keywords)
    sections.apply_defaults()
    bound = {"experiment": manifest["experiment"]}
    for key, spec in sections.arguments.items():
        if key == "params":
            spec = bind(PIPELINES[bound["experiment"]], spec or {}, "$.params", RESERVED_PARAMS)
        elif key != "p":
            spec = SECTIONS[key](spec)
        bound[key] = spec
    return bound


def _run(bound: dict):
    """(problem, mixer, objective, schedule, value) of a bound solve or sample
    manifest: its schedule if it has one (value None), or else the one that
    optimize_schedule finds with its objective, search and p."""
    sched = bound["schedule"]() if bound.get("schedule") else None
    objective, config = bound["objective"](), bound["search"]()
    build = bound["problem"]
    try:
        problem = build()
    except ValueError as exc:
        family = next(name for name, fn in PROBLEMS.items() if fn is build.func)
        raise ConfigError(f"bad {family!r} problem spec: {exc}") from exc
    lap, value = bound["mixer"](problem.n), None
    if sched is None:
        sched, value = optimize_schedule(problem, lap, bound["p"], objective, config)
    return problem, lap, objective, sched, value


def cmd_solve(args) -> int:
    wrong = "manifest experiment must be 'solve' for the solve command"
    bound = load_manifest(args.manifest, ("solve",), wrong)
    problem, lap, objective, sched, value = _run(bound)
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
    return load_manifest(importlib.resources.files("qlow") / "manifests" / f"{experiment}.json")


def bind_pipeline(fig_id: str, run: functools.partial, seed: int, jobs: int):
    """run, the runner of `reproduce fig_id` with its params bound, with seed and
    jobs bound too. --jobs above 1 for a runner that works in one process is a
    ConfigError."""
    names = inspect.signature(PIPELINES[fig_id]).parameters
    if jobs > 1 and "jobs" not in names:
        raise ConfigError(f"reproduce {fig_id} runs serially; --jobs must be 1, got {jobs}")
    kwargs = {"seed" if "seed" in names else "master_seed": seed}
    if "jobs" in names:
        kwargs["jobs"] = jobs
    return functools.partial(run, **kwargs)


def cmd_reproduce(args) -> int:
    wrong = f"manifest experiment {{!r}} does not match id {args.id!r}"
    bound = (load_manifest(args.manifest, (args.id,), wrong) if args.manifest
             else _default_manifest(args.id))
    result = bind_pipeline(args.id, bound["params"], args.seed, args.jobs)()
    # fig2, shadow and proxy also return a details dict, which no CSV holds
    records = result[0] if isinstance(result, tuple) else result
    if not records:
        raise ConfigError(f"reproduce {args.id} produced no rows; its params leave no work to do")
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
    wrong = "manifest experiment must be 'sample' (or 'solve') here"
    bound = load_manifest(args.manifest, ("sample", "solve"), wrong)
    if args.shots < 0:
        raise ConfigError("shots must be >= 0")
    problem, lap, _, sched, _ = _run(bound)
    state = qaoa_state(problem, lap, sched)
    probs = state.probabilities()
    rng = default_rng(args.seed)
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
        (out_dir / "samples.csv").write_text("\n".join(["bitstring,value"] + lines) + "\n")
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
