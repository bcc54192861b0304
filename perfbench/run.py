"""qlow benchmark: run one workload through `qlow.cli.main`, check its outputs
and print every metric by name and unit.

    python3 perfbench/run.py --workload solve-maxcut18 --seed 3 --seconds 20 --trace 0

Run from the root of a checkout. Each execution is a fresh interpreter
(worker.py) that imports qlow from the checkout's src and makes the CLI calls
of the workload in-process, one after another, as a single client waiting for
each reply (a closed loop of one). Executions repeat until --seconds have
passed; each end-to-end metric is the median over them. The import time is
also sampled by import-only interpreters until there are at least three
samples. With --trace 1 the run alternates an untraced and a traced execution
instead and reports the per-layer metrics (medians over the traced ones) and
the tracing overhead, traced wall_s minus untraced wall_s.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Everything else a run leaves behind goes to
.perfbench_runs/ in the checkout: inputs, CLI outputs, result.json with the
machine record, and the traced spans.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}
MIN_SETUP_SAMPLES = 3
DEADLINE_S = 170.0


class BenchmarkError(RuntimeError):
    pass


def execute(root: Path, rundir: Path, tag: str, job: dict, deadline: float) -> dict:
    job = dict(job, checkout=str(root), result=str(rundir / f"{tag}.result.json"),
               spans_out=str(rundir / f"{tag}.spans.json.gz"))
    job_path = rundir / f"{tag}.job.json"
    job_path.write_text(json.dumps(job))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("out of time before the next execution")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path)],
                              cwd=rundir, env=env, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"execution {tag} overran the deadline") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"execution {tag} exited with code {proc.returncode}")
    return json.loads(Path(job["result"]).read_text())


def prepare(root: Path, workload: str, seed: int, trace: bool, short: bool,
            references: bool = True) -> tuple[Path, dict]:
    """Write the workload's inputs into a fresh run directory; returns it and
    the job description the worker reads."""
    if not (root / "src" / "qlow" / "cli.py").is_file():
        raise BenchmarkError(f"no qlow sources under {root / 'src'}; run from a checkout root")
    spec = workloads.build(workload, seed, short)
    rundir = root / ".perfbench_runs" / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    for name, manifest in spec["manifests"].items():
        (rundir / name).write_text(json.dumps(manifest))
    return rundir, {"workload": workload, "seed": seed, "short": short,
                    "references": references and not short, "calls": spec["calls"]}


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool,
        short: bool = False) -> dict:
    """Measure one workload; returns the summary that main() prints."""
    deadline = time.monotonic() + DEADLINE_S
    rundir, job = prepare(root, workload, seed, trace, short)
    start = time.monotonic()
    plain, traced = [], []
    while True:
        t0 = time.monotonic()
        plain.append(execute(root, rundir, f"run{len(plain)}", dict(job, trace=False), deadline))
        if trace:
            traced.append(execute(root, rundir, f"traced{len(traced)}", dict(job, trace=True),
                                   deadline))
        took = time.monotonic() - t0
        if time.monotonic() - start + took > seconds:
            break
    setups = [r["setup_s"] for r in plain + traced]
    while len(setups) < MIN_SETUP_SAMPLES and not trace:
        probe = execute(root, rundir, f"setup{len(setups)}", dict(job, trace=False,
                                                                   setup_only=True), deadline)
        setups.append(probe["setup_s"])

    executions = plain + traced
    checks = [c for r in executions for c in r["checks"]]
    failed = [c for c in checks if not c[1]]
    summary = {
        "workload": workload, "seed": seed, "trace": trace, "short": short,
        "executions": len(plain), "traced_executions": len(traced),
        "attempted": len(checks), "failed": len(failed), "failed_checks": failed,
        "values": plain[0]["values"], "machine": plain[0]["machine"],
        "samples": {k: [r[k] for r in plain] for k in ("wall_s", "cpu_s", "peak_rss_mb")},
        "rundir": str(rundir.relative_to(root)),
    }
    summary["samples"]["setup_s"] = setups
    if trace:
        metrics = {k: statistics.median(r["layers"][k] for r in traced)
                   for k in tracing.PER_LAYER if k != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                       - statistics.median(r["wall_s"] for r in plain))
        units = tracing.PER_LAYER
        summary["tails"] = traced[0]["tails"]
    else:
        metrics = {k: statistics.median(v) for k, v in summary["samples"].items()}
        units = END_TO_END
    summary["metrics"] = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    (rundir / "result.json").write_text(json.dumps(summary, indent=1))
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        s = run(Path.cwd(), args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(f"workload {s['workload']} seed {s['seed']}: {s['executions']} executions"
          + (f", {s['traced_executions']} traced" if s["trace"] else "")
          + f"; outputs in {s['rundir']}")
    for name, m in s["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    for name, tail in s.get("tails", {}).items():
        print(f"{name} is p{tail['percentile']:g} of {tail['calls']} calls (first traced execution)")
    print(f"failed_frac {s['failed'] / s['attempted']!r} ratio "
          f"({s['failed']} of {s['attempted']} checks failed)")
    for name, ok, detail in s["failed_checks"]:
        print(f"FAILED {name}: {detail}")
    print("machine " + json.dumps(s["machine"]))
    print(json.dumps({
        "correct": s["failed"] == 0 and s["attempted"] > 0,
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": s["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
