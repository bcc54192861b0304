"""Record the reference objective values the checks compare against.

    python3 perfbench/make_references.py     # from the root of a checkout

Runs every pooled instance once and writes references.json next to this
file. The shipped file was made at the commit that introduced the benchmark;
remake it only on purpose, since later versions are checked against it.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import run
import workloads


def main() -> int:
    root = Path.cwd()
    refs = {}
    for name, seeds in (("solve-maxcut18", range(workloads.POOL)),
                        ("ballcut-ramp12", range(workloads.POOL)),
                        ("relax-grid12", [0])):
        refs[name] = {}
        for seed in seeds:
            rundir, job = run.prepare(root, name, seed, trace=False, short=False,
                                      references=False)
            result = run.execute(root, rundir, "reference", dict(job, trace=False),
                                  time.monotonic() + run.DEADLINE_S)
            failed = [c for c in result["checks"] if not c[1]]
            if failed:
                raise SystemExit(f"{name} seed {seed}: checks failed: {failed}")
            refs[name].update(result["values"])
            print(name, seed, result["values"], flush=True)
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
