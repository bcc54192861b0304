"""Self-test of the benchmark: run every workload, shortened and traced, twice
and require each count to repeat exactly. Times are not compared.

    python3 perfbench/selftest.py      # from the root of a checkout; about a minute

Also checks that BENCHMARK.json names exactly the metrics run.py prints and
that every check passes. Exits 0 when all holds, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run
import tracing
import workloads


def main() -> int:
    root = Path.cwd()
    problems = []
    declared = json.loads((root / "BENCHMARK.json").read_text())
    for key, names in (("end_to_end", run.END_TO_END), ("per_layer", tracing.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in declared[key]}
        if listed != names:
            problems.append(f"BENCHMARK.json {key} differs from the metrics run.py prints")
    if [w["name"] for w in declared["workloads"]] != list(workloads.NAMES):
        problems.append("BENCHMARK.json workloads differ from workloads.NAMES")
    for name in workloads.NAMES:
        first, second = (run.run(root, name, seed=5, seconds=0, trace=True, short=True)
                         for _ in range(2))
        for s in (first, second):
            if s["failed"] or not s["attempted"]:
                problems.append(f"{name}: {s['failed']} of {s['attempted']} checks failed: "
                                f"{s['failed_checks']}")
        for key in tracing.COUNTS:
            a, b = first["metrics"][key]["value"], second["metrics"][key]["value"]
            if a != b:
                problems.append(f"{name}: count {key} was {a} then {b}")
        nonzero = sum(first["metrics"][k]["value"] > 0 for k in tracing.COUNTS)
        print(f"{name}: compared {len(tracing.COUNTS)} counts, {nonzero} of them nonzero")
    for p in problems:
        print("PROBLEM", p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
