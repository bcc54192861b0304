"""One execution of a workload in a fresh interpreter, as a user's CLI call.

Usage: python3 worker.py JOB.json   (run with the checkout's src on PYTHONPATH;
run.py prepares the job). It times the import of qlow.cli, then the CLI calls
from the first cli.main call to the last return, reads its own CPU time and
peak resident memory, checks the outputs and writes RESULT.json.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "GOTO_NUM_THREADS", "OMP_PROC_BIND", "OMP_WAIT_POLICY")


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine() -> dict:
    import numpy as np
    import scipy

    info = {"cpu_model": platform.processor() or None, "nproc": len(os.sched_getaffinity(0))}
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction" and level in ("2", "3"):
                info[f"L{level}"] = (index / "size").read_text().strip()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info.update({
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    })
    return info


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    t0 = time.perf_counter()
    import qlow.cli as cli
    setup_s = time.perf_counter() - t0
    src = Path(job["checkout"], "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"qlow imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    if not job.get("setup_only"):
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import tracing
        import workloads

        tracer = None
        if job["trace"]:
            tracer = tracing.Tracer()
            tracing.install(tracer)
        outputs = []
        cpu0 = _cpu_seconds()
        w0 = time.perf_counter()
        for argv in job["calls"]:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                try:
                    if tracer is None:
                        rc = cli.main(argv)
                    else:
                        rc = tracer.call("cli.main", cli.main, (argv,), {})
                except Exception as exc:  # a failed call is a failed check, not a crash
                    rc = f"{type(exc).__name__}: {exc}"
            outputs.append((rc, buf.getvalue()))
        wall = time.perf_counter() - w0
        cpu = _cpu_seconds() - cpu0
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            # Before the checks, whose own qlow calls would add spans.
            result["layers"], result["tails"] = tracing.layer_metrics(tracer)
            tracer.write(job["spans_out"])
        refs = workloads.load_references() if job["references"] else None
        checks, values = workloads.check(job["workload"], job["seed"], job["short"],
                                         outputs, Path.cwd(), refs)
        result.update({
            "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_kb / 1024.0,
            "checks": checks, "values": values, "machine": machine(),
        })
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
