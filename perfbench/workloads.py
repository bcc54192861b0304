"""The benchmark's four workloads: the inputs each one makes from a seed, and
the checks that judge the program's printed outputs.

Every check recomputes what it compares against by a route the program did
not take (its own statevector, the term list instead of the dense table,
expm_multiply instead of an eigendecomposition, the sampled table itself), so
a broken kernel cannot agree with itself. Reference objective values were
recorded at the commit that introduced the benchmark (references.json, made
by make_references.py); a later version may do better, never worse.

Seeds are mapped onto POOL instances (instance = seed % POOL) wherever a
reference value is needed, so every seed has one.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

POOL = 16
NAMES = ("solve-maxcut18", "relax-grid12", "ballcut-ramp12", "sample-dense14")
REFERENCES = Path(__file__).with_name("references.json")
SAMPLE_CALLS = 3
SHOTS = 1000


def build(name: str, seed: int, short: bool = False) -> dict:
    """Manifests (file name -> JSON document) and CLI argument lists.

    `short` shrinks the sizes for the self-test; it keeps every layer the
    full workload enters.
    """
    if name == "solve-maxcut18":
        res, iters = (3, 1) if short else (7, 6)
        manifest = {
            "experiment": "solve",
            "problem": {"family": "maxcut", "n": 18, "seed": seed % POOL},
            "p": 1,
            "objective": {"kind": "mean"},
            "search": {"resolution": [res, res], "top_k": 1, "max_iters": iters},
        }
        return _solve(manifest, seed)
    if name == "ballcut-ramp12":
        n, radius = (8, 3) if short else (12, 6)
        res, iters = (3, 1) if short else (12, 8)
        manifest = {
            "experiment": "solve",
            "problem": {"family": "ramp", "n": n},
            "p": 1,
            "mixer": {"kind": "ballcut", "center": ball_center(seed, n), "radius": radius},
            "objective": {"kind": "mean"},
            "search": {"resolution": [res, res], "top_k": 1, "max_iters": iters},
        }
        return _solve(manifest, seed)
    if name == "relax-grid12":
        rows, cols, res = (2, 3, 4) if short else (3, 4, 48)
        manifest = {
            "experiment": "freedom",
            "params": {
                "j2_list": [0.6],
                "seeds": 20,
                "rows": rows,
                "cols": cols,
                "objective_cfg": {"kind": "gibbs", "eta": 20.0},
                "resolution": [res, res],
            },
        }
        return {
            "manifests": {"freedom.json": manifest},
            "calls": [["reproduce", "freedom", "--manifest", "freedom.json",
                       "--seed", str(seed), "--out", "out"]],
        }
    if name == "sample-dense14":
        manifests, calls = {}, []
        for i in range(1 if short else SAMPLE_CALLS):
            values, gammas, betas = sample_instance(seed, i, 10 if short else 14)
            fname = f"sample{i}.json"
            manifests[fname] = {
                "experiment": "sample",
                "problem": {"family": "dense", "n": int(np.log2(values.size)),
                            "values": values.tolist()},
                "schedule": {"gammas": gammas.tolist(), "betas": betas.tolist()},
            }
            calls.append(["sample", "--manifest", fname, "--shots", str(SHOTS),
                          "--seed", str(seed)])
        return {"manifests": manifests, "calls": calls}
    raise ValueError(f"unknown workload {name!r}")


def _solve(manifest: dict, seed: int) -> dict:
    return {
        "manifests": {"solve.json": manifest},
        "calls": [["solve", "--manifest", "solve.json", "--seed", str(seed)]],
    }


def ball_center(seed: int, n: int) -> int:
    return int(np.random.default_rng([seed % POOL, n]).integers(1 << n))


def sample_instance(seed: int, index: int, n: int):
    """A random dense table and an explicit two-round schedule."""
    rng = np.random.default_rng([seed, index, n])
    values = rng.normal(size=1 << n)
    gammas = rng.uniform(-0.6, 0.6, size=2)
    betas = rng.uniform(0.1, 1.4, size=2)
    return values, gammas, betas


# ---------------------------------------------------------------------------
# an independent statevector: own bit arithmetic, own mixer


def _popcount(z: np.ndarray) -> np.ndarray:
    out = np.zeros(z.shape, dtype=np.int64)
    v = z.astype(np.int64)
    while np.any(v):
        out += v & 1
        v = v >> 1
    return out


def _z_product(n: int, qubits) -> np.ndarray:
    """Eigenvalues of prod_{q in qubits} Z_q on every basis index."""
    z = np.arange(1 << n)
    par = np.zeros(1 << n, dtype=np.int64)
    for q in qubits:
        par ^= (z >> q) & 1
    return 1.0 - 2.0 * par


def _x_mixer(amps: np.ndarray, n: int, beta: float) -> np.ndarray:
    """prod_i exp(-i beta X_i), one 2x2 contraction per tensor axis."""
    u = np.array([[np.cos(beta), -1j * np.sin(beta)], [-1j * np.sin(beta), np.cos(beta)]])
    t = amps.reshape((2,) * n)
    for axis in range(n):
        t = np.moveaxis(np.tensordot(u, t, axes=([1], [axis])), 0, axis)
    return t.reshape(-1)


def _qaoa(n: int, values: np.ndarray, gammas, betas) -> np.ndarray:
    amps = np.full(1 << n, 2.0 ** (-n / 2), dtype=np.complex128)
    for g, b in zip(gammas, betas):
        amps = _x_mixer(amps * np.exp(-1j * g * values), n, b)
    return amps


def _ball_evolve(n: int, values, center: int, radius: int, gamma: float, beta: float):
    """One phase round, then exp(+i beta L) on the Hamming ball via expm_multiply."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import expm_multiply

    z = np.arange(1 << n)
    ball = np.flatnonzero(_popcount(z ^ center) <= radius)
    pos = np.full(1 << n, -1)
    pos[ball] = np.arange(ball.size)
    rows, cols = [], []
    for i in range(n):
        nb = pos[ball ^ (1 << i)]
        inside = nb >= 0
        rows.append(np.flatnonzero(inside))
        cols.append(nb[inside])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    adj = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(ball.size, ball.size))
    lap = sp.diags(np.asarray(adj.sum(axis=1)).ravel()) - adj
    amps = np.full(1 << n, 2.0 ** (-n / 2), dtype=np.complex128) * np.exp(-1j * gamma * values)
    amps[ball] = expm_multiply(1j * beta * lap.astype(np.complex128), amps[ball])
    return amps


# ---------------------------------------------------------------------------
# checks


def _close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _no_worse(value: float, ref: float) -> bool:
    return value <= ref + 1e-9 * max(1.0, abs(ref))


def load_references() -> dict:
    return json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}


def check(name: str, seed: int, short: bool, outputs: list, workdir: Path,
          refs: dict | None) -> tuple[list, dict]:
    """Judge one execution. outputs: (exit code, stdout) per CLI call.

    Returns ([(check name, passed, detail)], {objective values by key}).
    refs=None skips the reference comparison (short mode, making references).
    """
    checks = [(f"exit[{i}]", rc == 0, f"exit code {rc}") for i, (rc, _) in enumerate(outputs)]
    if any(rc != 0 for rc, _ in outputs):
        return checks, {}
    spec = build(name, seed, short)
    refs = None if refs is None else refs.get(name, {})
    if name in ("solve-maxcut18", "ballcut-ramp12"):
        out = json.loads(outputs[0][1])
        key = str(seed % POOL)
        m = spec["manifests"]["solve.json"]
        n = m["problem"]["n"]
        if name == "solve-maxcut18":
            from qlow.problems import maxcut_3regular

            terms = [(t.qubits, t.coeff) for t in maxcut_3regular(n, 0.5, 1.0, seed % POOL).terms]
            values = sum(c * _z_product(n, qs) for qs, c in terms)
            probs = np.abs(_qaoa(n, values, out["gammas"], out["betas"])) ** 2
            via_terms = sum(c * float(probs @ _z_product(n, qs)) for qs, c in terms)
            checks.append(("mean_via_terms", _close(out["mean"], via_terms),
                           f"reported {out['mean']!r}, terms route {via_terms!r}"))
        else:
            mixer = m["mixer"]
            values = _popcount(np.arange(1 << n)).astype(np.float64)
            probs = np.abs(_ball_evolve(n, values, mixer["center"], mixer["radius"],
                                        out["gammas"][0], out["betas"][0])) ** 2
            mean, ground = float(probs @ values), float(probs[0])
            checks.append(("expm_multiply_mean", _close(out["mean"], mean),
                           f"reported {out['mean']!r}, expm_multiply {mean!r}"))
            checks.append(("expm_multiply_ground_prob", _close(out["ground_prob"], ground),
                           f"reported {out['ground_prob']!r}, expm_multiply {ground!r}"))
        values_out = {key: out["value"]}
        if refs is not None:
            ref = refs.get(key)
            checks.append(("reference", ref is not None and _no_worse(out["value"], ref),
                           f"value {out['value']!r}, reference {ref!r}"))
        return checks, values_out
    if name == "relax-grid12":
        with open(workdir / "out" / "freedom.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        by_solver = {}
        for r in rows:
            by_solver.setdefault(r["solver"], set()).add(float(r["value"]))
        params = spec["manifests"]["freedom.json"]["params"]
        solvers = ("standard", "relax-gamma", "relax-beta", "relax-both")
        shape_ok = (len(rows) == len(solvers) * params["seeds"]
                    and all(len(by_solver.get(s, ())) == 1 for s in solvers))
        checks.append(("csv_shape", shape_ok, f"{len(rows)} rows"))
        if not shape_ok:
            return checks, {}
        v = {s: by_solver[s].pop() for s in solvers}
        checks.append(("ordering_gamma", v["relax-both"] <= v["relax-gamma"] <= v["standard"],
                       f"both {v['relax-both']!r} <= gamma {v['relax-gamma']!r} "
                       f"<= standard {v['standard']!r}"))
        checks.append(("ordering_beta", v["relax-beta"] <= v["standard"],
                       f"beta {v['relax-beta']!r} <= standard {v['standard']!r}"))
        if refs is not None:
            for s in solvers:
                checks.append((f"reference[{s}]", s in refs and _no_worse(v[s], refs[s]),
                               f"value {v[s]!r}, reference {refs.get(s)!r}"))
        return checks, v
    if name == "sample-dense14":
        for i, (_, text) in enumerate(outputs):
            m = spec["manifests"][f"sample{i}.json"]
            n = m["problem"]["n"]
            values = np.asarray(m["problem"]["values"])
            lines = text.splitlines()
            drawn, mismatched = [], 0
            for line in lines:
                bits, printed = line.split(",")
                z = sum(int(ch) << q for q, ch in enumerate(bits))
                drawn.append(values[z])
                mismatched += len(bits) != n or printed != f"{values[z]:.10g}"
            checks.append((f"values[{i}]", len(lines) == SHOTS and mismatched == 0,
                           f"{len(lines)} lines, {mismatched} mismatched"))
            probs = np.abs(_qaoa(n, values, m["schedule"]["gammas"], m["schedule"]["betas"])) ** 2
            exact = float(probs @ values)
            stderr = float(np.sqrt((probs @ (values - exact) ** 2) / SHOTS))
            mean = float(np.mean(drawn)) if drawn else float("nan")
            checks.append((f"sample_mean[{i}]", abs(mean - exact) <= 5 * stderr,
                           f"sample mean {mean!r}, exact {exact!r}, 5 s.e. {5 * stderr!r}"))
        return checks, {}
    raise ValueError(f"unknown workload {name!r}")
