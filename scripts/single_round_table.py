#!/usr/bin/env python3
"""Single-round table for independent spins: closed forms vs batched simulation.

Prints one row per coupling distribution (optimal gamma, mean energy, ground
overlap, approximation ratio, simulated values with standard errors) plus the
diabatic-sweep reference row, and optionally writes the record CSV.
"""

import argparse
import pathlib

from qlow.analytic import DISTRIBUTIONS
from qlow.experiments import run_fig2_table, write_records


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=8, help="qubits per simulated instance")
    ap.add_argument("--seeds", type=int, default=10_000, help="simulated instances")
    ap.add_argument("--seed", type=int, default=0, help="master seed")
    ap.add_argument("--out", type=pathlib.Path, default=None, help="CSV path")
    args = ap.parse_args()

    records, summary = run_fig2_table(n=args.n, n_seeds=args.seeds, seed=args.seed)

    head = f"{'dist':<10} {'gamma*':>8} {'C_m':>8} {'overlap':>8} {'ratio':>7}   simulated C_m / overlap"
    print(head)
    print("-" * len(head))
    for dist in DISTRIBUTIONS:
        ana = summary[dist]["analytic"]
        sim = summary[dist]["simulated"]
        print(
            f"{dist:<10} {summary[dist]['gamma_star']:>8.4f} {ana.c_m:>8.4f} "
            f"{ana.overlap:>8.4f} {ana.ratio:>7.4f}   "
            f"{sim['c_m']:.4f} +- {sim['c_m_se']:.4f} / "
            f"{sim['overlap']:.4f} +- {sim['overlap_se']:.4f}"
        )
    lz = summary["annealing"]["lz"]
    print(
        f"{'annealing':<10} {'':>8} {lz.a_lz:>8.4f} {lz.o_lz:>8.4f} {lz.r_lz:>7.4f}   "
        f"(gaussian couplings, unit sweep rate)"
    )

    if args.out is not None:
        write_records(records, args.out)
        print(f"\nwrote {len(records)} records to {args.out}")


if __name__ == "__main__":
    main()
