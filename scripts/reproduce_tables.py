#!/usr/bin/env python3
"""Reproduce the equal-N*K p-value grids for the Wins and MAE metrics.

Runs the parametric experiment at every (N, K) pair of the published grid
layout for each perturbation rate, averaging a few seeds, and writes one
long-form CSV per metric. Each seed is one ``run_columns`` call: one column
per (N, K) over all perturbation rates, which share their random draws, and
every column's chunks on one pool of --threads. Expect roughly ten minutes
at full size; trim --seeds or --pairs for a quick look.
"""

import argparse
import csv
import sys
import time
from pathlib import Path

import numpy as np

from raterpower import ExperimentConfig, SamplingStrategy, run_columns
from raterpower.metrics import MetricId

NK_PAIRS = [
    (100, 10), (1000, 1),
    (25, 100), (100, 25), (500, 5),
    (50, 100), (1000, 5),
    (100, 100), (1000, 10),
    (250, 100), (1000, 25),
    (500, 100), (1000, 50),
]
EPSILONS = (0.005, 0.01, 0.02, 0.1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="tables")
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--b", type=int, default=500)
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--phi", default="all,boot")
    parser.add_argument("--pairs", type=int, default=len(NK_PAIRS),
                        help="use only the first PAIRS grid rows")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    phi = SamplingStrategy.parse(args.phi)
    rows = {MetricId.WINS: [], MetricId.MAE: []}
    pairs = NK_PAIRS[: args.pairs]
    # per_seed[m][i][j]: the p-values of metric m at pairs[i] and EPSILONS[j], one per seed.
    per_seed = {m: [[[] for _ in EPSILONS] for _ in pairs] for m in rows}
    t0 = time.time()
    for seed in range(args.seeds):
        columns = [
            (ExperimentConfig(n_items=n, k_responses=k, phi=phi, seed=seed,
                              b_alt=args.b, b_null=args.b, metrics=tuple(rows)), EPSILONS)
            for n, k in pairs
        ]
        for i, reports in enumerate(run_columns(columns, threads=args.threads)):
            for j, report in enumerate(reports):
                for m in rows:
                    per_seed[m][i][j].append(report.p_value(m))
        print(f"seed {seed} done [{time.time() - t0:.0f}s]", file=sys.stderr)
    for i, (n, k) in enumerate(pairs):
        for j, eps in enumerate(EPSILONS):
            for m in rows:
                rows[m].append((n, k, eps, float(np.mean(per_seed[m][i][j]))))

    for metric, data in rows.items():
        path = out_dir / f"pvalues_{metric.value}_{phi.tag.replace(',', '_')}.csv"
        with path.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["N", "K", "epsilon", "p_value", "nk"])
            for (n, k, eps, p) in data:
                writer.writerow([n, k, eps, f"{p:.4f}", n * k])
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
