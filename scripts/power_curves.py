#!/usr/bin/env python3
"""Power curves for the multistage bootstrap test and the classical baselines.

Sweeps the number of items on the toxicity-fitted simulator (5-level
responses, folded-normal locations, triangular scales) and writes plot-ready
CSV: one row per (test, N) with the rejection rate at alpha = 0.05.
"""

import argparse
import csv
import sys
import time
from pathlib import Path

from raterpower import (
    ExperimentConfig,
    ResponseFamily,
    SamplingStrategy,
    TestId,
    power_sweeps,
    toxicity_prior,
)
from raterpower.metrics import MetricId


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="power_curves.csv")
    parser.add_argument("--n-sweep", default="50,100,250,500,1000")
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--epsilon", type=float, default=0.1)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--threads", type=int, default=4)
    args = parser.parse_args()

    values = tuple(int(v) for v in args.n_sweep.split(","))
    config = ExperimentConfig(
        n_items=values[0],
        k_responses=args.k,
        epsilon=args.epsilon,
        prior=toxicity_prior(),
        family=ResponseFamily(levels=5),
        metrics=(MetricId.MAE,),
        phi=SamplingStrategy.parse("boot,boot"),
        seed=args.seed,
    )
    t0 = time.time()
    reports = power_sweeps(config, tuple(TestId), args.trials, "n_items", values, threads=args.threads)
    print(f"all tests done [{time.time() - t0:.0f}s]", file=sys.stderr)
    rows = [
        [point.axis_value, report.test.value, f"{point.power:.4f}"]
        for report in reports
        for point in report.points
    ]

    path = Path(args.out)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["n_items", "test", "power"])
        writer.writerows(rows)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
