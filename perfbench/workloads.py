"""The benchmark's workloads: four user journeys through the raterpower CLI.

Each workload builds its inputs from op seeds in a scratch directory and
turns one op seed into one *op*: a fixed sequence of CLI commands. The
runner appends ``--seed``, ``--threads`` and ``--out`` to every command, so
the program sees only argv and files.

Op seeds come from a fixed pool per workload; ``reference.json`` holds the
SHA-256 digest of every op's output bytes for every pool seed, so any run
seed can be checked byte for byte. A run seed picks where in the pool a
run starts.

Two sizes exist: ``full`` is what the benchmark measures, ``tiny`` is the
same journey at toy size, used to warm a process up and by ``--smoke``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

POOL = 8  # op seeds 0..POOL-1 have a recorded reference digest


class Workload:
    name = ""
    why = ""
    sizes: dict[str, dict] = {}

    def __init__(self, size: str):
        self.size = size
        self.p = self.sizes[size]

    def setup(self, workdir: Path, seeds: list[int]) -> None:
        """Write the input files the ops of ``seeds`` read (default: none)."""

    def commands(self, workdir: Path, seed: int) -> list[list[str]]:
        raise NotImplementedError

    @property
    def resamples(self) -> int:
        """Monte Carlo resamples one op draws and scores."""
        raise NotImplementedError

    @property
    def pvalues(self) -> int:
        """p-values one op computes (the ``trials`` of ``trials_per_s``)."""
        raise NotImplementedError


class CellLarge(Workload):
    # The largest paper grid cell: bulk array work (response generation,
    # alternative/null gather, the MEMD sort at K=50), chunked across
    # threads. A gather, sort or simulator change shows here first. At
    # N*K = 50000 a chunk is 40 resamples, so b = 80 gives each arm two
    # chunks, one per thread at --threads 2, and keeps an op near a second
    # so that a run holds enough ops for a steady median.
    name = "cell-large"
    why = "largest paper grid cell (N=1000, K=50, all metrics): bulk array work chunked across threads"
    sizes = {
        "full": {"n": 1000, "k": 50, "b": 80},
        "tiny": {"n": 40, "k": 6, "b": 20},
    }

    def commands(self, workdir, seed):
        p = self.p
        return [[
            "pvalue", "--default-synthetic", "--n", str(p["n"]), "--k", str(p["k"]),
            "--epsilon", "0.02", "--phi", "boot,boot", "--metric", "all",
            "--b-alt", str(p["b"]), "--b-null", str(p["b"]),
        ]]

    @property
    def resamples(self):
        return 2 * self.p["b"]

    @property
    def pvalues(self):
        return 3


class TablePaper(Workload):
    # The published table layout: twenty small cells (N*K <= 2500, K=1
    # included), no item bootstrap, no MEMD. The same engine as cell-large
    # but dominated by the simulator and per-cell fixed cost, so a gather or
    # MEMD optimisation should leave it flat.
    name = "table-paper"
    why = "published table layout: 20 small cells incl. K=1, no MEMD; simulator and per-cell fixed cost dominate"
    sizes = {
        "full": {"pairs": "100:10,1000:1,25:100,100:25,500:5", "eps": "0.005,0.01,0.02,0.1", "b": 500},
        "tiny": {"pairs": "20:2,10:1", "eps": "0.1", "b": 20},
    }

    def commands(self, workdir, seed):
        p = self.p
        return [[
            "table", "--default-synthetic", "--nk-pairs", p["pairs"],
            "--epsilon-values", p["eps"], "--metric", "wins,mae", "--phi", "all,boot",
            "--b-alt", str(p["b"]), "--b-null", str(p["b"]),
        ]]

    @property
    def cells(self):
        return len(self.p["pairs"].split(",")) * len(self.p["eps"].split(","))

    @property
    def resamples(self):
        return 2 * self.p["b"] * self.cells

    @property
    def pvalues(self):
        return 2 * self.cells


class PowerSweep(Workload):
    # Power curves for all four tests on a fitted (toxicity) prior. This
    # path never calls run_experiment: it is the bootstrap test's own chunk
    # loop, per-trial triple generation and the Python-level baselines, and
    # trials are chunked across threads (Welch/Wilcoxon are GIL-bound).
    # Trials come in chunks of 8, so 16 trials make two equal chunks.
    name = "power-sweep"
    why = "power curves, all four tests, toxicity prior: per-trial simulation and the bootstrap test's own loop"
    sizes = {
        "full": {"n": "50,100,250,500", "k": 5, "trials": 16, "b_null": 100},
        "tiny": {"n": "10,20", "k": 3, "trials": 2, "b_null": 20},
    }

    def setup(self, workdir, seeds):
        from raterpower.simulator import toxicity_prior

        (workdir / "toxicity-prior.json").write_text(
            json.dumps(toxicity_prior().to_json_dict(), indent=2) + "\n", encoding="utf-8"
        )

    def commands(self, workdir, seed):
        p = self.p
        return [[
            "power", "--prior-spec", str(workdir / "toxicity-prior.json"), "--levels", "5",
            "--test", "all", "--n-sweep", p["n"], "--k", str(p["k"]), "--epsilon", "0.1",
            "--trials", str(p["trials"]), "--b-null", str(p["b_null"]),
        ]]

    @property
    def points(self):
        return len(self.p["n"].split(","))

    @property
    def resamples(self):
        return self.p["trials"] * self.points * self.p["b_null"]

    @property
    def pvalues(self):
        return self.p["trials"] * self.points * 4


class RealData(Workload):
    # The only journey through dataio, fitting and the ragged list-of-rows
    # engine path (one RNG per resample, Python emd_1d per item). Padding
    # ragged data into arrays would win or regress here. b = 30 keeps an
    # op near a second.
    name = "real-data"
    why = "ragged 5-level JSONL triple: load, fit a prior, bootstrap p-value on the given data (ragged path)"
    sizes = {
        "full": {"items": 300, "b": 30},
        "tiny": {"items": 30, "b": 20},
    }
    FIT = [
        "--location-family", "folded-normal", "--grid", "mu=0:0.5:0.01,sigma=0.05:0.3:0.01",
        "--location-clip", "0,1", "--scale-family", "triangular",
        "--scale-grid", "a=-0.1:0:0.05,b=0.1:0.3:0.05,c=0.4:0.5:0.05", "--scale-clip", "0,none",
    ]

    def _paths(self, workdir, seed):
        return [workdir / f"ratings-{seed}.{m}.jsonl" for m in "GAB"]

    def setup(self, workdir, seeds):
        for seed in seeds:
            write_ragged_triple(self._paths(workdir, seed), self.p["items"], seed)

    def commands(self, workdir, seed):
        g, a, b = (str(p) for p in self._paths(workdir, seed))
        return [
            ["fit", "--input", g, *self.FIT],
            ["pvalue", "--input", g, a, b, "--phi", "boot,boot", "--metric", "all",
             "--b-alt", str(self.p["b"]), "--b-null", str(self.p["b"])],
        ]

    @property
    def resamples(self):
        return 2 * self.p["b"]

    @property
    def pvalues(self):
        return 3


def write_ragged_triple(paths: list[Path], items: int, seed: int) -> None:
    """Write a (G, A, B) triple of 5-level ratings with 3-12 responses per item.

    Per-item counts are a shuffle of an even spread over 3..12, so every
    seed has the same total number of responses and the same work. A and G
    share each item's distribution; B's locations are shifted up by
    Uniform(0, 0.1). Values are already on [0, 1] (level j of 5 is j/4).
    """
    rng = np.random.default_rng(seed)
    counts = rng.permutation(np.resize(np.arange(3, 13), items))
    mu = np.clip(np.abs(rng.normal(0.19, 0.11, items)), 0.0, 1.0)
    sigma = np.clip(rng.triangular(-0.05, 0.21, 0.45, items), 0.0, None)
    shift = rng.uniform(0.0, 0.1, items)
    for path, loc in zip(paths, (mu, mu, mu + shift)):
        lines = []
        for i in range(items):
            x = np.clip(rng.normal(loc[i], sigma[i], counts[i]), 0.0, 1.0)
            levels = np.floor(x * 4 + 0.5) / 4
            lines.append(json.dumps({"item_id": f"item{i:04d}", "responses": levels.tolist()}))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


WORKLOADS = {w.name: w for w in (CellLarge, TablePaper, PowerSweep, RealData)}
