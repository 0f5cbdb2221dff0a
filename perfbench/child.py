"""One workload subprocess: set up, then run ops in-process through
``raterpower.cli.main`` until the time budget is spent.

Usage (from run.py): child.py MODE WORKLOAD SIZE SEED SECONDS WORKDIR RESULT

MODE is ``setup`` (set up only), ``measure`` (untraced ops at 1 and 2
threads, in alternating order), ``trace`` (rounds of an untraced 1-thread
op, a traced 1-thread op and a traced 2-thread op) or ``record`` (one
1-thread op per pool seed, reporting digests instead of checking them).
The result is one JSON document written to RESULT.

Set-up and ops are timed three ways: wall time, CPU time of the process,
and the CPUs' steal time (time the host ran something else on them, from
/proc/stat). Set-up and every op are followed by runs of ``calibrate()``, a
fixed kernel that uses no raterpower code, so run.py can scale their times
to a reference machine speed (see run.py).
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()
_T0_CPU = time.process_time()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

REFERENCE = Path(__file__).with_name("reference.json")
MAX_ROUNDS = 64
CAL_SAMPLES = 3  # calibration runs after set-up
CAL_PER_OP = 2  # calibration runs after each op
_CAL: dict = {}


def steal_s() -> float:
    """Steal time of all CPUs so far, in seconds, or 0.0 where /proc/stat has none."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def calibrate() -> float:
    """CPU time of a fixed single-thread kernel: Python integer arithmetic,
    Gaussian draws, a sort, a random gather and a Python loop over floats,
    the kinds of work the ops do. It touches no raterpower code, so its time
    moves only with the speed of the machine, never with the program's."""
    import numpy as np

    if not _CAL:
        rng = np.random.default_rng(20241203)
        _CAL["data"] = rng.random(1_000_000)
        _CAL["index"] = rng.integers(0, 1_000_000, 1_000_000)
    data, index = _CAL["data"], _CAL["index"]
    start = time.process_time()
    total = 0.0
    for _ in range(3):
        for i in range(100_000):
            total += i * i % 7
        x = np.random.default_rng(7).normal(size=300_000)
        total += np.sort(x)[0] + data[index].sum()
        total += sum(float(v) for v in x[:20_000])
    return time.process_time() - start


class Runner:
    def __init__(self, cli, workload, workdir: Path, reference: dict):
        self.cli = cli
        self.workload = workload
        self.workdir = workdir
        self.reference = reference
        self.ops: list[dict] = []

    def expected(self, seed: int) -> str | None:
        by_workload = self.reference.get(self.workload.size, {}).get(self.workload.name, {})
        return by_workload.get(str(seed))

    def op(self, seed: int, threads: int, tracer=None) -> dict:
        """Run one op; time only the CLI calls; check the output digest."""
        outputs = []
        record = {"seed": seed, "threads": threads, "traced": tracer is not None,
                  "size": self.workload.size, "ok": False,
                  "wall_s": 0.0, "cpu_s": 0.0, "steal_s": 0.0}
        if tracer is not None:
            tracer.reset()
            tracer.install()
        try:
            for i, argv in enumerate(self.workload.commands(self.workdir, seed)):
                out = self.workdir / f"out-{i}.txt"
                argv = [*argv, "--seed", str(seed), "--threads", str(threads), "--out", str(out)]
                start, cpu, steal = time.perf_counter(), time.process_time(), steal_s()
                code = self.cli.main(argv)
                record["wall_s"] += time.perf_counter() - start
                record["cpu_s"] += time.process_time() - cpu
                record["steal_s"] += steal_s() - steal
                if code != 0:
                    raise RuntimeError(f"exit code {code} from {' '.join(argv)}")
                outputs.append(out.read_bytes())
                out.unlink()
            record["digest"] = hashlib.sha256(b"".join(outputs)).hexdigest()
            record["ok"] = self.reference is None or record["digest"] == self.expected(seed)
            if not record["ok"]:
                print(f"output mismatch: {self.workload.name} seed {seed} threads {threads}",
                      file=sys.stderr)
        except Exception:  # every failing op is counted, none ends the run
            traceback.print_exc()
            record["error"] = traceback.format_exc(limit=3)
        finally:
            if tracer is not None:
                tracer.uninstall()
                record["self_s"] = dict(tracer.self_s)
                record["counts"] = dict(tracer.counts)
                record["busy_s"] = tracer.busy_s
                record["capacity_s"] = tracer.capacity_s
        record["cal_s"] = [calibrate() for _ in range(CAL_PER_OP)]
        self.ops.append(record)
        return record


def main(argv: list[str]) -> int:
    mode, name, size, seed, seconds, workdir, result_path = argv
    seed, seconds, workdir = int(seed), float(seconds), Path(workdir)
    seeds = [(seed + i) % workloads.POOL for i in range(workloads.POOL)]

    import numpy
    import scipy

    import raterpower.cli as cli

    workload = workloads.WORKLOADS[name](size)
    workload.setup(workdir, seeds)
    result = {"setup_s": time.perf_counter() - _T0, "setup_cpu_s": time.process_time() - _T0_CPU,
              "numpy": numpy.__version__, "scipy": scipy.__version__,
              "python": sys.version.split()[0]}

    if mode != "record":
        calibrate()  # the first call builds the kernel's inputs
        result["cal_s"] = [calibrate() for _ in range(CAL_SAMPLES)]
    if mode != "setup":
        reference = None if mode == "record" else json.loads(REFERENCE.read_text(encoding="utf-8"))
        runner = Runner(cli, workload, workdir, reference)
        if mode == "record":
            for s in range(workloads.POOL):
                runner.op(s, 1)
        else:
            warm_up(cli, name, workdir, reference, runner)
            tracer = run_timed(runner, mode, seeds, seconds)
            if tracer is not None:
                result["absent"] = tracer.absent
                result["unavailable"] = sorted(tracer.unavailable)
        result["ops"] = runner.ops
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


def warm_up(cli, name, workdir, reference, runner) -> None:
    """One tiny op at each thread count, so lazy first-call costs are paid
    before timing. Its outputs are checked like any other op."""
    tiny = workloads.WORKLOADS[name]("tiny")
    tiny_dir = workdir / "warm-up"
    tiny_dir.mkdir(exist_ok=True)
    tiny.setup(tiny_dir, [0])
    warm = Runner(cli, tiny, tiny_dir, reference)
    for threads in (1, 2):
        runner.ops.append({**warm.op(0, threads), "warm_up": True})


def run_timed(runner: Runner, mode: str, seeds: list[int], seconds: float):
    """Run rounds of ops until another round would pass the time budget.

    A ``measure`` round is one op at 1 thread and one at 2, in alternating
    order, so slow drift of the machine hits both alike; a ``trace`` round
    adds the traced ops. Within the budget, at least three rounds run in
    ``measure`` mode, so one slow op cannot move a median. Returns the
    tracer of a ``trace`` run.
    """
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
    minimum = 3 if mode == "measure" else 1
    start = time.perf_counter()
    for rnd in range(MAX_ROUNDS):
        seed = seeds[rnd % len(seeds)]
        began = time.perf_counter()
        if mode == "measure":
            for threads in ((1, 2) if rnd % 2 == 0 else (2, 1)):
                runner.op(seed, threads)
        else:
            for traced in ((None, tracer) if rnd % 2 == 0 else (tracer, None)):
                runner.op(seed, 1, traced)
            runner.op(seed, 2, tracer)
        elapsed, last = time.perf_counter() - start, time.perf_counter() - began
        if elapsed + last > seconds and (rnd + 1 >= minimum or elapsed > seconds):
            break
    return tracer


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
