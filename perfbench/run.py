"""raterpower benchmark: four CLI journeys, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke    # every workload once at toy size
    python3 perfbench/run.py --record   # rewrite reference.json from this program

Run from the repository root. Each run starts its workload in subprocesses
(``child.py``) that import ``raterpower.cli`` from ``src/`` and call
``main(argv)`` in-process, with the BLAS/OpenMP thread variables pinned to
1. Ops are CLI command sequences (see ``workloads.py``); every op's output
bytes must match the digest in ``reference.json`` for its seed, at 1 and at
2 threads alike. A failing op is counted, never fatal.

End-to-end metrics (``--trace 0``, tracing off):

* ``setup_s``: importing ``raterpower.cli`` and writing the inputs, the
  median of three subprocesses.
* ``op_s.p50`` / ``op_s.p50.2t``: median op time at ``--threads 1`` /
  ``--threads 2``. The two alternate within one subprocess.
* ``resamples_per_s``: Monte Carlo resamples per second at 1 thread, i.e.
  (b_alt + b_null) x cells for the p-value workloads and bootstrap-test
  null resamples (trials x sweep points x b_null) for ``power-sweep``.
* ``trials_per_s``: p-values computed per second at 1 thread: one per
  trial, test and sweep point on ``power-sweep``, one per cell and metric
  on the p-value workloads.
* ``peak_rss_mb``: ``ru_maxrss`` of the measuring subprocess.

The failed share of ops is ``failed / attempted`` in the result line.

Times are in reference seconds, so that the host's load does not move them.
This machine is a guest on a shared host, which (a) takes its CPUs away for
other guests, by up to half of a 2-thread op's wall time (steal time), and
(b) runs it at a speed that drifts by a third over tens of seconds; CPU time
drifts with (b) as much as wall time does. So each time is first taken as
run time on the CPU the host gave: CPU time for set-up and 1-thread ops, wall
time less the steal it lost for 2-thread ops (``run_time``). Against
(b), each subprocess also times ``child.calibrate()``, a fixed kernel that
uses no raterpower code, three times right after set-up and twice after
every op. A set-up time is scaled by ``CAL_REF_S`` over the median of the
kernel times after it, an op time by ``CAL_REF_S`` over the median of the
kernel times just before and just after it. A program change moves the
scaled times as it moves the raw ones, while the host's load cancels. The
wall times are in the ``detail`` line.

Per-layer metrics (``--trace 1``) come from ``tracer.py``: per-op means
over traced 1-thread ops of each layer's self time and counters, the
chunk-pool busy share from traced 2-thread ops, the share of op wall time
the layer spans cover (``trace.attributed_frac``, worst op) and the
tracing overhead against untraced ops of the same run (in reference
seconds; the layer times are raw).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

END_TO_END = {
    "setup_s": "s",
    "op_s.p50": "s",
    "op_s.p50.2t": "s",
    "resamples_per_s": "1/s",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "simulator.gen_responses.self_s": "s",
    "simulator.gen_responses.values": "count",
    "simulator.generate_triple.self_s": "s",
    "simulator.generate_triple.calls": "count",
    "distributions.sample.self_s": "s",
    "distributions.sample.draws": "count",
    "inference.run_experiment.self_s": "s",
    "inference.alt_chunk.self_s": "s",
    "inference.null_chunk.self_s": "s",
    "inference.gather_bytes": "B-computed",
    "inference.chunks": "count",
    "inference.map_chunks.busy_frac": "ratio",
    "inference.ragged_alt.self_s": "s",
    "inference.ragged_null.self_s": "s",
    "inference.estimate_p_value.self_s": "s",
    "rngstreams.derive_rng.calls": "count",
    "metrics.batch_scores.self_s": "s",
    "metrics.batch_scores.triples": "count",
    "metrics.batch_scores.bytes": "B-computed",
    "metrics.batch_scores_ragged.self_s": "s",
    "metrics.emd_1d.calls": "count",
    "power.trial.self_s": "s",
    "power.trial.calls": "count",
    "power.bootstrap_test.self_s": "s",
    "power.bootstrap_test.null_resamples": "count",
    "power.per_item_errors.self_s": "s",
    "power.welch.self_s": "s",
    "power.wilcoxon.self_s": "s",
    "power.permutation.self_s": "s",
    "fitting.fit_prior.self_s": "s",
    "fitting.stat_distance.self_s": "s",
    "fitting.stat_distance.calls": "count",
    "dataio.load_responses.self_s": "s",
    "dataio.load_responses.bytes": "B",
    "dataio.load_responses.items": "count",
    "trace.overhead_frac": "ratio",
    "trace.attributed_frac": "ratio",
}

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 3
CAL_REF_S = 0.12  # calibration kernel time at the reference machine speed
DEADLINE_S = 170.0  # the whole run, children included


class BenchError(Exception):
    pass


# -- subprocesses ------------------------------------------------------------------

@contextlib.contextmanager
def scratch(prefix: str):
    """A fresh directory under WORK, removed (with WORK, if empty) on exit."""
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(mode: str, workload: str, size: str, seed: int, seconds: float,
              workdir: Path, deadline: float) -> dict:
    result = workdir / f"{mode}-{time.perf_counter_ns()}.json"
    cmd = [sys.executable, str(HERE / "child.py"), mode, workload, size, str(seed),
           repr(float(seconds)), str(workdir), str(result)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget spent before the workload finished")
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} subprocess for {workload} timed out")
    if proc.returncode != 0 or not result.is_file():
        raise BenchError(f"{mode} subprocess for {workload} exited with code {proc.returncode}")
    return json.loads(result.read_text(encoding="utf-8"))


# -- metrics -----------------------------------------------------------------------

def timed(op: dict, threads: int, traced: bool) -> bool:
    """A timed op whose commands all ran (a digest mismatch still ran)."""
    return (not op.get("warm_up") and op["threads"] == threads and op["traced"] == traced
            and "digest" in op)


def completed(ops: list[dict], threads: int, traced: bool) -> list[dict]:
    return [o for o in ops if timed(o, threads, traced)]


def run_time(op: dict) -> float:
    """Raw seconds an op ran on the CPU time the host gave this machine.

    The host steals time only from CPUs that have work, here the op's
    threads. With ``u`` CPUs busy on average, ``steal_s / u`` of the wall
    time was lost, which leaves wall x CPU / (CPU + steal). For a 1-thread
    op that is its CPU time, so CPU time is used directly."""
    if op["threads"] == 1:
        return op["cpu_s"]
    busy = op["cpu_s"] + op["steal_s"]
    return op["wall_s"] * op["cpu_s"] / busy if busy > 0 else op["wall_s"]


def scale(seconds: float, cal_s: list[float]) -> float:
    """Raw seconds in reference seconds, given calibration times taken next to them."""
    return seconds * CAL_REF_S / statistics.median(cal_s)


def scaled_ops(child: dict, threads: int, traced: bool = False) -> list[tuple[float, float]]:
    """(reference, raw wall) seconds of the child's timed ops at ``threads``.
    Each op is scaled by the calibration runs just before and just after it."""
    out = []
    before = child["cal_s"]
    for o in child["ops"]:
        if timed(o, threads, traced):
            out.append((scale(run_time(o), before + o["cal_s"]), o["wall_s"]))
        before = o["cal_s"]
    return out


def end_to_end(workload, main: dict, setups: list[dict]) -> tuple[dict, dict]:
    ones = scaled_ops(main, 1)
    twos = scaled_ops(main, 2)
    if not ones or not twos:
        raise BenchError("no op completed at both thread counts")
    one = [ref for ref, _ in ones]
    two = [ref for ref, _ in twos]
    values = {
        "setup_s": statistics.median(scale(s["setup_cpu_s"], s["cal_s"]) for s in setups),
        "op_s.p50": statistics.median(one),
        "op_s.p50.2t": statistics.median(two),
        "resamples_per_s": workload.resamples * len(one) / sum(one),
        "trials_per_s": workload.pvalues * len(one) / sum(one),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    detail = {
        "op_s": {"1t": one, "2t": two},
        "wall_op_s": {"1t": [raw for _, raw in ones], "2t": [raw for _, raw in twos]},
        "setup": [{k: s[k] for k in ("setup_s", "setup_cpu_s", "cal_s")} for s in setups],
    }
    return values, detail


def per_layer(main: dict) -> tuple[dict, dict]:
    traced = completed(main["ops"], 1, True)
    plain = completed(main["ops"], 1, False)
    pooled = completed(main["ops"], 2, True)
    if not traced or not plain:
        raise BenchError("no traced and untraced 1-thread op pair completed")

    def mean(field: str, key: str) -> float:
        return sum(o[field].get(key, 0.0) for o in traced) / len(traced)

    attributed = [sum(o["self_s"].values()) / o["wall_s"] for o in traced]
    capacity = sum(o["capacity_s"] for o in pooled)
    special = {
        "inference.chunks": mean("counts", "inference.alt_chunk.calls")
        + mean("counts", "inference.null_chunk.calls"),
        "inference.map_chunks.busy_frac": sum(o["busy_s"] for o in pooled) / capacity if capacity else 0.0,
        "trace.overhead_frac": statistics.median(ref for ref, _ in scaled_ops(main, 1, True))
        / statistics.median(ref for ref, _ in scaled_ops(main, 1)) - 1.0,
        "trace.attributed_frac": min(attributed),
    }
    values = {}
    for name in PER_LAYER:
        if name in special:
            values[name] = special[name]
        elif name.endswith(".self_s"):
            values[name] = mean("self_s", name[: -len(".self_s")])
        else:
            values[name] = mean("counts", name)
    spans = sorted({k for o in traced for k in o["self_s"]})
    detail = {
        "attributed_frac": attributed,
        "self_s": {k: mean("self_s", k) for k in spans},
        "absent": main.get("absent", []),
        "unavailable": main.get("unavailable", []),
        "op_s": {"traced": [o["wall_s"] for o in traced], "untraced": [o["wall_s"] for o in plain]},
    }
    return values, detail


# -- run record ----------------------------------------------------------------------

def machine() -> dict:
    facts = {"nproc": len(os.sched_getaffinity(0)), "cpu": "unknown", "caches": {}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind != "Instruction":
            facts["caches"][f"L{level}" + ("d" if kind == "Data" else "")] = size
    return facts


# -- modes ----------------------------------------------------------------------------

def measure(args) -> int:
    if not (ROOT / "src" / "raterpower" / "cli.py").is_file():
        print(f"error: no raterpower source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[args.workload](args.size)
    try:
        with scratch("run-") as workdir:
            def child(mode: str) -> dict:
                return run_child(mode, args.workload, args.size, args.seed, args.seconds,
                                 workdir, deadline)

            if args.trace:
                main = child("trace")
                values, detail = per_layer(main)
                units = PER_LAYER
            else:
                setups = [child("setup") for _ in range(SETUP_SAMPLES - 1)]
                main = child("measure")
                values, detail = end_to_end(workload, main, setups + [main])
                units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ops = main["ops"]
    failed = sum(not o["ok"] for o in ops)
    record = {**machine(), "python": main["python"], "numpy": main["numpy"], "scipy": main["scipy"]}
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} size={args.size}")
    print("machine: " + json.dumps(record))
    samples = len(completed(ops, 1, bool(args.trace)))
    for name, unit in units.items():
        print(f"  {name} = {values[name]:.6g} {unit}")
    print(f"  failed_frac = {failed / len(ops):.6g} ({failed} of {len(ops)} ops; "
          f"{samples} timed 1-thread ops)")
    if detail.get("absent"):
        print("  absent layers: " + ", ".join(detail["absent"]))
    print("detail: " + json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def record() -> int:
    """Rewrite reference.json: the output digest of every pool seed."""
    reference: dict[str, dict[str, dict[str, str]]] = {}
    for size in ("tiny", "full"):
        for name in WORKLOADS:
            with scratch("record-") as workdir:
                result = run_child("record", name, size, 0, 0, workdir, time.monotonic() + 900)
            failed = [o for o in result["ops"] if "digest" not in o]
            if failed:
                print(f"error: {name} ({size}) failed: {failed[0].get('error')}", file=sys.stderr)
                return 1
            reference.setdefault(size, {})[name] = {str(o["seed"]): o["digest"] for o in result["ops"]}
            print(f"recorded {name} ({size}): {len(result['ops'])} seeds", file=sys.stderr)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


def smoke() -> int:
    """Every workload once at toy size, traced and untraced: the result line
    must carry every BENCHMARK.json metric with its unit, traced self times
    must not exceed op wall time, and a tree without the program must fail."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "0",
                   "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            label = f"{name} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit code {proc.returncode}: {proc.stderr[-500:]}")
                continue
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} ops failed")
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted:
                problems.append(f"{label}: metrics {sorted(set(got) ^ set(wanted))} or units differ")
            if trace:
                detail = json.loads(next(l for l in lines if l.startswith("detail: "))[len("detail: "):])
                if max(detail["attributed_frac"]) > 1.0 + 1e-9:
                    problems.append(f"{label}: traced self times exceed op wall time")
            print(f"smoke: ran {label}", file=sys.stderr)

    with scratch("bare-") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        cmd = [sys.executable, str(bare / HERE.name / "run.py"), "--workload", next(iter(WORKLOADS)),
               "--seed", "0", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("a tree without the program did not fail cleanly")
    for problem in problems:
        print("smoke: " + problem, file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
