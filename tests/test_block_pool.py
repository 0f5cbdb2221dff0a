"""One pool, small blocks: ``run_columns`` and the row-blocked chunk functions.

NumPy fills an ``integers``, ``standard_normal`` or ``random`` draw in
order, so a chunk may draw each source in row blocks and reduce every block
at once. These tests check that fact for every draw kind the engine splits,
and that neither the block size nor the one pool of (column, arm, chunk)
tasks moves a single bit: ``run_columns`` at any block size and thread
count must equal one whole-block ``run_column`` per column, and power's
bootstrap test must equal its chunk-loop oracle at small blocks. The last
tests bound the traced memory of a ``table`` run and the peak resident
memory of a large ``pvalue`` process by the chunk's size.
"""

import contextlib
import io
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from _oracles import bootstrap_test_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from raterpower import (
    ExperimentConfig,
    Mode,
    ResponseMatrix,
    SamplingStrategy,
    mean_metric_scores,
    multistage_bootstrap_test,
    run_column,
    run_columns,
)
from raterpower import cli, inference
from raterpower.errors import InvalidParam
from raterpower.metrics import MetricId
from raterpower.rngstreams import chunk_ranges, derive_rng
from raterpower.simulator import ResponseFamily, generate_triple, toxicity_prior

METRICS = (MetricId.MAE, MetricId.WINS, MetricId.MEMD)
PHIS = ("boot,boot", "all,boot", "boot,all", "all,all")
FLOATS = 36  # N * K (N * K_max when ragged) of every column below
WHOLE = 10**9

DRAWS = {
    "integers-2": lambda rng, shape, highs: rng.integers(0, 2, shape),
    "integers-5": lambda rng, shape, highs: rng.integers(0, 5, shape),
    "integers-7": lambda rng, shape, highs: rng.integers(0, 7, shape),
    "integers-10": lambda rng, shape, highs: rng.integers(0, 10, shape),
    "integers-array": lambda rng, shape, highs: rng.integers(0, highs),
    "standard_normal": lambda rng, shape, highs: rng.standard_normal(shape),
    "random": lambda rng, shape, highs: rng.random(shape),
}


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(sorted(DRAWS)),
    rows=st.integers(1, 12),
    tail=st.lists(st.integers(1, 5), min_size=0, max_size=2),
    cuts=st.lists(st.integers(0, 12), max_size=4),
    half=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_split_draw_equals_whole_draw(kind, rows, tail, cuts, half, seed):
    shape = (rows, *tail)
    highs = np.random.default_rng(seed).integers(1, 12, shape)
    whole_rng, split_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    if half:  # one 32-bit draw leaves the other half of a 64-bit output buffered
        for rng in (whole_rng, split_rng):
            rng.integers(0, 3)
        assert whole_rng.bit_generator.state["has_uint32"] == 1
    bounds = sorted({0, rows, *(min(c, rows) for c in cuts)})
    draw = DRAWS[kind]
    want = draw(whole_rng, shape, highs)
    got = np.concatenate([draw(split_rng, (hi - lo, *tail), highs[lo:hi])
                          for lo, hi in zip(bounds, bounds[1:])])
    assert got.tobytes() == want.tobytes()
    assert split_rng.bit_generator.state == whole_rng.bit_generator.state


def _parametric_columns():
    base = ExperimentConfig(b_alt=23, b_null=19, metrics=METRICS, prior=toxicity_prior(),
                            family=ResponseFamily(5))
    return [
        (base.with_(n_items=12, k_responses=3, phi=SamplingStrategy.parse("boot,boot"), seed=3),
         (0.1, 0.0, 0.1)),
        (base.with_(n_items=36, k_responses=1, phi=SamplingStrategy.parse("all,boot"), seed=4),
         (0.0,)),
        (base.with_(n_items=6, k_responses=6, phi=SamplingStrategy.parse("boot,all"), seed=5,
                    metrics=(MetricId.WINS,)), (0.05, 0.2)),
        (base.with_(n_items=9, k_responses=4, phi=SamplingStrategy.parse("all,all"), seed=6,
                    family=ResponseFamily()), (0.3, 0.02, 0.0)),
    ]


def _given(ragged: bool):
    rng = np.random.default_rng(23)
    counts = [3, 1, 2, 3, 2, 1, 3, 3, 1, 2, 3, 2] if ragged else [3] * 12
    gold_counts = [3, 2, 1, 1, 3, 3, 2, 3, 1, 2, 3, 1] if ragged else counts
    ids = [f"i{i}" for i in range(12)]

    def matrix(sizes, shift):
        return ResponseMatrix.from_rows(
            (i, np.round(np.clip(rng.normal(0.4 + shift, 0.25, k), 0, 1) * 4) / 4) for i, k in zip(ids, sizes)
        )

    return matrix(gold_counts, 0.0), matrix(counts, 0.0), matrix(counts, 0.1)


def _given_columns():
    base = ExperimentConfig(mode=Mode.BOOTSTRAP_OF_GIVEN, n_items=12, k_responses=3, b_alt=23,
                            b_null=19, metrics=METRICS)
    return [(base.with_(phi=SamplingStrategy.parse(phi), seed=seed), (0.0, 0.1))
            for seed, phi in enumerate(PHIS)]


CASES = {
    "parametric": (_parametric_columns, None),
    "given": (_given_columns, _given(False)),
    "ragged": (_given_columns, _given(True)),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("chunk", [1, 7, WHOLE])
def test_pool_and_blocks_equal_one_whole_block_column_each(case, chunk, monkeypatch):
    columns, given_triple = CASES[case]
    columns = columns()
    monkeypatch.setattr(inference, "_CHUNK_BUDGET", chunk * FLOATS)
    monkeypatch.setattr(inference, "_BLOCK", WHOLE)
    want = [[r.to_json_dict() for r in run_column(config, eps, given_triple)] for config, eps in columns]
    for block in (1, 7, WHOLE):
        monkeypatch.setattr(inference, "_BLOCK", block * FLOATS)
        for threads in (1, 2, 3):
            got = run_columns(columns, given_triple, threads=threads)
            assert [[r.to_json_dict() for r in reports] for reports in got] == want


@pytest.mark.parametrize("phi", PHIS)
def test_mean_metric_scores_do_not_depend_on_blocks(phi, monkeypatch):
    config = ExperimentConfig(n_items=12, k_responses=3, epsilon=0.1, metrics=METRICS, seed=8,
                              phi=SamplingStrategy.parse(phi))
    monkeypatch.setattr(inference, "_BLOCK", WHOLE)
    want = mean_metric_scores(config, 17)
    for block in (1, 7):
        monkeypatch.setattr(inference, "_BLOCK", block * FLOATS)
        assert mean_metric_scores(config, 17, threads=2) == want


@pytest.mark.parametrize("phi", PHIS)
@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("block", [1, 7])
def test_bootstrap_test_matches_chunk_loop_at_small_blocks(phi, metric, block, monkeypatch):
    monkeypatch.setattr(inference, "_BLOCK", block * 12 * 5)
    config = ExperimentConfig(n_items=12, k_responses=5, epsilon=0.1, seed=3)
    g, a, b = generate_triple(config, derive_rng(41))
    strategy = SamplingStrategy.parse(phi)
    got_rng, want_rng = derive_rng(42), derive_rng(42)
    got = multistage_bootstrap_test(g, a, b, metric, strategy, b_null=23, rng=got_rng)
    want = bootstrap_test_oracle(
        g.to_array(), a.to_array(), b.to_array(), metric, phi.startswith("boot"),
        phi.endswith("boot"), 23, inference._chunk_size(12, 5), want_rng,
    )
    assert got == want
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("rows", [1, 7])
def test_per_resample_plan_blocks_equal_the_whole_chunk(rows):
    # Ragged chunks run as one block, so the engine never splits a plan of
    # per-resample generators; its blocks must still be the chunk's rows.
    values, counts = _given(True)[1].padded()
    phi = SamplingStrategy.parse("boot,boot")

    def gathered(spans):
        plan = inference._plan([derive_rng(5, j) for j in range(17)], 17, phi,
                               [(values.shape, counts, None)] * 2, spans)
        out = []
        for steps in plan:
            for (lo, hi), step in zip(spans, steps):
                x, k = inference._gather(values, hi - lo, step)
                pad = values.shape[-1] - x.shape[-1]
                out.append((np.pad(x, ((0, 0), (0, 0), (0, pad)), constant_values=np.nan), k))
        return [np.concatenate(part) for part in zip(*out)]

    whole = gathered([(0, 17)])
    blocks = gathered(chunk_ranges(17, rows))
    for x, y in zip(whole, blocks):
        assert x.tobytes() == y.tobytes()


def test_run_columns_validates_every_column_before_running(monkeypatch):
    monkeypatch.setattr(inference, "_alt_chunk_parametric", lambda *a: pytest.fail("ran"))
    monkeypatch.setattr(inference, "_null_chunk_rect", lambda *a: pytest.fail("ran"))
    config = ExperimentConfig(n_items=5, k_responses=2)
    with pytest.raises(InvalidParam):
        run_columns([(config, (0.1,)), (config.with_(n_items=3), (0.1, -0.1))], threads=2)
    assert run_columns([]) == []


def test_spans_cover_the_chunk_in_blocks_of_at_most_block_floats(monkeypatch):
    monkeypatch.setattr(inference, "_BLOCK", 100)
    assert inference._spans(10, 30) == chunk_ranges(10, 3)
    assert inference._spans(4, 500) == chunk_ranges(4, 1)  # a resample larger than a block


def test_table_memory_stays_below_two_chunk_arrays():
    # One (N, K) column of 500 resamples per arm: each arm is one chunk, and
    # the two arms run at once. Before row blocks the traced peak was 50 MB.
    n, k, b = 100, 25, 500
    argv = ["table", "--default-synthetic", "--nk-pairs", f"{n}:{k}",
            "--epsilon-values", "0,0.02,0.1", "--metric", "all", "--phi", "all,boot",
            "--b-alt", str(b), "--b-null", str(b), "--threads", "2"]
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * b * n * k * 8


_PEAK_RSS = """
import contextlib, io, sys
from raterpower.cli import main
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(sys.argv[1:]) == 0
print(next(line.split()[1] for line in open("/proc/self/status") if line.startswith("VmHWM:")))
"""


def _peak_rss_mb(*argv: str) -> float:
    """Peak resident MB of a fresh interpreter that imports the CLI and runs ``argv``.

    VmHWM is the peak of the child's own address space. ``ru_maxrss`` would
    not do: Linux carries into it the peak of the address space that exec
    replaced, which for a child spawned here is this test process's.
    """
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS, *argv], env=env, capture_output=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    return int(proc.stdout) / 1024


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux's VmHWM")
def test_pvalue_peak_rss_stays_within_six_chunk_arrays_per_thread():
    # One (c, N, K) array of a chunk holds at most _CHUNK_BUDGET floats
    # (16 MB). Peak RSS over the import's own peak measured 4.6-5.1 such
    # arrays at 1 thread and 3.7-4.7 per thread at 2 (five runs per case,
    # 2 vCPU, Python 3.11, NumPy 2.4): flat in N * K and in b, so the bound
    # is six per thread. Chunks of twice the budget read 8.7 at 1 thread.
    array_mb = inference._CHUNK_BUDGET * 8 / 2**20
    import_mb = _peak_rss_mb()
    for n, k, b in ((1000, 50, 80), (2000, 100, 40)):
        for threads in (1, 2):
            peak = _peak_rss_mb("pvalue", "--default-synthetic", "--epsilon", "0.02", "--phi", "boot,boot",
                                "--metric", "all", "--n", str(n), "--k", str(k), "--b-alt", str(b),
                                "--b-null", str(b), "--threads", str(threads))
            assert peak - import_mb <= 6 * array_mb * threads, (n, k, b, threads, peak, import_mb)
