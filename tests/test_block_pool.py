"""One pool, small blocks: ``run_columns`` and the row-blocked chunk functions.

NumPy fills an ``integers``, ``standard_normal`` or ``random`` draw in
order, so a chunk may draw each source in row blocks and reduce every block
at once. These tests check that fact for every draw kind the engine splits,
and that neither the block size nor the one pool of (column, arm, chunk)
tasks moves a single bit: ``run_columns`` at any block size and thread
count must equal one whole-block ``run_columns`` call per column, and power's
bootstrap test must equal its chunk-loop oracle at small blocks, its full p
and a power curve their values at one resample a block. The last tests
bound the traced memory of a ``table`` run, a bootstrap test and the peak
resident memory of a large ``pvalue`` process by the chunk's size, and check the
chunk workspace a worker keeps between chunks: a second chunk reuses it,
and nothing a chunk leaves in it reaches a later chunk's scores.
"""

import contextlib
import io
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from _oracles import bootstrap_test_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from raterpower import (
    ExperimentConfig,
    ResponseMatrix,
    SamplingStrategy,
    TestId,
    mean_metric_scores,
    multistage_bootstrap_test,
    power_sweeps,
    run_columns,
    run_experiment,
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
    base = ExperimentConfig(n_items=12, k_responses=3, b_alt=23, b_null=19, metrics=METRICS)
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
    want = [[r.to_json_dict() for r in run_columns([column], given_triple)[0]] for column in columns]
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
        g.values, a.values, b.values, metric, phi.startswith("boot"),
        phi.endswith("boot"), 23, inference._chunk_size(12, 5), want_rng,
    )
    assert got == want
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


# _BLOCK values at which the bootstrap test's blocks (power._BOOTSTRAP_BLOCKS x
# _BLOCK floats) hold 4 resamples of FLOATS values, the last one short, then 1.
SMALL_BOOTSTRAP_BLOCKS = (FLOATS, 1)


@pytest.mark.parametrize("ragged", [False, True], ids=["rectangular", "ragged"])
@pytest.mark.parametrize("phi", PHIS)
def test_bootstrap_block_budget_never_moves_a_full_p(phi, ragged, monkeypatch):
    # Chunks of 7 resamples: at the default budget each is one row block.
    monkeypatch.setattr(inference, "_CHUNK_BUDGET", 7 * FLOATS)
    g, a, b = _given(ragged)
    strategy = SamplingStrategy.parse(phi)

    def full_ps():
        return [multistage_bootstrap_test(g, a, b, metric, strategy, b_null=41, rng=derive_rng(9))
                for metric in METRICS]

    want = full_ps()
    for block in SMALL_BOOTSTRAP_BLOCKS:
        monkeypatch.setattr(inference, "_BLOCK", block)
        assert full_ps() == want


@pytest.mark.parametrize("phi", PHIS)
def test_bootstrap_block_budget_never_moves_a_power_curve(phi, monkeypatch):
    # The sweep simulates rectangular triples. Chunks of 2 trials and of 7,
    # 3 and 1 null resamples at N = 6, 12, 24 (K = 3); at 0.3 the curves
    # reject in some trials and not in others.
    monkeypatch.setattr(inference, "_CHUNK_BUDGET", 7 * FLOATS)
    config = ExperimentConfig(n_items=12, k_responses=3, epsilon=0.3, b_null=41, seed=5,
                              phi=SamplingStrategy.parse(phi), prior=toxicity_prior(), family=ResponseFamily(5))

    def curves():
        return [power_sweeps(config.with_(metrics=(metric,)), (TestId.MULTISTAGE_BOOTSTRAP,), 12, "n_items",
                             (6, 12, 24), threads=2)[0] for metric in METRICS]

    want = curves()
    for block in SMALL_BOOTSTRAP_BLOCKS:
        monkeypatch.setattr(inference, "_BLOCK", block)
        assert curves() == want


@pytest.mark.parametrize("rows", [1, 7])
@pytest.mark.parametrize("ragged", [True, False], ids=["ragged", "rectangular"])
@pytest.mark.parametrize("phi", PHIS)
def test_per_resample_plan_blocks_equal_the_whole_chunk(phi, ragged, rows):
    # Ragged chunks run as one block, so the engine never splits a plan of
    # per-resample generators; its blocks must still be the chunk's rows,
    # each resample j the plan of one of its own generator, and each
    # generator must end where that plan leaves it.
    m = _given(ragged)[1]
    values, counts = m.values, m.counts() if ragged else None

    def gathered(rng, c, spans):
        plan = inference._plan(rng, c, SamplingStrategy.parse(phi), [(values.shape, counts, None)] * 2, spans)
        out = []  # per source: its gathered values, then its gathered counts when ragged
        for steps in plan:
            xs, ks = zip(*(inference._gather(values, hi - lo, step) for (lo, hi), step in zip(spans, steps)))
            xs = [np.pad(x, ((0, 0), (0, 0), (0, values.shape[-1] - x.shape[-1])), constant_values=np.nan)
                  for x in xs]
            out += [np.concatenate(part).tobytes() for part in (xs, ks) if part[0] is not None]
        return out

    rngs = [derive_rng(5, j) for j in range(17)]
    blocks = gathered(rngs, 17, chunk_ranges(17, rows))
    ones = [derive_rng(5, j) for j in range(17)]
    want = [b"".join(part) for part in zip(*(gathered(one, 1, [(0, 1)]) for one in ones))]
    assert len(blocks) == (4 if ragged else 2)
    assert blocks == want
    assert blocks == gathered([derive_rng(5, j) for j in range(17)], 17, [(0, 17)])
    for got, one in zip(rngs, ones):
        assert got.bit_generator.state == one.bit_generator.state


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("count", [0, 1, 2, 5])
def test_map_chunks_returns_results_in_chunk_order_and_runs_each_chunk_once(threads, count):
    before = threading.active_count()
    lock, calls = threading.Lock(), []

    def fn(chunk):
        with lock:
            calls.append(chunk)
        time.sleep(0.002 * (count - int(chunk)))  # later chunks finish first
        return f"result {chunk}"

    chunks = [str(i) for i in range(count)]
    assert inference._map_chunks(fn, chunks, threads) == [f"result {c}" for c in chunks]
    assert sorted(calls) == chunks
    assert threading.active_count() == before


def test_map_chunks_reraises_a_worker_exception_once_every_thread_has_stopped():
    # Each of the three threads takes one of the first three chunks. One
    # worker raises at once, the caller finishes its chunk 0.1 s later and
    # the other worker 0.3 s later; the caller must see the exception only
    # after that, and no thread may take a chunk once it is raised.
    before = threading.active_count()
    caller, barrier, lock = threading.get_ident(), threading.Barrier(3), threading.Lock()
    started, finished, workers = [], [], []

    def fn(chunk):
        with lock:
            started.append(chunk)
        if chunk < 3:
            barrier.wait(timeout=30)
        if threading.get_ident() != caller:
            with lock:
                workers.append(chunk)
                first = len(workers) == 1
            if first:
                raise ValueError(f"chunk {chunk}")
        time.sleep(0.1 if threading.get_ident() == caller else 0.3)
        with lock:
            finished.append(chunk)

    with pytest.raises(ValueError, match="chunk"):
        inference._map_chunks(fn, list(range(8)), 3)
    assert sorted(started) == [0, 1, 2]
    assert len(workers) == 2 and sorted(finished) == sorted(set(started) - {workers[0]})
    assert threading.active_count() == before


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
    assert inference._spans(10, 30, block=400) == chunk_ranges(10, 13)


@pytest.fixture
def fresh_workspaces(monkeypatch):
    """No thread has a chunk workspace yet, so that a traced run counts the workspaces it makes."""
    monkeypatch.setattr(inference, "_LOCAL", threading.local())


def _poison_workspace() -> int:
    """Fill this thread's chunk workspace with NaN; returns the floats filled."""
    buffers = inference._Workspace.mine()._buffers
    for buffer in buffers:
        buffer.fill(np.nan)
    return sum(buffer.size for buffer in buffers)


def test_table_memory_stays_below_two_chunk_arrays(fresh_workspaces):
    # One (N, K) column of 500 resamples per arm: each arm is one chunk, and
    # the two arms run at once. Before row blocks the traced peak was 50 MB.
    # The run starts with no workspace, so any it makes is traced.
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


def test_a_bootstrap_test_peaks_below_one_chunk_array(fresh_workspaces):
    # Two chunks (400 and 100 null resamples) in row blocks of 26 resamples
    # (power._BOOTSTRAP_BLOCKS x _BLOCK floats). Each block holds its own
    # index and gathered arrays; G's workspace rows are one block's. The
    # traced peak read 10.1 MB with blocks of _BLOCK floats and 12.5 MB with
    # 4x; one block per chunk would hold a chunk array of indices alone.
    config = ExperimentConfig(n_items=1000, k_responses=5, epsilon=0.05)
    g, a, b = generate_triple(config, derive_rng(7))
    tracemalloc.start()
    try:
        multistage_bootstrap_test(g, a, b, b_null=500, rng=derive_rng(8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < inference._CHUNK_BUDGET * 8


@pytest.mark.parametrize("phi", ["boot,boot", "boot,all"])
@pytest.mark.parametrize("n, k", [(1000, 50), (200, 10), (2000, 100)])
def test_a_resampled_simulator_chunk_holds_g_a_and_b_but_no_sorted_copy(phi, n, k, fresh_workspaces):
    # Every simulator draw precedes the chunk's first index draw, so G, A
    # and B's normals are alive at once: three chunk arrays is the floor.
    # They are the worker's workspace, made during the traced call. Gold's
    # sorted rows are the gathered G blocks, sorted in place in G's own
    # drawn rows; a sorted copy of gathered G read 4.13-4.53 arrays, a
    # chunk without a workspace 3.13-3.56, these read 3.11-3.45.
    c = inference._chunk_size(n, k)
    config = ExperimentConfig(n_items=n, k_responses=k, epsilon=0.02, metrics=METRICS,
                              phi=SamplingStrategy.parse(phi))
    tracemalloc.start()
    try:
        inference._alt_chunk_parametric(config, config.phi, (config.epsilon,), None, derive_rng(1, 2, 0), c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.75 * c * n * k * 8


def _fresh_chunk_peak(config, epsilons, c) -> int:
    """Traced peak bytes of one resampled alternative chunk at ``epsilons`` on a fresh workspace."""
    inference._LOCAL.__dict__.clear()
    tracemalloc.start()
    try:
        inference._alt_chunk_parametric(config, config.phi, epsilons, None, derive_rng(1, 2, 0), c)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n, k", [(1000, 50), (200, 10)])
def test_a_chunk_of_four_epsilons_builds_and_gathers_b_in_a_dead_rows(n, k, fresh_workspaces):
    # Every A block is scored before B's first is built, so each B block
    # for all four epsilons is built in A's workspace rows and gathered into
    # the rows after it. Four epsilons then cost no more than one beyond the
    # (c, N) item parameters (mu, sigma and the shift uniforms), which B's
    # blocks need until the last one and which one epsilon frees before the
    # index draws. Chunk arrays at four epsilons: 3.41 and 3.90 with B built
    # and gathered in new arrays, 3.21 and 3.77 here; one epsilon: 3.14, 3.45.
    c = inference._chunk_size(n, k)
    config = ExperimentConfig(n_items=n, k_responses=k, metrics=METRICS, phi=SamplingStrategy.parse("boot,boot"))
    one = _fresh_chunk_peak(config, (0.02,), c)
    four = _fresh_chunk_peak(config, (0.005, 0.01, 0.02, 0.1), c)
    chunk_array = c * n * k * 8
    assert four <= one + 3 * c * n * 8 + 0.05 * chunk_array


@pytest.mark.parametrize("phi", ["boot,boot", "all,boot"])
def test_a_second_resampled_chunk_on_one_worker_reuses_the_workspace(phi, fresh_workspaces):
    # The first chunk makes the thread's workspace; the second reuses it and
    # allocates no (c, N, K) array of its own (it read 0.12-0.14 of one).
    n, k = 1000, 50
    c = inference._chunk_size(n, k)
    config = ExperimentConfig(n_items=n, k_responses=k, epsilon=0.02, metrics=METRICS,
                              phi=SamplingStrategy.parse(phi))

    def chunk(lo):
        return inference._alt_chunk_parametric(config, config.phi, (config.epsilon,), None, derive_rng(1, 2, lo), c)

    chunk(0)
    tracemalloc.start()
    try:
        chunk(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < c * n * k * 8


def _score_bytes(entries) -> list:
    return [{m: np.asarray(s).tobytes() for m, s in entry.items()} for entry in entries]


@pytest.mark.parametrize("phi", PHIS)
def test_scores_do_not_read_what_an_earlier_chunk_left_in_the_workspace(phi, fresh_workspaces, monkeypatch):
    # Small row blocks, so each block's G rows and draws sit at their own
    # place in the workspace; NaN there between two runs must not show.
    monkeypatch.setattr(inference, "_BLOCK", 50)
    config = ExperimentConfig(n_items=12, k_responses=4, epsilon=0.05, metrics=METRICS,
                              phi=SamplingStrategy.parse(phi), prior=toxicity_prior(), family=ResponseFamily(5))

    def alt():
        return _score_bytes(inference._alt_chunk_parametric(config, config.phi, (0.05, 0.0), None,
                                                            derive_rng(3, 1, 0), 23))

    g, a, b = generate_triple(config.with_(epsilon=0.1), derive_rng(8))

    def bootstrap():
        return [multistage_bootstrap_test(g, a, b, metric, config.phi, b_null=41, rng=derive_rng(9))
                for metric in METRICS]

    want_alt, want_boot = alt(), bootstrap()
    assert _poison_workspace() > 0 or phi == "all,all"
    assert alt() == want_alt
    _poison_workspace()
    assert bootstrap() == want_boot


@pytest.mark.parametrize("threads", [1, 2])
def test_columns_of_changing_chunk_shape_equal_separate_experiments(threads, fresh_workspaces):
    # Each column's chunks have another (c, N, K) shape, so the workspace
    # grows and hands out smaller views between them; every cell must equal
    # its own run_experiment, which starts from a workspace filled with NaN.
    config = ExperimentConfig(b_alt=30, b_null=30, metrics=METRICS, phi=SamplingStrategy.parse("boot,boot"), seed=5)
    epsilons = (0.02, 0.1)
    columns = [(config.with_(n_items=n, k_responses=k), epsilons) for n, k in ((1000, 1), (100, 25), (1000, 50))]
    got = run_columns(columns, threads=threads)
    for (cfg, eps), reports in zip(columns, got):
        for e, report in zip(eps, reports):
            assert _poison_workspace() > 0
            assert report.to_json_dict() == run_experiment(cfg.with_(epsilon=e), threads=threads).to_json_dict()


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
    # (16 MB). Peak RSS over the import's own peak measured 3.7-4.2 such
    # arrays at 1 thread and 3.4-3.8 per thread at 2 (five runs per case,
    # 2 vCPU, Python 3.11, NumPy 2.4): flat in N * K and in b, so the bound
    # is six per thread. Chunks of twice the budget read 8.7 at 1 thread.
    # Each run is a fresh process, so the peak includes every chunk
    # workspace (three chunk arrays per worker) that the run makes and keeps.
    array_mb = inference._CHUNK_BUDGET * 8 / 2**20
    import_mb = _peak_rss_mb()
    for n, k, b in ((1000, 50, 80), (2000, 100, 40)):
        for threads in (1, 2):
            peak = _peak_rss_mb("pvalue", "--default-synthetic", "--epsilon", "0.02", "--phi", "boot,boot",
                                "--metric", "all", "--n", str(n), "--k", str(k), "--b-alt", str(b),
                                "--b-null", str(b), "--threads", str(threads))
            assert peak - import_mb <= 6 * array_mb * threads, (n, k, b, threads, peak, import_mb)
