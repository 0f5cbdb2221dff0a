"""Ragged data on the batched engine, checked against list-of-rows oracles.

Ragged matrices are stored, and enter the engine, NaN-padded with per-item
counts. The kernel reduces them count bucket by count bucket and the
resampler draws every row's indices in one call, so scores and draws must
equal the item-by-item computations in ``_oracles`` bit for bit, and a
resample, or a bootstrap test, must leave the generator in the same state.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from _oracles import (
    bootstrap_test_rows_oracle,
    null_pair_rows_oracle,
    ragged_scores_oracle,
    resample_rows_oracle,
    scores_rows_oracle,
)

from raterpower import (
    ExperimentConfig,
    ResponseMatrix,
    SamplingStrategy,
    estimate_p_value,
    multistage_bootstrap_test,
    per_item_stats,
    run_columns,
    run_experiment,
)
from raterpower import inference
from raterpower.errors import EmptyItem, ItemMismatch
from raterpower.inference import _summary
from raterpower.metrics import MetricId, comparison, kernel_inputs, model_items, pair_scores, prepare_gold
from raterpower.rngstreams import derive_rng

METRICS = (MetricId.MAE, MetricId.WINS, MetricId.MEMD)
PHIS = ("all,all", "boot,all", "all,boot", "boot,boot")

continuous = st.floats(min_value=0.0, max_value=1.0, allow_subnormal=False)
five_level = st.integers(min_value=0, max_value=4).map(lambda v: v / 4.0)


@st.composite
def ragged_triples(draw):
    """(G, A, B) with 1-12 responses per item; A and B share counts, G may not."""
    values = draw(st.sampled_from([continuous, five_level]))
    n = draw(st.integers(min_value=1, max_value=8))
    rows = {"G": [], "A": [], "B": []}
    for _ in range(n):
        k = draw(st.integers(min_value=1, max_value=12))
        kg = draw(st.one_of(st.just(k), st.integers(min_value=1, max_value=12)))
        for name, size in (("G", kg), ("A", k), ("B", k)):
            rows[name].append(draw(st.lists(values, min_size=size, max_size=size)))
    ids = [f"i{i}" for i in range(n)]
    return tuple(ResponseMatrix.from_rows(list(zip(ids, rows[m]))) for m in "GAB")


@settings(max_examples=200, deadline=None)
@given(ragged_triples())
def test_kernel_matches_row_scoring(triple):
    g, a, b = triple
    want = scores_rows_oracle(g.rows, a.rows, b.rows)
    arrays, counts = kernel_inputs(g, a, b)
    cases = [(arrays, counts or (None,) * 3)]
    if counts is not None:
        # The engine's batched form: one resample per chunk, shape (1, N, K_max).
        cases.append(([x[None] for x in arrays], [k[None] for k in counts]))
    for (xg, xa, xb), (cg, ca, cb) in cases:
        gold = prepare_gold(METRICS, xg, cg)
        scores = pair_scores(METRICS, model_items(gold, xa, ca), model_items(gold, xb, cb))
        assert {m.value: float(np.squeeze(comparison(m, *scores[m]))) for m in METRICS} == want


@settings(max_examples=100, deadline=None)
@given(ragged_triples())
def test_per_item_reductions_match_rows(triple):
    g, a, _ = triple
    stats = per_item_stats(g)
    assert np.array_equal(stats.means, [row.mean() for row in g.rows])
    assert np.array_equal(stats.stds, [row.std() for row in g.rows])
    errors = [abs(x.mean() - y.mean()) for x, y in zip(a.rows, g.rows)]
    (xg, xa), counts = kernel_inputs(g, a)
    cg, ca = counts or (None, None)
    assert np.array_equal(model_items(prepare_gold((MetricId.MAE,), xg, cg), xa, ca)[0], errors)


def _gathered(x, c, step):
    """Per resample, the rows a ``_plan`` step gathers from x, each cut to its count."""
    y, counts = inference._gather(x, c, step)
    counts = np.broadcast_to(y.shape[-1], y.shape[:-1]) if counts is None else counts
    return [[row[:k] for row, k in zip(rows, ks)] for rows, ks in zip(y, counts)]


@settings(max_examples=150, deadline=None)
@given(ragged_triples(), st.sampled_from(PHIS), st.integers(min_value=0, max_value=2**32 - 1))
def test_resample_matches_row_draws(triple, phi, seed):
    # One resample along ``_plan``, its sources as a given-data chunk builds
    # them: rectangular when ``kernel_inputs`` finds no counts, else per row.
    arrays, counts = kernel_inputs(*triple)
    sources = [(x.shape, k, None) for x, k in zip(arrays, counts or (None,) * 3)]
    rng, oracle_rng = derive_rng(seed), derive_rng(seed)
    plan = inference._plan(rng, 1, SamplingStrategy.parse(phi), sources)
    got = [_gathered(x, 1, next(steps))[0] for x, steps in zip(arrays, plan)]
    _, want = resample_rows_oracle(*(m.rows for m in triple), phi.startswith("boot"), phi.endswith("boot"),
                                   oracle_rng)
    for rows, want_rows in zip(got, want):
        assert len(rows) == len(want_rows)
        assert all(np.array_equal(x, y) for x, y in zip(rows, want_rows))
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(ragged_triples(), st.integers(min_value=0, max_value=2**32 - 1))
def test_null_pair_matches_row_draws(triple, seed):
    # The null arms' draw: A's, then B's, per-item counts from each item's pooled A+B responses.
    _, a, b = triple
    pool, sizes = inference._null_pool(a, b)
    counts = None if kernel_inputs(a, b)[1] is None else sizes
    k = pool.shape[1] // 2 if counts is None else counts // 2
    rng, oracle_rng = derive_rng(seed), derive_rng(seed)
    plan = inference._plan(rng, 1, inference._NO_RESAMPLE, [(pool.shape, counts, k)] * 2)
    got = [_gathered(pool, 1, next(steps))[0] for steps in plan]
    want = null_pair_rows_oracle([row[:n] for row, n in zip(pool, sizes)], a.counts(), oracle_rng)
    for rows, want_rows in zip(got, want):
        assert all(np.array_equal(x, y) for x, y in zip(rows, want_rows))
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("phi", PHIS)
@pytest.mark.parametrize("source", ["given", "drawn"])
def test_rectangular_plan_is_one_draw_per_array_in_any_blocks(source, phi):
    # Rectangular sources draw one (c, N) item draw, then one (c, N, K)
    # response draw per array; row blocks split each draw without changing
    # it, and a drawn (c, N, K) source's block reads its own resamples' rows.
    c, n, k, spans = 5, 4, 3, [(0, 2), (2, 3), (3, 5)]
    values = np.random.default_rng(0).random((3, c, n, k) if source == "drawn" else (3, n, k))
    rng, oracle_rng = derive_rng(7), derive_rng(7)
    plan = inference._plan(rng, c, SamplingStrategy.parse(phi), [(x.shape, None, None) for x in values], spans)
    got = [np.concatenate([inference._gather(x if x.ndim == 2 else x[lo:hi], hi - lo, step)[0]
                           for (lo, hi), step in zip(spans, steps)])
           for x, steps in zip(values, plan)]
    rows = oracle_rng.integers(0, n, (c, n)) if phi.startswith("boot") else np.broadcast_to(np.arange(n), (c, n))
    for x, y in zip(values, got):
        want = np.take_along_axis(np.broadcast_to(x, (c, n, k)), rows[..., None], axis=1)
        if phi.endswith("boot"):
            want = np.take_along_axis(want, oracle_rng.integers(0, k, (c, n, k)), axis=2)
        assert np.array_equal(y, want)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def _ragged_given():
    rng = np.random.default_rng(17)
    counts = [3, 1, 5, 2, 7, 4, 4, 6]
    gold_counts = [3, 2, 5, 6, 7, 1, 4, 9]
    ids = [f"i{i}" for i in range(len(counts))]

    def matrix(sizes, shift):
        return ResponseMatrix.from_rows(
            (i, np.clip(rng.normal(0.4 + shift, 0.2, k), 0.0, 1.0)) for i, k in zip(ids, sizes)
        )

    return matrix(gold_counts, 0.0), matrix(counts, 0.0), matrix(counts, 0.1)


@pytest.mark.parametrize("phi", PHIS)
def test_run_experiment_ragged_matches_row_loop(phi):
    # The per-resample loop the engine replaced: resample j of each arm has
    # its own generator derive_rng(seed, arm, j).
    g, a, b = _ragged_given()
    config = ExperimentConfig(
        n_items=g.n_items, k_responses=3, b_alt=25, b_null=20, phi=SamplingStrategy.parse(phi), seed=13,
    )
    want = ragged_scores_oracle(g, a, b, phi.startswith("boot"), phi.endswith("boot"),
                                config.b_alt, config.b_null, config.seed)
    for threads in (1, 2):
        report = run_experiment(config, given=(g, a, b), threads=threads)
        for m in METRICS:
            alt_m, null_m = want[m.value]
            result = report.results[m]
            assert (result.p_value, result.direction) == estimate_p_value(alt_m, null_m)
            assert result.alt_summary == _summary(alt_m)
            assert result.null_summary == _summary(null_m)


@pytest.mark.parametrize("phi", PHIS)
def test_ragged_chunking_is_free(phi, monkeypatch):
    # Resample j of an arm owns derive_rng(seed, arm, j), so the scores must
    # equal the one-resample-at-a-time oracle whatever the chunk size.
    g, a, b = _ragged_given()
    config = ExperimentConfig(
        n_items=g.n_items, k_responses=3, b_alt=23, b_null=17, metrics=METRICS,
        phi=SamplingStrategy.parse(phi), seed=29,
    )
    want = ragged_scores_oracle(g, a, b, phi.startswith("boot"), phi.endswith("boot"),
                                config.b_alt, config.b_null, config.seed)
    scores = []
    report = inference._report
    monkeypatch.setattr(inference, "_report",
                        lambda cfg, alt, null, mode: scores.append((alt, null)) or report(cfg, alt, null, mode))
    floats = g.n_items * kernel_inputs(g, a, b)[0][0].shape[-1]
    for chunk in (1, 7, config.b_alt):
        monkeypatch.setattr(inference, "_CHUNK_BUDGET", chunk * floats)
        for threads in (1, 2):
            scores.clear()
            run_columns([(config, (0.0, 0.1))], given=(g, a, b), threads=threads)
            assert len(scores) == 2
            for alt, null in scores:
                for m in METRICS:
                    assert alt[m].tobytes() == want[m.value][0].tobytes()
                    assert null[m].tobytes() == want[m.value][1].tobytes()


def test_run_experiment_rejects_empty_ragged_item():
    g, a, b = _ragged_given()
    rows = list(g.rows)
    rows[2] = np.empty(0)
    config = ExperimentConfig(n_items=g.n_items, b_alt=5, b_null=5)
    with pytest.raises(EmptyItem):
        run_experiment(config, given=(ResponseMatrix(g.ids, tuple(rows)), a, b))


def test_padded_round_trip():
    m = ResponseMatrix.from_rows([("a", [0.5, 0.25, 1.0]), ("b", [0.0]), ("c", [0.75, 0.5])])
    values, counts = m.values, m.counts()
    assert values.shape == (3, 3)
    assert list(counts) == [3, 1, 2]
    assert np.isnan(values[1, 1:]).all() and np.isnan(values[2, 2])
    back = ResponseMatrix.from_padded(values, counts, m.ids)
    assert back.ids == m.ids
    assert all(np.array_equal(x, y) for x, y in zip(back.rows, m.rows))


def _bootstrap_case(g, a, b, metric, phi, seed, b_null=23):
    """(engine p, oracle p) of the bootstrap test on one triple, and whether both generators end alike."""
    strategy = SamplingStrategy.parse(phi)
    got_rng, want_rng = derive_rng(seed), derive_rng(seed)
    got = multistage_bootstrap_test(g, a, b, metric, strategy, b_null=b_null, rng=got_rng)
    chunk = inference._chunk_size(*kernel_inputs(g, a, b)[0][0].shape)
    want = bootstrap_test_rows_oracle(g.rows, a.rows, b.rows, metric.value, phi.startswith("boot"),
                                      phi.endswith("boot"), b_null, chunk, want_rng)
    return got, want, got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("phi", PHIS)
@pytest.mark.parametrize("metric", METRICS)
def test_bootstrap_test_ragged_matches_row_oracle(phi, metric, monkeypatch):
    # A small chunk budget gives the null loop several chunks, the last one short.
    monkeypatch.setattr(inference, "_CHUNK_BUDGET", 5 * 8 * 9)
    g, a, b = _ragged_given()
    got, want, same_state = _bootstrap_case(g, a, b, metric, phi, 43)
    assert got == want
    assert same_state
    assert 0.0 < got <= 1.0


@pytest.mark.parametrize("phi", PHIS)
@pytest.mark.parametrize("metric", METRICS)
def test_bootstrap_test_rectangular_gold_of_another_k_matches_row_oracle(phi, metric, monkeypatch):
    monkeypatch.setattr(inference, "_CHUNK_BUDGET", 5 * 8 * 4)
    rng = np.random.default_rng(19)
    ids = [f"i{i}" for i in range(8)]
    g, a, b = (ResponseMatrix.from_array(rng.random((8, k)), ids) for k in (4, 3, 3))
    got, want, same_state = _bootstrap_case(g, a, b, metric, phi, 47)
    assert got == want
    assert same_state


@settings(max_examples=60, deadline=None)
@given(ragged_triples(), st.sampled_from(PHIS), st.sampled_from(METRICS),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_bootstrap_test_matches_row_oracle_on_any_triple(triple, phi, metric, seed):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(inference, "_CHUNK_BUDGET", 64)
        got, want, same_state = _bootstrap_case(*triple, metric, phi, seed, b_null=9)
    assert got == want
    assert same_state


def test_bootstrap_test_rejects_a_and_b_of_different_counts():
    g, a, b = _ragged_given()
    with pytest.raises(ItemMismatch):
        multistage_bootstrap_test(g, a, g, b_null=5, rng=derive_rng(1))
