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
    build_null_pool,
    estimate_p_value,
    multistage_bootstrap_test,
    per_item_stats,
    resample_multistage,
    run_columns,
    run_experiment,
    sample_null_pair,
)
from raterpower import inference
from raterpower.errors import EmptyItem, ItemMismatch
from raterpower.inference import _summary
from raterpower.metrics import MetricId, batch_scores, kernel_inputs
from raterpower.power import per_item_errors
from raterpower.rngstreams import ALT, NULL, derive_rng

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
    got = batch_scores(METRICS, *arrays, counts=counts)
    assert {m.value: float(got[m]) for m in METRICS} == want
    if counts is not None:
        # The engine's batched form: one resample per chunk, shape (1, N, K_max).
        got = batch_scores(METRICS, *(x[None] for x in arrays),
                           counts=tuple(k[None] for k in counts))
        assert {m.value: float(got[m][0]) for m in METRICS} == want


@settings(max_examples=100, deadline=None)
@given(ragged_triples())
def test_per_item_reductions_match_rows(triple):
    g, a, _ = triple
    stats = per_item_stats(g)
    assert np.array_equal(stats.means, [row.mean() for row in g.rows])
    assert np.array_equal(stats.stds, [row.std() for row in g.rows])
    errors = [abs(x.mean() - y.mean()) for x, y in zip(a.rows, g.rows)]
    assert np.array_equal(per_item_errors(a, g), errors)


@settings(max_examples=150, deadline=None)
@given(ragged_triples(), st.sampled_from(PHIS), st.integers(min_value=0, max_value=2**32 - 1))
def test_resample_multistage_matches_row_draws(triple, phi, seed):
    g, a, b = triple
    strategy = SamplingStrategy.parse(phi)
    rng, oracle_rng = derive_rng(seed), derive_rng(seed)
    got = resample_multistage(g, a, b, strategy, rng)
    idx, want = resample_rows_oracle(
        g.rows, a.rows, b.rows, phi.startswith("boot"), phi.endswith("boot"), oracle_rng
    )
    for m, rows in zip(got, want):
        assert m.ids == tuple(g.ids[i] for i in idx)
        assert len(m.rows) == len(rows)
        assert all(np.array_equal(x, y) for x, y in zip(m.rows, rows))
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(ragged_triples(), st.integers(min_value=0, max_value=2**32 - 1))
def test_sample_null_pair_matches_row_draws(triple, seed):
    _, a, b = triple
    pool = build_null_pool(a, b)
    rng, oracle_rng = derive_rng(seed), derive_rng(seed)
    got = sample_null_pair(pool, a.counts(), rng)
    want = null_pair_rows_oracle(pool.rows, a.counts(), oracle_rng)
    for m, rows in zip(got, want):
        assert m.ids == pool.ids
        assert all(np.array_equal(x, y) for x, y in zip(m.rows, rows))
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
    items_boot, responses_boot = phi.startswith("boot"), phi.endswith("boot")
    alt = [
        scores_rows_oracle(*resample_rows_oracle(
            g.rows, a.rows, b.rows, items_boot, responses_boot, derive_rng(13, ALT, j))[1])
        for j in range(config.b_alt)
    ]
    pool = build_null_pool(a, b).rows
    null = [
        scores_rows_oracle(g.rows, *null_pair_rows_oracle(pool, a.counts(), derive_rng(13, NULL, j)))
        for j in range(config.b_null)
    ]
    for threads in (1, 2):
        report = run_experiment(config, given=(g, a, b), threads=threads)
        for m in METRICS:
            alt_m = np.array([s[m.value] for s in alt])
            null_m = np.array([s[m.value] for s in null])
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
