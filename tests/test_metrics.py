import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from _oracles import emd_transport_oracle, scores_rows_oracle

from raterpower import ExperimentConfig, ResponseMatrix, emd_1d, evaluate, generate_triple
from raterpower.errors import EmptyItem, ItemMismatch
from raterpower.metrics import MetricId, comparison, kernel_inputs, model_items, pair_scores, prepare_gold, triple_items
from raterpower.rngstreams import derive_rng

MAE, WINS, MEMD = MetricId.MAE, MetricId.WINS, MetricId.MEMD


def matrix(*rows, ids=None):
    ids = ids or [str(i) for i in range(len(rows))]
    return ResponseMatrix.from_rows(list(zip(ids, rows)))


# Dyadic floats keep oracle comparisons exact.
dyadic = st.integers(min_value=0, max_value=64).map(lambda v: v / 64.0)
collections = st.lists(dyadic, min_size=1, max_size=6)


def test_score_mae_identity():
    g = matrix([0.0, 1.0])
    assert evaluate(MAE, g, g, g).score_a == 0.0


def test_score_mae_hand_value():
    g = matrix([0.0, 1.0])
    m = matrix([1.0, 1.0])
    assert evaluate(MAE, m, m, g).score_a == pytest.approx(0.5)


def test_gamma_mae_trivial_cases():
    g = matrix([0.0, 0.0])
    a = matrix([0.0, 0.0])
    b = matrix([1.0, 1.0])
    assert evaluate(MAE, a, a, g).comparison == 0.0
    assert evaluate(MAE, a, b, g).comparison == pytest.approx(1.0)


def test_gamma_mae_antisymmetry():
    rng = derive_rng(21)
    g = matrix(rng.random(4), rng.random(4), rng.random(4))
    a = matrix(rng.random(4), rng.random(4), rng.random(4))
    b = matrix(rng.random(4), rng.random(4), rng.random(4))
    assert evaluate(MAE, a, b, g).comparison == pytest.approx(-evaluate(MAE, b, a, g).comparison)


def test_gamma_wins_all_ties():
    g = matrix([0.3, 0.4])
    a = matrix([0.5, 0.5])
    res = evaluate(WINS, a, a, g)
    assert res.score_a == 0.0
    assert res.score_b == 0.0
    assert res.tie_fraction == 1.0


def test_gamma_wins_sweep():
    g = matrix([0.0, 0.0], ids=["x", "y"])
    a = matrix([0.0, 0.0], ids=["x", "y"])
    b = matrix([1.0, 1.0], ids=["x", "y"])
    assert evaluate(WINS, a, b, g).score_a == 1.0


def test_gamma_wins_split():
    g = matrix([0.0], [0.0], ids=["x", "y"])
    a = matrix([0.0], [1.0], ids=["x", "y"])
    b = matrix([1.0], [0.0], ids=["x", "y"])
    res = evaluate(WINS, a, b, g)
    assert res.score_a == 0.5
    assert res.score_b == 0.5


def test_wins_partition_sums_to_one():
    rng = derive_rng(22)
    g = matrix(*[rng.random(3) for _ in range(20)])
    a = matrix(*[rng.random(3) for _ in range(20)])
    b = matrix(*[rng.random(3) for _ in range(20)])
    res = evaluate(WINS, a, b, g)
    assert res.score_a + res.score_b + res.tie_fraction == pytest.approx(1.0)


def test_emd_trivial_cases():
    assert emd_1d([0.5, 0.25], [0.25, 0.5]) == 0.0
    assert emd_1d([0.0], [1.0]) == 1.0
    assert emd_1d([0.0, 1.0], [1.0, 1.0]) == pytest.approx(0.5)


def test_emd_empty_rejected():
    with pytest.raises(EmptyItem):
        emd_1d([], [0.5])


@settings(max_examples=150, deadline=None)
@given(collections, collections)
def test_emd_matches_transport_oracle(x, y):
    assert emd_1d(x, y) == pytest.approx(emd_transport_oracle(x, y), abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(collections, collections, collections)
def test_emd_metric_properties(x, y, z):
    dxy = emd_1d(x, y)
    assert dxy >= 0
    assert dxy == pytest.approx(emd_1d(y, x), abs=1e-12)
    assert dxy <= emd_1d(x, z) + emd_1d(z, y) + 1e-12
    assert emd_1d(x, x) == pytest.approx(0.0, abs=1e-12)


def test_emd_zero_iff_equal_multisets():
    assert emd_1d([0.25, 0.5], [0.5, 0.25]) == 0.0
    assert emd_1d([0.25, 0.5], [0.25, 0.25]) > 0


def test_memd_trivial_and_hand_values():
    g = matrix([0.0, 0.0])
    a = matrix([0.0, 0.0])
    b = matrix([1.0, 1.0])
    assert evaluate(MEMD, a, a, g).comparison == 0.0
    assert evaluate(MEMD, a, b, g).comparison == pytest.approx(1.0)


def test_memd_ragged_support():
    g = ResponseMatrix.from_rows([("a", [0.0, 0.5, 1.0]), ("b", [0.2, 0.4])])
    m = ResponseMatrix.from_rows([("a", [0.5, 0.5]), ("b", [0.2, 0.4, 0.6])])
    expected = np.mean(
        [emd_transport_oracle([0.0, 0.5, 1.0], [0.5, 0.5]),
         emd_transport_oracle([0.2, 0.4], [0.2, 0.4, 0.6])]
    )
    assert evaluate(MEMD, m, m, g).score_a == pytest.approx(expected, abs=1e-12)


def test_item_mismatch_and_empty_item():
    g = matrix([0.1], ids=["a"])
    m = matrix([0.1], ids=["b"])
    with pytest.raises(ItemMismatch):
        evaluate(MAE, m, m, g)
    bad = ResponseMatrix.from_rows([("a", [])])
    with pytest.raises(EmptyItem):
        evaluate(MAE, bad, bad, matrix([0.1], ids=["a"]))


def test_permutation_invariance():
    rng = derive_rng(23)
    rows_g = [rng.random(5) for _ in range(10)]
    rows_a = [rng.random(5) for _ in range(10)]
    rows_b = [rng.random(5) for _ in range(10)]
    ids = [f"i{j}" for j in range(10)]
    g = ResponseMatrix.from_rows(list(zip(ids, rows_g)))
    a = ResponseMatrix.from_rows(list(zip(ids, rows_a)))
    b = ResponseMatrix.from_rows(list(zip(ids, rows_b)))
    order = rng.permutation(10)
    shuffle = lambda rows: [rows[i][::-1] for i in order]
    ids2 = [ids[i] for i in order]
    g2 = ResponseMatrix.from_rows(list(zip(ids2, shuffle(rows_g))))
    a2 = ResponseMatrix.from_rows(list(zip(ids2, shuffle(rows_a))))
    b2 = ResponseMatrix.from_rows(list(zip(ids2, shuffle(rows_b))))
    for metric in (MAE, WINS, MEMD):
        assert evaluate(metric, a, b, g).comparison == pytest.approx(evaluate(metric, a2, b2, g2).comparison)


def test_batched_kernel_agrees_with_evaluate():
    rng = derive_rng(24)
    g3 = rng.random((3, 6, 4))
    a3 = rng.random((3, 6, 4))
    b3 = rng.random((3, 6, 4))
    metrics = (MAE, WINS, MEMD)
    gold = prepare_gold(metrics, g3)
    scores = pair_scores(metrics, model_items(gold, a3), model_items(gold, b3))
    for i in range(3):
        g = ResponseMatrix.from_array(g3[i])
        a = ResponseMatrix.from_array(a3[i])
        b = ResponseMatrix.from_array(b3[i])
        for metric in metrics:
            assert comparison(metric, *scores[metric])[i] == pytest.approx(evaluate(metric, a, b, g).comparison)


def _triples(layout):
    """One (G, A, B) of ``layout``, or three for "batched", as ResponseMatrix triples."""
    rng = derive_rng(25)
    if layout == "ragged":
        counts, counts_g = [3, 1, 5, 2], [2, 4, 1, 3]
        return [tuple(ResponseMatrix.from_rows([(str(i), rng.random(k)) for i, k in enumerate(ks)])
                      for ks in (counts_g, counts, counts))]
    return [tuple(ResponseMatrix.from_array(rng.random((6, 4))) for _ in "gab")
            for _ in range(3 if layout == "batched" else 1)]


@pytest.mark.parametrize("layout", ["rectangular", "ragged", "batched"])
@pytest.mark.parametrize("metric", [MAE, WINS, MEMD])
def test_triple_items_matches_row_scoring(metric, layout):
    # The one helper that scores a triple: gold prepared once, then A's and
    # B's per-item quantities, for (..., N, K) batches and ragged triples.
    triples = _triples(layout)
    arrays, counts = kernel_inputs(*triples[0])
    if layout == "batched":
        arrays = tuple(np.stack([t[i].values for t in triples]) for i in range(3))
    _, qa, qb = triple_items((metric,), *arrays, counts)
    got = np.atleast_1d(comparison(metric, *pair_scores((metric,), qa, qb)[metric]))
    want = [scores_rows_oracle(*(m.rows for m in t))[metric.value] for t in triples]
    assert got.tolist() == want


def test_memd_paper_scale_regression():
    # Raw per-model MEMD averaged over the published (N, K) grid is ~0.077;
    # published tables report ~1.2091 for the same quantity, an undocumented
    # scaled variant. The documented display factor must land inside the
    # reproduction window.
    from raterpower import ExperimentConfig, SamplingStrategy, mean_metric_scores
    from raterpower.cli import MEMD_PAPER_SCALE

    grid = [(n, k) for n in (25, 50, 100, 250, 500, 1000) for k in (1, 5, 10, 25, 50, 100)]
    total = 0.0
    for (n, k) in grid:
        config = ExperimentConfig(
            n_items=n, k_responses=k, epsilon=0.005,
            phi=SamplingStrategy.parse("all,boot"), seed=42, metrics=(MetricId.MEMD,),
        )
        total += mean_metric_scores(config, 25, threads=2)[MetricId.MEMD]["score_a"]
    raw = total / len(grid)
    assert abs(raw * MEMD_PAPER_SCALE - 1.2091) <= 0.15


def test_comparisons_centered_at_zero_under_null():
    # eps=0 makes A and B exchangeable; each comparison metric's mean over
    # seeds stays within 2 standard errors of zero.
    config = ExperimentConfig(n_items=30, k_responses=4, epsilon=0.0)
    values = {"mae": [], "memd": [], "wins_gap": []}
    for seed in range(500):
        g, a, b = generate_triple(config, derive_rng(seed, 55))
        values["mae"].append(evaluate(MAE, a, b, g).comparison)
        values["memd"].append(evaluate(MEMD, a, b, g).comparison)
        res = evaluate(WINS, a, b, g)
        values["wins_gap"].append(res.score_a - res.score_b)
    for name, seq in values.items():
        seq = np.asarray(seq)
        stderr = seq.std(ddof=1) / np.sqrt(seq.size)
        assert abs(seq.mean()) < 2 * stderr + 1e-12, name
