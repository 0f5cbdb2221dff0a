import numpy as np
import pytest
from _oracles import p_value_oracle

from raterpower import (
    ExperimentConfig,
    Mode,
    ResponseMatrix,
    SamplingStrategy,
    estimate_p_value,
    generate_triple,
    run_columns,
    run_experiment,
)
from raterpower.errors import EmptySample, InvalidParam, ItemMismatch
from raterpower.inference import _NO_RESAMPLE, Direction, _gather, _null_pool, _plan
from raterpower.metrics import MetricId, kernel_inputs
from raterpower.rngstreams import derive_rng


def triple(seed=0, n=6, k=3, eps=0.1):
    config = ExperimentConfig(n_items=n, k_responses=k, epsilon=eps)
    return generate_triple(config, derive_rng(seed))


RAGGED = tuple(ResponseMatrix.from_rows(list(zip("abc", rows))) for rows in (
    [[0.1, 0.2, 0.9], [0.3], [0.5, 0.6]],
    [[0.2, 0.25], [0.3, 0.5, 0.0], [0.6]],
    [[0.0, 0.4], [0.9, 0.7, 1.0], [0.1]],
))
LAYOUTS = {"rectangular": triple(), "ragged": RAGGED}


def _rows(x, c, step):
    """Per resample, the rows a ``_plan`` step gathers from x, each cut to its count."""
    y, counts = _gather(x, c, step)
    counts = np.broadcast_to(y.shape[-1], y.shape[:-1]) if counts is None else counts
    return [[row[:k] for row, k in zip(rows, ks)] for rows, ks in zip(y, counts)]


# -- the resampler ------------------------------------------------------------------
#
# Resampling has no public function: every resample runs along
# ``inference._plan`` inside a chunk. These tests draw c resamples of given
# matrices along one plan, as a given-data chunk does (``kernel_inputs``
# decides whether the rectangular or the per-row path runs).

def _resample(matrices, phi, rng, c=1):
    """c resamples of aligned matrices along one plan: per matrix, per resample, its rows."""
    arrays, counts = kernel_inputs(*matrices)
    sources = [(x.shape, k, None) for x, k in zip(arrays, counts or (None,) * len(arrays))]
    plan = _plan(rng, c, SamplingStrategy.parse(phi), sources)
    return [_rows(x, c, next(steps)) for x, steps in zip(arrays, plan)]


@pytest.mark.parametrize("layout", LAYOUTS)
def test_resample_identity_strategy(layout):
    matrices = LAYOUTS[layout]
    rng = derive_rng(1)
    state = rng.bit_generator.state
    for m, (rows,) in zip(matrices, _resample(matrices, "all,all", rng)):
        assert len(rows) == m.n_items
        assert all(np.array_equal(r, r2) for r, r2 in zip(m.rows, rows))
    assert rng.bit_generator.state == state  # nothing is drawn


@pytest.mark.parametrize("layout", LAYOUTS)
def test_resample_item_boot_preserves_pairing(layout):
    # One item draw serves G, A and B, and each drawn item keeps its rows whole.
    g, a, b = LAYOUTS[layout]
    source = {tuple(row): i for i, row in enumerate(a.rows)}
    drawn = set()
    for rows_g, rows_a, rows_b in zip(*_resample((g, a, b), "boot,all", derive_rng(2), c=20)):
        idx = [source[tuple(row)] for row in rows_a]
        drawn.add(tuple(idx))
        assert all(np.array_equal(row, g.rows[i]) for row, i in zip(rows_g, idx))
        assert all(np.array_equal(row, b.rows[i]) for row, i in zip(rows_b, idx))
    assert len(drawn) > 1


@pytest.mark.parametrize("layout", LAYOUTS)
def test_resample_response_boot_distribution(layout):
    # Item {0,1} with K=2 resamples to {0,0}, {0,1}, {1,1} w.p. 1/4, 1/2, 1/4;
    # padded beside a longer item, it still draws from its own two responses.
    rows = [("a", [0.0, 1.0])] + ([("b", [0.5, 0.5, 0.5])] if layout == "ragged" else [])
    g = ResponseMatrix.from_rows(rows)
    runs = 8000
    (resamples,) = _resample((g,), "all,boot", derive_rng(3), c=runs)
    assert all(len(items[0]) == 2 for items in resamples)
    means = np.array([items[0].mean() for items in resamples])
    assert set(means.tolist()) <= {0.0, 0.5, 1.0}
    assert np.mean(means == 0.0) == pytest.approx(0.25, abs=0.02)
    assert np.mean(means == 0.5) == pytest.approx(0.50, abs=0.02)
    assert np.mean(means == 1.0) == pytest.approx(0.25, abs=0.02)


# -- null pool ---------------------------------------------------------------------

def _null_draws(a, b, rng, c=1):
    """c null (A, B) pairs drawn as the null arms draw them: each from the items' pooled A+B responses."""
    pool, sizes = _null_pool(a, b)
    counts = None if kernel_inputs(a, b)[1] is None else sizes
    k = pool.shape[1] // 2 if counts is None else counts // 2
    plan = _plan(rng, c, _NO_RESAMPLE, [(pool.shape, counts, k)] * 2)  # A's, then B's
    return [_rows(pool, c, next(steps)) for steps in plan]


def test_null_pool_union():
    a = ResponseMatrix.from_rows([("a", [0.0, 0.0])])
    b = ResponseMatrix.from_rows([("a", [1.0, 1.0])])
    pool, counts = _null_pool(a, b)
    assert pool.tolist() == [[0.0, 0.0, 1.0, 1.0]] and counts.tolist() == [4]


def test_null_pool_duplicates_when_equal():
    a = ResponseMatrix.from_rows([("a", [0.25, 0.75])])
    pool, _ = _null_pool(a, a)
    assert pool.tolist() == [[0.25, 0.75, 0.25, 0.75]]


def test_null_pool_size_contract():
    _, a, b = triple(n=5, k=4)
    pool, counts = _null_pool(a, b)
    assert pool.shape == (5, 8) and counts.tolist() == [8] * 5


def test_null_pool_ragged_keeps_each_items_responses():
    a = ResponseMatrix.from_rows([("a", [0.1]), ("b", [0.2, 0.3])])
    b = ResponseMatrix.from_rows([("a", [0.4]), ("b", [0.5, 0.6])])
    pool, counts = _null_pool(a, b)
    assert counts.tolist() == [2, 4]
    assert np.array_equal(pool, [[0.1, 0.4, np.nan, np.nan], [0.2, 0.3, 0.5, 0.6]], equal_nan=True)


def test_null_pool_rejects_differing_counts():
    a = ResponseMatrix.from_rows([("a", [0.1, 0.2])])
    b = ResponseMatrix.from_rows([("a", [0.4, 0.5, 0.6])])
    with pytest.raises(ItemMismatch, match="per-item counts differ"):
        _null_pool(a, b)


def test_null_draws_degenerate_pool():
    a = ResponseMatrix.from_rows([("a", [0.0, 0.0])])
    for resamples in _null_draws(a, a, derive_rng(5), c=10):
        assert all(items[0].tolist() == [0.0, 0.0] for items in resamples)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_null_draws_support_and_frequency(layout):
    # Item a pools {0, 1}; padded beside a longer item, its draws never read the padding.
    rows = {"a": [("a", [0.0])], "b": [("a", [1.0])]}
    if layout == "ragged":
        rows = {m: r + [("b", [0.5, 0.5])] for m, r in rows.items()}
    a, b = (ResponseMatrix.from_rows(rows[m]) for m in "ab")
    runs = 4000
    for resamples in _null_draws(a, b, derive_rng(6), c=runs):
        drawn = np.array([items[0] for items in resamples])
        assert drawn.shape == (runs, 1) and set(drawn.ravel().tolist()) <= {0.0, 1.0}
        assert drawn.mean() == pytest.approx(0.5, abs=0.02)


# -- estimate_p_value -----------------------------------------------------------------

def test_estimate_p_value_separated():
    p, direction = estimate_p_value([0.6, 0.7, 0.8], [0.1, 0.2, 0.3, 0.4])
    assert direction == Direction.GREATER_EQUAL
    assert p == 0.0


def test_estimate_p_value_identical_sequences():
    p, direction = estimate_p_value([1, 2, 3], [1, 2, 3])
    assert direction == Direction.GREATER_EQUAL
    assert p == pytest.approx(2 / 3)


def test_estimate_p_value_lower_direction():
    p, direction = estimate_p_value([0.1], [0.2, 0.4])
    assert direction == Direction.LESS
    assert p == 0.0


def test_estimate_p_value_empty_rejected():
    with pytest.raises(EmptySample):
        estimate_p_value([], [1.0])


def test_estimate_p_value_matches_brute_force():
    rng = derive_rng(7)
    for trial in range(25):
        n_alt = int(rng.integers(1, 100))
        n_null = int(rng.integers(1, 100))
        alt = rng.normal(size=n_alt)
        null = rng.normal(size=n_null)
        if trial % 3 == 0:
            alt = np.round(alt, 1)
            null = np.round(null, 1)  # force ties across collections
        p, _ = estimate_p_value(alt, null)
        expected, _ = p_value_oracle(alt, null)
        assert p == pytest.approx(expected, abs=1e-12)


# -- run_experiment --------------------------------------------------------------------

def small_config(**kw):
    base = dict(
        n_items=40,
        k_responses=5,
        epsilon=0.1,
        b_alt=120,
        b_null=120,
        phi=SamplingStrategy.parse("all,boot"),
        seed=11,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_run_experiment_determinism_and_threads():
    config = small_config()
    r1 = run_experiment(config)
    r2 = run_experiment(config)
    r4 = run_experiment(config, threads=4)
    for m in config.metrics:
        assert r1.results[m].p_value == r2.results[m].p_value == r4.results[m].p_value


def test_run_experiment_null_true_calibration():
    config = small_config(epsilon=0.0, b_alt=400, b_null=400)
    ps = []
    for seed in range(6):
        report = run_experiment(config.with_(seed=seed))
        ps.append(report.results[MetricId.MAE].p_value)
    assert 0.35 < float(np.mean(ps)) < 0.65


def test_run_experiment_p_value_bounds_and_report_fields():
    report = run_experiment(small_config())
    for m, res in report.results.items():
        assert 0.0 <= res.p_value <= 1.0
        assert res.significant == (res.p_value < 0.05)
        assert res.alt_summary["count"] == 120
        assert res.null_summary["count"] == 120
    payload = report.to_json_dict()
    assert payload["schema_version"] == 1
    assert set(payload["results"]) == {"mae", "wins", "memd"}


def test_run_experiment_given_mode_rectangular():
    g, a, b = triple(seed=3, n=30, k=4, eps=0.15)
    config = small_config(n_items=30, k_responses=4, phi=SamplingStrategy.parse("boot,boot"))
    r1 = run_experiment(config, given=(g, a, b))
    r2 = run_experiment(config, given=(g, a, b), threads=3)
    for m in config.metrics:
        assert r1.results[m].p_value == r2.results[m].p_value


def test_run_experiment_given_mode_ragged():
    g = ResponseMatrix.from_rows([("a", [0.1, 0.4, 0.2]), ("b", [0.6, 0.9])])
    a = ResponseMatrix.from_rows([("a", [0.2, 0.3, 0.1]), ("b", [0.7, 0.8])])
    b = ResponseMatrix.from_rows([("a", [0.5, 0.6, 0.9]), ("b", [0.2, 0.4])])
    config = small_config(n_items=2, k_responses=2, b_alt=60, b_null=60, phi=SamplingStrategy.parse("boot,boot"))
    report = run_experiment(config, given=(g, a, b))
    for res in report.results.values():
        assert 0.0 <= res.p_value <= 1.0


@pytest.mark.parametrize("ragged", [False, True], ids=["rectangular", "ragged"])
def test_given_data_set_the_reported_mode_n_and_k(ragged):
    # The data decide: a request for N = 100, K = 10 on 7 items used to
    # raise (parametric mode takes no data) or, in bootstrap-of-given mode,
    # report n_items 100 and k_responses 10.
    rng = np.random.default_rng(8)
    sizes = [2, 3, 1, 3, 2, 1, 2] if ragged else [3] * 7
    g, a, b = (ResponseMatrix.from_rows((f"i{i}", rng.random(k)) for i, k in enumerate(sizes)) for _ in range(3))
    request = ExperimentConfig(n_items=100, k_responses=10, b_alt=9, b_null=7, seed=2)
    reports = [run_experiment(request, given=(g, a, b)),
               *run_columns([(request, (0.0, 0.2)), (request.with_(seed=3), (0.1,))], given=(g, a, b))[0]]
    for report in reports:
        assert report.mode is Mode.BOOTSTRAP_OF_GIVEN
        assert (report.config.n_items, report.config.k_responses) == (7, sizes[0])
        block = report.to_json_dict()["config"]
        assert (block["n_items"], block["k_responses"], block["mode"]) == (7, sizes[0], "bootstrap-of-given")
        assert list(block)[-2:] == ["mode", "prior"]
    assert reports[0].config == request.with_(n_items=7, k_responses=sizes[0])
    assert run_experiment(request.with_(n_items=4, k_responses=2)).to_json_dict()["config"]["mode"] == "parametric"


def test_monotone_sensitivity_in_epsilon():
    # Fixed (N, K) = (100, 25): smaller perturbations give larger p-values,
    # matching the published row 0.0004 < 0.2481 < 0.4192 for eps
    # 0.1, 0.02, 0.005. Median over 5 seeds.
    medians = {}
    for eps in (0.1, 0.02, 0.005):
        ps = []
        for seed in range(5):
            config = ExperimentConfig(
                n_items=100,
                k_responses=25,
                epsilon=eps,
                phi=SamplingStrategy.parse("all,boot"),
                seed=seed,
                metrics=(MetricId.WINS,),
            )
            ps.append(run_experiment(config, threads=2).p_value(MetricId.WINS))
        medians[eps] = float(np.median(ps))
    assert medians[0.1] < medians[0.02] < medians[0.005]


def test_mean_metric_scores_deterministic_and_keys():
    from raterpower import mean_metric_scores

    config = ExperimentConfig(n_items=30, k_responses=5, epsilon=0.05, seed=13)
    first = mean_metric_scores(config, 40)
    second = mean_metric_scores(config, 40, threads=3)
    assert first == second
    assert set(first[MetricId.MAE]) == {"score_a", "score_b", "comparison", "delta"}


def test_mean_metric_scores_rejects_zero_samples():
    from raterpower import mean_metric_scores

    with pytest.raises(InvalidParam):
        mean_metric_scores(ExperimentConfig(n_items=5, k_responses=2), 0)


def test_config_validation_errors():
    with pytest.raises(InvalidParam):
        ExperimentConfig(epsilon=-0.1)
    with pytest.raises(InvalidParam):
        ExperimentConfig(n_items=0)
    with pytest.raises(InvalidParam):
        ExperimentConfig(alpha=1.5)
    with pytest.raises(InvalidParam):
        SamplingStrategy.parse("all")
    with pytest.raises(InvalidParam):
        SamplingStrategy.parse("all,sometimes")


@pytest.mark.parametrize("bad", [3.0, float("nan"), -0.5])
def test_run_experiment_given_rejects_values_outside_unit_interval(bad):
    from raterpower.errors import ValueOutOfRange

    g, a, b = triple(seed=4, n=5, k=3)
    values = b.values.copy()
    values[2, 1] = bad
    b = ResponseMatrix.from_array(values)
    config = small_config(n_items=5, k_responses=3)
    with pytest.raises(ValueOutOfRange) as err:
        run_experiment(config, given=(g, a, b))
    assert err.value.item_id == "2"
