import numpy as np
import pytest
from _oracles import p_value_oracle

from raterpower import (
    ExperimentConfig,
    Mode,
    ResponseMatrix,
    SamplingStrategy,
    build_null_pool,
    estimate_p_value,
    generate_triple,
    run_columns,
    run_experiment,
    resample_multistage,
    sample_null_pair,
)
from raterpower.errors import EmptySample, InvalidParam, ItemMismatch
from raterpower.inference import Direction
from raterpower.metrics import MetricId
from raterpower.rngstreams import derive_rng


def triple(seed=0, n=6, k=3, eps=0.1):
    config = ExperimentConfig(n_items=n, k_responses=k, epsilon=eps)
    return generate_triple(config, derive_rng(seed))


# -- resample_multistage ---------------------------------------------------------

def test_resample_identity_strategy():
    g, a, b = triple()
    g2, a2, b2 = resample_multistage(g, a, b, SamplingStrategy.parse("all,all"), derive_rng(1))
    for m, m2 in zip((g, a, b), (g2, a2, b2)):
        assert m.ids == m2.ids
        assert all(np.array_equal(r, r2) for r, r2 in zip(m.rows, m2.rows))


def test_resample_item_boot_preserves_pairing():
    g, a, b = triple()
    g2, a2, b2 = resample_multistage(g, a, b, SamplingStrategy.parse("boot,all"), derive_rng(2))
    source = {tuple(row): i for i, row in enumerate(map(tuple, a.rows))}
    for j in range(a2.n_items):
        i = source[tuple(a2.rows[j])]
        assert np.array_equal(g2.rows[j], g.rows[i])
        assert np.array_equal(b2.rows[j], b.rows[i])
        assert g2.ids[j] == g.ids[i]


def test_resample_response_boot_distribution():
    # Item {0,1} with K=2 resamples to {0,0}, {0,1}, {1,1} w.p. 1/4, 1/2, 1/4.
    g = ResponseMatrix.from_rows([("a", [0.0, 1.0])])
    counts = {0.0: 0, 0.5: 0, 1.0: 0}
    runs = 8000
    for seed in range(runs):
        g2, _, _ = resample_multistage(g, g, g, SamplingStrategy.parse("all,boot"), derive_rng(seed, 3))
        counts[float(g2.rows[0].mean())] += 1
    assert counts[0.0] / runs == pytest.approx(0.25, abs=0.02)
    assert counts[0.5] / runs == pytest.approx(0.50, abs=0.02)
    assert counts[1.0] / runs == pytest.approx(0.25, abs=0.02)


def test_resample_rejects_mismatched_ids():
    g, a, b = triple()
    other = ResponseMatrix(tuple(f"x{i}" for i in range(b.n_items)), b.rows)
    with pytest.raises(ItemMismatch):
        resample_multistage(g, a, other, SamplingStrategy.parse("all,all"), derive_rng(4))


# -- null pool ---------------------------------------------------------------------

def test_build_null_pool_union():
    a = ResponseMatrix.from_rows([("a", [0.0, 0.0])])
    b = ResponseMatrix.from_rows([("a", [1.0, 1.0])])
    pool = build_null_pool(a, b)
    assert sorted(pool.rows[0]) == [0.0, 0.0, 1.0, 1.0]


def test_build_null_pool_duplicates_when_equal():
    a = ResponseMatrix.from_rows([("a", [0.25, 0.75])])
    pool = build_null_pool(a, a)
    assert sorted(pool.rows[0]) == [0.25, 0.25, 0.75, 0.75]


def test_build_null_pool_size_contract():
    _, a, b = triple(n=5, k=4)
    pool = build_null_pool(a, b)
    assert all(row.size == 8 for row in pool.rows)


def test_sample_null_pair_degenerate_pool():
    pool = ResponseMatrix.from_rows([("a", [0.0, 0.0, 0.0, 0.0])])
    a0, b0 = sample_null_pair(pool, 2, derive_rng(5))
    assert list(a0.rows[0]) == [0.0, 0.0]
    assert list(b0.rows[0]) == [0.0, 0.0]


def test_sample_null_pair_rejects_k_of_wrong_length():
    pool = ResponseMatrix.from_rows([(str(i), [0.0, 0.5, 1.0, 0.5]) for i in range(3)])
    with pytest.raises(InvalidParam, match="k"):
        sample_null_pair(pool, [1, 2], derive_rng(5))


def test_sample_null_pair_support_and_frequency():
    pool = ResponseMatrix.from_rows([("a", [0.0, 1.0])])
    ones = 0
    runs = 4000
    for seed in range(runs):
        a0, _ = sample_null_pair(pool, 1, derive_rng(seed, 6))
        assert a0.rows[0][0] in (0.0, 1.0)
        ones += a0.rows[0][0] == 1.0
    assert ones / runs == pytest.approx(0.5, abs=0.02)


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
    values = b.to_array()
    values[2, 1] = bad
    b = ResponseMatrix.from_array(values)
    config = small_config(n_items=5, k_responses=3)
    with pytest.raises(ValueOutOfRange) as err:
        run_experiment(config, given=(g, a, b))
    assert err.value.item_id == "2"
