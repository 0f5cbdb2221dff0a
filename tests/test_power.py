import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from _oracles import (
    bootstrap_test_oracle,
    permutation_enumeration_oracle,
    power_trial_oracle,
    wilcoxon_enumeration_oracle,
)

from raterpower import (
    ExperimentConfig,
    ItemPrior,
    ResponseMatrix,
    SamplingStrategy,
    TestId,
    default_synthetic_prior,
    estimate_power,
    generate_triple,
    multistage_bootstrap_test,
    per_item_errors,
    permutation_test_paired,
    power_sweeps,
    welch_t_test,
    wilcoxon_signed_rank,
)
from raterpower import inference, power, rngstreams
from raterpower.cli import main
from raterpower.distributions import uniform
from raterpower.errors import (
    AllZeroDifferences,
    DegenerateVariance,
    EmptyItem,
    InvalidParam,
    ItemMismatch,
)
from raterpower.metrics import MetricId
from raterpower.rngstreams import derive_rng


def matrix(*rows, ids=None):
    ids = ids or [str(i) for i in range(len(rows))]
    return ResponseMatrix.from_rows(list(zip(ids, rows)))


# -- per_item_errors ------------------------------------------------------------

def test_per_item_errors_identity():
    g = matrix([0.2, 0.4], [0.6])
    assert list(per_item_errors(g, g)) == [0.0, 0.0]


def test_per_item_errors_hand_value():
    g = matrix([0.0, 1.0])
    m = matrix([1.0, 1.0])
    assert list(per_item_errors(m, g)) == [pytest.approx(0.5)]


def test_per_item_errors_shape_and_checks():
    g = matrix([0.1], [0.2], [0.3])
    assert per_item_errors(g, g).shape == (3,)
    with pytest.raises(ItemMismatch):
        per_item_errors(g, matrix([0.1], [0.2], [0.3], ids=["a", "b", "c"]))
    with pytest.raises(EmptyItem):
        per_item_errors(ResponseMatrix.from_rows([("0", [])]), matrix([0.1], ids=["0"]))


@pytest.mark.parametrize("ragged", [False, True], ids=["rectangular", "ragged"])
def test_per_item_errors_scores_the_model_once(ragged, monkeypatch):
    # The errors used to come from a triple (G, M, M), which scored M twice.
    from raterpower import metrics

    calls, original = [], metrics.model_items

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(metrics, "model_items", spy)
    monkeypatch.setattr(power, "model_items", spy, raising=False)
    g = matrix([0.0, 1.0], [0.5], [0.25, 0.75]) if ragged else matrix([0.0, 1.0], [0.5, 0.5], [0.25, 0.75])
    m = matrix([1.0, 1.0], [0.0], [0.5, 0.5]) if ragged else matrix([1.0, 1.0], [0.0, 0.25], [0.5, 0.5])
    err = per_item_errors(m, g)
    assert len(calls) == 1
    want = [abs(np.mean(x) - np.mean(y)) for x, y in zip(m.rows, g.rows)]
    assert err.tolist() == want


# -- Welch ------------------------------------------------------------------------

def test_welch_identical_samples():
    assert welch_t_test([1, 2, 3], [1, 2, 3]) == pytest.approx(0.5)


def test_welch_hand_computed_example():
    # t = 2.1909, Welch-Satterthwaite df = 6; survival from the regularized
    # incomplete beta, cross-checked against scipy.stats.t.sf.
    p = welch_t_test([1, 2, 3, 4], [3, 4, 5, 6])
    assert p == pytest.approx(0.0354938, abs=1e-6)


def test_welch_one_sided_symmetry():
    x = [0.1, 0.5, 0.3, 0.9]
    y = [0.2, 0.8, 0.4, 0.7]
    assert welch_t_test(x, y) + welch_t_test(y, x) == pytest.approx(1.0)


def test_welch_matches_scipy():
    from scipy import stats

    rng = derive_rng(31)
    for _ in range(10):
        x = rng.normal(size=rng.integers(2, 40))
        y = rng.normal(0.3, 1.3, size=rng.integers(2, 40))
        expected = stats.ttest_ind(y, x, equal_var=False, alternative="greater").pvalue
        assert welch_t_test(x, y) == pytest.approx(expected, abs=1e-10)


def test_welch_spread_whose_squares_underflow():
    # Welch-Satterthwaite's squares underflow to 0/0 below a spread of about
    # 1e-93; the variance shares give df = ny - 1 = 1 and t = 1, so
    # p = P(T_1 > 1) = 1/4, as at a spread of 1e-70.
    assert welch_t_test([0, 0], [0, 5.77e-94]) == pytest.approx(0.25, abs=1e-12)
    assert welch_t_test([0, 0], [0, 1e-70]) == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("scale", [1e-60, 1e-80, 1e-100, 1e-120, 1e-150])
def test_welch_p_does_not_depend_on_the_samples_scale(scale):
    # t and df are scale-free; below a scale of about 1e-77 the squares of
    # v/n underflow, where the variance shares still give df.
    x, y = np.array([0.1, 0.4, 0.35, 0.8]), np.array([0.5, 0.9, 0.7])
    assert welch_t_test(x * scale, y * scale) == pytest.approx(welch_t_test(x, y), rel=1e-12)


def test_welch_degenerate_variance():
    with pytest.raises(DegenerateVariance):
        welch_t_test([1.0, 1.0], [1.0, 1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_welch_rejects_non_finite(bad):
    with pytest.raises(InvalidParam):
        welch_t_test([0.1, bad, 0.3], [0.2, 0.4, 0.6])
    with pytest.raises(InvalidParam):
        welch_t_test([0.1, 0.2, 0.3], [0.2, 0.4, bad])


# -- Wilcoxon ---------------------------------------------------------------------

def test_wilcoxon_all_positive():
    assert wilcoxon_signed_rank([1, 2, 3]) == pytest.approx(1 / 8)


def test_wilcoxon_all_negative():
    assert wilcoxon_signed_rank([-1, -2, -3]) == pytest.approx(1.0)


def test_wilcoxon_drops_zeros_and_rejects_all_zero():
    assert wilcoxon_signed_rank([0.0, 1.0, 2.0, 3.0]) == pytest.approx(1 / 8)
    with pytest.raises(AllZeroDifferences):
        wilcoxon_signed_rank([0.0, 0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_wilcoxon_rejects_non_finite(bad):
    # Short input used to fail on a negative array size, long input to return NaN.
    with pytest.raises(InvalidParam):
        wilcoxon_signed_rank([0.1, bad, 0.3])
    with pytest.raises(InvalidParam):
        wilcoxon_signed_rank([*np.linspace(0.1, 1.0, 25), bad])


_TIE_PRONE = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_TIE_PRONE, st.floats(allow_nan=False, allow_infinity=False)), max_size=60))
def test_average_ranks_equal_scipy_rankdata(values):
    from scipy.stats import rankdata

    x = np.array(values, dtype=float)
    got, want = power._average_ranks(x)[0], rankdata(x)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_TIE_PRONE, st.floats(allow_nan=False, allow_infinity=False)), min_size=1, max_size=60))
def test_average_ranks_tie_sizes_equal_unique_counts(values):
    # The Wilcoxon normal approximation's tie correction takes these sizes.
    x = np.abs(np.array(values, dtype=float))
    got, want = power._average_ranks(x)[1], np.unique(x, return_counts=True)[1]
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_wilcoxon_exact_matches_enumeration():
    rng = derive_rng(32)
    for m in (1, 2, 5, 8, 12):
        for _ in range(4):
            d = np.round(rng.normal(size=m), 1)  # rounding creates ties
            if not np.any(d != 0):
                continue
            assert wilcoxon_signed_rank(d) == pytest.approx(
                wilcoxon_enumeration_oracle(d), abs=1e-12
            )


def test_wilcoxon_approximation_close_to_exact_at_cutoff():
    rng = derive_rng(33)
    from raterpower import power as power_mod

    for _ in range(6):
        d = rng.normal(0.3, 1.0, size=20)
        exact = wilcoxon_signed_rank(d)
        # Recompute on 21 values (just over the exact cutoff) is a different
        # problem, so instead force the approximation on the same data.
        ranks_path = power_mod._WILCOXON_EXACT_MAX
        try:
            power_mod._WILCOXON_EXACT_MAX = 0
            approx = wilcoxon_signed_rank(d)
        finally:
            power_mod._WILCOXON_EXACT_MAX = ranks_path
        assert approx == pytest.approx(exact, abs=0.02)


# -- permutation --------------------------------------------------------------------

def test_permutation_exact_hand_example():
    assert permutation_test_paired([0.0, 0.0], [1.0, 1.0]) == pytest.approx(1 / 4)


def test_permutation_identical_samples():
    assert permutation_test_paired([0.5, 0.25], [0.5, 0.25]) == 1.0


def test_permutation_monte_carlo_bounds():
    rng = derive_rng(34)
    x = rng.random(40)
    y = rng.random(40)
    p = permutation_test_paired(x, y, iterations=500, rng=derive_rng(35))
    assert 0.0 < p <= 1.0


# p of the test below at the last commit that drew every generator's signs
# through ``integers``: each bit generator's p is pinned, not only its formula.
_BLOCKED_PERMUTATION_P = {"PCG64": 0.872255489021956, "MT19937": 0.8842315369261478,
                          "Philox": 0.872255489021956}


def _same_state(a, b) -> bool:
    """Equal bit generator state dicts; MT19937 and Philox hold arrays."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[key], b[key]) for key in a)
    return np.array_equal(a, b)


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937, np.random.Philox],
                         ids=lambda bit_generator: bit_generator.__name__)
def test_permutation_monte_carlo_blocks_keep_the_stream(bit_generator, monkeypatch):
    # The signs of all iterations drawn in one call, as before row blocks.
    # PCG64 reads its signs from raw words (``rngstreams.signs``); other bit
    # generators draw them through ``integers``; both keep p and state.
    x, y = derive_rng(34).random((2, 40))

    def generator():
        return np.random.Generator(bit_generator(np.random.SeedSequence(35)))

    want_rng = generator()
    signs = want_rng.integers(0, 2, (500, 40)) * 2 - 1
    d = y - x
    want = (1 + int(((signs * d).mean(axis=1) >= d.mean()).sum())) / 501
    assert want == _BLOCKED_PERMUTATION_P[bit_generator.__name__]
    monkeypatch.setattr(inference, "_BLOCK", 130)  # 3 rows a block, the last one short
    got_rng = generator()
    assert permutation_test_paired(x, y, iterations=500, rng=got_rng) == want
    assert _same_state(got_rng.bit_generator.state, want_rng.bit_generator.state)


_ROW_BLOCKS = st.sampled_from([(655, 50), (65, 503)])  # permutation row blocks at N = 50 and 503


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), half_used=st.booleans(),
       shapes=st.lists(st.one_of(st.tuples(st.integers(0, 9), st.integers(0, 9)), _ROW_BLOCKS),
                       min_size=1, max_size=3))
def test_signs_equal_integer_draws_and_leave_the_same_state(seed, half_used, shapes):
    # Zero-size, odd and even counts up to row-block size, a fresh or
    # half-used 64-bit output, and calls in a row: values and the whole state
    # dict (the buffered word too) equal NumPy's. A NumPy that changes its
    # bounded draw or PCG64's buffering fails here first.
    fast, slow = derive_rng(seed), derive_rng(seed)
    if half_used:  # one 32-bit draw leaves the other half of a 64-bit output buffered
        for rng in (fast, slow):
            rng.integers(0, 10)
        assert fast.bit_generator.state["has_uint32"] == 1
    for shape in shapes:
        want = slow.integers(0, 2, shape, dtype=np.int32) * 2 - 1
        got = rngstreams.signs(fast, shape)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert fast.bit_generator.state == slow.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(high=st.integers(1, 2**31 - 1), rows=st.integers(0, 6), cols=st.integers(1, 7),
       seed=st.integers(0, 2**32 - 1), half_used=st.booleans())
def test_int32_draws_consume_the_generator_as_int64_draws(high, rows, cols, seed, half_used):
    # The permutation test draws its signs as int32 and keeps the stream of
    # int64 draws: NumPy draws every bound below 2^32 with one 32-bit draw per
    # value at either width. A NumPy that breaks this fails here first.
    narrow_rng, wide_rng = derive_rng(seed), derive_rng(seed)
    if half_used:  # one 32-bit draw leaves the other half of a 64-bit output buffered
        for rng in (narrow_rng, wide_rng):
            rng.integers(0, 10)
        assert narrow_rng.bit_generator.state["has_uint32"] == 1
    narrow = narrow_rng.integers(0, high, (rows, cols), dtype=np.int32)
    wide = wide_rng.integers(0, high, (rows, cols))
    assert np.array_equal(narrow, wide)
    assert narrow_rng.bit_generator.state == wide_rng.bit_generator.state


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_permutation_rejects_non_finite(bad):
    # A NaN difference used to compare false everywhere and give p = 0.
    with pytest.raises(InvalidParam):
        permutation_test_paired([0.1, 0.2, bad], [0.3, 0.4, 0.5])
    with pytest.raises(InvalidParam):
        permutation_test_paired(np.full(40, 0.1), [*np.full(39, 0.2), bad], rng=derive_rng(1))


def test_permutation_exact_matches_enumeration():
    rng = derive_rng(36)
    for n in (1, 2, 4, 8, 12):
        for _ in range(3):
            x = rng.integers(0, 65, n) / 64.0
            y = rng.integers(0, 65, n) / 64.0
            assert permutation_test_paired(x, y) == pytest.approx(
                permutation_enumeration_oracle(x, y), abs=0.0
            )


# -- multistage bootstrap test ---------------------------------------------------------

def test_bootstrap_test_rejects_strong_effect():
    config = ExperimentConfig(n_items=400, k_responses=10, epsilon=0.3)
    g, a, b = generate_triple(config, derive_rng(37))
    p = multistage_bootstrap_test(g, a, b, rng=derive_rng(38))
    assert p < 0.01


def test_bootstrap_test_calibrated_under_null():
    config = ExperimentConfig(n_items=60, k_responses=5, epsilon=0.0)
    ps = []
    for seed in range(40):
        g, a, b = generate_triple(config.with_(seed=seed), derive_rng(seed, 39))
        ps.append(multistage_bootstrap_test(g, a, b, b_null=200, rng=derive_rng(seed, 40)))
    assert 0.35 < float(np.mean(ps)) < 0.65
    assert (np.asarray(ps) < 0.05).mean() < 0.15


@pytest.mark.parametrize("phi", ["boot,boot", "all,boot", "boot,all", "all,all"])
@pytest.mark.parametrize("metric", [MetricId.MAE, MetricId.WINS, MetricId.MEMD])
def test_bootstrap_test_matches_chunk_loop(phi, metric, monkeypatch):
    # A small chunk budget gives the null loop several chunks, the last one short.
    monkeypatch.setattr(inference, "_CHUNK_BUDGET", 150)
    config = ExperimentConfig(n_items=12, k_responses=5, epsilon=0.1, seed=3)
    g, a, b = generate_triple(config, derive_rng(41))
    strategy = SamplingStrategy.parse(phi)
    items, responses = (level.value == "boot" for level in (strategy.items, strategy.responses))
    got_rng, want_rng = derive_rng(42), derive_rng(42)
    got = multistage_bootstrap_test(g, a, b, metric, strategy, b_null=23, rng=got_rng)
    want = bootstrap_test_oracle(
        g.values, a.values, b.values, metric, items, responses, 23,
        inference._chunk_size(12, 5), want_rng,
    )
    assert got == want
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


# -- estimate_power ---------------------------------------------------------------------

def test_welch_rejects_one_item_before_any_trial(monkeypatch):
    from raterpower import power as power_mod

    monkeypatch.setattr(power_mod, "_chunk_p_values", lambda *args: pytest.fail("ran a trial"))
    config = ExperimentConfig(n_items=5, k_responses=3, epsilon=0.1)
    with pytest.raises(InvalidParam):
        estimate_power(config.with_(n_items=1), TestId.WELCH_T, trials=2)
    with pytest.raises(InvalidParam):
        power_sweeps(config, (TestId.WELCH_T,), 2, "n_items", (5, 1))


@pytest.mark.parametrize("axis", ["n_items", "k_responses"])
def test_an_empty_sweep_raises_before_any_trial(axis, monkeypatch):
    # An empty sweep used to return reports with no points.
    monkeypatch.setattr(power, "_chunk_p_values", lambda *args: pytest.fail("ran a trial"))
    config = ExperimentConfig(n_items=5, k_responses=3, epsilon=0.1)
    with pytest.raises(InvalidParam, match="at least one value"):
        power.sweep_configs(config, (TestId.PERMUTATION_PAIRED,), axis, ())
    with pytest.raises(InvalidParam, match="at least one value"):
        power_sweeps(config, tuple(TestId), 2, axis, ())


@pytest.mark.parametrize("axis", ["n_items", "k_responses"])
def test_a_non_integer_sweep_value_raises_naming_the_axis(axis):
    # Used to truncate: (2.7, 3.9) swept N = 2 and 3.
    config = ExperimentConfig(n_items=5, k_responses=3, epsilon=0.1)
    for values in ((2.7, 3.9), (4, 5.0), ("4",)):
        with pytest.raises(InvalidParam, match="integer") as err:
            power.sweep_configs(config, (TestId.PERMUTATION_PAIRED,), axis, values)
        assert err.value.name == axis


def test_single_trial_power_is_binary():
    config = ExperimentConfig(n_items=30, k_responses=3, epsilon=0.2, seed=2)
    report = estimate_power(config, TestId.WELCH_T, trials=1)
    assert report.points[0].power in (0.0, 1.0)


def test_estimate_power_deterministic_across_threads():
    config = ExperimentConfig(n_items=40, k_responses=4, epsilon=0.15, seed=3, b_null=100)
    for test in TestId:
        r1 = estimate_power(config, test, trials=16, threads=1)
        r2 = estimate_power(config, test, trials=16, threads=4)
        assert r1.points[0].rejections == r2.points[0].rejections


def test_power_grows_with_n():
    config = ExperimentConfig(n_items=50, k_responses=5, epsilon=0.15, seed=4)
    (report,) = power_sweeps(config, (TestId.WELCH_T,), trials=60, axis="n_items", values=(30, 400))
    assert report.points[1].power > report.points[0].power


def test_power_report_json(tmp_path):
    out = tmp_path / "power.json"
    assert main(["power", "--default-synthetic", "--test", "bootstrap", "--n", "25", "--k", "3", "--epsilon", "0.2",
                 "--seed", "5", "--b-null", "80", "--trials", "8", "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 1
    assert payload["kind"] == "power_report"
    assert list(payload["tests"]) == ["bootstrap"]
    assert payload["tests"]["bootstrap"][0]["trials"] == 8
    # The bootstrap test scores the first metric, MAE by default.
    config = ExperimentConfig(n_items=25, k_responses=3, epsilon=0.2, seed=5, b_null=80)
    assert config.metrics[0] == MetricId.MAE
    report = estimate_power(config, TestId.MULTISTAGE_BOOTSTRAP, trials=8)
    assert payload["tests"]["bootstrap"] == [point.to_json_dict() for point in report.points]


# -- one simulation per trial ------------------------------------------------------------

SHUFFLED = (TestId.PERMUTATION_PAIRED, TestId.WILCOXON_SIGNED_RANK,
            TestId.MULTISTAGE_BOOTSTRAP, TestId.WELCH_T)


@pytest.mark.parametrize("n, prior, epsilon", [
    (12, default_synthetic_prior(), 0.15),  # exact permutation test
    (40, default_synthetic_prior(), 0.15),  # Monte Carlo permutation test
    (12, ItemPrior(uniform(0.0, 1.0), uniform(0.0, 0.0)), 0.0),  # no evidence: p = 1
])
def test_trial_p_values_equal_each_test_alone(n, prior, epsilon):
    config = ExperimentConfig(n_items=n, k_responses=4, epsilon=epsilon, prior=prior,
                              b_null=60, seed=9)
    for trial in range(3):
        want = {test: power_trial_oracle(config, test, trial) for test in TestId}
        for tests in (tuple(TestId), SHUFFLED):
            assert dict(zip(tests, power._trial_p_value(config, tests, trial))) == want
        if epsilon == 0.0:
            assert set(want.values()) == {1.0}


def test_power_sweeps_same_rejections_at_any_thread_count():
    config = ExperimentConfig(n_items=20, k_responses=3, epsilon=0.15, seed=4, b_null=40)
    runs = [power_sweeps(config, SHUFFLED, 20, "n_items", (12, 30), threads=t) for t in (1, 2, 3)]
    assert runs[0] == runs[1] == runs[2]
    assert runs[0] == [power_sweeps(config, (test,), 20, "n_items", (12, 30))[0] for test in SHUFFLED]


def test_power_all_simulates_each_trial_once(tmp_path, monkeypatch):
    # Each call simulates a batch of trials, one generator per trial: count the rows.
    rows = []
    simulate = power.simulate_batch
    monkeypatch.setattr(power, "simulate_batch", lambda *args: rows.append(len(args[1])) or simulate(*args))
    code = main([
        "power", "--default-synthetic", "--test", "all", "--n-sweep", "12,20,30", "--k", "3",
        "--epsilon", "0.1", "--trials", "10", "--b-null", "20", "--seed", "1", "--threads", "2",
        "--out", str(tmp_path / "power.csv"),
    ])
    assert code == 0
    assert sum(rows) == 3 * 10


# -- stopping a trial's Monte Carlo tests at alpha -----------------------------------------

def _stopped_verdicts(config, tests, trials):
    """Check every trial's stopped p against its full p; return the full verdicts per test."""
    verdicts = {test: set() for test in tests}
    for trial in trials:
        full = power._trial_p_value(config, tests, trial)
        stopped = power._trial_p_value(config, tests, trial, config.alpha)
        assert list(np.less(stopped, config.alpha)) == list(np.less(full, config.alpha))
        for test, f, s in zip(tests, full, stopped):
            assert s == f if f < config.alpha else config.alpha <= s <= f
            verdicts[test].add(bool(f < config.alpha))
    return verdicts


NO_EVIDENCE = ItemPrior(uniform(0.0, 1.0), uniform(0.0, 0.0))


@pytest.mark.parametrize("n, prior, epsilon", [
    (12, default_synthetic_prior(), 0.15),  # exact permutation test
    (40, default_synthetic_prior(), 0.15),  # Monte Carlo permutation test
    (12, NO_EVIDENCE, 0.0),  # no evidence: p = 1
    (40, NO_EVIDENCE, 0.0),
])
def test_stopped_trials_keep_every_verdict(n, prior, epsilon, monkeypatch):
    # Small row blocks give each Monte Carlo test several blocks to stop after
    # (the bootstrap test's 60 resamples: 2 blocks at N = 12, 6 at N = 40).
    monkeypatch.setattr(inference, "_BLOCK", 400)
    config = ExperimentConfig(n_items=n, k_responses=4, epsilon=epsilon, prior=prior,
                              b_null=60, seed=9)
    verdicts = _stopped_verdicts(config, tuple(TestId), range(8))
    if epsilon == 0.0:
        assert all(v == {False} for v in verdicts.values())
    else:
        assert verdicts[TestId.PERMUTATION_PAIRED] == {True, False}
        assert verdicts[TestId.MULTISTAGE_BOOTSTRAP] == {True, False}


@pytest.mark.parametrize("phi", ["boot,boot", "all,boot", "boot,all", "all,all"])
@pytest.mark.parametrize("metric", [MetricId.MAE, MetricId.WINS, MetricId.MEMD])
def test_stopped_bootstrap_keeps_the_verdict(phi, metric, monkeypatch):
    # Several chunks of several row blocks each (5 blocks over 3 chunks): a
    # stop may skip whole chunks.
    monkeypatch.setattr(inference, "_BLOCK", 400)
    monkeypatch.setattr(inference, "_CHUNK_BUDGET", 2000)
    config = ExperimentConfig(n_items=20, k_responses=4, epsilon=0.1, metrics=(metric,),
                              phi=SamplingStrategy.parse(phi), b_null=60, seed=9)
    _stopped_verdicts(config, (TestId.MULTISTAGE_BOOTSTRAP,), range(8))


def test_a_bootstrap_p_equal_to_alpha_is_no_rejection(monkeypatch):
    monkeypatch.setattr(inference, "_BLOCK", 800)  # 10 resamples a block
    config = ExperimentConfig(n_items=20, k_responses=4, epsilon=0.1, b_null=99, seed=9, alpha=0.05)
    tests = (TestId.MULTISTAGE_BOOTSTRAP,)
    # 4 of 99 null scores at least as extreme: p = (1 + 4) / (1 + 99), the float 0.05.
    assert power._trial_p_value(config, tests, 16) == [0.05]
    assert power._trial_p_value(config, tests, 16, 0.05) == [0.05]
    assert _stopped_verdicts(config, tests, [16]) == {tests[0]: {False}}


def test_a_stopped_trial_scores_fewer_blocks(monkeypatch):
    monkeypatch.setattr(inference, "_BLOCK", 800)
    blocks = []

    def counted(blocks_of):
        def wrapper(*args, **kwargs):
            for block in blocks_of(*args, **kwargs):
                blocks.append(block)
                yield block
        return wrapper

    monkeypatch.setattr(power, "_null_blocks", counted(inference._null_blocks))
    monkeypatch.setattr(power, "_spans", counted(inference._spans))
    config = ExperimentConfig(n_items=40, k_responses=4, epsilon=0.0, b_null=60, seed=9)
    tests = (TestId.MULTISTAGE_BOOTSTRAP, TestId.PERMUTATION_PAIRED)
    counts = []
    for alpha in (None, config.alpha):
        for test in tests:
            blocks.clear()
            p = power._trial_p_value(config, (test,), 1, alpha)[0]
            assert p >= config.alpha
            counts.append(len(blocks))
    (boot_full, perm_full), (boot_stopped, perm_stopped) = counts[:2], counts[2:]
    assert boot_stopped < boot_full == 3  # 60 resamples of 20 a block (4 x _BLOCK floats)
    assert perm_stopped < perm_full == 50  # 1000 rows of 20 a block
