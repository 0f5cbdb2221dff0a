"""One input check: every entry point that takes matrices or raw values rejects bad input.

A valid (G, A, B) input shares item ids, has at least one item, at least
one response per item and every response in [0, 1]; every function that
takes response matrices from outside checks this through
``simulator.check_matrices``. Functions that take raw value arrays reject
NaN and infinities with ``InvalidParam``, and every resample, trial, item
or response count must be an integer >= 1. One table: each entry point
against each fault, planted in A (or in the one matrix it takes); every
entry point also takes a valid ragged triple. A Hypothesis property holds
``check_matrices`` to a value-by-value oracle on ragged, rectangular and
zero-item inputs.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from _oracles import check_rows_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from raterpower import (
    ExperimentConfig,
    Family,
    SamplingStrategy,
    TestId,
    ItemStats,
    ResponseMatrix,
    check_matrices,
    ecdf,
    emd_1d,
    estimate_p_value,
    estimate_power,
    fit_prior,
    mean_metric_scores,
    multistage_bootstrap_test,
    per_item_errors,
    per_item_stats,
    permutation_test_paired,
    power_sweeps,
    run_columns,
    run_experiment,
    stat_distance,
    welch_t_test,
    wilcoxon_signed_rank,
)
from raterpower.dataio import load_responses, save_matrix
from raterpower.distributions import uniform
from raterpower.errors import EmptyItem, InvalidParam, ItemMismatch, RaterPowerError, ValueOutOfRange
from raterpower.metrics import MetricId, evaluate
from raterpower import power
from raterpower.rngstreams import derive_rng, stream_states

IDS = ("a", "b", "c")
ROWS = {"g": [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]],
        "a": [[0.2, 0.2], [0.3, 0.5], [0.6, 0.6]],
        "b": [[0.0, 0.4], [0.9, 0.7], [0.1, 1.0]]}
# A valid ragged input: A and B share per-item counts, G has its own.
RAGGED = {"g": [[0.1, 0.2, 0.9], [0.3], [0.5, 0.6]],
          "a": [[0.2, 0.2], [0.3, 0.5, 0.0], [0.6]],
          "b": [[0.0, 0.4], [0.9, 0.7, 1.0], [0.1]]}
CONFIG = ExperimentConfig(n_items=3, k_responses=2, b_alt=5, b_null=5)

# fault -> (the error it raises, whether it needs a second matrix)
FAULTS = {
    "nan": (ValueOutOfRange, False),
    "3.0": (ValueOutOfRange, False),
    "-inf": (ValueOutOfRange, False),
    "item without responses": (EmptyItem, False),
    "no items": (EmptyItem, False),
    "mismatched ids": (ItemMismatch, True),
}


def _load(m, tmp_path):
    path = tmp_path / "a.jsonl"
    save_matrix(m, path)  # NaN and infinities go out as JSON's NaN and -Infinity
    return load_responses(path)


# entry point -> call on (G, A, B, tmp_path); the single-matrix ones take A.
ENTRY_POINTS = {
    "load_responses": (lambda g, a, b, tmp: _load(a, tmp), False),
    "run_experiment": (lambda g, a, b, tmp: run_experiment(CONFIG, given=(g, a, b)), True),
    "run_columns": (lambda g, a, b, tmp: run_columns([(CONFIG, (0.0,)), (CONFIG, (0.0, 0.1))], given=(g, a, b)),
                    True),
    "multistage_bootstrap_test": (
        lambda g, a, b, tmp: multistage_bootstrap_test(g, a, b, b_null=20, rng=derive_rng(1)), True),
    "per_item_errors": (lambda g, a, b, tmp: per_item_errors(a, g), True),
    **{f"evaluate {metric.value}": ((lambda g, a, b, tmp, metric=metric: evaluate(metric, a, b, g)), True)
       for metric in MetricId},
    "per_item_stats": (lambda g, a, b, tmp: per_item_stats(a), False),
    "check_matrices": (lambda g, a, b, tmp: check_matrices(g, a, b), True),
}


def _triple(fault: str | None, rows=ROWS):
    """(G, A, B) with ``fault`` planted in A's second item (or in every matrix, for no items)."""
    g, a, b = (ResponseMatrix(IDS, tuple(np.array(r) for r in rows[m])) for m in "gab")
    if fault is None:
        return g, a, b
    if fault == "no items":
        return (ResponseMatrix((), ()),) * 3
    rows, ids = list(a.rows), IDS
    if fault == "item without responses":
        rows[1] = np.empty(0)
    elif fault == "mismatched ids":
        ids = ("a", "x", "c")
    else:
        rows[1] = np.array([0.3, float(fault)])
    return g, ResponseMatrix(ids, tuple(rows)), b


CASES = [
    pytest.param(entry, fault, id=f"{entry}-{fault}")
    for entry, (_, takes_pairs) in ENTRY_POINTS.items()
    for fault, (_, needs_pairs) in FAULTS.items()
    if takes_pairs or not needs_pairs
]


@pytest.mark.parametrize("entry, fault", CASES)
def test_matrix_entry_point_rejects_bad_input(entry, fault, tmp_path):
    call, _ = ENTRY_POINTS[entry]
    error, _ = FAULTS[fault]
    with pytest.raises(error) as err:
        call(*_triple(fault), tmp_path)
    if error is ValueOutOfRange:
        # The error names the offending response, as the file loaders always did.
        assert err.value.item_id == "b"
        assert str(err.value.value) == fault or (fault == "nan" and math.isnan(err.value.value))


@pytest.mark.parametrize("entry, rows", [pytest.param(e, ROWS, id=e) for e in ENTRY_POINTS]
                         + [pytest.param(e, RAGGED, id=f"{e}-ragged") for e in ENTRY_POINTS])
def test_matrix_entry_point_accepts_valid_input(entry, rows, tmp_path):
    ENTRY_POINTS[entry][0](*_triple(None, rows), tmp_path)


OK = [0.1, 0.2, 0.3]
RAW_ENTRY_POINTS = {
    "estimate_p_value alt": lambda bad: estimate_p_value(bad, OK),
    "estimate_p_value null": lambda bad: estimate_p_value(OK, bad),
    "emd_1d x": lambda bad: emd_1d(bad, OK),
    "emd_1d y": lambda bad: emd_1d(OK, bad),
    "ecdf": lambda bad: ecdf(bad),
    "stat_distance": lambda bad: stat_distance(bad, uniform(0.0, 1.0), 50, derive_rng(1)),
    "ItemStats means": lambda bad: ItemStats(np.array(bad), np.array(OK)),
    "ItemStats stds": lambda bad: ItemStats(np.array(OK), np.array(bad)),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", RAW_ENTRY_POINTS)
def test_raw_value_entry_point_rejects_non_finite(entry, bad):
    with pytest.raises(InvalidParam):
        RAW_ENTRY_POINTS[entry]([0.1, bad, 0.3])


responses = st.one_of(st.floats(min_value=-0.5, max_value=1.5, allow_subnormal=False),
                      st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0]))


@st.composite
def matrix_sets(draw):
    """1-3 (ids, rows) pairs, ragged, rectangular or without items; some ids, rows or values bad."""
    n = draw(st.integers(min_value=0, max_value=5))
    shape = draw(st.sampled_from(["ragged", "rectangular"]))
    k = draw(st.integers(min_value=0, max_value=4))
    ids = [f"i{i}" for i in range(n)]
    matrices = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        m_ids = ids if draw(st.integers(0, 9)) else ids[::-1] + ["x"]
        rows = [draw(st.lists(responses, min_size=k if shape == "rectangular" else 0,
                              max_size=k if shape == "rectangular" else 4))
                for _ in m_ids]
        matrices.append((m_ids, rows))
    return matrices


def _outcome(check, *args):
    """(error type, message, item, repr of the value) that ``check`` raises, or None."""
    try:
        check(*args)
    except RaterPowerError as err:
        value = getattr(err, "value", None)
        return type(err), str(err), getattr(err, "item_id", None), None if value is None else repr(value)
    return None


@settings(max_examples=300, deadline=None)
@given(matrix_sets())
def test_check_matrices_matches_row_check(matrices):
    built = [ResponseMatrix(ids, rows) for ids, rows in matrices]
    assert _outcome(check_matrices, *built) == _outcome(check_rows_oracle, *matrices)


SMALL = ExperimentConfig(n_items=3, k_responses=2, b_alt=5, b_null=5)
# entry point -> call with one count set to ``bad``. The permutation test
# checks its iterations at N = 20, where it draws Monte Carlo signs, and at
# N = 3, where it enumerates every sign pattern (it used to return 0.125).
COUNT_ENTRY_POINTS = {
    "multistage_bootstrap_test b_null": lambda bad: multistage_bootstrap_test(
        *_triple(None), b_null=bad, rng=derive_rng(1)),
    "permutation_test_paired iterations": lambda bad: permutation_test_paired(
        np.zeros(20), np.linspace(0, 1, 20), iterations=bad, rng=derive_rng(1)),
    "permutation_test_paired iterations exact": lambda bad: permutation_test_paired(
        [0.1, 0.2, 0.3], [0.2, 0.3, 0.5], iterations=bad),
    "mean_metric_scores n_samples": lambda bad: mean_metric_scores(SMALL, bad),
    "estimate_power trials": lambda bad: estimate_power(SMALL, TestId.WELCH_T, bad),
    "power_sweeps trials": lambda bad: power_sweeps(SMALL, tuple(TestId), bad, "n_items", (3,)),
    "run_experiment n_items": lambda bad: run_experiment(SMALL.with_(n_items=bad)),
    "run_experiment k_responses": lambda bad: run_experiment(SMALL.with_(k_responses=bad)),
    "run_experiment b_alt": lambda bad: run_experiment(SMALL.with_(b_alt=bad)),
    "run_experiment b_null": lambda bad: run_experiment(SMALL.with_(b_null=bad)),
    "stat_distance sim_count": lambda bad: stat_distance(OK, uniform(0.0, 1.0), bad, derive_rng(1)),
    "fit_prior sim_count": lambda bad: _fit(sim_count=bad),
    # The library used to run serially on threads 0 or -1, which the CLI rejects.
    "run_experiment threads": lambda bad: run_experiment(SMALL, threads=bad),
    "run_columns threads": lambda bad: run_columns([(SMALL, (0.0,))], threads=bad),
    "mean_metric_scores threads": lambda bad: mean_metric_scores(SMALL, 2, threads=bad),
    "power_sweeps threads": lambda bad: power_sweeps(SMALL, (TestId.WELCH_T,), 2, "n_items", (3,), threads=bad),
    "fit_prior threads": lambda bad: _fit(threads=bad),
    # levels=2.5 used to map labels by 1.5, then fail with ValueOutOfRange.
    "load_responses levels": lambda bad: _load_levels(bad),
}


def _fit(**kwargs):
    """``fit_prior`` of a one-point uniform grid on three items."""
    return fit_prior(ItemStats(np.array(OK), np.array(OK)), Family.UNIFORM, {"lo": (0.0,), "hi": (1.0,)}, **kwargs)


def _load_levels(levels):
    """``load_responses`` of a one-item file of the labels 1, 2 and 3 under ``levels``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "labels.jsonl"
        path.write_text('{"item_id": "a", "responses": [1, 2, 3]}\n', encoding="utf-8")
        return load_responses(path, levels=levels)


def test_load_responses_takes_an_integer_level_count():
    assert _load_levels(3).rows[0].tolist() == [0.0, 0.5, 1.0]
    with pytest.raises(InvalidParam, match="integer"):
        _load_levels(5.0)  # used to pass silently, as 5


@pytest.mark.parametrize("bad", [0, -1, -5, 2.5, 1.0, "3", True], ids=["0", "-1", "-5", "2.5", "1.0", "str", "True"])
@pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
def test_count_entry_point_rejects_non_counts(entry, bad):
    with pytest.raises(InvalidParam):
        COUNT_ENTRY_POINTS[entry](bad)


# entry point -> (call with one sample set to ``bad``, the sample's name).
SAMPLE_ENTRY_POINTS = {
    "welch_t_test x": (lambda bad: welch_t_test(bad, OK), "x"),
    "welch_t_test y": (lambda bad: welch_t_test(OK, bad), "y"),
    "wilcoxon_signed_rank d": (lambda bad: wilcoxon_signed_rank(bad), "d"),
    "permutation_test_paired x": (lambda bad: permutation_test_paired(bad, OK), "x"),
    "permutation_test_paired y": (lambda bad: permutation_test_paired(OK, bad), "y"),
}


@pytest.mark.parametrize("bad", [[[0.1, 0.2, 0.3], [0.2, 0.3, 0.5]], [OK], 0.2], ids=["2x3", "1x3", "scalar"])
@pytest.mark.parametrize("entry", SAMPLE_ENTRY_POINTS)
def test_baseline_tests_take_only_1d_samples(entry, bad):
    # A (2, 3) sample used to be flattened by Welch's and Wilcoxon's tests
    # (p = 0.327 and 0.172) and to fail inside NumPy in the permutation test.
    call, name = SAMPLE_ENTRY_POINTS[entry]
    with pytest.raises(InvalidParam, match="1-D") as err:
        call(bad)
    assert err.value.name == name


@pytest.mark.parametrize("bad", [2.7, 2.0, "3"], ids=["2.7", "2.0", "str"])
@pytest.mark.parametrize("key", ["n_items", "k_responses", "b_alt", "b_null", "seed", "levels"])
def test_config_file_rejects_non_integer_counts(key, bad):
    # Counts used to pass through int(), which truncated 2.7 and parsed "3".
    with pytest.raises(InvalidParam):
        ExperimentConfig.from_json_dict({key: bad})


@pytest.mark.parametrize("seed", [-1, 0.5, "1"], ids=["negative", "float", "str"])
def test_seed_must_be_a_nonnegative_integer(seed):
    with pytest.raises(InvalidParam):
        ExperimentConfig(seed=seed)
    with pytest.raises(InvalidParam):
        ExperimentConfig.from_json_dict({"seed": seed})


def test_fit_seed_must_be_a_nonnegative_integer():
    # fit_prior used to pass its seed through int(): 2.5 and "2" gave the seed-2 report.
    assert _fit(seed=0).location.best == uniform(0.0, 1.0)
    for bad in (-1, 2.5, 1.0, "3"):
        with pytest.raises(InvalidParam) as err:
            _fit(seed=bad)
        assert err.value.name == "seed"


def test_config_file_keeps_integer_counts():
    obj = {"n_items": 7, "k_responses": 3, "b_alt": 4, "b_null": 5, "seed": 0, "levels": 2}
    config = ExperimentConfig.from_json_dict(obj)
    assert {key: config.to_json_dict()[key] for key in obj} == obj


@pytest.mark.parametrize("seed", [2.5, "2", True, -1], ids=["float", "str", "bool", "negative"])
def test_a_stream_seed_must_be_a_nonnegative_integer(seed):
    # Seeds used to pass through int(): 2.5 and "2" drew seed 2's stream, True seed 1's.
    with pytest.raises(InvalidParam) as err:
        derive_rng(seed)
    assert err.value.name == "seed"
    with pytest.raises(InvalidParam):
        stream_states(seed, 4, count=1)


@pytest.mark.parametrize("seed", [2.5, "2", True, -1], ids=["float", "str", "bool", "negative"])
def test_a_stream_seed_is_refused_as_a_config_seed_is(seed):
    # derive_rng used to word its own message for a seed that is not an integer.
    with pytest.raises(InvalidParam) as stream:
        derive_rng(seed)
    with pytest.raises(InvalidParam) as config:
        ExperimentConfig(seed=seed)
    assert str(stream.value) == str(config.value)


def test_an_integer_seed_keeps_its_stream():
    assert derive_rng(np.int64(7), 1).random(3).tolist() == derive_rng(7, 1).random(3).tolist()


@pytest.mark.parametrize("tests", [("nope",), (), (TestId.WELCH_T, "bogus")], ids=["unknown", "none", "one bad"])
def test_power_tests_must_name_known_tests_before_any_trial(tests, monkeypatch):
    # An unknown test used to read uninitialised p-values, and no test at all to return [].
    monkeypatch.setattr(power, "_chunk_p_values", lambda *args: pytest.fail("ran a trial"))
    for call in (lambda: power_sweeps(SMALL, tests, 5, "n_items", (3,)),
                 lambda: power.sweep_configs(SMALL, tests, "n_items", (3,))):
        with pytest.raises(InvalidParam) as err:
            call()
        assert err.value.name == "tests"
    if tests:
        with pytest.raises(InvalidParam):
            estimate_power(SMALL, tests[-1], 50)


def _stats():
    return ItemStats(np.array(OK), np.array(OK))


# entry point -> (call with one metric, phi or family argument set to ``bad``, the argument's name).
ENUM_ENTRY_POINTS = {
    "evaluate metric": (lambda bad: evaluate(bad, *_triple(None)[1:], _triple(None)[0]), "metric"),
    "multistage_bootstrap_test metric": (
        lambda bad: multistage_bootstrap_test(*_triple(None), metric=bad, b_null=5, rng=derive_rng(1)), "metric"),
    "multistage_bootstrap_test phi": (
        lambda bad: multistage_bootstrap_test(*_triple(None), phi=bad, b_null=5, rng=derive_rng(1)), "phi"),
    "fit_prior location_family": (lambda bad: fit_prior(_stats(), bad, {"lo": (0.0,), "hi": (1.0,)}),
                                  "location_family"),
    "fit_prior scale_family": (lambda bad: fit_prior(_stats(), Family.UNIFORM, {"lo": (0.0,), "hi": (1.0,)},
                                                     scale_family=bad, scale_grid={"lo": (0.0,), "hi": (1.0,)}),
                               "scale_family"),
}


@pytest.mark.parametrize("bad", ["foo", "boot,boot", 3], ids=["unknown", "phi text", "number"])
@pytest.mark.parametrize("entry", ENUM_ENTRY_POINTS)
def test_metric_phi_and_family_arguments_raise_naming_themselves(entry, bad):
    # These used to raise AssertionError or AttributeError.
    call, name = ENUM_ENTRY_POINTS[entry]
    with pytest.raises(InvalidParam) as err:
        call(bad)
    assert err.value.name == name


def test_a_metric_test_or_family_name_acts_as_its_member():
    g, a, b = _triple(None)
    for metric in MetricId:
        assert evaluate(metric.value, a, b, g).to_json_dict() == evaluate(metric, a, b, g).to_json_dict()
        assert (multistage_bootstrap_test(g, a, b, metric.value, b_null=20, rng=derive_rng(1))
                == multistage_bootstrap_test(g, a, b, metric, b_null=20, rng=derive_rng(1)))
    assert (multistage_bootstrap_test(g, a, b, phi=SamplingStrategy.parse("all,boot"), b_null=20, rng=derive_rng(1))
            == multistage_bootstrap_test(g, a, b, phi=SamplingStrategy("all", "boot"), b_null=20, rng=derive_rng(1)))
    grid = {"lo": (0.0, 0.1), "hi": (0.9, 1.0)}
    assert (fit_prior(_stats(), "uniform", grid, "uniform", grid).to_json_dict()
            == fit_prior(_stats(), Family.UNIFORM, grid, Family.UNIFORM, grid).to_json_dict())
    assert estimate_power(SMALL, "welch", 4) == estimate_power(SMALL, TestId.WELCH_T, 4)
