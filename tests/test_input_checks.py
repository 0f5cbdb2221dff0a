"""One input check: every entry point that takes matrices or raw values rejects bad input.

A valid (G, A, B) input shares item ids, has at least one item, at least
one response per item and every response in [0, 1]; every function that
takes response matrices from outside checks this through
``simulator.check_matrices``. Functions that take raw value arrays reject
NaN and infinities with ``InvalidParam``. One table: each entry point
against each fault, planted in A (or in the one matrix it takes).
"""

import math

import numpy as np
import pytest

from raterpower import (
    ExperimentConfig,
    ItemStats,
    Mode,
    ResponseMatrix,
    SamplingStrategy,
    build_null_pool,
    ecdf,
    emd_1d,
    estimate_p_value,
    gamma_mae,
    gamma_memd,
    gamma_wins,
    multistage_bootstrap_test,
    per_item_errors,
    per_item_stats,
    resample_multistage,
    run_column,
    run_columns,
    run_experiment,
    sample_null_pair,
    score_mae,
    score_memd,
    stat_distance,
)
from raterpower.dataio import load_responses, save_matrix
from raterpower.distributions import uniform
from raterpower.errors import EmptyItem, InvalidParam, ItemMismatch, ValueOutOfRange
from raterpower.metrics import MetricId, evaluate
from raterpower.rngstreams import derive_rng

IDS = ("a", "b", "c")
ROWS = {"g": [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]],
        "a": [[0.2, 0.2], [0.3, 0.5], [0.6, 0.6]],
        "b": [[0.0, 0.4], [0.9, 0.7], [0.1, 1.0]]}
CONFIG = ExperimentConfig(mode=Mode.BOOTSTRAP_OF_GIVEN, n_items=3, k_responses=2, b_alt=5, b_null=5)
BOOT = SamplingStrategy.parse("boot,boot")

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
    "run_column": (lambda g, a, b, tmp: run_column(CONFIG, (0.0, 0.1), given=(g, a, b)), True),
    "run_columns": (lambda g, a, b, tmp: run_columns([(CONFIG, (0.0,))], given=(g, a, b)), True),
    "resample_multistage": (lambda g, a, b, tmp: resample_multistage(g, a, b, BOOT, derive_rng(1)), True),
    "build_null_pool": (lambda g, a, b, tmp: build_null_pool(a, b), True),
    "sample_null_pair": (lambda g, a, b, tmp: sample_null_pair(a, 2, derive_rng(1)), False),
    "multistage_bootstrap_test": (
        lambda g, a, b, tmp: multistage_bootstrap_test(g, a, b, b_null=20, rng=derive_rng(1)), True),
    "per_item_errors": (lambda g, a, b, tmp: per_item_errors(a, g), True),
    "evaluate": (lambda g, a, b, tmp: evaluate(MetricId.MAE, a, b, g), True),
    "score_mae": (lambda g, a, b, tmp: score_mae(a, g), True),
    "score_memd": (lambda g, a, b, tmp: score_memd(a, g), True),
    "gamma_mae": (lambda g, a, b, tmp: gamma_mae(a, b, g), True),
    "gamma_wins": (lambda g, a, b, tmp: gamma_wins(a, b, g), True),
    "gamma_memd": (lambda g, a, b, tmp: gamma_memd(a, b, g), True),
    "per_item_stats": (lambda g, a, b, tmp: per_item_stats(a), False),
}


def _triple(fault: str | None):
    """(G, A, B) with ``fault`` planted in A's second item (or in every matrix, for no items)."""
    g, a, b = (ResponseMatrix(IDS, tuple(np.array(r) for r in ROWS[m])) for m in "gab")
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


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_matrix_entry_point_accepts_valid_input(entry, tmp_path):
    ENTRY_POINTS[entry][0](*_triple(None), tmp_path)


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
