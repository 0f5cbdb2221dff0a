"""The public surface, pinned: the package's exports and each module's ``__all__``.

A name that joins or leaves the surface fails here until the sets below
(and the README) say so; every listed name must exist in its module.
"""

import importlib
import types
from pathlib import Path

import pytest

import raterpower

PACKAGE = {
    "DistributionSpec", "ExperimentConfig", "Family", "FitReport", "ItemPrior", "ItemStats", "Level",
    "MetricId", "MetricResult", "Mode", "PValueReport", "PowerReport", "RaterPowerError",
    "ResponseFamily", "ResponseMatrix", "SamplingStrategy", "TestId", "check_matrices",
    "default_synthetic_prior", "ecdf", "emd_1d", "estimate_p_value", "estimate_power", "evaluate",
    "fit_prior", "generate_triple", "mean_metric_scores", "multidomain_prior",
    "multistage_bootstrap_test", "per_item_errors", "per_item_stats", "permutation_test_paired",
    "power_sweeps", "run_columns", "run_experiment", "stat_distance", "toxicity_prior", "welch_t_test",
    "wilcoxon_signed_rank",
}

# Each module's __all__; None for a module that defines none.
MODULES = {
    "cli": None,
    "config": {"Level", "SamplingStrategy", "Mode", "ExperimentConfig"},
    "dataio": {"load_responses", "save_matrix", "matrix_to_jsonl", "matrix_to_csv"},
    "distributions": None,
    "errors": None,
    "fitting": {"ItemStats", "Ecdf", "FitReport", "per_item_stats", "ecdf", "stat_distance", "grid_columns",
                "fit_prior"},
    "inference": {"estimate_p_value", "run_experiment", "run_columns", "mean_metric_scores", "Direction",
                  "MetricPValue", "PValueReport"},
    "metrics": {"MetricId", "MetricResult", "emd_1d", "evaluate"},
    "power": {"TestId", "PowerPoint", "PowerReport", "per_item_errors", "welch_t_test", "wilcoxon_signed_rank",
              "permutation_test_paired", "multistage_bootstrap_test", "estimate_power", "sweep_configs",
              "power_sweeps"},
    "rngstreams": None,
    "simulator": {"ItemPrior", "ResponseFamily", "ResponseMatrix", "check_matrices", "check_finite",
                  "PerturbedDraws", "draw_blocks", "draw_batch", "simulate_batch", "generate_triple",
                  "default_synthetic_prior", "toxicity_prior", "multidomain_prior"},
}


def test_package_exports():
    exports = {name for name, value in vars(raterpower).items()
               if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exports == PACKAGE
    assert len(PACKAGE) == 39


def test_every_module_is_pinned():
    files = {path.stem for path in Path(raterpower.__file__).parent.glob("*.py")}
    assert files == set(MODULES) | {"__init__"}


@pytest.mark.parametrize("name", sorted(MODULES))
def test_module_all(name):
    module = importlib.import_module(f"raterpower.{name}")
    listed = getattr(module, "__all__", None)
    assert (None if listed is None else set(listed)) == MODULES[name]
    if listed is not None:
        assert len(listed) == len(set(listed))
        assert [n for n in listed if not hasattr(module, n)] == []


def test_each_package_export_is_listed_by_its_module():
    for name in PACKAGE:
        module = importlib.import_module(getattr(raterpower, name).__module__)
        listed = getattr(module, "__all__", None)
        assert listed is None or name in listed, (name, module.__name__)
