"""The public surface, pinned: the package's exports and each module's ``__all__``.

A name that joins or leaves the surface fails here until the sets below
(and the README) say so; every listed name must exist in its module. A
module lists a name only if something other than the tests uses it: the
rest of the package, the scripts, the benchmark harness or the README.
"""

import importlib
import re
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
    "multistage_bootstrap_test", "per_item_stats", "permutation_test_paired", "power_sweeps", "run_columns",
    "run_experiment", "toxicity_prior", "welch_t_test", "wilcoxon_signed_rank",
}

# Each module's __all__; None for a module that defines none.
MODULES = {
    "cli": None,
    "config": {"Level", "SamplingStrategy", "Mode", "ExperimentConfig"},
    "dataio": {"load_responses", "save_matrix"},
    "distributions": None,
    "errors": None,
    "fitting": {"ItemStats", "Ecdf", "FitReport", "per_item_stats", "ecdf", "grid_columns", "fit_prior"},
    "inference": {"estimate_p_value", "run_experiment", "run_columns", "mean_metric_scores", "Direction",
                  "MetricPValue", "PValueReport"},
    "metrics": {"MetricId", "MetricResult", "emd_1d", "evaluate"},
    "power": {"TestId", "PowerPoint", "PowerReport", "welch_t_test", "wilcoxon_signed_rank",
              "permutation_test_paired", "multistage_bootstrap_test", "estimate_power", "sweep_configs",
              "power_sweeps"},
    "rngstreams": None,
    "simulator": {"ItemPrior", "ResponseFamily", "ResponseMatrix", "check_matrices", "check_finite",
                  "PerturbedDraws", "draw_blocks", "simulate_batch", "generate_triple",
                  "default_synthetic_prior", "toxicity_prior", "multidomain_prior"},
}

ROOT = Path(__file__).resolve().parents[1]

# Listed names that only tests use, each public for its reason.
TEST_ONLY = {
    # Result types: callers get them from a function and read their fields.
    "Ecdf", "FitReport", "Direction", "MetricPValue", "PValueReport", "PowerPoint", "PowerReport",
    # The acceptance suite calls it.
    "estimate_power",
}


def test_package_exports():
    # Exports load on first access, so vars(raterpower) holds only those read so far.
    assert set(raterpower.__all__) == PACKAGE
    assert len(raterpower.__all__) == len(PACKAGE) == 37
    listed = {name for name in dir(raterpower)
              if not name.startswith("_") and not isinstance(getattr(raterpower, name), types.ModuleType)}
    assert listed == PACKAGE
    for name in PACKAGE:  # each resolves to the object its home module defines
        value = getattr(raterpower, name)
        assert getattr(importlib.import_module(value.__module__), name) is value, name


def test_an_unknown_package_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        raterpower.nothing  # noqa: B018


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


def test_every_listed_name_has_a_user_outside_the_tests():
    # __init__ re-exports names; that is not a use.
    shared = [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py"), ROOT / "README.md"]
    unused = []
    for name, listed in MODULES.items():
        others = [path for path in Path(raterpower.__file__).parent.glob("*.py")
                  if path.stem not in (name, "__init__")]
        text = "\n".join(path.read_text(encoding="utf-8") for path in others + shared)
        unused += [f"{name}.{n}" for n in sorted(set(listed or ()) - TEST_ONLY) if not re.search(rf"\b{n}\b", text)]
    assert unused == []
