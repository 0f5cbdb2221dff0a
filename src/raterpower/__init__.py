"""Simulation-based power analysis for rater-response evaluation datasets.

Estimates whether a benchmark of N items with K rater responses per item can
statistically distinguish two models, by simulating response matrices,
estimating expected one-sided p-values with alternative/null resample
collections, sweeping (N, K, epsilon) grids, and fitting the simulator's
distributions to real disaggregated rating data.

Each export is loaded from its home module on first access (PEP 562), so
``import raterpower`` runs no submodule and a command imports only the
modules it uses.
"""

import importlib

# Each export's home module.
_EXPORTS = {
    "config": ("ExperimentConfig", "Level", "Mode", "SamplingStrategy"),
    "distributions": ("DistributionSpec", "Family"),
    "errors": ("RaterPowerError",),
    "fitting": ("FitReport", "ItemStats", "ecdf", "fit_prior", "per_item_stats"),
    "inference": ("PValueReport", "estimate_p_value", "mean_metric_scores", "run_columns", "run_experiment"),
    "metrics": ("MetricId", "MetricResult", "emd_1d", "evaluate"),
    "power": (
        "PowerReport",
        "TestId",
        "estimate_power",
        "multistage_bootstrap_test",
        "permutation_test_paired",
        "power_sweeps",
        "welch_t_test",
        "wilcoxon_signed_rank",
    ),
    "simulator": (
        "ItemPrior",
        "ResponseFamily",
        "ResponseMatrix",
        "check_matrices",
        "default_synthetic_prior",
        "generate_triple",
        "multidomain_prior",
        "toxicity_prior",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    """An export, imported from its home module at first access and kept."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
