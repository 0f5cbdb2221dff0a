"""Simulation-based power analysis for rater-response evaluation datasets.

Estimates whether a benchmark of N items with K rater responses per item can
statistically distinguish two models, by simulating response matrices,
estimating expected one-sided p-values with alternative/null resample
collections, sweeping (N, K, epsilon) grids, and fitting the simulator's
distributions to real disaggregated rating data.
"""

from .config import ExperimentConfig, Level, Mode, SamplingStrategy
from .distributions import DistributionSpec, Family
from .errors import RaterPowerError
from .fitting import FitReport, ItemStats, ecdf, fit_prior, per_item_stats, stat_distance
from .inference import PValueReport, estimate_p_value, mean_metric_scores, run_columns, run_experiment
from .metrics import MetricId, MetricResult, emd_1d, evaluate
from .power import (
    PowerReport,
    TestId,
    estimate_power,
    multistage_bootstrap_test,
    per_item_errors,
    permutation_test_paired,
    power_sweeps,
    welch_t_test,
    wilcoxon_signed_rank,
)
from .simulator import (
    ItemPrior,
    ResponseFamily,
    ResponseMatrix,
    check_matrices,
    default_synthetic_prior,
    generate_triple,
    multidomain_prior,
    toxicity_prior,
)

__version__ = "0.1.0"
