import numpy as np
import pytest
from _oracles import cdf_oracle, fit_distance_oracle, sample_oracle

from raterpower import ItemStats, ResponseMatrix, ecdf, fit_prior, per_item_stats
from raterpower.distributions import DistributionSpec, Family, truncated_normal, uniform
from raterpower.fitting import _distances
from raterpower.errors import EmptyItem, EmptySample, InvalidParam, NoValidGridPoint
from raterpower.rngstreams import derive_rng


def test_per_item_stats_point_item():
    m = ResponseMatrix.from_rows([("a", [0.5, 0.5])])
    stats = per_item_stats(m)
    assert stats.means[0] == 0.5
    assert stats.stds[0] == 0.0


def test_per_item_stats_population_divisor():
    m = ResponseMatrix.from_rows([("a", [0.0, 1.0])])
    stats = per_item_stats(m)
    assert stats.means[0] == 0.5
    assert stats.stds[0] == 0.5  # population (divisor n), not sample


def test_per_item_stats_lengths_and_empty():
    m = ResponseMatrix.from_rows([("a", [0.1]), ("b", [0.2, 0.3])])
    stats = per_item_stats(m)
    assert stats.means.size == stats.stds.size == 2
    with pytest.raises(EmptyItem):
        per_item_stats(ResponseMatrix.from_rows([("a", [])]))


def test_ecdf_single_value():
    curve = ecdf([1.0])
    assert curve(0.999) == 0.0
    assert curve(1.0) == 1.0
    assert curve(2.0) == 1.0


def test_ecdf_midpoint():
    curve = ecdf([0.0, 1.0])
    assert curve(0.5) == 0.5


def test_ecdf_close_to_uniform_identity():
    x = sample_oracle(uniform(0, 1), derive_rng(41), 10_000)
    curve = ecdf(x)
    grid = np.linspace(0, 1, 501)
    assert np.max(np.abs(curve(grid) - grid)) < 0.02


def test_ecdf_empty_rejected():
    with pytest.raises(EmptySample):
        ecdf([])


def _distance(real, sims) -> float:
    """The fit distance of data ``real`` to one candidate's draws ``sims``, checked against the oracle."""
    d = _distances(np.sort(real), np.array(sims, dtype=float)[None])[0]
    assert d == fit_distance_oracle(real, sims)
    return d


def test_fit_distance_self_distance_small():
    spec = truncated_normal(-0.5, 1.0, 0.0, 1.0)
    real = sample_oracle(spec, derive_rng(42), 20_000)
    assert _distance(real, sample_oracle(spec, derive_rng(43), 100_000)) < 0.01


def test_fit_distance_degenerate_gap():
    # Candidate draws are clipped into the observed range before comparing.
    assert _distance([0.0, 0.0], np.full(10, 1.0)) == 0.0
    assert _distance([1.0, 1.0, 0.0], np.zeros(9)) == pytest.approx(2 / 3)


def test_fit_distance_symmetry_at_equal_counts():
    # Both samples span [0, 1], so neither is clipped into the other's range.
    rng = derive_rng(46)
    x, y = (np.concatenate([[0.0, 1.0], rng.random(98)]) for _ in range(2))
    assert _distance(x, y) == _distance(y, x)


def test_fit_distance_converges_with_size():
    spec = uniform(0.0, 0.3)
    sizes = (500, 5_000, 50_000)
    dists = []
    for i, n in enumerate(sizes):
        real = sample_oracle(spec, derive_rng(47, i), n)
        dists.append(_distance(real, sample_oracle(spec, derive_rng(48, i), 2 * n)))
    assert dists[2] < dists[0]
    assert dists[2] < 0.005


def test_fit_prior_single_point_grid():
    stats = ItemStats(np.array([0.2, 0.4]), np.array([0.1, 0.1]))
    report = fit_prior(
        stats, Family.UNIFORM, {"lo": (0.0,), "hi": (1.0,)}, sim_count=500, seed=1
    )
    assert report.location.best.params == {"lo": 0.0, "hi": 1.0}
    assert report.fit_error == report.location.distance


def test_fit_prior_skips_invalid_candidates():
    stats = ItemStats(np.array([0.2, 0.4]), np.array([0.1, 0.1]))
    # (0.5, 0.4, 0.45) violates a <= b; only (0.0, 0.4, 0.45) survives.
    report = fit_prior(
        stats,
        Family.TRIANGULAR,
        {"a": (0.0, 0.5), "b": (0.4,), "c": (0.45,)},
        sim_count=200,
        seed=2,
    )
    assert report.location.best.params["a"] == 0.0


def test_fit_prior_no_valid_grid_point():
    stats = ItemStats(np.array([0.2, 0.4]), np.array([0.1, 0.1]))
    with pytest.raises(NoValidGridPoint):
        fit_prior(stats, Family.UNIFORM, {"lo": (1.0,), "hi": (0.0,)}, sim_count=10, seed=3)


def test_fit_prior_self_recovery_truncated_normal():
    # (mu, sigma) of a [0,1]-truncated normal alias along a ridge
    # (W1(TN(-0.6,1.05), TN(-0.5,1.0)) < 5e-4), so recovery is asserted in
    # distribution: the fitted candidate must sit within one grid step's
    # worth of W1 distance of the truth.
    rng = derive_rng(49)
    truth = truncated_normal(-0.5, 1.0, 0.0, 1.0)
    means = sample_oracle(truth, rng, 20_000)
    stats = ItemStats(means, np.full(20_000, 0.1))
    step = 0.05
    grid = {
        "mu": tuple(round(-0.5 + step * i, 10) for i in range(-2, 3)),
        "sigma": tuple(round(1.0 + step * i, 10) for i in range(-2, 3)),
    }
    report = fit_prior(
        stats,
        Family.TRUNCATED_NORMAL,
        grid,
        location_fixed={"lo": 0.0, "hi": 1.0},
        sim_count=100_000,
        seed=50,
    )
    xs = np.linspace(0, 1, 4001)
    w1_to_truth = np.trapezoid(np.abs(cdf_oracle(report.location.best, xs) - cdf_oracle(truth, xs)), xs)
    one_step_gap = np.trapezoid(
        np.abs(cdf_oracle(truncated_normal(-0.5 + step, 1.0, 0, 1), xs) - cdf_oracle(truth, xs)), xs
    )
    assert w1_to_truth <= one_step_gap + 1e-6


def test_fit_prior_recovers_mu_on_identifiable_axis():
    # With sigma known the location axis is well identified.
    rng = derive_rng(53)
    truth = truncated_normal(-0.5, 1.0, 0.0, 1.0)
    means = sample_oracle(truth, rng, 50_000)
    stats = ItemStats(means, np.full(50_000, 0.1))
    report = fit_prior(
        stats,
        Family.TRUNCATED_NORMAL,
        {"mu": tuple(round(-0.5 + 0.05 * i, 10) for i in range(-2, 3)), "sigma": (1.0,)},
        location_fixed={"lo": 0.0, "hi": 1.0},
        sim_count=200_000,
        seed=54,
    )
    assert abs(report.location.best.params["mu"] - (-0.5)) <= 0.05 + 1e-9


def test_fit_prior_deterministic():
    stats = ItemStats(np.linspace(0.1, 0.9, 200), np.full(200, 0.2))
    kwargs = dict(
        location_grid={"lo": (0.0, 0.1), "hi": (0.9, 1.0)},
        scale_family=Family.UNIFORM,
        scale_grid={"lo": (0.1, 0.2), "hi": (0.2, 0.3)},
        sim_count=5_000,
        seed=51,
    )
    r1 = fit_prior(stats, Family.UNIFORM, kwargs.pop("location_grid"), **kwargs)
    kwargs["location_grid"] = {"lo": (0.0, 0.1), "hi": (0.9, 1.0)}
    r2 = fit_prior(stats, Family.UNIFORM, kwargs.pop("location_grid"), **kwargs)
    assert r1.to_json_dict() == r2.to_json_dict()


def test_fit_error_is_minimum_of_surface():
    stats = ItemStats(np.linspace(0.1, 0.9, 500), np.full(500, 0.2))
    grid = {"lo": (0.0, 0.2), "hi": (0.8, 1.0)}
    report = fit_prior(stats, Family.UNIFORM, grid, sim_count=20_000, seed=52)
    distances = []
    candidates = [
        {"lo": lo, "hi": hi} for lo in grid["lo"] for hi in grid["hi"]
    ]
    for i, params in enumerate(candidates):
        spec = DistributionSpec(Family.UNIFORM, params)
        distances.append(_distance(stats.means, sample_oracle(spec, derive_rng(52, 4, 0, i), 20_000)))
    assert report.location.distance == pytest.approx(min(distances))
