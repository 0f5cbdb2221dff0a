import numpy as np
import pytest

from raterpower import (
    ExperimentConfig,
    ItemPrior,
    MetricId,
    ResponseFamily,
    ResponseMatrix,
    default_synthetic_prior,
    evaluate,
    generate_triple,
)
from raterpower.distributions import uniform
from raterpower.errors import InvalidParam
from raterpower.rngstreams import derive_rng
from raterpower.simulator import PerturbedDraws, draw_blocks, simulate_batch


def degenerate_prior(mu, sigma):
    return ItemPrior(uniform(mu, mu), uniform(sigma, sigma))


def one_block(config, rng, c):
    """G, A and B's draws of c experiments: ``draw_blocks`` with one block."""
    return tuple(next(phase) for phase in draw_blocks(config, rng, c, [(0, c)]))


def one_item(mu, k, family=ResponseFamily(), seed=0):
    """G of one simulated experiment with a single item at location mu and scale 0."""
    config = ExperimentConfig(n_items=1, k_responses=k, prior=degenerate_prior(mu, 0.0), family=family)
    return simulate_batch(config, derive_rng(seed), 1)[0][0, 0]


# Locations and scales that keep every response at z = 0 and z = 1 inside
# [0, 1] for epsilon <= 0.1, so censoring cannot hide a shift or a scale.
INTERIOR = ItemPrior(uniform(0.2, 0.8), uniform(0.0, 0.1))


def b_at(draws, epsilon, z):
    """B's single response per item at standard normal z: its location plus z times its scale."""
    fixed = PerturbedDraws(draws.mu, draws.sigma, draws.u, np.full((*draws.mu.shape, 1), float(z)))
    return fixed.responses(epsilon, ResponseFamily())[..., 0]


def test_draw_item_params_degenerate():
    config = ExperimentConfig(n_items=2, k_responses=1, prior=degenerate_prior(0.3, 0.0))
    draws = one_block(config, derive_rng(0), 1)[2]
    assert list(draws.mu[0]) == [0.3, 0.3]
    assert list(draws.sigma[0]) == [0.0, 0.0]


def test_draw_item_params_moments():
    config = ExperimentConfig(n_items=10_000, k_responses=1)
    draws = one_block(config, derive_rng(1), 1)[2]
    assert abs(draws.mu.mean() - 0.5) < 0.02
    assert abs(draws.sigma.mean() - 0.15) < 0.01


def test_draw_item_params_rejects_empty():
    with pytest.raises(InvalidParam):
        generate_triple(ExperimentConfig(n_items=0, k_responses=3), derive_rng(2))


def test_prior_rejects_negative_scale_support():
    with pytest.raises(InvalidParam):
        ItemPrior(uniform(0, 1), uniform(-0.1, 0.3))


def test_perturb_zero_epsilon_identity():
    config = ExperimentConfig(n_items=50, k_responses=1, prior=INTERIOR)
    draws = one_block(config, derive_rng(3), 1)[2]
    assert np.array_equal(b_at(draws, 0.0, 0), draws.mu)
    assert np.allclose(b_at(draws, 0.0, 1) - b_at(draws, 0.0, 0), draws.sigma, rtol=0, atol=1e-12)


def test_perturb_support_bound():
    config = ExperimentConfig(n_items=200, k_responses=1, prior=INTERIOR)
    draws = one_block(config, derive_rng(5), 1)[2]
    assert np.all(np.abs(b_at(draws, 0.07, 0) - draws.mu) <= 0.07)
    assert np.allclose(b_at(draws, 0.07, 1) - b_at(draws, 0.07, 0), draws.sigma, rtol=0, atol=1e-12)


def test_perturb_mean_absolute_shift():
    # E|U(-eps, eps)| = eps / 2
    config = ExperimentConfig(n_items=10_000, k_responses=1, prior=INTERIOR)
    draws = one_block(config, derive_rng(7), 1)[2]
    assert abs(np.abs(b_at(draws, 0.1, 0) - draws.mu).mean() - 0.05) < 0.005


def test_generate_matrix_zero_scale():
    assert list(one_item(0.5, 3)) == [0.5, 0.5, 0.5]


def test_generate_matrix_censors_at_hi():
    assert list(one_item(1.7, 2)) == [1.0, 1.0]


def test_generate_matrix_censors_at_lo():
    assert list(one_item(-0.4, 2)) == [0.0, 0.0]


def test_generate_matrix_discrete_rounding():
    assert list(one_item(0.49, 1, ResponseFamily(levels=2))) == [0.0]
    # Exact midpoints round toward the higher level.
    assert list(one_item(0.5, 1, ResponseFamily(levels=2))) == [1.0]


def test_generate_matrix_discrete_levels_grid():
    config = ExperimentConfig(n_items=50, k_responses=8, family=ResponseFamily(levels=5))
    g, a, b = generate_triple(config, derive_rng(17))
    for m in (g, a, b):
        values = np.concatenate(m.rows)
        assert np.all(np.isin(np.round(values * 4), np.arange(5)))


def test_generate_triple_fully_degenerate():
    config = ExperimentConfig(
        n_items=4, k_responses=3, epsilon=0.0, prior=degenerate_prior(0.5, 0.0)
    )
    g, a, b = generate_triple(config, derive_rng(18))
    assert np.array_equal(g.values, a.values)
    assert np.array_equal(g.values, b.values)


def test_generate_triple_shape_contract():
    config = ExperimentConfig(n_items=7, k_responses=4, epsilon=0.05)
    g, a, b = generate_triple(config, derive_rng(19))
    for m in (g, a, b):
        assert m.n_items == 7
        assert m.k_responses == 4
        assert np.concatenate(m.rows).min() >= 0
        assert np.concatenate(m.rows).max() <= 1
    assert g.ids == a.ids == b.ids


def test_generate_triple_determinism():
    config = ExperimentConfig(n_items=20, k_responses=5, epsilon=0.1, seed=5)
    first = generate_triple(config, derive_rng(config.seed))
    second = generate_triple(config, derive_rng(config.seed))
    for m1, m2 in zip(first, second):
        assert all(np.array_equal(r1, r2) for r1, r2 in zip(m1.rows, m2.rows))


def test_perturbed_model_is_worse_on_average():
    # A is ideal by construction; with eps=0.1 its mean item error should
    # beat B's in nearly every simulated experiment.
    config = ExperimentConfig(n_items=1000, k_responses=50, epsilon=0.1)
    better = 0
    runs = 25
    for seed in range(runs):
        g, a, b = generate_triple(config.with_(seed=seed), derive_rng(seed, 77))
        if evaluate(MetricId.MAE, a, b, g).comparison > 0:
            better += 1
    assert better == runs


def test_exchangeable_at_zero_epsilon():
    # With eps=0, (A, B) and (B, A) give the same comparison distribution
    # over seeds: two-sample KS below 0.05. The KS noise floor at 500 seeds
    # per side is ~0.063, so use 2000 per side to make 0.05 a real bound.
    config = ExperimentConfig(n_items=30, k_responses=4, epsilon=0.0)
    ab, ba = [], []
    for seed in range(2000):
        g, a, b = generate_triple(config, derive_rng(seed, 42))
        ab.append(evaluate(MetricId.MAE, a, b, g).comparison)
        g, a, b = generate_triple(config, derive_rng(seed + 2000, 42))
        ba.append(evaluate(MetricId.MAE, b, a, g).comparison)
    ab, ba = np.sort(ab), np.sort(ba)
    grid = np.concatenate([ab, ba])
    f1 = np.searchsorted(ab, grid, side="right") / ab.size
    f2 = np.searchsorted(ba, grid, side="right") / ba.size
    assert np.max(np.abs(f1 - f2)) < 0.05


def test_response_matrix_ragged_helpers():
    m = ResponseMatrix.from_rows([("a", [0.1, 0.2]), ("b", [0.3])])
    assert not m.is_rectangular
    assert list(m.counts()) == [2, 1]


@pytest.mark.parametrize("row", [np.array([[0.1, 0.2]]), np.array(0.3)], ids=["2-D", "0-D"])
def test_response_matrix_rejects_rows_that_are_not_1d(row):
    with pytest.raises(InvalidParam):
        ResponseMatrix(("a",), (row,))
    with pytest.raises(InvalidParam):
        ResponseMatrix(("a", "b"), (np.array([0.5]), row))


def test_response_matrix_stores_padded_values_and_counts():
    m = ResponseMatrix.from_rows([("a", [0.5, 0.25, 1.0]), ("b", [0.0]), ("c", [0.75, 0.5])])
    values, counts = m.values, m.counts()
    assert counts is m.counts()  # stored, not rebuilt per call
    assert counts.dtype == np.int64 and list(counts) == [3, 1, 2]
    assert np.array_equal(values, [[0.5, 0.25, 1.0], [0.0, np.nan, np.nan], [0.75, 0.5, np.nan]],
                          equal_nan=True)
    assert all(np.shares_memory(row, values) for row in m.rows)
    with pytest.raises(ValueError):
        values[0, 0] = 0.0  # read-only
    # Rectangular data are stored as their plain array.
    dense = np.array([[0.1, 0.2], [0.3, 0.4]])
    r = ResponseMatrix.from_array(dense)
    assert r.is_rectangular and r.k_responses == 2 and np.array_equal(r.values, dense)


def test_from_padded_trims_and_masks_the_padding():
    values = np.array([[0.1, 0.2, 7.0, 7.0], [0.3, 7.0, 7.0, 7.0]])
    m = ResponseMatrix.from_padded(values, [2, 1], ("a", "b"))
    assert m.values.shape == (2, 2)
    assert np.array_equal(m.values, [[0.1, 0.2], [0.3, np.nan]], equal_nan=True)
    assert [list(r) for r in m.rows] == [[0.1, 0.2], [0.3]]
    for counts in ([3, 5], [2], [-1, 1]):
        with pytest.raises(InvalidParam):
            ResponseMatrix.from_padded(values[:, :3], counts, ("a", "b"))
