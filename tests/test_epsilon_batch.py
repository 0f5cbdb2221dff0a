"""The epsilon axis through the kernel: every epsilon of a block in one call.

B's draws do not depend on epsilon, so ``PerturbedDraws.responses`` builds
B for an (E,) array of epsilons as one (E, c, N, K) array, the null arm
gathers its (E, N, 2K) pools at one set of positions, and the metric
kernel scores all E at once. These tests check that the batch equals one
call per epsilon bit for bit, that a column makes as many kernel calls at
E = 4 as at E = 1, and that the in-place sorts and differences this needs
never touch an array a caller passed in.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from raterpower import (
    ExperimentConfig,
    ResponseMatrix,
    SamplingStrategy,
    multistage_bootstrap_test,
    run_columns,
    run_experiment,
)
from raterpower import inference, power
from raterpower.metrics import MetricId, evaluate, model_items, prepare_gold
from raterpower.power import TestId, estimate_power, per_item_errors
from raterpower.rngstreams import derive_rng
from raterpower.simulator import PerturbedDraws, ResponseFamily, generate_triple, toxicity_prior

PHIS = ("boot,boot", "all,boot", "boot,all", "all,all")
METRICS = (MetricId.MAE, MetricId.WINS, MetricId.MEMD)


def _responses_oracle(draws, epsilon, levels):
    """clip((sigma * z) + (mu + delta)) at one epsilon, snapped with the half-up level rule."""
    delta = draws.u * (epsilon - -epsilon) + -epsilon
    x = np.clip(draws.z * draws.sigma[..., None] + (draws.mu + delta)[..., None], 0.0, 1.0)
    if levels is not None:
        x = np.floor(x * (levels - 1) + 0.5) / (levels - 1)
    return x


@settings(max_examples=80, deadline=None)
@given(
    c=st.integers(1, 3),
    n=st.integers(1, 5),
    k=st.integers(1, 6),
    levels=st.sampled_from([None, 2, 5]),
    epsilons=st.lists(st.sampled_from([0.0, 0.005, 0.02, 0.1, 0.3]), min_size=1, max_size=5),
    zero_scales=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(c=2, n=3, k=2, levels=None, epsilons=[0.0], zero_scales=True, seed=1)
@example(c=1, n=4, k=3, levels=5, epsilons=[0.1, 0.0, 0.1], zero_scales=False, seed=2)
@example(c=3, n=2, k=1, levels=2, epsilons=[0.02, 0.02], zero_scales=True, seed=3)
def test_responses_over_an_epsilon_array_equal_per_epsilon_calls(c, n, k, levels, epsilons, zero_scales, seed):
    rng = np.random.default_rng(seed)
    mu, sigma = rng.uniform(-0.2, 1.2, (c, n)), rng.uniform(0.0, 0.4, (c, n))
    if zero_scales:
        sigma[rng.random((c, n)) < 0.5] = 0.0
    draws = PerturbedDraws(mu, sigma, rng.random((c, n)), rng.standard_normal((c, n, k)))
    family = ResponseFamily(levels)
    want = np.stack([draws.responses(e, family) for e in epsilons])
    assert want.tobytes() == np.stack([_responses_oracle(draws, e, levels) for e in epsilons]).tobytes()
    got = draws.responses(np.array(epsilons), family)
    assert got.shape == (len(epsilons), c, n, k)
    assert got.tobytes() == want.tobytes()
    # In z's memory: sigma * z always, and B itself when there is one epsilon.
    z = draws.z.copy()
    in_z = PerturbedDraws(mu, sigma, draws.u, z).responses(np.array(epsilons), family, out=z)
    assert in_z.tobytes() == want.tobytes()
    assert np.shares_memory(in_z, z) == (len(epsilons) == 1)


COLUMN = ExperimentConfig(n_items=9, k_responses=4, b_alt=19, b_null=17, metrics=METRICS,
                          prior=toxicity_prior(), family=ResponseFamily(5))
EPSILONS = ((0.05,), (0.1, 0.0), (0.3, 0.0, 0.02, 0.3, 0.1))


@pytest.mark.parametrize("phi", PHIS)
@pytest.mark.parametrize("rows", [1, 7])
def test_run_columns_equal_one_run_experiment_per_epsilon(phi, rows, monkeypatch):
    # Chunks of 8 resamples, streamed in blocks of `rows` resamples.
    monkeypatch.setattr(inference, "_CHUNK_BUDGET", 8 * 9 * 4)
    monkeypatch.setattr(inference, "_BLOCK", rows * 9 * 4)
    config = COLUMN.with_(phi=SamplingStrategy.parse(phi), seed=PHIS.index(phi) + 11)
    columns = [(config.with_(seed=config.seed + i), eps) for i, eps in enumerate(EPSILONS)]
    want = [[run_experiment(cfg.with_(epsilon=e)).to_json_dict() for e in eps] for cfg, eps in columns]
    for threads in (1, 2):
        got = run_columns(columns, threads=threads)
        assert [[r.to_json_dict() for r in reports] for reports in got] == want


def test_a_column_makes_the_same_kernel_calls_at_one_and_four_epsilons(monkeypatch):
    calls = {}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] = calls.get(fn.__name__, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("model_items", "pair_scores"):
        monkeypatch.setattr(inference, name, counted(getattr(inference, name)))
    config = COLUMN.with_(phi=SamplingStrategy.parse("boot,boot"), b_alt=40, b_null=30)
    counts = []
    for epsilons in ((0.1,), (0.1, 0.0, 0.02, 0.3)):
        calls.clear()
        run_columns([(config, epsilons)])
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    assert counts[0]["model_items"] > 0 and counts[0]["pair_scores"] > 0


# -- no entry point writes to what a caller passed in ---------------------------------

def _triple():
    return generate_triple(ExperimentConfig(n_items=12, k_responses=5, epsilon=0.1), derive_rng(41))


def _snapshot(*arrays):
    return [np.array(x, copy=True) for x in arrays]


def _unchanged(before, arrays):
    return all(x.tobytes() == y.tobytes() for x, y in zip(before, arrays))


@pytest.mark.parametrize("metric", METRICS)
def test_kernel_and_evaluate_leave_their_inputs_unchanged(metric):
    g, a, b = (m.values.copy() for m in _triple())
    batch = np.stack([b, a[::-1], b[:, ::-1]])  # (3, N, K), broadcast against G and A
    before = _snapshot(g, a, batch)
    gold = prepare_gold(METRICS, g)
    model_items(gold, a)
    model_items(gold, batch)
    assert _unchanged(before, (g, a, batch))
    matrices = _triple()
    before = _snapshot(*(m.values for m in matrices))
    evaluate(metric, *matrices)
    per_item_errors(matrices[1], matrices[0])
    assert _unchanged(before, [m.values for m in matrices])


@pytest.mark.parametrize("phi", PHIS)
@pytest.mark.parametrize("block", [1, 7])
def test_bootstrap_test_leaves_its_triple_unchanged(phi, block, monkeypatch):
    # One-row blocks with MEMD under all,boot are where a sort in place of
    # a caller's array would first show.
    monkeypatch.setattr(inference, "_BLOCK", block * 12 * 5)
    matrices = _triple()
    before = _snapshot(*(m.values for m in matrices))
    multistage_bootstrap_test(*matrices, MetricId.MEMD, SamplingStrategy.parse(phi), b_null=23, rng=derive_rng(42))
    assert _unchanged(before, [m.values for m in matrices])


@pytest.mark.parametrize("ragged", [False, True])
def test_run_experiment_leaves_given_data_unchanged(ragged):
    rng = np.random.default_rng(5)
    ids = [f"i{i}" for i in range(10)]
    sizes = rng.integers(1, 5, 10) if ragged else np.full(10, 4)

    def matrix():
        return ResponseMatrix.from_rows((i, rng.integers(0, 5, k) / 4) for i, k in zip(ids, sizes))

    given_triple = (matrix(), matrix(), matrix())
    before = _snapshot(*(m.values for m in given_triple))
    for phi in PHIS:
        config = ExperimentConfig(n_items=10, k_responses=4, b_alt=13, b_null=11, metrics=METRICS,
                                  phi=SamplingStrategy.parse(phi))
        run_experiment(config, given_triple, threads=2)
    assert _unchanged(before, [m.values for m in given_triple])


def test_a_power_trial_leaves_its_simulated_triple_unchanged(monkeypatch):
    # Every test of a trial reads the one simulated triple; the bootstrap
    # test runs first, so a sort in place would change the baselines' data.
    seen = []
    simulate = power.simulate_batch

    def recorded(*args, **kwargs):
        triple = simulate(*args, **kwargs)
        seen.append((triple, _snapshot(*triple)))
        return triple

    monkeypatch.setattr(power, "simulate_batch", recorded)
    config = ExperimentConfig(n_items=15, k_responses=4, epsilon=0.1, b_null=29, metrics=(MetricId.MEMD,),
                              phi=SamplingStrategy.parse("all,boot"), seed=7)
    estimate_power(config, TestId.MULTISTAGE_BOOTSTRAP, trials=3)
    power._trial_p_value(config, tuple(TestId), 0)
    assert sum(len(g) for (g, _, _), _ in seen) == 4  # trials, one batch row each
    assert all(_unchanged(before, triple) for triple, before in seen)
