"""The epsilon column: one draw per (N, K), B rebuilt per epsilon.

No random draw of an experiment depends on epsilon, so ``run_columns``
draws every chunk once and only builds B per epsilon, and the simulator
builds responses as clip(mu + sigma * z) in place. These tests check both
against the straightforward computations they replace: ``rng.normal`` and
``rng.uniform`` draws, ``take_along_axis`` gathers and one full experiment
per epsilon.
"""

import types

import numpy as np
import pytest
from _oracles import sample_oracle
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes

from raterpower import (
    ExperimentConfig,
    ItemPrior,
    ResponseFamily,
    SamplingStrategy,
    run_columns,
    run_experiment,
)
from raterpower import inference
from raterpower.distributions import uniform
from raterpower.errors import InvalidParam
from raterpower.inference import PValueReport, _gather, _report, _response_step
from raterpower.metrics import MetricId, comparison, model_items, pair_scores, prepare_gold
from raterpower.rngstreams import ALT, BASE, NULL, chunk_ranges, derive_rng, row_groups
from raterpower.simulator import _gen_responses, simulate_batch, toxicity_prior

PHIS = ("boot,boot", "all,boot", "boot,all", "all,all")
METRICS = (MetricId.MAE, MetricId.WINS, MetricId.MEMD)


def _normal_responses(rng, loc, sigma, k, levels):
    """clip(rng.normal(loc, sigma)), snapped with the half-up level rule."""
    x = np.clip(rng.normal(loc[..., None], sigma[..., None], (*loc.shape, k)), 0.0, 1.0)
    if levels is not None:
        x = np.floor(x * (levels - 1) + 0.5) / (levels - 1)
    return x


def _simulate_oracle(config, rng, c):
    """The simulator's stream with rng.normal and rng.uniform draws."""
    n, k, levels = config.n_items, config.k_responses, config.family.levels
    mu = sample_oracle(config.prior.location, rng, c * n).reshape(c, n)
    sigma = sample_oracle(config.prior.scale, rng, c * n).reshape(c, n)
    g = _normal_responses(rng, mu, sigma, k, levels)
    a = _normal_responses(rng, mu, sigma, k, levels)
    delta = rng.uniform(-config.epsilon, config.epsilon, (c, n))
    return g, a, _normal_responses(rng, mu + delta, sigma, k, levels)


def _gather_oracle(x, rng, c, k):
    """Response draws with take_along_axis on the broadcast array."""
    x = np.broadcast_to(x, (c, *x.shape[-2:]))
    return np.take_along_axis(x, rng.integers(0, x.shape[-1], (c, x.shape[1], k)), axis=-1)


def _experiment_oracle(config) -> PValueReport:
    """One full experiment at one epsilon: simulate, gather and score each chunk."""
    n, k = config.n_items, config.k_responses
    g0, a0, b0 = (x[0] for x in _simulate_oracle(config, derive_rng(config.seed, BASE), 1))
    pool = np.concatenate([a0, b0], axis=1)
    chunk = inference._chunk_size(n, k)
    items, responses = (level.value == "boot" for level in (config.phi.items, config.phi.responses))

    def alt(lo, hi):
        c = hi - lo
        rng = derive_rng(config.seed, ALT, lo)
        triple = _simulate_oracle(config, rng, c)
        if items:
            idx = rng.integers(0, n, (c, n))
            triple = [np.take_along_axis(x, idx[:, :, None], axis=1) for x in triple]
            if responses:
                triple = [_gather_oracle(x, rng, c, k) for x in triple]
        return triple

    def null(lo, hi):
        c = hi - lo
        rng = derive_rng(config.seed, NULL, lo)
        a = _gather_oracle(pool, rng, c, k)
        b = _gather_oracle(pool, rng, c, k)
        return np.broadcast_to(g0, (c, n, k)), a, b

    def collect(fn, total):
        parts = []
        for lo, hi in chunk_ranges(total, chunk):
            g, a, b = fn(lo, hi)
            gold = prepare_gold(config.metrics, g)
            parts.append(pair_scores(config.metrics, model_items(gold, a), model_items(gold, b)))
        return {m: np.concatenate([comparison(m, *p[m]) for p in parts]) for m in config.metrics}

    return _report(config, collect(alt, config.b_alt), collect(null, config.b_null))


@settings(max_examples=80, deadline=None)
@given(
    shape=array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=5),
    k=st.integers(1, 6),
    levels=st.sampled_from([None, 2, 3, 4, 5, 6, 7]),
    zero_scales=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_gen_responses_matches_clipped_normal(shape, k, levels, zero_scales, seed):
    params = np.random.default_rng(seed)
    mu = params.uniform(-0.5, 1.5, shape)
    sigma = params.uniform(0.0, 0.6, shape)
    if zero_scales:
        sigma[params.random(shape) < 0.5] = 0.0
    got_rng, want_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    got = _gen_responses(mu, sigma, k, ResponseFamily(levels), got_rng)
    want = _normal_responses(want_rng, mu, sigma, k, levels)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("epsilon", [0.0, 0.005, 0.1, 0.3])
@pytest.mark.parametrize("levels", [None, 5])
def test_simulate_batch_matches_normal_and_uniform_draws(epsilon, levels):
    config = ExperimentConfig(n_items=7, k_responses=3, epsilon=epsilon, prior=toxicity_prior(),
                              family=ResponseFamily(levels))
    got_rng, want_rng = derive_rng(3, 1), derive_rng(3, 1)
    got = simulate_batch(config, got_rng, 4)
    want = _simulate_oracle(config, want_rng, 4)
    for x, y in zip(got, want):
        assert x.tobytes() == y.tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_simulate_batch_rejects_negative_scale():
    # ItemPrior refuses this scale when built, and ExperimentConfig a prior
    # that is not an ItemPrior; a duck-typed config and prior, as a library
    # caller may pass, meet the simulator's own check instead.
    with pytest.raises(InvalidParam):
        ItemPrior(uniform(0.2, 0.8), uniform(-0.2, 0.1))
    prior = types.SimpleNamespace(location=uniform(0.2, 0.8), scale=uniform(-0.2, 0.1))
    config = types.SimpleNamespace(**{**vars(ExperimentConfig(n_items=50, k_responses=2)), "prior": prior})
    with pytest.raises(InvalidParam, match="sigma"):
        simulate_batch(config, derive_rng(0), 3)


@settings(max_examples=60, deadline=None)
@given(
    c=st.integers(1, 4),
    n=st.integers(1, 6),
    w=st.integers(1, 6),
    batched=st.booleans(),
    items=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_draw_matches_take_along_axis(c, n, w, batched, items, seed):
    x = np.random.default_rng(seed).random((c, n, w) if batched else (n, w))
    got_rng, want_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    rows = got_rng.integers(0, n, (c, n)) if items else None
    # c response bootstraps of x, (N, W) or (c, N, W), after the item draw rows.
    got, _ = _gather(x, c, _response_step(row_groups(got_rng, 0, c), c, x.shape, rows, None, w))
    want = np.broadcast_to(x, (c, n, w))
    if items:
        want = np.take_along_axis(want, want_rng.integers(0, n, (c, n))[:, :, None], axis=1)
    want = _gather_oracle(want, want_rng, c, w)
    assert got.tobytes() == want.tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("phi", PHIS)
@pytest.mark.parametrize("levels", [None, 5])
def test_column_matches_one_experiment_per_epsilon(phi, levels, monkeypatch):
    # A small chunk budget gives each arm several chunks at a small size.
    monkeypatch.setattr(inference, "_CHUNK_BUDGET", 300)
    config = ExperimentConfig(
        n_items=20, k_responses=4, b_alt=37, b_null=29, metrics=METRICS,
        phi=SamplingStrategy.parse(phi), prior=toxicity_prior(), family=ResponseFamily(levels),
        seed=21,
    )
    epsilons = (0.1, 0.0, 0.03, 0.1)
    want = [_experiment_oracle(config.with_(epsilon=e)).to_json_dict() for e in epsilons]
    for threads in (1, 2):
        got = run_columns([(config, epsilons)], threads=threads)[0]
        assert [r.to_json_dict() for r in got] == want
        for e, report in zip(epsilons, want):
            assert run_experiment(config.with_(epsilon=e), threads=threads).to_json_dict() == report


def test_column_rejects_negative_epsilon_before_running(monkeypatch):
    monkeypatch.setattr(inference, "_alt_chunk_parametric", lambda *a: pytest.fail("ran"))
    with pytest.raises(InvalidParam):
        run_columns([(ExperimentConfig(n_items=5, k_responses=2), (0.1, -0.1))])

