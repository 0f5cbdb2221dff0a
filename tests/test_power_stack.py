"""A power chunk stacks its trials: one batch, one set of item errors, one Welch and Wilcoxon call.

A chunk of trials must give every trial the p-values it gets alone, bit for
bit: each trial draws its triple from its own generator into one row of a
batch, the baselines' statistics run once over the rows, and the Monte
Carlo tests run per trial from the trial's post-simulation state.
"""

import numpy as np
import pytest
from _oracles import power_trial_oracle, welch_oracle, wilcoxon_enumeration_oracle, wilcoxon_normal_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from raterpower import ExperimentConfig, ItemPrior, ResponseFamily, SamplingStrategy, TestId
from raterpower import inference, power
from raterpower.distributions import (
    DistributionSpec,
    Family,
    folded_normal,
    triangular,
    truncated_normal,
    uniform,
)
from raterpower.metrics import MetricId
from raterpower.rngstreams import TRIAL, chunk_ranges, derive_rng
from raterpower.simulator import (
    default_synthetic_prior,
    draw_blocks,
    multidomain_prior,
    simulate_batch,
    toxicity_prior,
)

PRIORS = {
    "synthetic": (default_synthetic_prior(), ResponseFamily()),
    "toxicity": (toxicity_prior(), ResponseFamily(5)),
    "zero-scale": (ItemPrior(uniform(0.0, 1.0), uniform(0.0, 0.0)), ResponseFamily()),
}
# Every (metric, phi) pair: the bootstrap test reads both.
BOOTSTRAPS = [(metric, phi) for metric in MetricId for phi in ("boot,boot", "all,boot", "boot,all", "all,all")]
TRIALS = 5


def _same_p(stacked, alone, full, alpha):
    """A stopped p keeps its full p's verdict, and a rejecting p is the full p."""
    assert stacked == alone
    if alpha is None:
        assert stacked == full
    else:
        assert stacked == full if full < alpha else alpha <= stacked <= full


@pytest.mark.parametrize("alpha", [None, 0.05], ids=["full", "stopped"])
@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("n", [12, 40])  # exact, then Monte Carlo permutation test
@pytest.mark.parametrize("prior", PRIORS)
def test_a_chunk_equals_its_trials_alone(prior, n, k, alpha):
    item_prior, family = PRIORS[prior]
    for metric, phi in BOOTSTRAPS:
        config = ExperimentConfig(n_items=n, k_responses=k, epsilon=0.15, prior=item_prior, family=family,
                                  metrics=(metric,), phi=SamplingStrategy.parse(phi), b_null=30, seed=11)
        rngs = [derive_rng(config.seed, TRIAL, t) for t in range(3, 3 + TRIALS)]
        stacked = power._chunk_p_values(config, tuple(TestId), rngs, alpha)
        assert stacked.shape == (TRIALS, len(TestId))
        for row, trial in zip(stacked.tolist(), range(3, 3 + TRIALS)):
            alone = power._trial_p_value(config, tuple(TestId), trial, alpha)
            for i, test in enumerate(TestId):
                _same_p(row[i], alone[i], power_trial_oracle(config, test, trial), alpha)


@pytest.mark.parametrize("budget", [1, 200])  # one trial a batch, then three
def test_a_large_trial_stacks_fewer_trials(budget, monkeypatch):
    # A sweep's chunk of trials, one batch, holds at most _CHUNK_BUDGET
    # floats of G, A and B: 60 a trial here. The budget also sizes the
    # bootstrap test's null chunks, so the trials alone run under the same
    # budget.
    monkeypatch.setattr(inference, "_CHUNK_BUDGET", budget)
    config = ExperimentConfig(n_items=20, k_responses=1, epsilon=0.15, b_null=30, seed=11)
    alone = [power._trial_p_value(config, tuple(TestId), t, config.alpha) for t in range(8)]
    batches, chunks = [], []
    simulate, chunk_p_values = power.simulate_batch, power._chunk_p_values
    monkeypatch.setattr(power, "simulate_batch", lambda *args: batches.append(len(args[1])) or simulate(*args))
    monkeypatch.setattr(power, "_chunk_p_values", lambda *args: chunks.append(chunk_p_values(*args)) or chunks[-1])
    reports = power.power_sweeps(config, tuple(TestId), 8, "n_items", (20,))
    assert np.concatenate(chunks).tolist() == alone
    assert [r.points[0].rejections for r in reports] == np.less(alone, config.alpha).sum(axis=0).tolist()
    assert batches == ([1] * 8 if budget == 1 else [3, 3, 2])


# -- the per-trial record ------------------------------------------------------------------

RECORD = ExperimentConfig(n_items=12, k_responses=5, epsilon=0.1, prior=toxicity_prior(), family=ResponseFamily(5),
                          b_null=40, seed=13)
RECORD_N = (12, 40)  # exact, then Monte Carlo permutation test


@pytest.mark.parametrize("budget", [None, 3 * 12 * 15], ids=["default-chunks", "chunks-of-3-and-1"])
@pytest.mark.parametrize("threads", [1, 2])
def test_the_record_holds_each_trials_p_values(threads, budget, monkeypatch):
    if budget is not None:
        # 12 * 15 floats of G, A and B a trial at N = 12, 40 * 15 at N = 40.
        monkeypatch.setattr(inference, "_CHUNK_BUDGET", budget)
    tests = tuple(TestId)
    configs = power.sweep_configs(RECORD, tests, "n_items", RECORD_N)
    chunks = [min(8, inference._chunk_size(cfg.n_items, 3 * cfg.k_responses)) for cfg in configs]
    assert chunks == ([8, 8] if budget is None else [3, 1])
    records = power._sweep_p_values(configs, tests, 7, threads)
    reports = power.power_sweeps(RECORD, tests, 7, "n_items", RECORD_N, threads)
    for j, (cfg, rows) in enumerate(zip(configs, records)):
        assert rows.dtype == np.float64 and rows.shape == (7, len(tests))
        assert rows.tolist() == [power._trial_p_value(cfg, tests, t, cfg.alpha) for t in range(7)]
        rejecting = rows < cfg.alpha
        assert [report.points[j].rejections for report in reports] == rejecting.sum(axis=0).tolist()
        assert (rows[~rejecting] >= cfg.alpha).all()
    # Both verdicts occur, so the last two checks read both kinds of entry,
    # and the permutation test stops early at N = 40: some entries are partial p.
    assert {True, False} <= set(np.concatenate(records).ravel() < RECORD.alpha)
    full = [power._trial_p_value(configs[1], tests, t) for t in range(7)]
    assert (records[1] < full).any()


# -- one generator per batch row ---------------------------------------------------------

def one_block(config, rng, c):
    """G, A and B's draws of c experiments: ``draw_blocks`` with one block."""
    return tuple(next(phase) for phase in draw_blocks(config, rng, c, [(0, c)]))


DRAW_PRIORS = {
    "synthetic": (default_synthetic_prior(), ResponseFamily()),
    "toxicity": (toxicity_prior(), ResponseFamily(5)),
    "multidomain": (multidomain_prior(), ResponseFamily(2)),
    "truncated-triangular": (ItemPrior(truncated_normal(0.4, 0.3, 0.0, 1.0), triangular(0.0, 0.1, 0.3)),
                             ResponseFamily()),
    "folded-mixture": (ItemPrior(folded_normal(0.3, 0.2, hi=1.0),
                                 DistributionSpec(Family.GAUSSIAN_MIXTURE2, {"mu1": 0.1, "sigma1": 0.0, "mu2": 0.2,
                                                                             "sigma2": 0.0, "kappa": 0.4})),
                       ResponseFamily(3)),
    "zero-scale": (ItemPrior(uniform(0.0, 1.0), uniform(0.0, 0.0)), ResponseFamily()),
}


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("prior", DRAW_PRIORS)
def test_one_block_of_generators_equals_one_batch_per_generator(prior, k):
    item_prior, family = DRAW_PRIORS[prior]
    config = ExperimentConfig(n_items=7, k_responses=k, epsilon=0.2, prior=item_prior, family=family)
    rngs = [derive_rng(5, TRIAL, t) for t in range(4)]
    g, a, draws = one_block(config, rngs, len(rngs))
    b = draws.responses(config.epsilon, config.family)
    for row, rng in zip(range(4), rngs):
        want_rng = derive_rng(5, TRIAL, row)
        want = simulate_batch(config, want_rng, 1)
        for got, one in zip((g, a, b), want):
            assert np.array_equal(got[row], one[0])
        assert rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("blocks", [1, 2, 5], ids=["one-span", "two-spans", "c-spans"])
@pytest.mark.parametrize("prior", DRAW_PRIORS)
def test_draw_blocks_of_generators_equal_one_block_rows(prior, blocks):
    # Power draws its trials in one span; the simulator must also split
    # per-row generators into row blocks, as it does one generator.
    item_prior, family = DRAW_PRIORS[prior]
    config = ExperimentConfig(n_items=7, k_responses=3, epsilon=0.2, prior=item_prior, family=family)
    c = 5
    got_rngs, want_rngs = ([derive_rng(6, TRIAL, t) for t in range(c)] for _ in range(2))
    spans = chunk_ranges(c, -(-c // blocks))
    assert len(spans) == blocks
    g, a, draws = ([*phase] for phase in draw_blocks(config, got_rngs, c, spans))
    want_g, want_a, want_draws = one_block(config, want_rngs, c)
    assert np.concatenate(g).tobytes() == want_g.tobytes()
    assert np.concatenate(a).tobytes() == want_a.tobytes()
    for field in ("mu", "sigma", "u", "z"):
        got = np.concatenate([getattr(d, field) for d in draws])
        assert got.tobytes() == getattr(want_draws, field).tobytes()
    for got_rng, want_rng in zip(got_rngs, want_rngs):
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


# -- the row forms of the baseline tests ---------------------------------------------------

_TIED = st.sampled_from([-0.5, -0.25, 0.0, 0.0, 0.25, 0.5, 1.0])


@st.composite
def difference_rows(draw):
    """(T, m) differences: ties, zeros and m near the exact branch's limit of 20."""
    m = draw(st.sampled_from([0, 1, 2, 5, 19, 20, 21, 22, 23, 40]))
    t = draw(st.integers(1, 5))
    values = st.one_of(_TIED, st.floats(-1.0, 1.0, allow_subnormal=False))
    return np.array(draw(st.lists(st.lists(values, min_size=m, max_size=m), min_size=t, max_size=t)),
                    dtype=float).reshape(t, m)


@settings(max_examples=300, deadline=None)
@given(difference_rows())
def test_wilcoxon_rows_equal_one_row_calls(d):
    p, evidence = power._wilcoxon_rows(d)
    assert list(evidence) == [bool(np.any(row != 0)) for row in d]
    for row, p_row, has in zip(d, p, evidence):
        (one,), (one_has,) = power._wilcoxon_rows(row[None])
        assert one_has == has
        if has:
            assert p_row == one == power.wilcoxon_signed_rank(row)
            m = np.count_nonzero(row)
            if m > power._WILCOXON_EXACT_MAX:
                assert p_row == wilcoxon_normal_oracle(row)
            elif m <= 5:  # the enumeration's 2^m patterns stay few
                assert p_row == pytest.approx(wilcoxon_enumeration_oracle(row), abs=1e-12)
        else:
            assert np.isnan(p_row) and np.isnan(one)


@st.composite
def sample_rows(draw):
    """(T, nx) and (T, ny) samples; some rows constant, so one or both have zero variance."""
    t = draw(st.integers(1, 5))
    nx, ny = draw(st.integers(2, 30)), draw(st.integers(2, 30))

    def row(size):
        if draw(st.booleans()):
            return [draw(st.sampled_from([0.0, 0.25, 1.0]))] * size
        return draw(st.lists(st.one_of(_TIED, st.floats(0.0, 1.0)), min_size=size, max_size=size))

    return (np.array([row(nx) for _ in range(t)], dtype=float),
            np.array([row(ny) for _ in range(t)], dtype=float))


@settings(max_examples=300, deadline=None)
@given(sample_rows())
def test_welch_rows_equal_one_row_calls(samples):
    x, y = samples
    p, spread = power._welch_rows(x, y)
    for xr, yr, p_row, has in zip(x, y, p, spread):
        assert has == bool(np.var(xr) != 0 or np.var(yr) != 0)
        (one,), _ = power._welch_rows(xr[None], yr[None])
        if has:  # finite: spreads whose squares underflow take df from the variance shares
            assert np.isfinite(p_row)
            np.testing.assert_array_equal([p_row, one, power.welch_t_test(xr, yr)], welch_oracle(xr, yr))
        else:
            assert np.isnan(p_row) and np.isnan(one)
