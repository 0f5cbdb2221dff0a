"""Statistical power estimation for the multistage bootstrap test and
three classical baselines (Welch's t, Wilcoxon signed-rank, paired
permutation).

All tests are one-sided toward "B worse than A". The baselines see only the
pre-computed per-item mean absolute errors; the multistage bootstrap test
resamples items and, per item, responses drawn from the pooled A+B
responses, so it sees the full response-level variance.

Power is a rejection rate over simulated trials. ``power_sweeps`` runs
several tests along one sweep axis: each trial simulates one dataset that
every test sees, and each sweep point is an arm of ``inference._collect``:
every (point, chunk of at most 8 trials, fewer where N·K is large) is one
task on one pool of threads. The tasks return each trial's p-values
(``_sweep_p_values``: one row per trial), and ``power_sweeps`` alone
compares them with alpha. ``estimate_power`` is its one-test, one-point call.

A chunk stacks its trials into one simulated batch and runs the
baselines' statistics once over its rows (``_chunk_p_values``); the
public Welch and Wilcoxon tests are the one-row case of those row forms.

A rejection rate needs only each trial's verdict, p < alpha. So a sweep
stops the bootstrap test and the Monte Carlo permutation test as soon as
their add-one p can no longer fall below alpha (the curtailed test of
Besag & Clifford, 1991): the verdict, and a rejecting p, equal the full
run's; a non-rejecting p may be the partial p, >= alpha. The public tests
always run to the end and return the full p.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import inference, rngstreams
from .config import ExperimentConfig, Level, SamplingStrategy
from .errors import (
    AllZeroDifferences,
    DegenerateVariance,
    EmptySample,
    InvalidParam,
    check_count,
)
from .inference import _Arm, _chunk_size, _collect, _null_blocks, _null_pool, _spans, _Workspace
from .metrics import Gold, MetricId, comparison, kernel_inputs, pair_scores, triple_items
from .simulator import ResponseMatrix, check_finite, check_matrices, check_member, simulate_batch

__all__ = [
    "TestId",
    "PowerPoint",
    "PowerReport",
    "welch_t_test",
    "wilcoxon_signed_rank",
    "permutation_test_paired",
    "multistage_bootstrap_test",
    "estimate_power",
    "sweep_configs",
    "power_sweeps",
]


class TestId(str, enum.Enum):
    __test__ = False  # tells pytest this is not a test class

    MULTISTAGE_BOOTSTRAP = "bootstrap"
    WELCH_T = "welch"
    WILCOXON_SIGNED_RANK = "wilcoxon"
    PERMUTATION_PAIRED = "permutation"


# -- baseline samples -------------------------------------------------------------

def _sample(name: str, values) -> np.ndarray:
    """A baseline test's sample as a float array: finite and 1-D, else ``InvalidParam`` naming it."""
    x = check_finite(name, values)
    if x.ndim != 1:
        raise InvalidParam(name, f"expected a 1-D sample, got {x.ndim} dimensions")
    return x


# -- Welch's t ---------------------------------------------------------------------

def _t_sf(t: np.ndarray, df: np.ndarray) -> np.ndarray:
    """Student t survival at each (t, df), via the regularized incomplete beta."""
    from scipy import special

    if np.any(df <= 0):
        raise InvalidParam("df", "degrees of freedom must be positive")
    x = df / (df + t * t)
    half_tail = 0.5 * special.betainc(df / 2.0, 0.5, x)
    return np.where(t == 0, 0.5, np.where(t > 0, half_tail, 1.0 - half_tail))


def _welch_rows(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One-sided Welch p of each row pair of (T, nx) x and (T, ny) y, and which pairs have variance.

    A pair whose rows both have zero variance has no t statistic; its p is NaN.
    Where the squares in the Welch-Satterthwaite df underflow (or overflow),
    df comes from the variance shares (v/n) / se2 instead, which do not.
    """
    nx, ny = x.shape[-1], y.shape[-1]
    vx, vy = x.var(axis=-1, ddof=1), y.var(axis=-1, ddof=1)
    spread = (vx != 0) | (vy != 0)
    with np.errstate(divide="ignore", invalid="ignore"):  # the pairs without spread
        se2 = vx / nx + vy / ny
        t = (y.mean(axis=-1) - x.mean(axis=-1)) / np.sqrt(se2)
        df = se2**2 / ((vx / nx) ** 2 / (nx - 1) + (vy / ny) ** 2 / (ny - 1))
        sx, sy = vx / nx / se2, vy / ny / se2
        df = np.where(np.isfinite(df), df, 1.0 / (sx**2 / (nx - 1) + sy**2 / (ny - 1)))
        return _t_sf(np.where(spread, t, np.nan), np.where(spread, df, np.nan)), spread


def welch_t_test(x, y) -> float:
    """One-sided Welch p-value for "center of y exceeds center of x"."""
    x, y = _sample("x", x), _sample("y", y)
    if x.size < 2 or y.size < 2:
        raise EmptySample("welch_t_test needs at least two values per sample")
    (p,), (spread,) = _welch_rows(x[None], y[None])
    if not spread:
        raise DegenerateVariance("both samples have zero variance")
    return float(p)


# -- Wilcoxon signed-rank ---------------------------------------------------------

_WILCOXON_EXACT_MAX = 20


def _average_ranks(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1-based ranks within each row of x, (n,) or (T, n), and the sizes of its tie groups in sorted order.

    A tie group takes the mean of its positions: the group at sorted
    positions [start, end) gets (start + end + 1) / 2, an exact half-integer,
    so a row's ranks equal ``scipy.stats.rankdata`` of it bit for bit. The
    sizes run row after row; a row's equal ``np.unique(row, return_counts=True)[1]``.
    """
    rows = np.atleast_2d(x)
    n = rows.shape[-1]
    order = np.argsort(rows, axis=-1, kind="stable")
    sorted_x = np.take_along_axis(rows, order, axis=-1)
    new = np.ones(rows.shape, dtype=bool)
    new[:, 1:] = sorted_x[:, 1:] != sorted_x[:, :-1]
    starts = np.flatnonzero(new)
    ends = np.append(starts[1:], rows.size)
    sizes = ends - starts
    offsets = starts - starts % max(1, n)  # each group's row start
    ranks = np.empty(rows.shape)
    ranks_sorted = np.repeat((starts - offsets + ends - offsets + 1) / 2.0, sizes).reshape(rows.shape)
    np.put_along_axis(ranks, order, ranks_sorted, axis=-1)
    return ranks.reshape(x.shape), sizes


def _wilcoxon_rows(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``wilcoxon_signed_rank`` of each row of (T, n) d, and which rows have a nonzero difference.

    Zeros rank after every nonzero |d|, so the first m sorted positions of a
    row are its m nonzero differences. A row of zeros has no statistic; its
    p is NaN. Rows with m <= 20 take the exact branch one by one.
    """
    nonzero = d != 0
    m = nonzero.sum(axis=-1)
    ranks, sizes = _average_ranks(np.where(nonzero, np.abs(d), np.inf))
    w_plus = np.where(d > 0, ranks, 0.0).sum(axis=-1)  # half-integers: exact in any order
    # Σ (t³ - t) over a row's tie groups of nonzeros, as Σ (t² - 1) over their positions.
    tied = np.repeat(sizes, sizes).reshape(d.shape)
    ties = ((tied**2 - 1) * (np.arange(d.shape[-1]) < m[:, None])).sum(axis=-1)
    from scipy import special

    with np.errstate(divide="ignore", invalid="ignore"):  # the rows of zeros
        mean = m * (m + 1) / 4.0
        var = m * (m + 1) * (2 * m + 1) / 24.0 - ties / 48.0
        p = special.ndtr(-((w_plus - 0.5 - mean) / np.sqrt(var)))
    for i in np.flatnonzero((m > 0) & (m <= _WILCOXON_EXACT_MAX)):
        p[i] = _wilcoxon_exact(ranks[i][nonzero[i]], w_plus[i])
    p[m == 0] = np.nan
    return p, m > 0


def _wilcoxon_exact(ranks: np.ndarray, w_plus: float) -> float:
    """P(W >= w_plus) over all 2^m sign patterns of m ranks: subset-sum counts on doubled ranks."""
    ranks2 = np.rint(2 * ranks).astype(np.int64)
    total = int(ranks2.sum())
    counts = np.zeros(total + 1)
    counts[0] = 1.0
    for r in ranks2:
        counts[r:] += counts[: total + 1 - r]
    threshold = int(np.rint(2 * w_plus))
    return float(counts[threshold:].sum() / 2.0**ranks.size)


def wilcoxon_signed_rank(d) -> float:
    """One-sided signed-rank p-value P(W >= W+) under sign symmetry.

    Exact for m <= 20 (distribution of W over all 2^m sign patterns via
    subset-sum counting on doubled ranks, so average ties stay exact);
    normal approximation with tie-corrected variance and continuity
    correction beyond that. Zero differences are dropped first.
    """
    d = _sample("d", d)
    (p,), (evidence,) = _wilcoxon_rows(d[None])
    if not evidence:
        raise AllZeroDifferences("all paired differences are zero")
    return float(p)


# -- paired permutation test ------------------------------------------------------

_PERMUTATION_EXACT_MAX = 16


def permutation_test_paired(x, y, iterations: int = 1000, rng: np.random.Generator | None = None) -> float:
    """One-sided paired permutation p-value for statistic mean(y) - mean(x).

    Pairs are swapped independently with probability one half; exact
    enumeration of all 2^N swap patterns when N <= 16, otherwise Monte Carlo
    with add-one smoothing. The Monte Carlo signs are drawn in row blocks of
    at most ``inference._BLOCK`` values, each block equal to
    ``rng.integers(0, 2, block_shape) * 2 - 1``; ``integers`` fills in order,
    so the stream does not depend on the blocks. A PCG64 generator's signs
    are read from its raw 64-bit outputs (``rngstreams.signs``): the same
    values and the same final state, without NumPy's per-value loop.
    """
    return _permutation_p_value(x, y, iterations, rng)


def _permutation_p_value(x, y, iterations: int, rng: np.random.Generator | None,
                         alpha: float | None = None) -> float:
    """``permutation_test_paired``; with ``alpha``, the Monte Carlo loop may stop early.

    After each row block the loop stops once (1 + hits) / (1 + iterations)
    >= alpha, and returns that partial p: hits only grow, so the full p is
    >= alpha too and ``p < alpha`` gives the full run's verdict. The signs
    are int32, which consume the generator exactly as the default int64
    draw does (one 32-bit draw per value below 2^32) and multiply into
    float64 faster.
    """
    check_count("iterations", iterations, "need at least one iteration")
    x, y = _sample("x", x), _sample("y", y)
    if x.size != y.size or x.size == 0:
        raise EmptySample("permutation test needs equal-length nonempty samples")
    d = y - x
    n = d.size
    observed = d.mean()
    if n <= _PERMUTATION_EXACT_MAX:
        signs = ((np.arange(2**n, dtype=np.uint32)[:, None] >> np.arange(n)) & 1).astype(
            np.int8
        ) * 2 - 1
        perm_stats = (signs * d).mean(axis=1)
        return float((perm_stats >= observed).sum() / 2.0**n)
    if rng is None:
        rng = np.random.default_rng()
    hits = 0
    for lo, hi in _spans(iterations, n):
        signs = rngstreams.signs(rng, (hi - lo, n))
        hits += int(((signs * d).mean(axis=1) >= observed).sum())
        if _settled(hits, iterations, alpha):
            break
    return float((1 + hits) / (1 + iterations))


def _settled(hits: int, total: int, alpha: float | None) -> bool:
    """Whether the add-one p of ``total`` draws is >= alpha already, whatever the rest give."""
    return alpha is not None and (1 + hits) / (1 + total) >= alpha


# -- multistage bootstrap test ------------------------------------------------------

def multistage_bootstrap_test(
    g: ResponseMatrix,
    a: ResponseMatrix,
    b: ResponseMatrix,
    metric: MetricId = MetricId.MAE,
    phi: SamplingStrategy = SamplingStrategy(Level.BOOT, Level.BOOT),
    b_null: int = 500,
    rng: np.random.Generator | None = None,
) -> float:
    """One-sided bootstrap test of "B worse than A" on one dataset, ragged or not.

    The observed comparison score is referred to a null distribution built
    by resampling: items with replacement (when phi.items is boot), gold
    responses within each item (when phi.responses is boot), and per-item
    A/B responses always drawn from the pooled A+B responses, so A and B
    must share per-item counts. p-value is add-one smoothed. ``metric`` is
    a ``MetricId`` or its name.
    """
    metric = check_member("metric", metric, MetricId)
    if not isinstance(phi, SamplingStrategy):
        raise InvalidParam("phi", f"expected a SamplingStrategy, got {phi!r}")
    check_matrices(g, a, b)
    check_count("b_null", b_null, "need at least one null resample")
    pool = _null_pool(a, b)[0]
    if rng is None:
        rng = np.random.default_rng()
    arrays, counts = kernel_inputs(g, a, b)
    gold, qa, qb = triple_items((metric,), *arrays, counts)
    return _bootstrap_p_value(arrays[0], gold, pool, _observed(metric, qa, qb), metric, phi, b_null, rng,
                              None if counts is None else counts[1])


def _observed(metric: MetricId, qa, qb):
    """The comparison score of A's and B's ``model_items``, one per leading row."""
    return comparison(metric, *pair_scores((metric,), qa, qb)[metric])


# The bootstrap test's row blocks hold up to this many times ``inference._BLOCK``
# floats. Its loop is a stream of short NumPy calls per block, which do not
# scale to a second thread; fewer, larger blocks do. The test gathers from
# one trial's (N, K) G and (N, 2K) pool, which stay in cache, so a block's
# own index and gathered arrays (1 MB each at 4x) still fit a 2 MB L2;
# at 8x they spill it.
_BOOTSTRAP_BLOCKS = 4


def _bootstrap_p_value(g, gold, pool, observed, metric, phi, b_null, rng, ca=None, alpha=None) -> float:
    """``multistage_bootstrap_test``'s null loop on aligned arrays: g, its ``gold``, the A+B pool.

    ``observed`` is the data's comparison score; padded arrays come with A's
    counts ``ca``. Hits are counted per row block of null scores, each of at
    most ``_BOOTSTRAP_BLOCKS`` x ``inference._BLOCK`` floats (one resample
    where that is larger); the blocks change no draw and no score. With
    ``alpha`` the loop stops, as ``_permutation_p_value``'s does, once
    p >= alpha is settled, so the remaining B blocks and chunks are never
    drawn. Every chunk gathers G into the thread's chunk workspace.
    """
    metrics = (metric,)
    hits = 0
    ws = _Workspace.mine()
    block = _BOOTSTRAP_BLOCKS * inference._BLOCK
    for lo, hi in rngstreams.chunk_ranges(b_null, _chunk_size(*g.shape)):
        for (scores,) in _null_blocks(metrics, phi, g, gold, pool[None], rng, hi - lo, ws,
                                      None if ca is None else 2 * ca, block=block):
            hits += int((comparison(metric, *scores[metric]) >= observed).sum())
            if _settled(hits, b_null, alpha):
                return float((1 + hits) / (1 + b_null))
    return float((1 + hits) / (1 + b_null))


# -- power estimation ------------------------------------------------------------------

@dataclass(frozen=True)
class PowerPoint:
    axis_value: int
    rejections: int
    trials: int

    @property
    def power(self) -> float:
        return self.rejections / self.trials

    def to_json_dict(self) -> dict:
        return {
            "axis_value": self.axis_value,
            "rejections": self.rejections,
            "trials": self.trials,
            "power": self.power,
        }


@dataclass(frozen=True)
class PowerReport:
    test: TestId
    alpha: float
    trials: int
    axis: str
    points: tuple[PowerPoint, ...]


def _chunk_p_values(config: ExperimentConfig, tests: tuple[TestId, ...], rngs,
                    alpha: float | None = None) -> np.ndarray:
    """The (len(rngs), len(tests)) p-values of a chunk of trials: row t as its trial alone gives them.

    Trial t draws its (G, A, B) triple from its own generator ``rngs[t]``
    into row t of one batch (``simulate_batch`` with one generator per
    row). The bootstrap test's observed scores, the MAE item errors the
    baselines share, Welch's t and the Wilcoxon test then each run once
    over the batch's rows. The Monte Carlo loops stay per trial: the
    bootstrap test's null blocks, the permutation test and Wilcoxon's exact
    branch. Every test that draws restarts from its trial's post-simulation
    generator state, so each p equals the one the test gets alone.

    With ``alpha``, the bootstrap and Monte Carlo permutation tests stop
    drawing once their p >= alpha is settled and return that partial p:
    ``p < alpha`` is then the full p's verdict, and a rejecting p is the
    full p. A stopped test leaves the generator mid-stream, which no later
    test reads.
    """
    g, a, b = simulate_batch(config, rngs, len(rngs))
    starts = [rng.bit_generator.state for rng in rngs]
    metric = config.metrics[0]
    boot = TestId.MULTISTAGE_BOOTSTRAP in tests
    # G, A and B stay as drawn: the bootstrap test gathers from them.
    gold, qa, qb = triple_items((metric,) if boot else (), g, a, b)
    err_a, err_b = qa[0], qb[0]
    p = np.empty((len(rngs), len(tests)))
    for i, test in enumerate(tests):
        # Data without evidence (zero variance in both samples, all paired
        # differences zero) give p = 1.
        if test == TestId.WELCH_T:
            p[:, i], evidence = _welch_rows(err_a, err_b)
        elif test == TestId.WILCOXON_SIGNED_RANK:
            p[:, i], evidence = _wilcoxon_rows(err_b - err_a)
        else:
            continue
        p[~evidence, i] = 1.0
    if boot:
        observed = _observed(metric, qa, qb)
        pools = np.concatenate([a, b], axis=-1)
    for t, rng in enumerate(rngs):
        for i, test in enumerate(tests):
            if test not in (TestId.MULTISTAGE_BOOTSTRAP, TestId.PERMUTATION_PAIRED):
                continue
            rng.bit_generator.state = starts[t]
            if test == TestId.MULTISTAGE_BOOTSTRAP:
                trial_gold = Gold(*(None if x is None else x[t] for x in gold))
                p[t, i] = _bootstrap_p_value(g[t], trial_gold, pools[t], observed[t], metric,
                                             config.phi, config.b_null, rng, alpha=alpha)
            else:
                p[t, i] = _permutation_p_value(err_a[t], err_b[t], 1000, rng, alpha)
    return p


def _trial_p_value(config: ExperimentConfig, tests: tuple[TestId, ...], trial: int,
                   alpha: float | None = None) -> list[float]:
    """One p-value per test, in the order of ``tests``, on trial ``trial``'s dataset: the one-trial chunk."""
    rng = rngstreams.derive_rng(config.seed, rngstreams.TRIAL, trial)
    return _chunk_p_values(config, tests, [rng], alpha)[0].tolist()


def estimate_power(
    config: ExperimentConfig, test: TestId, trials: int, threads: int = 1
) -> PowerReport:
    """Rejection rate of ``test`` at the config's (N, K, epsilon).

    Each trial simulates a fresh dataset and applies the test to it; the
    multistage bootstrap test uses the first configured metric and the
    config's sampling strategy. A trial whose data carry no evidence (all
    paired differences zero, or zero variance in both samples) gets p = 1
    rather than aborting the sweep. Deterministic per (config.seed, test).
    """
    return power_sweeps(config, (test,), trials, "n_items", (config.n_items,), threads)[0]


def power_sweeps(
    config: ExperimentConfig,
    tests: tuple[TestId, ...],
    trials: int,
    axis: str,
    values: tuple[int, ...],
    threads: int = 1,
) -> list[PowerReport]:
    """Power curves of several tests along one axis: one report per test, in order.

    Every point is checked for every test before any trial runs. A point's
    rejections of a test are the rows of its ``_sweep_p_values`` record
    with p < alpha. Each report equals ``power_sweeps`` of its test alone.
    """
    tests = _test_ids(tests)
    configs = sweep_configs(config, tests, axis, values)
    check_count("trials", trials, "need at least one trial")
    check_count("threads", threads, "need at least one thread")
    records = _sweep_p_values(configs, tests, trials, threads)
    return [
        PowerReport(test=test, alpha=config.alpha, trials=trials, axis=axis, points=tuple(
            PowerPoint(axis_value=int(value), rejections=int((rows[:, i] < config.alpha).sum()), trials=trials)
            for value, rows in zip(values, records)
        ))
        for i, test in enumerate(tests)
    ]


def _sweep_p_values(configs: list[ExperimentConfig], tests: tuple[TestId, ...], trials: int,
                    threads: int) -> list[np.ndarray]:
    """Each point's record: a (trials, len(tests)) array whose row t is trial t's p-values.

    Row t equals ``_trial_p_value(cfg, tests, t, cfg.alpha)``. A rejecting
    entry (p < alpha) is the full p. A non-rejecting entry of the bootstrap
    or Monte Carlo permutation test may be the partial p at which the test
    stopped; it is >= alpha, as the full p is, so the verdict at alpha is
    exact. Each point is one ``_collect`` arm: trial t draws from
    derive_rng(seed, TRIAL, t), and each chunk of at most 8 trials, fewer
    where N·K is large (a batch holds at most ``_CHUNK_BUDGET`` floats of
    G, A and B), is one task.
    """
    def point(cfg: ExperimentConfig) -> _Arm:  # each chunk's rows of p-values
        return _Arm(cfg.seed, rngstreams.TRIAL, lambda rngs, c: _chunk_p_values(cfg, tests, rngs, cfg.alpha),
                    trials, min(8, _chunk_size(cfg.n_items, 3 * cfg.k_responses)), True)

    return [np.concatenate(chunks) for chunks in _collect([point(cfg) for cfg in configs], threads)]


def sweep_configs(
    config: ExperimentConfig, tests: tuple[TestId, ...], axis: str, values: tuple[int, ...]
) -> list[ExperimentConfig]:
    """The config of each sweep point; raises before any trial runs.

    A sweep needs at least one test, each a ``TestId`` or its name, and at
    least one point, each an integer (the config names the axis of a value
    that is not); Welch's t test needs at least two items at every point.
    """
    tests = _test_ids(tests)
    if axis not in ("n_items", "k_responses"):
        raise InvalidParam("axis", "axis must be n_items or k_responses")
    if not values:
        raise InvalidParam(axis, "a sweep needs at least one value")
    configs = [config.with_(**{axis: value}) for value in values]
    if TestId.WELCH_T in tests and any(cfg.n_items < 2 for cfg in configs):
        raise InvalidParam("n_items", "Welch's t test needs at least two items")
    return configs


def _test_ids(tests) -> tuple[TestId, ...]:
    """``tests`` as ``TestId`` members; none at all, or a name of no test, raises ``InvalidParam``."""
    if not tests:
        raise InvalidParam("tests", "need at least one test")
    return tuple(check_member("tests", test, TestId) for test in tests)
