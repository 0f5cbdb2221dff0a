"""Statistical power estimation for the multistage bootstrap test and
three classical baselines (Welch's t, Wilcoxon signed-rank, paired
permutation).

All tests are one-sided toward "B worse than A". The baselines see only the
pre-computed per-item mean absolute errors; the multistage bootstrap test
resamples items and, per item, responses drawn from the pooled A+B
responses, so it sees the full response-level variance.

Power is a rejection rate over simulated trials. ``power_sweeps`` runs
several tests along one sweep axis: each trial simulates one dataset that
every test sees, and every (sweep point, chunk of trials) is one task on
one pool of threads. ``estimate_power`` is its one-test, one-point call.

A rejection rate needs only each trial's verdict, p < alpha. So a sweep
stops the bootstrap test and the Monte Carlo permutation test as soon as
their add-one p can no longer fall below alpha (the curtailed test of
Besag & Clifford, 1991): the verdict, and a rejecting p, equal the full
run's. The public tests always run to the end and return the full p.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import rngstreams
from .config import ExperimentConfig, Level, SamplingStrategy
from .errors import (
    AllZeroDifferences,
    DegenerateVariance,
    EmptySample,
    InvalidParam,
)
from .inference import _chunk_size, _map_chunks, _null_blocks, _null_pool, _spans
from .metrics import (
    MetricId,
    comparison,
    item_scores,
    kernel_inputs,
    model_items,
    pair_scores,
    prepare_gold,
)
from .simulator import ResponseMatrix, check_count, check_finite, check_matrices, simulate_batch

__all__ = [
    "TestId",
    "PowerPoint",
    "PowerReport",
    "per_item_errors",
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


# -- per-item errors -----------------------------------------------------------

def per_item_errors(m: ResponseMatrix, g: ResponseMatrix) -> np.ndarray:
    """|mean(M_i) - mean(G_i)| per item, in item order: the kernel's MAE item scores."""
    check_matrices(g, m)
    arrays, counts = kernel_inputs(g, m, m)
    return item_scores((MetricId.MAE,), *arrays, counts)[MetricId.MAE][0]


# -- Student t survival via regularized incomplete beta -------------------------

def _t_sf(t: float, df: float) -> float:
    from scipy import special

    if df <= 0:
        raise InvalidParam("df", "degrees of freedom must be positive")
    if t == 0:
        return 0.5
    x = df / (df + t * t)
    half_tail = 0.5 * special.betainc(df / 2.0, 0.5, x)
    return half_tail if t > 0 else 1.0 - half_tail


def welch_t_test(x, y) -> float:
    """One-sided Welch p-value for "center of y exceeds center of x"."""
    x = check_finite("x", x)
    y = check_finite("y", y)
    if x.size < 2 or y.size < 2:
        raise EmptySample("welch_t_test needs at least two values per sample")
    vx = x.var(ddof=1)
    vy = y.var(ddof=1)
    if vx == 0 and vy == 0:
        raise DegenerateVariance("both samples have zero variance")
    se2 = vx / x.size + vy / y.size
    t = (y.mean() - x.mean()) / np.sqrt(se2)
    df = se2**2 / ((vx / x.size) ** 2 / (x.size - 1) + (vy / y.size) ** 2 / (y.size - 1))
    return float(_t_sf(float(t), float(df)))


# -- Wilcoxon signed-rank ---------------------------------------------------------

_WILCOXON_EXACT_MAX = 20


def _average_ranks(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1-based ranks of a 1-D array, and the sizes of its tie groups in sorted order.

    A tie group takes the mean of its positions: the group at sorted
    positions [start, end) gets (start + end + 1) / 2, an exact half-integer,
    so the ranks equal ``scipy.stats.rankdata(x)`` bit for bit, and the sizes
    equal ``np.unique(x, return_counts=True)[1]``.
    """
    order = np.argsort(x, kind="stable")
    sorted_x = x[order]
    starts = np.flatnonzero(np.concatenate(([True], sorted_x[1:] != sorted_x[:-1])))
    ends = np.append(starts[1:], x.size)
    sizes = ends - starts
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, sizes)
    return ranks, sizes


def wilcoxon_signed_rank(d) -> float:
    """One-sided signed-rank p-value P(W >= W+) under sign symmetry.

    Exact for m <= 20 (distribution of W over all 2^m sign patterns via
    subset-sum counting on doubled ranks, so average ties stay exact);
    normal approximation with tie-corrected variance and continuity
    correction beyond that. Zero differences are dropped first.
    """
    d = check_finite("d", d)
    d = d[d != 0]
    m = d.size
    if m == 0:
        raise AllZeroDifferences("all paired differences are zero")
    ranks, tie_counts = _average_ranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    if m <= _WILCOXON_EXACT_MAX:
        ranks2 = np.rint(2 * ranks).astype(np.int64)
        total = int(ranks2.sum())
        counts = np.zeros(total + 1)
        counts[0] = 1.0
        for r in ranks2:
            counts[r:] += counts[: total + 1 - r]
        threshold = int(np.rint(2 * w_plus))
        return float(counts[threshold:].sum() / 2.0**m)
    from scipy import special

    mean = m * (m + 1) / 4.0
    var = m * (m + 1) * (2 * m + 1) / 24.0
    var -= (tie_counts**3 - tie_counts).sum() / 48.0
    z = (w_plus - 0.5 - mean) / np.sqrt(var)
    return float(special.ndtr(-z))


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
    x = check_finite("x", x)
    y = check_finite("y", y)
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
    check_count("iterations", iterations, "need at least one iteration")
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
    must share per-item counts. p-value is add-one smoothed.
    """
    check_matrices(g, a, b)
    check_count("b_null", b_null, "need at least one null resample")
    pool = _null_pool(a, b)[0]
    if rng is None:
        rng = np.random.default_rng()
    arrays, counts = kernel_inputs(g, a, b)
    return _bootstrap_p_value(*arrays, pool, metric, phi, b_null, rng, counts)


def _bootstrap_p_value(g, a, b, pool, metric, phi, b_null, rng, counts=None, alpha=None) -> float:
    """``multistage_bootstrap_test`` on aligned arrays and their A+B pool; padded ones with counts.

    Hits are counted per row block of null scores. With ``alpha`` the loop
    stops, as ``_permutation_p_value``'s does, once p >= alpha is settled,
    so the remaining B blocks and chunks are never drawn.
    """
    cg, ca, cb = counts or (None,) * 3
    metrics = (metric,)
    gold = prepare_gold(metrics, g, cg)
    observed = float(comparison(metric, *pair_scores(
        metrics, model_items(gold, a, ca), model_items(gold, b, cb))[metric]))
    hits = 0
    for lo, hi in rngstreams.chunk_ranges(b_null, _chunk_size(*g.shape)):
        for (scores,) in _null_blocks(metrics, phi, g, gold, pool[None], rng, hi - lo,
                                      None if ca is None else 2 * ca):
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

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "power_report",
            "test": self.test.value,
            "alpha": self.alpha,
            "trials": self.trials,
            "axis": self.axis,
            "points": [p.to_json_dict() for p in self.points],
        }


def _trial_p_value(config: ExperimentConfig, tests: tuple[TestId, ...], trial: int,
                   alpha: float | None = None) -> list[float]:
    """One p-value per test, in the order of ``tests``, on trial ``trial``'s dataset.

    The trial simulates one (G, A, B) triple from its own generator. Every
    test starts from the generator state the simulation left, so each p
    equals the one the test gets alone; the baselines share one set of MAE
    item errors.

    With ``alpha``, the bootstrap and Monte Carlo permutation tests stop
    drawing once their p >= alpha is settled and return that partial p:
    ``p < alpha`` is then the full p's verdict, and a rejecting p is the
    full p. A stopped test leaves the generator mid-stream, which no later
    test reads, since each restarts from the simulation's state.
    """
    rng = rngstreams.derive_rng(config.seed, rngstreams.TRIAL, trial)
    g, a, b = (x[0] for x in simulate_batch(config, rng, 1))
    start = rng.bit_generator.state
    errors = None
    p = []
    for test in tests:
        rng.bit_generator.state = start
        if test == TestId.MULTISTAGE_BOOTSTRAP:
            p.append(_bootstrap_p_value(g, a, b, np.concatenate([a, b], axis=1), config.metrics[0],
                                        config.phi, config.b_null, rng, alpha=alpha))
            continue
        if errors is None:
            errors = item_scores((MetricId.MAE,), g, a, b)[MetricId.MAE]
        p.append(_baseline_p_value(test, *errors, rng, alpha))
    return p


def _baseline_p_value(test: TestId, err_a: np.ndarray, err_b: np.ndarray, rng: np.random.Generator,
                      alpha: float | None) -> float:
    """A classical test on per-item errors; data without evidence give p = 1.

    ``alpha`` is the permutation test's stopping level (``_permutation_p_value``).
    """
    if test == TestId.WELCH_T:
        try:
            return welch_t_test(err_a, err_b)
        except DegenerateVariance:
            return 1.0
    if test == TestId.WILCOXON_SIGNED_RANK:
        d = err_b - err_a
        if not np.any(d != 0):
            return 1.0
        return wilcoxon_signed_rank(d)
    if test == TestId.PERMUTATION_PAIRED:
        return _permutation_p_value(err_a, err_b, 1000, rng, alpha)
    raise AssertionError(test)


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

    Every point is checked for every test before any trial runs. Trial t of
    a point simulates its dataset once and applies every test to it, and
    each (point, chunk of 8 trials) is one task on one pool of ``threads``
    threads. Each report equals ``power_sweeps`` of its test alone.
    """
    configs = sweep_configs(config, tests, axis, values)
    check_count("trials", trials, "need at least one trial")
    chunks = rngstreams.chunk_ranges(trials, 8)

    def run(task) -> np.ndarray:
        cfg, (lo, hi) = task
        return np.sum([np.less(_trial_p_value(cfg, tests, t, cfg.alpha), cfg.alpha)
                       for t in range(lo, hi)], axis=0, dtype=np.int64)

    hits = _map_chunks(run, [(cfg, span) for cfg in configs for span in chunks], threads)
    rejections = np.reshape(hits, (len(configs), len(chunks), len(tests))).sum(axis=1)
    return [
        PowerReport(test=test, alpha=config.alpha, trials=trials, axis=axis, points=tuple(
            PowerPoint(axis_value=int(value), rejections=int(r), trials=trials)
            for value, r in zip(values, rejections[:, i])
        ))
        for i, test in enumerate(tests)
    ]


def sweep_configs(
    config: ExperimentConfig, tests: tuple[TestId, ...], axis: str, values: tuple[int, ...]
) -> list[ExperimentConfig]:
    """The config of each sweep point; raises before any trial runs.

    A sweep needs at least one point, each an integer (the config names the
    axis of a value that is not), and Welch's t test needs at least two
    items at every point.
    """
    if axis not in ("n_items", "k_responses"):
        raise InvalidParam("axis", "axis must be n_items or k_responses")
    if not values:
        raise InvalidParam(axis, "a sweep needs at least one value")
    configs = [config.with_(**{axis: value}) for value in values]
    if TestId.WELCH_T in tests and any(cfg.n_items < 2 for cfg in configs):
        raise InvalidParam("n_items", "Welch's t test needs at least two items")
    return configs
