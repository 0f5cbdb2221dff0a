"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's own algorithms: the transport oracle
solves an assignment problem, the p-value oracle is a double loop, and the
sign-test oracles enumerate every pattern. The list-of-rows oracles score
and resample ragged data one item row at a time, with one generator call
per row; the batched engine must reproduce them bit for bit. The fit
oracles draw and score one grid candidate at a time with the generator's
own distribution methods. The CDF oracle gives each family's distribution
function in closed form, the reference the samplers' KS and W1 checks
compare against.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import linear_sum_assignment


def emd_transport_oracle(x, y) -> float:
    """Exact 1-Wasserstein via assignment on a replicated cost matrix.

    Replicating each x value len(y) times and each y value len(x) times
    turns the rational-mass transport problem into a balanced assignment
    problem whose optimum matches the transport optimum exactly.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xr = np.repeat(x, y.size)
    yr = np.repeat(y, x.size)
    cost = np.abs(xr[:, None] - yr[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum() / (x.size * y.size))


def emd_rows_oracle(x, y) -> float:
    """1-Wasserstein distance of two 1-D samples, computed for one row pair."""
    xs = np.sort(np.asarray(x, dtype=float))
    ys = np.sort(np.asarray(y, dtype=float))
    if xs.size == ys.size:
        return float(np.abs(xs - ys).mean())
    grid = np.sort(np.concatenate([xs, ys]))
    widths = np.diff(grid)
    fx = np.searchsorted(xs, grid[:-1], side="right") / xs.size
    fy = np.searchsorted(ys, grid[:-1], side="right") / ys.size
    return float(np.sum(np.abs(fx - fy) * widths))


def scores_rows_oracle(g_rows, a_rows, b_rows) -> dict[str, float]:
    """Comparison scores (mae, wins, memd) of one ragged triple, item by item."""
    mg = np.array([row.mean() for row in g_rows])
    err_a = np.abs(np.array([row.mean() for row in a_rows]) - mg)
    err_b = np.abs(np.array([row.mean() for row in b_rows]) - mg)
    emd_a = np.array([emd_rows_oracle(x, y) for x, y in zip(a_rows, g_rows)])
    emd_b = np.array([emd_rows_oracle(x, y) for x, y in zip(b_rows, g_rows)])
    return {
        "mae": err_b.mean() - err_a.mean(),
        "wins": (err_a < err_b).mean(),
        "memd": emd_b.mean() - emd_a.mean(),
    }


def resample_rows_oracle(g_rows, a_rows, b_rows, items_boot, responses_boot, rng):
    """One multistage resample of row lists: item indices, then G's, A's, B's rows."""
    n = len(g_rows)
    idx = rng.integers(0, n, n) if items_boot else np.arange(n)
    out = [[rows[i] for i in idx] for rows in (g_rows, a_rows, b_rows)]
    if responses_boot:
        out = [[row[rng.integers(0, row.size, row.size)] for row in rows] for rows in out]
    return idx, out


def null_pair_rows_oracle(pool_rows, counts, rng):
    """Per-item with-replacement draws from pooled rows: all of A's, then B's."""
    a = [row[rng.integers(0, row.size, k)] for row, k in zip(pool_rows, counts)]
    b = [row[rng.integers(0, row.size, k)] for row, k in zip(pool_rows, counts)]
    return a, b


def bootstrap_test_oracle(g, a, b, metric, items_boot, responses_boot, b_null, chunk, rng):
    """The multistage bootstrap test as a plain chunk loop over (N, K) arrays.

    Each chunk of c null triples draws, in order: (c, N) item indices (item
    bootstrap), gold's response indices (response bootstrap), then A's and
    B's K indices per item into the pooled A+B responses; the triples are
    gathered with ``take_along_axis`` and scored with the metric kernel.
    """
    from raterpower.metrics import comparison, model_items, pair_scores, prepare_gold
    from raterpower.rngstreams import chunk_ranges

    n, k = g.shape
    metrics = (metric,)
    gold = prepare_gold(metrics, g)
    observed = float(comparison(metric, *pair_scores(metrics, model_items(gold, a), model_items(gold, b))[metric]))
    pool = np.concatenate([a, b], axis=1)
    hits = 0
    for lo, hi in chunk_ranges(b_null, chunk):
        c = hi - lo
        gs, ps = np.broadcast_to(g, (c, n, k)), np.broadcast_to(pool, (c, n, 2 * k))
        if items_boot:
            idx = rng.integers(0, n, (c, n))[:, :, None]
            gs, ps = np.take_along_axis(gs, idx, axis=1), np.take_along_axis(ps, idx, axis=1)
        if responses_boot:
            gs = np.take_along_axis(gs, rng.integers(0, k, (c, n, k)), axis=-1)
        a_null = np.take_along_axis(ps, rng.integers(0, 2 * k, (c, n, k)), axis=-1)
        b_null_ = np.take_along_axis(ps, rng.integers(0, 2 * k, (c, n, k)), axis=-1)
        gold = prepare_gold(metrics, gs)
        scores = pair_scores(metrics, model_items(gold, a_null), model_items(gold, b_null_))[metric]
        hits += int((comparison(metric, *scores) >= observed).sum())
    return float((1 + hits) / (1 + b_null))


def bootstrap_test_rows_oracle(g_rows, a_rows, b_rows, metric, items_boot, responses_boot, b_null,
                               chunk, rng):
    """The multistage bootstrap test on row lists, one generator call per row.

    Each chunk of c null triples draws, in the engine's stream order: the
    (c, N) item indices (item bootstrap), then gold's rows (response
    bootstrap), then A's and then B's rows drawn from each item's pooled
    A+B row, row after row over the chunk's resamples and items; every
    resample is scored with ``scores_rows_oracle``.
    """
    from raterpower.rngstreams import chunk_ranges

    n = len(g_rows)
    observed = scores_rows_oracle(g_rows, a_rows, b_rows)[metric]
    pool = [np.concatenate(rows) for rows in zip(a_rows, b_rows)]
    hits = 0
    for lo, hi in chunk_ranges(b_null, chunk):
        c = hi - lo
        idx = rng.integers(0, n, (c, n)) if items_boot else np.tile(np.arange(n), (c, 1))
        gold = [[g_rows[i] for i in items] for items in idx]
        if responses_boot:
            gold = [[row[rng.integers(0, row.size, row.size)] for row in rows] for rows in gold]
        a_null, b_null_ = (
            [[pool[i][rng.integers(0, pool[i].size, a_rows[i].size)] for i in items] for items in idx]
            for _ in range(2)
        )
        hits += sum(scores_rows_oracle(*triple)[metric] >= observed
                    for triple in zip(gold, a_null, b_null_))
    return float((1 + hits) / (1 + b_null))


def check_rows_oracle(*matrices):
    """The input check of (ids, rows) pairs, row by row: ids, then empty items, then values.

    Raises what ``simulator.check_matrices`` raises: ``ItemMismatch``, then
    ``EmptyItem``, then ``ValueOutOfRange`` for the first response outside
    [0, 1] (NaN included) in matrix, then item order.
    """
    from raterpower.errors import EmptyItem, ItemMismatch, ValueOutOfRange

    ids = list(matrices[0][0])
    if any(list(m_ids) != ids for m_ids, _ in matrices[1:]):
        raise ItemMismatch("matrices do not share item ids in order")
    if not ids:
        raise EmptyItem("matrices have no items")
    for _, rows in matrices:
        for item_id, row in zip(ids, rows):
            if len(row) == 0:
                raise EmptyItem(f"item {item_id!r} has no responses")
    for _, rows in matrices:
        for item_id, row in zip(ids, rows):
            for value in row:
                if not 0.0 <= value <= 1.0:
                    raise ValueOutOfRange(item_id, float(value))


def power_trial_oracle(config, test, trial) -> float:
    """One test's p-value on power trial ``trial``, simulated for that test alone.

    Derives the trial's generator, draws its (G, A, B) triple with
    ``simulate_batch`` and applies the test through the public test
    functions; a test that draws continues the generator where the
    simulation left it. The baselines' per-item errors are taken one item
    at a time, |mean(A row) - mean(G row)|. Data without evidence give p = 1.
    """
    from raterpower import power
    from raterpower.errors import DegenerateVariance
    from raterpower.rngstreams import TRIAL, derive_rng
    from raterpower.simulator import ResponseMatrix, simulate_batch

    rng = derive_rng(config.seed, TRIAL, trial)
    g, a, b = (ResponseMatrix.from_array(x[0]) for x in simulate_batch(config, rng, 1))
    if test == power.TestId.MULTISTAGE_BOOTSTRAP:
        return power.multistage_bootstrap_test(
            g, a, b, config.metrics[0], config.phi, config.b_null, rng)
    err_a, err_b = (np.array([abs(row.mean() - gold.mean()) for row, gold in zip(m.rows, g.rows)]) for m in (a, b))
    if test == power.TestId.WELCH_T:
        try:
            return power.welch_t_test(err_a, err_b)
        except DegenerateVariance:
            return 1.0
    if test == power.TestId.WILCOXON_SIGNED_RANK:
        d = err_b - err_a
        return power.wilcoxon_signed_rank(d) if np.any(d != 0) else 1.0
    return power.permutation_test_paired(err_a, err_b, iterations=1000, rng=rng)


def p_value_oracle(alt, null) -> tuple[float, list[int]]:
    """Double-loop expected one-sided p-value with median direction."""
    alt = list(map(float, alt))
    null = list(map(float, null))
    med_alt = float(np.median(alt))
    med_null = float(np.median(null))
    counts = []
    for s in alt:
        if med_alt >= med_null:
            counts.append(sum(1 for v in null if v >= s))
        else:
            counts.append(sum(1 for v in null if v < s))
    fractions = [c / len(null) for c in counts]
    return float(np.mean(fractions)), counts


def wilcoxon_enumeration_oracle(d) -> float:
    """P(W >= W+) by enumerating every sign pattern (use only for small m)."""
    d = np.asarray(d, dtype=float)
    d = d[d != 0]
    m = d.size
    from scipy.stats import rankdata

    ranks = rankdata(np.abs(d))
    w_obs = ranks[d > 0].sum()
    hits = 0
    for signs in itertools.product((0, 1), repeat=m):
        w = sum(r for s, r in zip(signs, ranks) if s)
        if w >= w_obs:
            hits += 1
    return hits / 2.0**m


def wilcoxon_normal_oracle(d) -> float:
    """The signed-rank normal approximation of one sample in scalar steps, with SciPy's ranks.

    Zeros dropped, tie-corrected variance, continuity correction: the
    formula ``wilcoxon_signed_rank`` uses beyond 20 nonzero differences.
    """
    from scipy import special
    from scipy.stats import rankdata

    d = np.asarray(d, dtype=float)
    d = d[d != 0]
    m = d.size
    ranks = rankdata(np.abs(d))
    ties = np.unique(np.abs(d), return_counts=True)[1]
    w_plus = float(ranks[d > 0].sum())
    var = m * (m + 1) * (2 * m + 1) / 24.0 - float((ties**3 - ties).sum()) / 48.0
    return float(special.ndtr(-((w_plus - 0.5 - m * (m + 1) / 4.0) / np.sqrt(var))))


def welch_oracle(x, y) -> float:
    """One-sided Welch p of two samples in scalar steps; the t survival by SciPy's incomplete beta."""
    from scipy import special

    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    wx, wy = x.var(ddof=1) / x.size, y.var(ddof=1) / y.size
    se2 = wx + wy
    t = float((y.mean() - x.mean()) / np.sqrt(se2))
    # Squares are products, as NumPy squares an array: a scalar's ** 2 calls
    # the C library's pow, which can differ from the exact product in the last bit.
    with np.errstate(divide="ignore", invalid="ignore"):  # squares that underflow give df NaN, as in NumPy
        df = float(se2 * se2 / (wx * wx / (x.size - 1) + wy * wy / (y.size - 1)))
    if not np.isfinite(df):  # then df from the variance shares, which do not underflow
        share_x, share_y = wx / se2, wy / se2
        df = float(1.0 / (share_x * share_x / (x.size - 1) + share_y * share_y / (y.size - 1)))
    if t == 0:
        return 0.5
    half_tail = float(0.5 * special.betainc(df / 2.0, 0.5, df / (df + t * t)))
    return half_tail if t > 0 else 1.0 - half_tail


def permutation_enumeration_oracle(x, y) -> float:
    """Paired-permutation p by enumerating every swap pattern (small N only)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    observed = (sum(y) - sum(x)) / n
    hits = 0
    for pattern in itertools.product((False, True), repeat=n):
        xs = [yi if swap else xi for xi, yi, swap in zip(x, y, pattern)]
        ys = [xi if swap else yi for xi, yi, swap in zip(x, y, pattern)]
        if (sum(ys) - sum(xs)) / n >= observed:
            hits += 1
    return hits / 2.0**n


def ks_distance(sample: np.ndarray, cdf, atoms=()) -> float:
    """Sup distance between an ECDF and a reference CDF on a dense grid."""
    sample = np.sort(np.asarray(sample, dtype=float))
    lo, hi = sample[0], sample[-1]
    span = max(hi - lo, 1e-9)
    grid = np.unique(
        np.concatenate(
            [
                np.linspace(lo - 0.05 * span, hi + 0.05 * span, 4001),
                sample[:: max(1, sample.size // 2000)],
                np.asarray(atoms, dtype=float),
                np.asarray(atoms, dtype=float) - 1e-9,
            ]
        )
    )
    ecdf_vals = np.searchsorted(sample, grid, side="right") / sample.size
    return float(np.max(np.abs(ecdf_vals - cdf(grid))))


def ragged_scores_oracle(g, a, b, items_boot, responses_boot, b_alt, b_null, seed):
    """Comparison scores of both arms on a ragged triple, one resample at a time.

    Resample j of an arm draws from its own generator derive_rng(seed, arm,
    j): the alternative resamples the triple's rows, the null draws A and B
    from each item's pooled A+B row. Returns {metric: (alt, null)} in
    resample order.
    """
    from raterpower.rngstreams import ALT, NULL, derive_rng

    alt = [
        scores_rows_oracle(*resample_rows_oracle(
            g.rows, a.rows, b.rows, items_boot, responses_boot, derive_rng(seed, ALT, j))[1])
        for j in range(b_alt)
    ]
    pool = [np.concatenate(rows) for rows in zip(a.rows, b.rows)]
    counts = [row.size for row in a.rows]
    null = [
        scores_rows_oracle(g.rows, *null_pair_rows_oracle(pool, counts, derive_rng(seed, NULL, j)))
        for j in range(b_null)
    ]
    return {m: (np.array([s[m] for s in alt]), np.array([s[m] for s in null]))
            for m in ("mae", "wins", "memd")}


def sample_oracle(spec, rng, count):
    """``count`` draws of a distribution spec through the generator's own methods."""
    from scipy import special

    from raterpower.errors import InvalidParam

    p, f = spec.params, spec.family.value
    inf = float("inf")
    if f == "uniform":
        return np.full(count, float(p["lo"])) if p["lo"] == p["hi"] else rng.uniform(p["lo"], p["hi"], count)
    if f == "normal":
        return rng.normal(p["mu"], p["sigma"], count)
    if f == "truncated-normal":
        mu, sigma, lo, hi = p["mu"], p["sigma"], p["lo"], p["hi"]
        if sigma == 0:
            return np.full(count, float(mu))
        a = special.ndtr((lo - mu) / sigma)
        b = special.ndtr((hi - mu) / sigma)
        if b - a <= 0.0:
            raise InvalidParam("lo", "truncation interval carries no mass")
        return np.clip(mu + sigma * special.ndtri(rng.uniform(a, b, count)), lo, hi)
    if f == "censored-normal":
        return np.clip(rng.normal(p["mu"], p["sigma"], count), p["lo"], p["hi"])
    if f == "folded-normal":
        return np.clip(np.abs(rng.normal(p["mu"], p["sigma"], count)), p.get("lo", -inf), p.get("hi", inf))
    if f == "triangular":
        x = np.full(count, float(p["a"])) if p["a"] == p["c"] else rng.triangular(p["a"], p["b"], p["c"], count)
        return np.clip(x, p.get("lo", -inf), p.get("hi", inf))
    if f == "gaussian-mixture2":
        first = rng.random(count) < p["kappa"]
        z = rng.standard_normal(count)
        return np.where(first, p["mu1"] + p["sigma1"] * z, p["mu2"] + p["sigma2"] * z)
    raise AssertionError(f)


def cdf_oracle(spec, x):
    """Right-continuous CDF of a distribution spec, in closed form, vectorized over ``x``."""
    from scipy import special

    scalar = np.isscalar(x)
    x = np.asarray(x, dtype=float)
    p, f = spec.params, spec.family.value

    def step(at):  # a point mass
        return (x >= at).astype(float)

    def normal(mu, sigma):
        return step(mu) if sigma == 0 else special.ndtr((x - mu) / sigma)

    def censor(base, lo, hi):
        # Clipping moves the tail mass onto the bounds: F is 0 below lo and
        # jumps to the latent F(lo) there, and jumps to 1 at hi.
        out = np.asarray(base, dtype=float).copy()
        if lo is not None:
            out[x < lo] = 0.0
        if hi is not None:
            out[x >= hi] = 1.0
        return out

    if f == "uniform":
        lo, hi = p["lo"], p["hi"]
        out = step(lo) if lo == hi else np.clip((x - lo) / (hi - lo), 0.0, 1.0)
    elif f == "normal":
        out = normal(p["mu"], p["sigma"])
    elif f == "truncated-normal":
        mu, sigma, lo, hi = p["mu"], p["sigma"], p["lo"], p["hi"]
        if sigma == 0:
            out = step(mu)
        else:
            a = special.ndtr((lo - mu) / sigma)
            b = special.ndtr((hi - mu) / sigma)
            out = np.clip((special.ndtr((x - mu) / sigma) - a) / (b - a), 0.0, 1.0)
    elif f == "censored-normal":
        out = censor(normal(p["mu"], p["sigma"]), p["lo"], p["hi"])
    elif f == "folded-normal":
        mu, sigma = p["mu"], p["sigma"]
        if sigma == 0:
            base = step(abs(mu))
        else:
            pos = special.ndtr((x - mu) / sigma) + special.ndtr((x + mu) / sigma) - 1.0
            base = np.where(x < 0, 0.0, np.clip(pos, 0.0, 1.0))
        out = censor(base, p.get("lo"), p.get("hi"))
    elif f == "triangular":
        a, b, c = p["a"], p["b"], p["c"]
        if a == c:
            base = step(a)
        else:
            base = np.zeros_like(x)
            left = (x > a) & (x < b)
            if b > a:
                base[left] = (x[left] - a) ** 2 / ((c - a) * (b - a))
            right = (x >= b) & (x < c)
            if c > b:
                base[right] = 1.0 - (c - x[right]) ** 2 / ((c - a) * (c - b))
            else:
                base[right] = 1.0
            base[x >= c] = 1.0
        out = censor(base, p.get("lo"), p.get("hi"))
    elif f == "gaussian-mixture2":
        out = p["kappa"] * normal(p["mu1"], p["sigma1"]) + (1.0 - p["kappa"]) * normal(p["mu2"], p["sigma2"])
    else:
        raise AssertionError(f)
    return float(out) if scalar else out


def fit_distance_oracle(real_values, sims) -> float:
    """Sorted-quantile mean absolute distance of data to clipped simulated draws, for one candidate."""
    real = np.sort(np.asarray(real_values, dtype=float))
    sims = np.sort(np.clip(sims, real[0], real[-1]))
    if sims.size == real.size:
        return float(np.abs(real - sims).mean())
    pos = (np.arange(real.size) + 0.5) / real.size * (sims.size - 1)
    lo = np.floor(pos).astype(np.int64)
    hi = np.minimum(lo + 1, sims.size - 1)
    frac = pos - lo
    return float(np.abs(real - (sims[lo] * (1.0 - frac) + sims[hi] * frac)).mean())


def fit_side_oracle(values, candidates, sim_count, seed, side):
    """(best index, distance) of a grid search, one candidate at a time.

    Candidate i draws from derive_rng(seed, FIT, side, i); ties go to the
    first candidate.
    """
    from raterpower.rngstreams import FIT, derive_rng

    best = (0, float("inf"))
    for i, spec in enumerate(candidates):
        dist = fit_distance_oracle(values, sample_oracle(spec, derive_rng(seed, FIT, side, i), sim_count))
        if dist < best[1]:
            best = (i, dist)
    return best
