"""Expected p-value estimation via alternative and null resample collections.

The experiment builds two collections of comparison scores:

* alternative scores, from resampled/simulated (G, A, B) test sets carrying
  the configured perturbation, and
* null scores, from triples whose A and B responses are drawn from the
  per-item pooled A+B responses (so the two models are exchangeable by
  construction), scored against the base gold matrix.

The reported p-value is the mean, over alternative scores, of the one-sided
fraction of null scores at least as extreme, with the side chosen by
comparing the two medians.

Resampling strategy semantics. In parametric mode every alternative
resample is a fresh simulator draw (new item params, responses and
perturbations); this fresh draw is the parametric counterpart of the
response-level bootstrap, so ``phi.responses`` adds no further layer. When
``phi.items`` is boot, the fresh triple is additionally multistage-resampled
(items with replacement, then responses per ``phi.responses``). In
bootstrap-of-given mode alternative resamples are plain multistage
bootstrap resamples of the supplied triple. Null resamples never take extra
resampling layers; drawing from the pooled responses is itself the
response-level resampling of the null hypothesis.

Engine. Every path runs on three pieces: ``simulate_batch``/``draw_batch``
draw batched triples, ``_resample`` gathers items with one shared (c, N)
index draw and then redraws responses with the one primitive ``_draw``
(``_null_positions`` draws the null A/B responses from the pool the same
way), and the ``metrics`` kernel scores the batch against gold prepared
once (``prepare_gold``). Each chunk of resamples derives its generator from
(seed, arm, chunk start), so results do not depend on the thread count.
Draws are split from gathers: index draws become flat positions into the
un-broadcast array (``_positions``), and each gather is one ``np.take``.

Epsilon column. No draw depends on epsilon, so ``run_column`` runs every
epsilon of one (N, K) from the same chunks: each chunk draws G, A and B's
standard normals and indices once, scores G and A once, then builds,
gathers and scores B per epsilon, one B at a time. The null arm draws its
pool positions once and gathers them from each epsilon's pool.
``run_experiment`` is the one-epsilon column.

Ragged given data run NaN-padded with per-item counts
(``ResponseMatrix.padded``): ``_draw_counted`` draws from each row's valid
slots, the kernel reduces items with equal counts as one block, and chunks
hold one resample, so resample j draws from derive_rng(seed, arm, j).
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass

import numpy as np

from . import rngstreams
from .config import ExperimentConfig, Level, Mode, SamplingStrategy
from .dataio import check_unit_range
from .errors import EmptyItem, EmptySample, InvalidParam, ItemMismatch
from .metrics import (
    Gold,
    MetricId,
    batch_scores,
    compare,
    comparison,
    kernel_inputs,
    model_items,
    model_scores,
    prepare_gold,
)
from .simulator import ResponseMatrix, draw_batch, simulate_batch

__all__ = [
    "resample_multistage",
    "build_null_pool",
    "sample_null_pair",
    "estimate_p_value",
    "run_experiment",
    "run_column",
    "Direction",
    "MetricPValue",
    "PValueReport",
]

# Target number of floats per vectorized resample chunk.
_CHUNK_BUDGET = 2_000_000


def _chunk_size(n: int, k: int) -> int:
    return max(1, _CHUNK_BUDGET // max(1, n * k))


# -- public resampling operations ------------------------------------------------

def resample_multistage(
    g: ResponseMatrix,
    a: ResponseMatrix,
    b: ResponseMatrix,
    phi: SamplingStrategy,
    rng: np.random.Generator,
) -> tuple[ResponseMatrix, ResponseMatrix, ResponseMatrix]:
    """One multistage resample of a (G, A, B) triple.

    With items=boot, one index sequence drawn with replacement is applied to
    all three matrices so item pairing survives. With responses=boot, each
    item's responses are then resampled with replacement independently
    within each matrix (G first, then A, then B).
    """
    if not (g.ids == a.ids == b.ids):
        raise ItemMismatch("triple does not share item ids")
    n = g.n_items
    idx = rng.integers(0, n, n) if phi.items == Level.BOOT else np.arange(n)
    values, counts = zip(*(m.padded() for m in (g, a, b)))
    responses_only = SamplingStrategy(Level.ALL, phi.responses)
    arrays, counts = _resample(tuple(x[idx] for x in values), rng, 1, responses_only,
                               tuple(k[idx] for k in counts))
    ids = tuple(g.ids[i] for i in idx)
    return tuple(ResponseMatrix.from_padded(x[0], k[0], ids) for x, k in zip(arrays, counts))


def build_null_pool(a: ResponseMatrix, b: ResponseMatrix) -> ResponseMatrix:
    """Per-item multiset union of A's and B's responses."""
    if a.ids != b.ids:
        raise ItemMismatch("matrices do not share item ids")
    differ = np.flatnonzero(a.counts() != b.counts())
    if differ.size:
        raise ItemMismatch(f"item {a.ids[differ[0]]!r}: per-item counts differ")
    a.require_responses()
    return ResponseMatrix(a.ids, tuple(map(np.concatenate, zip(a.rows, b.rows))))


def sample_null_pair(
    pool: ResponseMatrix, k, rng: np.random.Generator
) -> tuple[ResponseMatrix, ResponseMatrix]:
    """Two independent with-replacement samples per item (A first).

    ``k`` is one sample size for every item or a sequence of per-item sizes.
    """
    counts = np.broadcast_to(k, (pool.n_items,))
    if np.any(counts < 1):
        raise InvalidParam("k", "need at least one response per item")
    values, sizes = pool.require_responses().padded()
    draws = [_draw_counted(values, rng, counts, sizes) for _ in range(2)]  # A's, then B's
    return tuple(ResponseMatrix.from_padded(x, counts, pool.ids) for x in draws)


# -- p-value estimator -----------------------------------------------------------

class Direction:
    GREATER_EQUAL = "greater_equal"
    LESS = "less"


def estimate_p_value(alt_scores, null_scores) -> tuple[float, str]:
    """Median-directed one-sided expected p-value.

    If median(alt) >= median(null), "at least as extreme" means
    null >= alt; otherwise null < alt. Null scores are presorted and each
    per-alternative fraction found by binary search; the returned p is the
    mean of those fractions.
    """
    alt = np.asarray(alt_scores, dtype=float)
    null = np.asarray(null_scores, dtype=float)
    if alt.size == 0 or null.size == 0:
        raise EmptySample("need nonempty alternative and null score collections")
    null_sorted = np.sort(null)
    if np.median(alt) >= np.median(null_sorted):
        direction = Direction.GREATER_EQUAL
        counts = null.size - np.searchsorted(null_sorted, alt, side="left")
    else:
        direction = Direction.LESS
        counts = np.searchsorted(null_sorted, alt, side="left")
    return float(np.mean(counts / null.size)), direction


# -- reports ----------------------------------------------------------------------

def _summary(values: np.ndarray) -> dict:
    q25, q50, q75 = np.quantile(values, [0.25, 0.5, 0.75])
    return {
        "count": int(values.size),
        "mean": float(values.mean()),
        "std": float(values.std()),
        "min": float(values.min()),
        "q25": float(q25),
        "median": float(q50),
        "q75": float(q75),
        "max": float(values.max()),
    }


@dataclass(frozen=True)
class MetricPValue:
    metric: MetricId
    p_value: float
    direction: str
    median_alt: float
    median_null: float
    significant: bool
    alt_summary: dict
    null_summary: dict

    def to_json_dict(self) -> dict:
        return {
            "p_value": self.p_value,
            "direction": self.direction,
            "median_alt": self.median_alt,
            "median_null": self.median_null,
            "significant": self.significant,
            "alt_scores": self.alt_summary,
            "null_scores": self.null_summary,
        }


@dataclass(frozen=True)
class PValueReport:
    config: ExperimentConfig
    results: dict[MetricId, MetricPValue]

    def p_value(self, metric: MetricId) -> float:
        return self.results[metric].p_value

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "pvalue_report",
            "config": self.config.to_json_dict(),
            "results": {m.value: r.to_json_dict() for m, r in self.results.items()},
        }


# -- engine -------------------------------------------------------------------------

def _map_chunks(fn, chunks, threads: int):
    if threads <= 1 or len(chunks) <= 1:
        return [fn(c) for c in chunks]
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, chunks))


def _item_rows(rng: np.random.Generator, c: int, n: int, phi: SamplingStrategy):
    """The (c, N) item bootstrap draw, or None when phi keeps every item."""
    return rng.integers(0, n, (c, n)) if phi.items == Level.BOOT else None


def _positions(shape, c: int, rows=None, cols=None):
    """Where c resamples read an array of ``shape``, (N, W) or (c, N, W).

    ``rows`` are (c, N) item indices and ``cols`` (c, N, k) response
    indices; None keeps every item or every response. Returns None when
    nothing is gathered, else the (c, N) rows of the array viewed as
    (-1, W) or, with cols, the (c, N, k) positions in the flat array (cols
    is turned into them in place). Offsets into the un-broadcast array make
    each gather one ``np.take``, and the positions serve any array of this
    shape.
    """
    n, w = shape[-2:]
    if rows is None and cols is None:
        return None
    if rows is None:
        rows = np.arange(n)
    if len(shape) == 3:
        rows = rows + np.arange(0, c * n, n)[:, None]
    if cols is None:
        return rows
    cols += (rows * w)[..., None]
    return cols


def _take(x: np.ndarray, c: int, pos) -> np.ndarray:
    """The (c, N, k) gather of x, (N, W) or (c, N, W), at ``_positions``."""
    if pos is None:
        return np.broadcast_to(x, (c, *x.shape[-2:]))
    if pos.ndim == 2:
        return np.take(x.reshape(-1, x.shape[-1]), pos, axis=0)
    return np.take(x.reshape(-1), pos)


def _draw(x: np.ndarray, rng: np.random.Generator, c: int, rows=None) -> np.ndarray:
    """c response bootstraps of x, (N, W) or (c, N, W): the response-draw primitive.

    One (c, N, W) with-replacement index draw into each item's row, after
    the item draw ``rows`` when given.
    """
    cols = rng.integers(0, x.shape[-1], (c, *x.shape[-2:]))
    return _take(x, c, _positions(x.shape, c, rows, cols))


def _draw_counted(x: np.ndarray, rng: np.random.Generator, k=None, counts=None) -> np.ndarray:
    """Ragged ``_draw``: x has ``counts`` valid slots per row (shape x.shape[:-1]).

    Row i draws k[i] (default counts[i]) of its valid slots into a
    NaN-padded result, in one ``integers`` call that consumes the generator
    as one ``integers(0, counts[i], k[i])`` call per row would.
    """
    k = np.broadcast_to(counts if k is None else k, counts.shape).ravel()
    rows = np.repeat(np.arange(k.size), k)
    cols = rng.integers(0, np.repeat(counts.ravel(), k))
    out = np.full((k.size, k.max(initial=0)), np.nan)
    out[np.arange(out.shape[1]) < k[:, None]] = x.reshape(k.size, -1)[rows, cols]
    return out.reshape(*counts.shape, -1)


def _resample(arrays, rng: np.random.Generator, c: int, phi: SamplingStrategy, counts=None):
    """c multistage resamples of aligned (N, K) or (c, N, K) arrays -> (c, N, K) each.

    Ragged (N, K_max) arrays come with ``counts``, each one's (N,) per-item
    counts. Returns (arrays, counts): (c, N) counts after the item gather,
    or None.

    Stream order: one (c, N) item index draw shared by every array (when
    phi.items is boot), then each array's responses redrawn in turn (when
    phi.responses is boot).
    """
    rows = _item_rows(rng, c, arrays[0].shape[-2], phi)
    boot = phi.responses == Level.BOOT
    if counts is None:
        if boot:
            return tuple(_draw(x, rng, c, rows) for x in arrays), None
        return tuple(_take(x, c, _positions(x.shape, c, rows)) for x in arrays), None
    arrays = tuple(_take(x, c, _positions(x.shape, c, rows)) for x in arrays)
    counts = tuple(np.broadcast_to(k, (c, k.size)) if rows is None else k[rows] for k in counts)
    if boot:
        arrays = tuple(_draw_counted(x, rng, counts=k) for x, k in zip(arrays, counts))
    return arrays, counts


def _null_positions(g_shape, pool_shape, phi: SamplingStrategy, rng: np.random.Generator, c: int):
    """``_positions`` of c null (G, A, B) triples: G in base gold, A and B in the A+B pool.

    Stream order: item indices (when phi.items is boot; shared by gold and
    pool), gold response indices (when phi.responses is boot), then A's and
    B's K indices per item into the pool.
    """
    n, k = g_shape
    rows = _item_rows(rng, c, n, phi)
    cols = rng.integers(0, k, (c, n, k)) if phi.responses == Level.BOOT else None
    pos_g = _positions(g_shape, c, rows, cols)
    pos_a = _positions(pool_shape, c, rows, rng.integers(0, pool_shape[1], (c, n, k)))
    pos_b = _positions(pool_shape, c, rows, rng.integers(0, pool_shape[1], (c, n, k)))
    return pos_g, pos_a, pos_b


def _null_triples(g: np.ndarray, pool: np.ndarray, phi: SamplingStrategy,
                  rng: np.random.Generator, c: int):
    """c null (G, A, B) triples from base gold g (N, K) and pooled A+B responses (N, 2K)."""
    pos_g, pos_a, pos_b = _null_positions(g.shape, pool.shape, phi, rng, c)
    return _take(g, c, pos_g), _take(pool, c, pos_a), _take(pool, c, pos_b)


_NO_RESAMPLE = SamplingStrategy(Level.ALL, Level.ALL)


def _alt_chunk_parametric(config: ExperimentConfig, epsilons, lo: int, hi: int) -> list[dict]:
    """Alternative scores of resamples lo..hi at each epsilon, from one draw.

    G and A are gathered, scored and dropped first; then B is built, gathered
    and scored one epsilon at a time, so one B is alive at a time.
    """
    c = hi - lo
    rng = rngstreams.derive_rng(config.seed, rngstreams.ALT, lo)
    # The fresh draw is itself the response-level resample, so responses are
    # redrawn only after an item bootstrap.
    phi = config.phi if config.phi.items == Level.BOOT else _NO_RESAMPLE
    g, a, draws = draw_batch(config, rng, c)
    shape = g.shape
    rows = _item_rows(rng, c, config.n_items, phi)

    def positions():
        cols = rng.integers(0, shape[-1], shape) if phi.responses == Level.BOOT else None
        return _positions(shape, c, rows, cols)

    # Each array is dropped as soon as it is gathered.
    gold = prepare_gold(config.metrics, _take(g, c, positions()))
    del g
    a = _take(a, c, positions())
    score_a = model_items(gold, a)
    del a
    pos_b = positions()
    out = []
    for i, epsilon in enumerate(epsilons):
        last = i == len(epsilons) - 1
        # The last epsilon builds B in z's memory.
        b = _take(draws.responses(epsilon, config.family, out=draws.z if last else None), c, pos_b)
        if last:
            del draws, pos_b
        out.append(compare(config.metrics, score_a, model_items(gold, b)))
        del b
    return out


def _null_chunk_rect(config: ExperimentConfig, gold: Gold, pools, lo: int, hi: int,
                     counts=None) -> list[dict]:
    """Null scores of resamples lo..hi against the base ``gold``, one dict per pool.

    A's and then B's K responses per item are drawn from the pool, with no
    item or gold resampling; the positions serve every pool (one per
    epsilon). Ragged data pass the pool's per-item counts, and A and B then
    draw half a pool row each.
    """
    c = hi - lo
    rng = rngstreams.derive_rng(config.seed, rngstreams.NULL, lo)
    n, w = pools[0].shape
    if counts is not None:
        pool = np.broadcast_to(pools[0], (c, n, w))
        cp = np.broadcast_to(counts, (c, n))
        k = cp // 2
        a = _draw_counted(pool, rng, k, cp)
        b = _draw_counted(pool, rng, k, cp)
        return [compare(config.metrics, model_items(gold, a, k), model_items(gold, b, k))]
    _, pos_a, pos_b = _null_positions((n, w // 2), (n, w), _NO_RESAMPLE, rng, c)
    return [
        compare(config.metrics, *(model_items(gold, _take(pool, c, pos)) for pos in (pos_a, pos_b)))
        for pool in pools
    ]


def _collect(config, fn, total, chunk, threads) -> list[dict[MetricId, np.ndarray]]:
    """Run fn over the chunks of range(total); each chunk returns one score dict per column entry."""
    chunks = rngstreams.chunk_ranges(total, chunk)
    results = _map_chunks(fn, chunks, threads)
    out = [{m: np.empty(total) for m in config.metrics} for _ in results[0]]
    for (lo, hi), res in zip(chunks, results):
        for scores, part in zip(out, res):
            for m in config.metrics:
                scores[m][lo:hi] = part[m]
    return out


def _report(config: ExperimentConfig, alt: dict, null: dict) -> PValueReport:
    results = {}
    for m in config.metrics:
        p, direction = estimate_p_value(alt[m], null[m])
        results[m] = MetricPValue(
            metric=m,
            p_value=p,
            direction=direction,
            median_alt=float(np.median(alt[m])),
            median_null=float(np.median(null[m])),
            significant=bool(p < config.alpha),
            alt_summary=_summary(alt[m]),
            null_summary=_summary(null[m]),
        )
    return PValueReport(config=config, results=results)


def run_column(
    config: ExperimentConfig,
    epsilons,
    given: tuple[ResponseMatrix, ResponseMatrix, ResponseMatrix] | None = None,
    threads: int = 1,
) -> list[PValueReport]:
    """``run_experiment`` at each of ``epsilons`` for the config's (N, K), one report each.

    No random draw depends on epsilon: every chunk of an arm draws from
    (seed, arm, chunk start) alone. So the column draws each chunk once and
    only builds, gathers and scores B per epsilon; the reports equal one
    ``run_experiment`` call per epsilon, bit for bit. In bootstrap-of-given
    mode epsilon plays no part, and every report holds the same scores.
    """
    config.validate()
    epsilons = tuple(epsilons)
    configs = [config.with_(epsilon=e).validate() for e in epsilons]
    if not configs:
        raise InvalidParam("epsilons", "need at least one epsilon")
    counts = pool_counts = None
    if config.mode == Mode.PARAMETRIC:
        if given is not None:
            raise InvalidParam("given", "parametric mode simulates its own data")
        g, a, draws = draw_batch(config, rngstreams.derive_rng(config.seed, rngstreams.BASE), 1)
        gb = g[0]
        pools = [np.concatenate([a[0], draws.responses(e, config.family)[0]], axis=1) for e in epsilons]
    else:
        if given is None:
            raise InvalidParam("given", "bootstrap-of-given mode needs input matrices")
        g, a, b = given
        if not (g.ids == a.ids == b.ids):
            raise ItemMismatch("input triple does not share item ids")
        if g.n_items == 0:
            raise EmptyItem("input matrices have no items")
        for m in given:
            check_unit_range(m).require_responses()
        (gb, ab, bb), counts = kernel_inputs(g, a, b)
        pool, sizes = build_null_pool(a, b).padded()
        pools = [pool]
        if counts is not None:
            pool_counts = sizes

    # Ragged data run one resample per chunk, so resample j draws from
    # derive_rng(seed, arm, j).
    chunk = _chunk_size(*gb.shape) if counts is None else 1

    def alt_fn(span):
        if config.mode == Mode.PARAMETRIC:
            return _alt_chunk_parametric(config, epsilons, *span)
        rng = rngstreams.derive_rng(config.seed, rngstreams.ALT, span[0])
        triple, cnt = _resample((gb, ab, bb), rng, span[1] - span[0], config.phi, counts)
        return [batch_scores(config.metrics, *triple, counts=cnt)]

    gold = prepare_gold(config.metrics, gb, None if counts is None else counts[0])
    null_fn = lambda span: _null_chunk_rect(config, gold, pools, *span, counts=pool_counts)
    alt = _collect(config, alt_fn, config.b_alt, chunk, threads)
    null = _collect(config, null_fn, config.b_null, chunk, threads)
    if len(alt) < len(configs):  # given data: one set of scores serves every epsilon
        alt, null = alt * len(configs), null * len(configs)
    return [_report(*entry) for entry in zip(configs, alt, null)]


def run_experiment(
    config: ExperimentConfig,
    given: tuple[ResponseMatrix, ResponseMatrix, ResponseMatrix] | None = None,
    threads: int = 1,
) -> PValueReport:
    """Estimate per-metric expected one-sided p-values.

    Parametric mode simulates its own base triple and draws every
    alternative resample fresh from the simulator; bootstrap-of-given mode
    takes ``given`` as the base triple and multistage-resamples it. Null
    resamples always draw per-item A/B pairs from the pooled base responses
    and are scored against the base gold matrix. Deterministic for a given
    (config, seed) regardless of ``threads``. The one-epsilon ``run_column``.
    """
    return run_column(config, (config.epsilon,), given, threads)[0]


# -- mean metric scores (effect-size summaries) -----------------------------------

def mean_metric_scores(
    config: ExperimentConfig, n_samples: int, threads: int = 1
) -> dict[MetricId, dict[str, float]]:
    """Average per-model scores over simulated, phi-resampled test sets.

    Each sample is a fresh simulator triple passed through one literal
    multistage resample under the configured strategy (responses are
    redrawn under any phi, unlike the parametric alternative arm); the
    returned means are the per-model scores and their gap. Used for
    effect-size tables. The simulator draws per sample index do not depend
    on epsilon, so score gaps across epsilon values share their randomness.
    """
    config.validate()

    def chunk_scores(span):
        c = span[1] - span[0]
        rng = rngstreams.derive_rng(config.seed, rngstreams.SCORE, span[0])
        triple, _ = _resample(simulate_batch(config, rng, c), rng, c, config.phi)
        return model_scores(config.metrics, *triple)

    chunks = rngstreams.chunk_ranges(n_samples, _chunk_size(config.n_items, config.k_responses))
    results = _map_chunks(chunk_scores, chunks, threads)
    out: dict[MetricId, dict[str, float]] = {}
    for m in config.metrics:
        score_a = np.concatenate([r[m][0] for r in results]).mean()
        score_b = np.concatenate([r[m][1] for r in results]).mean()
        out[m] = {
            "score_a": float(score_a),
            "score_b": float(score_b),
            "comparison": float(comparison(m, score_a, score_b)),
            "delta": float(abs(score_a - score_b)),
        }
    return out
