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

Engine. ``draw_blocks`` draws batched triples; one lazy position plan,
``_plan``, turns a chunk's index draws (the shared item draw, then the one
response draw ``_response_step`` per array) into flat positions, so each
gather is one ``np.take``; the ``metrics`` kernel scores against gold
prepared once. Two chunk functions return per-model scores:
``_alt_chunk_parametric`` (simulated or given triples, and
``mean_metric_scores``) and ``_null_chunk_rect`` (this null arm; the
power module's bootstrap test takes its row blocks, ``_null_blocks``, one
by one). Each chunk derives its generator from (seed, arm, chunk start),
so results do not depend on the thread count.

Row blocks. A chunk streams in row blocks of at most ``_BLOCK`` floats
(``_spans``; one resample when a resample is larger). NumPy fills a draw
in order, so a draw split into row blocks gives the values and generator
state of one call, and every source (G, then A, then B) is drawn,
gathered and reduced block by block: G to prepared gold (item means, and
sorted rows for MEMD), A to (c, N) per-item quantities, B straight to
per-resample scores. A resampled simulator chunk draws whole first, as its
index draws follow every simulator draw. An unresampled given chunk, whose
arrays are broadcast views, and a ragged chunk, whose kernel loops over
count buckets once per block, are one block each. Reductions run per row
on C-ordered blocks, so the scores do not depend on the block size.

Epsilon column. No draw depends on epsilon, so ``run_column`` runs every
epsilon of one (N, K) from the same chunks: each chunk draws G, A and B's
standard normals and indices once, scores G and A once, then builds,
gathers and scores B per epsilon, one B at a time. The null arm draws its
pool positions once and gathers them from each epsilon's pool.
``run_experiment`` is the one-epsilon column, and ``run_columns`` runs many
columns on one pool: every (column, arm, chunk) task goes through one
``_map_chunks``, so a table whose arms are one chunk each still keeps
every thread busy.

Ragged given data run in the form ``ResponseMatrix`` stores them,
NaN-padded with per-item counts: the response draw reads only each row's
valid slots and the kernel reduces items with equal counts as one block.
Resample j owns its generator, derive_rng(seed, arm, j); a chunk draws each
of its resamples' indices from that resample's generator, then gathers and
scores them all as one block. Results therefore do not depend on the chunk
size, which is picked so that every thread gets a chunk.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import rngstreams
from .config import ExperimentConfig, Level, Mode, SamplingStrategy
from .errors import EmptySample, InvalidParam, ItemMismatch
from .metrics import Gold, MetricId, comparison, kernel_inputs, model_items, pair_scores, prepare_gold
from .simulator import ResponseMatrix, _pad, _slots, check_finite, check_matrices, draw_batch, draw_blocks

__all__ = [
    "resample_multistage",
    "build_null_pool",
    "sample_null_pair",
    "estimate_p_value",
    "run_experiment",
    "run_column",
    "run_columns",
    "Direction",
    "MetricPValue",
    "PValueReport",
]

# Target number of floats per vectorized resample chunk.
_CHUNK_BUDGET = 2_000_000
# Target number of floats per row block a chunk streams through (256 KB, a
# share of an L2 cache): each block is gathered and reduced at once.
_BLOCK = 32_768


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
    check_matrices(g, a, b)
    rows = _item_rows(rng, 1, g.n_items, phi)
    idx = np.arange(g.n_items) if rows is None else rows[0]
    values = [m.values[idx] for m in (g, a, b)]
    plan = _plan(rng, 1, SamplingStrategy(Level.ALL, phi.responses),
                 [(x.shape, m.counts()[idx], None) for x, m in zip(values, (g, a, b))])
    return _one_resample(values, plan, tuple(g.ids[i] for i in idx))


def build_null_pool(a: ResponseMatrix, b: ResponseMatrix) -> ResponseMatrix:
    """Per-item multiset union of A's and B's responses: A's, then B's."""
    check_matrices(a, b)
    return ResponseMatrix.from_padded(*_null_pool(a, b), a.ids)


def _null_pool(a: ResponseMatrix, b: ResponseMatrix) -> tuple[np.ndarray, np.ndarray]:
    """``build_null_pool``'s padded values and counts, for checked A and B of equal per-item counts."""
    counts = a.counts()
    differ = np.flatnonzero(counts != b.counts())
    if differ.size:
        raise ItemMismatch(f"item {a.ids[differ[0]]!r}: per-item counts differ")
    valid = _slots(counts, a.values.shape[1])
    both = np.concatenate([a.values, b.values], axis=1)[np.concatenate([valid, valid], axis=1)]
    return _pad(both, 2 * counts), 2 * counts


def sample_null_pair(
    pool: ResponseMatrix, k, rng: np.random.Generator
) -> tuple[ResponseMatrix, ResponseMatrix]:
    """Two independent with-replacement samples per item (A first).

    ``k`` is one sample size for every item or a sequence of per-item sizes.
    """
    if np.ndim(k) > 1 or np.size(k) not in (1, pool.n_items):
        raise InvalidParam("k", f"need one sample size or {pool.n_items} per-item sizes")
    counts = np.broadcast_to(k, (pool.n_items,))
    if np.any(counts < 1):
        raise InvalidParam("k", "need at least one response per item")
    check_matrices(pool)
    plan = _plan(rng, 1, _NO_RESAMPLE, [(pool.values.shape, pool.counts(), counts)] * 2)  # A's, then B's
    return _one_resample((pool.values,) * 2, plan, pool.ids)


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
    alt = check_finite("alt_scores", alt_scores)
    null = check_finite("null_scores", null_scores)
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
    """[fn(c) for c in chunks] on ``threads`` threads, the calling thread among them.

    Each thread takes the next chunk in order when it is free. The caller
    works rather than waits, which spares a thread and its malloc arena: an
    arena keeps what its thread freed resident, and a second worker's arena
    raised a table's peak RSS by about 25 MB.
    """
    if threads <= 1 or len(chunks) <= 1:
        return [fn(c) for c in chunks]
    results = [None] * len(chunks)
    todo = iter(range(len(chunks)))
    lock = threading.Lock()

    def work():
        while True:
            with lock:
                i = next(todo, None)
            if i is None:
                return
            results[i] = fn(chunks[i])

    with concurrent.futures.ThreadPoolExecutor(max_workers=threads - 1) as pool:
        futures = [pool.submit(work) for _ in range(min(threads, len(chunks)) - 1)]
        work()
        for future in futures:
            future.result()
    return results


def _item_rows(rng: np.random.Generator, c: int, n: int, phi: SamplingStrategy):
    """The (c, N) item bootstrap draw, or None when phi keeps every item."""
    return rng.integers(0, n, (c, n)) if phi.items == Level.BOOT else None


def _positions(shape, c: int, rows=None, cols=None):
    """Where c resamples read an array of ``shape``, (N, W) or (c, N, W).

    ``rows`` are (c, N) item indices and ``cols`` (c, N, k) response indices
    (None keeps all). Returns None when nothing is gathered, else the (c, N)
    rows of the array viewed as (-1, W) or, with cols, the (c, N, k) flat
    positions (built in place in cols): offsets into the un-broadcast array.
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


def _take(x: np.ndarray, c: int, pos, pad=None) -> np.ndarray:
    """The (c, N, k) gather of x, (N, W) or (c, N, W), at ``_positions``; ``pad`` slots read NaN."""
    if pos is None:
        return np.broadcast_to(x, (c, *x.shape[-2:]))
    if pos.ndim == 2:
        return np.take(x.reshape(-1, x.shape[-1]), pos, axis=0)
    out = np.take(x.reshape(-1), pos)
    if pad is not None:
        out[pad] = np.nan
    return out


def _gather(x: np.ndarray, c: int, step):
    """(x gathered at a ``_plan`` step, the gathered per-item counts)."""
    pos, pad, counts = step
    return _take(x, c, pos, pad), counts


def _response_step(rng: np.random.Generator, c: int, shape, rows, counts, k):
    """One array's plan step (positions, pad, counts): the one response draw.

    The array has ``shape``, (N, W) or (c, N, W), and ``counts`` valid slots
    per item ((N,); None when all W are). After the item draw ``rows`` each
    item draws k responses (an int, or (N,) sizes when ragged; None keeps
    the rows): one scalar-high ``integers`` call, or for ragged data one
    array-high call that consumes the generator as one call per row would,
    with ``pad`` marking the slots past each row's size (width: the largest
    k). The step's counts are the gathered (c, N) counts, None when rectangular.
    """
    n = shape[-2]
    if counts is not None:
        counts = np.broadcast_to(counts, (c, n)) if rows is None else counts[rows]
    if k is None:
        return _positions(shape, c, rows), None, counts
    if counts is None:
        return _positions(shape, c, rows, rng.integers(0, shape[-1], (c, n, k))), None, None
    width = np.max(k, initial=0)
    k = np.broadcast_to(k, (c, n)) if rows is None else k[rows]
    sizes = k.ravel()
    pad = np.arange(width) >= sizes[:, None]
    cols = np.zeros(pad.shape, dtype=np.int64)
    cols[~pad] = rng.integers(0, np.repeat(counts.ravel(), sizes))
    shape_out = (c, n, pad.shape[1])
    return _positions(shape, c, rows, cols.reshape(shape_out)), pad.reshape(shape_out), k


def _plan(rng, c: int, phi: SamplingStrategy, sources, spans=None):
    """Each source's ``_response_step`` for c resamples, in row blocks over ``spans``.

    ``sources`` are aligned (shape, counts, k) as in ``_response_step``;
    k None redraws a source's own responses when phi.responses is boot.
    Yields, per source in turn, an iterator of its steps for each (lo, hi)
    span of range(c) (one span, the whole chunk, by default); exhaust it
    before taking the next source's. A (c, N, W) source's step for a span
    reads the block x[lo:hi]. Stream order: the (c, N) item draw shared by
    every source (when phi.items is boot), then each source's response
    indices in turn, block after block: NumPy fills an ``integers`` draw in
    order, so the blocks' draws are one whole draw's rows. Steps are handed
    out, never kept, so their positions die with their gather.

    ``rng`` is one generator for all c resamples, or a sequence of c
    generators, one per resample, for (N, W) sources: resample j then draws
    its own item rows and response indices, in the same order, from its own
    generator, and each block's step stacks the one-resample steps
    (``_stack``), so many streams are gathered and scored as one block.
    """
    spans = spans or [(0, c)]
    if not isinstance(rng, np.random.Generator):
        plans = [_plan(r, 1, phi, sources) for r in rng]
        for _ in sources:
            yield (_stack([next(next(p)) for p in plans[lo:hi]]) for lo, hi in spans)
        return
    rows = _item_rows(rng, c, sources[0][0][-2], phi)
    boot = phi.responses == Level.BOOT
    for shape, counts, k in sources:
        if k is None and boot:
            k = shape[-1] if counts is None else counts
        yield _steps(rng, rows, shape, counts, k, spans)


def _steps(rng, rows, shape, counts, k, spans):
    """One source's ``_response_step`` per span; see ``_plan``."""
    for lo, hi in spans:
        block = shape if len(shape) == 2 else (hi - lo, *shape[1:])
        yield _response_step(rng, hi - lo, block, None if rows is None else rows[lo:hi], counts, k)


def _stack(steps):
    """One plan step of c resamples from their one-resample steps of an (N, W) source."""
    return tuple(None if parts[0] is None else np.concatenate(parts) for parts in zip(*steps))


def _draw(x: np.ndarray, rng: np.random.Generator, c: int, rows=None) -> np.ndarray:
    """c response bootstraps of x, (N, W) or (c, N, W), after the item draw ``rows``."""
    return _gather(x, c, _response_step(rng, c, x.shape, rows, None, x.shape[-1]))[0]


def _one_resample(arrays, plan, ids) -> tuple[ResponseMatrix, ...]:
    """The matrices of one resample (c = 1) of padded (N, K_max) ``arrays`` along ``plan``."""
    gathered = (_gather(x, 1, next(steps)) for x, steps in zip(arrays, plan))
    return tuple(ResponseMatrix.from_padded(x[0], k[0], ids) for x, k in gathered)


_NO_RESAMPLE = SamplingStrategy(Level.ALL, Level.ALL)


def _spans(c: int, floats: int) -> list[tuple[int, int]]:
    """Row blocks of c resamples of ``floats`` values each, at most ``_BLOCK`` floats or one resample."""
    return rngstreams.chunk_ranges(c, max(1, _BLOCK // max(1, floats)))


def _cut(arrays: list, spans):
    """Each array's row blocks over ``spans`` in turn; an array is dropped when the next is taken."""
    while arrays:
        x = arrays.pop(0)
        yield [x[lo:hi] for lo, hi in spans]


def _join(parts) -> list[dict]:
    """One {metric: (2, c) scores} dict per entry from blocks' lists of per-entry score dicts."""
    return [{m: np.concatenate([p[m] for p in entry], axis=1) for m in entry[0]}
            for entry in zip(*parts)]


def _alt_chunk_parametric(config: ExperimentConfig, phi: SamplingStrategy, epsilons, base,
                          rng, c: int) -> list[dict]:
    """Per-model scores of c alternative resamples at each epsilon, from one draw.

    ``base`` is None for c fresh simulator triples drawn from rng, else the
    given (G, A, B) in ``kernel_inputs`` form, which one score dict serves
    for every epsilon; rng may then be one generator per resample. The
    triple is resampled under phi along one ``_plan`` and streamed in row
    blocks (``_spans``): every block of G is gathered and reduced to
    prepared gold, then every block of A to per-item quantities, then each
    block of B is built, gathered and scored one epsilon at a time. When
    nothing is gathered the simulator draws in the same blocks
    (``draw_blocks``); index draws follow every simulator draw, so a
    resampled simulator chunk draws whole first.
    """
    metrics = config.metrics
    if base is None:
        n, k = config.n_items, config.k_responses
        spans = _spans(c, n * k)
        if phi == _NO_RESAMPLE:
            sim = draw_blocks(config, rng, c, spans)
        else:  # the index draws follow every simulator draw
            sim = _cut([next(phase) for phase in draw_blocks(config, rng, c, [(0, c)])], spans)
        sources = [((c, n, k), None, None)] * 3
    else:
        (g, a, b), counts = base
        # One block when unresampled (the arrays are broadcast views, and a
        # broadcast batch's MEMD means depend on its rows) or ragged (the
        # kernel loops over count buckets once per block).
        spans = [(0, c)] if phi == _NO_RESAMPLE or counts is not None else _spans(c, g.size)
        sim = iter([itertools.repeat(g), itertools.repeat(a), itertools.repeat([b])])  # one B for all
        sources = [(x.shape, k, None) for x, k in zip((g, a, b), counts or (None,) * 3)]
    plan = _plan(rng, c, phi, sources, spans)
    golds = [prepare_gold(metrics, *_gather(x, hi - lo, step))
             for (lo, hi), x, step in zip(spans, next(sim), next(plan))]
    qa = [model_items(gold, *_gather(x, hi - lo, step))
          for (lo, hi), gold, x, step in zip(spans, golds, next(sim), next(plan))]
    parts = []
    for (lo, hi), gold, q, x, step in zip(spans, golds, qa, next(sim), next(plan)):
        # Each B is scored and dropped before the next; the last builds in z's memory.
        bs = x if base is not None else (
            x.responses(e, config.family, out=x.z if i == len(epsilons) - 1 else None)
            for i, e in enumerate(epsilons))
        parts.append([pair_scores(metrics, q, model_items(gold, *_gather(b, hi - lo, step)))
                      for b in bs])
    return _join(parts)


def _null_chunk_rect(metric_ids: tuple[MetricId, ...], phi: SamplingStrategy, g: np.ndarray,
                     gold: Gold, pools, rng, c: int, counts=None) -> list[dict]:
    """Per-model null scores of c resamples, one dict per (N, W) pool: ``_null_blocks`` joined.

    The null arm calls this whole-chunk form, which ``perfbench/tracer.py``
    times as the ``inference.null_chunk`` layer.
    """
    return _join(_null_blocks(metric_ids, phi, g, gold, pools, rng, c, counts))


def _null_blocks(metric_ids: tuple[MetricId, ...], phi: SamplingStrategy, g: np.ndarray,
                 gold: Gold, pools, rng, c: int, counts=None):
    """Per-model null scores of c resamples: per row block, one dict per (N, W) pool of A+B responses.

    G is the base gold g, prepared once as ``gold``, unless phi resamples
    it. A and then B draw W/2 responses per item from the pool, or half of
    each item's ``counts`` when ragged; every pool (one per epsilon) is
    gathered at the same positions. Stream order (``_plan``, whose rng may
    be one generator per resample): the item draw and gold's response
    indices as phi says, then A's and B's pool indices. The chunk streams
    in row blocks: A's blocks reduce to per-item quantities per pool, and
    B's go straight to per-resample scores. The first block's scores come
    after every G and A block; each later B block is drawn, gathered and
    scored only when its scores are asked for, so a caller that stops early
    skips the rest of B's draws (and leaves rng mid-chunk).
    """
    k = pools[0].shape[-1] // 2 if counts is None else counts // 2
    # A ragged chunk is one block: the kernel loops over count buckets once per block.
    spans = _spans(c, pools[0].size // 2) if counts is None else [(0, c)]
    plan = _plan(rng, c, phi, [(g.shape, gold.counts, None)] + [(pools[0].shape, counts, k)] * 2, spans)
    golds = [gold if step[0] is None else prepare_gold(metric_ids, *_gather(g, hi - lo, step))
             for (lo, hi), step in zip(spans, next(plan))]
    qa = [[model_items(gd, *_gather(pool, hi - lo, step)) for pool in pools]
          for (lo, hi), gd, step in zip(spans, golds, next(plan))]
    for (lo, hi), gd, qs, step in zip(spans, golds, qa, next(plan)):
        yield [pair_scores(metric_ids, q, model_items(gd, *_gather(pool, hi - lo, step)))
               for q, pool in zip(qs, pools)]


class _Arm(NamedTuple):
    """One arm of a column: fn(rng, c) scores c resamples, one score dict per column entry."""

    seed: int
    tag: int
    fn: Callable
    total: int
    chunk: int
    streams: bool


def _collect(arms, threads: int) -> list[list[dict]]:
    """Per-model scores of each arm's range(total), (2, total) per metric, one dict per entry.

    Every (arm, chunk) task of every arm runs through one ``_map_chunks``.
    A chunk draws from derive_rng(seed, tag, chunk start); with ``streams``,
    resample j draws from its own derive_rng(seed, tag, j) (``_plan``), so
    the scores do not depend on the chunking, and the chunk shrinks until
    every thread has one.
    """
    tasks = []
    for i, arm in enumerate(arms):
        chunk = min(arm.chunk, -(-arm.total // max(1, threads))) if arm.streams else arm.chunk
        tasks += [(i, lo, hi) for lo, hi in rngstreams.chunk_ranges(arm.total, chunk)]

    def run(task):
        i, lo, hi = task
        arm = arms[i]
        if arm.streams:
            return arm.fn([rngstreams.derive_rng(arm.seed, arm.tag, j) for j in range(lo, hi)], hi - lo)
        return arm.fn(rngstreams.derive_rng(arm.seed, arm.tag, lo), hi - lo)

    results = _map_chunks(run, tasks, threads)
    return [_join([r for (j, _, _), r in zip(tasks, results) if j == i]) for i in range(len(arms))]


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


def _column(config: ExperimentConfig, epsilons, given) -> tuple[list, _Arm, _Arm]:
    """A validated column's per-epsilon configs and its alternative and null arms."""
    config.validate()
    epsilons = tuple(epsilons)
    configs = [config.with_(epsilon=e).validate() for e in epsilons]
    if not configs:
        raise InvalidParam("epsilons", "need at least one epsilon")
    counts = None
    if config.mode == Mode.PARAMETRIC:
        if given is not None:
            raise InvalidParam("given", "parametric mode simulates its own data")
        g, a, draws = draw_batch(config, rngstreams.derive_rng(config.seed, rngstreams.BASE), 1)
        gb, base, pool_counts = g[0], None, None
        pools = [np.concatenate([a[0], draws.responses(e, config.family)[0]], axis=1) for e in epsilons]
        # The fresh draw is itself the response-level resample, so responses
        # are redrawn only after an item bootstrap.
        phi = config.phi if config.phi.items == Level.BOOT else _NO_RESAMPLE
    else:
        if given is None:
            raise InvalidParam("given", "bootstrap-of-given mode needs input matrices")
        check_matrices(*given)
        base = kernel_inputs(*given)
        (gb, _, _), counts = base
        pool, sizes = _null_pool(*given[1:])
        pools, pool_counts = [pool], None if counts is None else sizes
        phi = config.phi

    # Ragged resample j draws from its own derive_rng(seed, arm, j).
    streams = counts is not None
    chunk = _chunk_size(*gb.shape)
    gold = prepare_gold(config.metrics, gb, None if counts is None else counts[0])
    alt = _Arm(config.seed, rngstreams.ALT,
               lambda rng, c: _alt_chunk_parametric(config, phi, epsilons, base, rng, c),
               config.b_alt, chunk, streams)
    null = _Arm(config.seed, rngstreams.NULL,
                lambda rng, c: _null_chunk_rect(config.metrics, _NO_RESAMPLE, gb, gold, pools,
                                                rng, c, pool_counts),
                config.b_null, chunk, streams)
    return configs, alt, null


def run_columns(
    columns,
    given: tuple[ResponseMatrix, ResponseMatrix, ResponseMatrix] | None = None,
    threads: int = 1,
) -> list[list[PValueReport]]:
    """``run_column`` for each (config, epsilons) of ``columns``, on one pool of ``threads``.

    Every column is validated and prepared first (base draw, pools and
    gold), so a bad column raises before any chunk runs. Then every chunk
    of both arms of every column is one task of one ``_map_chunks``; each
    chunk draws from (seed, arm, chunk start) as in ``run_column``, so the
    reports equal one ``run_column`` per column, bit for bit.
    """
    prepared = [_column(config, epsilons, given) for config, epsilons in columns]
    configs, alts, nulls = zip(*prepared) if prepared else ((), (), ())
    # Alternative arms first: they are the longer tasks, and the two arms of
    # one column (whose (c, N) arrays are largest at K = 1) rarely run at once.
    scores = _collect(alts + nulls, threads)

    def comparisons(entry):
        return {m: comparison(m, *s) for m, s in entry.items()}

    out = []
    for cfgs, alt, null in zip(configs, scores[:len(alts)], scores[len(alts):]):
        if len(alt) < len(cfgs):  # given data: one set of scores serves every epsilon
            alt, null = alt * len(cfgs), null * len(cfgs)
        out.append([_report(cfg, comparisons(x), comparisons(y)) for cfg, x, y in zip(cfgs, alt, null)])
    return out


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
    The one-column ``run_columns``.
    """
    return run_columns([(config, epsilons)], given, threads)[0]


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
    It runs the alternative chunk under the SCORE stream tag.
    """
    config.validate()
    if n_samples < 1:
        raise InvalidParam("n_samples", "need at least one sample")
    scores = _collect([_Arm(
        config.seed, rngstreams.SCORE,
        lambda rng, c: _alt_chunk_parametric(config, config.phi, (config.epsilon,), None, rng, c),
        n_samples, _chunk_size(config.n_items, config.k_responses), False,
    )], threads)[0][0]
    out: dict[MetricId, dict[str, float]] = {}
    for m, (per_a, per_b) in scores.items():
        score_a, score_b = per_a.mean(), per_b.mean()
        out[m] = {
            "score_a": float(score_a),
            "score_b": float(score_b),
            "comparison": float(comparison(m, score_a, score_b)),
            "delta": float(abs(score_a - score_b)),
        }
    return out
