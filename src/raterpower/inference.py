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

Resampling strategy semantics. The data decide a run's mode: a run given
a (G, A, B) triple is in bootstrap-of-given mode, any other run in
parametric mode. In parametric mode every alternative resample is a fresh
simulator draw (new item params, responses and perturbations); this fresh
draw is the parametric counterpart of the response-level bootstrap, so
``phi.responses`` adds no further layer. When ``phi.items`` is boot, the
fresh triple is additionally multistage-resampled (items with replacement,
then responses per ``phi.responses``). In bootstrap-of-given mode
alternative resamples are plain multistage bootstrap resamples of the
supplied triple. Null resamples never take extra resampling layers;
drawing from the pooled responses is itself the response-level resampling
of the null hypothesis.

Engine. ``draw_blocks`` draws batched triples; one lazy position plan,
``_plan``, turns a chunk's index draws (the shared item draw, then the one
response draw ``_response_step`` per array) into flat positions, so each
gather is one ``np.take``. Both draw from a chunk's generator, or from one
per resample, as row groups (``rngstreams.row_groups``), one call per
group; the ``metrics`` kernel scores against gold prepared once. One
row-block scorer, ``_score_blocks``, runs every resample through the plan,
the gathers and the kernel; the two arms differ only in the sources they
hand it. ``_alt_chunk_parametric`` (simulated or given triples, and
``mean_metric_scores``) hands it simulator blocks or the given arrays;
``_null_chunk_rect`` (this null arm) and ``_null_blocks`` (the power
module's bootstrap test, block by block) hand it the base gold and the
A+B pools of ``_null_pool``, each item's A responses, then its B's. Each
chunk derives its generator from (seed, arm, chunk start), so results do
not depend on the thread count. Resampling has no public function of its
own: every resample runs inside a chunk.

Row blocks. The scorer streams in row blocks of at most ``_BLOCK`` floats
(``_row_spans``; one resample when a resample is larger). NumPy fills a
draw in order, so a draw split into row blocks gives the values and
generator state of one call, and every source (G, then A, then B) is
drawn, gathered and reduced block by block: G to prepared gold (item
means, and sorted rows for MEMD), A to (c, N) per-item quantities, B
straight to per-resample scores. A resampled simulator chunk draws every
G, then A, then B block before its first index draw, as its index draws
follow every simulator draw, so it holds G, A and B's normals at once
(three chunk arrays, the floor). They live in the worker's chunk
workspace (``_Workspace``), which outlives the chunk: with MEMD each G
block is gathered back into its own drawn rows (a resample's item draw
never leaves its block), and gold's sorted rows are those rows sorted in
place, so the chunk holds no sorted copy; without MEMD gold keeps no
rows, and every G block is gathered into the first block's rows. A chunk
that gathers an (N, W) gold (the bootstrap test) gathers it into the
workspace too. Each thread has
one, so between chunks a worker holds at most three chunk arrays (48 MB
at ``_CHUNK_BUDGET``) and its next chunk faults none of them in again. A
pool thread's workspace is freed when its ``_map_chunks`` call ends, the
calling thread's when that thread ends. An unresampled chunk draws each
block into a new array and lets it go before the next, and no array that
outlives a chunk (the base draw, a power batch) is a workspace view. An
unresampled given chunk, whose arrays are broadcast views, and a ragged
chunk, whose kernel loops over count buckets once per block, are one
block each. Reductions run per row on C-ordered blocks, so the scores do
not depend on the block size.

Epsilon column. No draw depends on epsilon, so ``run_columns`` runs every
epsilon of one (N, K) from the same chunks: each chunk draws G, A and B's
standard normals and indices once and scores G and A once. B carries a
leading epsilon axis: each row block builds B for all E epsilons as one
(E, r, N, K) array, gathers it at the one set of positions and scores it
in one kernel call. The null arm's pools are one (E, N, 2K) array, drawn
from once and gathered with one ``np.take`` along axis 1. The kernel sorts
and differences in place only what a chunk drew or gathered itself, so the
batch costs no more memory than one epsilon's B, sorted copy and
difference did. ``run_experiment`` is the one-epsilon column (E = 1, the
same path). Many columns run on one pool: every (column, arm, chunk) task
goes through one ``_map_chunks``, so a table whose arms are one chunk each
still keeps every thread busy.

Ragged given data run in the form ``ResponseMatrix`` stores them,
NaN-padded with per-item counts: the response draw reads only each row's
valid slots and the kernel reduces items with equal counts as one block.
Resample j owns its generator, derive_rng(seed, arm, j), a row group of
one: a chunk draws each resample's indices from its generator along the
one plan, then gathers and scores them all as one block. Results therefore
do not depend on the chunk size, picked so that every thread gets a chunk.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import rngstreams
from .config import ExperimentConfig, Level, Mode, SamplingStrategy
from .errors import EmptySample, InvalidParam, ItemMismatch, check_count
from .metrics import Gold, MetricId, comparison, kernel_inputs, model_items, pair_scores, prepare_gold
from .simulator import ResponseMatrix, _pad, _slots, check_finite, check_matrices, draw_blocks

__all__ = [
    "estimate_p_value",
    "run_experiment",
    "run_columns",
    "mean_metric_scores",
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


# -- chunk workspace -----------------------------------------------------------------

class _Workspace:
    """One worker's chunk buffers, kept between chunks: one (c, N, K) float array per source (G, A, B).

    A resampled simulator chunk draws G, A and B's standard normals into
    them (``draw_blocks``' ``out``), and every chunk that gathers G gathers
    it into G's (``_score_blocks``), so a chunk's three (c, N, K) arrays are
    the same memory from chunk to chunk and glibc has nothing to trim and
    fault in again. Each source's buffer is made when a chunk first asks
    for it and grows, never shrinks, to the largest array asked of it:
    between chunks a worker holds at most three chunk arrays, 3 x
    ``_CHUNK_BUDGET`` floats (48 MB), or 3 x N * K floats where one
    resample is larger. Where only G is gathered (the bootstrap test) it
    holds G's alone: a chunk's rows for MEMD, else one row block. Once a
    resampled simulator chunk has scored every A block, A's buffer takes
    its B blocks where they fit, without growing. A chunk leaves no value
    in them that a later chunk reads: every view it hands out is written
    before it is read.

    Each thread has its own (``mine``), so no two chunks share one. It is
    freed when its thread ends: a pool thread's with its ``_map_chunks``
    call, the calling thread's with the thread (the main thread's with the
    process).
    """

    def __init__(self):
        self._buffers = [np.empty(0)] * 3

    @staticmethod
    def mine() -> "_Workspace":
        """The calling thread's workspace, made at its first chunk."""
        ws = getattr(_LOCAL, "workspace", None)
        if ws is None:
            ws = _LOCAL.workspace = _Workspace()
        return ws

    def rows(self, i: int, shape, grow: bool = True, at: int = 0) -> np.ndarray:
        """Source i's buffer (G, A, B: 0, 1, 2) from float ``at`` on, as a C-ordered float array of ``shape``.

        The buffer grows to fit; without ``grow`` it stays as it is, and an
        array that does not fit in it is a new one.
        """
        end = at + math.prod(shape)
        if self._buffers[i].size < end:
            if not grow:
                return np.empty(shape)
            self._buffers[i] = np.empty(0)  # the old buffer goes before the new one is made
            self._buffers[i] = np.empty(end)
        return self._buffers[i][at:end].reshape(shape)


_LOCAL = threading.local()  # each thread's workspace


# -- null pool --------------------------------------------------------------------

def _null_pool(a: ResponseMatrix, b: ResponseMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Each item's pool of checked A's, then B's, responses, padded, and its counts.

    A and B must share per-item counts, else ``ItemMismatch``.
    """
    counts = a.counts()
    differ = np.flatnonzero(counts != b.counts())
    if differ.size:
        raise ItemMismatch(f"item {a.ids[differ[0]]!r}: per-item counts differ")
    valid = _slots(counts, a.values.shape[1])
    both = np.concatenate([a.values, b.values], axis=1)[np.concatenate([valid, valid], axis=1)]
    return _pad(both, 2 * counts), 2 * counts


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
    """A run's config (its N and K the data's when given), the run's ``Mode`` and each metric's result."""

    config: ExperimentConfig
    mode: Mode
    results: dict[MetricId, MetricPValue]

    def p_value(self, metric: MetricId) -> float:
        return self.results[metric].p_value

    def to_json_dict(self) -> dict:
        config = self.config.to_json_dict()
        prior = config.pop("prior")  # the report's layout puts "mode" between "alpha" and "prior"
        return {
            "schema_version": 1,
            "kind": "pvalue_report",
            "config": {**config, "mode": self.mode.value, "prior": prior},
            "results": {m.value: r.to_json_dict() for m, r in self.results.items()},
        }


# -- engine -------------------------------------------------------------------------

def _map_chunks(fn, chunks, threads: int):
    """[fn(c) for c in chunks] on ``threads`` threads, the calling thread among them.

    Each thread takes the next chunk in order when it is free. The caller
    works rather than waits, which spares a thread and its malloc arena: an
    arena keeps what its thread freed resident, and a second worker's arena
    raised a table's peak RSS by about 25 MB. The first exception any
    thread raises stops every thread at its next chunk and is raised here
    once all of them have stopped.
    """
    if threads <= 1 or len(chunks) <= 1:
        return [fn(c) for c in chunks]
    results = [None] * len(chunks)
    todo = iter(range(len(chunks)))
    lock = threading.Lock()
    errors = []

    def work():
        try:
            while True:
                with lock:
                    i = None if errors else next(todo, None)
                if i is None:
                    return
                results[i] = fn(chunks[i])
        except BaseException as exc:  # the caller re-raises it
            with lock:
                errors.append(exc)

    pool = [threading.Thread(target=work) for _ in range(min(threads, len(chunks)) - 1)]
    for thread in pool:
        thread.start()
    work()
    for thread in pool:
        thread.join()
    if errors:
        raise errors[0]
    return results


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


def _gather(x: np.ndarray, c: int, step, lead: int = 0, out: np.ndarray | None = None):
    """(the (*lead, c, N, k) gather of x, (*lead, N, W) or (*lead, c, N, W), at a ``_plan`` step, its counts).

    The ``lead`` axes (one B or pool per epsilon) share one ``np.take``, into
    ``out`` when given (which may be x's own memory: ``np.take`` buffers it),
    else into a new array; pad slots read NaN. Positions are in range by
    construction, so the take clips rather than checks them, which spares it
    a buffered copy of a separate ``out``. Read whole, a (c, N, W) x is
    itself, an (N, W) one a broadcast view.
    """
    (pos, pad, counts), head, (n, w) = step, x.shape[:lead], x.shape[-2:]
    if pos is None:
        return (x if x.ndim == lead + 3 else np.broadcast_to(x, (*head, c, n, w))), counts
    if pos.ndim == 2:
        return np.take(x.reshape(*head, -1, w), pos, axis=lead, out=out, mode="clip"), counts
    out = np.take(x.reshape(*head, -1), pos, axis=lead, out=out, mode="clip")
    if pad is not None:
        np.copyto(out, np.nan, where=pad)
    return out, counts


def _joined(parts: list) -> np.ndarray:
    """The row groups' draws ``parts``, joined along the first axis."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _response_step(groups, c: int, shape, rows, counts, k, lo: int = 0):
    """One array's plan step (positions, pad, counts): the one response draw.

    The array has ``shape``, (N, W) or (c, N, W), and ``counts`` valid slots
    per item ((N,); None when all W are). After the item draw ``rows`` each
    item draws k responses (an int, or (N,) sizes when ragged; None keeps
    the rows). The step is rows lo..lo+c of a chunk, drawn by ``groups``,
    ``rngstreams.row_groups`` of those rows: each group makes one
    scalar-high ``integers`` call or, for ragged data, one array-high call
    that consumes the generator as one call per row would, with ``pad``
    marking the slots past each row's size (width: the largest k). The
    step's counts are the gathered (c, N) counts, None when rectangular.
    """
    n = shape[-2]
    if counts is not None:
        counts = np.broadcast_to(counts, (c, n)) if rows is None else counts[rows]
    if k is None:
        return _positions(shape, c, rows), None, counts
    if counts is None:
        cols = _joined([r.integers(0, shape[-1], (b - a, n, k)) for r, a, b in groups])
        return _positions(shape, c, rows, cols), None, None
    width = np.max(k, initial=0)
    k = np.broadcast_to(k, (c, n)) if rows is None else k[rows]
    sizes = k.ravel()
    pad = np.arange(width) >= sizes[:, None]
    cols = np.zeros(pad.shape, dtype=np.int64)
    cols[~pad] = _joined([r.integers(0, np.repeat(counts[a - lo:b - lo].ravel(), k[a - lo:b - lo].ravel()))
                          for r, a, b in groups])
    shape_out = (c, n, pad.shape[1])
    return _positions(shape, c, rows, cols.reshape(shape_out)), pad.reshape(shape_out), k


def _plan(rng, c: int, phi: SamplingStrategy, sources, spans=None):
    """Each source's ``_response_step`` for c resamples, in row blocks over ``spans``.

    ``sources`` are aligned (shape, counts, k) as in ``_response_step``;
    k None redraws a source's own responses when phi.responses is boot.
    Yields, per source in turn, an iterator of its steps for each (lo, hi)
    span of range(c) (one span, the whole chunk, by default); exhaust it
    before taking the next source's. A (c, N, W) source's step for a span
    reads the block x[lo:hi]. ``rng`` is one generator for all c resamples
    or a sequence of c generators, one per resample, and every draw is one
    call per row group (``rngstreams.row_groups``). Stream order of each
    generator, over its rows: the (c, N) item draw shared by every source
    (when phi.items is boot), then each source's response indices in turn,
    block after block: NumPy fills an ``integers`` draw in order, so the
    blocks' draws are one whole draw's rows, and a resample drawn by its
    own generator equals that generator's plan of one. Each span's row
    groups are built once, for every source. Steps are handed out, never
    kept, so their positions die with their gather.
    """
    spans, n = spans or [(0, c)], sources[0][0][-2]
    blocks = [(lo, hi, rngstreams.row_groups(rng, lo, hi)) for lo, hi in spans]
    rows = None  # the item draw
    if phi.items == Level.BOOT:
        rows = _joined([r.integers(0, n, (b - a, n)) for r, a, b in rngstreams.row_groups(rng, 0, c)])
    boot = phi.responses == Level.BOOT
    for shape, counts, k in sources:
        if k is None and boot:
            k = shape[-1] if counts is None else counts
        yield _steps(rows, shape, counts, k, blocks)


def _steps(rows, shape, counts, k, blocks):
    """One source's ``_response_step`` per (lo, hi, row groups) block; see ``_plan``."""
    for lo, hi, groups in blocks:
        block = shape if len(shape) == 2 else (hi - lo, *shape[1:])
        yield _response_step(groups, hi - lo, block, None if rows is None else rows[lo:hi], counts, k, lo)


_NO_RESAMPLE = SamplingStrategy(Level.ALL, Level.ALL)


def _spans(c: int, floats: int) -> list[tuple[int, int]]:
    """Row blocks of c resamples of ``floats`` values each, at most ``_BLOCK`` floats or one resample."""
    return rngstreams.chunk_ranges(c, max(1, _BLOCK // max(1, floats)))


def _row_spans(c: int, phi: SamplingStrategy, sources) -> list[tuple[int, int]]:
    """``_score_blocks``' row blocks for c resamples of ``sources``: ``_spans`` of one resample's N·K.

    One block for ragged data (the kernel loops over count buckets once per
    block) or an unresampled broadcast (its MEMD means depend on its rows).
    """
    ragged = any(counts is not None for _, counts, _ in sources)
    broadcast = phi == _NO_RESAMPLE and all(len(shape) == 2 and k is None for shape, _, k in sources)
    n, k = sources[0][0][-2:]
    return [(0, c)] if ragged or broadcast else _spans(c, n * k)


def _join(parts) -> list[dict]:
    """One {metric: (2, c) scores} dict per entry from blocks' lists of per-entry score dicts."""
    return [{m: np.concatenate([p[m] for p in entry], axis=1) for m in entry[0]}
            for entry in zip(*parts)]


def _entries(scores: dict) -> list[dict]:
    """``pair_scores`` of E models B (scores (E, r), A's (r,) or (E, r)), as one dict per B."""
    e = len(next(iter(scores.values()))[1])
    return [{m: (sa if sa.ndim == 1 else sa[i], sb[i]) for m, (sa, sb) in scores.items()}
            for i in range(e)]


def _score_blocks(metric_ids: tuple[MetricId, ...], phi: SamplingStrategy, rng, c: int, sources,
                  blocks, spans, ws: _Workspace, gold: Gold | None = None, b_out=lambda x: None):
    """Per-model scores of c resamples of a (G, A, B) triple: per row block, one dict per B model.

    ``sources`` are G's, A's and B's (shape, counts, k) as in ``_plan``,
    ``blocks`` three iterators of their arrays per span, each exhausted in
    turn: an (N, W) source's whole array or a (c, N, W) one's rows lo..hi,
    B's with a leading axis of E models. Each is gathered along one
    ``_plan`` and reduced block by block: G to gold (``gold`` serves where G
    is not gathered), A to per-item quantities, B to scores. G's gathered
    block goes into the workspace ``ws``'s (c, N, W) G array: into its rows
    lo..hi where gold keeps it for the chunk (MEMD), which in a resampled
    simulator chunk are the block's own drawn rows (a resample's item draw
    never leaves its block); else into the first span's rows, which every
    block reuses (in a simulator chunk, rows already gathered). A gathered
    or (c, N, W) block is the chunk's own, so the kernel overwrites it. B's
    block j is taken and scored only when asked for, after every G and A
    block, and a gathered B block x goes into ``b_out(x)`` (a new array
    when that is None).
    """
    plan, blocks = _plan(rng, c, phi, sources, spans), iter(blocks)
    # G's k is None: the plan gathers G unless phi resamples nothing. Gold
    # keeps each block's gathered rows only for MEMD (``prepare_gold``), so
    # then each block takes its own rows lo..hi; else every block reuses the
    # first span's rows, which stay in cache.
    keep = MetricId.MEMD in metric_ids
    g_rows = None if phi == _NO_RESAMPLE else ws.rows(0, (c if keep else spans[0][1], *sources[0][0][-2:]))

    def g_out(lo, hi):
        return None if g_rows is None else g_rows[lo:hi] if keep else g_rows[:hi - lo]

    def take(i, x, lo, hi, step, out=None):  # (source i's block x gathered at step, its counts, scratch)
        shape = sources[i][0]
        return (*_gather(x, hi - lo, step, x.ndim - len(shape), out), step[0] is not None or len(shape) == 3)

    golds = [gold if g_rows is None and gold is not None
             else prepare_gold(metric_ids, *take(0, x, lo, hi, step, g_out(lo, hi)))
             for (lo, hi), x, step in zip(spans, next(blocks), next(plan))]
    qa = [model_items(gd, *take(1, x, lo, hi, step))
          for (lo, hi), gd, x, step in zip(spans, golds, next(blocks), next(plan))]
    for (lo, hi), gd, q, x, step in zip(spans, golds, qa, next(blocks), next(plan)):
        yield _entries(pair_scores(metric_ids, q, model_items(gd, *take(2, x, lo, hi, step, b_out(x)))))


def _alt_chunk_parametric(config: ExperimentConfig, phi: SamplingStrategy, epsilons, base,
                          rng, c: int) -> list[dict]:
    """Per-model scores of c alternative resamples at each epsilon, from one draw (``_score_blocks``).

    ``base`` is None for c fresh simulator triples drawn from rng in the
    scorer's row blocks (``draw_blocks``), B's built for all E epsilons at
    once, else the given (G, A, B) in ``kernel_inputs`` form, which one
    score dict serves for every epsilon; rng may then be one generator per
    resample. Index draws follow every simulator draw, so a resampled
    simulator chunk draws every G, A and B block first, into the worker's
    workspace (``_Workspace``); with one epsilon it builds B then too, so
    the (c, N) item parameters go before the first index draw. With several
    it builds each B block for all E epsilons when the scorer asks for it.
    The scorer asks only once every A block is scored, so A's workspace
    rows are dead by then: each B block is built into them (with several
    epsilons) and gathered into the rows after it, or into a new array
    where it does not fit. An unresampled chunk draws each block, scores it
    and lets it go before the next: a new block each time, which the heap
    hands back cache-hot.
    """
    def build(draws, stack=lambda shape: None):
        # sigma * z builds in z's memory, and so does B when there is one
        # epsilon; with several, B builds in stack(its shape).
        return (d.responses(epsilons, config.family, out=d.z, stack=stack((len(epsilons), *d.z.shape)))
                for d in draws)

    ws = _Workspace.mine()
    if base is None:
        shape = (c, config.n_items, config.k_responses)
        sources = [(shape, None, None)] * 3
        spans = _row_spans(c, phi, sources)
        if phi == _NO_RESAMPLE:
            sim = draw_blocks(config, rng, c, spans)
            blocks = itertools.chain(itertools.islice(sim, 2), map(build, sim))
        else:  # the index draws follow every simulator draw
            g, a, b = (list(p) for p in draw_blocks(config, rng, c, spans, [ws.rows(i, shape) for i in range(3)]))
            b = list(build(b)) if len(epsilons) == 1 else build(b, lambda shape: ws.rows(1, shape, grow=False))
            blocks = [g, a, b]
            return _join(_score_blocks(config.metrics, phi, rng, c, sources, blocks, spans, ws,
                                       b_out=lambda x: ws.rows(1, x.shape, grow=False, at=x.size)))
    else:
        (g, a, b), counts = base
        sources = [(x.shape, k, None) for x, k in zip((g, a, b), counts or (None,) * 3)]
        spans = _row_spans(c, phi, sources)
        blocks = [itertools.repeat(x) for x in (g, a, b[None])]  # one B for all epsilons
    return _join(_score_blocks(config.metrics, phi, rng, c, sources, blocks, spans, ws))


def _null_chunk_rect(metric_ids: tuple[MetricId, ...], phi: SamplingStrategy, g: np.ndarray,
                     gold: Gold, pools, rng, c: int, counts=None) -> list[dict]:
    """Per-model null scores of c resamples, one dict per (N, W) pool of ``pools``: ``_null_blocks`` joined.

    The null arm calls this whole-chunk form, which ``perfbench/tracer.py``
    times as the ``inference.null_chunk`` layer.
    """
    return _join(_null_blocks(metric_ids, phi, g, gold, pools, rng, c, _Workspace.mine(), counts))


def _null_blocks(metric_ids: tuple[MetricId, ...], phi: SamplingStrategy, g: np.ndarray,
                 gold: Gold, pools: np.ndarray, rng, c: int, ws: _Workspace, counts=None):
    """``_score_blocks`` of c null resamples: per row block, one dict per pool of A+B responses.

    ``pools`` is (E, N, W), one pool per epsilon. G is the base gold g,
    prepared once as ``gold``, unless phi resamples it. A and then B draw
    W/2 responses per item from the pool, or half of each item's ``counts``
    when ragged. Stream order (``_plan``): the item draw and gold's response
    indices as phi says, then A's and B's pool indices. A caller that stops
    early skips the rest of B's draws (and leaves rng mid-chunk). A G that
    phi resamples is gathered into the workspace ``ws``.
    """
    k = pools.shape[-1] // 2 if counts is None else counts // 2
    sources = [(g.shape, gold.counts, None)] + [(pools.shape[1:], counts, k)] * 2
    return _score_blocks(metric_ids, phi, rng, c, sources, [itertools.repeat(x) for x in (g, pools, pools)],
                         _row_spans(c, phi, sources), ws, gold)


class _Arm(NamedTuple):
    """A Monte Carlo arm: fn(rng, c) runs a chunk of c of its ``total`` resamples, at most ``chunk``.

    A power sweep point's arm runs trials: a chunk of at most 8 trials, fewer where N·K is large.
    """

    seed: int
    tag: int
    fn: Callable
    total: int
    chunk: int
    streams: bool


def _collect(arms, threads: int) -> list[list]:
    """Each arm's chunk results fn(rng, c) over its range(total), in order (score dicts: ``_join`` them).

    Every (arm, chunk) task of every arm runs through one ``_map_chunks``.
    A chunk draws from derive_rng(seed, tag, chunk start); with ``streams``,
    resample or trial j draws from its own derive_rng(seed, tag, j), so the
    results do not depend on the chunking, and the chunk shrinks until every
    thread has one.
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
    return [[r for (j, _, _), r in zip(tasks, results) if j == i] for i in range(len(arms))]


def _report(config: ExperimentConfig, alt: dict, null: dict, mode: Mode = Mode.PARAMETRIC) -> PValueReport:
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
    return PValueReport(config=config, mode=mode, results=results)


def _column(config: ExperimentConfig, epsilons, given) -> tuple[list, _Arm, _Arm]:
    """A column's per-epsilon configs and its alternative and null arms.

    Given data set the configs' N, and their K to G's first item's count (a
    ragged input's report states that one count until ROADMAP item 9).
    """
    epsilons = tuple(epsilons)
    if not epsilons:
        raise InvalidParam("epsilons", "need at least one epsilon")
    if given is not None:
        check_matrices(*given)  # before N and K are read: an empty input raises EmptyItem
        config = config.with_(n_items=given[0].n_items, k_responses=int(given[0].counts()[0]))
    configs = [config.with_(epsilon=e) for e in epsilons]
    counts = None
    if given is None:
        rng = rngstreams.derive_rng(config.seed, rngstreams.BASE)
        g, a, draws = (next(phase) for phase in draw_blocks(config, rng, 1, [(0, 1)]))
        gb, base, pool_counts = g[0], None, None
        b = draws.responses(epsilons, config.family)[:, 0]
        pools = np.concatenate([np.broadcast_to(a[0], b.shape), b], axis=-1)  # (E, N, 2K)
        # The fresh draw is itself the response-level resample, so responses
        # are redrawn only after an item bootstrap.
        phi = config.phi if config.phi.items == Level.BOOT else _NO_RESAMPLE
    else:
        base = kernel_inputs(*given)
        (gb, _, _), counts = base
        pool, sizes = _null_pool(*given[1:])
        pools, pool_counts = pool[None], None if counts is None else sizes
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
    """``run_experiment`` at each epsilon of each (config, epsilons) of ``columns``, one report each.

    No random draw depends on epsilon: every chunk of an arm draws from
    (seed, arm, chunk start) alone. So a column draws each chunk once and
    builds, gathers and scores B for every epsilon at once; its reports
    equal one ``run_experiment`` call per epsilon, bit for bit. With
    ``given`` data every column runs on them (bootstrap-of-given mode), its
    reports state the data's N and K, and epsilon plays no part: every
    report of a column holds the same scores.

    Every column is prepared first (its per-epsilon configs, base draw,
    pools and gold), so a bad column raises before any chunk runs. Then
    every chunk of both arms of every column is one task of one
    ``_map_chunks`` on ``threads`` threads, so the reports equal one
    ``run_columns`` call per column, bit for bit.
    """
    check_count("threads", threads, "need at least one thread")
    prepared = [_column(config, epsilons, given) for config, epsilons in columns]
    configs, alts, nulls = zip(*prepared) if prepared else ((), (), ())
    # Alternative arms first: they are the longer tasks, and the two arms of
    # one column (whose (c, N) arrays are largest at K = 1) rarely run at once.
    scores = [_join(parts) for parts in _collect(alts + nulls, threads)]

    def comparisons(entry):
        return {m: comparison(m, *s) for m, s in entry.items()}

    mode = Mode.PARAMETRIC if given is None else Mode.BOOTSTRAP_OF_GIVEN
    out = []
    for cfgs, alt, null in zip(configs, scores[:len(alts)], scores[len(alts):]):
        if len(alt) < len(cfgs):  # given data: one set of scores serves every epsilon
            alt, null = alt * len(cfgs), null * len(cfgs)
        out.append([_report(cfg, comparisons(x), comparisons(y), mode) for cfg, x, y in zip(cfgs, alt, null)])
    return out


def run_experiment(
    config: ExperimentConfig,
    given: tuple[ResponseMatrix, ResponseMatrix, ResponseMatrix] | None = None,
    threads: int = 1,
) -> PValueReport:
    """Estimate per-metric expected one-sided p-values.

    Without ``given`` (parametric mode) the run simulates its own base
    triple and draws every alternative resample fresh from the simulator;
    with ``given`` (bootstrap-of-given mode) it takes them as the base
    triple and multistage-resamples it. Null resamples always draw per-item
    A/B pairs from the pooled base responses and are scored against the
    base gold matrix. Deterministic for a given (config, seed) regardless of
    ``threads``. The one-epsilon, one-column ``run_columns``.
    """
    return run_columns([(config, (config.epsilon,))], given, threads)[0][0]


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
    check_count("n_samples", n_samples, "need at least one sample")
    check_count("threads", threads, "need at least one thread")
    scores = _join(_collect([_Arm(
        config.seed, rngstreams.SCORE,
        lambda rng, c: _alt_chunk_parametric(config, config.phi, (config.epsilon,), None, rng, c),
        n_samples, _chunk_size(config.n_items, config.k_responses), False,
    )], threads)[0])[0]
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
