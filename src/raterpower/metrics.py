"""Model-comparison metrics over response matrices.

Three pairwise metrics against gold: mean-absolute-error difference,
item-wise win fraction (strict inequality, ties count for neither side) and
mean earth-mover's-distance difference. ``emd_1d`` is the 1-Wasserstein
distance between empirical distributions, computed as the integral of the
absolute ECDF difference, so ragged collections compare fine.

One kernel computes per-item scores for batched (..., N, K) arrays, ragged
ones NaN-padded with per-item counts: ``prepare_gold`` takes gold's item
means (and sorted rows, for MEMD) once, ``model_items`` scores any number
of models against them and ``pair_scores`` reduces two models to per-model
scores, from which ``comparison`` derives the comparison score.
``triple_items`` is the one way to score a (G, A, B) triple: it prepares
gold once and returns it with A's and B's per-item quantities. ``evaluate``,
the one public way to score a triple of matrices, and ``emd_1d`` derive
from the kernel.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EmptyItem
from .simulator import ResponseMatrix, check_finite, check_matrices, check_member

__all__ = [
    "MetricId",
    "MetricResult",
    "emd_1d",
    "evaluate",
]


class MetricId(str, enum.Enum):
    MAE = "mae"
    WINS = "wins"
    MEMD = "memd"


@dataclass(frozen=True)
class MetricResult:
    metric: MetricId
    score_a: float
    score_b: float
    comparison: float
    delta: float
    tie_fraction: float | None = None


# -- the metric kernel ----------------------------------------------------------
#
# Every score is a mean over items of a per-item quantity: the absolute error
# of the item mean (MAE), a strict win on that error (Wins) or the EMD to the
# gold responses (MEMD). One kernel computes them for batched (..., N, K)
# arrays, ragged data included; ``evaluate`` and the engine wrap it.

def reduce_rows(fn, arrays, counts) -> np.ndarray:
    """Per-item values of ``fn``, which reduces (r, K) blocks along the last axis.

    ``counts`` holds None for rectangular arrays (one block), else each
    padded array's per-item counts: items whose counts agree in every array
    form one block, so padding never enters a reduction.
    """
    if counts[0] is None:
        return fn(*arrays)
    counts = [np.broadcast_to(k, arrays[0].shape[:-1]) for k in counts]  # the arrays share leading axes
    dims = tuple(int(k.max()) + 1 for k in counts)
    code = np.ravel_multi_index(counts, dims)
    out = np.empty(code.shape)
    for block in np.unique(code):
        sel = code == block
        out[sel] = fn(*(x[sel][:, :k] for x, k in zip(arrays, np.unravel_index(block, dims))))
    return out


def _mean(x: np.ndarray) -> np.ndarray:
    """x.mean(axis=-1), bit for bit.

    Below 8 values NumPy adds the last axis in order onto 0.0, so for K < 8
    the sum of the K slices, then one division, gives the same bits in
    about half the time; from 8 on its pairwise sum adds in another order.
    """
    k = x.shape[-1]
    if not 0 < k < 8:
        return x.mean(axis=-1)
    total = 0.0 + x[..., 0]  # 0.0 + -0.0 is 0.0, as in NumPy's sum
    for j in range(1, k):
        total += x[..., j]
    total /= k
    return total


def _count_le(rows: np.ndarray, points: np.ndarray) -> np.ndarray:
    """searchsorted(rows[i], points[i], side="right") for each row of sorted (r, p) rows.

    Complex keys (row + 1j * value) order by row, then value: one flat search.
    """
    r = np.arange(rows.shape[0])[:, None]
    found = np.searchsorted((r + 1j * rows).ravel(), (r + 1j * points).ravel(), side="right")
    return found.reshape(points.shape) - r * rows.shape[1]


def _minus(x: np.ndarray, y: np.ndarray, scratch: bool) -> np.ndarray:
    """x - y, in x's memory when ``scratch`` and y's shape is x's trailing shape."""
    fits = scratch and x.shape[x.ndim - y.ndim:] == y.shape
    return np.subtract(x, y, out=x if fits else None)


def _sorted(x: np.ndarray, scratch: bool) -> np.ndarray:
    """x sorted along its last axis: x itself, sorted in place, when ``scratch``; else a sorted copy."""
    if not scratch:
        return np.sort(x, axis=-1)
    x.sort(axis=-1)
    return x


def _emd_sorted(xs: np.ndarray, ys: np.ndarray, scratch: bool = False) -> np.ndarray:
    """Per-row 1-Wasserstein distance of row-sorted (r, p) and (r, q) samples; ``scratch``: see ``_minus``."""
    if xs.shape[-1] == ys.shape[-1]:
        d = _minus(xs, ys, scratch)
        return _mean(np.abs(d, out=d))
    grid = np.sort(np.concatenate([xs, ys], axis=-1), axis=-1)
    fx = _count_le(xs, grid[:, :-1]) / xs.shape[-1]
    fy = _count_le(ys, grid[:, :-1]) / ys.shape[-1]
    return np.sum(np.abs(fx - fy) * np.diff(grid, axis=-1), axis=-1)


def emd_1d(x, y) -> float:
    """1-Wasserstein distance between empirical distributions of x and y.

    Integral of |ECDF_x - ECDF_y|; for equal-size collections this equals the
    mean absolute difference of sorted order statistics.
    """
    x = np.sort(check_finite("x", x).reshape(1, -1))
    y = np.sort(check_finite("y", y).reshape(1, -1))
    if x.size == 0 or y.size == 0:
        raise EmptyItem("emd_1d needs nonempty collections")
    return float(_emd_sorted(x, y)[0])


class Gold(NamedTuple):
    """Gold responses prepared once for scoring any number of models against them.

    means are the (..., N) item means, ``sorted`` the row-sorted responses
    (NaN padding last; None when no metric needs them) and ``counts`` the
    per-item counts of padded gold (None when rectangular).
    """

    means: np.ndarray
    sorted: np.ndarray | None
    counts: np.ndarray | None


def prepare_gold(metric_ids: tuple[MetricId, ...], g, counts=None, scratch: bool = False) -> Gold:
    """``Gold`` for (..., N, K) responses g, padded ones with per-item ``counts``.

    With ``scratch`` g is memory the caller no longer needs: when MEMD is
    among ``metric_ids`` it is sorted in place after its means are taken, and
    ``sorted`` is g itself rather than a sorted copy. The engine's chunks
    pass each G block they drew or gathered this way, so a chunk that
    bootstraps items keeps gold's sorted rows in the blocks it gathered and
    holds G, A and B's normals, not a sorted copy of G beside them.
    """
    means = reduce_rows(_mean, (g,), (counts,))
    return Gold(means, _sorted(g, scratch) if MetricId.MEMD in metric_ids else None, counts)


def model_items(gold: Gold, m, counts=None, scratch: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """One model's per-item (absolute mean error, EMD to gold) against ``gold``.

    m is (..., N, K) and broadcasts against gold's leading axes; the EMD is
    None when gold holds no sorted rows. With ``scratch`` m is memory the
    caller no longer needs: it is sorted, and for rectangular data
    differenced against gold, in place.
    """
    err = _minus(reduce_rows(_mean, (m,), (counts,)), gold.means, scratch=True)  # the means are new
    np.abs(err, out=err)
    if gold.sorted is None:
        return err, None
    sm = _sorted(m, scratch)
    sg = gold.sorted
    if counts is None and gold.counts is None:
        return err, _emd_sorted(sm, sg, scratch)
    # Ragged blocks select items by (model, gold) counts, so both need m's shape.
    sg = np.broadcast_to(sg, (*sm.shape[:-1], sg.shape[-1]))
    return err, reduce_rows(_emd_sorted, (sm, sg), (counts, gold.counts))


def paired_items(
    metric_ids: tuple[MetricId, ...], qa, qb
) -> dict[MetricId, tuple[np.ndarray, np.ndarray]]:
    """Per-item (A, B) quantities of each metric from ``model_items`` of A and B."""
    (err_a, emd_a), (err_b, emd_b) = qa, qb
    out: dict[MetricId, tuple[np.ndarray, np.ndarray]] = {}
    for metric in metric_ids:
        if metric == MetricId.MAE:
            out[metric] = (err_a, err_b)
        elif metric == MetricId.WINS:
            out[metric] = (err_a < err_b, err_b < err_a)
        elif metric == MetricId.MEMD:
            out[metric] = (emd_a, emd_b)
        else:
            raise AssertionError(metric)
    return out


def pair_scores(
    metric_ids: tuple[MetricId, ...], qa, qb
) -> dict[MetricId, tuple[np.ndarray, np.ndarray]]:
    """Per-model (score_a, score_b) of each metric, one per leading batch index, from ``model_items``."""
    return {
        m: (xa.mean(axis=-1), xb.mean(axis=-1))
        for m, (xa, xb) in paired_items(metric_ids, qa, qb).items()
    }


def triple_items(metric_ids: tuple[MetricId, ...], g, a, b, counts=None):
    """Gold g prepared once, and A's and B's ``model_items`` against it: (gold, qa, qb).

    ``g``, ``a`` and ``b`` are aligned (..., N, K) arrays; ragged ones are
    NaN-padded, with ``counts`` their per-item response counts.
    """
    cg, ca, cb = counts or (None,) * 3
    gold = prepare_gold(metric_ids, g, cg)
    return gold, model_items(gold, a, ca), model_items(gold, b, cb)


def comparison(metric: MetricId, score_a, score_b):
    """score_a for Wins, score_b - score_a for MAE and MEMD; high favours A."""
    return score_a if metric == MetricId.WINS else score_b - score_a


def kernel_inputs(*matrices: ResponseMatrix) -> tuple[tuple, tuple | None]:
    """The kernel's (arrays, counts) of aligned matrices; counts None when all are rectangular with one K."""
    arrays = tuple(m.values for m in matrices)
    rect = all(m.is_rectangular for m in matrices) and len({x.shape[1] for x in arrays}) == 1
    return arrays, None if rect else tuple(m.counts() for m in matrices)


# -- public scoring of matrices -------------------------------------------------------

def evaluate(metric: MetricId, a: ResponseMatrix, b: ResponseMatrix, g: ResponseMatrix) -> MetricResult:
    """Scores of A and B against G under one metric (a ``MetricId`` or its name), and their comparison."""
    metric = check_member("metric", metric, MetricId)
    check_matrices(g, a, b)
    arrays, counts = kernel_inputs(g, a, b)
    _, qa, qb = triple_items((metric,), *arrays, counts)
    item_a, item_b = paired_items((metric,), qa, qb)[metric]
    sa, sb = float(item_a.mean()), float(item_b.mean())
    tie_fraction = float((~item_a & ~item_b).mean()) if metric == MetricId.WINS else None
    return MetricResult(metric, sa, sb, comparison(metric, sa, sb), abs(sa - sb), tie_fraction)

