"""Model-comparison metrics over response matrices.

Three pairwise metrics against gold: mean-absolute-error difference,
item-wise win fraction (strict inequality, ties count for neither side) and
mean earth-mover's-distance difference. ``emd_1d`` is the 1-Wasserstein
distance between empirical distributions, computed as the integral of the
absolute ECDF difference, so ragged collections compare fine.

One kernel, ``model_scores``, computes per-model scores for batched
(..., N, K) arrays and for ragged rows alike; ``batch_scores`` (the engine's
entry point) and the public ``score_*``/``gamma_*``/``evaluate`` functions
derive the comparison from it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import EmptyItem, ItemMismatch
from .simulator import ResponseMatrix

__all__ = [
    "MetricId",
    "MetricResult",
    "emd_1d",
    "score_mae",
    "gamma_mae",
    "gamma_wins",
    "score_memd",
    "gamma_memd",
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

    def to_json_dict(self) -> dict:
        out = {
            "metric": self.metric.value,
            "score_a": self.score_a,
            "score_b": self.score_b,
            "comparison": self.comparison,
            "delta": self.delta,
        }
        if self.tie_fraction is not None:
            out["tie_fraction"] = self.tie_fraction
        return out


def _check_pair(m: ResponseMatrix, g: ResponseMatrix) -> None:
    if m.ids != g.ids:
        raise ItemMismatch("matrices do not share item ids in order")
    for mid, row in zip(m.ids, m.rows):
        if row.size == 0:
            raise EmptyItem(f"item {mid!r} has no responses")
    for gid, row in zip(g.ids, g.rows):
        if row.size == 0:
            raise EmptyItem(f"item {gid!r} has no responses")


# -- earth mover's distance ----------------------------------------------------

def emd_1d(x, y) -> float:
    """1-Wasserstein distance between empirical distributions of x and y.

    Integral of |ECDF_x - ECDF_y|; for equal-size collections this equals the
    mean absolute difference of sorted order statistics.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size == 0 or y.size == 0:
        raise EmptyItem("emd_1d needs nonempty collections")
    if x.size == y.size:
        return float(np.abs(np.sort(x) - np.sort(y)).mean())
    xs = np.sort(x)
    ys = np.sort(y)
    grid = np.sort(np.concatenate([xs, ys]))
    widths = np.diff(grid)
    fx = np.searchsorted(xs, grid[:-1], side="right") / xs.size
    fy = np.searchsorted(ys, grid[:-1], side="right") / ys.size
    return float(np.sum(np.abs(fx - fy) * widths))


# -- the metric kernel ----------------------------------------------------------
#
# Every score is a mean over items of a per-item quantity: the absolute error
# of the item mean (MAE), a strict win on that error (Wins) or the EMD to the
# gold responses (MEMD). One kernel computes them for batched rectangular
# arrays and for ragged rows; the public functions and the engine wrap it.

def _item_scores(
    metric_ids: tuple[MetricId, ...], g, a, b
) -> dict[MetricId, tuple[np.ndarray, np.ndarray]]:
    """Per-item (A, B) quantities of each metric.

    ``g``, ``a`` and ``b`` are aligned (..., N, K) arrays, or tuples of
    per-item response rows (ragged data).
    """
    ragged = isinstance(g, tuple)

    def means(x):
        return np.array([row.mean() for row in x]) if ragged else x.mean(axis=-1)

    mg = means(g)
    err_a = np.abs(means(a) - mg)
    err_b = np.abs(means(b) - mg)
    out: dict[MetricId, tuple[np.ndarray, np.ndarray]] = {}
    for metric in metric_ids:
        if metric == MetricId.MAE:
            out[metric] = (err_a, err_b)
        elif metric == MetricId.WINS:
            out[metric] = (err_a < err_b, err_b < err_a)
        elif metric == MetricId.MEMD:
            if ragged:
                out[metric] = tuple(
                    np.array([emd_1d(x, y) for x, y in zip(m, g)]) for m in (a, b)
                )
            else:
                sg = np.sort(g, axis=-1)
                out[metric] = tuple(
                    np.abs(np.sort(m, axis=-1) - sg).mean(axis=-1) for m in (a, b)
                )
        else:
            raise AssertionError(metric)
    return out


def model_scores(
    metric_ids: tuple[MetricId, ...], g, a, b
) -> dict[MetricId, tuple[np.ndarray, np.ndarray]]:
    """Per-model (score_a, score_b) of each metric, one per leading batch index."""
    return {
        m: (xa.mean(axis=-1), xb.mean(axis=-1))
        for m, (xa, xb) in _item_scores(metric_ids, g, a, b).items()
    }


def comparison(metric: MetricId, score_a, score_b):
    """score_a for Wins, score_b - score_a for MAE and MEMD; high favours A."""
    return score_a if metric == MetricId.WINS else score_b - score_a


def batch_scores(metric_ids: tuple[MetricId, ...], g, a, b) -> dict:
    """Comparison score of each metric for batched arrays or ragged rows."""
    return {m: comparison(m, *s) for m, s in model_scores(metric_ids, g, a, b).items()}


def _kernel_inputs(*matrices: ResponseMatrix) -> tuple:
    # Arrays when every matrix is rectangular with one K, else ragged rows.
    if matrices[0].rows and all(m.is_rectangular for m in matrices) and (
        len({m.k_responses for m in matrices}) == 1
    ):
        return tuple(m.to_array() for m in matrices)
    return tuple(m.rows for m in matrices)


# -- public metric functions -------------------------------------------------------

def evaluate(metric: MetricId, a: ResponseMatrix, b: ResponseMatrix, g: ResponseMatrix) -> MetricResult:
    """Scores of A and B against G under one metric, and their comparison."""
    _check_pair(a, g)
    _check_pair(b, g)
    item_a, item_b = _item_scores((metric,), *_kernel_inputs(g, a, b))[metric]
    sa, sb = float(item_a.mean()), float(item_b.mean())
    tie_fraction = float((~item_a & ~item_b).mean()) if metric == MetricId.WINS else None
    return MetricResult(metric, sa, sb, comparison(metric, sa, sb), abs(sa - sb), tie_fraction)


def score_mae(m: ResponseMatrix, g: ResponseMatrix) -> float:
    """Mean over items of |mean(M_i) - mean(G_i)|."""
    return evaluate(MetricId.MAE, m, m, g).score_a


def gamma_mae(a: ResponseMatrix, b: ResponseMatrix, g: ResponseMatrix) -> float:
    """score_mae(B, G) - score_mae(A, G); positive means A is better."""
    return evaluate(MetricId.MAE, a, b, g).comparison


def gamma_wins(a: ResponseMatrix, b: ResponseMatrix, g: ResponseMatrix) -> MetricResult:
    """Fraction of items where A's absolute error is strictly smaller than B's."""
    return evaluate(MetricId.WINS, a, b, g)


def score_memd(m: ResponseMatrix, g: ResponseMatrix) -> float:
    """Mean over items of EMD(M_i, G_i)."""
    return evaluate(MetricId.MEMD, m, m, g).score_a


def gamma_memd(a: ResponseMatrix, b: ResponseMatrix, g: ResponseMatrix) -> float:
    return evaluate(MetricId.MEMD, a, b, g).comparison
