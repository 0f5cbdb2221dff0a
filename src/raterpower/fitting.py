"""Grid-search fitting of item priors to real per-item statistics.

Location and scale are fitted independently: the per-item response means are
matched against candidates for the location distribution and the per-item
standard deviations against candidates for the scale distribution, using a
sorted-quantile (1-Wasserstein) distance between the real values and a large
simulated sample. Candidate draws are censored into the observed data range
before the distance is computed, since fitted families may legally put mass
outside it.

Candidates are scored in blocks: candidate i draws its raw variates
(``DistributionSpec.draw``) from its own generator, derive_rng(seed, FIT,
side, i), into row i of a block, and the family transform, clip, sort and
distance then run once per block. Blocks run on ``threads``; the report does
not depend on the block size or the thread count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import rngstreams
from .distributions import DistributionSpec, Family
from .errors import EmptySample, InvalidParam, NoValidGridPoint
from .inference import _map_chunks
from .metrics import _mean, reduce_rows
from .simulator import ResponseMatrix, check_finite, check_matrices

__all__ = [
    "ItemStats",
    "Ecdf",
    "FitReport",
    "per_item_stats",
    "ecdf",
    "stat_distance",
    "fit_prior",
]

_SIM_COUNT_CAP = 100_000

# Floats per block of candidate draws (512 KB), so that a block per thread
# adds little to peak memory.
_FIT_BLOCK = 1 << 16


@dataclass(frozen=True)
class ItemStats:
    """Per-item response means and population standard deviations."""

    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self):
        means = check_finite("means", self.means)
        stds = check_finite("stds", self.stds)
        if means.shape != stds.shape or means.ndim != 1:
            raise InvalidParam("stats", "means and stds must be equal-length vectors")
        if np.any(stds < 0):
            raise InvalidParam("stds", "negative standard deviation")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "stds", stds)


def per_item_stats(m: ResponseMatrix) -> ItemStats:
    """Mean and population standard deviation (divisor n) per item."""
    check_matrices(m)
    values, counts = m.padded()
    means = reduce_rows(_mean, (values,), (counts,))
    stds = reduce_rows(lambda x: x.std(axis=-1), (values,), (counts,))
    return ItemStats(means, stds)


@dataclass(frozen=True)
class Ecdf:
    """Right-continuous empirical CDF: sorted support plus cumulative fractions."""

    xs: np.ndarray
    fractions: np.ndarray

    def __call__(self, x) -> np.ndarray | float:
        scalar = np.isscalar(x)
        idx = np.searchsorted(self.xs, np.asarray(x, dtype=float), side="right")
        out = np.where(idx > 0, self.fractions[np.maximum(idx - 1, 0)], 0.0)
        return float(out) if scalar else out

    def rows(self) -> list[tuple[float, float]]:
        return [(float(x), float(f)) for x, f in zip(self.xs, self.fractions)]


def ecdf(values) -> Ecdf:
    values = check_finite("values", values)
    if values.size == 0:
        raise EmptySample("ecdf needs at least one value")
    xs, counts = np.unique(values, return_counts=True)
    return Ecdf(xs, np.cumsum(counts) / values.size)


def _sorted_real(values, sim_count: int) -> np.ndarray:
    """The sorted real values, once they and ``sim_count`` are checked."""
    real = np.sort(check_finite("real_values", values))
    if real.size == 0:
        raise EmptySample("stat_distance needs real values")
    if sim_count < 1:
        raise InvalidParam("sim_count", "need at least one simulated draw")
    return real


def _distances(real: np.ndarray, sims: np.ndarray) -> list[float]:
    """``stat_distance`` of sorted ``real`` to each row of (r, n) draws ``sims`` (overwritten)."""
    np.clip(sims, real[0], real[-1], out=sims)
    sims.sort(axis=-1)
    n = sims.shape[-1]
    if n == real.size:
        d = np.subtract(real, sims, out=sims)
    else:
        # Linear-interpolated quantiles of the simulated sample at the real
        # sample's quantile midpoints (np.quantile re-partitions per point and
        # is far too slow for tens of thousands of them).
        q = (np.arange(real.size) + 0.5) / real.size
        pos = q * (n - 1)
        lo = np.floor(pos).astype(np.int64)
        hi = np.minimum(lo + 1, n - 1)
        frac = pos - lo
        d = real - (np.take(sims, lo, axis=-1) * (1.0 - frac) + np.take(sims, hi, axis=-1) * frac)
    # One 1-D sum per row, as row.mean() takes it: a batched mean(axis=-1)
    # may add in another order.
    return [float(np.add.reduce(row)) / row.size for row in np.abs(d, out=d)]


def stat_distance(
    real_values,
    spec: DistributionSpec,
    sim_count: int,
    rng: np.random.Generator,
) -> float:
    """Sorted-quantile mean absolute distance between data and a candidate.

    Equal counts reduce to the 1-Wasserstein distance between the two
    empirical distributions; otherwise the simulated sample is interpolated
    at the real sample's quantile midpoints. Simulated draws are clipped
    into the observed data range first.
    """
    real = _sorted_real(real_values, sim_count)
    spec.validate()
    return _distances(real, spec.sample(rng, sim_count)[None])[0]


@dataclass(frozen=True)
class FitSide:
    family: Family
    grid: dict[str, tuple[float, ...]]
    best: DistributionSpec
    distance: float

    def to_json_dict(self) -> dict:
        return {
            "family": self.family.value,
            "grid": {k: list(v) for k, v in self.grid.items()},
            "best_params": dict(self.best.params),
            "distance": self.distance,
        }


@dataclass(frozen=True)
class FitReport:
    location: FitSide
    scale: FitSide | None
    fit_error: float

    @property
    def location_spec(self) -> DistributionSpec:
        return self.location.best

    @property
    def scale_spec(self) -> DistributionSpec | None:
        return self.scale.best if self.scale is not None else None

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "fit_report",
            "location_spec": self.location.best.to_json_dict(),
            "scale_spec": self.scale.best.to_json_dict() if self.scale else None,
            "fit_error": self.fit_error,
            "location": self.location.to_json_dict(),
            "scale": self.scale.to_json_dict() if self.scale else None,
        }


def _fit_side(
    values: np.ndarray,
    family: Family,
    grid: dict[str, tuple[float, ...]],
    fixed_params: dict[str, float],
    sim_count: int,
    seed: int,
    side_tag: int,
    threads: int = 1,
) -> FitSide:
    if not grid or any(len(v) == 0 for v in grid.values()):
        raise InvalidParam("grid", "every grid axis needs at least one value")
    names = list(grid)
    candidates = []
    for combo in itertools.product(*(grid[n] for n in names)):
        params = {**fixed_params, **dict(zip(names, combo))}
        try:
            candidates.append(DistributionSpec(family, params).validate())
        except InvalidParam:
            continue
    if not candidates:
        raise NoValidGridPoint(f"no valid {family.value} candidate in the grid")
    real = _sorted_real(values, sim_count)

    def block(span: tuple[int, int]) -> list[float]:
        # Candidate i draws from its own generator into row i as it goes, so
        # one block and one row are alive; the transform, clip, sort and
        # distance then run once for the block.
        specs = candidates[slice(*span)]
        raw = None
        for row, i in enumerate(range(*span)):
            draws = specs[row].draw(rngstreams.derive_rng(seed, rngstreams.FIT, side_tag, i), sim_count)
            raw = raw or tuple(np.empty((len(specs), sim_count)) for _ in draws)
            for out, x in zip(raw, draws):
                out[row] = x
        columns = {name: np.array([spec.params[name] for spec in specs], dtype=float)[:, None]
                   for name in specs[0].params}
        return _distances(real, DistributionSpec.transform(family, columns, raw))

    rows = max(1, min(_FIT_BLOCK // sim_count, -(-len(candidates) // max(1, threads))))
    distances = itertools.chain.from_iterable(
        _map_chunks(block, rngstreams.chunk_ranges(len(candidates), rows), threads))
    best_idx = 0
    best_dist = np.inf
    for i, dist in enumerate(distances):
        if dist < best_dist:
            best_idx, best_dist = i, dist
    return FitSide(
        family=family,
        grid={k: tuple(v) for k, v in grid.items()},
        best=candidates[best_idx],
        distance=float(best_dist),
    )


def fit_prior(
    stats: ItemStats,
    location_family: Family,
    location_grid: dict[str, tuple[float, ...]],
    scale_family: Family | None = None,
    scale_grid: dict[str, tuple[float, ...]] | None = None,
    location_fixed: dict[str, float] | None = None,
    scale_fixed: dict[str, float] | None = None,
    sim_count: int | None = None,
    seed: int = 0,
    threads: int = 1,
) -> FitReport:
    """Independent grid searches for the location and scale distributions.

    ``sim_count`` defaults to 10x the number of items, capped at 100,000.
    Ties break to the first grid point in iteration order; one seed gives one
    report, whatever ``threads``.
    """
    if stats.means.size == 0:
        raise EmptySample("fit_prior needs at least one item")
    if sim_count is None:
        sim_count = min(10 * stats.means.size, _SIM_COUNT_CAP)
    location = _fit_side(
        stats.means, location_family, location_grid, location_fixed or {}, sim_count, seed, 0,
        threads,
    )
    scale = None
    if scale_family is not None:
        if scale_grid is None:
            raise InvalidParam("scale_grid", "scale family given without a grid")
        scale = _fit_side(
            stats.stds, scale_family, scale_grid, scale_fixed or {}, sim_count, seed, 1,
            threads,
        )
    fit_error = location.distance + (scale.distance if scale else 0.0)
    return FitReport(location=location, scale=scale, fit_error=float(fit_error))
