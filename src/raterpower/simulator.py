"""Two-stage response simulator.

Stage one draws per-item location/scale parameters from an item prior; stage
two draws responses per item from a censored normal on [0, 1] (optionally
snapped to a discrete level grid). A simulated experiment produces a triple
of matrices: gold G, an ideal model A drawn from the same per-item
distributions, and a perturbed model B whose locations are shifted by
delta_i ~ Uniform(-epsilon, epsilon).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .distributions import DistributionSpec, uniform
from .errors import EmptyItem, InvalidParam, ItemMismatch, ValueOutOfRange

__all__ = [
    "ItemPrior",
    "ResponseFamily",
    "ResponseMatrix",
    "check_matrices",
    "check_finite",
    "PerturbedDraws",
    "draw_blocks",
    "draw_batch",
    "simulate_batch",
    "generate_triple",
    "default_synthetic_prior",
    "toxicity_prior",
    "multidomain_prior",
]


@dataclass(frozen=True)
class ItemPrior:
    """Pair of distributions for per-item location and scale."""

    location: DistributionSpec
    scale: DistributionSpec

    def validate(self) -> "ItemPrior":
        self.location.validate()
        self.scale.validate()
        lo, _ = self.scale.support()
        if lo < 0:
            raise InvalidParam("scale", "scale distribution puts mass below 0")
        return self

    def to_json_dict(self) -> dict:
        return {
            "location_spec": self.location.to_json_dict(),
            "scale_spec": self.scale.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ItemPrior":
        return cls(
            DistributionSpec.from_json_dict(obj["location_spec"]),
            DistributionSpec.from_json_dict(obj["scale_spec"]),
        ).validate()


@dataclass(frozen=True)
class ResponseFamily:
    """Response domain: continuous on [0, 1] or a discrete level grid.

    ``levels=None`` keeps the censored-normal draw as is; ``levels=k`` snaps
    each response to the nearest of {0, 1/(k-1), ..., 1}, exact midpoints
    rounding toward the higher level.
    """

    levels: int | None = None

    def validate(self) -> "ResponseFamily":
        if self.levels is not None and self.levels < 2:
            raise InvalidParam("levels", "discrete response domain needs >= 2 levels")
        return self


@dataclass(frozen=True)
class ResponseMatrix:
    """N items, each an unordered collection of responses in [0, 1].

    Rows are float arrays; simulator output is rectangular (K per item) but
    ingested real data may be ragged. Response order within an item carries
    no meaning.

    The engine's form of a ragged matrix is ``padded()``: an (N, K_max)
    array holding item i's responses in the first counts[i] slots of row i
    and NaN after them, plus those counts.
    """

    ids: tuple[str, ...]
    rows: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.ids) != len(self.rows):
            raise InvalidParam("matrix", "ids and rows differ in length")
        rows = tuple(np.asarray(r, dtype=float) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "ids", tuple(str(i) for i in self.ids))

    @property
    def n_items(self) -> int:
        return len(self.ids)

    @property
    def is_rectangular(self) -> bool:
        if not self.rows:
            return True
        k = self.rows[0].size
        return all(r.size == k for r in self.rows)

    @property
    def k_responses(self) -> int:
        if not self.is_rectangular:
            raise InvalidParam("matrix", "ragged matrix has no single K")
        return self.rows[0].size if self.rows else 0

    def counts(self) -> np.ndarray:
        return np.array([r.size for r in self.rows], dtype=np.int64)

    def to_array(self) -> np.ndarray:
        if not self.is_rectangular:
            raise InvalidParam("matrix", "ragged matrix cannot become a dense array")
        return np.stack(self.rows) if self.rows else np.empty((0, 0))

    def padded(self) -> tuple[np.ndarray, np.ndarray]:
        """NaN-padded (N, K_max) values and per-item response counts."""
        counts = self.counts()
        values = np.full((self.n_items, counts.max(initial=0)), np.nan)
        if self.rows:
            values[np.arange(values.shape[1]) < counts[:, None]] = np.concatenate(self.rows)
        return values, counts

    @classmethod
    def from_padded(cls, values: np.ndarray, counts, ids: Sequence[str]) -> "ResponseMatrix":
        """Inverse of ``padded``: row i keeps the first counts[i] values."""
        return cls(tuple(ids), tuple(row[:k] for row, k in zip(values, counts)))

    @classmethod
    def from_array(cls, values: np.ndarray, ids: Sequence[str] | None = None) -> "ResponseMatrix":
        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            raise InvalidParam("matrix", "expected a 2-D array")
        if ids is None:
            ids = [str(i) for i in range(values.shape[0])]
        return cls(tuple(ids), tuple(values[i] for i in range(values.shape[0])))

    @classmethod
    def from_rows(cls, items: Iterable[tuple[str, Sequence[float]]]) -> "ResponseMatrix":
        ids, rows = [], []
        for item_id, responses in items:
            ids.append(item_id)
            rows.append(np.asarray(list(responses), dtype=float))
        return cls(tuple(ids), tuple(rows))

    def multiset_equal(self, other: "ResponseMatrix") -> bool:
        if self.ids != other.ids:
            return False
        return all(
            a.size == b.size and np.allclose(np.sort(a), np.sort(b))
            for a, b in zip(self.rows, other.rows)
        )


def check_matrices(*matrices: ResponseMatrix) -> None:
    """Raise unless ``matrices`` are one valid input, such as a (G, A, B) triple.

    They must share item ids in order (else ``ItemMismatch``), hold at least
    one item and at least one response per item (else ``EmptyItem``), and
    every response must lie in [0, 1] (else ``ValueOutOfRange``, naming the
    first offending response in matrix, then item order; NaN is out of
    range). Every function that takes matrices from outside calls it.
    """
    ids = matrices[0].ids
    if any(m.ids != ids for m in matrices[1:]):
        raise ItemMismatch("matrices do not share item ids in order")
    if not ids:
        raise EmptyItem("matrices have no items")
    for m in matrices:
        empty = np.flatnonzero(m.counts() == 0)
        if empty.size:
            raise EmptyItem(f"item {ids[empty[0]]!r} has no responses")
    for m in matrices:
        values = np.concatenate(m.rows)
        bad = np.flatnonzero(~((values >= 0.0) & (values <= 1.0)))
        if bad.size:
            item = int(np.searchsorted(np.cumsum(m.counts()), bad[0], side="right"))
            raise ValueOutOfRange(ids[item], float(values[bad[0]]))


def check_finite(name: str, values) -> np.ndarray:
    """``values`` as a float array; NaN or an infinity raises ``InvalidParam``."""
    x = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(x)):
        raise InvalidParam(name, "values must be finite (no NaN or infinity)")
    return x


# -- response generation -------------------------------------------------------

def _snap_to_levels(x: np.ndarray, levels: int) -> np.ndarray:
    """Snap x to the nearest level in place; exact midpoints go to the higher level."""
    steps = levels - 1
    x *= steps
    x += 0.5
    np.floor(x, out=x)
    x /= steps
    return x


def _affine_responses(z: np.ndarray, mu: np.ndarray, sigma: np.ndarray,
                      family: ResponseFamily, out: np.ndarray | None = None) -> np.ndarray:
    """clip(mu + sigma * z) per item, snapped when family has levels; z is (..., k).

    NumPy's ``normal(loc, scale)`` is loc + scale * standard_normal, so this
    gives its values bit for bit. ``out`` may be z itself.
    """
    x = np.multiply(z, sigma[..., None], out=out)
    x += mu[..., None]
    np.clip(x, 0.0, 1.0, out=x)
    if family.levels is not None:
        _snap_to_levels(x, family.levels)
    return x


def _gen_responses(
    mu: np.ndarray,
    sigma: np.ndarray,
    k: int,
    family: ResponseFamily,
    rng: np.random.Generator,
) -> np.ndarray:
    """Censored-normal responses for a (...,) batch of item params -> (..., k).

    Same values and generator state as clip(rng.normal(mu, sigma, (..., k))),
    computed in place.
    """
    z = rng.standard_normal((*mu.shape, k))
    return _affine_responses(z, mu, sigma, family, out=z)


@dataclass(frozen=True)
class PerturbedDraws:
    """B's draws for a batch of c experiments, shared by every epsilon.

    mu and sigma are the (c, N) item parameters, u the (c, N) uniforms
    behind the location shifts and z the (c, N, K) standard normals behind
    B's responses. ``responses`` turns them into B for one epsilon.
    """

    mu: np.ndarray
    sigma: np.ndarray
    u: np.ndarray
    z: np.ndarray

    def responses(self, epsilon: float, family: ResponseFamily, out: np.ndarray | None = None) -> np.ndarray:
        """B at this epsilon; ``out=self.z`` reuses z's memory once z is no longer needed."""
        # rng.uniform(lo, hi) is lo + (hi - lo) * random(): the same deltas bit for bit.
        delta = self.u * (epsilon - -epsilon) + -epsilon
        return _affine_responses(self.z, self.mu + delta, self.sigma, family, out=out)

    def __getitem__(self, rows: slice) -> "PerturbedDraws":
        """The draws of the experiments in ``rows``, as views."""
        return PerturbedDraws(self.mu[rows], self.sigma[rows], self.u[rows], self.z[rows])


def draw_blocks(config, rng: np.random.Generator, c: int, spans):
    """Every draw of c (G, A, B) experiments, in row blocks over ``spans``.

    A generator of three iterators, each to be exhausted before the next is
    taken: G's (r, N, K) blocks, then A's, then B's draws (``PerturbedDraws``
    of r experiments) for each (lo, hi) span of range(c). NumPy fills a
    variate array in order, so drawing it in row blocks gives the values and
    generator state of one call: the blocks are the rows of ``draw_batch``,
    and at most one block of each is alive when the caller reduces each
    block before taking the next.

    Stream order, the reproducibility contract: c*N locations, c*N scales,
    G, A, c*N uniforms behind the location shifts, B's standard normals.
    ``config`` needs prior, n_items, k_responses and family attributes.
    """
    n, k = config.n_items, config.k_responses
    mu = config.prior.location.sample(rng, c * n).reshape(c, n)
    sigma = config.prior.scale.sample(rng, c * n).reshape(c, n)
    if np.any(sigma < 0):
        raise InvalidParam("sigma", "negative scale")
    for _ in range(2):  # G, then A
        yield (_gen_responses(mu[lo:hi], sigma[lo:hi], k, config.family, rng) for lo, hi in spans)
    u = rng.random((c, n))
    yield (PerturbedDraws(mu[lo:hi], sigma[lo:hi], u[lo:hi], rng.standard_normal((hi - lo, n, k)))
           for lo, hi in spans)


def draw_batch(config, rng: np.random.Generator, c: int) -> tuple[np.ndarray, np.ndarray, PerturbedDraws]:
    """Every draw of c (G, A, B) experiments: (G, A, B's draws), none depending on epsilon.

    ``draw_blocks`` with one block, so its stream order holds.
    """
    g, a, draws = (next(phase) for phase in draw_blocks(config, rng, c, [(0, c)]))
    return g, a, draws


def simulate_batch(config, rng: np.random.Generator, c: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw c independent (G, A, B) experiments as three (c, N, K) arrays.

    G and A are sampled independently from the same per-item distributions
    (A is ideal in distribution, not a copy); B's locations get a fresh
    Uniform(-epsilon, epsilon) shift. Draws follow ``draw_batch``, so they
    never depend on epsilon; ``config`` also needs an epsilon attribute.
    """
    g, a, draws = draw_batch(config, rng, c)
    return g, a, draws.responses(config.epsilon, config.family, out=draws.z)


def generate_triple(config, rng: np.random.Generator) -> tuple[ResponseMatrix, ResponseMatrix, ResponseMatrix]:
    """Draw one (G, A, B) experiment: ``simulate_batch`` with c = 1.

    ``config`` is an ExperimentConfig; it is validated first.
    """
    g, a, b = simulate_batch(config.validate(), rng, 1)
    return ResponseMatrix.from_array(g[0]), ResponseMatrix.from_array(a[0]), ResponseMatrix.from_array(b[0])


# -- presets --------------------------------------------------------------------

def default_synthetic_prior() -> ItemPrior:
    """Locations Uniform(0, 1), scales Uniform(0, 0.3)."""
    return ItemPrior(uniform(0.0, 1.0), uniform(0.0, 0.3)).validate()


def toxicity_prior() -> ItemPrior:
    """Fitted prior for the 5-level toxicity ratings dataset."""
    from .distributions import folded_normal, triangular

    return ItemPrior(
        folded_normal(0.19, 0.11, lo=0.0, hi=1.0),
        triangular(-0.05, 0.21, 0.45, lo=0.0),
    ).validate()


def multidomain_prior() -> ItemPrior:
    """Fitted prior for the binary multi-domain agreement dataset."""
    from .distributions import truncated_normal

    return ItemPrior(
        truncated_normal(-0.5, 1.0, 0.0, 1.0),
        truncated_normal(-0.3923, 0.8502, 0.0, 1.0),
    ).validate()
