"""Two-stage response simulator, and the response matrix every entry point takes.

Stage one draws per-item location/scale parameters from an item prior; stage
two draws responses per item from a censored normal on [0, 1] (optionally
snapped to a discrete level grid). A simulated experiment produces a triple
of matrices: gold G, an ideal model A drawn from the same per-item
distributions, and a perturbed model B whose locations are shifted by
delta_i ~ Uniform(-epsilon, epsilon). The engine draws them as (c, N, K)
arrays along one path, from one generator or one per experiment (row groups).
``ResponseMatrix`` holds one matrix, rectangular or ragged, in the
NaN-padded form the engine reads; ``check_matrices`` checks input.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import rngstreams
from .distributions import DistributionSpec, uniform
from .errors import EmptyItem, InvalidParam, ItemMismatch, ValueOutOfRange, check_count

__all__ = [
    "ItemPrior",
    "ResponseFamily",
    "ResponseMatrix",
    "check_matrices",
    "check_finite",
    "PerturbedDraws",
    "draw_blocks",
    "simulate_batch",
    "generate_triple",
    "default_synthetic_prior",
    "toxicity_prior",
    "multidomain_prior",
]


@dataclass(frozen=True)
class ItemPrior:
    """Pair of distributions for per-item location and scale; the scale's mass must lie at or above 0."""

    location: DistributionSpec
    scale: DistributionSpec

    def __post_init__(self):
        lo, _ = self.scale.support()
        if lo < 0:
            raise InvalidParam("scale", "scale distribution puts mass below 0")

    def to_json_dict(self) -> dict:
        return {
            "location_spec": self.location.to_json_dict(),
            "scale_spec": self.scale.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ItemPrior":
        if not (isinstance(obj, dict) and obj.get("location_spec") and obj.get("scale_spec")):
            raise InvalidParam("prior", "needs a location_spec and a scale_spec")
        return cls(
            DistributionSpec.from_json_dict(obj["location_spec"]),
            DistributionSpec.from_json_dict(obj["scale_spec"]),
        )


@dataclass(frozen=True)
class ResponseFamily:
    """Response domain: continuous on [0, 1] or a discrete level grid.

    ``levels=None`` keeps the censored-normal draw as is; ``levels=k`` snaps
    each response to the nearest of {0, 1/(k-1), ..., 1}, exact midpoints
    rounding toward the higher level.
    """

    levels: int | None = None

    def __post_init__(self):
        if self.levels is not None:
            check_count("levels", self.levels, "discrete response domain needs >= 2 levels", least=2)


def _slots(counts: np.ndarray, width: int) -> np.ndarray:
    """The (N, width) mask of each row's first counts[i] slots."""
    return np.arange(width) < counts[:, None]


def _pad(flat, counts: np.ndarray) -> np.ndarray:
    """``flat``'s values row after row, counts[i] in row i, NaN-padded to (N, max count)."""
    values = np.full((counts.size, counts.max(initial=0)), np.nan)
    values[_slots(counts, values.shape[1])] = flat
    return values


@dataclass(frozen=True, init=False, eq=False)
class ResponseMatrix:
    """N items, each an unordered collection of responses in [0, 1], ragged or not.

    Stored padded: read-only (N, K_max) ``values`` hold item i's responses in
    the first counts[i] slots of row i and NaN after them, with K_max the
    largest of the (N,) int64 ``counts()``; ``rows`` are views of the valid
    slots. Rectangular data are their plain (N, K) array.
    """

    ids: tuple[str, ...]
    values: np.ndarray
    _counts: np.ndarray

    def __init__(self, ids: Sequence[str], rows: Sequence):
        rows = [np.asarray(r, dtype=float) for r in rows]
        for item_id, r in zip(ids, rows):
            if r.ndim != 1:
                raise InvalidParam("matrix", f"item {str(item_id)!r}: responses must be a 1-D sequence")
        counts = np.array([r.size for r in rows], dtype=np.int64)
        padded = ResponseMatrix.from_padded(_pad(np.concatenate(rows) if rows else [], counts), counts, ids)
        self.__dict__.update(padded.__dict__)

    @property
    def rows(self) -> tuple[np.ndarray, ...]:
        return tuple(row[:k] for row, k in zip(self.values, self._counts.tolist()))

    @property
    def n_items(self) -> int:
        return len(self.ids)

    @property
    def is_rectangular(self) -> bool:
        return bool(np.all(self._counts == self.values.shape[1]))

    @property
    def k_responses(self) -> int:
        if not self.is_rectangular:
            raise InvalidParam("matrix", "ragged matrix has no single K")
        return self.values.shape[1]

    def counts(self) -> np.ndarray:
        return self._counts

    @classmethod
    def from_padded(cls, values: np.ndarray, counts, ids: Sequence[str]) -> "ResponseMatrix":
        """Inverse of (``values``, ``counts()``): row i keeps its first counts[i] values; width the largest count."""
        values, counts = np.asarray(values, dtype=float), np.array(counts, dtype=np.int64)
        if (values.ndim != 2 or counts.shape != values.shape[:1] or len(ids) != counts.size
                or np.any(counts < 0) or np.any(counts > values.shape[1])):
            raise InvalidParam("matrix", "need N ids, (N, W) values and N counts in [0, W]")
        valid = _slots(counts, counts.max(initial=0))
        values = np.ascontiguousarray(np.where(valid, values[:, :valid.shape[1]], np.nan))
        values.flags.writeable = counts.flags.writeable = False
        m = object.__new__(cls)  # the frozen fields, set once
        m.__dict__.update(ids=tuple(map(str, ids)), values=values, _counts=counts)
        return m

    @classmethod
    def from_array(cls, values: np.ndarray, ids: Sequence[str] | None = None) -> "ResponseMatrix":
        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            raise InvalidParam("matrix", "expected a 2-D array")
        ids = [str(i) for i in range(len(values))] if ids is None else ids
        return cls.from_padded(values, np.full(len(values), values.shape[1]), ids)

    @classmethod
    def from_rows(cls, items: Iterable[tuple[str, Sequence[float]]]) -> "ResponseMatrix":
        items = [(item_id, list(responses)) for item_id, responses in items]
        return cls([item_id for item_id, _ in items], [responses for _, responses in items])


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
    for m in matrices:  # padding masked out
        bad = _slots(m.counts(), m.values.shape[1]) & ~((m.values >= 0.0) & (m.values <= 1.0))
        if bad.any():
            item, slot = np.argwhere(bad)[0]
            raise ValueOutOfRange(ids[item], float(m.values[item, slot]))


def check_finite(name: str, values) -> np.ndarray:
    """``values`` as a float array; NaN or an infinity raises ``InvalidParam``."""
    x = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(x)):
        raise InvalidParam(name, "values must be finite (no NaN or infinity)")
    return x


def check_member(name: str, value, kind: type[enum.Enum]):
    """``kind(value)``: a member, or its value; anything else raises ``InvalidParam`` naming ``name``."""
    try:
        return kind(value)
    except ValueError:
        raise InvalidParam(name, f"expected one of {', '.join(m.value for m in kind)}, got {value!r}") from None


# -- response generation -------------------------------------------------------

def _snap_to_levels(x: np.ndarray, levels: int) -> np.ndarray:
    """Snap x to the nearest level in place; exact midpoints go to the higher level."""
    steps = levels - 1
    x *= steps
    x += 0.5
    np.floor(x, out=x)
    x /= steps
    return x


def _affine_responses(z: np.ndarray, mu: np.ndarray, sigma: np.ndarray, family: ResponseFamily,
                      out: np.ndarray | None = None, stack: np.ndarray | None = None) -> np.ndarray:
    """clip(mu + sigma * z) per item, snapped when family has levels; z is (..., k).

    mu is sigma's shape or adds leading axes: then sigma * z is computed once
    and one response array comes out per leading index, (*lead, ..., k).
    NumPy's ``normal(loc, scale)`` is loc + scale * standard_normal, so this
    gives its values bit for bit. ``out`` may be z itself; the responses
    build in it when mu has one value per item, else in ``stack``, an
    array of their shape, when given.
    """
    x = np.multiply(z, sigma[..., None], out=out)
    if mu.size == sigma.size:
        x = x.reshape(*mu.shape, x.shape[-1])
        x += mu[..., None]
    else:
        x = np.add(x, mu[..., None], out=stack)
    np.clip(x, 0.0, 1.0, out=x)
    if family.levels is not None:
        _snap_to_levels(x, family.levels)
    return x


def _fill(rng, lo: int, x: np.ndarray, draw) -> np.ndarray:
    """x, rows lo.. of a batch, filled in place by ``draw(generator, out=rows)`` of each row group."""
    for r, a, b in rngstreams.row_groups(rng, lo, lo + len(x)):
        draw(r, out=x[a - lo:b - lo])
    return x


def _gen_responses(
    mu: np.ndarray,
    sigma: np.ndarray,
    k: int,
    family: ResponseFamily,
    rng,
    lo: int = 0,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Censored-normal responses for an (r, ...) block of item params, rows lo.. of a batch -> (r, ..., k).

    Each row group of ``rng`` draws its rows' normals (``_fill``): with one
    generator, the same values and generator state as
    clip(rng.normal(mu, sigma, (r, ..., k))). Computed in place, in ``out``
    when given (an (r, ..., k) float array), else in a new array.
    """
    z = _fill(rng, lo, np.empty((*mu.shape, k)) if out is None else out, np.random.Generator.standard_normal)
    return _affine_responses(z, mu, sigma, family, out=z)


@dataclass(frozen=True)
class PerturbedDraws:
    """B's draws for a batch of c experiments, shared by every epsilon.

    mu and sigma are the (c, N) item parameters, u the (c, N) uniforms
    behind the location shifts and z the (c, N, K) standard normals behind
    B's responses. ``responses`` turns them into B for any number of epsilons.
    """

    mu: np.ndarray
    sigma: np.ndarray
    u: np.ndarray
    z: np.ndarray

    def responses(self, epsilon, family: ResponseFamily, out: np.ndarray | None = None,
                  stack: np.ndarray | None = None) -> np.ndarray:
        """B at ``epsilon``, a float or an (E,) array: (c, N, K), or (E, c, N, K) with one B per epsilon.

        sigma * z is computed once for every epsilon. ``out=self.z`` reuses
        z's memory once z is no longer needed: for it, and for B itself when
        there is one epsilon. ``stack``, an (E, c, N, K) float array, takes
        the Bs of several epsilons; without it they build in a new array.
        """
        e = np.asarray(epsilon, dtype=float)[..., None, None]
        # rng.uniform(lo, hi) is lo + (hi - lo) * random(): the same deltas bit for bit.
        delta = self.u * (e - -e) + -e
        return _affine_responses(self.z, self.mu + delta, self.sigma, family, out=out, stack=stack)


def draw_blocks(config, rng, c: int, spans, out=None):
    """Every draw of c (G, A, B) experiments, in row blocks over ``spans``.

    A generator of three iterators, each to be exhausted before the next is
    taken: G's (r, N, K) blocks, then A's, then B's draws (``PerturbedDraws``
    of r experiments) for each (lo, hi) span of range(c). NumPy fills a
    variate array in order, so drawing it in row blocks gives the values and
    generator state of one call: the blocks, joined, are the one block over
    range(c), and at most one block of each is alive when the caller
    reduces each block before taking the next.

    ``rng`` is one generator for all c experiments or one per experiment:
    its row groups (``rngstreams.row_groups``), each draw one call per
    group. Stream order of each generator over its rows, the
    reproducibility contract: N locations per row, N scales per row, G, A,
    N uniforms per row behind the location shifts, B's standard normals. So
    a row with its own generator is that generator's batch of one, bit for
    bit. ``config`` needs prior, n_items, k_responses and family attributes.

    ``out``, when given, is three (c, N, K) float arrays for G's, A's and
    B's standard normals: each block is then drawn in place into rows lo..hi
    of its array, a view, rather than into a new array. The engine passes a
    worker's chunk workspace (``inference._Workspace``), which outlives the
    chunk, so no block may be kept past it; a draw whose arrays outlive any
    chunk (``simulate_batch``, a column's base draw) passes none.
    """
    n, k = config.n_items, config.k_responses
    g_out, a_out, z_out = out or (None,) * 3

    def rows(x, lo, hi):  # rows lo..hi of an out array, or a new block
        return np.empty((hi - lo, n, k)) if x is None else x[lo:hi]

    specs = (config.prior.location, config.prior.scale)
    raws = [spec.raw_arrays(spec.family, (c, n)) for spec in specs]
    for r, lo, hi in rngstreams.row_groups(rng, 0, c):
        for spec, raw in zip(specs, raws):
            spec.draw_into(spec.family, spec.params, r, tuple(x[lo:hi] for x in raw))
    mu, sigma = (spec.transform(spec.family, spec.params, raw) for spec, raw in zip(specs, raws))
    if np.any(sigma < 0):
        raise InvalidParam("sigma", "negative scale")
    for x in (g_out, a_out):  # G, then A
        yield (_gen_responses(mu[lo:hi], sigma[lo:hi], k, config.family, rng, lo, rows(x, lo, hi))
               for lo, hi in spans)
    u = _fill(rng, 0, np.empty((c, n)), np.random.Generator.random)
    yield (PerturbedDraws(mu[lo:hi], sigma[lo:hi], u[lo:hi],
                          _fill(rng, lo, rows(z_out, lo, hi), np.random.Generator.standard_normal))
           for lo, hi in spans)


def simulate_batch(config, rng, c: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw c independent (G, A, B) experiments as three (c, N, K) arrays.

    G and A are sampled independently from the same per-item distributions
    (A is ideal in distribution, not a copy); B's locations get a fresh
    Uniform(-epsilon, epsilon) shift. Draws follow ``draw_blocks`` with one
    block, so they never depend on epsilon; ``config`` also needs an
    epsilon attribute.
    """
    g, a, draws = (next(phase) for phase in draw_blocks(config, rng, c, [(0, c)]))
    return g, a, draws.responses(config.epsilon, config.family, out=draws.z)


def generate_triple(config, rng: np.random.Generator) -> tuple[ResponseMatrix, ResponseMatrix, ResponseMatrix]:
    """Draw one (G, A, B) experiment of an ExperimentConfig: ``simulate_batch`` with c = 1."""
    g, a, b = simulate_batch(config, rng, 1)
    return ResponseMatrix.from_array(g[0]), ResponseMatrix.from_array(a[0]), ResponseMatrix.from_array(b[0])


# -- presets --------------------------------------------------------------------

def default_synthetic_prior() -> ItemPrior:
    """Locations Uniform(0, 1), scales Uniform(0, 0.3)."""
    return ItemPrior(uniform(0.0, 1.0), uniform(0.0, 0.3))


def toxicity_prior() -> ItemPrior:
    """Fitted prior for the 5-level toxicity ratings dataset."""
    from .distributions import folded_normal, triangular

    return ItemPrior(
        folded_normal(0.19, 0.11, lo=0.0, hi=1.0),
        triangular(-0.05, 0.21, 0.45, lo=0.0),
    )


def multidomain_prior() -> ItemPrior:
    """Fitted prior for the binary multi-domain agreement dataset."""
    from .distributions import truncated_normal

    return ItemPrior(
        truncated_normal(-0.5, 1.0, 0.0, 1.0),
        truncated_normal(-0.3923, 0.8502, 0.0, 1.0),
    )
