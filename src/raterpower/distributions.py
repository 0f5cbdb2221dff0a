"""One-dimensional distribution families for item priors and response models.

Censored and truncated variants are distinct on purpose: a censored family
clips draws to [lo, hi] and carries point masses at the bounds, while a
truncated family renormalizes the density so the bounds carry no mass.
Folded and triangular families accept optional censoring bounds so that
fitted parameters may legally sit partly outside the data range.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import InvalidParam, check_count


class Family(str, enum.Enum):
    UNIFORM = "uniform"
    NORMAL = "normal"
    TRUNCATED_NORMAL = "truncated-normal"
    CENSORED_NORMAL = "censored-normal"
    FOLDED_NORMAL = "folded-normal"
    TRIANGULAR = "triangular"
    GAUSSIAN_MIXTURE2 = "gaussian-mixture2"


# Required and optional parameter names per family.
_PARAMS: dict[Family, tuple[tuple[str, ...], tuple[str, ...]]] = {
    Family.UNIFORM: (("lo", "hi"), ()),
    Family.NORMAL: (("mu", "sigma"), ()),
    Family.TRUNCATED_NORMAL: (("mu", "sigma", "lo", "hi"), ()),
    Family.CENSORED_NORMAL: (("mu", "sigma", "lo", "hi"), ()),
    Family.FOLDED_NORMAL: (("mu", "sigma"), ("lo", "hi")),
    Family.TRIANGULAR: (("a", "b", "c"), ("lo", "hi")),
    Family.GAUSSIAN_MIXTURE2: (("mu1", "sigma1", "mu2", "sigma2", "kappa"), ()),
}


# Families whose draws take more than one raw variate array (see ``draw_into``).
_RAW_ARRAYS = {Family.GAUSSIAN_MIXTURE2: 2}

_SCALES = ("sigma", "sigma1", "sigma2")


# lo < hi where both bounds are given; censored and truncated normals need both.
_BOUNDS = ("lo", "lo < hi violated", lambda p: "lo" not in p or "hi" not in p or p["lo"] < p["hi"])

# Each family's invariants on parameter values, checked in this order after
# the name, NaN and scale checks: (parameter named, message, predicate that
# holds where the parameters are valid). A predicate takes scalars or
# equal-length columns alike, so it combines conditions with & and |.
_RULES: dict[Family, tuple] = {
    # lo == hi is allowed as a degenerate point mass; priors use it.
    Family.UNIFORM: (("lo", "lo > hi", lambda p: p["lo"] <= p["hi"]),),
    Family.NORMAL: (),
    Family.TRUNCATED_NORMAL: (
        _BOUNDS,
        ("mu", "zero-scale truncated normal outside bounds",
         lambda p: (p["sigma"] != 0) | ((p["lo"] <= p["mu"]) & (p["mu"] <= p["hi"]))),
    ),
    Family.CENSORED_NORMAL: (_BOUNDS,),
    Family.FOLDED_NORMAL: (_BOUNDS,),
    Family.TRIANGULAR: (("b", "a <= b <= c violated", lambda p: (p["a"] <= p["b"]) & (p["b"] <= p["c"])), _BOUNDS),
    Family.GAUSSIAN_MIXTURE2: (
        ("kappa", "mixing weight outside [0, 1]", lambda p: (0.0 <= p["kappa"]) & (p["kappa"] <= 1.0)),
    ),
}


def _canonical(params: Mapping) -> dict:
    """``params`` with each -0.0 stored as 0.0, in scalars and columns alike.

    np.clip keeps a zero's sign differently at a scalar bound (``sample``)
    and at a column of bounds (a fit block).
    """
    return {name: value + 0.0 for name, value in params.items()}


def _checks(family: Family, p: Mapping):
    """Every invariant of ``family`` on params ``p``, in check order: (name, message, ok).

    ``p`` maps names to scalars or to equal-length columns. ``ok`` is true
    where the invariant holds: a bool, or a bool column where it depends on
    column values. The name checks (unknown, missing) are plain bools, and
    the scale and family checks run only once every required name is present.
    """
    required, optional = _PARAMS[family]
    unknown, missing = f"unknown parameter for {family.value}", f"missing parameter for {family.value}"
    for name, value in p.items():
        yield name, unknown, name in required or name in optional
        yield name, "parameter is NaN", value == value
    for name in required:
        yield name, missing, name in p
    for name in required:
        if name in _SCALES:
            yield name, "negative scale", p[name] >= 0
    for name, message, holds in _RULES[family]:
        yield name, message, holds(p)


def valid_columns(family: Family, columns: Mapping[str, np.ndarray]) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Parameter ``columns`` as specs of ``family`` store them, and which rows are valid specs.

    Row i is valid exactly when ``DistributionSpec(family, {name: column[i]})``
    builds, and its stored params are row i of the returned columns. A
    check with one outcome for every row (a name the family does not take,
    or needs and lacks) that fails raises :class:`InvalidParam` naming the
    parameter, since no row can pass it.
    """
    columns = _canonical(columns)
    keep = True
    for name, message, ok in _checks(family, columns):
        if np.ndim(ok) == 0 and not ok:
            raise InvalidParam(name, message)
        keep = keep & ok
    return columns, np.asarray(keep, dtype=bool)


@dataclass(frozen=True)
class DistributionSpec:
    """A parameterized distribution family.

    ``params`` maps parameter names to values; see ``Family`` for the
    accepted names. Instances are immutable values that check the family
    invariants when built: the first violation raises :class:`InvalidParam`.
    """

    family: Family
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        try:
            object.__setattr__(self, "family", Family(self.family))
        except ValueError:
            raise InvalidParam("family", f"unknown family {self.family!r}") from None
        for name, value in self.params.items():
            if np.ndim(value) != 0 or np.asarray(value).dtype.kind not in "biuf":
                raise InvalidParam(name, f"expected one number, got {value!r}")
        object.__setattr__(self, "params", _canonical(self.params))
        for name, message, ok in _checks(self.family, self.params):
            if not ok:
                raise InvalidParam(name, message)

    # -- support ------------------------------------------------------------

    def support(self) -> tuple[float, float]:
        """Smallest closed interval carrying all the mass."""
        p = self.params
        f = self.family
        if f == Family.UNIFORM:
            return p["lo"], p["hi"]
        if f == Family.NORMAL:
            if p["sigma"] == 0:
                return p["mu"], p["mu"]
            return -math.inf, math.inf
        if f in (Family.TRUNCATED_NORMAL, Family.CENSORED_NORMAL):
            return p["lo"], p["hi"]
        if f == Family.FOLDED_NORMAL:
            lo = max(0.0, p.get("lo", 0.0))
            hi = p.get("hi", math.inf)
            if p["sigma"] == 0:
                x = min(max(abs(p["mu"]), lo), hi)
                return x, x
            return lo, hi
        if f == Family.TRIANGULAR:
            return max(p["a"], p.get("lo", -math.inf)), min(p["c"], p.get("hi", math.inf))
        if f == Family.GAUSSIAN_MIXTURE2:
            if p["sigma1"] == 0 and p["sigma2"] == 0:
                return min(p["mu1"], p["mu2"]), max(p["mu1"], p["mu2"])
            return -math.inf, math.inf
        raise AssertionError(f)

    # -- sampling ------------------------------------------------------------

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` independent values: ``transform`` of ``draw_into``'s raw variates.

        Deterministic given (spec, generator state): each family consumes the
        stream in a fixed documented order (see ``draw_into``).
        """
        check_count("count", count, "negative count", least=0)
        raw = self.raw_arrays(self.family, count)
        self.draw_into(self.family, self.params, rng, raw)
        return self.transform(self.family, self.params, raw)

    @staticmethod
    def raw_arrays(family: Family, shape) -> tuple[np.ndarray, ...]:
        """Uninitialised arrays of ``shape`` for ``draw_into``'s raw variates of ``family``."""
        return tuple(np.empty(shape) for _ in range(_RAW_ARRAYS.get(family, 1)))

    @staticmethod
    def draw_into(family: Family, p: Mapping[str, float], rng: np.random.Generator,
                  raw: tuple[np.ndarray, ...]) -> None:
        """Fill ``raw`` (from ``raw_arrays``) with the raw variates of a spec's draws.

        ``p`` holds the spec's scalar params. Uniform and truncated normal
        draw one ``random`` per value; normal, censored and folded normal
        one ``standard_normal``; triangular one ``triangular``;
        gaussian-mixture2 the component uniforms, then one standard normal
        per value shared across components. A degenerate spec (uniform
        lo == hi, zero-scale truncated normal, triangular a == c) draws
        nothing. The generator fills C-contiguous ``raw`` in place, so a
        row of a block takes the same values as a fresh array.
        """
        x = raw[0]
        if family in (Family.UNIFORM, Family.TRUNCATED_NORMAL):
            if p["lo"] == p["hi"] if family == Family.UNIFORM else p["sigma"] == 0:
                x[...] = 0.0
            else:
                rng.random(out=x)
        elif family in (Family.NORMAL, Family.CENSORED_NORMAL, Family.FOLDED_NORMAL):
            rng.standard_normal(out=x)
        elif family == Family.TRIANGULAR:
            # Generator.triangular takes no ``out``.
            x[...] = float(p["a"]) if p["a"] == p["c"] else rng.triangular(p["a"], p["b"], p["c"], x.shape)
        elif family == Family.GAUSSIAN_MIXTURE2:
            rng.random(out=x)
            rng.standard_normal(out=raw[1])
        else:
            raise AssertionError(family)

    @staticmethod
    def transform(family: Family, params: Mapping, raw: tuple[np.ndarray, ...]) -> np.ndarray:
        """Map ``draw_into``'s raw variates of ``family`` to values; ``raw`` is overwritten.

        Each parameter is a scalar or a column that broadcasts against the
        raw arrays, so one call maps the rows of many specs of one family.
        The arithmetic is the generator's own (``uniform(lo, hi)`` is
        lo + (hi - lo) * random, ``normal(mu, sigma)`` is
        mu + sigma * standard_normal), so every row equals ``sample`` of its
        spec bit for bit.
        """
        p = params
        x = raw[0]
        if family == Family.UNIFORM:
            lo, hi = p["lo"], p["hi"]
            return _where(lo != hi, _affine(x, hi - lo, lo), lo)
        if family == Family.NORMAL:
            return _affine(x, p["sigma"], p["mu"])
        if family == Family.TRUNCATED_NORMAL:
            # Inverse-CDF on the renormalized interval: stable for wide
            # intervals, no rejection loop.
            from scipy import special

            mu, sigma, lo, hi = p["mu"], p["sigma"], p["lo"], p["hi"]
            live = sigma != 0
            with np.errstate(divide="ignore", invalid="ignore"):
                a = special.ndtr(np.divide(lo - mu, sigma))
                b = special.ndtr(np.divide(hi - mu, sigma))
                if np.any(live & (b - a <= 0.0)):
                    raise InvalidParam("lo", "truncation interval carries no mass")
                x = _affine(special.ndtri(_affine(x, b - a, a)), sigma, mu)
            return _where(live, np.clip(x, lo, hi, out=x), mu)
        if family == Family.CENSORED_NORMAL:
            return np.clip(_affine(x, p["sigma"], p["mu"]), p["lo"], p["hi"], out=x)
        if family == Family.FOLDED_NORMAL:
            x = np.abs(_affine(x, p["sigma"], p["mu"]), out=x)
            return np.clip(x, p.get("lo", -math.inf), p.get("hi", math.inf), out=x)
        if family == Family.TRIANGULAR:
            return np.clip(x, p.get("lo", -math.inf), p.get("hi", math.inf), out=x)
        if family == Family.GAUSSIAN_MIXTURE2:
            z = raw[1]
            return np.where(x < p["kappa"], p["mu1"] + p["sigma1"] * z, p["mu2"] + p["sigma2"] * z)
        raise AssertionError(family)

    # -- JSON ------------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"family": self.family.value, "params": {k: float(v) for k, v in self.params.items()}}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "DistributionSpec":
        if not (isinstance(obj, dict) and isinstance(obj.get("params", {}), dict)):
            raise InvalidParam("spec", f"expected an object with a family and a params object, got {obj!r}")
        try:
            params = {k: float(v) for k, v in obj.get("params", {}).items()}
        except (TypeError, ValueError):
            raise InvalidParam("params", f"expected numbers, got {obj['params']!r}") from None
        return cls(obj.get("family"), params)


def _affine(x: np.ndarray, scale, shift) -> np.ndarray:
    """shift + scale * x, computed in x's memory."""
    x *= scale
    x += shift
    return x


def _where(live, x: np.ndarray, fallback) -> np.ndarray:
    """x where ``live``, else ``fallback``: a degenerate spec takes one value."""
    return x if np.all(live) else np.where(live, x, fallback)


def uniform(lo: float, hi: float) -> DistributionSpec:
    return DistributionSpec(Family.UNIFORM, {"lo": lo, "hi": hi})


def truncated_normal(mu: float, sigma: float, lo: float, hi: float) -> DistributionSpec:
    return DistributionSpec(Family.TRUNCATED_NORMAL, {"mu": mu, "sigma": sigma, "lo": lo, "hi": hi})


def _bounds(lo: float | None, hi: float | None) -> dict[str, float]:
    """The optional censoring bounds that are given."""
    return {name: v for name, v in (("lo", lo), ("hi", hi)) if v is not None}


def folded_normal(mu: float, sigma: float, lo: float | None = None, hi: float | None = None) -> DistributionSpec:
    return DistributionSpec(Family.FOLDED_NORMAL, {"mu": mu, "sigma": sigma, **_bounds(lo, hi)})


def triangular(a: float, b: float, c: float, lo: float | None = None, hi: float | None = None) -> DistributionSpec:
    return DistributionSpec(Family.TRIANGULAR, {"a": a, "b": b, "c": c, **_bounds(lo, hi)})

