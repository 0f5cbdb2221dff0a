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
from scipy import special

from .errors import InvalidParam


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


@dataclass(frozen=True)
class DistributionSpec:
    """A parameterized distribution family.

    ``params`` maps parameter names to values; see ``Family`` for the
    accepted names. Instances are immutable values; ``validate`` checks the
    family invariants and raises :class:`InvalidParam` on the first
    violation.
    """

    family: Family
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "params", dict(self.params))

    # -- validation ---------------------------------------------------------

    def validate(self) -> "DistributionSpec":
        required, optional = _PARAMS[self.family]
        allowed = set(required) | set(optional)
        for name in self.params:
            if name not in allowed:
                raise InvalidParam(name, f"unknown parameter for {self.family.value}")
        for name in required:
            if name not in self.params:
                raise InvalidParam(name, f"missing parameter for {self.family.value}")
        p = self.params
        for name in ("sigma", "sigma1", "sigma2"):
            if name in p and p[name] < 0:
                raise InvalidParam(name, "negative scale")
        f = self.family
        if f == Family.UNIFORM:
            # lo == hi is allowed as a degenerate point mass; priors use it.
            if p["lo"] > p["hi"]:
                raise InvalidParam("lo", "lo > hi")
        elif f in (Family.TRUNCATED_NORMAL, Family.CENSORED_NORMAL):
            if not p["lo"] < p["hi"]:
                raise InvalidParam("lo", "lo < hi violated")
            if f == Family.TRUNCATED_NORMAL and p["sigma"] == 0 and not (
                p["lo"] <= p["mu"] <= p["hi"]
            ):
                raise InvalidParam("mu", "zero-scale truncated normal outside bounds")
        elif f == Family.FOLDED_NORMAL:
            self._check_censor_bounds(p)
        elif f == Family.TRIANGULAR:
            if not (p["a"] <= p["b"] <= p["c"]):
                raise InvalidParam("b", "a <= b <= c violated")
            self._check_censor_bounds(p)
        elif f == Family.GAUSSIAN_MIXTURE2:
            if not 0.0 <= p["kappa"] <= 1.0:
                raise InvalidParam("kappa", "mixing weight outside [0, 1]")
        return self

    @staticmethod
    def _check_censor_bounds(p: Mapping[str, float]) -> None:
        if "lo" in p and "hi" in p and not p["lo"] < p["hi"]:
            raise InvalidParam("lo", "lo < hi violated")

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
        """Draw ``count`` independent values.

        Deterministic given (spec, generator state): each family consumes the
        stream in a fixed documented order.
        """
        if count < 0:
            raise InvalidParam("count", "negative count")
        p = self.params
        f = self.family
        if f == Family.UNIFORM:
            if p["lo"] == p["hi"]:
                return np.full(count, float(p["lo"]))
            return rng.uniform(p["lo"], p["hi"], count)
        if f == Family.NORMAL:
            return rng.normal(p["mu"], p["sigma"], count)
        if f == Family.TRUNCATED_NORMAL:
            return self._sample_truncated(rng, count)
        if f == Family.CENSORED_NORMAL:
            x = rng.normal(p["mu"], p["sigma"], count)
            return np.clip(x, p["lo"], p["hi"])
        if f == Family.FOLDED_NORMAL:
            x = np.abs(rng.normal(p["mu"], p["sigma"], count))
            return np.clip(x, p.get("lo", -math.inf), p.get("hi", math.inf))
        if f == Family.TRIANGULAR:
            if p["a"] == p["c"]:
                x = np.full(count, float(p["a"]))
            else:
                x = rng.triangular(p["a"], p["b"], p["c"], count)
            return np.clip(x, p.get("lo", -math.inf), p.get("hi", math.inf))
        if f == Family.GAUSSIAN_MIXTURE2:
            # Stream order: component indicators, then one standard normal
            # per draw shared across components.
            first = rng.random(count) < p["kappa"]
            z = rng.standard_normal(count)
            return np.where(
                first, p["mu1"] + p["sigma1"] * z, p["mu2"] + p["sigma2"] * z
            )
        raise AssertionError(f)

    def _sample_truncated(self, rng: np.random.Generator, count: int) -> np.ndarray:
        # Inverse-CDF on the renormalized interval: stable for wide intervals,
        # no rejection loop.
        p = self.params
        mu, sigma, lo, hi = p["mu"], p["sigma"], p["lo"], p["hi"]
        if sigma == 0:
            return np.full(count, float(mu))
        a = special.ndtr((lo - mu) / sigma)
        b = special.ndtr((hi - mu) / sigma)
        if b - a <= 0.0:
            raise InvalidParam("lo", "truncation interval carries no mass")
        u = rng.uniform(a, b, count)
        return np.clip(mu + sigma * special.ndtri(u), lo, hi)

    # -- CDF ------------------------------------------------------------------

    def cdf(self, x) -> np.ndarray | float:
        """Right-continuous CDF, vectorized over ``x``."""
        scalar = np.isscalar(x)
        x = np.asarray(x, dtype=float)
        out = self._cdf_array(x)
        return float(out) if scalar else out

    def _cdf_array(self, x: np.ndarray) -> np.ndarray:
        p = self.params
        f = self.family
        if f == Family.UNIFORM:
            lo, hi = p["lo"], p["hi"]
            if lo == hi:
                return (x >= lo).astype(float)
            return np.clip((x - lo) / (hi - lo), 0.0, 1.0)
        if f == Family.NORMAL:
            return self._normal_cdf(x, p["mu"], p["sigma"])
        if f == Family.TRUNCATED_NORMAL:
            mu, sigma, lo, hi = p["mu"], p["sigma"], p["lo"], p["hi"]
            if sigma == 0:
                return (x >= mu).astype(float)
            a = special.ndtr((lo - mu) / sigma)
            b = special.ndtr((hi - mu) / sigma)
            core = (special.ndtr((x - mu) / sigma) - a) / (b - a)
            return np.clip(core, 0.0, 1.0)
        if f == Family.CENSORED_NORMAL:
            return self._censor(self._normal_cdf(x, p["mu"], p["sigma"]), x, p["lo"], p["hi"])
        if f == Family.FOLDED_NORMAL:
            base = self._folded_cdf(x, p["mu"], p["sigma"])
            return self._censor(base, x, p.get("lo"), p.get("hi"))
        if f == Family.TRIANGULAR:
            base = self._triangular_cdf(x, p["a"], p["b"], p["c"])
            return self._censor(base, x, p.get("lo"), p.get("hi"))
        if f == Family.GAUSSIAN_MIXTURE2:
            return p["kappa"] * self._normal_cdf(x, p["mu1"], p["sigma1"]) + (
                1.0 - p["kappa"]
            ) * self._normal_cdf(x, p["mu2"], p["sigma2"])
        raise AssertionError(f)

    @staticmethod
    def _normal_cdf(x: np.ndarray, mu: float, sigma: float) -> np.ndarray:
        if sigma == 0:
            return (x >= mu).astype(float)
        return special.ndtr((x - mu) / sigma)

    @staticmethod
    def _folded_cdf(x: np.ndarray, mu: float, sigma: float) -> np.ndarray:
        if sigma == 0:
            return (x >= abs(mu)).astype(float)
        pos = special.ndtr((x - mu) / sigma) + special.ndtr((x + mu) / sigma) - 1.0
        return np.where(x < 0, 0.0, np.clip(pos, 0.0, 1.0))

    @staticmethod
    def _triangular_cdf(x: np.ndarray, a: float, b: float, c: float) -> np.ndarray:
        if a == c:
            return (x >= a).astype(float)
        out = np.zeros_like(x)
        left = (x > a) & (x < b)
        if b > a:
            out[left] = (x[left] - a) ** 2 / ((c - a) * (b - a))
        right = (x >= b) & (x < c)
        if c > b:
            out[right] = 1.0 - (c - x[right]) ** 2 / ((c - a) * (c - b))
        else:
            out[right] = 1.0
        out[x >= c] = 1.0
        return out

    @staticmethod
    def _censor(base: np.ndarray, x: np.ndarray, lo, hi) -> np.ndarray:
        # Clipping moves the tail mass onto the bounds: F is 0 below lo and
        # jumps to the latent F(lo) there, and jumps to 1 at hi.
        out = np.asarray(base, dtype=float).copy()
        if lo is not None:
            out[x < lo] = 0.0
        if hi is not None:
            out[x >= hi] = 1.0
        return out

    # -- JSON ------------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"family": self.family.value, "params": {k: float(v) for k, v in self.params.items()}}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "DistributionSpec":
        try:
            family = Family(obj["family"])
        except (KeyError, ValueError):
            raise InvalidParam("family", f"unknown family {obj.get('family')!r}")
        params = obj.get("params", {})
        if not isinstance(params, dict):
            raise InvalidParam("params", "params must be an object")
        return cls(family, {k: float(v) for k, v in params.items()}).validate()


def uniform(lo: float, hi: float) -> DistributionSpec:
    return DistributionSpec(Family.UNIFORM, {"lo": lo, "hi": hi}).validate()


def normal(mu: float, sigma: float) -> DistributionSpec:
    return DistributionSpec(Family.NORMAL, {"mu": mu, "sigma": sigma}).validate()


def truncated_normal(mu: float, sigma: float, lo: float, hi: float) -> DistributionSpec:
    return DistributionSpec(
        Family.TRUNCATED_NORMAL, {"mu": mu, "sigma": sigma, "lo": lo, "hi": hi}
    ).validate()


def censored_normal(mu: float, sigma: float, lo: float, hi: float) -> DistributionSpec:
    return DistributionSpec(
        Family.CENSORED_NORMAL, {"mu": mu, "sigma": sigma, "lo": lo, "hi": hi}
    ).validate()


def folded_normal(mu: float, sigma: float, lo: float | None = None, hi: float | None = None) -> DistributionSpec:
    params = {"mu": mu, "sigma": sigma}
    if lo is not None:
        params["lo"] = lo
    if hi is not None:
        params["hi"] = hi
    return DistributionSpec(Family.FOLDED_NORMAL, params).validate()


def triangular(a: float, b: float, c: float, lo: float | None = None, hi: float | None = None) -> DistributionSpec:
    params = {"a": a, "b": b, "c": c}
    if lo is not None:
        params["lo"] = lo
    if hi is not None:
        params["hi"] = hi
    return DistributionSpec(Family.TRIANGULAR, params).validate()


def gaussian_mixture2(mu1: float, sigma1: float, mu2: float, sigma2: float, kappa: float) -> DistributionSpec:
    return DistributionSpec(
        Family.GAUSSIAN_MIXTURE2,
        {"mu1": mu1, "sigma1": sigma1, "mu2": mu2, "sigma2": sigma2, "kappa": kappa},
    ).validate()
