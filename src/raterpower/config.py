"""Experiment configuration types shared by the inference, power and CLI layers; each checks itself when built."""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field, replace

from .errors import InvalidParam, check_count
from .metrics import MetricId
from .simulator import ItemPrior, ResponseFamily, check_member, default_synthetic_prior

__all__ = ["Level", "SamplingStrategy", "Mode", "ExperimentConfig"]


def _check_number(name: str, value) -> None:
    """A value that is not a real number (a bool is not) raises ``InvalidParam`` naming field ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidParam(name, f"expected a number, got {value!r}")


class Level(str, enum.Enum):
    ALL = "all"
    BOOT = "boot"


@dataclass(frozen=True)
class SamplingStrategy:
    """Resampling strategy (items level, responses level)."""

    items: Level = Level.BOOT
    responses: Level = Level.BOOT

    def __post_init__(self):
        object.__setattr__(self, "items", check_member("phi", self.items, Level))
        object.__setattr__(self, "responses", check_member("phi", self.responses, Level))

    @classmethod
    def parse(cls, text: str) -> "SamplingStrategy":
        parts = [p.strip().lower() for p in text.split(",")] if isinstance(text, str) else []
        if len(parts) != 2:
            raise InvalidParam("phi", f"expected 'items,responses' e.g. 'all,boot', got {text!r}")
        return cls(*parts)

    @property
    def tag(self) -> str:
        return f"{self.items.value},{self.responses.value}"


class Mode(str, enum.Enum):
    """How a run got its data, as its report records it: given (G, A, B) matrices, or none."""

    PARAMETRIC = "parametric"
    BOOTSTRAP_OF_GIVEN = "bootstrap-of-given"


_ALL_METRICS = (MetricId.MAE, MetricId.WINS, MetricId.MEMD)


@dataclass(frozen=True)
class ExperimentConfig:
    n_items: int = 100
    k_responses: int = 10
    epsilon: float = 0.0
    b_alt: int = 500
    b_null: int = 500
    phi: SamplingStrategy = SamplingStrategy()
    metrics: tuple[MetricId, ...] = _ALL_METRICS
    prior: ItemPrior = field(default_factory=default_synthetic_prior)
    family: ResponseFamily = ResponseFamily()
    seed: int = 0
    alpha: float = 0.05

    def __post_init__(self):
        check_count("n_items", self.n_items, "need at least one item")
        check_count("k_responses", self.k_responses, "need at least one response per item")
        _check_number("epsilon", self.epsilon)
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise InvalidParam("epsilon", f"epsilon must be >= 0 and finite, got {self.epsilon}")
        check_count("b_alt", self.b_alt, "need at least one alternative resample")
        check_count("b_null", self.b_null, "need at least one null resample")
        check_count("seed", self.seed, "seed must be a nonnegative integer", least=0)
        _check_number("alpha", self.alpha)
        if not 0 < self.alpha < 1:
            raise InvalidParam("alpha", "alpha must lie in (0, 1)")
        for name, kind in (("phi", SamplingStrategy), ("prior", ItemPrior), ("family", ResponseFamily)):
            if not isinstance(getattr(self, name), kind):
                raise InvalidParam(name, f"expected a {kind.__name__}, got {getattr(self, name)!r}")
        if not (isinstance(self.metrics, (list, tuple)) and self.metrics):
            raise InvalidParam("metrics", f"need a nonempty list of metric names, got {self.metrics!r}")
        object.__setattr__(self, "metrics", tuple(check_member("metrics", m, MetricId) for m in self.metrics))

    def with_(self, **kwargs) -> "ExperimentConfig":
        return replace(self, **kwargs)

    def to_json_dict(self) -> dict:
        return {
            "n_items": self.n_items,
            "k_responses": self.k_responses,
            "epsilon": self.epsilon,
            "b_alt": self.b_alt,
            "b_null": self.b_null,
            "phi": self.phi.tag,
            "metrics": [m.value for m in self.metrics],
            "levels": self.family.levels,
            "seed": self.seed,
            "alpha": self.alpha,
            "prior": self.prior.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise InvalidParam("config", f"expected a JSON object, got {obj!r}")
        # Only the keys a report's config block holds, so a misspelt key is not ignored.
        unknown = sorted(set(obj) - set(cls().to_json_dict()) - {"mode"})
        if unknown:
            raise InvalidParam("config", f"unknown keys {unknown}")
        # A report records its run's mode, which the data decide: a valid one is ignored.
        if "mode" in obj:
            check_member("mode", obj["mode"], Mode)
        # Counts and metrics pass as given, so the constructor rejects 2.7,
        # 2.0 and "3" alike, and names a bad metric.
        kwargs = {key: obj[key] for key in ("n_items", "k_responses", "b_alt", "b_null", "seed", "metrics")
                  if key in obj}
        for key in ("epsilon", "alpha"):
            if key in obj:
                try:
                    kwargs[key] = float(obj[key])
                except (TypeError, ValueError):
                    raise InvalidParam(key, f"expected a number, got {obj[key]!r}") from None
        if "phi" in obj:
            kwargs["phi"] = SamplingStrategy.parse(obj["phi"])
        if "levels" in obj:
            kwargs["family"] = ResponseFamily(obj["levels"])
        if obj.get("prior") is not None:
            kwargs["prior"] = ItemPrior.from_json_dict(obj["prior"])
        return cls(**kwargs)
