"""Exception types shared across the package, and the count check that raises one."""

import operator


class RaterPowerError(ValueError):
    """Base class for all raterpower errors."""


class InvalidParam(RaterPowerError):
    """A distribution or config parameter violates its constraints."""

    def __init__(self, name: str, reason: str):
        self.name = name
        self.reason = reason
        super().__init__(f"{name}: {reason}")


def check_count(name: str, value, reason: str, least: int = 1) -> None:
    """A count (resamples, trials, items) must be an integer >= ``least`` (a bool is not one); else ``InvalidParam``."""
    try:
        count = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        count = None
    if count is None:
        raise InvalidParam(name, f"expected an integer, got {value!r}")
    if count < least:
        raise InvalidParam(name, reason)


class ItemMismatch(RaterPowerError):
    """Two matrices do not share item ids (or per-item counts where required)."""


class EmptyItem(RaterPowerError):
    """An item has no responses where at least one is required."""


class EmptySample(RaterPowerError):
    """A score sequence is empty where at least one value is required."""


class DegenerateVariance(RaterPowerError):
    """Both samples have zero variance; the t statistic is undefined."""


class AllZeroDifferences(RaterPowerError):
    """Every paired difference is exactly zero; the signed-rank test is undefined."""


class NoValidGridPoint(RaterPowerError):
    """Every candidate in a fit grid failed validation."""


class ParseError(RaterPowerError):
    """An input file could not be parsed."""

    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class ValueOutOfRange(RaterPowerError):
    """A response is NaN or outside [0, 1] (after mapping, when loaded)."""

    def __init__(self, item_id: str, value: float):
        self.item_id = item_id
        self.value = value
        super().__init__(f"item {item_id!r}: response {value} outside [0, 1]")


class DuplicateItemId(RaterPowerError):
    """The same item id appears more than once in an input file."""


class RaggedNotSupported(RaterPowerError):
    """A rectangular-only format was asked to hold a ragged matrix."""
