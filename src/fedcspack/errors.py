"""Exception types shared across the simulator."""

import numbers
import sys


class ShapeError(ValueError):
    """Dimension or length mismatch between two values."""


class NumericError(ArithmeticError):
    """A computation produced NaN/Inf."""


class EmptyDataError(ValueError):
    """A client has no usable training data."""


class ConfigError(ValueError):
    """Invalid or unknown configuration."""


class DecodeError(ValueError):
    """Malformed wire bytes. Carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class IngestError(ValueError):
    """Malformed dataset file."""


class ProtocolViolation(ValueError):
    """A client update the server must not fold (malformed or inconsistent)."""


class InvariantError(RuntimeError):
    """An invariant of the round loop broke: a bug, not bad input."""


def require_int(name: str, value, minimum: int) -> None:
    """Raise ConfigError unless `value` is an integer (a bool is not one)
    and at least `minimum`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}")


def require_real(name: str, value, interval: str) -> None:
    """Raise ConfigError unless `value` is a real number (a bool is not
    one) in `interval`, written "(0, 1]", "[0, inf)" and so on.  NaN, ±inf
    and numbers beyond the float range are in no interval."""
    low, high = (float(end) for end in interval[1:-1].split(","))
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
        abs(value) <= sys.float_info.max
        and (low <= value if interval[0] == "[" else low < value)
        and (value <= high if interval[-1] == "]" else value < high)
    ):
        raise ConfigError(f"{name} must be a real number in {interval}, got {value!r}")
