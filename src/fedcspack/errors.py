"""Exception types shared across the simulator."""

import numbers


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


def require_real(name: str, value) -> None:
    """Raise ConfigError unless `value` is a real number (a bool is not
    one); range and finiteness are the caller's checks."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
