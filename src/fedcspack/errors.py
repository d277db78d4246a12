"""Exception types shared across the simulator."""


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
