"""Exception hierarchy shared by all driftkit modules, and the integer
check every config dataclass makes.

Each class maps to one failure category so the CLI can translate them
into distinct exit codes.
"""

import numbers


class DriftkitError(Exception):
    """Base class for all driftkit errors."""


class ConfigError(DriftkitError):
    """Invalid or inconsistent configuration values."""


class ShapeError(DriftkitError):
    """Array dimensions do not satisfy an operation's contract."""


class DataError(DriftkitError):
    """Dataset-level problem (empty dataset, bad labels, ...)."""


class ParseError(DataError):
    """Malformed input file. Carries the offending row when known."""

    def __init__(self, message: str, row: int | None = None):
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)
        self.row = row


class FormatError(DataError):
    """Binary file does not match the expected on-disk format."""


class StateError(DriftkitError):
    """Stale or mismatched internal state (e.g. a forward cache)."""


class NumericError(DriftkitError):
    """Non-finite values encountered where finite ones are required."""


class EmptyMaskError(DataError):
    """Feature selection kept no features. The report is still attached."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


def require_ints(obj, *names: str) -> None:
    """Store the named fields of dataclass ``obj`` as ints; ConfigError if not integral."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        object.__setattr__(obj, name, int(value))
