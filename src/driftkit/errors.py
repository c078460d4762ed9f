"""Exception hierarchy shared by all driftkit modules, and the field
rules every config dataclass checks.

Each class maps to one failure category so the CLI can translate them
into distinct exit codes.
"""

import math
import numbers
import sys
from dataclasses import dataclass, field, fields


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


@dataclass(frozen=True)
class Rule:
    """What one config value accepts: ``kind`` "integer" or "real" (a
    finite number) between ``lo`` and ``hi``, each end open or closed,
    or ``kind`` "choice", one of the strings in ``choices``."""

    kind: str
    lo: float = -math.inf
    hi: float = math.inf
    lo_open: bool = True
    hi_open: bool = True
    choices: tuple = ()

    def __str__(self) -> str:
        if self.kind == "choice":
            return "one of " + ", ".join(map(repr, self.choices))
        words = "an integer" if self.kind == "integer" else "a finite number"
        if self.lo == -math.inf and self.hi == math.inf:
            return words
        return (f"{words} in {'(' if self.lo_open else '['}{self.lo:g}, "
                f"{self.hi:g}{')' if self.hi_open else ']'}")

    def check(self, value, name: str):
        """``value`` as it is stored: an integer as ``int``, anything else
        as given. A value the rule refuses is a ConfigError naming ``name``."""
        if self.kind == "choice":
            ok = isinstance(value, str) and value in self.choices
        elif isinstance(value, bool) or not isinstance(value, numbers.Real):
            ok = False
        else:
            if self.kind == "integer":
                ok = isinstance(value, numbers.Integral)
                value = int(value) if ok else value
            else:  # abs() <= max fails NaN, inf and integers beyond float64
                ok = abs(value) <= sys.float_info.max
            ok = ok and (self.lo < value if self.lo_open else self.lo <= value) and (
                value < self.hi if self.hi_open else value <= self.hi)
        if not ok:
            raise ConfigError(f"{name} must be {self}, got {value!r}")
        return value


def bounded(kind: str, interval: str | None = None) -> Rule:
    """The ``kind`` rule over ``interval``, written like "[0, 1)" or
    "(0, inf)" with "(" or ")" for an open end (None: any value)."""
    if interval is None:
        return Rule(kind)
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    return Rule(kind, lo, hi, interval[0] == "(", interval[-1] == ")")


# a config dataclass declares each field's rule with one of these three
def integer(default, interval: str):
    return field(default=default, metadata={"rule": bounded("integer", interval)})


def real(default, interval: str | None = None):
    return field(default=default, metadata={"rule": bounded("real", interval)})


def choice(default, choices: tuple):
    return field(default=default, metadata={"rule": Rule("choice", choices=choices)})


def check_fields(obj, prefix: str = "") -> None:
    """Check, in field order, every field of dataclass ``obj`` that
    declares a Rule and store it as the rule returns it; an error names
    the field as ``prefix`` + its name."""
    for f in fields(obj):
        if "rule" in f.metadata:
            value = f.metadata["rule"].check(getattr(obj, f.name), prefix + f.name)
            object.__setattr__(obj, f.name, value)
