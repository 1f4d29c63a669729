"""Exception types shared across the pipeline, and the JSON checks that raise them."""

import json
import math


class IkdError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(IkdError, ValueError):
    """Input violates a documented precondition or invariant."""


class ParseError(IkdError, ValueError):
    """A file could not be parsed; message includes the offending location."""


class CorruptLogError(ValidationError):
    """A log is unusable (e.g. empty after idle trimming, flat sensor stream)."""


class InsufficientOverlapError(ValidationError):
    """Two streams share less than the minimum time overlap required."""


class FitError(IkdError, ValueError):
    """Geometric fit failed (degenerate or collinear input)."""


class InferenceError(IkdError, RuntimeError):
    """Model produced an unusable output (non-finite prediction)."""


def read_json(path: str):
    """Parse the JSON file at ``path``; a syntax error is a ParseError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON ({exc})") from None


def finite_number(where: str, key: str, value) -> float:
    """``value`` as a float if it is a finite JSON number (not a bool), else a
    ValidationError of the form ``<where>: <key> must be a finite number``."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ValidationError(f"{where}: {key} must be a finite number, got {value!r}")
    return float(value)


def seed_value(where: str, value) -> int:
    """``value`` if it is a non-negative JSON integer (not a bool), else a
    ValidationError of the form ``<where>: seed must be ...``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValidationError(
            f"{where}: seed must be a non-negative integer, got {value!r}")
    return value
