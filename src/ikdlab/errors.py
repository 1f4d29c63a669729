"""Exception types shared across the pipeline, and the JSON field checks."""

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


def json_fields(where: str, raw, required: tuple, optional: tuple = ()) -> dict:
    """``raw`` if it is a JSON object holding every ``required`` key and no key
    outside required + optional, else a ValidationError naming ``where``."""
    if not isinstance(raw, dict):
        raise ValidationError(f"{where}: must be a JSON object, got {raw!r}")
    unknown = set(raw) - set(required) - set(optional)
    if unknown:
        raise ValidationError(f"{where}: unknown fields {sorted(unknown)}")
    for key in required:
        if key not in raw:
            raise ValidationError(f"{where}: missing field {key!r}")
    return raw
