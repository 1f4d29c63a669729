"""Exception types shared across the pipeline, and the shared input checks."""

import math


class IkdError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(IkdError, ValueError):
    """Input violates a documented precondition or invariant; ``row``, if
    not None, is the index of the first input row that breaks it."""

    def __init__(self, message: str = "", row: int | None = None):
        super().__init__(message)
        self.row = row


class ParseError(IkdError, ValueError):
    """A file could not be parsed; message includes the offending location."""


class CorruptLogError(ValidationError):
    """A log is unusable (e.g. empty after idle trimming, flat sensor stream)."""


class InsufficientOverlapError(ValidationError):
    """No candidate delay scores two streams: they share less than the
    minimum time overlap required, or their squared errors overflow."""


class FitError(IkdError, ValueError):
    """Geometric fit failed (degenerate or collinear input)."""


class InferenceError(IkdError, RuntimeError):
    """Model produced an unusable output (non-finite prediction)."""


def is_finite(value) -> bool:
    """Whether the real number ``value`` is finite as a float; an integer past
    the float range is not (``math.isfinite`` raises OverflowError on it)."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def finite_number(where: str, key: str, value) -> float:
    """``value`` as a float if it is a finite JSON number (not a bool), else a
    ValidationError of the form ``<where>: <key> must be a finite number``."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not is_finite(value)):
        raise ValidationError(f"{where}: {key} must be a finite number, got {value!r}")
    return float(value)


def require_positive(**values: float) -> None:
    """A ValidationError naming the first keyword whose value is not a finite
    number > 0 (NaN and infinity included)."""
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0):
            raise ValidationError(f"{name} must be positive and finite, got {value!r}")


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
