"""Exception types shared across the pipeline, and the shared input checks."""

import contextlib
import math
import reprlib
from numbers import Integral, Real

import numpy as np

FINITE = float(np.finfo(float).max)   # a domain limit every finite float is within


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
    minimum time overlap required at every candidate."""


class FitError(ValidationError):
    """Geometric fit failed (degenerate or collinear input)."""


@contextlib.contextmanager
def blamed(blame):
    """Raise a ValidationError again, of the same class, with ``blame(exc)``
    and ": " in front; one that ``blame`` maps to None passes unchanged."""
    try:
        yield
    except ValidationError as exc:
        who = blame(exc)
        if who is None:
            raise
        raise type(exc)(f"{who}: {exc}") from None


def _prefix(where: str) -> str:
    return f"{where}: " if where else ""


def _require(name: str, value, rule: str, holds, where: str = "", show=repr):
    """``value`` if ``holds(value)``, else a ValidationError worded ``<where>:
    <name> must be <rule>, got <show(value)>``; a bool fails every rule, as does
    a value ``holds`` cannot take (a string, an integer past the float range)."""
    try:
        ok = not isinstance(value, bool) and holds(value)
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        raise ValidationError(f"{_prefix(where)}{name} must be {rule}, got {show(value)}")
    return value


def finite_number(key: str, value, where: str = "") -> float:
    """``value`` as a float if it is a finite real number, not a bool (an
    integer past the float range is not finite), else a ValidationError of
    the form ``<where>: <key> must be a finite number``."""
    return float(_require(key, value, "a finite number",
                          lambda x: isinstance(x, Real) and math.isfinite(x), where))


def check_within(*columns, where: str = "") -> None:
    """A ValidationError at the first row outside a column's domain: columns
    are (name, values, limit) triples, values one per row (the error's
    ``row``) or a scalar.  ``abs(value) <= limit`` is false for NaN and the
    infinities too; FINITE admits every finite float.  One column at a time."""
    bad = []
    for name, values, limit in columns:
        inside = np.abs(values) <= limit
        if not inside.all():
            k = int(np.argmin(inside))
            bad.append((k, name, float(np.ravel(values)[k]), limit, np.ndim(values)))
    if bad:   # the first row, and in it the first column
        k, name, value, limit, ndim = min(bad, key=lambda b: b[0])
        domain = "finite" if limit == FINITE else f"within +-{limit:g}"
        raise ValidationError(f"{_prefix(where)}{name} must be {domain}, "
                              f"got {value!r}", row=k if ndim else None)


def _keyword_rule(rule: str, holds):
    """A check that refuses the first keyword argument failing ``holds``."""
    def check(**values) -> None:
        for name, value in values.items():
            _require(name, value, rule, holds, show=reprlib.repr)
    return check


# NaN and infinity fail the first two; a long value is shortened, as a seed's is
require_positive = _keyword_rule("positive and finite", lambda x: math.isfinite(x) and x > 0)
require_non_negative = _keyword_rule("non-negative and finite",
                                     lambda x: math.isfinite(x) and x >= 0)
require_positive_int = _keyword_rule("a positive integer",
                                     lambda x: isinstance(x, Integral) and x >= 1)


def seed_value(value, where: str = "") -> int:
    """``value`` if it is a non-negative integer, not a bool, else a
    ValidationError of the form ``<where>: seed must be ...``, its value
    shortened (``reprlib.repr``): a --seed may have hundreds of digits."""
    return _require("seed", value, "a non-negative integer",
                    lambda x: isinstance(x, Integral) and x >= 0, where, reprlib.repr)


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
