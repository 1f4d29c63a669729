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


def _refuse(where: str, name: str, rule: str, shown: str, row: int | None = None):
    """Raise the ValidationError of every rule: ``<where>: <name> must be
    <rule>, got <shown>``, without ``<where>: `` when ``where`` is empty."""
    where = f"{where}: " if where else ""
    raise ValidationError(f"{where}{name} must be {rule}, got {shown}", row=row)


def _require(name: str, value, rule: str, holds, where: str = "", show=repr):
    """``value`` if ``holds(value)``, else _refuse; a bool fails every rule, as
    does a value ``holds`` cannot take (a string, an integer past the float range)."""
    try:
        ok = not isinstance(value, bool) and holds(value)
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        _refuse(where, name, rule, show(value))
    return value


def _finite(x) -> bool:
    """Whether ``x`` is a finite real number, not a bool (or else OverflowError)."""
    return isinstance(x, Real) and not isinstance(x, bool) and math.isfinite(x)


def finite_number(key: str, value, where: str = "") -> float:
    """``value`` as a float if it is a finite real number, not a bool (an
    integer past the float range is not finite), else a ValidationError of
    the form ``<where>: <key> must be a finite number``."""
    return float(_require(key, value, "a finite number", _finite, where))


def range_pair(name: str, value, where: str = "") -> tuple[float, float]:
    """``value`` as a (lo, hi) pair of floats if it holds two finite numbers, not
    bools, with lo < hi, else a ValidationError naming the first rule it breaks."""
    for rule, holds in (("a [lo, hi] pair", lambda p: len(p) == 2),
                        ("finite", lambda p: all(map(_finite, p))),
                        ("a [lo, hi] pair with lo < hi", lambda p: p[0] < p[1])):
        _require(name, value, rule, holds, where, reprlib.repr)
    return float(value[0]), float(value[1])


def check_within(*columns, where: str = "") -> None:
    """A ValidationError at the first row outside a column's domain: columns
    are (name, values, limit) triples, values one per row (the error's
    ``row``) or a scalar, and limit a bound on abs(value) or a closed
    (lo, hi) pair.  NaN and the infinities are in no domain; FINITE admits
    every finite float.  One column at a time."""
    bad = []
    for name, values, limit in columns:
        lo, hi = limit if isinstance(limit, tuple) else (-limit, limit)
        inside = np.abs(values) <= hi if lo == -hi else (values >= lo) & (values <= hi)
        if not inside.all():
            k = int(np.argmin(inside))
            domain = (f"within [{lo:g}, {hi:g}]" if lo != -hi else "finite" if hi == FINITE
                      else f"within +-{hi:g}")
            bad.append((k, name, domain, float(np.ravel(values)[k]), np.ndim(values)))
    if bad:   # the first row, and in it the first column
        k, name, domain, value, ndim = min(bad, key=lambda b: b[0])
        _refuse(where, name, domain, repr(value), k if ndim else None)


def check_increasing(name: str, values: np.ndarray, where: str = "") -> None:
    """A ValidationError at the first row of the 1-D array ``values`` not above
    the row before it (the error's ``row``); NaN is above nothing, nothing above it."""
    if not (rising := values[1:] > values[:-1]).all():
        k = int(np.argmin(rising)) + 1
        _refuse(where, name, "strictly increasing", repr(float(values[k])), k)


def _keyword_rule(rule: str, holds):
    """A check that refuses the first keyword argument failing ``holds``."""
    def check(**values) -> None:
        for name, value in values.items():
            _require(name, value, rule, holds, show=reprlib.repr)
    return check


# NaN and infinity fail the first two; a long value is shortened, as a seed's is
require_positive = _keyword_rule("positive and finite", lambda x: _finite(x) and x > 0)
require_non_negative = _keyword_rule("non-negative and finite",
                                     lambda x: _finite(x) and x >= 0)
require_positive_int = _keyword_rule("a positive integer",
                                     lambda x: isinstance(x, Integral) and x >= 1)


def interval_rule(lo, hi, ends: str = "[]", integer: bool = False):
    """A check refusing the first keyword argument that is not a number (an
    integer, if ``integer``) from lo to hi, each end closed ("[", "]") or
    open ("(", ")") as ``ends`` says; NaN is in no interval."""
    left, right = ends
    return _keyword_rule(
        f"{'an integer ' if integer else ''}in {left}{lo}, {hi}{right}",
        lambda x: isinstance(x, Integral if integer else Real)
        and (lo <= x if left == "[" else lo < x) and (x <= hi if right == "]" else x < hi))


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
        raise ValidationError(f"{where}: must be a JSON object, got {reprlib.repr(raw)}")
    unknown = set(raw) - set(required) - set(optional)
    if unknown:
        raise ValidationError(f"{where}: unknown fields {sorted(unknown)}")
    for key in required:
        if key not in raw:
            raise ValidationError(f"{where}: missing field {key!r}")
    return raw
