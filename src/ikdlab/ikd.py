"""Inference-time command correction.

Given a desired (velocity, curvature) command, ask the learned model which
joystick yaw rate historically produced that yaw rate at that speed, clamp
it to the actuator range, and convert back to a curvature for the drive
loop.  On an understeering plant the corrected curvature overshoots the
desired one, which is the point.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .errors import InferenceError, ValidationError
from .mlp import MlpParams, forward
from .simcore import AV_LIMIT, EPS_V, c_from_av_v  # actuator range, speed guard


def av_from_vc(v: float, c: float) -> float:
    """Angular velocity commanded by (v, c): av = v*c."""
    if not (math.isfinite(v) and math.isfinite(c)):
        raise ValidationError("v and c must be finite")
    return v * c


@dataclass(frozen=True)
class CorrectionResult:
    """Outcome of one correction query; v passes through unchanged."""

    v: float
    av_desired: float
    av_corrected: float
    c_corrected: float
    clamped: bool

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


class Corrections(NamedTuple):
    """Outcome of a batch of correction queries, one array entry per row."""

    av_desired: np.ndarray
    av_corrected: np.ndarray
    c_corrected: np.ndarray
    clamped: np.ndarray


def correct_batch(model: MlpParams, v: np.ndarray, c_desired: np.ndarray) -> Corrections:
    """Rewrite arrays of desired (v, c) commands with one model call.

    Row k is queried at (v[k], v[k]*c_desired[k]) as in ``correct``; the
    answer is clamped to the actuator range and turned back into a
    curvature, with ``clamped`` marking the rows the clamp changed.  The
    rows share one batched forward pass, whose sums may round differently
    from a one-row pass in the last bits.  A v*c that overflows raises
    ValidationError, and a non-finite model output InferenceError, each
    naming the first bad row.
    """
    v = np.asarray(v, dtype=float)
    c_desired = np.asarray(c_desired, dtype=float)
    if not (np.all(np.isfinite(v)) and np.all(np.isfinite(c_desired))):
        raise ValidationError("v and c must be finite")
    with np.errstate(over="ignore"):   # an overflowing v*c is refused below
        av_desired = v * c_desired
    bad = np.flatnonzero(~np.isfinite(av_desired))
    if bad.size:
        k = int(bad[0])
        where = f"row {k}: " if av_desired.size > 1 else ""
        raise ValidationError(f"{where}v*c must be finite, got {float(av_desired[k])!r}")
    raw = forward(model, np.column_stack([v, av_desired]))
    bad = np.flatnonzero(~np.isfinite(raw))
    if bad.size:
        k = int(bad[0])
        where = f"row {k}: " if raw.size > 1 else ""
        raise InferenceError(f"{where}model output {float(raw[k])!r} is not finite")
    av_corrected = np.clip(raw, -AV_LIMIT, AV_LIMIT)
    return Corrections(av_desired, av_corrected,
                       c_from_av_v(av_corrected, v),
                       (raw < -AV_LIMIT) | (raw > AV_LIMIT))


def correct(model: MlpParams, v: float, c_desired: float) -> CorrectionResult:
    """Rewrite a desired (v, c) command using the learned inverse model.

    The model is queried at (v, av_desired): the yaw rate we want to see is
    presented where observed yaw rates were during training, and the model
    answers with the joystick yaw rate that produced it.  This is the
    one-row case of correct_batch.
    """
    batch = correct_batch(model, np.array([v]), np.array([c_desired]))
    return CorrectionResult(v, *(column.item() for column in batch))
