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

from .errors import InferenceError, ValidationError
from .mlp import MlpParams, forward
from .simcore import AV_LIMIT, EPS_V  # actuator command range, speed guard


def av_from_vc(v: float, c: float) -> float:
    """Angular velocity commanded by (v, c): av = v*c."""
    if not (math.isfinite(v) and math.isfinite(c)):
        raise ValidationError("v and c must be finite")
    return v * c


def c_from_av_v(av: float, v: float, eps_v: float = EPS_V) -> float:
    """Curvature av/v, guarded to 0 when |v| < eps_v."""
    if not (math.isfinite(av) and math.isfinite(v)):
        raise ValidationError("av and v must be finite")
    if abs(v) < eps_v:
        return 0.0
    return av / v


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


def correct(model: MlpParams, v: float, c_desired: float,
            eps_v: float = EPS_V) -> CorrectionResult:
    """Rewrite a desired (v, c) command using the learned inverse model.

    The model is queried at (v, av_desired): the yaw rate we want to see is
    presented where observed yaw rates were during training, and the model
    answers with the joystick yaw rate that produced it.
    """
    av_desired = av_from_vc(v, c_desired)
    raw = forward(model, (v, av_desired))
    if not math.isfinite(raw):
        raise InferenceError(f"model output {raw!r} is not finite")
    av_corrected = max(-AV_LIMIT, min(AV_LIMIT, raw))
    return CorrectionResult(
        v=v,
        av_desired=av_desired,
        av_corrected=av_corrected,
        c_corrected=c_from_av_v(av_corrected, v, eps_v),
        clamped=(raw < -AV_LIMIT or raw > AV_LIMIT),
    )
