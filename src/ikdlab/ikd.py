"""Inference-time command correction.

Given a desired (velocity, curvature) command, ask the learned model which
joystick yaw rate historically produced that yaw rate at that speed, clamp
it to the actuator range, and convert back to a curvature for the drive
loop.  On an understeering plant the corrected curvature overshoots the
desired one, which is the point.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import check_within
from .mlp import MlpParams, forward
from .simcore import AV_LIMIT, CURVATURE_DOMAIN, SPEED_DOMAIN, c_from_av_v


class Corrections(NamedTuple):
    """Outcome of correction queries: arrays with one entry per row from
    correct_batch, floats and a bool from correct.  v passes through
    unchanged."""

    v: np.ndarray
    av_desired: np.ndarray
    av_corrected: np.ndarray
    c_corrected: np.ndarray
    clamped: np.ndarray


def correct_batch(model: MlpParams, v: np.ndarray, c_desired: np.ndarray) -> Corrections:
    """Rewrite arrays of desired (v, c) commands with one model call.

    Row k is queried at (v[k], v[k]*c_desired[k]) as in ``correct``; the
    answer is clamped to the actuator range and turned back into a
    curvature, with ``clamped`` marking the rows the clamp changed.  The
    rows share one batched forward call, whose sums may round differently
    from a one-row pass in the last bits, and, past mlp._EVAL_ROWS rows,
    which forward runs in chunks, from a batch cut at other rows.  A v
    outside SPEED_DOMAIN or a c outside CURVATURE_DOMAIN, and then (in
    ``forward``) an av = v*c outside YAW_RATE_DOMAIN, raises
    ValidationError with the first bad row as its ``row``.  The model's output is then finite: every MlpParams holds its
    weights within mlp.WEIGHT_DOMAIN.
    """
    v = np.asarray(v, dtype=float)
    c_desired = np.asarray(c_desired, dtype=float)
    check_within(("v", v, SPEED_DOMAIN), ("c", c_desired, CURVATURE_DOMAIN))
    av_desired = v * c_desired   # within +-1e6, so finite
    raw = forward(model, np.column_stack([v, av_desired]))
    av_corrected = np.clip(raw, -AV_LIMIT, AV_LIMIT)
    return Corrections(v, av_desired, av_corrected,
                       c_from_av_v(av_corrected, v),
                       (raw < -AV_LIMIT) | (raw > AV_LIMIT))


def correct(model: MlpParams, v: float, c_desired: float) -> Corrections:
    """Rewrite a desired (v, c) command using the learned inverse model.

    The model is queried at (v, av_desired): the yaw rate we want to see is
    presented where observed yaw rates were during training, and the model
    answers with the joystick yaw rate that produced it.  This is the
    one-row case of correct_batch.
    """
    batch = correct_batch(model, np.array([v]), np.array([c_desired]))
    return Corrections(*(col.item() for col in batch))
