"""Replays a recorded command sequence through the simulator at 20 Hz.

The recorded joystick rows become a circular command buffer; each replay
tick reads one (v, av) pair, optionally rewrites it through the learned
correction, and holds it across the simulator's finer integration steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ValidationError, check_within, require_positive
from .fileio import read_record
from .ikd import correct_batch
from .mlp import MlpParams
from .simcore import (AV_LIMIT, DEFAULT_DT, SPEED_DOMAIN, YAW_RATE_DOMAIN, SimTrace,
                      SlipParams, _integrate, c_from_av_v, sample_count)

DEFAULT_REPLAY_RATE = 20.0  # Hz, command consumption rate


@dataclass(eq=False)
class CommandBuffer:
    """Circular buffer of (v, av) command rows.

    ``rows`` is copied into one ``(n, 2)`` float64 array owned by the buffer.
    """

    rows: np.ndarray

    def __post_init__(self):
        try:
            self.rows = np.array(self.rows, dtype=float)
        except (TypeError, ValueError):
            raise ValidationError("buffer rows must be (v, av) number pairs") from None
        if self.rows.size == 0:
            raise ValidationError("command buffer must be non-empty")
        if self.rows.ndim != 2 or self.rows.shape[1] != 2:
            raise ValidationError(
                f"buffer rows must be (v, av) pairs, got shape {self.rows.shape}")
        check_within(("v", self.rows[:, 0], SPEED_DOMAIN),
                     ("av", self.rows[:, 1], YAW_RATE_DOMAIN), where="buffer")

    def __len__(self) -> int:
        return len(self.rows)


def read_buffer_txt(path: str) -> CommandBuffer:
    def build(rows):
        if rows.shape[1] != 2:  # also a file without rows, shape (0, 0)
            raise ParseError(f"{path}: no 'v,av' rows found")
        return CommandBuffer(rows=rows)
    return read_record(path, None, build)


def execute_replay(buf: CommandBuffer, p: SlipParams,
                   model: MlpParams | None = None,
                   rate: float = DEFAULT_REPLAY_RATE,
                   duration: float = 1.0,
                   dt: float = DEFAULT_DT,
                   stride: int = 1) -> SimTrace:
    """Drive the simulator from rest, one buffer row per tick.

    Tick k reads row ``(k*stride) mod n`` (stride-1 rows are skipped when
    decimating); its yaw rate is clamped to the actuator range and
    converted to curvature, all ticks are optionally rewritten by one
    batched correction, and each command is zero-order-held until the next
    tick.  The buffer is read, never changed, so one buffer replays the same
    way each time.  Returns the ground-truth trace.
    """
    require_positive(rate=rate, duration=duration, dt=dt)
    if stride < 1:
        raise ValidationError("stride must be >= 1")

    n = sample_count("duration", duration / dt)
    ticks = np.floor(np.arange(n) * dt * rate + 1e-9)
    new_tick = np.ones(n, dtype=bool)
    new_tick[1:] = ticks[1:] > ticks[:-1]
    # Rows are read mod n, so stride mod n reads the same ones and keeps any
    # stride (a Python int, of any size) inside the index range.
    step = stride % len(buf)
    offsets = np.arange(np.count_nonzero(new_tick)) * step
    v, av = buf.rows[offsets % len(buf)].T
    av = np.clip(av, -AV_LIMIT, AV_LIMIT)  # actuator command range
    c = c_from_av_v(av, v)  # rows slower than EPS_V drive straight
    if model is not None:
        c = correct_batch(model, v, c).c_corrected
    # each c is a clamped yaw rate over v, or 0: |v*c| is within AV_LIMIT
    tick_of_step = np.cumsum(new_tick) - 1
    return _integrate(None, v[tick_of_step], c[tick_of_step], p, dt)
