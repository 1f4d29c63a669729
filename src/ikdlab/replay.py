"""Replays a recorded command sequence through the simulator at 20 Hz.

The recorded joystick rows become a circular command buffer; each replay
tick consumes one (v, av) pair, optionally rewrites it through the learned
correction, and holds it across the simulator's finer integration steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ValidationError, require_positive
from .fileio import read_table, row_line
from .ikd import correct_batch
from .mlp import MlpParams
from .simcore import (AV_LIMIT, DEFAULT_DT, EPS_V, SimTrace, SlipParams,
                      VehicleState, _check_commands, _integrate, c_from_av_v,
                      sample_count)

DEFAULT_REPLAY_RATE = 20.0  # Hz, command consumption rate


@dataclass(eq=False)
class CommandBuffer:
    """Circular buffer of (v, av) command rows with a read cursor.

    ``rows`` is copied into one ``(n, 2)`` float64 array owned by the buffer.
    """

    rows: np.ndarray
    cursor: int = 0

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
        if not np.all(np.isfinite(self.rows)):
            raise ValidationError("buffer rows must be finite")
        if not 0 <= self.cursor < len(self.rows):
            raise ValidationError("cursor out of range")

    def __len__(self) -> int:
        return len(self.rows)


def next_command(buf: CommandBuffer) -> tuple[float, float]:
    """Return the row under the cursor as Python floats, then advance circularly."""
    v, av = buf.rows[buf.cursor].tolist()
    buf.cursor = (buf.cursor + 1) % len(buf.rows)
    return v, av


def read_buffer_txt(path: str) -> CommandBuffer:
    rows = read_table(path, None)
    if rows.shape[1] != 2:  # also a file without rows, shape (0, 0)
        raise ParseError(f"{path}: no 'v,av' rows found")
    try:
        return CommandBuffer(rows=rows)
    except ValidationError as exc:  # a non-finite row
        k = int(np.argmax(~np.isfinite(rows).all(axis=1)))
        raise ValidationError(f"{path}:{row_line(path, None, k)}: {exc}") from None


def execute_replay(buf: CommandBuffer, p: SlipParams,
                   model: MlpParams | None = None,
                   rate: float = DEFAULT_REPLAY_RATE,
                   duration: float = 1.0,
                   dt: float = DEFAULT_DT,
                   stride: int = 1,
                   initial_state: VehicleState | None = None) -> SimTrace:
    """Drive the simulator from the buffer, one command per tick.

    Tick k consumes row ``(cursor + k*stride) mod n`` (stride-1 rows are
    skipped when decimating); its yaw rate is clamped to the actuator range
    and converted to curvature, all ticks are optionally rewritten by one
    batched correction, and each command is zero-order-held until the next
    tick.  The cursor ends past the last consumed row.  Returns the
    ground-truth trace.
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
    v, av = buf.rows[(buf.cursor + offsets) % len(buf)].T
    buf.cursor = (buf.cursor + len(offsets) * step) % len(buf)
    av = np.clip(av, -AV_LIMIT, AV_LIMIT)  # actuator command range
    c = c_from_av_v(av, v)  # rows slower than EPS_V drive straight
    if model is not None:
        c = correct_batch(model, v, c).c_corrected
    _check_commands(v, c)
    tick_of_step = np.cumsum(new_tick) - 1
    return _integrate(initial_state, v[tick_of_step], c[tick_of_step], p, dt)
