"""Replays a recorded command sequence through the simulator at 20 Hz.

The recorded joystick rows become a circular command buffer; each replay
tick consumes one (v, av) pair, optionally rewrites it through the learned
correction, and holds it across the simulator's finer integration steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .datalog import JoyLog
from .errors import ParseError, ValidationError
from .fileio import read_table, write_table
from .ikd import c_from_av_v, correct
from .mlp import MlpParams
from .simcore import (AV_LIMIT, DEFAULT_DT, EPS_V, ControlCommand, SimTrace,
                      SlipParams, VehicleState, _integrate)

DEFAULT_REPLAY_RATE = 20.0  # Hz, command consumption rate


@dataclass
class CommandBuffer:
    """Circular buffer of (v, av) command rows with a read cursor."""

    rows: list
    cursor: int = 0

    def __post_init__(self):
        if not self.rows:
            raise ValidationError("command buffer must be non-empty")
        self.rows = [(float(v), float(av)) for v, av in self.rows]
        for v, av in self.rows:
            if not (math.isfinite(v) and math.isfinite(av)):
                raise ValidationError("buffer rows must be finite")
        if not 0 <= self.cursor < len(self.rows):
            raise ValidationError("cursor out of range")

    def __len__(self) -> int:
        return len(self.rows)


def load_buffer(joy: JoyLog) -> CommandBuffer:
    """Build a replay buffer from a joystick log, preserving row order."""
    if len(joy) == 0:
        raise ValidationError("cannot build a buffer from an empty log")
    return CommandBuffer(rows=list(zip(joy.v.tolist(), joy.av.tolist())))


def next_command(buf: CommandBuffer) -> tuple[float, float]:
    """Return the row under the cursor, then advance circularly."""
    row = buf.rows[buf.cursor]
    buf.cursor = (buf.cursor + 1) % len(buf.rows)
    return row


def write_buffer_txt(buf: CommandBuffer, path: str) -> None:
    """One "v,av" pair per line, no header."""
    write_table(path, None, zip(*buf.rows))


def read_buffer_txt(path: str) -> CommandBuffer:
    rows = read_table(path, None)
    if rows.shape[1] != 2:  # also a file without rows, shape (0, 0)
        raise ParseError(f"{path}: no 'v,av' rows found")
    return CommandBuffer(rows=rows.tolist())


def execute_replay(buf: CommandBuffer, p: SlipParams,
                   model: MlpParams | None = None,
                   rate: float = DEFAULT_REPLAY_RATE,
                   duration: float = 1.0,
                   dt: float = DEFAULT_DT,
                   stride: int = 1,
                   initial_state: VehicleState | None = None) -> SimTrace:
    """Drive the simulator from the buffer, one command per tick.

    At every replay tick the next (v, av) row is consumed (plus stride-1
    skipped rows when decimating), converted to curvature, optionally
    rewritten by the correction model, and zero-order-held until the next
    tick.  Returns the ground-truth trace.
    """
    if rate <= 0:
        raise ValidationError("rate must be positive")
    if duration <= 0:
        raise ValidationError("duration must be positive")
    if stride < 1:
        raise ValidationError("stride must be >= 1")

    n = int(math.floor(duration / dt + 1e-9))
    ticks = np.floor(np.arange(n) * dt * rate + 1e-9)
    new_tick = np.ones(n, dtype=bool)
    new_tick[1:] = ticks[1:] > ticks[:-1]
    commands = []
    for _ in range(int(np.count_nonzero(new_tick))):
        v, av = next_command(buf)
        for _ in range(stride - 1):
            next_command(buf)
        av = max(-AV_LIMIT, min(AV_LIMIT, av))  # actuator command range
        c = c_from_av_v(av, v, EPS_V)  # rows slower than EPS_V drive straight
        if model is not None:
            c = correct(model, v, c).c_corrected
        commands.append(ControlCommand(v, c))
    return _integrate(initial_state, commands, np.cumsum(new_tick) - 1, p, dt)
