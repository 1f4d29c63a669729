"""CSV log containers for the joystick and IMU recorder exports.

Two row layouts are supported: joystick logs (t, v, av) and IMU logs
(t, av_z), stored as tables in the ``fileio`` format under a mandatory
header row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CorruptLogError, ValidationError
from .fileio import read_table, row_line, write_table

DEFAULT_IDLE_EPS = 1e-3


def _check_stream(name: str, t: np.ndarray, *channels: np.ndarray) -> None:
    if t.ndim != 1:
        raise ValidationError(f"{name}: t must be 1-D")
    for ch in channels:
        if ch.shape != t.shape:
            raise ValidationError(f"{name}: channel shape {ch.shape} != t shape {t.shape}")
    for arr in (t, *channels):
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValidationError(f"{name}: non-finite values present")
    if t.size > 1 and not np.all(np.diff(t) > 0):
        raise ValidationError(f"{name}: t must be strictly increasing")


@dataclass(frozen=True)
class JoyLog:
    """Joystick log: commanded linear velocity and angular velocity over time."""

    t: np.ndarray
    v: np.ndarray
    av: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        object.__setattr__(self, "av", np.asarray(self.av, dtype=float))
        _check_stream("JoyLog", self.t, self.v, self.av)

    def __len__(self) -> int:
        return self.t.size


@dataclass(frozen=True)
class ImuLog:
    """IMU log: yaw-axis angular velocity over time."""

    t: np.ndarray
    av_z: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float))
        object.__setattr__(self, "av_z", np.asarray(self.av_z, dtype=float))
        _check_stream("ImuLog", self.t, self.av_z)

    def __len__(self) -> int:
        return self.t.size


_JOY_HEADER = "t,v,av"
_IMU_HEADER = "t,av_z"


def write_joy_csv(log: JoyLog, path: str) -> None:
    write_table(path, _JOY_HEADER, (log.t, log.v, log.av))


def read_joy_csv(path: str) -> JoyLog:
    return _read_log(path, _JOY_HEADER, JoyLog)


def write_imu_csv(log: ImuLog, path: str) -> None:
    write_table(path, _IMU_HEADER, (log.t, log.av_z))


def read_imu_csv(path: str) -> ImuLog:
    return _read_log(path, _IMU_HEADER, ImuLog)


def _read_log(path: str, header: str, log_type):
    """A log built from the table at ``path``; a row that breaks the log's
    checks is a ValidationError naming ``file:line`` of the first such row:
    the first non-finite row, else the first whose t does not increase."""
    rows = read_table(path, header)
    try:
        return log_type(*rows.T)
    except ValidationError as exc:
        bad = ~np.isfinite(rows).all(axis=1)
        if not bad.any():
            bad[1:] = rows[1:, 0] <= rows[:-1, 0]
        line = row_line(path, header, int(np.argmax(bad)))
        raise ValidationError(f"{path}:{line}: {exc}") from None


def trim_idle(joy: JoyLog, imu: ImuLog) -> tuple[JoyLog, ImuLog]:
    """Drop the idle lead-in and tail of a recording.

    Removes the maximal prefix and suffix of the joystick log where both |v|
    and |av| are below DEFAULT_IDLE_EPS, then trims the IMU log to the
    surviving joystick time window.  Raises CorruptLogError when nothing
    survives.
    """
    if len(joy) == 0:
        raise CorruptLogError("joystick log is empty")
    active = (np.abs(joy.v) >= DEFAULT_IDLE_EPS) | (np.abs(joy.av) >= DEFAULT_IDLE_EPS)
    if not np.any(active):
        raise CorruptLogError("log is all idle rows; nothing left after trimming")
    lo = int(np.argmax(active))
    hi = int(len(active) - np.argmax(active[::-1]))  # one past the last active row
    joy_out = JoyLog(t=joy.t[lo:hi], v=joy.v[lo:hi], av=joy.av[lo:hi])
    t0, t1 = joy_out.t[0], joy_out.t[-1]
    keep = (imu.t >= t0) & (imu.t <= t1)
    return joy_out, ImuLog(t=imu.t[keep], av_z=imu.av_z[keep])
