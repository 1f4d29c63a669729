"""CSV log containers for the joystick and IMU recorder exports.

Two row layouts are supported: joystick logs (t, v, av) and IMU logs
(t, av_z), stored as tables in the ``fileio`` format under a mandatory
header row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import simcore   # as a module: simcore builds these logs
from .errors import FINITE, CorruptLogError, ValidationError, check_increasing, check_within
from .fileio import read_record, write_table

DEFAULT_IDLE_EPS = 1e-3


def _check_stream(name: str, t: np.ndarray, *channels) -> None:
    """Check a log: ``t`` finite and past the row before at every row, and each
    channel, a (name, values, limit) triple, as long as ``t`` and inside its domain."""
    if t.ndim != 1:
        raise ValidationError(f"{name}: t must be 1-D")
    for _, ch, _ in channels:
        if ch.shape != t.shape:
            raise ValidationError(f"{name}: channel shape {ch.shape} != t shape {t.shape}")
    check_within(("t", t, FINITE), *channels, where=name)
    check_increasing("t", t, where=name)


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
        _check_stream("JoyLog", self.t, ("v", self.v, simcore.SPEED_DOMAIN),
                      ("av", self.av, simcore.YAW_RATE_DOMAIN))

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
        _check_stream("ImuLog", self.t, ("av_z", self.av_z, simcore.YAW_RATE_DOMAIN))

    def __len__(self) -> int:
        return self.t.size


_JOY_HEADER = "t,v,av"
_IMU_HEADER = "t,av_z"


def write_joy_csv(log: JoyLog, path: str) -> None:
    write_table(path, _JOY_HEADER, (log.t, log.v, log.av))


def read_joy_csv(path: str) -> JoyLog:
    return read_record(path, _JOY_HEADER, lambda rows: JoyLog(*rows.T))


def write_imu_csv(log: ImuLog, path: str) -> None:
    write_table(path, _IMU_HEADER, (log.t, log.av_z))


def read_imu_csv(path: str) -> ImuLog:
    return read_record(path, _IMU_HEADER, lambda rows: ImuLog(*rows.T))


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
