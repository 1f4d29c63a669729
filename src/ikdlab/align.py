"""Sensor alignment and dataset preparation.

Turns a (joystick, IMU) log pair into supervised training rows: estimate the
IMU transport delay by grid search, resample every channel onto an even
grid over the shifted overlap, prune straight-line rows, and bin channel
statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datalog import ImuLog, JoyLog
from .errors import InsufficientOverlapError, ValidationError, require_positive
from .fileio import read_table, row_line, write_table
from .simcore import AV_LIMIT, EPS_V, c_from_av_v, sample_count

# Plausible transport-delay band for the IMU stream; estimates outside it
# are flagged as suspect rather than rejected.
DELAY_MIN = 0.0
DELAY_MAX = 0.5

MIN_OVERLAP = 1.0          # s, shortest usable stream overlap
DEFAULT_DELAY_STEP = 0.001  # s, grid resolution of the delay search
DEFAULT_RATE = 40.0         # Hz, resampling rate of the training grid
DEFAULT_OBJECTIVE_CEILING = 0.5  # (rad/s)^2, above this the pair is corrupt
DEFAULT_EPS_C = 1e-4        # 1/m, curvature magnitude treated as straight

# Candidate-rows per scan block: each (candidates, rows) temporary holds at
# most this many float64 values (512 KB).
_SCAN_BLOCK = 1 << 16


@dataclass(frozen=True)
class DelayEstimate:
    """Result of the delay grid search.

    ``in_range`` marks whether the argmin fell inside the plausible band;
    ``corrupt`` marks an objective so large the two streams likely do not
    describe the same drive.
    """

    delay: float
    objective: float
    in_range: bool
    corrupt: bool

    def __post_init__(self):
        if self.objective < 0:
            raise ValidationError("objective must be non-negative")


@dataclass(frozen=True)
class AlignedDataset:
    """Evenly sampled training rows (v_joy, av_joy, av_imu) at a fixed period."""

    v_joy: np.ndarray
    av_joy: np.ndarray
    av_imu: np.ndarray
    period: float

    def __post_init__(self):
        for name in ("v_joy", "av_joy", "av_imu"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = self.v_joy.size
        if self.av_joy.size != n or self.av_imu.size != n:
            raise ValidationError("channel lengths differ")
        if n and not (np.all(np.isfinite(self.v_joy))
                      and np.all(np.isfinite(self.av_joy))
                      and np.all(np.isfinite(self.av_imu))):
            raise ValidationError("dataset contains non-finite values")
        # Only the commanded channel is bounded by the actuator; the IMU
        # channel is a measurement and may read beyond it (noise, slip).
        if n and np.max(np.abs(self.av_joy)) > AV_LIMIT + 1e-9:
            raise ValidationError(
                f"commanded angular velocity av_joy outside "
                f"[-{AV_LIMIT}, {AV_LIMIT}] rad/s")
        if self.period < 0:
            raise ValidationError("period must be non-negative")

    def __len__(self) -> int:
        return self.v_joy.size

    @property
    def idx(self) -> np.ndarray:
        return np.arange(len(self))


def _overlap_window(joy: JoyLog, imu: ImuLog, delay):
    """Joystick-time window (lo, hi) on which both streams are defined after
    shifting by ``delay``; elementwise when ``delay`` is an array."""
    return (np.maximum(joy.t[0], imu.t[0] - delay),
            np.minimum(joy.t[-1], imu.t[-1] - delay))


def scan_delays(joy: JoyLog, imu: ImuLog,
                search: tuple[float, float] = (DELAY_MIN, DELAY_MAX),
                step: float = DEFAULT_DELAY_STEP) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the alignment objective on the full delay grid.

    For each candidate delay d the objective is the mean squared error
    between av_joy at its own timestamps and the IMU stream linearly
    interpolated at (t + d), restricted to the shifted overlap.  Candidates
    whose overlap is shorter than MIN_OVERLAP get objective = +inf.

    Timestamps are strictly increasing, so each candidate's window is a
    slice of the joystick stream.  Consecutive candidates sharing a slice
    are evaluated together, in blocks of at most _SCAN_BLOCK candidate-rows,
    with one np.interp call per block; every element is interpolated and
    every row summed as the one-candidate-at-a-time loop does, so the
    objectives are bit-identical to it.

    Returns:
        (delays, objectives) arrays of equal length.
    """
    lo, hi = search
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError(f"search must be finite, got {search!r}")
    if not lo < hi:
        raise ValidationError("search range must satisfy lo < hi")
    require_positive(step=step)
    if len(joy) < 2 or len(imu) < 2:
        raise InsufficientOverlapError("each stream needs at least two samples")

    n = sample_count("search", (hi - lo) / step) + 1
    delays = lo + np.arange(n) * step
    objectives = np.full(n, np.inf)
    w_lo, w_hi = _overlap_window(joy, imu, delays)
    i0 = np.searchsorted(joy.t, w_lo, side="left")
    i1 = np.searchsorted(joy.t, w_hi, side="right")
    keep = (w_hi - w_lo >= MIN_OVERLAP) & (i1 > i0)
    # Runs: maximal stretches of consecutive candidates with one window.
    cuts = np.flatnonzero((i0[1:] != i0[:-1]) | (i1[1:] != i1[:-1])
                          | (keep[1:] != keep[:-1])) + 1
    bounds = np.concatenate(([0], cuts, [n])).tolist()
    for c0, c1 in zip(bounds[:-1], bounds[1:]):
        if not keep[c0]:
            continue
        a, b = int(i0[c0]), int(i1[c0])
        t, av, m = joy.t[a:b], joy.av[a:b], b - a
        rows = max(1, _SCAN_BLOCK // m)
        for k in range(c0, c1, rows):
            blk = slice(k, min(k + rows, c1))
            err = np.interp(t + delays[blk, None], imu.t, imu.av_z)
            np.subtract(err, av, out=err)
            np.multiply(err, err, out=err)
            objectives[blk] = np.add.reduce(err, axis=1) / m
    return delays, objectives


def estimate_delay(joy: JoyLog, imu: ImuLog,
                   search: tuple[float, float] = (DELAY_MIN, DELAY_MAX),
                   step: float = DEFAULT_DELAY_STEP) -> DelayEstimate:
    """Estimate the IMU transport delay by exhaustive grid search.

    The returned delay is the grid argmin of the alignment objective, ties
    broken toward the smaller delay.  Raises InsufficientOverlapError when
    no candidate leaves at least MIN_OVERLAP seconds of shifted overlap.
    """
    delays, objectives = scan_delays(joy, imu, search, step)
    return delay_from_scan(delays, objectives)


def delay_from_scan(delays: np.ndarray, objectives: np.ndarray) -> DelayEstimate:
    """Pick the delay estimate from a scan_delays result.

    The grid argmin, ties broken toward the smaller delay, flagged when it
    falls outside the plausible band or its objective exceeds
    DEFAULT_OBJECTIVE_CEILING.
    """
    if not np.any(np.isfinite(objectives)):
        raise InsufficientOverlapError(
            f"streams overlap less than {MIN_OVERLAP} s at every candidate delay")
    k = int(np.argmin(objectives))  # first minimum = smallest delay on ties
    delay = float(delays[k])
    objective = float(objectives[k])
    return DelayEstimate(
        delay=delay,
        objective=objective,
        in_range=DELAY_MIN <= delay <= DELAY_MAX,
        corrupt=objective > DEFAULT_OBJECTIVE_CEILING,
    )


def build_dataset(joy: JoyLog, imu: ImuLog, delay: float,
                  rate: float = DEFAULT_RATE) -> AlignedDataset:
    """Resample both logs onto an even grid over the delay-shifted overlap.

    Grid timestamps live on the joystick clock; the IMU channel is read at
    (t + delay).  All three channels are linearly interpolated.
    """
    require_positive(rate=rate)
    if len(joy) < 2 or len(imu) < 2:
        raise ValidationError("each stream needs at least two samples")
    w_lo, w_hi = _overlap_window(joy, imu, delay)
    if w_hi <= w_lo:
        raise ValidationError("streams do not overlap at this delay")
    n = sample_count("rate", (w_hi - w_lo) * rate)
    if n == 0:
        raise ValidationError("overlap shorter than one sample period")
    grid = w_lo + np.arange(n) / rate
    return AlignedDataset(
        v_joy=np.interp(grid, joy.t, joy.v),
        av_joy=np.interp(grid, joy.t, joy.av),
        av_imu=np.interp(grid + delay, imu.t, imu.av_z),
        period=1.0 / rate,
    )


def prune_zero_curvature(d: AlignedDataset) -> AlignedDataset:
    """Drop straight-line rows: |commanded curvature| <= DEFAULT_EPS_C, the
    curvature of rows slower than EPS_V counting as 0."""
    keep = np.abs(c_from_av_v(d.av_joy, d.v_joy)) > DEFAULT_EPS_C
    return AlignedDataset(v_joy=d.v_joy[keep], av_joy=d.av_joy[keep],
                          av_imu=d.av_imu[keep], period=d.period)


def histogram(values, bins: int, vrange: tuple[float, float]) -> np.ndarray:
    """Equal-width bin counts; out-of-range values land in the edge bins.

    Total count always equals len(values).
    """
    lo, hi = vrange
    if bins < 1:
        raise ValidationError("bins must be >= 1")
    if not lo < hi:
        raise ValidationError("range must satisfy lo < hi")
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return np.zeros(bins, dtype=int)
    width = (hi - lo) / bins
    idx = np.floor((values - lo) / width).astype(int)
    idx = np.clip(idx, 0, bins - 1)
    return np.bincount(idx, minlength=bins)


_DATASET_HEADER = "idx,v_joy,av_joy,av_imu"
HIST_HEADER = "bin_lo,bin_hi,count"
DELAY_SCAN_HEADER = "delay,objective"


def write_dataset_csv(d: AlignedDataset, path: str) -> None:
    write_table(path, _DATASET_HEADER, (d.idx, d.v_joy, d.av_joy, d.av_imu))


def read_dataset_csv(path: str, period: float = 1.0 / DEFAULT_RATE) -> AlignedDataset:
    """Read training rows; the sample period is not stored in the file and
    must be supplied by the caller (defaults to the standard 40 Hz grid)."""
    rows = read_table(path, _DATASET_HEADER)
    broken = np.flatnonzero(rows[:, 0] != np.arange(len(rows)))
    if broken.size:
        k = int(broken[0])
        raise ValidationError(f"{path}:{row_line(path, _DATASET_HEADER, k)}: "
                              f"idx {rows[k, 0]:g} breaks contiguity (expected {k})")
    _, v_joy, av_joy, av_imu = rows.T
    return AlignedDataset(v_joy=v_joy, av_joy=av_joy, av_imu=av_imu, period=period)


def write_histogram_csv(counts: np.ndarray, vrange: tuple[float, float],
                        path: str) -> None:
    lo, hi = vrange
    edges = lo + np.arange(len(counts) + 1) * ((hi - lo) / len(counts))
    write_table(path, HIST_HEADER, (edges[:-1], edges[1:], np.asarray(counts).astype(int)))


def write_delay_scan_csv(delays: np.ndarray, objectives: np.ndarray, path: str) -> None:
    """The scanned candidates, those whose objective is finite."""
    scanned = np.isfinite(objectives)
    write_table(path, DELAY_SCAN_HEADER, (delays[scanned], objectives[scanned]))
