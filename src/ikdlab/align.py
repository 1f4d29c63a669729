"""Sensor alignment and dataset preparation.

Turns a (joystick, IMU) log pair into supervised training rows: estimate the
IMU transport delay by grid search, resample every channel onto an even
grid over the shifted overlap, prune straight-line rows, and bin channel
statistics.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .datalog import ImuLog, JoyLog
from .errors import (CorruptLogError, InsufficientOverlapError, ValidationError,
                     check_within, require_positive)
from .fileio import read_record, write_table
from .simcore import (AV_LIMIT, DEFAULT_LOG_RATE, SPEED_DOMAIN, YAW_RATE_DOMAIN,
                      _MAX_LEN, c_from_av_v, sample_count)

# Plausible transport-delay band for the IMU stream; estimates outside it
# are flagged as suspect rather than rejected.
DELAY_MIN = 0.0
DELAY_MAX = 0.5

MIN_OVERLAP = 1.0          # s, shortest usable stream overlap
DEFAULT_DELAY_STEP = 0.001  # s, grid resolution of the delay search
DEFAULT_OBJECTIVE_CEILING = 0.5  # (rad/s)^2, above this the pair is corrupt
DEFAULT_EPS_C = 1e-4        # 1/m, curvature magnitude treated as straight

# Candidate-rows per scan block: each of a block's temporaries holds at most
# this many float64 values (512 KB).
_SCAN_BLOCK = 1 << 16

# Most threads a scan runs its blocks on.  A gate-shaped pair (480 joystick
# rows, 501 candidates) cuts into 4 blocks, so a fifth thread would idle on
# it, and each thread holds a block temporary of up to 512 KB.  Hosts with
# more than two CPUs have not been measured.
_SCAN_THREADS = 4

# estimate_delay bounds candidates at two levels: the squared errors on
# every _BOUND_STRIDE-th row of a window, then, for the survivors, on every
# _REFINE_STRIDE-th row, a superset of the first level's rows.  A candidate
# is scored exactly unless a bound exceeds the best objective by the
# relative _BOUND_SLACK, six orders above the rounding of the pairwise sums
# (about 3e-15 relative).
_BOUND_STRIDE = 128
_REFINE_STRIDE = 16
_BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class DelayEstimate:
    """Result of the delay grid search: the argmin and its objective."""

    delay: float
    objective: float

    @property
    def in_range(self) -> bool:
        """Whether the argmin fell inside the plausible band."""
        return DELAY_MIN <= self.delay <= DELAY_MAX

    @property
    def corrupt(self) -> bool:
        """Whether the objective is so large that the two streams likely do
        not describe the same drive."""
        return self.objective > DEFAULT_OBJECTIVE_CEILING


@dataclass(frozen=True)
class AlignedDataset:
    """Evenly sampled training rows (v_joy, av_joy, av_imu)."""

    v_joy: np.ndarray
    av_joy: np.ndarray
    av_imu: np.ndarray

    def __post_init__(self):
        for name in ("v_joy", "av_joy", "av_imu"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = self.v_joy.size
        if self.av_joy.size != n or self.av_imu.size != n:
            raise ValidationError("channel lengths differ")
        # Only the commanded channel is bounded by the actuator; the IMU
        # channel is a measurement and may read beyond it (noise, slip).
        check_within(("v_joy", self.v_joy, SPEED_DOMAIN),
                     ("av_joy", self.av_joy, AV_LIMIT + 1e-9),
                     ("av_imu", self.av_imu, YAW_RATE_DOMAIN), where="dataset")

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


def _scan_workers() -> int:
    """Threads for a delay scan: the CPUs this process may run on, at most
    _SCAN_THREADS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, _SCAN_THREADS)


def _delay_grid(joy: JoyLog, imu: ImuLog, search: tuple[float, float], step: float):
    """The candidate delays of a scan, each one's joystick window i0:i1 (a
    slice, as timestamps are strictly increasing), and the indices of the
    candidates kept: those leaving at least MIN_OVERLAP seconds of overlap."""
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
    w_lo, w_hi = _overlap_window(joy, imu, delays)
    i0 = np.searchsorted(joy.t, w_lo, side="left")
    i1 = np.searchsorted(joy.t, w_hi, side="right")
    kept = np.flatnonzero((w_hi - w_lo >= MIN_OVERLAP) & (i1 > i0))
    return delays, i0, i1, kept


def _scan(joy: JoyLog, imu: ImuLog, delays: np.ndarray, i0: np.ndarray,
          i1: np.ndarray, cand: np.ndarray, stride: int, out: np.ndarray) -> None:
    """Write into out[cand] each candidate's squared error between av_joy and
    the IMU stream interpolated at (t + delay), summed over every
    ``stride``-th row of its window i0:i1 and divided by the window's full
    row count; at stride 1 that is the objective.

    ``cand`` holds increasing candidate indices.  Consecutive candidates
    sharing a window are evaluated together, in blocks of at most
    _SCAN_BLOCK candidate-rows, with one np.interp call per block.  Every
    element is interpolated as the one-candidate-at-a-time loop does, and
    each candidate's errors are summed as one contiguous row, so at stride 1
    the objectives are bit-identical to that loop.  The blocks run on up to
    _SCAN_THREADS threads, one per CPU in the process's affinity set; the
    result does not depend on the thread count.  A scan of at most
    _SCAN_BLOCK candidate-rows in all runs on the calling thread and starts
    no pool.
    """
    if not cand.size:
        return
    # Runs: maximal stretches of consecutive candidates with one window.
    a0, a1 = i0[cand], i1[cand]
    cuts = np.flatnonzero((np.diff(cand) != 1) | (a0[1:] != a0[:-1])
                          | (a1[1:] != a1[:-1])) + 1
    bounds = np.concatenate(([0], cuts, [cand.size])).tolist()
    tasks = []  # (a, b, k0, k1): joystick rows a:b:stride against candidates k0:k1
    for c0, c1 in zip(bounds[:-1], bounds[1:]):
        a, b, k = int(a0[c0]), int(a1[c0]), int(cand[c0])
        rows = max(1, _SCAN_BLOCK // len(range(a, b, stride)))
        tasks.extend((a, b, j, min(j + rows, k + c1 - c0))
                     for j in range(k, k + c1 - c0, rows))

    def scan(share):
        for a, b, k0, k1 in share:
            # Interpolated rows by candidates: neighbouring times are close,
            # so np.interp finds each one's interval next to the last one's.
            at = np.interp(joy.t[a:b:stride, None] + delays[k0:k1], imu.t, imu.av_z)
            err = np.subtract(at.T, joy.av[a:b:stride], order="C")
            del at
            np.multiply(err, err, out=err)
            out[k0:k1] = np.add.reduce(err, axis=1) / (b - a)
            del err  # freed before the next block's temporaries, on every thread

    # np.interp and the ufuncs release the GIL, and each block writes its own
    # slice of out.  The calling thread scans one share itself.
    # A scan that fits in one block finishes before a pool would start.
    total = sum((k1 - k0) * len(range(a, b, stride)) for a, b, k0, k1 in tasks)
    w = 1 if total <= _SCAN_BLOCK else min(_scan_workers(), len(tasks))
    if w <= 1:
        scan(tasks)
    else:
        with ThreadPoolExecutor(w - 1) as pool:
            futures = [pool.submit(scan, tasks[i::w]) for i in range(1, w)]
            scan(tasks[0::w])
            for f in futures:
                f.result()


def scan_delays(joy: JoyLog, imu: ImuLog,
                search: tuple[float, float] = (DELAY_MIN, DELAY_MAX),
                step: float = DEFAULT_DELAY_STEP) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the alignment objective on the full delay grid.

    For each candidate delay d the objective is the mean squared error
    between av_joy at its own timestamps and the IMU stream linearly
    interpolated at (t + d), restricted to the shifted overlap.  Candidates
    whose overlap is shorter than MIN_OVERLAP get objective = +inf.  The
    objectives are bit-identical to a one-candidate-at-a-time loop that
    masks the window and calls np.mean (see _scan).

    Returns:
        (delays, objectives) arrays of equal length.
    """
    delays, i0, i1, kept = _delay_grid(joy, imu, search, step)
    objectives = np.full(delays.size, np.inf)
    _scan(joy, imu, delays, i0, i1, kept, 1, objectives)
    return delays, objectives


def estimate_delay(joy: JoyLog, imu: ImuLog,
                   search: tuple[float, float] = (DELAY_MIN, DELAY_MAX),
                   step: float = DEFAULT_DELAY_STEP) -> DelayEstimate:
    """Estimate the IMU transport delay as the argmin of the alignment
    objective over the scan_delays grid.

    The returned delay is the grid argmin, ties broken toward the smaller
    delay.  Raises InsufficientOverlapError when no candidate leaves at
    least MIN_OVERLAP seconds of shifted overlap.

    The estimate equals delay_from_scan(*scan_delays(...)) bit for bit, but
    only candidates that can hold the minimum get an exact objective.  Each
    candidate is first bounded from below by its squared errors on every
    _BOUND_STRIDE-th row of its window, divided by the full window's row
    count: the terms are non-negative, so the subset sum cannot exceed the
    full one.  The candidate with the smallest bound is scored exactly, and
    every candidate whose bound exceeds that objective times
    (1 + _BOUND_SLACK) cannot be the argmin and reads +inf.  If this level
    pruned any candidate, the survivors are bounded again on every
    _REFINE_STRIDE-th row and pruned against the same objective.  Whatever
    is left is scored exactly.  If the first level pruned none, as on
    slip-dominated recordings such as the training sweep, whose objective is
    flat near its minimum, the refinement is skipped, so the bounds cost
    1/_BOUND_STRIDE of a scan.
    """
    delays, i0, i1, kept = _delay_grid(joy, imu, search, step)
    objectives = np.full(delays.size, np.inf)
    if kept.size:
        bounds = np.full(delays.size, np.inf)
        _scan(joy, imu, delays, i0, i1, kept, _BOUND_STRIDE, bounds)
        j = int(np.argmin(bounds[kept]))
        _scan(joy, imu, delays, i0, i1, kept[j:j + 1], 1, objectives)
        best = objectives[kept[j]] * (1.0 + _BOUND_SLACK)
        # NaN-safe: ties and NaN bounds stay in
        live = ~(bounds[kept] > best)
        live[j] = False
        cand = kept[live]
        if cand.size < kept.size - 1:
            _scan(joy, imu, delays, i0, i1, cand, _REFINE_STRIDE, bounds)
            cand = cand[~(bounds[cand] > best)]
        _scan(joy, imu, delays, i0, i1, cand, 1, objectives)
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
    return DelayEstimate(delay=float(delays[k]), objective=float(objectives[k]))


def build_dataset(joy: JoyLog, imu: ImuLog, delay: float,
                  rate: float = DEFAULT_LOG_RATE) -> AlignedDataset:
    """Resample both logs onto an even grid over the delay-shifted overlap.

    Grid timestamps live on the joystick clock; the IMU channel is read at
    (t + delay).  All three channels are linearly interpolated.  Commanded
    yaw rates past the actuator limit are clamped to +-AV_LIMIT first, as
    the actuator executes them.  An overlap whose grid has more rows than
    a float64 array can hold is a CorruptLogError: timestamps that far
    apart are not a recording.
    """
    require_positive(rate=rate)
    if len(joy) < 2 or len(imu) < 2:
        raise ValidationError("each stream needs at least two samples")
    w_lo, w_hi = _overlap_window(joy, imu, delay)
    if w_hi <= w_lo:
        raise ValidationError("streams do not overlap at this delay")
    if not (w_hi - w_lo) * rate < _MAX_LEN:
        raise CorruptLogError(f"streams overlap {w_hi - w_lo:.6g} s, more than a grid "
                              f"at {rate:g} Hz can hold in an array")
    n = sample_count("rate", (w_hi - w_lo) * rate)
    if n == 0:
        raise ValidationError("overlap shorter than one sample period")
    grid = w_lo + np.arange(n) / rate
    return AlignedDataset(
        v_joy=np.interp(grid, joy.t, joy.v),
        av_joy=np.interp(grid, joy.t, np.clip(joy.av, -AV_LIMIT, AV_LIMIT)),
        av_imu=np.interp(grid + delay, imu.t, imu.av_z),
    )


def prune_zero_curvature(d: AlignedDataset) -> AlignedDataset:
    """Drop straight-line rows: |commanded curvature| <= DEFAULT_EPS_C, the
    curvature of rows slower than EPS_V counting as 0."""
    keep = np.abs(c_from_av_v(d.av_joy, d.v_joy)) > DEFAULT_EPS_C
    return AlignedDataset(v_joy=d.v_joy[keep], av_joy=d.av_joy[keep],
                          av_imu=d.av_imu[keep])


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


def read_dataset_csv(path: str) -> AlignedDataset:
    """Read training rows, whose ``idx`` column must count 0, 1, 2, ..."""
    def build(rows):
        idx, v_joy, av_joy, av_imu = rows.T
        broken = np.flatnonzero(idx != np.arange(len(rows)))
        if broken.size:
            k = int(broken[0])
            raise ValidationError(f"idx {idx[k]:g} breaks contiguity (expected {k})",
                                  row=k)
        return AlignedDataset(v_joy=v_joy, av_joy=av_joy, av_imu=av_imu)
    return read_record(path, _DATASET_HEADER, build)


def write_histogram_csv(counts: np.ndarray, vrange: tuple[float, float],
                        path: str) -> None:
    lo, hi = vrange
    edges = lo + np.arange(len(counts) + 1) * ((hi - lo) / len(counts))
    write_table(path, HIST_HEADER, (edges[:-1], edges[1:], np.asarray(counts).astype(int)))


def write_delay_scan_csv(delays: np.ndarray, objectives: np.ndarray, path: str) -> None:
    """The scanned candidates, those whose objective is finite."""
    scanned = np.isfinite(objectives)
    write_table(path, DELAY_SCAN_HEADER, (delays[scanned], objectives[scanned]))
