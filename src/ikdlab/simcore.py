"""Deterministic 2D kinodynamic vehicle simulator with a parametrized slip law.

The simulated plant stands in for a small teleoperated car: commands are
(linear velocity, curvature) pairs, the achieved yaw rate falls below the
commanded one as speed grows (understeer), the actuator responds with a
first-order lag, and the emulated IMU stream is transport-delayed and noisy.

Every run is one command table: each command's first step, ``v`` and
``c``, and the step count n; a script gives one row per reached segment
(_script_runs), a replay one per tick, and a SimTrace keeps the table it
was integrated from.  Under a held command the lag has a closed form, so
the state after any step follows from its command segment alone.
_segment_rows turns a table into segments, and _lag_states evaluates any
increasing set of states from them: _integrate every state, a block of
_BLOCK_STEPS at a time, to build a SimTrace, and record_logs only the
states its IMU samples read, so that recording the logs of a drive holds
no array per 5 ms step.  Both sample the logs with one sampler, which
expands a command table to the joystick rows, so record_logs returns the
bits emit_sensor_logs(run_scenario(...)) does.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import datalog   # as a module: datalog reads the domains below
from .errors import (FINITE, ValidationError, blamed, check_within, finite_number,
                     json_fields, require_positive, seed_value)
from .fileio import read_json

# Plant-wide limits observed on the real vehicle class this emulates.
V_CAP = 4.219        # m/s, hard cap on achievable linear speed
AV_LIMIT = 4.0       # rad/s, extreme range of commanded angular velocity
EPS_V = 0.05         # m/s, below this speed curvature is defined as 0

# Domains (+-limits) of the recorded quantities, far past anything the car or
# its sensors report.  The record holding a quantity checks it, so nothing
# downstream overflows; timestamps and imu_delay need only be finite.
SPEED_DOMAIN = 1e3       # m/s
YAW_RATE_DOMAIN = 1e3    # rad/s
CURVATURE_DOMAIN = 1e3   # 1/m
COURSE_DOMAIN = 1e6      # m, course positions and sizes
BETA_DOMAIN = 1e3        # slip gain
NOISE_SIGMA_DOMAIN = 10.0  # rad/s: a sample leaves YAW_RATE_DOMAIN only ~100 sigma out
LAG_TAU_DOMAIN = 1e3     # s: a circle test settles for 5 lags, about 1e6 steps at most

DEFAULT_DT = 0.005   # s, internal integration step
DEFAULT_LOG_RATE = 40.0  # Hz, joystick and IMU recorder rate
DEFAULT_PAD = 1.0    # s, idle recording before and after a drive
_BLOCK_STEPS = 4096  # steps per integrator block, IMU samples per sampler block
# a run of no step: the message names no input, so a caller that knows what
# set the run's length blames it
EMPTY_TRACE = "cannot emit logs from an empty trace"


def normalize_heading(h: float) -> float:
    """Wrap an angle, or elementwise an array of angles, into (-pi, pi].

    ``pi - (pi - h) mod 2*pi``, the remainder taken as ``fmod`` plus 2*pi
    where negative: the bits of Python's and numpy's ``%``, without the
    quotient numpy's ``%`` also computes.
    """
    wrapped = np.fmod(math.pi - h, math.tau)
    return math.pi - np.where(wrapped < 0.0, wrapped + math.tau, wrapped)


def c_from_av_v(av, v):
    """Curvature av/v, elementwise, guarded to 0 where |v| < EPS_V.

    Floats in give a float out, arrays give an array; guarded rows are
    never divided.
    """
    av = np.asarray(av, dtype=float)
    v = np.asarray(v, dtype=float)
    if not (np.all(np.isfinite(av)) and np.all(np.isfinite(v))):
        raise ValidationError("av and v must be finite")
    c = np.divide(av, v, out=np.zeros(np.broadcast(av, v).shape),
                  where=np.abs(v) >= EPS_V)
    return c if c.ndim else float(c)


# the most float64s one array can hold: numpy must be able to size it in bytes
_MAX_LEN = np.iinfo(np.intp).max // np.dtype(float).itemsize


def sample_count(name: str, ratio: float) -> int:
    """floor(ratio + 1e-9): the number of samples a span/period ratio holds.

    A count past the largest numpy index (NaN and infinity included) is a
    ValidationError naming ``name``.
    """
    count = float(ratio) + 1e-9
    largest = np.iinfo(np.intp).max
    if not count < largest + 1:
        raise ValidationError(f"{name} gives {count:.6g} samples, more than "
                              f"an index can count ({largest})")
    return math.floor(count)


@dataclass(frozen=True)
class VehicleState:
    """Ground-truth pose/velocity of the virtual car.

    ``av`` is the true yaw rate acting on the pose.  ``av_lag`` is the
    actuator's internal state (the lag-filtered commanded yaw rate) and is
    carried along so that a state transition is a pure function of
    (state, command); it is not a sensor-visible quantity.
    """

    x: float = 0.0
    y: float = 0.0
    heading: float = 0.0
    v: float = 0.0
    av: float = 0.0
    av_lag: float = 0.0

    def __post_init__(self):
        check_within(*((name, getattr(self, name), V_CAP + 1e-12 if name == "v" else FINITE)
                       for name in _STATE_CHANNELS), where="VehicleState")


@dataclass(frozen=True)
class SlipParams:
    """Plant parameters: slip gain, actuator lag, sensor delay and noise.

    All-zero parameters give the ideal vehicle: executed curvature equals
    commanded curvature exactly, sensors are instantaneous and noise-free.
    """

    beta: float = 0.02          # slip gain; understeer grows with beta*v^2*|av|
    lag_tau: float = 0.1        # s, first-order actuator lag
    imu_delay: float = 0.176    # s, transport delay of the IMU stream
    noise_sigma: float = 0.01   # rad/s, additive Gaussian IMU noise
    seed: int = 0

    def __post_init__(self):
        check_within(("beta", self.beta, BETA_DOMAIN),
                     ("lag_tau", self.lag_tau, LAG_TAU_DOMAIN),
                     ("imu_delay", self.imu_delay, FINITE),
                     ("noise_sigma", self.noise_sigma, NOISE_SIGMA_DOMAIN))
        if min(self.beta, self.lag_tau, self.imu_delay, self.noise_sigma) < 0:
            raise ValidationError("SlipParams fields must be non-negative")
        if (isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral)
                or self.seed < 0):
            raise ValidationError(f"seed must be a non-negative integer, got {self.seed!r}")

    @classmethod
    def ideal(cls) -> "SlipParams":
        """Slip-free, lag-free, delay-free, noise-free plant."""
        return cls(beta=0.0, lag_tau=0.0, imu_delay=0.0, noise_sigma=0.0)

    @classmethod
    def from_json(cls, path: str) -> "SlipParams":
        floats = ("beta", "lag_tau", "imu_delay", "noise_sigma")
        raw = json_fields(path, read_json(path), (), floats + ("seed",))
        kwargs = {key: finite_number(path, key, raw[key]) for key in floats if key in raw}
        if "seed" in raw:
            kwargs["seed"] = seed_value(path, raw["seed"])
        with blamed(lambda exc: path):
            return cls(**kwargs)


def _check_commands(v: np.ndarray, c: np.ndarray) -> None:
    """Check arrays of (v, c) commands, each inside its domain, in one
    vectorised test: |v*c| within AV_LIMIT.  The first failing row words
    the error and is its ``row``."""
    ok = np.abs(v * c) <= AV_LIMIT + 1e-9
    if not np.all(ok):
        k = int(np.argmin(ok))
        raise ValidationError(f"commanded angular velocity v*c={float(v[k] * c[k]):.4f} "
                              f"outside [-{AV_LIMIT}, {AV_LIMIT}]", row=k)


@dataclass(frozen=True)
class ScriptSegment:
    t_start: float
    v: float
    c: float


@dataclass(frozen=True)
class ControlScript:
    """Piecewise-constant command schedule, scripted stand-in for teleoperation."""

    segments: tuple[ScriptSegment, ...]

    def __post_init__(self):
        if not self.segments:
            raise ValidationError("ControlScript needs at least one segment")
        check_within(("v", np.array([s.v for s in self.segments]), SPEED_DOMAIN),
                     ("c", np.array([s.c for s in self.segments]), CURVATURE_DOMAIN))
        starts = [s.t_start for s in self.segments]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValidationError("segment t_start values must be strictly increasing")

    @classmethod
    def constant(cls, v: float, c: float) -> "ControlScript":
        return cls((ScriptSegment(0.0, v, c),))

    @classmethod
    def from_json(cls, path: str) -> "ControlScript":
        """Read ``{"segments": [{"t_start", "v", "c"}, ...]}`` or the bare list."""
        raw = read_json(path)
        segs = raw.get("segments") if isinstance(raw, dict) else raw
        if not isinstance(segs, list):
            raise ValidationError(f"{path}: expected a list of segments")
        if isinstance(raw, dict):
            json_fields(path, raw, ("segments",))
        fields = ("t_start", "v", "c")
        out = []
        for i, seg in enumerate(segs):
            where = f"{path}: segment {i}"
            seg = json_fields(where, seg, fields)
            out.append(ScriptSegment(*(finite_number(where, key, seg[key])
                                       for key in fields)))
        with blamed(lambda exc: path if exc.row is None else f"{path}: segment {exc.row}"):
            return cls(tuple(out))

    @property
    def t_end(self) -> float:
        return self.segments[-1].t_start


@dataclass(frozen=True, eq=False)
class SimTrace:
    """Time-ordered simulation record of an n-step run.

    The state channels ``x, y, heading, v, av, av_lag`` hold n+1 float64
    samples at t_i = i*dt.  The command table the run was integrated from
    holds ``command_v[k]``, ``command_c[k]`` from step ``command_first[k]``
    to the next command's first step (or n), step i moving state i to state
    i+1; the firsts start at 0 and increase below n, and equal neighbours
    stay apart.  ``np.repeat([command_v, command_c], np.diff(command_first,
    append=n), axis=1)`` gives the n per-step commands.
    """

    dt: float
    x: np.ndarray
    y: np.ndarray
    heading: np.ndarray
    v: np.ndarray
    av: np.ndarray
    av_lag: np.ndarray
    command_first: np.ndarray
    command_v: np.ndarray
    command_c: np.ndarray

    def __post_init__(self):
        for name in _STATE_CHANNELS + ("command_v", "command_c"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=float))
        first = np.asarray(self.command_first)
        first = first if first.size else first.astype(np.intp)   # [] reads as float64
        object.__setattr__(self, "command_first", first)
        if self.dt <= 0:
            raise ValidationError("trace dt must be positive")
        if self.x.ndim != 1 or self.x.size == 0 or \
                any(getattr(self, name).shape != self.x.shape for name in _STATE_CHANNELS):
            raise ValidationError("state channels must be 1-D of equal, nonzero length")
        if first.dtype.kind not in "iu" or first.ndim != 1 \
                or not self.command_v.shape == self.command_c.shape == first.shape:
            raise ValidationError("command table must be 1-D columns of equal length, "
                                  "its firsts integer steps")
        n = len(self)
        if (first[0] != 0 or first[-1] >= n or (first[1:] <= first[:-1]).any()) \
                if first.size else n > 0:
            raise ValidationError("command firsts must start at step 0 and increase "
                                  f"below the trace's {n} steps")
        check_within(*((name, getattr(self, name), V_CAP + 1e-12 if name == "v" else FINITE)
                       for name in _STATE_CHANNELS), where="SimTrace")

    def __len__(self) -> int:
        return self.x.size - 1

    @property
    def states(self) -> tuple[VehicleState, ...]:
        """The state channels as VehicleState objects, built on each access.

        Only the benchmark's drift_eval counter reads this; it goes once that
        counter counts ``len(trace) + 1`` instead.
        """
        return tuple(VehicleState(*row) for row in
                     zip(*(getattr(self, name).tolist() for name in _STATE_CHANNELS)))

    def times(self) -> np.ndarray:
        """Timestamps of the states, t_i = i*dt."""
        return np.arange(self.x.size) * self.dt

    def xy(self) -> np.ndarray:
        """(n+1, 2) array of positions."""
        return np.column_stack([self.x, self.y])


_STATE_CHANNELS = ("x", "y", "heading", "v", "av", "av_lag")


def slip_yaw_rate(av_lag: float, v: float, beta: float) -> float:
    """Achieved yaw rate under the slip law: av_lag / (1 + beta * v^2 * |av_lag|).

    Attenuates the actuator's yaw rate as speed grows; identity when beta=0.
    Applies elementwise when ``av_lag`` and ``v`` are arrays.
    """
    return av_lag / (1.0 + beta * v * v * abs(av_lag))


def _segment_rows(firsts: np.ndarray, v: np.ndarray, c: np.ndarray, n: int,
                  state: VehicleState, p: SlipParams, dt: float):
    """The segments of an n-step command table (see _integrate) run from
    ``state``: equal neighbours are merged, so a segment's lag decays as one
    power over all of it.  One scalar pass carries ``v`` and ``av_lag`` from
    segment to segment.

    Returns ``(rows, seg_end, r)``: the five rows (first step, ``v``
    command, ``v`` offset from it at the segment's start, ``v*c`` command,
    ``av_lag`` offset) of one array, each segment's end step, and the lag's
    per-step ratio ``r``.
    """
    alpha = 1.0 if p.lag_tau <= 0.0 else 1.0 - math.exp(-dt / p.lag_tau)
    r = 1.0 - alpha
    new = np.ones(v.size, dtype=bool)
    new[1:] = (v[1:] != v[:-1]) | (c[1:] != c[:-1])
    seg_start, seg_v = firsts[new], v[new]
    seg_end = np.append(seg_start[1:], n)
    seg_av = seg_v * c[new]
    v_start, lag_start = [], []
    v_end, lag_end = state.v, state.av_lag
    for c_v, c_av, decay in zip(seg_v.tolist(), seg_av.tolist(),
                                np.power(r, seg_end - seg_start).tolist()):
        v_start.append(v_end)
        lag_start.append(lag_end)
        v_end = c_v + (v_end - c_v) * decay
        v_end = V_CAP if v_end > V_CAP else -V_CAP if v_end < -V_CAP else v_end
        lag_end = c_av + (lag_end - c_av) * decay
    rows = np.array([seg_start, seg_v, np.subtract(v_start, seg_v),
                     seg_av, np.subtract(lag_start, seg_av)])
    return rows, seg_end, r


def _lag_states(segs, beta: float, states: np.ndarray,
                v: np.ndarray, av_lag: np.ndarray, av: np.ndarray) -> np.ndarray:
    """Write the closed-form ``v``, ``av_lag`` and ``av`` of the increasing
    state indices ``states`` into the three output arrays; returns ``av``.

    State i follows step i - 1, so it belongs to the segment with
    ``first < i <= end``; state 0 belongs to the first, which from rest
    reads exactly 0.  The segments ``segs`` (_segment_rows) that hold a
    state are expanded to the states by run length, each run the count of
    states up to the segment's end, so no state searches for its segment.
    """
    rows, seg_end, r = segs
    s0, s1 = seg_end.searchsorted(states[0]), seg_end.searchsorted(states[-1]) + 1
    runs = states.searchsorted(seg_end[s0:s1], side="right")
    runs[1:] -= runs[:-1]   # numpy reads the overlapping operands before writing
    first, c_v, dv, c_av, dlag = np.repeat(rows[:, s0:s1], runs, axis=1)
    decay = np.power(r, states - first)
    np.clip(c_v + dv * decay, -V_CAP, V_CAP, out=v)
    np.add(c_av, dlag * decay, out=av_lag)
    av[...] = slip_yaw_rate(av_lag, v, beta)
    return av


def _integrate(state: VehicleState | None, firsts: np.ndarray, v: np.ndarray,
               c: np.ndarray, n: int, p: SlipParams, dt: float) -> SimTrace:
    """Explicit-Euler integration of an n-step command table from ``state``
    (at rest when None), in closed form.

    Command ``(v[k], c[k])`` is held from step ``firsts[k]`` (increasing
    from 0, each below n) to the next command's first step, with |v*c| within
    AV_LIMIT (a script's commands pass _check_commands; a replay's are yaw
    rates clamped to it, divided by v).  The commanded ``v`` and ``v*c``
    pass through one first-order lag, and the slip law attenuates the
    lagged yaw rate before the unicycle pose is integrated; with all-zero
    SlipParams the motion matches the command exactly.

    Under a held command the lag is linear, so ``i`` steps into a segment a
    lagged channel equals ``c + (start - c) * r**i`` with ``r = 1 - alpha``;
    the unclamped sequence is monotone, so clamping it reproduces the
    per-step V_CAP clamp.  _lag_states evaluates the states a block of
    _BLOCK_STEPS at a time.  Heading and pose are running sums, the heading
    wrapped again in each block and the pose advanced along the heading
    before the update.  The result agrees with the per-step recursion to
    within float rounding, not bit for bit.  The trace keeps the table.
    """
    state = state if state is not None else VehicleState()
    segs = _segment_rows(firsts, v, c, n, state, p, dt)

    x, y, heading, speed, av, av_lag = out = tuple(np.empty(n + 1) for _ in _STATE_CHANNELS)
    for channel, name in zip(out, _STATE_CHANNELS):
        channel[0] = getattr(state, name)
    for b0 in range(0, n, _BLOCK_STEPS):
        b1 = min(b0 + _BLOCK_STEPS, n)
        new = slice(b0 + 1, b1 + 1)     # the states these steps produce
        _lag_states(segs, p.beta, np.arange(b0 + 1, b1 + 1),
                    speed[new], av_lag[new], av[new])
        heading[new] = av[new] * dt
        np.add.accumulate(heading[b0:b1 + 1], out=heading[b0:b1 + 1])
        heading[new] = normalize_heading(heading[new])
        held = heading[b0:b1]           # each step moves along its start heading
        x[new] = speed[new] * np.cos(held) * dt
        y[new] = speed[new] * np.sin(held) * dt
        np.add.accumulate(x[b0:b1 + 1], out=x[b0:b1 + 1])
        np.add.accumulate(y[b0:b1 + 1], out=y[b0:b1 + 1])
    return SimTrace(dt, *out, command_first=firsts, command_v=v, command_c=c)


def _least_step(reached, guess, n: int) -> np.ndarray:
    """For each entry, the least step i in [0, n] at which ``reached(i)``
    holds (n where none does); ``reached`` maps an array of steps, one per
    entry, to booleans that turn true once as i grows.  Each entry starts at
    clip(ceil(guess), 0, n) and moves one step at a time until ``reached``
    agrees, so rounding in the guess never decides."""
    i = np.clip(np.ceil(guess), 0, n).astype(np.intp)
    while np.any(back := (i > 0) & reached(i - 1)):
        i -= back
    while np.any(on := (i < n) & ~reached(i)):
        i += on
    return i


def _script_runs(script: ControlScript, duration: float, dt: float):
    """A script's command table, checked: each reached segment's first
    step, ``v`` and ``c``, and the step count ``n``.

    A run lasts n = floor(duration/dt) steps, and a segment's first step is
    the least i <= n with i*dt + 1e-12 >= t_start (_least_step); a segment
    that holds no step is not reached and leaves no row.  The reached
    segments' commands pass _check_commands, whose row is then a segment
    index; a script that starts after t=0 is refused at row 0.
    """
    require_positive(duration=duration, dt=dt)
    if script.segments[0].t_start > 0:
        raise ValidationError("script must be defined from t=0", row=0)
    n = sample_count("duration", duration / dt)
    t, v, c = np.array([(s.t_start, s.v, s.c) for s in script.segments], dtype=float).T
    firsts = _least_step(lambda i: i * dt + 1e-12 >= t, (t - 1e-12) / dt, n)
    reached = firsts < np.append(firsts[1:], n)   # unreached segments check as stops
    _check_commands(np.where(reached, v, 0.0), np.where(reached, c, 0.0))
    return firsts[reached], v[reached], c[reached], n


def run_scenario(script: ControlScript, p: SlipParams, duration: float,
                 dt: float = DEFAULT_DT,
                 initial_state: VehicleState | None = None) -> SimTrace:
    """Run a scripted scenario for floor(duration/dt) steps.

    Step i holds the command of the last segment with t_start <= i*dt.
    Deterministic: the dynamics are noise-free (sensor noise is applied only
    when logs are emitted).
    """
    return _integrate(initial_state, *_script_runs(script, duration, dt), p, dt)


def _sample_logs(n: int, dt: float, p: SlipParams, joy_rate: float, imu_rate: float,
                 pad: float, firsts: np.ndarray, v: np.ndarray, c: np.ndarray, yaw_rate):
    """The joystick and IMU logs of an n-step run at ``dt``.

    ``firsts, v, c`` is the run's command table (see _integrate) and
    ``yaw_rate(states)`` gives the ``av`` of an increasing array of state
    indices (state i at i*dt).  The joystick rows' steps never decrease, so
    each command's ``v`` and ``v*c`` are repeated over its run of rows; no
    command is merged with its neighbour, so a zero ``v`` keeps its sign.
    Both logs are allocated before any state is read.  The IMU samples
    inside the run are interpolated a block of _BLOCK_STEPS samples at a
    time, each block from its samples' bracketing states only (a sample at
    s follows state j - 1, j the least step with j*dt > s: _least_step).
    np.interp reads a sample from the two states around it, so the bits are
    those of an interpolation over every state.
    """
    if n == 0:
        raise ValidationError(EMPTY_TRACE)
    if not (joy_rate > 0 and imu_rate > 0):   # NaN fails too
        raise ValidationError("sensor rates must be positive")
    if not pad >= 0:
        raise ValidationError("pad must be non-negative")

    duration = n * dt
    total = duration + 2.0 * pad
    # the run's own steps already fit an index, so a padded span that does
    # not is the padding's doing
    sample_count("pad", total / dt)

    n_joy = sample_count("joy_rate", total * joy_rate)
    t_joy = np.arange(n_joy) / joy_rate
    s = t_joy - pad
    active = (s >= 0.0) & (s < duration)
    steps = np.clip(np.floor(s / dt + 1e-9).astype(int), 0, n - 1)
    runs = steps.searchsorted(np.append(firsts[1:], n))
    runs[1:] -= runs[:-1]   # numpy reads the overlapping operands before writing
    joy_v, joy_av = np.repeat([v, v * c], runs, axis=1)
    joy_v = np.where(active, joy_v, 0.0)
    joy_av = np.where(active, joy_av, 0.0)
    del s, active, steps

    n_imu = sample_count("imu_rate", total * imu_rate)
    t_imu = np.arange(n_imu) / imu_rate
    s_imu = t_imu - pad - p.imu_delay
    av_z = np.zeros(n_imu)   # samples before or after the run read 0
    inside = range(int(np.searchsorted(s_imu, 0.0, side="left")),
                   int(np.searchsorted(s_imu, duration, side="right")))
    for k0 in inside[::_BLOCK_STEPS]:
        k1 = min(k0 + _BLOCK_STEPS, inside.stop)
        s = s_imu[k0:k1]
        i = _least_step(lambda j: j * dt > s, s / dt, n + 1) - 1
        i = i[np.diff(i, prepend=-1) != 0]   # increasing, so [i, i + 1] pairs are too
        states = np.column_stack((i, np.minimum(i + 1, n))).ravel()
        states = states[np.diff(states, prepend=-1) != 0]
        av_z[k0:k1] = np.interp(s, states * dt, yaw_rate(states))
    if p.noise_sigma > 0:
        rng = np.random.default_rng(p.seed)
        av_z += rng.normal(0.0, p.noise_sigma, size=av_z.shape)

    return datalog.JoyLog(t=t_joy, v=joy_v, av=joy_av), datalog.ImuLog(t=t_imu, av_z=av_z)


def emit_sensor_logs(trace: SimTrace, p: SlipParams,
                     joy_rate: float = DEFAULT_LOG_RATE,
                     imu_rate: float = DEFAULT_LOG_RATE, pad: float = DEFAULT_PAD):
    """Sample recorder-style joystick and IMU logs off a trace.

    The joystick log carries the commanded (v, v*c) staircase of the
    trace's command table; the IMU log carries the true yaw rate
    transport-delayed by ``p.imu_delay`` plus seeded Gaussian noise.
    ``pad`` seconds of idle rows are prepended and appended to emulate
    recorder start-up and tear-down.

    Returns:
        (JoyLog, ImuLog)
    """
    return _sample_logs(len(trace), trace.dt, p, joy_rate, imu_rate, pad,
                        trace.command_first, trace.command_v, trace.command_c,
                        lambda states: trace.av[states])


def record_logs(script: ControlScript, p: SlipParams, duration: float,
                joy_rate: float = DEFAULT_LOG_RATE, imu_rate: float = DEFAULT_LOG_RATE,
                pad: float = DEFAULT_PAD, dt: float = DEFAULT_DT):
    """``emit_sensor_logs(run_scenario(script, p, duration, dt), p, joy_rate,
    imu_rate, pad)``, bit for bit and with the same errors, without a trace.

    The joystick rows expand the script's command table, the one
    run_scenario's trace keeps, and the IMU reads ``av`` only at the states
    around its samples, through the segments and the state evaluator
    _integrate uses (heading and pose are not needed).  So time and memory
    follow the log rows and the segment count, not the 5 ms steps.

    Returns:
        (JoyLog, ImuLog)
    """
    firsts, v, c, n = table = _script_runs(script, duration, dt)
    segs = _segment_rows(*table, VehicleState(), p, dt)
    return _sample_logs(n, dt, p, joy_rate, imu_rate, pad, firsts, v, c,
                        lambda states: _lag_states(segs, p.beta, states,
                                                   *np.empty((3, states.size))))
