"""Deterministic 2D kinodynamic vehicle simulator with a parametrized slip law.

The simulated plant stands in for a small teleoperated car: commands are
(linear velocity, curvature) pairs, the achieved yaw rate falls below the
commanded one as speed grows (understeer), the actuator responds with a
first-order lag, and the emulated IMU stream is transport-delayed and noisy.

Under a held command the lag has a closed form, so the state after any
step follows from its command segment alone.  One segment pass
(_segment_rows) and one state evaluator (_lag_states) serve two callers:
_integrate evaluates every state, a block of _BLOCK_STEPS at a time, to
build a SimTrace, and record_logs evaluates only the states its IMU
samples read, so that recording the logs of a drive holds no array per
5 ms step.  Both sample the logs with one sampler, so record_logs returns
the bits emit_sensor_logs(run_scenario(...)) does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datalog import ImuLog, JoyLog
from .errors import (ValidationError, finite_number, json_fields, require_positive,
                     seed_value)
from .fileio import read_json

# Plant-wide limits observed on the real vehicle class this emulates.
V_CAP = 4.219        # m/s, hard cap on achievable linear speed
AV_LIMIT = 4.0       # rad/s, extreme range of commanded angular velocity
EPS_V = 0.05         # m/s, below this speed curvature is defined as 0

DEFAULT_DT = 0.005   # s, internal integration step
DEFAULT_LOG_RATE = 40.0  # Hz, joystick and IMU recorder rate
DEFAULT_PAD = 1.0    # s, idle recording before and after a drive
_BLOCK_STEPS = 4096  # steps per integrator block, IMU samples per sampler block


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


def _require_finite(name: str, *values: float, row: int | None = None) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValidationError(f"{name} contains non-finite value {v!r}", row=row)


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
        _require_finite("VehicleState", self.x, self.y, self.heading,
                        self.v, self.av, self.av_lag)
        if abs(self.v) > V_CAP + 1e-12:
            raise ValidationError(f"|v|={abs(self.v)} exceeds cap {V_CAP}")


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
        _require_finite("SlipParams", self.beta, self.lag_tau,
                        self.imu_delay, self.noise_sigma)
        if self.beta < 0 or self.lag_tau < 0 or self.imu_delay < 0 \
                or self.noise_sigma < 0:
            raise ValidationError("SlipParams fields must be non-negative")

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
        try:
            return cls(**kwargs)
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None


def _check_commands(v: np.ndarray, c: np.ndarray) -> None:
    """Check arrays of (v, c) commands in one vectorised test: each value
    finite and |v*c| within AV_LIMIT.  The first failing row words the error
    and is its ``row``."""
    ok = np.isfinite(v) & np.isfinite(c)
    with np.errstate(over="ignore"):   # an overflowing v*c fails the bound
        ok[ok] = np.abs(v[ok] * c[ok]) <= AV_LIMIT + 1e-9
    if not np.all(ok):
        k = int(np.argmin(ok))
        v_k, c_k = float(v[k]), float(c[k])
        _require_finite("ControlCommand", v_k, c_k, row=k)
        raise ValidationError(f"commanded angular velocity v*c={v_k * c_k:.4f} "
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
        try:
            return cls(tuple(out))
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None

    @property
    def t_end(self) -> float:
        return self.segments[-1].t_start


@dataclass(frozen=True, eq=False)
class SimTrace:
    """Time-ordered simulation record, one float64 array per channel.

    The state channels ``x, y, heading, v, av, av_lag`` hold n+1 samples at
    t_i = i*dt; the command channels ``cmd_v, cmd_c`` hold the n commands,
    command i being held from state i to state i+1.
    """

    dt: float
    x: np.ndarray
    y: np.ndarray
    heading: np.ndarray
    v: np.ndarray
    av: np.ndarray
    av_lag: np.ndarray
    cmd_v: np.ndarray
    cmd_c: np.ndarray

    def __post_init__(self):
        for name in _STATE_CHANNELS + _COMMAND_CHANNELS:
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=float))
        if self.dt <= 0:
            raise ValidationError("trace dt must be positive")
        n = self.cmd_v.shape
        if self.cmd_v.ndim != 1 or self.cmd_c.shape != n:
            raise ValidationError("command channels must be 1-D of equal length")
        if any(getattr(self, name).shape != (n[0] + 1,) for name in _STATE_CHANNELS):
            raise ValidationError("trace must satisfy |states| = |commands| + 1")
        for name in _STATE_CHANNELS:
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValidationError(f"SimTrace {name} contains non-finite values")
        if np.max(np.abs(self.v)) > V_CAP + 1e-12:
            raise ValidationError(f"|v|={np.max(np.abs(self.v))} exceeds cap {V_CAP}")

    def __len__(self) -> int:
        return self.cmd_v.size

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
_COMMAND_CHANNELS = ("cmd_v", "cmd_c")


def slip_yaw_rate(av_lag: float, v: float, beta: float) -> float:
    """Achieved yaw rate under the slip law: av_lag / (1 + beta * v^2 * |av_lag|).

    Attenuates the actuator's yaw rate as speed grows; identity when beta=0.
    Applies elementwise when ``av_lag`` and ``v`` are arrays.
    """
    return av_lag / (1.0 + beta * v * v * abs(av_lag))


def _new_runs(cmd_v: np.ndarray, cmd_c: np.ndarray) -> np.ndarray:
    """Where each run of equal (v, c) commands begins.  Equal neighbours
    form one segment, so its lag decays as one power over the whole run."""
    new = np.ones(cmd_v.size, dtype=bool)
    new[1:] = (cmd_v[1:] != cmd_v[:-1]) | (cmd_c[1:] != cmd_c[:-1])
    return new


def _segment_rows(seg_start: np.ndarray, seg_v: np.ndarray, seg_c: np.ndarray, n: int,
                  state: VehicleState, p: SlipParams, dt: float):
    """The scalar pass over the segments of an n-step run from ``state``.

    Returns the five rows (first step, ``v`` command, ``v`` offset from it
    at the segment's start, ``v*c`` command, ``av_lag`` offset) of one
    array, each segment's end step, and the lag's per-step ratio ``r``.
    """
    alpha = 1.0 if p.lag_tau <= 0.0 else 1.0 - math.exp(-dt / p.lag_tau)
    r = 1.0 - alpha
    seg_end = np.append(seg_start[1:], n)
    seg_av = seg_v * seg_c
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


def _lag_states(rows: np.ndarray, states: np.ndarray, r: float, beta: float,
                v: np.ndarray, av_lag: np.ndarray, av: np.ndarray) -> None:
    """Write the closed-form ``v``, ``av_lag`` and ``av`` of ``states`` (state
    i follows step i - 1) into the three output arrays; ``rows`` holds the
    _segment_rows column of each state's segment."""
    first, c_v, dv, c_av, dlag = rows
    decay = np.power(r, states - first)
    np.clip(c_v + dv * decay, -V_CAP, V_CAP, out=v)
    np.add(c_av, dlag * decay, out=av_lag)
    av[...] = slip_yaw_rate(av_lag, v, beta)


def _integrate(state: VehicleState | None, cmd_v: np.ndarray, cmd_c: np.ndarray,
               p: SlipParams, dt: float) -> SimTrace:
    """Explicit-Euler integration from ``state`` (at rest when None), in closed form.

    Step i holds the command ``(cmd_v[i], cmd_c[i])``; callers pass
    commands that passed _check_commands.  The commanded linear
    velocity and angular velocity (v*c) both pass through the same
    first-order lag; the lagged yaw rate is then attenuated by the slip law
    before integrating the unicycle pose.  With all-zero SlipParams the
    executed motion matches the command exactly.

    Under a held command the lag is linear, so ``i`` steps into a segment
    (a run of steps with equal command values, _new_runs) a lagged channel
    equals ``c + (start - c) * r**i`` with ``r = 1 - alpha``; the unclamped
    sequence is monotone, so clamping it reproduces the per-step V_CAP
    clamp.  One scalar pass over the segments (_segment_rows) carries ``v``
    and ``av_lag`` from segment to segment.  The steps are then evaluated in
    blocks of _BLOCK_STEPS.  In a block, each segment's rows are expanded to
    its steps by run length (one ``np.repeat``, runs clipped to the block),
    so no step searches for its segment and no array is longer than a
    block, and _lag_states gives the block's ``v``, ``av_lag`` and ``av``.
    record_logs evaluates the same two helpers at only the states its IMU
    samples read.  Heading and pose are running sums, the heading wrapped
    again in each block and the pose advanced along the heading before the
    update.  The result agrees with the per-step recursion to within float
    rounding, not bit for bit; the run-length expansion gives the bits the
    per-step segment search gave.
    """
    n = cmd_v.size
    state = state if state is not None else VehicleState()
    seg_start = np.flatnonzero(_new_runs(cmd_v, cmd_c))
    seg_rows, seg_end, r = _segment_rows(seg_start, cmd_v[seg_start], cmd_c[seg_start],
                                         n, state, p, dt)

    x, y, heading, v, av, av_lag = out = tuple(np.empty(n + 1) for _ in _STATE_CHANNELS)
    for channel, name in zip(out, _STATE_CHANNELS):
        channel[0] = getattr(state, name)
    seg_first = np.searchsorted(seg_start, np.arange(0, n, _BLOCK_STEPS), side="right") - 1
    for s0, b0 in zip(seg_first.tolist(), range(0, n, _BLOCK_STEPS)):
        b1 = min(b0 + _BLOCK_STEPS, n)
        s1 = s0 + int(np.searchsorted(seg_start[s0:], b1))
        runs = np.minimum(seg_end[s0:s1], b1) - np.maximum(seg_start[s0:s1], b0)
        new = slice(b0 + 1, b1 + 1)     # the states these steps produce
        _lag_states(np.repeat(seg_rows[:, s0:s1], runs, axis=1), np.arange(b0 + 1, b1 + 1),
                    r, p.beta, v[new], av_lag[new], av[new])
        heading[new] = av[new] * dt
        np.add.accumulate(heading[b0:b1 + 1], out=heading[b0:b1 + 1])
        heading[new] = normalize_heading(heading[new])
        held = heading[b0:b1]           # each step moves along its start heading
        x[new] = v[new] * np.cos(held) * dt
        y[new] = v[new] * np.sin(held) * dt
        np.add.accumulate(x[b0:b1 + 1], out=x[b0:b1 + 1])
        np.add.accumulate(y[b0:b1 + 1], out=y[b0:b1 + 1])
    return SimTrace(dt, *out, cmd_v=cmd_v, cmd_c=cmd_c)


def _script_runs(script: ControlScript, duration: float, dt: float):
    """A script's steps, checked: each segment's step count, ``v`` and ``c``.

    A run lasts floor(duration/dt) steps, and step i holds the command of the
    last segment with t_start <= i*dt.  The reached segments' commands pass
    _check_commands, whose row is then a segment index.
    """
    require_positive(duration=duration, dt=dt)
    if script.segments[0].t_start > 0:
        raise ValidationError("script must be defined from t=0")
    n = sample_count("duration", duration / dt)
    # Each segment's first step: the least i <= n with i*dt + 1e-12 >= t_start,
    # found from a ceil and fixed up against that same float expression.
    firsts = []
    for t_start in (s.t_start for s in script.segments):
        g = (t_start - 1e-12) / dt
        i = 0 if not g > 0 else n if g >= n else math.ceil(g)
        while i > 0 and (i - 1) * dt + 1e-12 >= t_start:
            i -= 1
        while i < n and i * dt + 1e-12 < t_start:
            i += 1
        firsts.append(i)
    runs = np.diff(firsts + [n])
    v, c = np.array([(s.v, s.c) for s in script.segments], dtype=float).T
    reached = runs > 0   # unreached segments check as stops: a row is a segment index
    _check_commands(np.where(reached, v, 0.0), np.where(reached, c, 0.0))
    return runs, v, c


def run_scenario(script: ControlScript, p: SlipParams, duration: float,
                 dt: float = DEFAULT_DT,
                 initial_state: VehicleState | None = None) -> SimTrace:
    """Run a scripted scenario for floor(duration/dt) steps.

    Step i holds the command of the last segment with t_start <= i*dt.
    Deterministic: the dynamics are noise-free (sensor noise is applied only
    when logs are emitted).
    """
    runs, v, c = _script_runs(script, duration, dt)
    return _integrate(initial_state, np.repeat(v, runs), np.repeat(c, runs), p, dt)


def _last_state_at(s: np.ndarray, n: int, dt: float) -> np.ndarray:
    """For each time ``s`` in [0, n*dt], the last of the states at i*dt
    (i = 0..n) that is not after it: the left end of the interval np.interp
    reads ``s`` from."""
    i = np.minimum(np.floor(s / dt), n).astype(np.intp)
    while np.any(late := i * dt > s):
        i -= late
    while np.any(early := (i < n) & ((i + 1) * dt <= s)):
        i += early
    return i


def _sample_logs(n: int, dt: float, p: SlipParams, joy_rate: float, imu_rate: float,
                 pad: float, command, yaw_rate):
    """The joystick and IMU logs of an n-step run at ``dt``.

    ``command(steps)`` gives the ``(v, v*c)`` commands of an array of step
    indices, ``yaw_rate(states)`` the ``av`` of an increasing array of state
    indices (state i at i*dt).  Both logs are allocated before any state is
    read.  The IMU samples inside the run are interpolated a block of
    _BLOCK_STEPS samples at a time, each block from its samples' bracketing
    states only: np.interp reads a sample from the two states around it, so
    the bits are those of an interpolation over every state.
    """
    if n == 0:
        raise ValidationError("cannot emit logs from an empty trace")
    if joy_rate <= 0 or imu_rate <= 0:
        raise ValidationError("sensor rates must be positive")
    if pad < 0:
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
    joy_v, joy_av = command(np.clip(np.floor(s / dt + 1e-9).astype(int), 0, n - 1))
    joy_v = np.where(active, joy_v, 0.0)
    joy_av = np.where(active, joy_av, 0.0)
    del s, active

    n_imu = sample_count("imu_rate", total * imu_rate)
    t_imu = np.arange(n_imu) / imu_rate
    s_imu = t_imu - pad - p.imu_delay
    av_z = np.zeros(n_imu)   # samples before or after the run read 0
    inside = range(int(np.searchsorted(s_imu, 0.0, side="left")),
                   int(np.searchsorted(s_imu, duration, side="right")))
    for k0 in inside[::_BLOCK_STEPS]:
        k1 = min(k0 + _BLOCK_STEPS, inside.stop)
        i = _last_state_at(s_imu[k0:k1], n, dt)
        i = i[np.diff(i, prepend=-1) != 0]   # increasing, so [i, i + 1] pairs are too
        states = np.column_stack((i, np.minimum(i + 1, n))).ravel()
        states = states[np.diff(states, prepend=-1) != 0]
        av_z[k0:k1] = np.interp(s_imu[k0:k1], states * dt, yaw_rate(states))
    if p.noise_sigma > 0:
        rng = np.random.default_rng(p.seed)
        av_z += rng.normal(0.0, p.noise_sigma, size=av_z.shape)

    return JoyLog(t=t_joy, v=joy_v, av=joy_av), ImuLog(t=t_imu, av_z=av_z)


def emit_sensor_logs(trace: SimTrace, p: SlipParams,
                     joy_rate: float = DEFAULT_LOG_RATE,
                     imu_rate: float = DEFAULT_LOG_RATE, pad: float = DEFAULT_PAD):
    """Sample recorder-style joystick and IMU logs off a trace.

    The joystick log carries the commanded (v, v*c) staircase; the IMU log
    carries the true yaw rate transport-delayed by ``p.imu_delay`` plus
    seeded Gaussian noise.  ``pad`` seconds of idle rows are prepended and
    appended to emulate recorder start-up and tear-down.

    Returns:
        (JoyLog, ImuLog)
    """
    def command(steps):
        v = trace.cmd_v[steps]
        return v, v * trace.cmd_c[steps]

    return _sample_logs(len(trace), trace.dt, p, joy_rate, imu_rate, pad,
                        command, lambda states: trace.av[states])


def record_logs(script: ControlScript, p: SlipParams, duration: float,
                joy_rate: float = DEFAULT_LOG_RATE, imu_rate: float = DEFAULT_LOG_RATE,
                pad: float = DEFAULT_PAD, dt: float = DEFAULT_DT):
    """``emit_sensor_logs(run_scenario(script, p, duration, dt), p, joy_rate,
    imu_rate, pad)``, bit for bit and with the same errors, without a trace.

    Joystick rows read their command from the script's segments, and the IMU
    reads ``av`` only at the states around its samples, from the closed form
    that _integrate evaluates a block at a time (_segment_rows, then
    _lag_states; heading and pose are not needed).  So time and memory
    follow the log rows and the segment count, not the 5 ms steps.

    Returns:
        (JoyLog, ImuLog)
    """
    runs, v, c = _script_runs(script, duration, dt)
    n = int(runs.sum())
    firsts = np.cumsum(runs) - runs

    def command(steps):
        seg = np.searchsorted(firsts, steps, side="right") - 1
        return v[seg], v[seg] * c[seg]

    reached = runs > 0
    seg_v, seg_c = v[reached], c[reached]
    new = _new_runs(seg_v, seg_c)
    seg_start = firsts[reached][new]
    seg_rows, _, r = _segment_rows(seg_start, seg_v[new], seg_c[new], n, VehicleState(),
                                   p, dt)

    def yaw_rate(states):
        av = np.zeros(states.size)   # state 0 is the start at rest
        k = int(states[0] == 0)
        steps = states[k:] - 1
        rows = seg_rows[:, np.searchsorted(seg_start, steps, side="right") - 1]
        _lag_states(rows, states[k:], r, p.beta, np.empty(steps.size),
                    np.empty(steps.size), av[k:])
        return av

    return _sample_logs(n, dt, p, joy_rate, imu_rate, pad, command, yaw_rate)
