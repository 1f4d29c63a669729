"""Deterministic 2D kinodynamic vehicle simulator with a parametrized slip law.

The simulated plant stands in for a small teleoperated car: commands are
(linear velocity, curvature) pairs, the achieved yaw rate falls below the
commanded one as speed grows (understeer), the actuator responds with a
first-order lag, and the emulated IMU stream is transport-delayed and noisy.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import ValidationError

# Plant-wide limits observed on the real vehicle class this emulates.
V_CAP = 4.219        # m/s, hard cap on achievable linear speed
AV_LIMIT = 4.0       # rad/s, extreme range of commanded angular velocity

DEFAULT_DT = 0.005   # s, internal integration step


def normalize_heading(h: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    return math.pi - (math.pi - h) % math.tau


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValidationError(f"{name} contains non-finite value {v!r}")


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
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        known = {"beta", "lag_tau", "imu_delay", "noise_sigma", "seed"}
        unknown = set(raw) - known
        if unknown:
            raise ValidationError(f"unknown SlipParams keys: {sorted(unknown)}")
        return cls(**raw)

    def to_json(self, path: str) -> None:
        payload = {"beta": self.beta, "lag_tau": self.lag_tau,
                   "imu_delay": self.imu_delay,
                   "noise_sigma": self.noise_sigma, "seed": self.seed}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


@dataclass(frozen=True)
class ControlCommand:
    """Commanded (linear velocity, curvature) pair fed to the drive loop."""

    v: float
    c: float

    def __post_init__(self):
        _require_finite("ControlCommand", self.v, self.c)
        if abs(self.v * self.c) > AV_LIMIT + 1e-9:
            raise ValidationError(
                f"commanded angular velocity v*c={self.v * self.c:.4f} outside "
                f"[-{AV_LIMIT}, {AV_LIMIT}]")

    @property
    def av(self) -> float:
        """Commanded angular velocity v*c."""
        return self.v * self.c


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
    def from_segments(cls, segs: Sequence[tuple[float, float, float]]) -> "ControlScript":
        return cls(tuple(ScriptSegment(*s) for s in segs))

    @classmethod
    def from_json(cls, path: str) -> "ControlScript":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        segs = raw["segments"] if isinstance(raw, dict) else raw
        return cls(tuple(ScriptSegment(s["t_start"], s["v"], s["c"]) for s in segs))

    def to_json(self, path: str) -> None:
        payload = {"segments": [{"t_start": s.t_start, "v": s.v, "c": s.c}
                                for s in self.segments]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")

    def command_at(self, t: float) -> ControlCommand:
        """Command in force at time t (last segment with t_start <= t)."""
        if t < self.segments[0].t_start - 1e-12:
            raise ValidationError(f"script undefined at t={t}")
        seg = self.segments[0]
        for cand in self.segments:
            if cand.t_start <= t + 1e-12:
                seg = cand
            else:
                break
        return ControlCommand(seg.v, seg.c)

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
        """The state channels as VehicleState objects, built on each access."""
        return tuple(VehicleState(*row) for row in
                     zip(*(getattr(self, name).tolist() for name in _STATE_CHANNELS)))

    @property
    def commands(self) -> tuple[ControlCommand, ...]:
        """The command channels as ControlCommand objects, built on each access."""
        return tuple(ControlCommand(v, c) for v, c in
                     zip(self.cmd_v.tolist(), self.cmd_c.tolist()))

    @property
    def duration(self) -> float:
        return len(self) * self.dt

    def times(self) -> np.ndarray:
        """Timestamps of the states, t_i = i*dt."""
        return np.arange(self.x.size) * self.dt

    def xy(self) -> np.ndarray:
        """(n+1, 2) array of positions."""
        return np.column_stack([self.x, self.y])

    def av_true(self) -> np.ndarray:
        """True yaw rate at each state timestamp."""
        return self.av

    def v_true(self) -> np.ndarray:
        return self.v

    def av_commanded(self) -> np.ndarray:
        """Commanded angular velocity v*c for each step."""
        return self.cmd_v * self.cmd_c


_STATE_CHANNELS = ("x", "y", "heading", "v", "av", "av_lag")
_COMMAND_CHANNELS = ("cmd_v", "cmd_c")


def slip_yaw_rate(av_lag: float, v: float, beta: float) -> float:
    """Achieved yaw rate under the slip law: av_lag / (1 + beta * v^2 * |av_lag|).

    Attenuates the actuator's yaw rate as speed grows; identity when beta=0.
    """
    return av_lag / (1.0 + beta * v * v * abs(av_lag))


def _integrate(state: VehicleState | None, commands: Sequence[ControlCommand],
               cmd_of_step: np.ndarray, p: SlipParams, dt: float) -> SimTrace:
    """Explicit-Euler integration from ``state`` (at rest when None).

    Step i holds ``commands[cmd_of_step[i]]``.  The commanded linear
    velocity and angular velocity (v*c) both pass through the same
    first-order lag; the lagged yaw rate is then attenuated by the slip law
    before integrating the unicycle pose.  With all-zero SlipParams the
    executed motion matches the command exactly.  The loop runs on plain
    Python floats and only collects the results into arrays.
    """
    cmd_v = np.array([c.v for c in commands], dtype=float)[cmd_of_step]
    cmd_c = np.array([c.c for c in commands], dtype=float)[cmd_of_step]
    alpha = 1.0 if p.lag_tau <= 0.0 else 1.0 - math.exp(-dt / p.lag_tau)
    beta = p.beta
    state = state if state is not None else VehicleState()
    x, y, heading, v, av, av_lag = (getattr(state, name) for name in _STATE_CHANNELS)
    out = tuple(array("d", [value]) for value in (x, y, heading, v, av, av_lag))
    xs, ys, hs, vs, avs, lags = (a.append for a in out)
    cos, sin = math.cos, math.sin
    for c_v, c_av in zip(memoryview(cmd_v), memoryview(cmd_v * cmd_c)):
        v = v + (c_v - v) * alpha
        v = max(-V_CAP, min(V_CAP, v))
        av_lag = av_lag + (c_av - av_lag) * alpha
        av = slip_yaw_rate(av_lag, v, beta)
        x = x + v * cos(heading) * dt
        y = y + v * sin(heading) * dt
        heading = normalize_heading(heading + av * dt)
        xs(x)
        ys(y)
        hs(heading)
        vs(v)
        avs(av)
        lags(av_lag)
    return SimTrace(dt, *(np.frombuffer(a, dtype=float) for a in out),
                    cmd_v=cmd_v, cmd_c=cmd_c)


def step_dynamics(state: VehicleState, cmd: ControlCommand, p: SlipParams,
                  dt: float) -> VehicleState:
    """Advance the vehicle one explicit-Euler step under a held command."""
    if dt <= 0:
        raise ValidationError("dt must be positive")
    _require_finite("step_dynamics command", cmd.v, cmd.c)
    return _integrate(state, [cmd], np.zeros(1, dtype=int), p, dt).states[-1]


def run_scenario(script: ControlScript, p: SlipParams, duration: float,
                 dt: float = DEFAULT_DT,
                 initial_state: VehicleState | None = None) -> SimTrace:
    """Run a scripted scenario for floor(duration/dt) steps.

    Step i holds the command of the last segment with t_start <= i*dt.
    Deterministic: the dynamics are noise-free (sensor noise is applied only
    when logs are emitted).
    """
    if duration <= 0:
        raise ValidationError("duration must be positive")
    if script.segments[0].t_start > 0:
        raise ValidationError("script must be defined from t=0")
    n = int(math.floor(duration / dt + 1e-9))
    segs = script.segments
    starts = np.array([s.t_start for s in segs], dtype=float)
    seg_of_step = np.searchsorted(starts, np.arange(n) * dt + 1e-12, side="right") - 1
    reached, cmd_of_step = np.unique(seg_of_step, return_inverse=True)
    commands = [ControlCommand(segs[k].v, segs[k].c) for k in reached.tolist()]
    return _integrate(initial_state, commands, cmd_of_step, p, dt)


def emit_sensor_logs(trace: SimTrace, p: SlipParams, joy_rate: float = 40.0,
                     imu_rate: float = 40.0, pad: float = 1.0):
    """Sample recorder-style joystick and IMU logs off a trace.

    The joystick log carries the commanded (v, v*c) staircase; the IMU log
    carries the true yaw rate transport-delayed by ``p.imu_delay`` plus
    seeded Gaussian noise.  ``pad`` seconds of idle rows are prepended and
    appended to emulate recorder start-up and tear-down.

    Returns:
        (JoyLog, ImuLog)
    """
    from .datalog import JoyLog, ImuLog  # local import to avoid a cycle

    if len(trace) == 0:
        raise ValidationError("cannot emit logs from an empty trace")
    if joy_rate <= 0 or imu_rate <= 0:
        raise ValidationError("sensor rates must be positive")
    if pad < 0:
        raise ValidationError("pad must be non-negative")

    duration = trace.duration
    total = duration + 2.0 * pad
    cmd_v = trace.cmd_v
    cmd_av = trace.av_commanded()

    n_joy = int(math.floor(total * joy_rate + 1e-9))
    t_joy = np.arange(n_joy) / joy_rate
    s = t_joy - pad
    active = (s >= 0.0) & (s < duration)
    idx = np.clip(np.floor(s / trace.dt + 1e-9).astype(int), 0, len(cmd_v) - 1)
    joy_v = np.where(active, cmd_v[idx], 0.0)
    joy_av = np.where(active, cmd_av[idx], 0.0)

    state_t = trace.times()
    state_av = trace.av_true()
    n_imu = int(math.floor(total * imu_rate + 1e-9))
    t_imu = np.arange(n_imu) / imu_rate
    s_imu = t_imu - pad - p.imu_delay
    av_z = np.interp(s_imu, state_t, state_av, left=0.0, right=0.0)
    if p.noise_sigma > 0:
        rng = np.random.default_rng(p.seed)
        av_z = av_z + rng.normal(0.0, p.noise_sigma, size=av_z.shape)

    return JoyLog(t=t_joy, v=joy_v, av=joy_av), ImuLog(t=t_imu, av_z=av_z)
