"""Array paths against the per-object loops they replaced, 100+ seeded cases each.

The simulator oracles are verbatim copies of the per-step loops that
built one VehicleState per step; they look up each step's script segment
with a verbatim copy of the per-step search and hold each command as a plain
test-side tuple.  The closed-form integrator sums in another order, so its
state channels must match them within SIM_TOL (heading modulo 2*pi), and
its command table, repeated to the steps (conftest.step_commands), their
commands exactly; a one-step run must match one reference step.  A
corrected replay asks the model once for all ticks, so its corrected
curvatures match the one-query-per-tick loop within CMD_TOL.  That loop
keeps a verbatim copy of the scalar speed guard rather than calling the
production one; it reads row (j*stride) mod n at tick j itself and starts
at rest, as every replay does.  The integrator bit oracle is a verbatim
copy of the closed-form integrator that looked up each step's segment with
searchsorted and wrapped the heading with %: the run-length expansion and
the fmod wrap must reproduce its six state channels bit for bit.
The sensor-log oracle is a verbatim copy of the sampler that interpolated
the IMU over every state of a trace and read every step's command:
record_logs, which builds no trace, and emit_sensor_logs, which repeat the
command table over the joystick rows, must reproduce its five log arrays
bit for bit, or raise the same error.
The drift oracle scores one state at a time, read from the
trace's channel arrays, with the scalar geometry references in conftest,
which work in Python floats and build their own corners, frames and gate
point; the drift sweep must match it within 1e-12 m on 1,400 seeded cases.
On the canned drift runs it must also reproduce a verbatim copy of the
(n, 4) sweep that computed a corner-to-edge box distance for every disjoint
state, with verbatim copies of its helpers: bit for bit on a course the run
clears, within 1e-12 m where it overlaps a box.
The trainer oracle is a verbatim copy of the per-tensor backprop, AdamW step
and training loop; the in-place flat-vector trainer must reproduce its
weights and loss curves bit for bit, also once the loop's moments have
gone subnormal where the trainer flushes them.  The delay-scan oracle is a
verbatim copy of the per-candidate loop (mask, gather, np.interp, np.mean);
the blocked scan must reproduce its delays, objectives and +inf positions
bit for bit on one, two and three threads, and estimate_delay, which scores
exactly only the candidates a strided lower bound cannot rule out, must
return the same estimate as that loop's argmin, or raise the same error
class, also for logs at the edges of the yaw-rate domain, without a warning.
The table oracles are verbatim copies of the writer that called
repr once per cell and of the per-line reader: the deduplicating writer must
reproduce its bytes, and on every mutated table the one-pass reader must
return the same array bytes or raise the same ParseError.
"""

import math
import warnings
from array import array
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import pytest

from ikdlab.evalkit import (ClearanceReport, DriftScenario, Rect, _gate_segment,
                            drift_eval, TURN_AV_FLOOR)
from ikdlab.ikd import AV_LIMIT, correct
from ikdlab import align as align_mod, fileio, mlp as mlp_mod
from ikdlab.align import (DEFAULT_DELAY_STEP, DELAY_MAX, DELAY_MIN, MIN_OVERLAP,
                          AlignedDataset, build_dataset, prune_zero_curvature,
                          scan_delays)
from ikdlab.datalog import ImuLog, JoyLog, trim_idle
from ikdlab.fileio import ROW_BLOCK, read_table, write_table
from ikdlab.mlp import (N_PARAMS, AdamState, LossCurve, MlpParams, TrainConfig,
                        _FIELDS, _SHAPES, _dataset_xy, _forward_batch, _views,
                        adamw_step, forward, init_params, loss_and_grads, train)
from ikdlab.replay import DEFAULT_REPLAY_RATE, CommandBuffer, execute_replay
from ikdlab.scenarios import (drift_buffer, loose_scenario, sweep_duration, tight_scenario,
                              training_sweep_script)
from ikdlab.simcore import (DEFAULT_DT, EPS_V, V_CAP, YAW_RATE_DOMAIN, ControlScript, SimTrace,
                            SlipParams, VehicleState, _integrate, _least_step,
                            _script_runs, emit_sensor_logs, normalize_heading,
                            record_logs, run_scenario, sample_count, slip_yaw_rate)
from ikdlab.errors import (InsufficientOverlapError, ParseError, ValidationError,
                           require_non_negative, require_positive)

from conftest import (FloatRect, build_gain_model, make_script,
                      point_rect_signed_distance, rect_local, rect_rect_signed_distance,
                      segments_intersect, step_commands, write_new, zero_commands)

CHANNELS = ("x", "y", "heading", "v", "av", "av_lag")
SIM_TOL = 1e-9   # closed form vs per-step recursion, per channel
CMD_TOL = 1e-12  # batched vs one-row correction, corrected curvature


# --- reference loops (the per-object implementation, kept verbatim) ---------

class Command(NamedTuple):
    """A commanded (linear velocity, curvature) pair, held for one step."""

    v: float
    c: float

    @property
    def av(self) -> float:
        """Commanded angular velocity v*c."""
        return self.v * self.c


def reference_command_at(script: ControlScript, t: float) -> Command:
    """Command in force at time t (last segment with t_start <= t)."""
    if t < script.segments[0].t_start - 1e-12:
        raise ValidationError(f"script undefined at t={t}")
    seg = script.segments[0]
    for cand in script.segments:
        if cand.t_start <= t + 1e-12:
            seg = cand
        else:
            break
    return Command(seg.v, seg.c)


def reference_step_dynamics(state: VehicleState, cmd: Command,
                            p: SlipParams, dt: float) -> VehicleState:
    if dt <= 0:
        raise ValidationError("dt must be positive")
    if not (math.isfinite(cmd.v) and math.isfinite(cmd.c)):
        raise ValidationError("step_dynamics command contains a non-finite value")

    alpha = 1.0 if p.lag_tau <= 0.0 else 1.0 - math.exp(-dt / p.lag_tau)
    v = state.v + (cmd.v - state.v) * alpha
    v = max(-V_CAP, min(V_CAP, v))
    av_lag = state.av_lag + (cmd.av - state.av_lag) * alpha
    av = slip_yaw_rate(av_lag, v, p.beta)

    x = state.x + v * math.cos(state.heading) * dt
    y = state.y + v * math.sin(state.heading) * dt
    heading = normalize_heading(state.heading + av * dt)
    return VehicleState(x=x, y=y, heading=heading, v=v, av=av, av_lag=av_lag)


def reference_run_scenario(script, p, duration, dt=DEFAULT_DT,
                           initial_state=None):
    n = int(math.floor(duration / dt + 1e-9))
    state = initial_state if initial_state is not None else VehicleState()
    states = [state]
    commands = []
    for i in range(n):
        cmd = reference_command_at(script, i * dt)
        state = reference_step_dynamics(state, cmd, p, dt)
        states.append(state)
        commands.append(cmd)
    return states, commands


def reference_c_from_av_v(av: float, v: float, eps_v: float = EPS_V) -> float:
    """Curvature av/v, guarded to 0 when |v| < eps_v."""
    if not (math.isfinite(av) and math.isfinite(v)):
        raise ValidationError("av and v must be finite")
    if abs(v) < eps_v:
        return 0.0
    return av / v


def reference_execute_replay(rows, p, model=None, rate=20.0, duration=1.0,
                             dt=DEFAULT_DT, stride=1):
    n = int(math.floor(duration / dt + 1e-9))
    state = VehicleState()
    states = [state]
    commands = []
    held = None
    last_tick = -1
    for i in range(n):
        tick = int(math.floor(i * dt * rate + 1e-9))
        if tick > last_tick:
            v, av = rows[(tick * stride) % len(rows)]
            av = max(-AV_LIMIT, min(AV_LIMIT, av))  # actuator command range
            c = reference_c_from_av_v(av, v)
            if model is not None:
                c = correct(model, v, c).c_corrected
            held = Command(v, c)
            last_tick = tick
        state = reference_step_dynamics(state, held, p, dt)
        states.append(state)
        commands.append(held)
    return states, commands


def reference_gate_segment(scenario: DriftScenario):
    """The gate, in floats: the first cone and the first box's point nearest it."""
    if not scenario.cones or not scenario.boxes:
        return None
    cone, box = scenario.cones[0], scenario.boxes[0]
    qx, qy = rect_local(cone, box)
    qx = min(max(qx, -box.w / 2.0), box.w / 2.0)
    qy = min(max(qy, -box.h / 2.0), box.h / 2.0)
    ca, sa = math.cos(box.angle), math.sin(box.angle)
    return cone, (box.cx + qx * ca - qy * sa, box.cy + qx * sa + qy * ca)


def reference_drift_eval(trace: SimTrace, scenario: DriftScenario):
    min_clearance = math.inf
    for x, y, heading in zip(trace.x.tolist(), trace.y.tolist(),
                             trace.heading.tolist()):
        car = FloatRect(x, y, scenario.car_length, scenario.car_width, heading)
        for box in scenario.boxes:
            min_clearance = min(min_clearance, rect_rect_signed_distance(car, box))
        for cone in scenario.cones:
            min_clearance = min(min_clearance, point_rect_signed_distance(cone, car))
    collided = bool(min_clearance < 0.0)

    min_turn_radius = math.inf
    for v, av in zip(trace.v.tolist(), trace.av.tolist()):
        if abs(av) > TURN_AV_FLOOR:
            min_turn_radius = min(min_turn_radius, abs(v) / abs(av))

    gate = reference_gate_segment(scenario)
    crossed = False
    if gate is not None:
        g0, g1 = gate
        xy = trace.xy()
        for i in range(len(xy) - 1):
            if segments_intersect(xy[i], xy[i + 1], g0, g1):
                crossed = True
                break
    return min_clearance, collided, min_turn_radius, bool(crossed and not collided)


# --- helpers -----------------------------------------------------------------

def assert_close_channels(trace: SimTrace, states):
    """Each state channel of ``trace`` within SIM_TOL of the reference
    states, heading modulo 2*pi."""
    for name in CHANNELS:
        ref = np.array([getattr(s, name) for s in states], dtype=float)
        got = getattr(trace, name)
        assert got.shape == ref.shape, name
        diff = got - ref
        if name == "heading":
            diff = (diff + math.pi) % math.tau - math.pi
        assert np.all(np.abs(diff) <= SIM_TOL), (name, np.max(np.abs(diff)))


def assert_matches_loop(trace: SimTrace, states, commands):
    assert_close_channels(trace, states)
    assert np.all(np.abs(trace.heading[1:]) <= math.pi)   # wrapped every step
    cmd_v, cmd_c = step_commands(trace)
    assert cmd_v.tobytes() == np.array([c.v for c in commands], dtype=float).tobytes()
    assert cmd_c.tobytes() == np.array([c.c for c in commands], dtype=float).tobytes()


def random_plant(rng) -> SlipParams:
    return SlipParams(beta=float(rng.choice([0.0, rng.uniform(0.0, 0.1)])),
                      lag_tau=float(rng.choice([0.0, rng.uniform(0.01, 0.5)])),
                      noise_sigma=0.0)


def random_state(rng) -> VehicleState:
    if rng.random() < 0.3:
        return VehicleState()
    return VehicleState(x=float(rng.uniform(-5, 5)), y=float(rng.uniform(-5, 5)),
                        heading=float(rng.uniform(-math.pi, math.pi)),
                        v=float(rng.uniform(-V_CAP, V_CAP)),
                        av=float(rng.uniform(-3, 3)),
                        av_lag=float(rng.uniform(-4, 4)))


def random_dt(rng) -> float:
    return DEFAULT_DT if rng.random() < 0.5 else float(rng.uniform(0.001, 0.02))


# --- simulator oracles -------------------------------------------------------

def test_segment_first_steps_match_per_step_search_300_scripts():
    # Starts on a step time, 1e-12 or a few ulps either side of one, before
    # t = 0, past the last step and far past it: run_scenario's commands are
    # the per-step searchsorted lookup's, and so are the commands it checks.
    rng = np.random.default_rng(17)
    seen = {"on a step": 0, "near a step": 0, "negative": 0, "past the end": 0,
            "unreached": 0}
    for _ in range(300):
        dt = random_dt(rng)
        n = int(rng.integers(1, 3000))
        steps = np.unique(rng.integers(-50, n + 50, int(rng.integers(1, 40))))
        starts = steps * dt
        nudge = rng.choice([0.0, 1e-12, -1e-12, 2e-12, -2e-12], steps.size)
        starts = np.where(rng.random(steps.size) < 0.5, starts + nudge,
                          starts + rng.integers(-3, 4, steps.size) * np.spacing(starts))
        starts = tuple(np.unique(starts).tolist())
        if starts[0] > 0:
            starts = (0.0, *starts)
        if rng.random() < 0.1:
            starts = (*starts, 1e300)
        v = rng.uniform(-2.0, 6.0, len(starts))
        c = rng.uniform(-1.0, 1.0, len(starts)) * np.minimum(1.0, AV_LIMIT / np.abs(v))
        if len(starts) > 1 and rng.random() < 0.2:
            c[-1] = 10.0  # an out-of-range command is only refused if reached
        script = make_script([(float(t), float(a), float(b))
                              for t, a, b in zip(starts, v, c)])
        seg = np.searchsorted(np.array(starts), np.arange(n) * dt + 1e-12, side="right") - 1
        duration = (n + 0.5) * dt
        if abs(v[-1] * c[-1]) > AV_LIMIT and seg[-1] == len(starts) - 1:
            with pytest.raises(ValidationError, match="commanded angular velocity"):
                run_scenario(script, SlipParams.ideal(), duration, dt=dt)
            continue
        trace = run_scenario(script, SlipParams.ideal(), duration, dt=dt)
        assert len(trace) == n
        cmd_v, cmd_c = step_commands(trace)
        assert np.array_equal(cmd_v, v[seg]) and np.array_equal(cmd_c, c[seg])
        near = np.abs(np.array(starts) - np.round(np.array(starts) / dt) * dt)
        seen["on a step"] += bool(np.any(near == 0))
        seen["near a step"] += bool(np.any((near > 0) & (near < 1e-11)))
        seen["negative"] += starts[0] < 0
        seen["past the end"] += starts[-1] > n * dt
        seen["unreached"] += np.bincount(seg, minlength=len(starts)).min() == 0
    assert min(seen.values()) >= 20, seen


def test_run_scenario_matches_per_step_loop_100_cases():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        k = int(rng.integers(1, 7))
        p, dt, state = random_plant(rng), random_dt(rng), random_state(rng)
        # segment lengths on the step grid, off it, or shorter than one step
        gaps = [(int(rng.integers(1, 100)) * dt, rng.uniform(0.01, 1.0),
                 rng.uniform(0.0005, 0.004))[int(rng.integers(3))]
                for _ in range(k - 1)]
        starts = np.concatenate([[0.0], np.cumsum(gaps)])
        if rng.random() < 0.2:
            starts -= float(rng.uniform(0, 0.5))
        v = rng.uniform(-2.0, 6.0, k)          # |v| > V_CAP exercises the clamp
        c = rng.uniform(-1.0, 1.0, k) * np.minimum(1.0, AV_LIMIT / np.abs(v))
        script = make_script(
            [(float(t), float(a), float(b)) for t, a, b in zip(starts, v, c)])
        duration = float(rng.uniform(0.01, 3.0))
        trace = run_scenario(script, p, duration, dt=dt, initial_state=state)
        states, commands = reference_run_scenario(script, p, duration, dt, state)
        assert_matches_loop(trace, states, commands)


def test_segment_start_just_above_step_time_takes_effect_at_that_step():
    # 11 * 0.015 = 0.16499999999999998 < 0.165: the 1e-12 tolerance of the
    # segment lookup switches the command at step 11, not step 12.
    script = make_script([(0.0, 1.0, 0.1), (0.165, 2.0, -0.3)])
    trace = run_scenario(script, SlipParams(), 0.5, dt=0.015)
    states, commands = reference_run_scenario(script, SlipParams(), 0.5, 0.015)
    assert_matches_loop(trace, states, commands)
    cmd_v, _ = step_commands(trace)
    assert cmd_v[11] == 2.0 and cmd_v[10] == 1.0


def test_execute_replay_matches_per_step_loop_100_cases():
    rng = np.random.default_rng(77)
    for case in range(100):
        m = int(rng.integers(1, 30))
        v = rng.uniform(-0.5, 5.0, m)
        v[rng.random(m) < 0.15] = 0.01       # below the speed guard
        av = rng.uniform(-6.0, 6.0, m)        # beyond AV_LIMIT: clamped
        rows = list(zip(v.tolist(), av.tolist()))
        model = (None, build_gain_model(float(rng.uniform(0.5, 1.5))),
                 init_params(rng))[case % 3]
        rate = float(rng.choice([20.0, rng.uniform(2.0, 450.0)]))
        stride = int(rng.integers(1, 4))
        p, dt = random_plant(rng), random_dt(rng)
        duration = float(rng.uniform(0.01, 3.0))
        trace = execute_replay(CommandBuffer(rows=rows), p, model=model, rate=rate,
                               duration=duration, dt=dt, stride=stride)
        states, commands = reference_execute_replay(
            rows, p, model=model, rate=rate, duration=duration, dt=dt, stride=stride)
        if model is None:
            assert_matches_loop(trace, states, commands)
        else:   # one batched forward pass vs one pass per tick
            assert_close_channels(trace, states)
            cmd_v, cmd_c = step_commands(trace)
            assert cmd_v.tobytes() == np.array([c.v for c in commands],
                                               dtype=float).tobytes()
            ref_c = np.array([c.c for c in commands], dtype=float)
            assert np.all(np.abs(cmd_c - ref_c) <= CMD_TOL)


def test_first_300_s_of_training_sweep_match_per_step_loop():
    script, p = training_sweep_script(), SlipParams()
    trace = run_scenario(script, p, 300.0)
    states, commands = reference_run_scenario(script, p, 300.0)
    assert len(trace) == 60000
    assert_matches_loop(trace, states, commands)


def test_ideal_plant_matches_per_step_loop():
    # lag_tau = 0 gives r = 0: every lagged channel jumps to its command.
    rng = np.random.default_rng(5)
    for _ in range(20):
        k = int(rng.integers(1, 6))
        v = rng.uniform(-1.0, 4.0, k)
        c = rng.uniform(-1.0, 1.0, k) * np.minimum(1.0, AV_LIMIT / np.abs(v))
        script = make_script(
            [(0.2 * i, float(a), float(b)) for i, (a, b) in enumerate(zip(v, c))])
        state = random_state(rng)
        trace = run_scenario(script, SlipParams.ideal(), 1.0, initial_state=state)
        states, commands = reference_run_scenario(script, SlipParams.ideal(), 1.0,
                                                  initial_state=state)
        assert_matches_loop(trace, states, commands)
        assert np.array_equal(trace.v[1:], step_commands(trace)[0])


def test_segments_starting_above_v_cap_match_per_step_loop():
    # The state starts just above the cap (VehicleState allows 1e-12), the
    # first command holds the speed above it, the next pulls it below, and
    # the last pushes it past the cap again from below.
    script = make_script([(0.0, 5.0, 0.3), (0.4, 1.0, -0.5), (0.9, 6.0, 0.1)])
    for sign in (1.0, -1.0):
        state = VehicleState(v=sign * (V_CAP + 1e-12), av_lag=1.0)
        seg_script = make_script(
            [(s.t_start, sign * s.v, s.c) for s in script.segments])
        for p in (SlipParams(), SlipParams(lag_tau=0.02),
                  SlipParams(beta=0.0, lag_tau=0.0)):
            trace = run_scenario(seg_script, p, 1.5, initial_state=state)
            states, commands = reference_run_scenario(seg_script, p, 1.5,
                                                      initial_state=state)
            assert_matches_loop(trace, states, commands)
            assert np.max(np.abs(trace.v[1:])) == V_CAP


def test_one_step_run_matches_reference_step_100_cases():
    rng = np.random.default_rng(9)
    for _ in range(100):
        p, dt, state = random_plant(rng), random_dt(rng), random_state(rng)
        v = float(rng.uniform(-6.0, 6.0))
        c = float(rng.uniform(-1.0, 1.0) * min(1.0, AV_LIMIT / abs(v)))
        trace = run_scenario(ControlScript.constant(v, c), p, dt, dt=dt,
                             initial_state=state)
        assert len(trace) == 1
        assert_close_channels(
            trace, [state, reference_step_dynamics(state, Command(v, c), p, dt)])


def test_bad_commands_still_raise_validation_error():
    over = make_script([(0.0, 1.0, 0.1), (0.5, 4.0, 1.5)])
    with pytest.raises(ValidationError):
        run_scenario(over, SlipParams(), 1.0)
    run_scenario(over, SlipParams(), 0.5)     # the bad segment is never reached
    with pytest.raises(ValidationError):
        run_scenario(ControlScript.constant(float("nan"), 0.0), SlipParams(), 1.0)


# --- integrator bit oracle ---------------------------------------------------

REFERENCE_BLOCK_STEPS = 4096


def reference_normalize_heading(h: float) -> float:
    """Wrap an angle, or elementwise an array of angles, into (-pi, pi]."""
    return math.pi - (math.pi - h) % math.tau


def reference_integrate(state: VehicleState | None, cmd_v: np.ndarray, cmd_c: np.ndarray,
                        p: SlipParams, dt: float) -> SimTrace:
    """simcore._integrate as it was before each block's commands were expanded
    by run length, kept verbatim: a searchsorted segment per step, five
    gathers, the builtin max/min clamp in the segment pass, and the heading
    wrapped with ``%``.  Verbatim but for the trace's commands, which a
    SimTrace now holds as a table, here one row per segment."""
    n = cmd_v.size
    alpha = 1.0 if p.lag_tau <= 0.0 else 1.0 - math.exp(-dt / p.lag_tau)
    r = 1.0 - alpha
    state = state if state is not None else VehicleState()

    new_seg = np.ones(n, dtype=bool)
    new_seg[1:] = (cmd_v[1:] != cmd_v[:-1]) | (cmd_c[1:] != cmd_c[:-1])
    seg_start = np.flatnonzero(new_seg)
    seg_v = cmd_v[seg_start]
    seg_av = seg_v * cmd_c[seg_start]
    v_start, lag_start = [], []
    v_end, lag_end = state.v, state.av_lag
    for c_v, c_av, decay in zip(seg_v.tolist(), seg_av.tolist(),
                                np.power(r, np.diff(seg_start, append=n)).tolist()):
        v_start.append(v_end)
        lag_start.append(lag_end)
        v_end = max(-V_CAP, min(V_CAP, c_v + (v_end - c_v) * decay))
        lag_end = c_av + (lag_end - c_av) * decay
    v_start, lag_start = np.array(v_start), np.array(lag_start)

    x, y, heading, v, av, av_lag = out = tuple(np.empty(n + 1) for _ in CHANNELS)
    for channel, name in zip(out, CHANNELS):
        channel[0] = getattr(state, name)
    for b0 in range(0, n, REFERENCE_BLOCK_STEPS):
        b1 = min(b0 + REFERENCE_BLOCK_STEPS, n)
        steps = np.arange(b0, b1)
        seg = np.searchsorted(seg_start, steps, side="right") - 1
        decay = np.power(r, steps + 1 - seg_start[seg])
        c_v, c_av = seg_v[seg], seg_av[seg]
        new = slice(b0 + 1, b1 + 1)     # the states these steps produce
        np.clip(c_v + (v_start[seg] - c_v) * decay, -V_CAP, V_CAP, out=v[new])
        av_lag[new] = c_av + (lag_start[seg] - c_av) * decay
        av[new] = slip_yaw_rate(av_lag[new], v[new], p.beta)
        heading[new] = av[new] * dt
        np.add.accumulate(heading[b0:b1 + 1], out=heading[b0:b1 + 1])
        heading[new] = reference_normalize_heading(heading[new])
        held = heading[b0:b1]           # each step moves along its start heading
        x[new] = v[new] * np.cos(held) * dt
        y[new] = v[new] * np.sin(held) * dt
        np.add.accumulate(x[b0:b1 + 1], out=x[b0:b1 + 1])
        np.add.accumulate(y[b0:b1 + 1], out=y[b0:b1 + 1])
    return SimTrace(dt, *out, command_first=seg_start, command_v=seg_v,
                    command_c=cmd_c[seg_start])


def test_heading_wrap_matches_the_remainder_bit_for_bit():
    rng = np.random.default_rng(41)
    edges = [0.0, -0.0, math.pi, -math.pi, math.tau, -math.tau, 3 * math.pi,
             -3 * math.pi, np.nextafter(math.pi, 4.0), np.nextafter(-math.pi, -4.0),
             5e-324, -5e-324, 1e300, -1e300]
    h = np.concatenate([edges, rng.uniform(-4.0, 4.0, 20000),
                        rng.uniform(-100.0, 100.0, 20000),
                        rng.normal(0.0, 1e6, 2000)])
    got, want = normalize_heading(h), reference_normalize_heading(h)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    for angle in h[::50].tolist():
        assert float(normalize_heading(angle)).hex() == \
            reference_normalize_heading(angle).hex(), angle


def assert_same_state_bits(trace: SimTrace, state, p, dt):
    """``trace``'s six state channels equal, bit for bit, those the reference
    integrator makes from ``trace``'s own commands."""
    ref = reference_integrate(state, *step_commands(trace), p, dt)
    for name in CHANNELS:
        got, want = getattr(trace, name), getattr(ref, name)
        assert got.shape == want.shape, name
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), name


def random_script(rng, dt: float) -> ControlScript:
    """1 to 60 segments whose lengths range from one step to past a block."""
    k = int(rng.integers(1, 61))
    steps = rng.choice([1, 2, 7, 50, 400, 2000, 5000], size=k - 1) \
        * rng.uniform(0.5, 1.5, k - 1)
    starts = np.concatenate([[0.0], np.cumsum(np.maximum(steps, 1.0) * dt)])
    v = rng.uniform(-2.0, 6.0, k)          # |v| > V_CAP exercises the clamp
    c = rng.uniform(-1.0, 1.0, k) * np.minimum(1.0, AV_LIMIT / np.abs(v))
    return make_script(
        [(float(t), float(a), float(b)) for t, a, b in zip(starts, v, c)])


def test_integrator_matches_searchsorted_blocks_bit_for_bit_300_scripts():
    rng = np.random.default_rng(16)
    seen = {"lag_tau = 0": 0, "lag_tau > 0": 0, "state None": 0, "state set": 0,
            "above V_CAP": 0, "several blocks": 0, "segment over a block edge": 0}
    for _ in range(300):
        p, dt = random_plant(rng), random_dt(rng)
        state = None if rng.random() < 0.4 else random_state(rng)
        if rng.random() < 0.15:   # a start just above the cap, held there
            state = VehicleState(v=float(rng.choice([-1.0, 1.0])) * (V_CAP + 1e-12))
        script = random_script(rng, dt)
        duration = float(rng.uniform(dt, 12000 * dt))
        trace = run_scenario(script, p, duration, dt=dt, initial_state=state)
        assert_same_state_bits(trace, state, p, dt)
        seen["lag_tau = 0" if p.lag_tau == 0 else "lag_tau > 0"] += 1
        seen["state None" if state is None else "state set"] += 1
        seen["above V_CAP"] += bool(state is not None and abs(state.v) > V_CAP)
        seen["several blocks"] += len(trace) > REFERENCE_BLOCK_STEPS
        edges = np.arange(REFERENCE_BLOCK_STEPS, len(trace), REFERENCE_BLOCK_STEPS)
        cmd_v, cmd_c = step_commands(trace)
        seen["segment over a block edge"] += bool(np.any(
            (cmd_v[edges] == cmd_v[edges - 1]) & (cmd_c[edges] == cmd_c[edges - 1])))
    assert min(seen.values()) >= 20, seen


def test_integrator_matches_searchsorted_blocks_bit_for_bit_on_long_runs():
    # The whole training sweep (118 blocks, segments across block edges), a
    # corrected 2,000-segment teleop replay, and starts above V_CAP.
    script, p = training_sweep_script(), SlipParams()
    trace = run_scenario(script, p, sweep_duration(script))
    assert len(trace) == 484800
    assert_same_state_bits(trace, None, p, DEFAULT_DT)

    t = np.arange(2000) / 20.0
    v = 2.0 + np.sin(0.3 * t)
    rows = np.column_stack([v, np.clip(v * 0.8 * np.sin(0.7 * t + 0.1), -4.0, 4.0)])
    trace = execute_replay(CommandBuffer(rows=rows), p, model=build_gain_model(1.25),
                           duration=100.0)
    cmd_v, cmd_c = step_commands(trace)
    changes = (cmd_v[1:] != cmd_v[:-1]) | (cmd_c[1:] != cmd_c[:-1])
    assert len(trace) == 20000 and int(np.count_nonzero(changes)) + 1 == 2000
    assert_same_state_bits(trace, None, p, DEFAULT_DT)

    over = make_script([(0.0, 5.0, 0.3), (0.4, 1.0, -0.5), (0.9, 6.0, 0.1)])
    for sign in (1.0, -1.0):
        state = VehicleState(v=sign * (V_CAP + 1e-12), av_lag=1.0)
        for plant in (SlipParams(), SlipParams(lag_tau=0.02), SlipParams.ideal()):
            trace = _integrate(state, np.array([0, 80, 180]), sign * np.array([5.0, 1.0, 6.0]),
                               np.array([0.3, -0.5, 0.1]), 8180, plant, DEFAULT_DT)
            assert_same_state_bits(trace, state, plant, DEFAULT_DT)
            trace = run_scenario(over, plant, 1.5, initial_state=state)
            assert_same_state_bits(trace, state, plant, DEFAULT_DT)


def test_command_table_drops_empty_commands_and_merges_equal_neighbours():
    # segments that hold no step (at the start, in the middle, at step n)
    # leave no row of the trace's table; equal neighbours, also across a
    # dropped segment, keep their rows and run as the two commands they leave
    dt = DEFAULT_DT
    starts = [-1.0, 0.0, 49.5 * dt, 89.3 * dt, 89.6 * dt, 119.5 * dt, 199.5 * dt, 299.5 * dt]
    script = make_script(zip(starts, [3.0, 2.0, 2.0, 1.0, 2.0, 1.5, 1.5, 3.0],
                             [0.1, 0.5, 0.5, 0.2, 0.5, -0.3, -0.3, 0.9]))
    for p in (SlipParams(), SlipParams(lag_tau=0.0), SlipParams.ideal()):
        trace = run_scenario(script, p, 300 * dt)
        assert trace.command_first.tolist() == [0, 50, 90, 120, 200]
        assert trace.command_v.tolist() == [2.0, 2.0, 2.0, 1.5, 1.5]
        assert trace.command_c.tolist() == [0.5, 0.5, 0.5, -0.3, -0.3]
        two = _integrate(None, np.array([0, 120]), np.array([2.0, 1.5]),
                         np.array([0.5, -0.3]), 300, p, dt)
        for name in CHANNELS:
            assert np.array_equal(getattr(trace, name).view(np.int64),
                                  getattr(two, name).view(np.int64)), name
        assert np.array_equal(step_commands(trace).view(np.int64),
                              step_commands(two).view(np.int64))
        assert_same_state_bits(trace, None, p, dt)


# --- sensor logs: the whole-trace sampler, kept verbatim ----------------------

def reference_emit_sensor_logs(trace: SimTrace, p: SlipParams, joy_rate: float = 40.0,
                               imu_rate: float = 40.0, pad: float = 1.0):
    """simcore.emit_sensor_logs as it was before its sampler read only the
    states around each IMU sample: every state's time and every step's v*c,
    one np.interp over the whole trace.  Verbatim but for the two SimTrace
    members deleted since, ``duration`` (``len(trace) * trace.dt``) and
    ``av_commanded()`` (``cmd_v * cmd_c``), for the per-step commands
    ``cmd_v, cmd_c``, which the trace's command table now gives
    (step_commands), and for the rate and pad checks, which are simcore's
    rules from errors, so that each value is refused with simcore's message."""
    if len(trace) == 0:
        raise ValidationError("cannot emit logs from an empty trace")
    require_positive(joy_rate=joy_rate, imu_rate=imu_rate)
    require_non_negative(pad=pad)

    duration = len(trace) * trace.dt
    total = duration + 2.0 * pad
    sample_count("pad", total / trace.dt)
    cmd_v, cmd_c = step_commands(trace)
    cmd_av = cmd_v * cmd_c

    n_joy = sample_count("joy_rate", total * joy_rate)
    t_joy = np.arange(n_joy) / joy_rate
    s = t_joy - pad
    active = (s >= 0.0) & (s < duration)
    idx = np.clip(np.floor(s / trace.dt + 1e-9).astype(int), 0, len(cmd_v) - 1)
    joy_v = np.where(active, cmd_v[idx], 0.0)
    joy_av = np.where(active, cmd_av[idx], 0.0)

    state_t = trace.times()
    n_imu = sample_count("imu_rate", total * imu_rate)
    t_imu = np.arange(n_imu) / imu_rate
    s_imu = t_imu - pad - p.imu_delay
    av_z = np.interp(s_imu, state_t, trace.av, left=0.0, right=0.0)
    if p.noise_sigma > 0:
        rng = np.random.default_rng(p.seed)
        av_z = av_z + rng.normal(0.0, p.noise_sigma, size=av_z.shape)

    return JoyLog(t=t_joy, v=joy_v, av=joy_av), ImuLog(t=t_imu, av_z=av_z)


def log_arrays(joy: JoyLog, imu: ImuLog) -> list:
    return [a.view(np.int64) for a in (joy.t, joy.v, joy.av, imu.t, imu.av_z)]


def assert_recorded_logs_match(script, p, duration, joy_rate, imu_rate, pad, dt):
    """record_logs, emit_sensor_logs and the whole-trace sampler give the same
    five arrays bit for bit, or raise the same error class and message;
    the recorded logs, or None on an error."""
    def outcome(logs):
        try:
            return log_arrays(*logs())
        except ValidationError as exc:
            return type(exc), str(exc)

    got = outcome(lambda: record_logs(script, p, duration, joy_rate, imu_rate, pad, dt))
    for want in (outcome(lambda: emit_sensor_logs(run_scenario(script, p, duration, dt),
                                                  p, joy_rate, imu_rate, pad)),
                 outcome(lambda: reference_emit_sensor_logs(
                     run_scenario(script, p, duration, dt), p, joy_rate, imu_rate, pad))):
        assert type(got) is type(want)
        if isinstance(want, tuple):
            assert got == want
        else:
            for a, b in zip(got, want, strict=True):
                assert a.shape == b.shape and np.array_equal(a, b)
    return None if isinstance(got, tuple) else got


def test_bracketing_state_matches_a_search_of_every_state_time():
    # Times on a state, an ulp either side of one, and anywhere in the run:
    # the state np.interp brackets each with, found without the n+1 times,
    # as _sample_logs finds it.
    rng = np.random.default_rng(22)
    for dt in (DEFAULT_DT, 0.003, 0.01, 0.007 / 3, float(rng.uniform(0.001, 0.02))):
        n = int(rng.integers(1, 30000))
        times = np.arange(n + 1) * dt
        on = times[rng.integers(0, n + 1, 2000)]
        s = np.sort(np.concatenate([on, np.nextafter(on, -1.0), np.nextafter(on, np.inf),
                                    rng.uniform(0.0, times[-1], 2000), times[[0, -1]]]))
        s = s[(s >= 0.0) & (s <= times[-1])]
        assert np.array_equal(_least_step(lambda j: j * dt > s, s / dt, n + 1) - 1,
                              np.searchsorted(times, s, side="right") - 1)


def test_script_first_steps_match_a_search_of_every_step_time():
    # Starts on a step, an ulp either side of one, within 1e-12 s of one
    # (either side of the 1e-12 s the comparison adds), anywhere in the run,
    # past its end and at 1e300: each segment's first step is the least
    # i <= n with i*dt + 1e-12 >= t_start, n when none is.
    rng = np.random.default_rng(23)
    for dt in (DEFAULT_DT, 0.003, 0.01, 0.007 / 3, float(rng.uniform(0.001, 0.02))):
        n = int(rng.integers(1, 30000))
        reach = np.arange(n + 1) * dt + 1e-12
        on = np.arange(n + 1)[rng.integers(0, n + 1, 500)] * dt
        near = on + rng.uniform(-1e-12, 1e-12, 500)
        t = np.concatenate([on, np.nextafter(on, -1.0), np.nextafter(on, np.inf), near,
                            on + 1e-12, np.nextafter(on + 1e-12, -1.0),
                            np.nextafter(on + 1e-12, np.inf),
                            rng.uniform(0.0, n * dt, 500), n * dt + rng.uniform(0, 5, 20),
                            [n * dt, 1e300]])
        t = np.append(0.0, np.unique(t[t > 0.0]))
        v = np.arange(t.size) * 0.01   # each segment's v names it
        firsts, v_reached, _, steps = _script_runs(
            make_script([(float(a), float(b), 0.0) for a, b in zip(t, v)]), n * dt, dt)
        want = np.minimum(np.searchsorted(reach, t, side="left"), n)
        reached = want < np.append(want[1:], n)
        assert steps == n and np.array_equal(firsts, want[reached])
        assert np.array_equal(v_reached, v[reached])


def test_recorded_logs_match_the_trace_sampler_on_the_sweep_for_three_seeds():
    script = training_sweep_script()
    for seed in (0, 1, 2):
        logs = assert_recorded_logs_match(script, SlipParams(seed=seed),
                                          sweep_duration(script), 40.0, 40.0, 1.0,
                                          DEFAULT_DT)
        assert [a.size for a in logs] == [97040] * 5


def recording_script(rng, dt: float) -> ControlScript:
    """1 to 40 segments: empty ones (a start within a step of the next),
    repeats of the previous command, and starts on a block edge."""
    k = int(rng.integers(1, 41))
    gaps = rng.choice([0.3, 1, 7, 400, 5000], size=k - 1) * dt
    starts = [0.0]
    for gap in gaps.tolist():
        kind = rng.random()
        edge = REFERENCE_BLOCK_STEPS * dt
        if kind < 0.15:     # the next block edge
            above = starts[-1] // edge + 1
            starts.append(above * edge if above * edge > starts[-1] else (above + 1) * edge)
        else:
            starts.append(starts[-1] + gap)
    v = rng.uniform(-2.0, 6.0, k)
    c = rng.uniform(-1.0, 1.0, k) * np.minimum(1.0, AV_LIMIT / np.abs(v))
    repeat = rng.random(k) < 0.25
    for i in np.flatnonzero(repeat[1:]) + 1:
        v[i], c[i] = v[i - 1], c[i - 1]
    return make_script([(t, float(a), float(b)) for t, a, b in zip(starts, v, c)])


def test_recorded_logs_match_the_trace_sampler_bit_for_bit_200_cases():
    rng = np.random.default_rng(21)
    seen = dict.fromkeys(("empty segment", "repeated command", "start on a block edge",
                          "pad 0", "imu_delay 0", "imu_delay on the grid", "noise 0",
                          "rate 7", "rate 33.3", "rate 1000", "dt 0.003", "dt 0.01",
                          "under one step", "under one block", "no imu sample inside",
                          "error"), 0)
    for _ in range(200):
        dt = float(rng.choice([DEFAULT_DT, 0.003, 0.01]))
        script = recording_script(rng, dt)
        steps = float(rng.choice([0.5, 1.0, 3.0, 900.0, REFERENCE_BLOCK_STEPS - 1.0,
                                  REFERENCE_BLOCK_STEPS + 1.0, rng.uniform(1, 15000)]))
        duration = steps * dt
        delay = float(rng.choice([0.0, 0.176, 7 * dt, duration + 5.0]))
        p = SlipParams(beta=float(rng.choice([0.0, 0.02])),
                       lag_tau=float(rng.choice([0.0, 0.1])), imu_delay=delay,
                       noise_sigma=float(rng.choice([0.0, 0.01])),
                       seed=int(rng.integers(0, 1000)))
        joy_rate, imu_rate = (float(rng.choice([7.0, 33.3, 40.0, 1000.0])) for _ in "ji")
        pad = float(rng.choice([0.0, 1.0, 0.37]))
        if rng.random() < 0.05:
            joy_rate = 0.0
        logs = assert_recorded_logs_match(script, p, duration, joy_rate, imu_rate, pad, dt)
        starts = [s.t_start for s in script.segments]
        seen["error"] += logs is None
        seen["empty segment"] += any(b - a < dt for a, b in zip(starts, starts[1:]))
        seen["repeated command"] += any(
            (a.v, a.c) == (b.v, b.c) for a, b in zip(script.segments, script.segments[1:]))
        seen["start on a block edge"] += any(
            abs(t / (REFERENCE_BLOCK_STEPS * dt) - round(t / (REFERENCE_BLOCK_STEPS * dt)))
            < 1e-9 for t in starts[1:])
        seen["pad 0"] += pad == 0.0
        seen["imu_delay 0"] += delay == 0.0
        seen["imu_delay on the grid"] += delay == 7 * dt
        seen["noise 0"] += p.noise_sigma == 0.0
        for rate in (7.0, 33.3, 1000.0):
            seen[f"rate {rate:g}"] += rate in (joy_rate, imu_rate)
        if dt != DEFAULT_DT:
            seen[f"dt {dt:g}"] += 1
        seen["under one step"] += steps < 1.0
        seen["under one block"] += 1.0 <= steps < REFERENCE_BLOCK_STEPS
        seen["no imu sample inside"] += logs is not None and delay > duration + pad
    assert min(seen.values()) >= 5, seen


@pytest.mark.parametrize("args", [
    (0.0, 40.0, 40.0, 1.0, DEFAULT_DT),                   # duration
    (1.0, 40.0, 40.0, 1.0, -DEFAULT_DT),                  # dt
    (1.0, 40.0, -1.0, 1.0, DEFAULT_DT),                   # imu_rate
    (1.0, 40.0, 40.0, -0.5, DEFAULT_DT),                  # pad
    (1.0, 40.0, 40.0, 1e20, DEFAULT_DT),                  # pad past the index
    (1.0, 1e300, 40.0, 1.0, DEFAULT_DT),                  # joy_rate past the index
    (1.0, 40.0, float("nan"), 1.0, DEFAULT_DT),           # imu_rate NaN
    (1e300, 40.0, 40.0, 1.0, DEFAULT_DT),                 # steps past the index
])
def test_recorded_logs_raise_the_trace_samplers_errors(args):
    script = make_script([(0.0, 2.0, 0.5), (0.3, 1.0, -1.0)])
    with pytest.raises(ValidationError):
        record_logs(script, SlipParams(), *args)
    assert assert_recorded_logs_match(script, SlipParams(), *args) is None


def test_recorded_logs_name_the_script_segment_that_breaks_the_limit():
    # the unreached fourth segment checks as a stop
    script = make_script([(0.0, 2.0, 0.5), (0.5, 3.0, 1.5), (2.0, 1.0, 0.0),
                          (9.0, 5.0, 5.0)])
    with pytest.raises(ValidationError, match=r"v\*c=4.5000") as err:
        record_logs(script, SlipParams(), 3.0)
    assert err.value.row == 1
    assert assert_recorded_logs_match(script, SlipParams(), 3.0, 40.0, 40.0, 1.0,
                                      DEFAULT_DT) is None
    assert len(record_logs(script, SlipParams(), 0.5)[0]) == 100


# --- drift scoring oracle ----------------------------------------------------

def random_poses_trace(rng, scenario: DriftScenario) -> SimTrace:
    n = int(rng.integers(2, 40))
    g0, g1 = map(np.array, reference_gate_segment(scenario))
    mid, along = (g0 + g1) / 2.0, g1 - g0
    normal = np.array([-along[1], along[0]]) / np.hypot(*along)
    if rng.random() < 0.5:   # a pass through the gate region, both sides
        s = np.linspace(-1.5, 1.5, n)[:, None]
        lateral = rng.uniform(-0.7, 0.7) * along
        xy = mid + lateral + s * normal + rng.normal(0.0, 0.05, (n, 2))
    else:                    # anywhere on the course
        xy = mid + rng.uniform(-3.0, 3.0, (n, 2))
    av = rng.uniform(-4.0, 4.0, n)
    av[rng.random(n) < 0.3] = rng.uniform(-TURN_AV_FLOOR, TURN_AV_FLOOR)
    return SimTrace(dt=DEFAULT_DT, x=xy[:, 0], y=xy[:, 1],
                    heading=rng.uniform(-math.pi, math.pi, n),
                    v=rng.uniform(-V_CAP, V_CAP, n), av=av, av_lag=av,
                    **zero_commands(n))


def assert_matches_reference(trace: SimTrace, scenario: DriftScenario):
    clearance, collided, radius, cleared = reference_drift_eval(trace, scenario)
    report = drift_eval(trace, scenario)
    assert report.collided == collided
    assert report.cleared_gate == cleared
    assert report.min_turn_radius == radius
    # equal infinities: a course without obstacles
    assert math.isclose(report.min_clearance, clearance, rel_tol=0.0, abs_tol=1e-12)


def test_drift_eval_matches_per_state_reference_100_cases():
    rng = np.random.default_rng(31)
    courses = (loose_scenario(), tight_scenario())
    outcomes = set()
    for case in range(100):
        scenario = courses[case % 2]
        trace = random_poses_trace(rng, scenario)
        assert_matches_reference(trace, scenario)
        report = drift_eval(trace, scenario)
        outcomes.add((report.collided, report.cleared_gate))
    # the cases reach every reachable outcome
    assert outcomes == {(True, False), (False, True), (False, False)}


def test_drift_eval_gate_touch_cases_match_reference():
    # Gate from the cone (0, 0) to the box face at (2, 0); a car small
    # enough to stay clear of both, so only the crossing test decides.
    scenario = DriftScenario(boxes=(Rect(cx=2.5, cy=0.0, w=1.0, h=1.0),),
                             cones=((0.0, 0.0),), gap_width=2.0,
                             car_width=0.01, car_length=0.01)
    paths = {
        "vertex on the gate": ([(1.0, 1.0), (1.0, 0.0), (1.5, 1.0)], True),
        "along the gate line": ([(0.5, 0.0), (1.5, 0.0)], True),
        "ends on the gate": ([(1.0, -1.0), (1.0, 0.0)], True),
        "starts on the gate": ([(1.0, 0.0), (1.0, 1.0)], True),
        "spans the whole gate": ([(-1.0, 0.0), (3.5, 0.0)], True),
        "on the line, past the cone": ([(-1.0, 1.0), (-1.0, 0.0), (-0.5, 1.0)], False),
        "straight through": ([(1.0, -1.0), (1.0, 1.0)], True),
        "beside the gate": ([(1.0, 0.5), (1.5, 1.0)], False),
    }
    for name, (points, expected) in paths.items():
        xy = np.array(points, dtype=float)
        n = len(xy)
        trace = SimTrace(dt=DEFAULT_DT, x=xy[:, 0], y=xy[:, 1],
                         heading=np.zeros(n), v=np.zeros(n), av=np.zeros(n),
                         av_lag=np.zeros(n), **zero_commands(n))
        assert_matches_reference(trace, scenario)
        assert drift_eval(trace, scenario).cleared_gate == expected, name


def reference_sat_gap(ax, ay, bx, by, axes) -> np.ndarray:
    """Largest separating-axis gap between the corner sets a and b.

    Corner coordinates have shape (..., 4); each axis is a pair of unit
    vector components broadcastable against the leading dimensions.
    """
    gap = np.full(np.broadcast_shapes(ax.shape, bx.shape)[:-1], -math.inf)
    for ux, uy in axes:
        ux, uy = np.asarray(ux)[..., None], np.asarray(uy)[..., None]
        pa = ax * ux + ay * uy
        pb = bx * ux + by * uy
        gap = np.maximum(gap, np.maximum(pa.min(-1) - pb.max(-1),
                                         pb.min(-1) - pa.max(-1)))
    return gap


def reference_corner_edge_distance(px, py, qx, qy) -> np.ndarray:
    """Smallest distance from the corners p to the edges of the rectangle q.

    Corner coordinates have shape (..., 4), q's corners in boundary order.
    """
    ax, ay = qx[..., None, :], qy[..., None, :]
    abx = np.roll(qx, -1, axis=-1)[..., None, :] - ax
    aby = np.roll(qy, -1, axis=-1)[..., None, :] - ay
    dx, dy = px[..., :, None] - ax, py[..., :, None] - ay
    t = np.clip((dx * abx + dy * aby) / (abx * abx + aby * aby), 0.0, 1.0)
    d = np.hypot(px[..., :, None] - (ax + t * abx), py[..., :, None] - (ay + t * aby))
    return d.min(axis=(-2, -1))


def reference_gate_crossed(xy: np.ndarray, g0, g1) -> bool:
    """Whether any segment between consecutive positions meets the gate g0-g1.

    The orientation and collinear on-segment tests of a segment
    intersection, over all consecutive position pairs at once.
    """
    p1, p2 = xy[:-1], xy[1:]

    def orient(o, a, b):
        v = (a[..., 0] - o[..., 0]) * (b[..., 1] - o[..., 1]) \
            - (a[..., 1] - o[..., 1]) * (b[..., 0] - o[..., 0])
        return np.sign(v)

    def on_seg(a, b, p):
        return ((np.minimum(a[..., 0], b[..., 0]) <= p[..., 0])
                & (p[..., 0] <= np.maximum(a[..., 0], b[..., 0]))
                & (np.minimum(a[..., 1], b[..., 1]) <= p[..., 1])
                & (p[..., 1] <= np.maximum(a[..., 1], b[..., 1])))

    d1, d2 = orient(g0, g1, p1), orient(g0, g1, p2)
    d3, d4 = orient(p1, p2, g0), orient(p1, p2, g1)
    hit = (((d1 != d2) & (d3 != d4))
           | ((d1 == 0) & on_seg(g0, g1, p1)) | ((d2 == 0) & on_seg(g0, g1, p2))
           | ((d3 == 0) & on_seg(p1, p2, g0)) | ((d4 == 0) & on_seg(p1, p2, g1)))
    return bool(np.any(hit))


def reference_sweep_drift_eval(trace: SimTrace, scenario: DriftScenario) -> ClearanceReport:
    """drift_eval as it was in the (n, 4) layout, kept verbatim: every
    disjoint state gets an exact corner-to-edge distance."""
    ca, sa = np.cos(trace.heading), np.sin(trace.heading)
    hw, hh = scenario.car_length / 2.0, scenario.car_width / 2.0
    local_x = np.array([-hw, hw, hw, -hw])
    local_y = np.array([-hh, -hh, hh, hh])
    car_x = local_x * ca[:, None] - local_y * sa[:, None] + trace.x[:, None]
    car_y = local_x * sa[:, None] + local_y * ca[:, None] + trace.y[:, None]
    car_axes = ((ca, sa), (-sa, ca))

    min_clearance = math.inf
    for box in scenario.boxes:
        corners = box.corners()
        bx, by = corners[:, 0], corners[:, 1]
        cb, sb = math.cos(box.angle), math.sin(box.angle)
        d = reference_sat_gap(car_x, car_y, bx, by, car_axes + ((cb, sb), (-sb, cb)))
        apart = d > 0.0  # disjoint: exact boundary-to-boundary distance
        if np.any(apart):
            d[apart] = np.minimum(
                reference_corner_edge_distance(car_x[apart], car_y[apart], bx, by),
                reference_corner_edge_distance(bx, by, car_x[apart], car_y[apart]))
        min_clearance = min(min_clearance, float(d.min()))
    for cone_x, cone_y in scenario.cones:
        px, py = cone_x - trace.x, cone_y - trace.y
        dx = np.abs(ca * px + sa * py) - hw
        dy = np.abs(-sa * px + ca * py) - hh
        d = (np.hypot(np.maximum(dx, 0.0), np.maximum(dy, 0.0))
             + np.minimum(np.maximum(dx, dy), 0.0))
        min_clearance = min(min_clearance, float(d.min()))
    collided = bool(min_clearance < 0.0)

    turning = np.abs(trace.av) > TURN_AV_FLOOR
    min_turn_radius = math.inf
    if np.any(turning):
        min_turn_radius = float(np.min(np.abs(trace.v[turning])
                                       / np.abs(trace.av[turning])))

    gate = _gate_segment(scenario)
    crossed = gate is not None and reference_gate_crossed(trace.xy(), *gate)
    cleared_gate = bool(crossed and not collided)

    return ClearanceReport(min_clearance=float(min_clearance), collided=collided,
                           min_turn_radius=min_turn_radius,
                           cleared_gate=cleared_gate)


def poses_trace(rng, xy, heading) -> SimTrace:
    n = len(xy)
    av = rng.uniform(-4.0, 4.0, n)
    return SimTrace(dt=DEFAULT_DT, x=xy[:, 0], y=xy[:, 1], heading=heading,
                    v=rng.uniform(-V_CAP, V_CAP, n), av=av, av_lag=av,
                    **zero_commands(n))


def random_course(rng, n_boxes: int) -> DriftScenario:
    boxes = [Rect(cx=rng.uniform(-3.0, 3.0), cy=rng.uniform(-3.0, 3.0),
                  w=rng.uniform(0.3, 2.0), h=rng.uniform(0.3, 2.0),
                  angle=rng.choice([0.0, rng.uniform(-math.pi, math.pi)]))
             for _ in range(n_boxes)]
    cones = rng.uniform(-3.0, 3.0, (int(rng.integers(0, 4)), 2))
    return DriftScenario(boxes=boxes, cones=cones, gap_width=1.0)


def box_frame_poses(box: Rect, local_xy, local_heading):
    """Car poses given in ``box``'s frame, as world positions and headings."""
    cb, sb = math.cos(box.angle), math.sin(box.angle)
    lx, ly = local_xy[:, 0], local_xy[:, 1]
    xy = np.column_stack([box.cx + cb * lx - sb * ly, box.cy + sb * lx + cb * ly])
    return xy, local_heading + box.angle


def grazing_poses(rng, box: Rect, car: tuple[float, float], n: int):
    """A slide along one of ``box``'s faces, the car parallel to it and a
    few millimetres out, so the gap equals the exact distance.  Half of the
    slides keep one offset, so their distances differ only by rounding."""
    _, width = car
    along = rng.uniform(-box.w / 2.0, box.w / 2.0, n)
    offset = rng.uniform(1e-4, 5e-3, 1 if rng.random() < 0.5 else n)
    out = np.full(n, box.h / 2.0 + width / 2.0) + offset
    side = rng.choice([-1.0, 1.0])
    local = np.column_stack([along, side * out])
    return box_frame_poses(box, local, np.full(n, rng.choice([0.0, math.pi])))


def corner_poses(rng, box: Rect, car: tuple[float, float]):
    """A diagonal approach to a box corner, whose gap (0.2-0.3 m) is smaller
    than its exact distance, plus one state beside a face whose gap and exact
    distance lie between the two: the smallest-gap state is not the nearest."""
    length, width = car
    hw, hh = box.w / 2.0 + length / 2.0, box.h / 2.0 + width / 2.0
    n = int(rng.integers(2, 8))
    off = rng.uniform(0.2, 0.3, n)
    sx, sy = rng.choice([-1.0, 1.0], 2)
    diagonal = np.column_stack([sx * (hw + off), sy * (hh + off)])
    face_gap = rng.uniform(off.min() + 0.01, off.min() * math.sqrt(2.0) - 0.01)
    beside = np.array([[0.0, -sy * (hh + face_gap)]])
    local = np.concatenate([diagonal, beside])
    return box_frame_poses(box, local, np.zeros(n + 1))


def sweep_case(rng, kind: str):
    """A (trace, scenario) pair of the given kind."""
    if kind == "no boxes":
        scenario = DriftScenario(boxes=(), cones=rng.uniform(-3.0, 3.0, (
            int(rng.integers(0, 3)), 2)), gap_width=1.0)
    else:
        scenario = random_course(rng, int(rng.integers(1, 5)))
    car = (scenario.car_length, scenario.car_width)
    box = scenario.boxes[int(rng.integers(len(scenario.boxes)))] if scenario.boxes else None
    if kind == "grazing":
        xy, heading = grazing_poses(rng, box, car, int(rng.integers(1, 30)))
    elif kind == "corner":
        xy, heading = corner_poses(rng, box, car)
    elif kind == "single state":
        xy, heading = rng.uniform(-4.0, 4.0, (1, 2)), rng.uniform(-math.pi, math.pi, 1)
    else:
        n = int(rng.integers(2, 60))
        heading = rng.uniform(-math.pi, math.pi, n)
        if kind == "apart":      # a walk well outside the course
            start = rng.uniform(6.0, 9.0, 2) * rng.choice([-1.0, 1.0], 2)
            xy = start + np.cumsum(rng.normal(0.0, 0.05, (n, 2)), axis=0)
        elif kind == "overlap":  # a straight run through one box's centre
            s = np.linspace(-1.0, 1.0, n)[:, None] * rng.uniform(1.0, 3.0)
            direction = rng.normal(size=2)
            xy = np.array([box.cx, box.cy]) + s * direction / np.hypot(*direction)
        else:                    # a random walk anywhere on the course
            xy = rng.uniform(-3.0, 3.0, 2) + np.cumsum(rng.normal(0.0, 0.1, (n, 2)),
                                                        axis=0)
    return poses_trace(rng, xy, heading), scenario


def box_sweep_shape(trace: SimTrace, scenario: DriftScenario) -> set:
    """Which shapes of a box's sweep ``scenario``'s boxes show on ``trace``:
    overlapped, gap equal to the exact distance at the smallest-gap state,
    and smallest-gap state not the nearest."""
    ca, sa = np.cos(trace.heading), np.sin(trace.heading)
    hw, hh = scenario.car_length / 2.0, scenario.car_width / 2.0
    local_x = np.array([-hw, hw, hw, -hw])
    local_y = np.array([-hh, -hh, hh, hh])
    car_x = local_x * ca[:, None] - local_y * sa[:, None] + trace.x[:, None]
    car_y = local_x * sa[:, None] + local_y * ca[:, None] + trace.y[:, None]
    shape = set()
    for box in scenario.boxes:
        bx, by = box.corners().T
        cb, sb = math.cos(box.angle), math.sin(box.angle)
        gap = reference_sat_gap(car_x, car_y, bx, by,
                                ((ca, sa), (-sa, ca), (cb, sb), (-sb, cb)))
        if gap.min() <= 0.0:
            shape.add("overlapped")
            continue
        exact = np.minimum(reference_corner_edge_distance(car_x, car_y, bx, by),
                           reference_corner_edge_distance(bx, by, car_x, car_y))
        k = int(gap.argmin())
        if gap[k] == exact[k]:
            shape.add("gap equals exact")
        if exact[k] > exact.min():
            shape.add("smallest gap not nearest")
    return shape


SWEEP_KINDS = ("course", "apart", "overlap", "single state", "no boxes",
               "grazing", "corner")


def test_drift_sweep_matches_per_state_reference_1400_cases():
    rng = np.random.default_rng(1307)
    seen = {kind: 0 for kind in SWEEP_KINDS}
    shapes = {"overlapped": 0, "gap equals exact": 0, "smallest gap not nearest": 0}
    for case in range(1400):
        kind = SWEEP_KINDS[case % len(SWEEP_KINDS)]
        trace, scenario = sweep_case(rng, kind)
        assert_matches_reference(trace, scenario)
        report = drift_eval(trace, scenario)
        seen[kind] += 1
        for shape in box_sweep_shape(trace, scenario):
            shapes[shape] += 1
        if kind == "apart":
            assert not report.collided
        if kind == "no boxes" and not scenario.cones:
            assert report.min_clearance == math.inf
    assert all(count == 200 for count in seen.values()), seen
    # every shape of a box's sweep is met many times over
    assert min(shapes.values()) >= 100, shapes


@pytest.mark.parametrize("gain", [None, 1.25])
def test_canned_drift_runs_match_both_drift_references(gain):
    # The canned drift buffer replayed raw and corrected, scored on both
    # courses: the sweep reference bit for bit on a course the run clears,
    # within 1e-12 m where it overlaps a box (drift_eval takes the
    # separating-axis gaps in the rectangles' frames, the sweep copy on
    # world axes); the per-state reference within 1e-12 m.
    model = None if gain is None else build_gain_model(gain)
    buf = drift_buffer()
    trace = execute_replay(buf, SlipParams(), model=model,
                           duration=len(buf) / DEFAULT_REPLAY_RATE)
    assert len(trace) == 900
    for scenario in (loose_scenario(), tight_scenario()):
        expected = reference_sweep_drift_eval(trace, scenario)
        report = drift_eval(trace, scenario)
        if expected.collided:
            assert abs(report.min_clearance - expected.min_clearance) <= 1e-12
        else:
            assert report.min_clearance.hex() == expected.min_clearance.hex()
        assert report.min_turn_radius.hex() == expected.min_turn_radius.hex()
        assert (report.collided, report.cleared_gate) == (expected.collided,
                                                          expected.cleared_gate)
        assert_matches_reference(trace, scenario)


# --- trainer oracle (the per-tensor backprop, AdamW and training loop, kept verbatim)

def reference_loss_and_grads(p: MlpParams, X: np.ndarray, y: np.ndarray):
    n = X.shape[0]
    a1, a2, out = _forward_batch(p, X)
    resid = out - y

    d_out = (2.0 / n) * resid[:, None]          # (n, 1)
    g_W3 = d_out.T @ a2
    g_b3 = d_out.sum(axis=0)
    d_a2 = d_out @ p.W3                          # (n, 32)
    d_z2 = d_a2 * (a2 > 0.0)
    g_W2 = d_z2.T @ a1
    g_b2 = d_z2.sum(axis=0)
    d_a1 = d_z2 @ p.W2
    d_z1 = d_a1 * (a1 > 0.0)
    g_W1 = d_z1.T @ X
    g_b1 = d_z1.sum(axis=0)

    grads = {"W1": g_W1, "b1": g_b1, "W2": g_W2, "b2": g_b2,
             "W3": g_W3, "b3": g_b3}
    return resid, grads


@dataclass
class ReferenceAdamState:
    """Per-parameter first/second moment accumulators and the step counter."""

    m: dict
    v: dict
    t: int = 0

    @classmethod
    def fresh(cls) -> "ReferenceAdamState":
        return cls(m={n: np.zeros(_SHAPES[n]) for n in _FIELDS},
                   v={n: np.zeros(_SHAPES[n]) for n in _FIELDS})


def reference_adamw_step(p: MlpParams, grads: dict, s: ReferenceAdamState,
                         cfg: TrainConfig) -> tuple[MlpParams, ReferenceAdamState]:
    t = s.t + 1
    new_vals, new_m, new_v = {}, {}, {}
    bc1 = 1.0 - cfg.beta1 ** t
    bc2 = 1.0 - cfg.beta2 ** t
    for name in _FIELDS:
        g = np.asarray(grads[name], dtype=float)
        theta = getattr(p, name)
        if g.shape != theta.shape:
            raise ValidationError(f"grad {name} has shape {g.shape}, "
                                  f"expected {theta.shape}")
        m = cfg.beta1 * s.m[name] + (1.0 - cfg.beta1) * g
        v = cfg.beta2 * s.v[name] + (1.0 - cfg.beta2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        step = m_hat / (np.sqrt(v_hat) + cfg.eps_adam) + cfg.weight_decay * theta
        new_vals[name] = theta - cfg.lr * step
        new_m[name] = m
        new_v[name] = v
    return MlpParams(**new_vals), ReferenceAdamState(m=new_m, v=new_v, t=t)


def reference_train(data: AlignedDataset, cfg: TrainConfig):
    n = len(data)
    if n < 2 * cfg.batch_size:
        raise ValidationError(f"dataset has {n} rows; batch_size {cfg.batch_size} "
                              f"needs at least {2 * cfg.batch_size}")

    rng = np.random.default_rng(cfg.seed)
    p = init_params(rng)
    s = ReferenceAdamState.fresh()

    X, y = _dataset_xy(data)
    perm = rng.permutation(n)
    n_test = min(max(int(round(n * cfg.split_fraction)), 1), n - cfg.batch_size)
    test_idx = perm[:n_test]
    train_idx = perm[n_test:]
    X_tr, y_tr = X[train_idx], y[train_idx]
    X_te, y_te = X[test_idx], y[test_idx]

    train_mse = np.empty(cfg.epochs)
    test_mse = np.empty(cfg.epochs)
    n_tr = len(train_idx)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n_tr)
        sse = 0.0   # each step's squared residuals, at that step's weights
        for start in range(0, n_tr, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            resid, grads = reference_loss_and_grads(p, X_tr[batch], y_tr[batch])
            sse += resid @ resid
            p, s = reference_adamw_step(p, grads, s, cfg)
        train_mse[epoch] = sse / n_tr
        test_mse[epoch] = np.mean((forward(p, X_te) - y_te) ** 2)
    return p, LossCurve(train_mse=train_mse, test_mse=test_mse), s


def random_slip_dataset(rng, n: int) -> AlignedDataset:
    """Understeer-like rows: observed yaw rate lags the command, plus noise."""
    v = rng.uniform(0.3, 4.2, n)
    av_joy = rng.uniform(-1.0, 1.0, n) * np.minimum(4.0, 1.2 * v)
    gain = 1.0 / (1.0 + rng.uniform(0.05, 0.4) * v * v)
    av_imu = gain * av_joy + rng.normal(0.0, 0.02, n)
    return AlignedDataset(v_joy=v, av_joy=av_joy, av_imu=av_imu)


def test_flat_trainer_matches_per_tensor_loop_bit_for_bit():
    rng = np.random.default_rng(31)
    cases = [  # (rows, batch_size, weight_decay)
        (900, 32, 0.01), (1280, 128, 0.01), (700, 50, 0.01),
        (1100, 32, 0.0), (1500, 128, 0.05), (333, 32, 0.2),
    ]
    partial = full = 0
    for rows, batch_size, weight_decay in cases:
        data = random_slip_dataset(rng, rows)
        cfg = TrainConfig(batch_size=batch_size, weight_decay=weight_decay,
                          epochs=int(rng.integers(2, 4)),
                          seed=int(rng.integers(0, 2**31)),
                          lr=float(rng.choice([1e-3, 5e-4, 3e-3])))
        n_tr = rows - min(max(round(rows * cfg.split_fraction), 1),
                          rows - batch_size)
        partial += n_tr % batch_size != 0
        full += n_tr % batch_size == 0
        params, curve = train(data, cfg)
        ref_params, ref_curve, _ = reference_train(data, cfg)
        for name in _FIELDS:
            assert np.array_equal(getattr(params, name),
                                  getattr(ref_params, name)), name
        assert np.array_equal(curve.train_mse, ref_curve.train_mse)
        assert np.array_equal(curve.test_mse, ref_curve.test_mse)
    assert partial >= 1 and full >= 1   # short and whole last batches


def test_adamw_step_matches_per_tensor_step_in_place():
    rng = np.random.default_rng(12)
    for _ in range(50):
        cfg = TrainConfig(lr=float(rng.uniform(1e-5, 1e-1)),
                          beta1=float(rng.uniform(0.0, 0.99)),
                          beta2=float(rng.uniform(0.0, 0.9999)),
                          weight_decay=float(rng.choice([0.0, rng.uniform(0, 0.5)])),
                          eps_adam=float(10.0 ** rng.uniform(-12, -4)))
        p = init_params(rng)
        grads = {n: rng.normal(0.0, 10.0 ** rng.uniform(-6, 1), _SHAPES[n])
                 for n in _FIELDS}
        m = {n: rng.normal(0.0, 0.1, _SHAPES[n]) for n in _FIELDS}
        v = {n: rng.uniform(0.0, 0.1, _SHAPES[n]) for n in _FIELDS}
        t = int(rng.integers(0, 500))
        s = AdamState(m=np.concatenate([m[n].ravel() for n in _FIELDS]),
                      v=np.concatenate([v[n].ravel() for n in _FIELDS]), t=t)
        theta = p.theta.copy()
        g = np.concatenate([grads[n].ravel() for n in _FIELDS])

        adamw_step(theta, g, s, cfg, np.empty(N_PARAMS))
        ref_p, ref_s = reference_adamw_step(p, grads, ReferenceAdamState(m, v, t), cfg)
        assert theta.tobytes() == ref_p.theta.tobytes()
        for flat, ref in ((s.m, ref_s.m), (s.v, ref_s.v)):
            assert flat.tobytes() == np.concatenate([ref[n] for n in _FIELDS],
                                                    axis=None).tobytes()
        assert s.t == ref_s.t == t + 1


@pytest.mark.parametrize("rows, overrides", [
    (90, {"batch_size": 1}),
    (392, {"batch_size": 32}),                # 353 training rows: last batch is one row
    (600, {"batch_size": 32, "beta1": 0.0}),
    (600, {"batch_size": 64, "weight_decay": 0.0}),
])
def test_in_place_trainer_edge_cases_match_per_tensor_loop_bit_for_bit(rows, overrides):
    rng = np.random.default_rng(rows + overrides["batch_size"])
    data = random_slip_dataset(rng, rows)
    cfg = TrainConfig(**{"epochs": 3, "seed": int(rng.integers(0, 2**31)),
                         "lr": 3e-3, **overrides})
    n_tr = rows - min(max(round(rows * cfg.split_fraction), 1),
                      rows - cfg.batch_size)
    if rows == 392:
        assert n_tr % cfg.batch_size == 1
    params, curve = train(data, cfg)
    ref_params, ref_curve, _ = reference_train(data, cfg)
    assert params.theta.tobytes() == ref_params.theta.tobytes()
    assert curve.train_mse.tobytes() == ref_curve.train_mse.tobytes()
    assert curve.test_mse.tobytes() == ref_curve.test_mse.tobytes()


def test_flushed_moments_keep_the_per_tensor_loop_bits_past_7000_dead_steps(monkeypatch):
    # Batch size 1 on 36 training rows for 220 epochs: 7,920 steps, enough
    # for the first moments of units that stay closed to decay below the
    # smallest normal float in the reference loop, which never flushes.
    rng = np.random.default_rng(40)
    data = random_slip_dataset(rng, 40)
    cfg = TrainConfig(batch_size=1, epochs=220, seed=1, lr=3e-3)
    n_tr = 40 - min(max(round(40 * cfg.split_fraction), 1), 40 - cfg.batch_size)
    tiny = np.finfo(float).tiny
    subnormal_at_epoch_start = []
    adamw = mlp_mod.adamw_step

    def spy(theta, g, s, cfg, tmp):
        if s.t % n_tr == 0:
            moments = np.concatenate([s.m, s.v])
            subnormal_at_epoch_start.append(
                np.count_nonzero((moments != 0) & (np.abs(moments) < tiny)))
        adamw(theta, g, s, cfg, tmp)

    monkeypatch.setattr(mlp_mod, "adamw_step", spy)
    params, curve = train(data, cfg)
    ref_params, ref_curve, ref_state = reference_train(data, cfg)
    ref_m = np.concatenate([ref_state.m[n].ravel() for n in _FIELDS])
    assert ref_state.t == 220 * n_tr > 7000
    assert np.count_nonzero((ref_m != 0) & (np.abs(ref_m) < tiny)) > 0
    assert len(subnormal_at_epoch_start) == 220 and not any(subnormal_at_epoch_start)
    assert params.theta.tobytes() == ref_params.theta.tobytes()
    assert curve.train_mse.tobytes() == ref_curve.train_mse.tobytes()
    assert curve.test_mse.tobytes() == ref_curve.test_mse.tobytes()


def test_loss_and_grads_match_per_tensor_gradients_bit_for_bit():
    rng = np.random.default_rng(8)
    for _ in range(50):
        p = init_params(rng)
        n = int(rng.choice([1, 2, 7, 32, 128]))
        X = np.column_stack([rng.uniform(0.0, 4.2, n), rng.uniform(-4.0, 4.0, n)])
        y = rng.uniform(-4.0, 4.0, n)
        grads = _views(np.empty(N_PARAMS))
        resid = loss_and_grads(p, X, y, grads)
        ref_resid, ref_grads = reference_loss_and_grads(p, X, y)
        assert resid.tobytes() == ref_resid.tobytes()
        for name, grad in zip(_FIELDS, grads):
            assert grad.shape == _SHAPES[name]
            assert grad.tobytes() == ref_grads[name].tobytes(), name


def test_train_leaves_its_inputs_alone_and_returns_private_read_only_weights():
    rng = np.random.default_rng(4)
    data = random_slip_dataset(rng, 500)
    before = [a.copy() for a in (data.v_joy, data.av_joy, data.av_imu)]
    cfg = TrainConfig(epochs=2, seed=3)
    params, _ = train(data, cfg)
    for a, b in zip((data.v_joy, data.av_joy, data.av_imu), before):
        assert a.tobytes() == b.tobytes()

    assert not params.theta.flags.writeable
    with pytest.raises(ValueError):
        params.theta[0] = 0.0
    with pytest.raises(ValueError):
        params.W2[0, 0] = 0.0

    first = params.theta.copy()
    again, _ = train(data, cfg)
    other, _ = train(data, TrainConfig(epochs=2, seed=4))
    assert params.theta.tobytes() == first.tobytes() == again.theta.tobytes()
    assert not np.array_equal(other.theta, first)
    for q in (again, other):
        assert not np.shares_memory(q.theta, params.theta)


# --- delay scan: the per-candidate loop, kept verbatim ------------------------

def reference_scan_delays(joy: JoyLog, imu: ImuLog,
                          search=(DELAY_MIN, DELAY_MAX),
                          step=DEFAULT_DELAY_STEP):
    lo, hi = search
    if not lo < hi:
        raise ValidationError("search range must satisfy lo < hi")
    if step <= 0:
        raise ValidationError("step must be positive")
    if len(joy) < 2 or len(imu) < 2:
        raise InsufficientOverlapError("each stream needs at least two samples")

    n = int(np.floor((hi - lo) / step + 1e-9)) + 1
    delays = lo + np.arange(n) * step
    objectives = np.full(n, np.inf)
    for i, d in enumerate(delays):
        w_lo = max(joy.t[0], imu.t[0] - d)
        w_hi = min(joy.t[-1], imu.t[-1] - d)
        if w_hi - w_lo < MIN_OVERLAP:
            continue
        mask = (joy.t >= w_lo) & (joy.t <= w_hi)
        if not np.any(mask):
            continue
        t = joy.t[mask]
        imu_at = np.interp(t + d, imu.t, imu.av_z)
        err = joy.av[mask] - imu_at
        objectives[i] = float(np.mean(err * err))
    return delays, objectives


def random_times(rng, n: int, start: float, mean_dt: float) -> np.ndarray:
    """Irregular, strictly increasing timestamps."""
    return start + np.cumsum(rng.uniform(0.05, 1.95, n) * mean_dt)


def random_scan_case(rng, i: int):
    """Streams of 2 to ~2,000 rows whose overlap is near MIN_OVERLAP as often as not."""
    nj = 2 if i % 10 == 0 else int(rng.integers(3, 2000))
    ni = 2 if i % 10 == 5 else int(rng.integers(3, 2000))
    span_j = rng.uniform(0.5, 4.0)
    span_i = rng.uniform(0.5, 4.0)
    t_joy = random_times(rng, nj, rng.uniform(-5.0, 5.0), span_j / nj)
    # imu starts up to 1.5 s before or after the joystick stream
    t_imu = random_times(rng, ni, t_joy[0] + rng.uniform(-1.5, 1.5), span_i / ni)
    joy = JoyLog(t=t_joy, v=np.ones(nj), av=rng.uniform(-AV_LIMIT, AV_LIMIT, nj))
    imu = ImuLog(t=t_imu, av_z=rng.normal(0.0, 2.0, ni))
    lo = float(rng.uniform(-1.5, 0.5))
    search = (lo, lo + float(rng.uniform(0.005, 2.0)))
    step = (search[1] - search[0]) / float(rng.integers(1, 300))
    return joy, imu, search, step


def assert_scan_matches_reference(joy, imu, search, step):
    delays, objectives = scan_delays(joy, imu, search, step)
    ref_delays, ref_objectives = reference_scan_delays(joy, imu, search, step)
    assert np.array_equal(delays, ref_delays)
    assert np.array_equal(np.isinf(objectives), np.isinf(ref_objectives))
    assert np.array_equal(objectives, ref_objectives)
    return objectives


def test_blocked_scan_matches_per_candidate_loop_bit_for_bit_200_cases(monkeypatch):
    rng = np.random.default_rng(8)
    seen = {"none": 0, "some": 0, "all": 0, "joy_denser": 0, "imu_denser": 0,
            "imu_first": 0, "joy_first": 0, "negative": 0, "two_rows": 0}
    for i in range(200):
        joy, imu, search, step = random_scan_case(rng, i)
        # Small budgets put every row of a wide window in a block of its own.
        monkeypatch.setattr(align_mod, "_SCAN_BLOCK",
                            int(rng.choice([1, 7, 500, 1 << 16])))
        monkeypatch.setattr(align_mod, "_scan_workers", lambda: 1 + i % 3)
        finite = np.isfinite(assert_scan_matches_reference(joy, imu, search, step))
        seen["none" if not finite.any() else "all" if finite.all() else "some"] += 1
        dense_j = len(joy) / (joy.t[-1] - joy.t[0])
        dense_i = len(imu) / (imu.t[-1] - imu.t[0])
        seen["joy_denser" if dense_j > dense_i else "imu_denser"] += 1
        seen["imu_first" if imu.t[0] < joy.t[0] else "joy_first"] += 1
        seen["negative"] += search[1] < 0
        seen["two_rows"] += min(len(joy), len(imu)) == 2
    assert min(seen.values()) >= 5, seen


def test_blocked_scan_matches_per_candidate_loop_on_gate_and_wide_windows(monkeypatch):
    # Gate-shaped pair: 480 joystick rows at 40 Hz against 13,000 IMU rows at
    # 1 kHz; all 501 default candidates share one window, 136 to a block.
    rng = np.random.default_rng(9)
    t_joy = np.arange(480) / 40.0
    t_imu = np.arange(13000) / 1000.0
    joy = JoyLog(t=t_joy, v=np.full(480, 2.0), av=np.sin(2.1 * t_joy))
    imu = ImuLog(t=t_imu, av_z=np.sin(2.1 * (t_imu - 0.2)) + rng.normal(0.0, 0.05, 13000))
    gate = (joy, imu, (0.0, 0.5), 0.001)
    # The IMU stream covers the whole joystick stream at every candidate, so
    # all candidates share one window: of 20,000 rows (three candidates per
    # block, rows longer than numpy's 8,192-element buffer) and of more than
    # _SCAN_BLOCK rows (one candidate per block).
    wide = []
    for n in (20_000, align_mod._SCAN_BLOCK + 4000):
        t = random_times(rng, n, 0.0, 0.025)
        joy = JoyLog(t=t, v=np.ones(n), av=rng.uniform(-1.0, 1.0, n))
        imu = ImuLog(t=np.linspace(-1.0, t[-1] + 1.0, n), av_z=rng.uniform(-1.0, 1.0, n))
        wide.append((joy, imu, (-0.05, 0.05), 0.01))
    for workers in (1, 2, 3):
        monkeypatch.setattr(align_mod, "_scan_workers", lambda: workers)
        for case in (gate, *wide):
            assert np.isfinite(assert_scan_matches_reference(*case)).all()


def _scan_pools(monkeypatch, candidates: int) -> list:
    """Scan 480 joystick rows against ``candidates`` delays one joystick
    period apart, whose windows shrink by about a row each, at two workers
    and blocks of 4,800 candidate-rows; return the worker counts of the
    pools the scan started."""
    pools = []

    class RecordingPool(align_mod.ThreadPoolExecutor):
        def __init__(self, workers):
            pools.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(align_mod, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(align_mod, "_scan_workers", lambda: 2)
    monkeypatch.setattr(align_mod, "_SCAN_BLOCK", 4800)
    t = np.arange(480) / 40.0
    joy = JoyLog(t=t, v=np.full(480, 2.0), av=np.sin(2.1 * t))
    imu = ImuLog(t=t, av_z=np.sin(2.1 * (t - 0.05)))
    delays, objectives = scan_delays(joy, imu, search=(0.0, 0.025 * (candidates - 1)),
                                     step=0.025)
    assert delays.size == candidates and np.isfinite(objectives).all()
    return pools


def test_scan_of_one_block_of_candidate_rows_starts_no_pool(monkeypatch):
    # 9 windows of 471 to 480 rows: 9 blocks, but 4,753 candidate-rows
    assert _scan_pools(monkeypatch, 10) == []


def test_scan_past_one_block_of_candidate_rows_starts_a_pool(monkeypatch):
    assert _scan_pools(monkeypatch, 11) == [1]      # 5,223 candidate-rows


# --- delay estimate: strided lower bounds, against the full per-candidate loop -

def multi_sine(t: np.ndarray) -> np.ndarray:
    """A three-tone yaw-rate excitation."""
    return (1.8 * np.sin(2 * np.pi * 0.31 * t)
            + 1.1 * np.sin(2 * np.pi * 0.93 * t + 1.0)
            + 0.6 * np.sin(2 * np.pi * 2.17 * t + 2.2))


def shifted_pair(rng, t_joy, t_imu, noise_sigma: float):
    d = float(rng.uniform(0.05, 0.40))
    joy = JoyLog(t=t_joy, v=np.full(t_joy.size, 2.0), av=multi_sine(t_joy))
    av_z = multi_sine(t_imu - d) + rng.normal(0.0, noise_sigma, t_imu.size)
    return joy, ImuLog(t=t_imu, av_z=av_z)


def covering_times(rng, n: int):
    """Joystick times and IMU times that cover them at every default candidate."""
    t_joy = random_times(rng, n, 0.0, 0.025)
    return t_joy, np.linspace(-1.0, t_joy[-1] + 1.0, int(rng.integers(2, 3 * n)))


def estimate_case(rng, kind: str, i: int):
    default = ((DELAY_MIN, DELAY_MAX), DEFAULT_DELAY_STEP)
    if kind in ("gate clean", "gate noisy"):
        # 480 joystick rows at 40 Hz against 13,000 IMU rows at 1 kHz
        sigma = 0.0 if kind == "gate clean" else 0.01
        return (*shifted_pair(rng, np.arange(480) / 40.0, np.arange(13000) / 1000.0,
                              sigma), *default)
    if kind == "long":
        t = np.arange(96_000) / 40.0
        return (*shifted_pair(rng, t, t, 0.0), *default)
    if kind == "sweep":
        plant = SlipParams(seed=int(rng.integers(0, 1000)))
        dwell = float(rng.uniform(0.3, 0.8))
        speeds = tuple(rng.choice([1.0, 1.5, 2.0, 2.5, 3.0, 4.0],
                                  size=int(rng.integers(1, 3)), replace=False))
        script = training_sweep_script(dwell=dwell, speeds=speeds)
        trace = run_scenario(script, plant, sweep_duration(script, dwell=dwell))
        return (*trim_idle(*emit_sensor_logs(trace, plant)), *default)
    if kind == "tie":
        t_joy, t_imu = covering_times(rng, int(rng.integers(2, 3000)))
        joy = JoyLog(t=t_joy, v=np.ones(t_joy.size),
                     av=np.full(t_joy.size, rng.uniform(-AV_LIMIT, AV_LIMIT)))
        return (joy, ImuLog(t=t_imu, av_z=np.full(t_imu.size, rng.normal(0.0, 2.0))),
                *default)
    if kind == "domain edge":
        # the largest squared errors two logs can hold: yaw rates near
        # opposite edges of the domain, some exactly on them
        t_joy, t_imu = covering_times(rng, int(rng.integers(2, 3000)))
        edge = np.where(rng.random(t_joy.size) < 0.5, 1.0, rng.uniform(0.5, 1.0, t_joy.size))
        joy = JoyLog(t=t_joy, v=np.ones(t_joy.size), av=YAW_RATE_DOMAIN * edge)
        imu = ImuLog(t=t_imu, av_z=-YAW_RATE_DOMAIN * rng.uniform(0.5, 1.0, t_imu.size))
        return joy, imu, *default
    return random_scan_case(rng, i)


def assert_estimate_matches_reference(joy, imu, search, step):
    """estimate_delay against the argmin of the full per-candidate loop; the
    reference objectives, or None when both raise InsufficientOverlapError."""
    ref_delays, ref_objectives = reference_scan_delays(joy, imu, search, step)
    try:
        ref = align_mod.delay_from_scan(ref_delays, ref_objectives)
    except InsufficientOverlapError as exc:
        with pytest.raises(InsufficientOverlapError, match=str(exc)):
            align_mod.estimate_delay(joy, imu, search, step)
        return None
    est = align_mod.estimate_delay(joy, imu, search, step)
    assert est.delay.hex() == ref.delay.hex()
    assert est.objective.hex() == ref.objective.hex()
    assert (est.in_range, est.corrupt) == (ref.in_range, ref.corrupt)
    return ref_objectives


def test_pruned_estimate_matches_full_loop_argmin_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(10)
    scan = align_mod._scan
    calls = []  # (stride, candidates) of each _scan call

    def recording_scan(joy, imu, delays, i0, i1, cand, stride, out):
        calls.append((stride, cand.copy()))
        scan(joy, imu, delays, i0, i1, cand, stride, out)

    monkeypatch.setattr(align_mod, "_scan", recording_scan)
    kinds = ("gate clean", "gate noisy", "long", "sweep", "tie", "domain edge",
             *["random"] * 8)
    seen = dict.fromkeys(("gate clean", "gate noisy", "long", "sweep unrefined",
                          "tie", "domain edge", "partial inf", "two rows", "negative",
                          "pruned at 128", "pruned at 16", "runner-up wins"), 0)
    for i in range(6 * len(kinds)):
        kind = kinds[i % len(kinds)]
        joy, imu, search, step = estimate_case(rng, kind, i)
        # Small budgets put every row of a wide window in a block of its own.
        monkeypatch.setattr(align_mod, "_SCAN_BLOCK",
                            int(rng.choice([1, 7, 500, 1 << 16])))
        monkeypatch.setattr(align_mod, "_scan_workers", lambda: 1 + i % 3)
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # no square overflows, on any thread
            objectives = assert_estimate_matches_reference(joy, imu, search, step)
        # a coarse bound pass over the kept candidates and one exact score;
        # a finer bound pass over the survivors only when the coarse one
        # pruned some; then one exact pass
        kept = calls[0][1] if calls else []
        strides = [stride for stride, _ in calls]
        refined = strides == [align_mod._BOUND_STRIDE, 1, align_mod._REFINE_STRIDE, 1]
        assert refined or strides == [align_mod._BOUND_STRIDE, 1, 1][:len(calls)]
        if len(calls) > 2:
            assert (calls[2][1].size < len(kept) - 1) == refined
        exact = sum(cand.size for stride, cand in calls if stride == 1)
        if kind in seen:
            seen[kind] += 1
        if kind == "sweep":
            assert exact == len(kept) and not refined
            seen["sweep unrefined"] += 1
        if kind == "domain edge":
            assert objectives is not None and np.isfinite(objectives[kept]).all()
        if objectives is not None:
            finite = np.isfinite(objectives)
            if kind == "tie":
                assert np.unique(objectives[finite]).size == 1
            seen["partial inf"] += not finite.all()
            seen["runner-up wins"] += calls[1][1][0] != np.argmin(objectives)
        seen["two rows"] += min(len(joy), len(imu)) == 2
        seen["negative"] += search[1] < 0
        seen["pruned at 128"] += refined
        seen["pruned at 16"] += refined and calls[3][1].size < calls[2][1].size
    assert min(seen.values()) >= 5, seen


# --- table files: the repr-per-cell writer and per-line reader, kept verbatim --

def reference_write_table(path: str, header: str | None, columns) -> None:
    columns = [np.asarray(c) for c in columns]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header is not None:
            fh.write(header + "\n")
        for lo in range(0, len(columns[0]), ROW_BLOCK):
            block = [c[lo:lo + ROW_BLOCK].tolist() for c in columns]
            fh.writelines(",".join(map(repr, row)) + "\n" for row in zip(*block))


def reference_read_table(path: str, header: str | None) -> np.ndarray:
    values = array("d")
    ncol = 0 if header is None else header.count(",") + 1
    with open(path, "r", encoding="utf-8") as fh:
        if header is not None:
            first = fh.readline().rstrip("\n")
            if first != header:
                raise ParseError(f"{path}:1: expected header {header!r}, got {first!r}")
        for lineno, line in enumerate(fh, start=1 if header is None else 2):
            if not line.strip():
                continue
            parts = line.split(",")
            ncol = ncol or len(parts)
            if len(parts) != ncol:
                raise ParseError(f"{path}:{lineno}: expected {ncol} columns, "
                                 f"got {len(parts)}")
            try:
                values.extend(map(float, parts))
            except ValueError:
                raise ParseError(f"{path}:{lineno}: non-numeric field in "
                                 f"{line.rstrip()!r}") from None
    return np.frombuffer(values, dtype=float).reshape(-1 if ncol else 0, ncol)


def short_run_tables():
    """(name, header, columns) of the joy, imu, dataset and buffer tables of a
    short seeded sweep, as collect and align write them."""
    p = SlipParams(seed=3)
    script = training_sweep_script(dwell=0.25)
    trace = run_scenario(script, p, 0.25 * 2 * len(script.segments))
    joy, imu = emit_sensor_logs(trace, p, pad=0.5)
    d = prune_zero_curvature(build_dataset(*trim_idle(joy, imu), 0.2))
    return [("joy", "t,v,av", (joy.t, joy.v, joy.av)),
            ("imu", "t,av_z", (imu.t, imu.av_z)),
            ("dataset", "idx,v_joy,av_joy,av_imu", (d.idx, d.v_joy, d.av_joy, d.av_imu)),
            ("buffer", None, np.column_stack([joy.v, joy.av]).T)]


# Both sides of repr's switches to exponent notation (below 1e-4, from 1e16),
# signed zeros, subnormals, the smallest subnormal and non-finite values.
EDGE_FLOATS = np.array([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, -3e-320,
    1e-4, np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0), -1e-4,
    1e16, np.nextafter(1e16, 0.0), np.nextafter(1e16, np.inf), -1e16,
    0.1, 1.0 / 3.0, 1.7976931348623157e308, np.inf, -np.inf, np.nan, -np.nan])


def random_float_column(rng, n: int) -> np.ndarray:
    kind = rng.integers(4)
    if kind == 0:  # piecewise constant, as logged commands are
        pool = rng.normal(0.0, 2.0, int(rng.integers(1, 12)))
        return np.repeat(pool[rng.integers(len(pool), size=n)],
                         rng.integers(1, 300, size=n))[:n]
    if kind == 1:  # every magnitude
        return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-325.0, 308.0, n)
    if kind == 2:
        return EDGE_FLOATS[rng.integers(len(EDGE_FLOATS), size=n)]
    return rng.normal(0.0, 1.0, n)


def random_columns(rng, n: int):
    cols = []
    for _ in range(int(rng.integers(1, 5))):
        if rng.random() < 0.2:
            cols.append(rng.integers(-10**12, 10**12, n).astype(rng.choice(["i8", "i4"]))
                        if rng.random() < 0.5 else np.arange(n))
        else:
            cols.append(random_float_column(rng, n))
    if rng.random() < 0.3:  # strided views
        if all(c.dtype == np.float64 for c in cols):
            cols = np.column_stack(cols).T  # rows of a transposed array
        else:
            cols = [c[::-1] for c in cols]
    return cols


def assert_writes_match_reference(tmp_path, header, columns):
    for name in ("new.csv", "ref.csv"):   # new files, not rewrites: see write_new
        (tmp_path / name).unlink(missing_ok=True)
    write_table(str(tmp_path / "new.csv"), header, columns)
    reference_write_table(str(tmp_path / "ref.csv"), header, columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_table_writer_matches_repr_per_cell_loop_byte_for_byte_200_cases(tmp_path,
                                                                          monkeypatch):
    rng = np.random.default_rng(10)
    for i in range(200):
        # Small blocks put many block boundaries inside each run of repeats.
        monkeypatch.setattr(fileio, "ROW_BLOCK", int(rng.choice([1, 7, 64, ROW_BLOCK])))
        n = 0 if i == 0 else int(rng.integers(1, 3 * 64))
        header = None if rng.random() < 0.3 else "h"
        assert_writes_match_reference(tmp_path, header, random_columns(rng, n))


def test_table_writer_matches_loop_across_row_blocks_and_on_pipeline_tables(tmp_path):
    rng = np.random.default_rng(11)
    n = 3 * ROW_BLOCK + 17
    # Runs of one value, each longer than a block, and every edge value
    # throughout: -0.0 next to 0.0 in one block.
    runs = np.repeat(np.array([2.5, 0.0, -0.0, 2.5, 1e16]), [5000, 3000, 2000, 2000, n])[:n]
    edges = EDGE_FLOATS[np.arange(n) % len(EDGE_FLOATS)]
    assert_writes_match_reference(tmp_path, "i,run,edge,x",
                                  (np.arange(n), runs, edges, rng.normal(size=n)))
    assert_writes_match_reference(tmp_path, None, np.column_stack([runs, edges]).T)
    for _, header, columns in short_run_tables():
        assert_writes_match_reference(tmp_path, header, columns)


FIELDS = ["", " ", "1_0", "١٢", "#", "nan", "-nan", "inf", "-Infinity", "1e500",
          "-1e500", "1e-400", " 1.5 ", "\t2\t", "0x10", "1.5e", "+.5", "5.", "1,5",
          " 1 ", "1\x00", "1\x0c", "١.٥"]
CHARS = [",", "\n", " ", "\t", "#", "_", "e", "-", "+", ".", "x", "\r", "\x0c",
         " ", "٣", " ", "0"]


def mutate(rng, text: str) -> str:
    """``text`` with one random edit."""
    lines = text.split("\n")
    op = int(rng.integers(9))
    k = int(rng.integers(len(lines)))
    if op == 0 and text:  # insert a character
        i = int(rng.integers(len(text) + 1))
        return text[:i] + str(rng.choice(CHARS)) + text[i:]
    if op == 1 and text:  # delete a character
        i = int(rng.integers(len(text)))
        return text[:i] + text[i + 1:]
    if op == 2:  # replace one field
        parts = lines[k].split(",")
        parts[int(rng.integers(len(parts)))] = str(rng.choice(FIELDS))
        lines[k] = ",".join(parts)
    elif op == 3:  # join two lines, or every pair of lines
        if rng.random() < 0.5 and k + 1 < len(lines):
            lines[k:k + 2] = [lines[k] + "," + lines[k + 1]]
        else:
            body = [ln for ln in lines[1:] if ln]
            lines = lines[:1] + [",".join(body[j:j + 2]) for j in range(0, len(body), 2)]
    elif op == 4:  # blank or whitespace-only line
        lines.insert(k, str(rng.choice(["", " ", "\t", " \t ", "\x0c", " "])))
    elif op == 5:  # trailing or leading comma
        lines[k] = lines[k] + "," if rng.random() < 0.5 else "," + lines[k]
    elif op == 6:
        return text.replace("\n", "\r\n" if rng.random() < 0.5 else "\r")
    elif op == 7:  # keep only the first few lines
        lines = lines[:int(rng.integers(0, 3))]
    else:  # a random repr of a wild value in place of a field
        parts = lines[k].split(",")
        parts[int(rng.integers(len(parts)))] = repr(float(random_float_column(rng, 1)[0]))
        lines[k] = ",".join(parts)
    return "\n".join(lines)


def read_outcome(read, path, header):
    try:
        rows = read(path, header)
    except ParseError as exc:
        return "error", str(exc)
    return "rows", (rows.dtype.str, rows.shape, rows.tobytes())


def assert_reads_match_reference(path, text, header):
    write_new(path, text.encode())
    outcome = read_outcome(read_table, path, header)
    assert outcome == read_outcome(reference_read_table, path, header), text
    return outcome[0]


TABLE_TRAPS = [
    ("6 fields under 3 columns", "t,v,av\n1,2,3,4,5,6\n7,8,9,10,11,12\n", "t,v,av"),
    ("3 fields under 6 columns", "a,b,c,d,e,f\n1,2,3\n4,5,6\n", "a,b,c,d,e,f"),
    ("empty field", "t,v,av\n1,,3\n", "t,v,av"),
    ("trailing field", "t,v,av\n1,2,3,\n", "t,v,av"),
    ("underscore", "t,v,av\n1_0,2,3\n", "t,v,av"),
    ("arabic-indic digits", "t,v,av\n١,2,3\n", "t,v,av"),
    ("hash", "t,v,av\n1,2,3\n#4,5,6\n", "t,v,av"),
    ("hash only", "#\n", None),
    ("crlf", "t,v,av\r\n1,2,3\r\n4,5,6\r\n", "t,v,av"),
    ("lone cr", "t,v,av\r1,2,3\r4,5,6\r", "t,v,av"),
    ("whitespace-only line", "t,v,av\n1,2,3\n \t \n4,5,6\n", "t,v,av"),
    ("leading blank line", "t,v,av\n\n1,2,3\n", "t,v,av"),
    ("overflow, nan, inf", "t,v,av\n1e500,nan,-inf\n-1e500,-nan,Infinity\n", "t,v,av"),
    ("padded fields", "t,v,av\n 1 ,\t2\t, 3\n", "t,v,av"),
    ("header only", "t,v,av\n", "t,v,av"),
    ("header without newline", "t,v,av", "t,v,av"),
    ("blank-only", "t,v,av\n\n\n", "t,v,av"),
    ("blank-only, no header", "\n \n\n", None),
    ("empty, no header", "", None),
    ("no final newline", "1,2\n3,4", None),
    ("wrong header", "t,v\n1,2\n", "t,v,av"),
    ("one column", "x\n1\n2\n", "x"),
]


@pytest.mark.parametrize("text, header", [t[1:] for t in TABLE_TRAPS],
                         ids=[t[0] for t in TABLE_TRAPS])
def test_table_reader_traps_match_per_line_loop(tmp_path, text, header):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_reads_match_reference(str(tmp_path / "t.csv"), text, header)


def test_table_reader_matches_per_line_loop_on_mutated_tables_400_cases(tmp_path,
                                                                       monkeypatch):
    by_line = []
    read_by_line = fileio._read_table_by_line
    monkeypatch.setattr(fileio, "_read_table_by_line",
                        lambda *args: by_line.append(1) or read_by_line(*args))
    rng = np.random.default_rng(12)
    tables = []
    for name, header, columns in short_run_tables():
        path = str(tmp_path / f"{name}.csv")
        write_table(path, header, columns)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        # a short table: the header (if any) and 12 rows from the middle
        lo = len(lines) // 2
        tables.append((header, "\n".join(lines[:1 if header else 0] + lines[lo:lo + 12]) + "\n"))
    seen = {"rows": 0, "error": 0}
    for i in range(400):
        header, text = tables[i % len(tables)]
        for _ in range(int(rng.integers(1, 4))):
            text = mutate(rng, text)
        seen[assert_reads_match_reference(str(tmp_path / "m.csv"), text, header)] += 1
    # both outcomes occur, and the one-pass parse answered some accepted files
    assert min(seen.values()) >= 50 and len(by_line) <= 400 - 50, (seen, len(by_line))
