"""Array paths against the per-object loops they replaced, 100 seeded cases each.

The simulator oracles are verbatim copies of the per-step loops that
built one VehicleState and one ControlCommand per step; every channel of
the array-backed trace must match them bit for bit.  The drift oracle
scores one state at a time with the scalar geometry helpers.
"""

import math

import numpy as np
import pytest

from ikdlab.evalkit import (DriftScenario, Rect, _gate_segment,
                            _segments_intersect, drift_eval,
                            point_rect_signed_distance,
                            rect_rect_signed_distance, TURN_AV_FLOOR)
from ikdlab.ikd import AV_LIMIT, c_from_av_v, correct
from ikdlab.mlp import init_params
from ikdlab.replay import CommandBuffer, execute_replay, next_command
from ikdlab.scenarios import loose_scenario, tight_scenario
from ikdlab.simcore import (DEFAULT_DT, V_CAP, ControlCommand, ControlScript,
                            SimTrace, SlipParams, VehicleState,
                            _require_finite, normalize_heading, run_scenario,
                            slip_yaw_rate)
from ikdlab.errors import ValidationError

from conftest import build_gain_model

CHANNELS = ("x", "y", "heading", "v", "av", "av_lag")


# --- reference loops (the per-object implementation, kept verbatim) ---------

def reference_step_dynamics(state: VehicleState, cmd: ControlCommand,
                            p: SlipParams, dt: float) -> VehicleState:
    if dt <= 0:
        raise ValidationError("dt must be positive")
    _require_finite("step_dynamics command", cmd.v, cmd.c)

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
        cmd = script.command_at(i * dt)
        state = reference_step_dynamics(state, cmd, p, dt)
        states.append(state)
        commands.append(cmd)
    return states, commands


def reference_execute_replay(buf, p, model=None, rate=20.0, duration=1.0,
                             dt=DEFAULT_DT, stride=1, initial_state=None):
    n = int(math.floor(duration / dt + 1e-9))
    state = initial_state if initial_state is not None else VehicleState()
    states = [state]
    commands = []
    held = None
    last_tick = -1
    for i in range(n):
        tick = int(math.floor(i * dt * rate + 1e-9))
        if tick > last_tick:
            v, av = next_command(buf)
            for _ in range(stride - 1):
                next_command(buf)
            av = max(-AV_LIMIT, min(AV_LIMIT, av))  # actuator command range
            c = c_from_av_v(av, v)
            if model is not None:
                c = correct(model, v, c).c_corrected
            held = ControlCommand(v, c)
            last_tick = tick
        state = reference_step_dynamics(state, held, p, dt)
        states.append(state)
        commands.append(held)
    return states, commands


def reference_drift_eval(trace: SimTrace, scenario: DriftScenario):
    min_clearance = math.inf
    for state in trace.states:
        car = Rect(cx=state.x, cy=state.y, w=scenario.car_length,
                   h=scenario.car_width, angle=state.heading)
        for box in scenario.boxes:
            min_clearance = min(min_clearance, rect_rect_signed_distance(car, box))
        for cone in scenario.cones:
            min_clearance = min(min_clearance, point_rect_signed_distance(cone, car))
    collided = bool(min_clearance < 0.0)

    min_turn_radius = math.inf
    for state in trace.states:
        if abs(state.av) > TURN_AV_FLOOR:
            min_turn_radius = min(min_turn_radius, abs(state.v) / abs(state.av))

    gate = _gate_segment(scenario)
    crossed = False
    if gate is not None:
        g0, g1 = gate
        xy = trace.xy()
        for i in range(len(xy) - 1):
            if _segments_intersect(xy[i], xy[i + 1], g0, g1):
                crossed = True
                break
    return min_clearance, collided, min_turn_radius, bool(crossed and not collided)


# --- helpers -----------------------------------------------------------------

def assert_bit_identical(trace: SimTrace, states, commands):
    for name in CHANNELS:
        ref = np.array([getattr(s, name) for s in states], dtype=float)
        assert getattr(trace, name).tobytes() == ref.tobytes(), name
    assert trace.cmd_v.tobytes() == np.array([c.v for c in commands],
                                             dtype=float).tobytes()
    assert trace.cmd_c.tobytes() == np.array([c.c for c in commands],
                                             dtype=float).tobytes()
    assert trace.states == tuple(states)
    assert trace.commands == tuple(commands)


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
        script = ControlScript.from_segments(
            [(float(t), float(a), float(b)) for t, a, b in zip(starts, v, c)])
        duration = float(rng.uniform(0.01, 3.0))
        trace = run_scenario(script, p, duration, dt=dt, initial_state=state)
        states, commands = reference_run_scenario(script, p, duration, dt, state)
        assert_bit_identical(trace, states, commands)


def test_segment_start_just_above_step_time_takes_effect_at_that_step():
    # 11 * 0.015 = 0.16499999999999998 < 0.165: the 1e-12 tolerance of the
    # segment lookup switches the command at step 11, not step 12.
    script = ControlScript.from_segments([(0.0, 1.0, 0.1), (0.165, 2.0, -0.3)])
    trace = run_scenario(script, SlipParams(), 0.5, dt=0.015)
    states, commands = reference_run_scenario(script, SlipParams(), 0.5, 0.015)
    assert_bit_identical(trace, states, commands)
    assert trace.cmd_v[11] == 2.0 and trace.cmd_v[10] == 1.0


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
        p, dt, state = random_plant(rng), random_dt(rng), random_state(rng)
        duration = float(rng.uniform(0.01, 3.0))
        buf = CommandBuffer(rows=list(rows))
        ref_buf = CommandBuffer(rows=list(rows))
        trace = execute_replay(buf, p, model=model, rate=rate, duration=duration,
                               dt=dt, stride=stride, initial_state=state)
        states, commands = reference_execute_replay(
            ref_buf, p, model=model, rate=rate, duration=duration, dt=dt,
            stride=stride, initial_state=state)
        assert_bit_identical(trace, states, commands)
        assert buf.cursor == ref_buf.cursor


def test_bad_commands_still_raise_validation_error():
    over = ControlScript.from_segments([(0.0, 1.0, 0.1), (0.5, 4.0, 1.5)])
    with pytest.raises(ValidationError):
        run_scenario(over, SlipParams(), 1.0)
    run_scenario(over, SlipParams(), 0.5)     # the bad segment is never reached
    with pytest.raises(ValidationError):
        run_scenario(ControlScript.constant(float("nan"), 0.0), SlipParams(), 1.0)


# --- drift scoring oracle ----------------------------------------------------

def random_poses_trace(rng, scenario: DriftScenario) -> SimTrace:
    n = int(rng.integers(2, 40))
    g0, g1 = _gate_segment(scenario)
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
                    cmd_v=np.zeros(n - 1), cmd_c=np.zeros(n - 1))


def assert_matches_reference(trace: SimTrace, scenario: DriftScenario):
    clearance, collided, radius, cleared = reference_drift_eval(trace, scenario)
    report = drift_eval(trace, scenario)
    assert report.collided == collided
    assert report.cleared_gate == cleared
    assert report.min_turn_radius == radius
    assert abs(report.min_clearance - clearance) <= 1e-12


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
                         av_lag=np.zeros(n), cmd_v=np.zeros(n - 1),
                         cmd_c=np.zeros(n - 1))
        assert_matches_reference(trace, scenario)
        assert drift_eval(trace, scenario).cleared_gate == expected, name
