"""Array paths against the per-object loops they replaced, 100 seeded cases each.

The simulator oracles are verbatim copies of the per-step loops that
built one VehicleState and one ControlCommand per step.  The closed-form
integrator sums in another order, so its state channels must match them
within SIM_TOL (heading modulo 2*pi) and its commands exactly; a corrected
replay asks the model once for all ticks, so its corrected curvatures match
the one-query-per-tick loop within CMD_TOL.  The drift oracle scores one
state at a time with the scalar geometry references in conftest.  The trainer
oracle is a verbatim copy of the per-tensor backprop, AdamW step and
training loop; the in-place flat-vector trainer must reproduce its weights
and loss curves bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from ikdlab.evalkit import (DriftScenario, Rect, _gate_segment, drift_eval,
                            TURN_AV_FLOOR)
from ikdlab.ikd import AV_LIMIT, c_from_av_v, correct
from ikdlab.align import AlignedDataset
from ikdlab.mlp import (AdamState, LossCurve, MlpParams, TrainConfig, _FIELDS,
                        _SHAPES, _dataset_xy, _forward_batch, adamw_step,
                        forward, init_params, loss_and_grads, train)
from ikdlab.replay import CommandBuffer, execute_replay, next_command
from ikdlab.scenarios import (loose_scenario, tight_scenario,
                               training_sweep_script)
from ikdlab.simcore import (DEFAULT_DT, V_CAP, ControlCommand, ControlScript,
                            SimTrace, SlipParams, VehicleState,
                            _require_finite, normalize_heading, run_scenario,
                            slip_yaw_rate, step_dynamics)
from ikdlab.errors import ValidationError

from conftest import (build_gain_model, point_rect_signed_distance,
                      rect_rect_signed_distance, segments_intersect)

CHANNELS = ("x", "y", "heading", "v", "av", "av_lag")
SIM_TOL = 1e-9   # closed form vs per-step recursion, per channel
CMD_TOL = 1e-12  # batched vs one-row correction, corrected curvature


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
            if segments_intersect(xy[i], xy[i + 1], g0, g1):
                crossed = True
                break
    return min_clearance, collided, min_turn_radius, bool(crossed and not collided)


# --- helpers -----------------------------------------------------------------

def assert_close_channels(actual, states):
    """Each state channel of ``actual`` (a trace, or one state) within SIM_TOL
    of the reference states, heading modulo 2*pi."""
    for name in CHANNELS:
        ref = np.array([getattr(s, name) for s in states], dtype=float)
        got = np.atleast_1d(np.asarray(getattr(actual, name), dtype=float))
        assert got.shape == ref.shape, name
        diff = got - ref
        if name == "heading":
            diff = (diff + math.pi) % math.tau - math.pi
        assert np.all(np.abs(diff) <= SIM_TOL), (name, np.max(np.abs(diff)))


def assert_matches_loop(trace: SimTrace, states, commands):
    assert_close_channels(trace, states)
    assert np.all(np.abs(trace.heading[1:]) <= math.pi)   # wrapped every step
    assert trace.cmd_v.tobytes() == np.array([c.v for c in commands],
                                             dtype=float).tobytes()
    assert trace.cmd_c.tobytes() == np.array([c.c for c in commands],
                                             dtype=float).tobytes()
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
        assert_matches_loop(trace, states, commands)


def test_segment_start_just_above_step_time_takes_effect_at_that_step():
    # 11 * 0.015 = 0.16499999999999998 < 0.165: the 1e-12 tolerance of the
    # segment lookup switches the command at step 11, not step 12.
    script = ControlScript.from_segments([(0.0, 1.0, 0.1), (0.165, 2.0, -0.3)])
    trace = run_scenario(script, SlipParams(), 0.5, dt=0.015)
    states, commands = reference_run_scenario(script, SlipParams(), 0.5, 0.015)
    assert_matches_loop(trace, states, commands)
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
        if model is None:
            assert_matches_loop(trace, states, commands)
        else:   # one batched forward pass vs one pass per tick
            assert_close_channels(trace, states)
            assert trace.cmd_v.tobytes() == np.array([c.v for c in commands],
                                                     dtype=float).tobytes()
            ref_c = np.array([c.c for c in commands], dtype=float)
            assert np.all(np.abs(trace.cmd_c - ref_c) <= CMD_TOL)
        assert buf.cursor == ref_buf.cursor


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
        script = ControlScript.from_segments(
            [(0.2 * i, float(a), float(b)) for i, (a, b) in enumerate(zip(v, c))])
        state = random_state(rng)
        trace = run_scenario(script, SlipParams.ideal(), 1.0, initial_state=state)
        states, commands = reference_run_scenario(script, SlipParams.ideal(), 1.0,
                                                  initial_state=state)
        assert_matches_loop(trace, states, commands)
        assert np.array_equal(trace.v[1:], trace.cmd_v)


def test_segments_starting_above_v_cap_match_per_step_loop():
    # The state starts just above the cap (VehicleState allows 1e-12), the
    # first command holds the speed above it, the next pulls it below, and
    # the last pushes it past the cap again from below.
    script = ControlScript.from_segments([(0.0, 5.0, 0.3), (0.4, 1.0, -0.5),
                                          (0.9, 6.0, 0.1)])
    for sign in (1.0, -1.0):
        state = VehicleState(v=sign * (V_CAP + 1e-12), av_lag=1.0)
        seg_script = ControlScript.from_segments(
            [(s.t_start, sign * s.v, s.c) for s in script.segments])
        for p in (SlipParams(), SlipParams(lag_tau=0.02),
                  SlipParams(beta=0.0, lag_tau=0.0)):
            trace = run_scenario(seg_script, p, 1.5, initial_state=state)
            states, commands = reference_run_scenario(seg_script, p, 1.5,
                                                      initial_state=state)
            assert_matches_loop(trace, states, commands)
            assert np.max(np.abs(trace.v[1:])) == V_CAP


def test_step_dynamics_matches_reference_step_100_cases():
    rng = np.random.default_rng(9)
    for _ in range(100):
        p, dt, state = random_plant(rng), random_dt(rng), random_state(rng)
        v = float(rng.uniform(-6.0, 6.0))
        c = float(rng.uniform(-1.0, 1.0) * min(1.0, AV_LIMIT / abs(v)))
        cmd = ControlCommand(v, c)
        out = step_dynamics(state, cmd, p, dt)
        assert isinstance(out, VehicleState)
        assert_close_channels(out, [reference_step_dynamics(state, cmd, p, dt)])


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


# --- trainer oracle (the per-tensor backprop, AdamW and training loop, kept verbatim)

def reference_loss_and_grads(p: MlpParams, X: np.ndarray, y: np.ndarray):
    n = X.shape[0]
    a1, a2, out = _forward_batch(p, X)
    resid = out - y
    mse = float(np.mean(resid * resid))

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
    return mse, grads


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
        raise ValidationError(
            f"dataset has {n} rows; need at least {2 * cfg.batch_size}")

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
        for start in range(0, n_tr, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            _, grads = reference_loss_and_grads(p, X_tr[batch], y_tr[batch])
            p, s = reference_adamw_step(p, grads, s, cfg)
        train_mse[epoch] = np.mean((forward(p, X_tr) - y_tr) ** 2)
        test_mse[epoch] = np.mean((forward(p, X_te) - y_te) ** 2)
    return p, LossCurve(train_mse=train_mse, test_mse=test_mse)


def random_slip_dataset(rng, n: int) -> AlignedDataset:
    """Understeer-like rows: observed yaw rate lags the command, plus noise."""
    v = rng.uniform(0.3, 4.2, n)
    av_joy = rng.uniform(-1.0, 1.0, n) * np.minimum(4.0, 1.2 * v)
    gain = 1.0 / (1.0 + rng.uniform(0.05, 0.4) * v * v)
    av_imu = gain * av_joy + rng.normal(0.0, 0.02, n)
    return AlignedDataset(v_joy=v, av_joy=av_joy, av_imu=av_imu, period=0.025)


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
        ref_params, ref_curve = reference_train(data, cfg)
        for name in _FIELDS:
            assert np.array_equal(getattr(params, name),
                                  getattr(ref_params, name)), name
        assert np.array_equal(curve.train_mse, ref_curve.train_mse)
        assert np.array_equal(curve.test_mse, ref_curve.test_mse)
    assert partial >= 1 and full >= 1   # short and whole last batches


def test_adamw_step_matches_per_tensor_step_and_leaves_inputs_alone():
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
        before = (p.theta.copy(), {n: g.copy() for n, g in grads.items()},
                  s.m.copy(), s.v.copy())

        p2, s2 = adamw_step(p, grads, s, cfg)
        ref_p, ref_s = reference_adamw_step(p, grads, ReferenceAdamState(m, v, t), cfg)
        for name in _FIELDS:
            assert np.array_equal(getattr(p2, name), getattr(ref_p, name)), name
        assert np.array_equal(s2.m, np.concatenate([ref_s.m[n].ravel() for n in _FIELDS]))
        assert np.array_equal(s2.v, np.concatenate([ref_s.v[n].ravel() for n in _FIELDS]))
        assert s2.t == ref_s.t == t + 1

        assert np.array_equal(p.theta, before[0])
        assert all(np.array_equal(grads[n], before[1][n]) for n in _FIELDS)
        assert np.array_equal(s.m, before[2]) and np.array_equal(s.v, before[3])
        assert s.t == t
        assert not np.shares_memory(p2.theta, p.theta)
        assert not np.shares_memory(s2.m, s.m) and not np.shares_memory(s2.v, s.v)


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
    ref_params, ref_curve = reference_train(data, cfg)
    assert params.theta.tobytes() == ref_params.theta.tobytes()
    assert curve.train_mse.tobytes() == ref_curve.train_mse.tobytes()
    assert curve.test_mse.tobytes() == ref_curve.test_mse.tobytes()


def test_loss_and_grads_match_per_tensor_backprop_bit_for_bit():
    rng = np.random.default_rng(8)
    for _ in range(50):
        p = init_params(rng)
        n = int(rng.choice([1, 2, 7, 32, 128]))
        X = np.column_stack([rng.uniform(0.0, 4.2, n), rng.uniform(-4.0, 4.0, n)])
        y = rng.uniform(-4.0, 4.0, n)
        mse, grads = loss_and_grads(p, X, y)
        ref_mse, ref_grads = reference_loss_and_grads(p, X, y)
        assert mse == ref_mse
        for name in _FIELDS:
            assert grads[name].shape == _SHAPES[name]
            assert grads[name].tobytes() == ref_grads[name].tobytes(), name


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
