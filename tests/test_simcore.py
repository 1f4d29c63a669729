"""Simulator core: heading wrap, validation, slip law, integration, logs."""

import math
import tracemalloc

import numpy as np
import pytest

from ikdlab.datalog import JoyLog
from ikdlab.errors import ParseError, ValidationError
from ikdlab.simcore import (AV_LIMIT, DEFAULT_DT, LAG_TAU_DOMAIN, V_CAP, ControlScript,
                            ScriptSegment, SimTrace, SlipParams, VehicleState,
                            emit_sensor_logs, normalize_heading, record_logs,
                            run_scenario, slip_yaw_rate)
from ikdlab.scenarios import sweep_duration, training_sweep_script

from conftest import kasa_radius, make_script, step_commands, write_dataclass_json


# --- normalize_heading -------------------------------------------------------

def test_heading_wraps_into_half_open_pi_interval():
    assert normalize_heading(0.0) == 0.0
    assert normalize_heading(math.pi) == pytest.approx(math.pi)
    assert normalize_heading(-math.pi) == pytest.approx(math.pi)
    assert normalize_heading(math.pi + 0.1) == pytest.approx(-math.pi + 0.1)
    assert normalize_heading(7 * math.tau + 1.2) == pytest.approx(1.2)
    for h in np.linspace(-20.0, 20.0, 101):
        w = normalize_heading(h)
        assert -math.pi < w <= math.pi + 1e-15
        assert math.cos(w) == pytest.approx(math.cos(h), abs=1e-12)
        assert math.sin(w) == pytest.approx(math.sin(h), abs=1e-12)


# --- dataclass validation ----------------------------------------------------

def test_vehicle_state_rejects_nonfinite_and_overcap():
    with pytest.raises(ValidationError, match=r"^VehicleState: x must be finite, got nan$"):
        VehicleState(x=float("nan"))
    with pytest.raises(ValidationError,
                       match=r"^VehicleState: v must be within \+-4\.219, got 4\.229"):
        VehicleState(v=V_CAP + 0.01)
    VehicleState(v=V_CAP)  # at the cap is fine


def test_slip_params_validation_and_ideal():
    with pytest.raises(ValidationError):
        SlipParams(beta=-0.1)
    with pytest.raises(ValidationError):
        SlipParams(lag_tau=float("inf"))
    ideal = SlipParams.ideal()
    assert (ideal.beta, ideal.lag_tau, ideal.imu_delay,
            ideal.noise_sigma) == (0.0, 0.0, 0.0, 0.0)


def test_lag_tau_is_held_to_its_domain():
    assert SlipParams(lag_tau=LAG_TAU_DOMAIN).lag_tau == 1e3
    for lag, shown in ((1e300, "1e+300"), (float(np.nextafter(1e3, np.inf)),
                                           "1000.0000000000001")):
        with pytest.raises(ValidationError) as exc:
            SlipParams(lag_tau=lag)
        assert str(exc.value) == f"lag_tau must be within +-1000, got {shown}"


def test_slip_params_json_round_trip(tmp_path):
    p = SlipParams(beta=0.03, lag_tau=0.2, imu_delay=0.15,
                   noise_sigma=0.005, seed=9)
    path = str(tmp_path / "slip.json")
    write_dataclass_json(path, p)
    assert SlipParams.from_json(path) == p


def test_slip_params_json_rejects_unknown_keys(tmp_path):
    path = tmp_path / "slip.json"
    path.write_text('{"beta": 0.02, "bogus": 1}\n', encoding="utf-8")
    with pytest.raises(ValidationError, match=r"slip\.json: unknown fields \['bogus'\]"):
        SlipParams.from_json(str(path))


@pytest.mark.parametrize("text, error, match", [
    ('{"beta": "x"}', ValidationError, r"slip\.json: beta must be a finite number, got 'x'"),
    ('{"lag_tau": null}', ValidationError, r"slip\.json: lag_tau must be a finite number"),
    ('{"noise_sigma": true}', ValidationError,
     r"slip\.json: noise_sigma must be a finite number"),
    ('{"imu_delay": -0.1}', ValidationError,
     r"slip\.json: SlipParams fields must be non-negative"),
    ('{"seed": 1.5}', ValidationError, r"slip\.json: seed must be a non-negative integer"),
    ('[0.02]', ValidationError, r"slip\.json: must be a JSON object, got \[0\.02\]"),
    ('{"beta": 0.02,', ParseError, r"slip\.json: not valid JSON"),
])
def test_slip_params_json_names_file_and_field(tmp_path, text, error, match):
    path = tmp_path / "slip.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(error, match=match):
        SlipParams.from_json(str(path))


@pytest.mark.parametrize("text, error, match", [
    ('{"segments": [{"t_start": 0.0, "v": 1.0}]}', ValidationError,
     r"script\.json: segment 0: missing field 'c'"),
    ('[{"t_start": 0.0, "v": 1.0, "c": 0.1}, {"t_start": 1.0, "v": 1.0, "c": NaN}]',
     ValidationError, r"script\.json: segment 1: c must be a finite number, got nan"),
    ('{"segs": []}', ValidationError, r"script\.json: expected a list of segments"),
    ('{"segments": [{"t_start": 0.0, "v": 1.0, "c": 0.1}], "bogus": 1}', ValidationError,
     r"script\.json: unknown fields \['bogus'\]"),
    ('{"segments": [', ParseError, r"script\.json: not valid JSON"),
])
def test_control_script_json_names_file_segment_and_field(tmp_path, text, error, match):
    path = tmp_path / "script.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(error, match=match):
        ControlScript.from_json(str(path))


def test_control_command_rejects_excess_angular_velocity():
    run_scenario(ControlScript.constant(4.0, 1.0), SlipParams(), 0.1)  # on the limit
    with pytest.raises(ValidationError):
        run_scenario(ControlScript.constant(4.0, 1.1), SlipParams(), 0.1)
    trace = run_scenario(ControlScript.constant(2.0, 0.7), SlipParams(), 0.1)
    cmd_v, cmd_c = step_commands(trace)
    assert np.all((cmd_v * cmd_c) == pytest.approx(1.4))


@pytest.mark.parametrize("v, c, message", [
    (float("nan"), 0.5, "v must be within +-1000, got nan"),
    (2.0, float("-inf"), "c must be within +-1000, got -inf"),
    (1e200, 1e-200, "v must be within +-1000, got 1e+200"),
    (1e-3, np.nextafter(1e3, np.inf), "c must be within +-1000, got 1000.0000000000001"),
])
def test_script_segments_are_checked_against_their_domains(v, c, message):
    with pytest.raises(ValidationError) as exc:
        make_script([(0.0, 1.0, 0.1), (0.5, v, c)])
    assert (str(exc.value), exc.value.row) == (message, 1)
    # a segment's v*c, though, is checked only where the run reaches it
    make_script([(0.0, 1.0, 0.1), (0.5, 1e3, 1e3)])


@pytest.mark.parametrize("v, c, message", [
    (2.0, 2.2, "commanded angular velocity v*c=4.4000 outside [-4.0, 4.0]"),
    (-2.0, 2.2, "commanded angular velocity v*c=-4.4000 outside [-4.0, 4.0]"),
])
def test_run_scenario_command_check_messages(v, c, message):
    script = make_script([(0.0, 1.0, 0.1), (0.5, v, c)])
    with pytest.raises(ValidationError) as exc:
        run_scenario(script, SlipParams(), 1.0)
    assert str(exc.value) == message


def test_control_script_ordering_and_lookup():
    with pytest.raises(ValidationError):
        make_script([(0.0, 1.0, 0.0), (0.0, 2.0, 0.0)])
    script = make_script([(0.0, 1.0, 0.1), (2.0, 2.0, 0.2)])
    trace = run_scenario(script, SlipParams(), 50.0 + DEFAULT_DT)
    # step i holds the segment in force at t = i*dt: 0.0, 1.995, 2.0 and 50.0
    cmd_v, cmd_c = step_commands(trace)
    for i, cmd in [(0, (1.0, 0.1)), (399, (1.0, 0.1)), (400, (2.0, 0.2)),
                   (10000, (2.0, 0.2))]:
        assert (cmd_v[i], cmd_c[i]) == cmd
    with pytest.raises(ValidationError, match="script must be defined from t=0"):
        run_scenario(make_script([(1.0, 1.0, 0.0)]), SlipParams(), 2.0)


def test_control_script_json_round_trip(tmp_path):
    script = make_script([(0.0, 1.0, 0.1), (3.5, 2.0, -0.4)])
    path = str(tmp_path / "script.json")
    write_dataclass_json(path, script)
    assert ControlScript.from_json(path) == script


# --- slip law and stepping ---------------------------------------------------

def test_slip_law_closed_form():
    assert slip_yaw_rate(0.0, 3.0, 0.02) == 0.0
    assert slip_yaw_rate(1.4, 2.0, 0.0) == 1.4
    # hand evaluation: 2.8 / (1 + 0.02 * 16 * 2.8) = 2.8 / 1.896
    assert slip_yaw_rate(2.8, 4.0, 0.02) == pytest.approx(2.8 / 1.896)
    assert abs(slip_yaw_rate(2.8, 4.0, 0.02)) < 2.8
    assert slip_yaw_rate(-2.8, 4.0, 0.02) == pytest.approx(-2.8 / 1.896)


def one_step(state: VehicleState, v: float, c: float, p: SlipParams, dt: float):
    """The trace of one step under the command (v, c) from ``state``."""
    trace = run_scenario(ControlScript.constant(v, c), p, dt, dt=dt,
                         initial_state=state)
    assert len(trace) == 1
    return trace


def test_step_straight_line_integration():
    out = one_step(VehicleState(v=1.0), 1.0, 0.0, SlipParams.ideal(), dt=0.05)
    assert (out.x[-1], out.y[-1], out.heading[-1], out.v[-1], out.av[-1]) == \
        (0.05, 0.0, 0.0, 1.0, 0.0)


def test_step_ideal_plant_executes_commanded_yaw_rate():
    out = one_step(VehicleState(), 2.0, 0.7, SlipParams.ideal(), dt=DEFAULT_DT)
    assert out.av[-1] == pytest.approx(1.4)
    assert out.av_lag[-1] == pytest.approx(1.4)


def test_step_settled_lag_applies_slip_attenuation():
    settled = VehicleState(v=4.0, av_lag=2.8)
    out = one_step(settled, 4.0, 0.7, SlipParams(beta=0.02, lag_tau=0.1),
                   dt=DEFAULT_DT)
    assert out.av_lag[-1] == pytest.approx(2.8)
    assert out.av[-1] == pytest.approx(2.8 / 1.896)


def test_step_rejects_bad_dt():
    with pytest.raises(ValidationError, match="dt must be positive"):
        run_scenario(ControlScript.constant(1.0, 0.0), SlipParams.ideal(), 0.05,
                     dt=0.0)


def test_speed_is_clamped_to_cap():
    script = ControlScript.constant(10.0, 0.0)
    trace = run_scenario(script, SlipParams(), 5.0)
    v = trace.v
    assert np.max(v) <= V_CAP + 1e-12
    assert v[-1] == pytest.approx(V_CAP)


def test_slip_fraction_grows_with_speed():
    c = 0.5
    fractions = [(v * c - slip_yaw_rate(v * c, v, 0.02)) / (v * c)
                 for v in (1.0, 2.0, 3.0, 4.0)]
    assert all(b > a for a, b in zip(fractions, fractions[1:]))


# --- run_scenario ------------------------------------------------------------

def test_constant_turn_traces_circle_of_inverse_curvature():
    trace = run_scenario(ControlScript.constant(2.0, 0.7),
                         SlipParams.ideal(), 10.0)
    keep = trace.xy()[400:]  # drop spin-up from rest
    assert kasa_radius(keep) == pytest.approx(1.0 / 0.7, rel=1e-4)


def test_zero_script_leaves_state_fixed():
    trace = run_scenario(ControlScript.constant(0.0, 0.0), SlipParams(), 1.0)
    for name in ("x", "y", "heading", "v", "av", "av_lag"):
        assert np.all(getattr(trace, name) == 0.0), name


def test_step_count_and_times():
    trace = run_scenario(ControlScript.constant(1.0, 0.0),
                         SlipParams.ideal(), 1.0)
    assert len(trace) == 200
    assert len(trace) * trace.dt == pytest.approx(1.0)
    assert trace.times()[-1] == pytest.approx(1.0)
    assert trace.x.size == step_commands(trace).shape[1] + 1 == 201


def test_run_scenario_rejects_bad_duration_and_late_script():
    with pytest.raises(ValidationError):
        run_scenario(ControlScript.constant(1.0, 0.0), SlipParams(), 0.0)
    late = make_script([(1.0, 1.0, 0.0)])
    with pytest.raises(ValidationError):
        run_scenario(late, SlipParams(), 2.0)


@pytest.mark.parametrize("arg", ["duration", "dt"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_run_scenario_rejects_non_finite_duration_and_dt(arg, value):
    kwargs = {"duration": 1.0, arg: value}
    with pytest.raises(ValidationError, match=f"{arg} must be positive and finite"):
        run_scenario(ControlScript.constant(1.0, 0.0), SlipParams(), **kwargs)


def test_run_scenario_checks_reached_segments_with_the_command_message():
    bad = make_script([(0.0, 1.0, 0.1), (0.5, 2.0, 3.0),
                       (0.6, 1e3, 1e3), (5.0, 1.0, 9.0)])
    with pytest.raises(ValidationError, match=r"v\*c=6\.0000 outside"):
        run_scenario(bad, SlipParams(), 1.0)
    # the largest command the domains admit is refused without overflowing
    largest = make_script([(0.0, 1e3, -1e3)])
    with pytest.raises(ValidationError, match=r"v\*c=-1000000\.0000 outside"):
        run_scenario(largest, SlipParams(), 1.0)
    # a segment the run never reaches is not checked
    assert len(run_scenario(bad, SlipParams(), 0.5)) == 100


def test_run_scenario_reports_the_script_index_of_the_failing_segment():
    # the segment at 0.396 s is never reached: the next starts at the same step
    script = make_script([(0.0, 1.0, 0.1), (0.396, 1.0, 9.0), (0.398, 2.0, 0.3),
                          (0.5, 2.0, 2.2)])
    with pytest.raises(ValidationError, match=r"v\*c=4\.4000 outside") as exc:
        run_scenario(script, SlipParams(), 1.0)
    assert exc.value.row == 3


def test_aggressive_script_peak_yaw_rate_attenuated():
    script = make_script([(0.0, 4.2, 0.0), (2.0, 4.2, 0.95), (4.0, 0.5, 0.0)])
    trace = run_scenario(script, SlipParams(beta=0.02, lag_tau=0.1,
                                            noise_sigma=0.0), 6.0)
    cmd_v, cmd_c = step_commands(trace)
    assert np.max(np.abs(trace.av)) < np.max(np.abs((cmd_v * cmd_c)))


def test_run_scenario_deterministic():
    script = make_script([(0.0, 2.0, 0.3), (1.0, 3.0, -0.5)])
    a = run_scenario(script, SlipParams(), 2.0)
    b = run_scenario(script, SlipParams(), 2.0)
    for name in ("x", "y", "heading", "v", "av", "av_lag"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert step_commands(a).tobytes() == step_commands(b).tobytes()


def test_a_trace_holds_its_states_and_one_table_row_per_held_command():
    # the segment at 0.301 s holds no step (the next starts at the same
    # step), and the equal neighbours from 0.302 s and 0.5 s keep two rows:
    # 300 steps hold four commands, and no array has one entry per step
    script = make_script([(0.0, 1.0, 0.2), (0.301, 3.0, 0.1), (0.302, 1.5, -0.4),
                          (0.5, 1.5, -0.4), (1.0, 2.0, 0.0)])
    trace = run_scenario(script, SlipParams(), 1.5)
    assert len(trace) == 300
    shapes = {name: np.shape(value) for name, value in vars(trace).items()}
    assert shapes == {"dt": (), **{name: (301,) for name in
                                   ("x", "y", "heading", "v", "av", "av_lag")},
                      "command_first": (4,), "command_v": (4,), "command_c": (4,)}
    assert trace.command_first.tolist() == [0, 61, 100, 200]
    assert trace.command_v.tolist() == [1.0, 1.5, 1.5, 2.0]
    assert trace.command_c.tolist() == [0.2, -0.4, -0.4, 0.0]


@pytest.mark.parametrize("table, message", [
    (([1, 50], [1.0, 2.0], [0.1, 0.2]), "start at step 0"),
    (([0, 50, 50], [1.0, 2.0, 3.0], [0.1, 0.2, 0.3]), "increase"),
    (([0, 100], [1.0, 2.0], [0.1, 0.2]), "increase"),
    (([], [], []), "start at step 0"),
    (([0.0, 50.0], [1.0, 2.0], [0.1, 0.2]), "integer steps"),
    (([0, 50], [1.0, 2.0], [0.1]), "equal length"),
])
def test_trace_refuses_a_command_table_that_does_not_hold_its_steps(table, message):
    zeros = np.zeros(101)   # 100 steps
    with pytest.raises(ValidationError, match=message):
        SimTrace(DEFAULT_DT, zeros, zeros, zeros, zeros, zeros, zeros, *table)


def test_trace_refuses_state_channels_of_unequal_length():
    zeros = np.zeros(101)
    with pytest.raises(ValidationError, match="state channels must be 1-D of equal"):
        SimTrace(DEFAULT_DT, zeros, zeros[1:], zeros, zeros, zeros, zeros, [0], [1.0], [0.1])


def test_a_zero_speed_keeps_its_sign_in_both_recorders():
    # neighbouring segments that differ only in the sign of a zero v: a
    # sampler that expanded merged segments would log the first sign for both
    script = make_script([(0.0, 0.0, 0.5), (0.5, -0.0, 0.5), (1.0, 0.0, 0.5)])
    p = SlipParams()
    want = np.zeros(140)          # 3.5 s at 40 Hz; the drive from row 40 to 99
    want[60:80] = -0.0
    for joy, _ in (record_logs(script, p, 1.5),
                   emit_sensor_logs(run_scenario(script, p, 1.5), p)):
        assert np.array_equal(joy.av.view(np.int64), want.view(np.int64))
        assert np.array_equal(joy.v.view(np.int64), want.view(np.int64))


# --- emit_sensor_logs --------------------------------------------------------

def test_logs_match_commands_on_ideal_plant():
    trace = run_scenario(ControlScript.constant(2.0, 0.7),
                         SlipParams.ideal(), 2.0)
    joy, imu = emit_sensor_logs(trace, SlipParams.ideal())
    assert len(joy) == (2 + 2) * 40
    active = (joy.t >= 1.0) & (joy.t < 3.0)
    assert np.all(joy.v[active] == 2.0)
    assert np.all(joy.av[active] == pytest.approx(1.4))
    # skip the pad boundary sample, where the state yaw rate is still zero
    interior = (imu.t > 1.0 + DEFAULT_DT) & (imu.t < 3.0)
    assert np.all(imu.av_z[interior] == pytest.approx(1.4))


def test_log_lengths_scale_with_padding_and_rate():
    trace = run_scenario(ControlScript.constant(1.0, 0.2),
                         SlipParams.ideal(), 10.0)
    joy, imu = emit_sensor_logs(trace, SlipParams.ideal(), joy_rate=40.0,
                                imu_rate=40.0, pad=1.0)
    assert len(joy) == 480
    assert len(imu) == 480


def test_imu_stream_is_transport_delayed():
    """Brute-force lag scan between the two emitted streams peaks at the
    configured transport delay."""
    rng = np.random.default_rng(5)
    segs = [(i * 0.5, 2.0, float(c))
            for i, c in enumerate(rng.uniform(-1.7, 1.7, 24))]
    p = SlipParams(beta=0.0, lag_tau=0.0, imu_delay=0.176, noise_sigma=0.0)
    trace = run_scenario(make_script(segs), p, 12.0)
    joy, imu = emit_sensor_logs(trace, p, imu_rate=1000.0)
    active = (joy.t >= 1.0) & (joy.t < 13.0)
    t, ref = joy.t[active], joy.av[active]
    lags = np.arange(0.0, 0.401, 0.001)
    errs = [float(np.mean((ref - np.interp(t + d, imu.t, imu.av_z)) ** 2))
            for d in lags]
    # one integration step of slack: recorded yaw rates switch one dt after
    # the command does
    assert lags[int(np.argmin(errs))] == pytest.approx(0.176, abs=0.01)


def test_imu_noise_is_seeded():
    trace = run_scenario(ControlScript.constant(2.0, 0.5), SlipParams(), 2.0)
    _, imu_a = emit_sensor_logs(trace, SlipParams(seed=1))
    _, imu_b = emit_sensor_logs(trace, SlipParams(seed=1))
    _, imu_c = emit_sensor_logs(trace, SlipParams(seed=2))
    assert np.array_equal(imu_a.av_z, imu_b.av_z)
    assert not np.array_equal(imu_a.av_z, imu_c.av_z)


def test_emit_rejects_empty_trace_and_bad_rates():
    trace = run_scenario(ControlScript.constant(1.0, 0.0), SlipParams(), 1.0)
    empty = SimTrace(dt=DEFAULT_DT, x=[0.0], y=[0.0], heading=[0.0], v=[0.0],
                     av=[0.0], av_lag=[0.0], command_first=[], command_v=[],
                     command_c=[])
    with pytest.raises(ValidationError):
        emit_sensor_logs(empty, SlipParams())
    with pytest.raises(ValidationError):
        emit_sensor_logs(trace, SlipParams(), joy_rate=0.0)
    with pytest.raises(ValidationError):
        emit_sensor_logs(trace, SlipParams(), pad=-1.0)
    script, nan = ControlScript.constant(1.0, 0.1), float("nan")
    for emit in (lambda **kw: emit_sensor_logs(trace, SlipParams(), **kw),
                 lambda **kw: record_logs(script, SlipParams(), 2.0, **kw)):
        for rate in ("joy_rate", "imu_rate"):
            with pytest.raises(ValidationError, match="^sensor rates must be positive$"):
                emit(**{rate: nan})
        with pytest.raises(ValidationError, match="^pad must be non-negative$"):
            emit(pad=nan)


def traced_peak(run):
    """``run()``'s result and the most memory tracemalloc saw it hold, in bytes."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_recording_the_sweep_holds_no_per_step_array():
    # The 484,800-step trace alone takes 31 MB; its 40 Hz logs take 3.9 MB.
    script = training_sweep_script()
    (joy, imu), peak = traced_peak(
        lambda: record_logs(script, SlipParams(), sweep_duration(script)))
    assert len(joy) == len(imu) == 97040
    assert peak < 16e6


def test_a_recording_of_1e9_s_holds_memory_for_its_rows_not_its_steps():
    # 2e11 steps of 5 ms would take 1.6 TB per channel; 1e6 rows take 8 MB.
    script = make_script([(0.0, 2.0, 0.5), (3.0, 1.0, -1.0), (1e8, 0.0, 0.0)])
    (joy, imu), peak = traced_peak(
        lambda: record_logs(script, SlipParams(), 1e9, joy_rate=1e-3, imu_rate=1e-3))
    assert len(joy) == len(imu) == 1_000_000
    assert np.count_nonzero(joy.v) == 100_000
    assert peak < 100e6


def test_emitted_logs_are_valid_log_objects():
    trace = run_scenario(ControlScript.constant(2.0, 0.5), SlipParams(), 2.0)
    joy, imu = emit_sensor_logs(trace, SlipParams())
    assert isinstance(joy, JoyLog)
    assert np.all(np.diff(joy.t) > 0)
    assert np.all(np.diff(imu.t) > 0)
