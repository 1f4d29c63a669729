"""Circular command buffer and replay execution."""

import numpy as np
import pytest

from ikdlab.errors import ParseError, ValidationError
from ikdlab.replay import (DEFAULT_REPLAY_RATE, CommandBuffer, execute_replay,
                           read_buffer_txt)
from ikdlab.mlp import init_params
from ikdlab.simcore import AV_LIMIT, EPS_V, ControlScript, SlipParams, run_scenario

from conftest import build_gain_model, build_identity_model, step_commands, write_buffer


def small_buffer() -> CommandBuffer:
    return CommandBuffer(rows=[(1.0, 0.1), (2.0, 0.2), (3.0, 0.3)])


# --- buffer ------------------------------------------------------------------

def test_buffer_validation():
    with pytest.raises(ValidationError):
        CommandBuffer(rows=[])
    with pytest.raises(ValidationError):
        CommandBuffer(rows=[(1.0, float("nan"))])
    for rows in ([(1.0, 0.1, 0.2)], [1.0, 0.1], [(1.0, 0.1), (2.0,)],
                 [("v", 0.1)]):
        with pytest.raises(ValidationError, match="buffer rows must be"):
            CommandBuffer(rows=rows)


def test_buffer_reports_its_first_non_finite_row():
    with pytest.raises(ValidationError, match=r"^buffer: v must be within \+-1000, "
                       r"got inf$") as exc:
        CommandBuffer(rows=[(1.0, 0.1), (2.0, 0.2), (np.inf, 0.3), (1.0, np.nan)])
    assert exc.value.row == 2
    with pytest.raises(ValidationError, match=r"^buffer: av must be within \+-1000, "
                       r"got -2000\.0$") as exc:
        CommandBuffer(rows=[(1.0, 0.1), (1e3, -2e3), (1e4, 0.3)])
    assert exc.value.row == 1


def test_buffer_owns_a_copy_of_its_rows():
    rows = np.array([(1.0, 0.1), (2.0, 0.2)])
    buf = CommandBuffer(rows=rows)
    rows[0, 0] = 9.0
    assert buf.rows.dtype == np.float64 and buf.rows.shape == (2, 2)
    assert buf.rows.tolist() == [[1.0, 0.1], [2.0, 0.2]]


def test_replay_wraps_circularly():
    # 20 Hz ticks, one per 10 steps of 5 ms: four ticks read rows 0, 1, 2, 0
    trace = execute_replay(small_buffer(), SlipParams.ideal(), duration=0.2)
    cmd_v, cmd_c = step_commands(trace)
    assert cmd_v[::10].tolist() == [1.0, 2.0, 3.0, 1.0]
    assert cmd_c[::10].tolist() == [0.1 / 1.0, 0.2 / 2.0, 0.3 / 3.0, 0.1 / 1.0]


def test_wrap_property_over_many_reads():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        rows = [(1.0 + i, 0.5 * i) for i in range(n)]
        k = int(rng.integers(1, 40))
        stride = int(rng.integers(1, 2 * n + 1))
        trace = execute_replay(CommandBuffer(rows=rows), SlipParams.ideal(),
                               duration=k / DEFAULT_REPLAY_RATE, stride=stride)
        cmd_v, _ = step_commands(trace)
        assert cmd_v[::10].tolist() == [rows[j * stride % n][0] for j in range(k)]


def test_buffer_txt_round_trip(tmp_path):
    buf = CommandBuffer(rows=[(1.0, 0.1), (2.0, -0.25), (0.123456789012345, 3.0)])
    path = str(tmp_path / "buffer.txt")
    write_buffer(path, buf.rows)
    back = read_buffer_txt(path)
    assert np.array_equal(back.rows, buf.rows)


def test_buffer_txt_parse_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1.0,0.1\n2.0\n", encoding="utf-8")
    with pytest.raises(ParseError, match=":2"):
        read_buffer_txt(str(path))
    path.write_text("1.0,zebra\n", encoding="utf-8")
    with pytest.raises(ParseError, match=":1"):
        read_buffer_txt(str(path))
    path.write_text("\n\n", encoding="utf-8")
    with pytest.raises(ParseError):
        read_buffer_txt(str(path))


# --- execute_replay ----------------------------------------------------------

def test_replay_consumes_rate_commands_per_second():
    buf = CommandBuffer(rows=[(1.0, float(i) / 100.0) for i in range(100)])
    trace = execute_replay(buf, SlipParams.ideal(), duration=1.0)
    # 20 ticks in one second at the default rate: rows 0 to 19
    assert DEFAULT_REPLAY_RATE == 20.0
    assert sorted(set(step_commands(trace)[1].tolist())) == [float(i) / 100.0 for i in range(20)]


def test_replaying_a_buffer_twice_gives_the_same_trace_and_leaves_it_unchanged():
    # 1.15 s at 20 Hz reads 23 of the 10 rows: the replay ends partway
    # through its third pass over the buffer
    rng = np.random.default_rng(4)
    buf = CommandBuffer(rows=np.column_stack([rng.uniform(0.5, 3.5, 10),
                                              rng.uniform(-2.0, 2.0, 10)]))
    rows = buf.rows.copy()
    for model in (None, build_gain_model(1.3)):
        first, second = (execute_replay(buf, SlipParams(), model=model, duration=1.15)
                         for _ in range(2))
        for name in ("x", "y", "heading", "v", "av", "av_lag"):
            assert getattr(first, name).tobytes() == getattr(second, name).tobytes()
        assert step_commands(first).tobytes() == step_commands(second).tobytes()
        assert buf.rows.tobytes() == rows.tobytes()


def test_replay_holds_command_between_ticks():
    buf = CommandBuffer(rows=[(2.0, 0.5), (2.0, -0.5)])
    trace = execute_replay(buf, SlipParams.ideal(), duration=0.1)
    cs = step_commands(trace)[1].tolist()
    # 20 Hz ticks, 0.005 s steps: 10 holds of the first command then wrap
    assert cs[:10] == [0.25] * 10
    assert cs[10:] == [-0.25] * 10


def test_replay_with_identity_model_matches_no_model():
    rng = np.random.default_rng(3)
    rows = [(float(v), float(av)) for v, av in
            zip(rng.uniform(0.5, 3.5, 40), rng.uniform(-2, 2, 40))]
    p = SlipParams()
    plain = execute_replay(CommandBuffer(rows=list(rows)), p, duration=2.0)
    ident = execute_replay(CommandBuffer(rows=list(rows)), p,
                           model=build_identity_model(), duration=2.0)
    assert plain.xy().tolist() == ident.xy().tolist()
    assert plain.av.tolist() == ident.av.tolist()


def test_replay_matches_equivalent_script():
    # A constant-row buffer must reproduce a constant-command scenario.
    p = SlipParams()
    buf = CommandBuffer(rows=[(2.0, 1.0)])
    trace = execute_replay(buf, p, duration=1.5)
    script = ControlScript.constant(2.0, 0.5)
    direct = run_scenario(script, p, 1.5)
    assert trace.xy().tolist() == direct.xy().tolist()


def test_replay_stride_decimates_buffer():
    buf = CommandBuffer(rows=[(1.0, float(i) / 100.0) for i in range(100)])
    trace = execute_replay(buf, SlipParams.ideal(), duration=0.5, stride=3)
    avs = sorted(set(step_commands(trace)[1].tolist()))
    # ticks consume rows 0,3,6,...,27 (curvature av/v with v=1)
    assert avs == [float(i) / 100.0 for i in range(0, 30, 3)]


@pytest.mark.parametrize("stride", [1, 3, 7, 2 ** 63 - 1, 10 ** 23])
def test_replay_stride_past_int64_reads_the_rows_of_its_residue(stride):
    # tick k reads row (k*stride) mod n, so adding a multiple of n changes
    # nothing
    buf = CommandBuffer(rows=[(1.0 + i / 10.0, i / 20.0) for i in range(7)])
    runs = []
    for s in (stride, stride + 7 * 10 ** 20):
        trace = execute_replay(buf, SlipParams.ideal(), duration=0.6, stride=s)
        runs.append((*step_commands(trace).tolist(), trace.xy().tolist()))
    assert runs[0] == runs[1]
    # one tick per 10 steps at 20 Hz and dt 0.005; row i commands v = 1 + i/10
    assert runs[0][0][::10] == [1.0 + ((k * stride) % 7) / 10.0 for k in range(12)]


def test_replay_clamps_buffer_yaw_rates():
    buf = CommandBuffer(rows=[(1.0, 9.0)])
    trace = execute_replay(buf, SlipParams.ideal(), duration=0.2)
    assert np.all(step_commands(trace)[1] == 4.0)


def test_replay_low_speed_rows_go_straight():
    buf = CommandBuffer(rows=[(0.0, 2.0)])
    trace = execute_replay(buf, SlipParams.ideal(), duration=0.2)
    assert np.all(step_commands(trace)[1] == 0.0)
    assert np.allclose(trace.xy(), 0.0)


def test_replayed_commands_stay_within_the_actuator_bound():
    # execute_replay checks no command: each c is a yaw rate clamped to
    # AV_LIMIT over v, or 0, so |v*c| is within AV_LIMIT at every step
    rng = np.random.default_rng(23)
    models = (None, build_identity_model(), build_gain_model(6.0),
              build_gain_model(-6.0), init_params(rng))
    for _ in range(30):
        n = int(rng.integers(4, 80))
        v = rng.uniform(-5.0, 5.0, n)
        v[0], v[1] = rng.uniform(-EPS_V, EPS_V), -rng.uniform(EPS_V, 1e3)
        av = rng.uniform(-1e3, 1e3, n)
        assert np.abs(av).max() > AV_LIMIT and np.abs(v).min() < EPS_V and v.min() < 0
        rng.shuffle(v)
        stride = int(rng.integers(1, 6))
        for model in models:
            trace = execute_replay(CommandBuffer(rows=np.column_stack([v, av])),
                                   SlipParams(), model=model,
                                   duration=float(rng.uniform(0.1, 3.0)), stride=stride)
            cmd_v, cmd_c = step_commands(trace)
            assert np.all(np.abs(cmd_v * cmd_c) <= AV_LIMIT + 1e-9)


def test_replay_argument_validation():
    buf = small_buffer()
    p = SlipParams.ideal()
    with pytest.raises(ValidationError):
        execute_replay(buf, p, rate=0.0)
    with pytest.raises(ValidationError):
        execute_replay(buf, p, duration=0.0)
    with pytest.raises(ValidationError):
        execute_replay(buf, p, stride=0)
    for stride in (1.5, True):   # 1.5 once ended in numpy's IndexError
        with pytest.raises(ValidationError,
                           match=f"^stride must be a positive integer, got {stride!r}$"):
            execute_replay(buf, p, stride=stride)


@pytest.mark.parametrize("arg", ["rate", "duration", "dt"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_replay_rejects_non_finite_arguments(arg, value):
    buf = small_buffer()
    with pytest.raises(ValidationError, match=f"{arg} must be positive and finite"):
        execute_replay(buf, SlipParams.ideal(), **{arg: value})


def test_replay_trace_shape():
    trace = execute_replay(small_buffer(), SlipParams.ideal(), duration=1.0)
    assert trace.x.size == 201
    assert len(trace) == step_commands(trace).shape[1] == 200
    assert len(trace) * trace.dt == pytest.approx(1.0)
