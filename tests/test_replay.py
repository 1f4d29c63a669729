"""Circular command buffer and replay execution."""

import numpy as np
import pytest

from ikdlab.errors import ParseError, ValidationError
from ikdlab.replay import (DEFAULT_REPLAY_RATE, CommandBuffer, execute_replay,
                           next_command, read_buffer_txt)
from ikdlab.simcore import ControlScript, SlipParams, run_scenario

from conftest import build_identity_model, write_buffer


def small_buffer() -> CommandBuffer:
    return CommandBuffer(rows=[(1.0, 0.1), (2.0, 0.2), (3.0, 0.3)])


# --- buffer ------------------------------------------------------------------

def test_buffer_validation():
    with pytest.raises(ValidationError):
        CommandBuffer(rows=[])
    with pytest.raises(ValidationError):
        CommandBuffer(rows=[(1.0, float("nan"))])
    with pytest.raises(ValidationError):
        CommandBuffer(rows=[(1.0, 0.1)], cursor=1)
    for rows in ([(1.0, 0.1, 0.2)], [1.0, 0.1], [(1.0, 0.1), (2.0,)],
                 [("v", 0.1)]):
        with pytest.raises(ValidationError, match="buffer rows must be"):
            CommandBuffer(rows=rows)


def test_buffer_reports_its_first_non_finite_row():
    with pytest.raises(ValidationError, match="buffer rows must be finite") as exc:
        CommandBuffer(rows=[(1.0, 0.1), (2.0, 0.2), (np.inf, 0.3), (1.0, np.nan)])
    assert exc.value.row == 2
    with pytest.raises(ValidationError, match="cursor") as exc:
        CommandBuffer(rows=[(1.0, 0.1)], cursor=1)
    assert exc.value.row is None


def test_buffer_owns_a_copy_of_its_rows():
    rows = np.array([(1.0, 0.1), (2.0, 0.2)])
    buf = CommandBuffer(rows=rows)
    rows[0, 0] = 9.0
    assert buf.rows.dtype == np.float64 and buf.rows.shape == (2, 2)
    assert buf.rows[0, 0] == 1.0
    assert next_command(buf) == (1.0, 0.1)
    assert all(type(x) is float for x in next_command(buf))


def test_next_command_wraps_circularly():
    buf = small_buffer()
    seen = [next_command(buf) for _ in range(4)]
    assert seen == [(1.0, 0.1), (2.0, 0.2), (3.0, 0.3), (1.0, 0.1)]
    assert buf.cursor == 1


def test_wrap_property_over_many_reads():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        rows = [(float(i), float(-i)) for i in range(n)]
        buf = CommandBuffer(rows=list(rows))
        k = int(rng.integers(1, 40))
        for j in range(k):
            assert next_command(buf) == rows[j % n]
        assert buf.cursor == k % n


def test_buffer_txt_round_trip(tmp_path):
    buf = CommandBuffer(rows=[(1.0, 0.1), (2.0, -0.25), (0.123456789012345, 3.0)])
    path = str(tmp_path / "buffer.txt")
    write_buffer(path, buf.rows)
    back = read_buffer_txt(path)
    assert np.array_equal(back.rows, buf.rows)
    assert back.cursor == 0


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
    execute_replay(buf, SlipParams.ideal(), duration=1.0)
    # 20 ticks in one second at the default rate, cursor left on row 20
    assert DEFAULT_REPLAY_RATE == 20.0
    assert buf.cursor == 20


def test_replay_holds_command_between_ticks():
    buf = CommandBuffer(rows=[(2.0, 0.5), (2.0, -0.5)])
    trace = execute_replay(buf, SlipParams.ideal(), duration=0.1)
    cs = trace.cmd_c.tolist()
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
    avs = sorted(set(trace.cmd_c.tolist()))
    # ticks consume rows 0,3,6,...,27 (curvature av/v with v=1)
    assert avs == [float(i) / 100.0 for i in range(0, 30, 3)]
    assert buf.cursor == 30


@pytest.mark.parametrize("stride", [1, 3, 7, 2 ** 63 - 1, 10 ** 23])
def test_replay_stride_past_int64_reads_the_rows_of_its_residue(stride):
    # tick k reads row (cursor + k*stride) mod n, so adding a multiple of n
    # changes nothing
    runs = []
    for s in (stride, stride + 7 * 10 ** 20):
        buf = CommandBuffer(rows=[(1.0 + i / 10.0, i / 20.0) for i in range(7)], cursor=2)
        trace = execute_replay(buf, SlipParams.ideal(), duration=0.6, stride=s)
        runs.append((trace.cmd_v.tolist(), trace.cmd_c.tolist(), trace.xy().tolist(),
                     buf.cursor))
    assert runs[0] == runs[1]
    # one tick per 10 steps at 20 Hz and dt 0.005; row i commands v = 1 + i/10
    assert runs[0][0][::10] == [1.0 + ((2 + k * stride) % 7) / 10.0 for k in range(12)]
    assert runs[0][3] == (2 + 12 * stride) % 7


def test_replay_clamps_buffer_yaw_rates():
    buf = CommandBuffer(rows=[(1.0, 9.0)])
    trace = execute_replay(buf, SlipParams.ideal(), duration=0.2)
    assert np.all(trace.cmd_c == 4.0)


def test_replay_low_speed_rows_go_straight():
    buf = CommandBuffer(rows=[(0.0, 2.0)])
    trace = execute_replay(buf, SlipParams.ideal(), duration=0.2)
    assert np.all(trace.cmd_c == 0.0)
    assert np.allclose(trace.xy(), 0.0)


def test_replay_argument_validation():
    buf = small_buffer()
    p = SlipParams.ideal()
    with pytest.raises(ValidationError):
        execute_replay(buf, p, rate=0.0)
    with pytest.raises(ValidationError):
        execute_replay(buf, p, duration=0.0)
    with pytest.raises(ValidationError):
        execute_replay(buf, p, stride=0)


@pytest.mark.parametrize("arg", ["rate", "duration", "dt"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_replay_rejects_non_finite_arguments(arg, value):
    buf = small_buffer()
    with pytest.raises(ValidationError, match=f"{arg} must be positive and finite"):
        execute_replay(buf, SlipParams.ideal(), **{arg: value})
    assert buf.cursor == 0


def test_replay_trace_shape():
    trace = execute_replay(small_buffer(), SlipParams.ideal(), duration=1.0)
    assert trace.x.size == 201
    assert len(trace) == trace.cmd_c.size == 200
    assert len(trace) * trace.dt == pytest.approx(1.0)
