"""Log containers, CSV round-trips, parse diagnostics, idle trimming."""

import numpy as np
import pytest

from ikdlab.datalog import (ImuLog, JoyLog, read_imu_csv, read_joy_csv,
                            trim_idle, write_imu_csv, write_joy_csv)
from ikdlab.errors import CorruptLogError, ParseError, ValidationError


def make_joy(t, v, av) -> JoyLog:
    return JoyLog(t=np.asarray(t, float), v=np.asarray(v, float),
                  av=np.asarray(av, float))


# --- container validation ----------------------------------------------------

def test_log_requires_strictly_increasing_time():
    with pytest.raises(ValidationError):
        make_joy([0.0, 0.0], [1, 1], [0, 0])
    with pytest.raises(ValidationError):
        ImuLog(t=[1.0, 0.5], av_z=[0.0, 0.0])


def test_log_rejects_shape_mismatch_and_nonfinite():
    with pytest.raises(ValidationError):
        make_joy([0.0, 1.0], [1.0], [0.0, 0.0])
    with pytest.raises(ValidationError):
        ImuLog(t=[0.0, 1.0], av_z=[0.0, float("nan")])
    with pytest.raises(ValidationError, match="^JoyLog: t must be 1-D$"):
        make_joy([[0.0, 1.0]], [[1.0, 1.0]], [[0.0, 0.0]])


@pytest.mark.parametrize("t, v, row, message", [
    # the value check runs before the order check, so t repeating earlier
    # does not hide a later NaN
    ([0.0, 0.1, 0.1, 0.3], [1.0, 1.0, 1.0, np.nan], 3,
     "JoyLog: v must be within +-1000, got nan"),
    # a finite speed past the domain is refused like a non-finite one
    ([0.0, 0.1, 0.2, 0.3], [1.0, -1e200, 1.0, np.inf], 1,
     "JoyLog: v must be within +-1000, got -1e+200"),
    ([0.0, 0.1, 0.1, 0.0], [1.0, 1.0, 1.0, 1.0], 2, "JoyLog: t must be strictly increasing, got 0.1"),
    # the first failing row, whichever column holds it
    ([0.0, 0.1, np.inf, 0.3], [1.0, 1.0, 1.0, 1e4], 2, "JoyLog: t must be finite, got inf"),
])
def test_log_check_reports_the_first_row_that_fails_it(t, v, row, message):
    with pytest.raises(ValidationError) as exc:
        make_joy(t, v, np.zeros(4))
    assert (str(exc.value), exc.value.row) == (message, row)


# --- CSV round-trips ---------------------------------------------------------

def test_joy_csv_round_trip_exact(tmp_path):
    log = make_joy([0.0, 0.025, 0.05], [2.0, 2.1, -0.3], [1.4, -0.7, 0.1])
    path = str(tmp_path / "joy.csv")
    write_joy_csv(log, path)
    back = read_joy_csv(path)
    assert np.array_equal(back.t, log.t)
    assert np.array_equal(back.v, log.v)
    assert np.array_equal(back.av, log.av)


def test_empty_log_round_trips_as_header_only(tmp_path):
    path = str(tmp_path / "imu.csv")
    write_imu_csv(ImuLog(t=[], av_z=[]), path)
    assert (tmp_path / "imu.csv").read_text(encoding="utf-8") == "t,av_z\n"
    assert len(read_imu_csv(path)) == 0


def test_csv_round_trip_random_logs(tmp_path):
    """Value-identical read-back across magnitudes, signs, and lengths."""
    rng = np.random.default_rng(11)
    for case in range(100):
        n = int(rng.integers(1, 40))
        t = np.cumsum(rng.uniform(1e-4, 2.0, n))
        scale = 10.0 ** rng.integers(-8, 3)   # the magnitudes the domains admit
        log = make_joy(t, rng.normal(0, scale, n), rng.normal(0, scale, n))
        path = str(tmp_path / f"j{case}.csv")
        write_joy_csv(log, path)
        back = read_joy_csv(path)
        assert np.array_equal(back.t, log.t)
        assert np.array_equal(back.v, log.v)
        assert np.array_equal(back.av, log.av)


# --- parse diagnostics -------------------------------------------------------

def test_parse_error_names_offending_line(tmp_path):
    path = tmp_path / "joy.csv"
    path.write_text("t,v,av\n0.0,1.0,0.5\n0.1,oops,0.5\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"joy\.csv:3"):
        read_joy_csv(str(path))


def test_parse_error_on_wrong_header(tmp_path):
    path = tmp_path / "joy.csv"
    path.write_text("time,vel,ang\n", encoding="utf-8")
    with pytest.raises(ParseError, match=":1"):
        read_joy_csv(str(path))


def test_parse_error_on_column_count(tmp_path):
    path = tmp_path / "imu.csv"
    path.write_text("t,av_z\n0.0,1.0,9.9\n", encoding="utf-8")
    with pytest.raises(ParseError, match=":2"):
        read_imu_csv(str(path))


# --- trim_idle ---------------------------------------------------------------

def test_trim_removes_padding_and_keeps_interior():
    t = np.arange(160) / 40.0
    v = np.where((t >= 1.0) & (t < 3.0), 2.0, 0.0)
    av = np.where((t >= 1.0) & (t < 3.0), 0.8, 0.0)
    joy = make_joy(t, v, av)
    imu = ImuLog(t=t, av_z=np.sin(t))
    joy_out, imu_out = trim_idle(joy, imu)
    assert joy_out.t[0] == pytest.approx(1.0)
    assert joy_out.t[-1] == pytest.approx(3.0 - 0.025)
    assert np.all(joy_out.v == 2.0)
    assert imu_out.t[0] >= joy_out.t[0]
    assert imu_out.t[-1] <= joy_out.t[-1]


def test_trim_no_idle_rows_is_identity():
    t = np.arange(40) / 40.0
    joy = make_joy(t, np.full(40, 1.5), np.zeros(40))
    imu = ImuLog(t=t, av_z=np.zeros(40))
    joy_out, imu_out = trim_idle(joy, imu)
    assert np.array_equal(joy_out.t, joy.t)
    assert np.array_equal(imu_out.t, imu.t)


def test_trim_all_idle_raises_corrupt():
    t = np.arange(40) / 40.0
    joy = make_joy(t, np.zeros(40), np.zeros(40))
    with pytest.raises(CorruptLogError):
        trim_idle(joy, ImuLog(t=t, av_z=np.zeros(40)))
    with pytest.raises(CorruptLogError):
        trim_idle(make_joy([], [], []), ImuLog(t=[], av_z=[]))


def test_trim_keeps_interior_idle_gap():
    t = np.arange(6) * 0.1
    joy = make_joy(t, [0.0, 1.0, 0.0, 0.0, 1.0, 0.0],
                   np.zeros(6))
    joy_out, _ = trim_idle(joy, ImuLog(t=t, av_z=np.zeros(6)))
    assert len(joy_out) == 4  # rows 1..4 survive, interior zeros included
    assert joy_out.v.tolist() == [1.0, 0.0, 0.0, 1.0]


def test_trim_respects_threshold():
    t = np.arange(4) * 0.1
    joy = make_joy(t, [0.0005, 1.0, 1.0, 0.0005], np.zeros(4))
    out, _ = trim_idle(joy, ImuLog(t=t, av_z=np.zeros(4)))
    assert len(out) == 2
