"""Delay estimation, resampling, pruning, and histogram analytics."""

import os
import warnings

import numpy as np
import pytest

from ikdlab import align as align_mod
from ikdlab.align import (DEFAULT_OBJECTIVE_CEILING, AlignedDataset,
                          build_dataset, estimate_delay, histogram,
                          prune_zero_curvature, read_dataset_csv, scan_delays,
                          write_dataset_csv, write_histogram_csv)
from ikdlab.datalog import ImuLog, JoyLog, trim_idle
from ikdlab.errors import (InsufficientOverlapError, ParseError,
                           ValidationError)
from ikdlab.simcore import (YAW_RATE_DOMAIN, SlipParams, c_from_av_v, emit_sensor_logs,
                            run_scenario)

from conftest import make_script


def smooth_av(ts):
    """Band-limited test signal: every sample carries timing information."""
    return (1.8 * np.sin(2 * np.pi * 0.31 * ts)
            + 1.1 * np.sin(2 * np.pi * 0.93 * ts + 1.0)
            + 0.6 * np.sin(2 * np.pi * 2.17 * ts + 2.2))


def make_pair(delay: float,
              noise_sigma: float = 0.0,
              seed: int = 0) -> tuple[JoyLog, ImuLog]:
    """Joystick log plus an IMU stream that is a pure time shift of it."""
    t_joy = np.arange(480) / 40.0
    joy = JoyLog(t=t_joy, v=np.full(480, 2.0), av=smooth_av(t_joy))
    t_imu = np.arange(13000) / 1000.0
    av_z = smooth_av(t_imu - delay)
    if noise_sigma > 0:
        av_z = av_z + np.random.default_rng(seed).normal(
            0.0, noise_sigma, size=av_z.shape)
    return joy, ImuLog(t=t_imu, av_z=av_z)


# --- estimate_delay ----------------------------------------------------------

def test_identical_streams_give_zero_delay_and_objective():
    t = np.arange(200) / 40.0
    av = smooth_av(t)
    joy = JoyLog(t=t, v=np.full(200, 2.0), av=av)
    imu = ImuLog(t=t, av_z=av)
    est = estimate_delay(joy, imu)
    assert est.delay == 0.0
    assert est.objective == 0.0
    assert est.in_range and not est.corrupt


def test_recovers_injected_shift():
    joy, imu = make_pair(0.176)
    est = estimate_delay(joy, imu)
    assert est.delay == pytest.approx(0.176, abs=0.002)
    assert est.in_range and not est.corrupt


def test_recovery_property_over_random_shifts():
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = float(rng.uniform(0.0, 0.4))
        joy, imu = make_pair(d)
        est = estimate_delay(joy, imu)
        assert abs(est.delay - d) <= 0.002


def test_flat_imu_stream_is_flagged_corrupt():
    t = np.arange(480) / 40.0
    av = np.where((np.arange(480) // 20) % 2 == 0, 1.5, -1.5)
    joy = JoyLog(t=t, v=np.full(480, 2.0), av=av)
    imu = ImuLog(t=t, av_z=np.zeros(480))
    est = estimate_delay(joy, imu)
    # flat reference: the objective is the joystick yaw-rate power, here
    # exactly 1.5^2 at every candidate, so ties resolve to the smallest delay
    assert est.objective == pytest.approx(2.25)
    assert est.delay == 0.0
    assert est.corrupt
    assert est.objective > DEFAULT_OBJECTIVE_CEILING


def test_negative_shift_flagged_out_of_range():
    joy, imu = make_pair(-0.2)
    est = estimate_delay(joy, imu, search=(-0.3, -0.1))
    assert est.delay == pytest.approx(-0.2, abs=0.002)
    assert not est.in_range


def test_short_overlap_raises():
    t = np.arange(20) / 40.0  # 0.5 s of data
    joy = JoyLog(t=t, v=np.ones(20), av=smooth_av(t))
    imu = ImuLog(t=t, av_z=smooth_av(t))
    with pytest.raises(InsufficientOverlapError):
        estimate_delay(joy, imu)


def test_logs_at_the_yaw_rate_domain_edge_scan_without_a_warning(monkeypatch):
    monkeypatch.setattr(align_mod, "_scan_workers", lambda: 2)   # and on a worker
    t = np.arange(200) / 40.0
    # the largest squared error two logs can hold: yaw rates at opposite edges
    joy = JoyLog(t=t, v=np.ones(200), av=np.full(200, YAW_RATE_DOMAIN))
    imu = ImuLog(t=t, av_z=np.full(200, -YAW_RATE_DOMAIN))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, objectives = scan_delays(joy, imu)
        est = estimate_delay(joy, imu)
    scanned = objectives[np.isfinite(objectives)]
    assert scanned.size > 400 and np.all(scanned == 4 * YAW_RATE_DOMAIN ** 2)
    assert est.objective == 4 * YAW_RATE_DOMAIN ** 2
    # one step past the edge, the log refuses the row
    with pytest.raises(ValidationError, match=r"^JoyLog: av must be within \+-1000, "
                       r"got 1000\.0000000000001$") as exc:
        JoyLog(t=t, v=np.ones(200), av=np.full(200, np.nextafter(YAW_RATE_DOMAIN, np.inf)))
    assert exc.value.row == 0


def test_scan_workers_follow_the_affinity_set_else_the_cpu_count(monkeypatch):
    cap = align_mod._SCAN_THREADS
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert align_mod._scan_workers() == min(3, cap)
    monkeypatch.delattr(os, "sched_getaffinity")
    for cpus, workers in ((3, min(3, cap)), (None, 1), (cap + 60, cap)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert align_mod._scan_workers() == workers


def test_scan_grid_layout_and_argmin_consistency():
    joy, imu = make_pair(0.1)
    delays, objectives = scan_delays(joy, imu, search=(0.0, 0.5), step=0.001)
    assert len(delays) == 501
    assert delays[0] == 0.0 and delays[-1] == pytest.approx(0.5)
    est = estimate_delay(joy, imu)
    finite = np.isfinite(objectives)
    assert est.objective <= np.min(objectives[finite]) + 1e-15
    with pytest.raises(ValidationError):
        scan_delays(joy, imu, search=(0.5, 0.0))
    with pytest.raises(ValidationError):
        scan_delays(joy, imu, step=0.0)


@pytest.mark.parametrize("kwargs, match", [
    ({"step": float("nan")}, r"step must be positive and finite, got nan"),
    ({"step": float("inf")}, r"step must be positive and finite, got inf"),
    ({"step": -0.001}, r"step must be positive and finite, got -0\.001"),
    ({"search": (0.0, float("inf"))}, r"search must be finite, got \(0\.0, inf\)"),
    ({"search": (float("nan"), 0.5)}, r"search must be finite, got \(nan, 0\.5\)"),
    ({"search": (float("-inf"), 0.0)}, r"search must be finite"),
])
def test_scan_rejects_non_finite_arguments_naming_them(kwargs, match):
    joy, imu = make_pair(0.1)
    with pytest.raises(ValidationError, match=match):
        scan_delays(joy, imu, **kwargs)
    with pytest.raises(ValidationError, match=match):
        estimate_delay(joy, imu, **kwargs)


# --- build_dataset -----------------------------------------------------------

def test_linear_midpoint_interpolation():
    joy = JoyLog(t=[0.0, 1.0], v=[0.0, 2.0], av=[0.0, 2.0])
    imu = ImuLog(t=[0.0, 1.0], av_z=[0.0, 1.0])
    d = build_dataset(joy, imu, delay=0.0, rate=2.0)
    assert len(d) == 2
    assert d.av_joy[1] == pytest.approx(1.0)
    assert d.v_joy[1] == pytest.approx(1.0)
    assert d.av_imu[1] == pytest.approx(0.5)


def test_zero_delay_coincident_grid_copies_channels():
    t = np.arange(80) / 40.0
    av = smooth_av(t)
    joy = JoyLog(t=t, v=np.full(80, 2.0), av=av)
    imu = ImuLog(t=t, av_z=av * 0.9)
    d = build_dataset(joy, imu, delay=0.0, rate=40.0)
    assert np.array_equal(d.av_joy, av[: len(d)])
    assert np.array_equal(d.av_imu, 0.9 * av[: len(d)])


def test_row_count_matches_overlap_times_rate():
    t = np.arange(401) / 40.0  # exactly 10 s of support
    joy = JoyLog(t=t, v=np.ones(401), av=smooth_av(t))
    imu = ImuLog(t=t, av_z=smooth_av(t))
    assert len(build_dataset(joy, imu, delay=0.0, rate=40.0)) == 400


def test_build_dataset_rejects_empty_overlap():
    joy = JoyLog(t=[0.0, 1.0], v=[1.0, 1.0], av=[0.0, 0.0])
    imu = ImuLog(t=[5.0, 6.0], av_z=[0.0, 0.0])
    with pytest.raises(ValidationError):
        build_dataset(joy, imu, delay=0.0)


@pytest.mark.parametrize("rate", [float("nan"), float("inf"), 0.0, -40.0])
def test_build_dataset_rejects_bad_rate_naming_it(rate):
    joy, imu = make_pair(0.1)
    with pytest.raises(ValidationError,
                       match=f"rate must be positive and finite, got {rate!r}"):
        build_dataset(joy, imu, delay=0.1, rate=rate)


def test_dataset_validation():
    with pytest.raises(ValidationError):
        AlignedDataset(v_joy=[1.0], av_joy=[5.0], av_imu=[0.0])
    with pytest.raises(ValidationError):
        AlignedDataset(v_joy=[1.0, 2.0], av_joy=[0.0], av_imu=[0.0])
    d = AlignedDataset(v_joy=[1.0], av_joy=[0.5], av_imu=[0.4])
    assert d.idx.tolist() == [0]


@pytest.mark.parametrize("av_joy, av_imu, row, message", [
    # one comparison per column: the first row outside any column's domain
    ([0.5, 4.2, 0.5, 0.5], [0.4, 0.4, np.nan, 0.4], 1, "dataset: av_joy must be within +-4, "
     "got 4.2"),
    ([0.5, 0.5, -4.2, 4.5], [0.4, 0.4, 0.4, 0.4], 2,
     "dataset: av_joy must be within +-4, got -4.2"),
    ([0.5, 0.5, 0.5, 4.5], [0.4, 0.4, np.nan, 1e200], 2, "dataset: av_imu must be within "
     "+-1000, got nan"),
])
def test_dataset_check_reports_the_first_row_that_fails_it(av_joy, av_imu, row, message):
    with pytest.raises(ValidationError) as exc:
        AlignedDataset(v_joy=np.ones(4), av_joy=av_joy, av_imu=av_imu)
    assert (str(exc.value), exc.value.row) == (message, row)


def test_only_commands_are_held_to_the_actuator_limit():
    # IMU noise around a command at the limit reads above 4 rad/s
    d = AlignedDataset(v_joy=[4.0, 4.0], av_joy=[4.0, 4.0],
                       av_imu=[4.0, 4.013])
    assert d.av_imu[1] == 4.013
    AlignedDataset(v_joy=[4.0], av_joy=[-4.0], av_imu=[-6.5])
    with pytest.raises(ValidationError, match="av_joy"):
        AlignedDataset(v_joy=[4.0], av_joy=[4.1], av_imu=[4.0])
    with pytest.raises(ValidationError, match="av_imu must be within"):
        AlignedDataset(v_joy=[4.0], av_joy=[4.0], av_imu=[np.inf])


# --- curvature pruning -------------------------------------------------------

def test_prune_drops_zero_yaw_rows():
    d = AlignedDataset(v_joy=[2.0, 2.0, 0.01, 2.0],
                       av_joy=[0.0, 1.0, 3.0, -1.0],
                       av_imu=[0.0, 0.9, 2.5, -0.9])
    out = prune_zero_curvature(d)
    # row 0 has zero curvature; row 2 is below the speed guard, so its
    # curvature is defined as zero and it is dropped too
    assert out.av_joy.tolist() == [1.0, -1.0]


def test_prune_identity_and_empty_cases():
    turning = AlignedDataset(v_joy=[2.0, 2.0], av_joy=[1.0, -0.5],
                             av_imu=[0.9, -0.4])
    out = prune_zero_curvature(turning)
    assert np.array_equal(out.av_joy, turning.av_joy)
    straight = AlignedDataset(v_joy=[2.0, 2.0], av_joy=[0.0, 0.0],
                              av_imu=[0.0, 0.0])
    assert len(prune_zero_curvature(straight)) == 0


def test_prune_is_idempotent():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 60))
        d = AlignedDataset(v_joy=rng.uniform(0.0, 4.0, n),
                           av_joy=np.round(rng.uniform(-2, 2, n), 1),
                           av_imu=rng.uniform(-2, 2, n))
        once = prune_zero_curvature(d)
        twice = prune_zero_curvature(once)
        assert np.array_equal(once.av_joy, twice.av_joy)
        c = c_from_av_v(once.av_joy, once.v_joy)
        assert np.all(np.abs(c) > 1e-4)


def test_row_curvature_guard():
    c = c_from_av_v([1.0, 1.0], [2.0, 0.01])
    assert c[0] == pytest.approx(0.5)
    assert c[1] == 0.0


# --- histogram ---------------------------------------------------------------

def test_histogram_single_bin():
    assert histogram([0.5], bins=1, vrange=(0.0, 1.0)).tolist() == [1]


def test_histogram_clamps_out_of_range_into_edge_bins():
    # 0.5 sits on the shared edge and lands in the upper bin; -5 and 7 are
    # clamped into the outermost bins
    counts = histogram([-5.0, 0.5, 7.0], bins=2, vrange=(0.0, 1.0))
    assert counts.tolist() == [1, 2]
    assert histogram([-5.0, 0.2, 7.0], bins=2, vrange=(0.0, 1.0)).tolist() == [2, 1]


def test_histogram_conserves_counts():
    rng = np.random.default_rng(19)
    for _ in range(100):
        n = int(rng.integers(0, 200))
        vals = rng.normal(0, 3, n)
        bins = int(rng.integers(1, 30))
        counts = histogram(vals, bins=bins, vrange=(-2.0, 2.0))
        assert counts.sum() == n
    with pytest.raises(ValidationError):
        histogram([1.0], bins=0, vrange=(0.0, 1.0))
    with pytest.raises(ValidationError):
        histogram([1.0], bins=2, vrange=(1.0, 1.0))


def test_velocity_histogram_from_simulated_sweep():
    script = make_script([(0.0, 2.0, 0.4), (2.0, 4.2, 0.4), (4.0, 3.0, -0.4)])
    p = SlipParams()
    trace = run_scenario(script, p, 6.0)
    joy, imu = trim_idle(*emit_sensor_logs(trace, p))
    est = estimate_delay(joy, imu)
    d = prune_zero_curvature(build_dataset(joy, imu, est.delay))
    counts = histogram(d.v_joy, bins=20, vrange=(0.0, 5.0))
    assert counts.sum() == len(d)
    top = np.max(np.nonzero(counts)[0])
    assert 4.2 < (top + 1) * 0.25 + 1e-12  # top occupied bin holds the 4.2 m/s block
    assert np.max(d.v_joy) <= 4.3


# --- CSV formats -------------------------------------------------------------

def test_dataset_csv_round_trip(tmp_path):
    d = AlignedDataset(v_joy=[1.0, 2.0], av_joy=[0.5, -0.25],
                       av_imu=[0.45, -0.2])
    path = str(tmp_path / "dataset.csv")
    write_dataset_csv(d, path)
    back = read_dataset_csv(path)
    assert np.array_equal(back.v_joy, d.v_joy)
    assert np.array_equal(back.av_joy, d.av_joy)
    assert np.array_equal(back.av_imu, d.av_imu)


def test_dataset_csv_rejects_broken_index(tmp_path):
    path = tmp_path / "dataset.csv"
    path.write_text("idx,v_joy,av_joy,av_imu\n0,1.0,0.5,0.4\n2,1.0,0.5,0.4\n",
                    encoding="utf-8")
    with pytest.raises(ValidationError, match="contiguity"):
        read_dataset_csv(str(path))


@pytest.mark.parametrize("idx", ["1.5", "nan", "-1", "1e3"])
def test_dataset_csv_rejects_non_contiguous_or_non_integral_index(tmp_path, idx):
    path = tmp_path / "dataset.csv"
    path.write_text(f"idx,v_joy,av_joy,av_imu\n0,1.0,0.5,0.4\n{idx},1.0,0.5,0.4\n",
                    encoding="utf-8")
    with pytest.raises(ValidationError,
                       match=r"dataset\.csv:3: idx .* breaks contiguity \(expected 1\)"):
        read_dataset_csv(str(path))


def test_dataset_csv_names_the_file_line_of_a_bad_index_past_blank_lines(tmp_path):
    path = tmp_path / "dataset.csv"
    path.write_text("idx,v_joy,av_joy,av_imu\n\n0,1.0,0.5,0.4\n \n\n"
                    "1,1.0,0.5,0.4\n\n7,1.0,0.5,0.4\n", encoding="utf-8")
    with pytest.raises(ValidationError,
                       match=r"dataset\.csv:8: idx 7 breaks contiguity \(expected 2\)"):
        read_dataset_csv(str(path))


def test_dataset_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "dataset.csv"
    path.write_text("a,b,c,d\n", encoding="utf-8")
    with pytest.raises(ParseError):
        read_dataset_csv(str(path))


def test_histogram_csv_layout(tmp_path):
    path = tmp_path / "hist.csv"
    write_histogram_csv(np.array([2, 0, 1]), (0.0, 3.0), str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "bin_lo,bin_hi,count"
    assert lines[1] == "0.0,1.0,2"
    assert lines[3] == "2.0,3.0,1"
