"""End-to-end pipeline runs through the command-line entry point."""

import json
import os
import re
import reprlib
import shutil
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from ikdlab import align as align_mod, mlp, scenarios
from ikdlab.cli import DEFAULT_CIRCLE_CURVATURES, PipelineConfig, main
from ikdlab.align import AlignedDataset
from ikdlab.datalog import (ImuLog, JoyLog, read_imu_csv, read_joy_csv, trim_idle,
                            write_imu_csv, write_joy_csv)
from ikdlab.errors import ParseError, ValidationError
from ikdlab.evalkit import DriftScenario
from ikdlab.simcore import ControlScript, SlipParams

from conftest import make_script, write_dataclass_json, write_new


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_mini_script(path) -> None:
    """A short varied drive: enough rows to train a few epochs quickly."""
    segs = [{"t_start": 3.0 * i, "v": v, "c": c} for i, (v, c) in enumerate(
        [(2.0, 0.3), (2.0, 0.6), (2.0, -0.6), (2.0, -0.3),
         (1.5, 0.4), (1.5, -0.4), (2.5, 0.5), (2.5, -0.5)])]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"segments": segs}, fh)


def write_config(path, seed=7, epochs=3) -> None:
    cfg = {"seed": seed,
           "train": {"epochs": epochs, "batch_size": 32, "seed": seed}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)


def test_pipeline_end_to_end(workdir, capsys):
    write_mini_script("script.json")
    write_config("config.json")
    base = ["--config", "config.json", "--out", "run"]

    assert main(["collect", *base, "--script", "script.json",
                 "--duration", "24.0"]) == 0
    assert os.path.exists("run/logs/joy.csv")
    assert os.path.exists("run/logs/imu.csv")
    assert "collected" in capsys.readouterr().out

    assert main(["align", *base]) == 0
    out = capsys.readouterr().out
    assert "delay" in out and "training rows" in out
    assert os.path.exists("run/datasets/dataset.csv")
    assert os.path.exists("run/reports/delay.json")
    assert os.path.exists("run/reports/delay_scan.csv")
    assert os.path.exists("run/reports/vel_hist.csv")
    delay = json.loads(Path("run/reports/delay.json").read_text(encoding="utf-8"))
    assert set(delay) == {"delay", "objective", "in_range", "corrupt"}
    assert delay["in_range"] and not delay["corrupt"]

    assert main(["train", *base]) == 0
    assert os.path.exists("run/models/model.json")
    assert os.path.exists("run/reports/loss.csv")
    assert "final test mse" in capsys.readouterr().out

    assert main(["correct", *base, "--model", "run/models/model.json",
                 "--v", "2.0", "--c", "0.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"v", "av_desired", "av_corrected", "c_corrected",
                            "clamped"}
    assert payload["av_desired"] == 1.0

    with open("buffer.txt", "w", encoding="utf-8") as fh:
        fh.writelines(f"2.0,{0.4 * (i % 3)}\n" for i in range(40))
    assert main(["replay", *base, "--buffer", "buffer.txt"]) == 0
    assert os.path.exists("run/reports/replay_trace.csv")
    with open("run/reports/replay_trace.csv", encoding="utf-8") as fh:
        assert fh.readline().strip() == "t,x,y,heading,v,av"

    assert main(["eval-circle", *base, "--curvatures", "0.5",
                 "--model", "run/models/model.json"]) == 0
    out = capsys.readouterr().out
    assert "[raw]" in out and "[ikd]" in out
    assert os.path.exists("run/reports/circle_reports.csv")
    assert os.path.exists("run/reports/circle_comparison.csv")
    assert os.path.exists("run/plots/circle_0.50.svg")

    assert main(["eval-drift", *base, "--duration", "2.0"]) == 0
    out = capsys.readouterr().out
    assert "uncorrected/loose" in out and "uncorrected/tight" in out
    assert os.path.exists("run/reports/drift_report.json")
    assert os.path.exists("run/plots/drift.svg")
    drift = json.loads(Path("run/reports/drift_report.json").read_text(encoding="utf-8"))
    assert set(drift["uncorrected"]) == {"loose", "tight"}

    assert main(["plot", *base, "--loss", "run/reports/loss.csv",
                 "--hist", "run/reports/vel_hist.csv",
                 "--delay-scan", "run/reports/delay_scan.csv"]) == 0
    assert os.path.exists("run/plots/loss.svg")
    assert os.path.exists("run/plots/vel_hist.svg")
    assert os.path.exists("run/plots/delay_scan.svg")
    capsys.readouterr()


def test_collect_is_seed_deterministic(workdir):
    write_mini_script("script.json")
    for out in ("a", "b"):
        assert main(["collect", "--seed", "3", "--out", out,
                     "--script", "script.json", "--duration", "6.0"]) == 0
    assert (Path("a/logs/imu.csv").read_bytes()
            == Path("b/logs/imu.csv").read_bytes())
    assert main(["collect", "--seed", "4", "--out", "c",
                 "--script", "script.json", "--duration", "6.0"]) == 0
    # joystick rows are noise-free; the IMU noise follows the seed
    assert (Path("a/logs/joy.csv").read_bytes()
            == Path("c/logs/joy.csv").read_bytes())
    assert (Path("a/logs/imu.csv").read_bytes()
            != Path("c/logs/imu.csv").read_bytes())


def test_error_paths_return_one(workdir, capsys):
    assert main(["align", "--out", "empty"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["train", "--out", "empty"]) == 1
    assert "error:" in capsys.readouterr().err
    assert not os.path.exists("empty")   # a failed subcommand makes no output tree
    assert main(["correct", "--model", "nope.json",
                 "--v", "2.0", "--c", "0.5"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["eval-circle", "--curvatures", "0.0"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["plot"]) == 1
    assert "nothing to plot" in capsys.readouterr().err


@pytest.mark.parametrize("argv, match", [
    (["replay", "--buffer", "buffer.txt", "--duration", "nan"],
     "duration must be positive and finite, got nan"),
    (["eval-drift", "--duration", "inf"],
     "duration must be positive and finite, got inf"),
    (["collect", "--dwell", "nan"], "dwell must be positive and finite, got nan"),
    (["collect", "--script", "script.json", "--duration", "nan"],
     "duration must be positive and finite, got nan"),
    # zero is an invalid duration, not a request for the default one
    (["replay", "--buffer", "buffer.txt", "--duration", "0"],
     "duration must be positive and finite, got 0.0"),
    (["eval-drift", "--duration", "0"], "duration must be positive and finite, got 0.0"),
    (["collect", "--script", "script.json", "--duration", "0"],
     "duration must be positive and finite, got 0.0"),
    # without --duration the script's run length is t_end + dwell
    (["collect", "--script", "script.json", "--dwell", "nan"],
     "dwell must be positive and finite, got nan"),
    # spans too long to count name the knob that made them so
    (["collect", "--dwell", "1e15"],
     "dwell gives 1.212e+20 samples, more than an index can count "
     "(9223372036854775807)"),
    (["collect", "--script", "script.json", "--duration", "6.0", "--config", "pad.json"],
     "pad gives 4e+22 samples, more than an index can count (9223372036854775807)"),
    # refused before the sweep's segment starts overflow to inf
    (["collect", "--dwell", "1e308"],
     "dwell gives inf samples, more than an index can count (9223372036854775807)"),
    # a run shorter than one 5 ms step records nothing: the flag that set its
    # length is named, --duration when given and --dwell otherwise
    (["collect", "--dwell", "1e-300"], "--dwell: cannot emit logs from an empty trace"),
    (["collect", "--script", "script.json", "--duration", "0.004"],
     "--duration: cannot emit logs from an empty trace"),
    (["collect", "--script", "script.json", "--dwell", "1", "--duration", "0.004"],
     "--duration: cannot emit logs from an empty trace"),
    # the sweep's length is set by --dwell alone
    (["collect", "--duration", "5", "--dwell", "0.5"],
     "--duration: sets the length of a --script run; the sweep's length comes from --dwell"),
    (["replay", "--buffer", "buffer.txt", "--duration", "0.004"],
     "--duration: a replay of 0.004 s holds no 0.005 s step"),
    (["eval-drift", "--duration", "0.004"],
     "--duration: a replay of 0.004 s holds no 0.005 s step"),
])
def test_bad_durations_exit_1_naming_the_argument(workdir, capsys, argv, match):
    write_mini_script("script.json")
    with open("pad.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": 0, "pad": 1e20}, fh)
    with open("buffer.txt", "w", encoding="utf-8") as fh:
        fh.write("2.0,0.5\n2.0,-0.5\n")
    assert main([*argv, "--out", "run"]) == 1
    assert capsys.readouterr().err == f"error: {match}\n"


# Durations of 1e15 s need more memory than any machine has, so the step
# grid's allocation fails at once instead of being overcommitted.  Longer
# runs (the sweep at --dwell 1e15 lasts about 6e17 s) count more steps than
# a numpy index holds, and are refused by name before anything is allocated.
@pytest.mark.parametrize("argv", [
    ["replay", "--buffer", "buffer.txt", "--duration", "1e15"],
    ["eval-drift", "--duration", "1e15"],
    ["collect", "--script", "script.json", "--duration", "1e15"],
    ["replay", "--buffer", "buffer.txt", "--duration", "1e17"],
    ["eval-drift", "--duration", "1e17"],
    ["collect", "--dwell", "1e15"],
    ["replay", "--buffer", "buffer.txt", "--duration", "1e308"],
])
def test_unallocatable_durations_exit_1_without_traceback(workdir, capsys, argv):
    write_mini_script("script.json")
    with open("buffer.txt", "w", encoding="utf-8") as fh:
        fh.write("2.0,0.5\n2.0,-0.5\n")
    assert main([*argv, "--out", "run"]) == 1
    err = capsys.readouterr().err
    allocatable = argv[-2:] == ["--duration", "1e15"]
    name = "dwell" if "--dwell" in argv else "duration"
    assert err.startswith("error: out of memory: " if allocatable
                          else f"error: {name} gives ") and err.count("\n") == 1


def test_collect_allocates_for_its_log_rows_not_its_steps(workdir, capsys):
    # 2e11 steps of 5 ms, far more than memory holds, give 10,000 rows per log
    write_mini_script("script.json")
    with open("cfg.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": 0, "rates": {"joy": 1e-5, "imu": 1e-5}}, fh)
    assert main(["collect", "--script", "script.json", "--duration", "1e9",
                 "--config", "cfg.json", "--out", "run"]) == 0
    assert capsys.readouterr().out == \
        "collected 10000 joy rows, 10000 imu rows (1000000000.0 s simulated)\n"
    joy, imu = read_joy_csv("run/logs/joy.csv"), read_imu_csv("run/logs/imu.csv")
    assert len(joy) == len(imu) == 10000 and joy.t[-1] == 9999 / 1e-5


def test_delay_search_past_the_index_range_exits_1_naming_it(workdir, capsys):
    write_mini_script("script.json")
    with open("cfg.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": 0, "delay_search": [0.0, 1e16]}, fh)
    assert main(["collect", "--script", "script.json", "--duration", "6.0",
                 "--out", "run"]) == 0
    capsys.readouterr()
    assert main(["align", "--config", "cfg.json", "--out", "run"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cfg.json: search gives 1e+19 samples, ") \
        and err.count("\n") == 1


def test_out_path_that_is_a_file_exits_1_naming_it(workdir, capsys):
    open("taken", "w", encoding="utf-8").close()
    assert main(["collect", "--out", "taken"]) == 1
    assert capsys.readouterr().err == (
        f"error: Not a directory: {os.path.join('taken', 'logs')}\n")


def test_config_validation(workdir):
    with open("bad.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": 1, "bogus_key": 2}, fh)
    with pytest.raises(ValidationError, match="bogus_key"):
        PipelineConfig.from_json("bad.json")
    with open("noseed.json", "w", encoding="utf-8") as fh:
        json.dump({"pad": 1.0}, fh)
    with pytest.raises(ValidationError, match="seed"):
        PipelineConfig.from_json("noseed.json")


@pytest.mark.parametrize("raw, error, match", [
    ({"seed": 0, "train": {"epochz": 3}}, ValidationError,
     r"bad\.json: train: unknown fields \['epochz'\]"),
    ({"seed": 0, "train": {"epochs": "2"}}, ValidationError,
     r"bad\.json: train: epochs must be an integer in \[1, \d+\], got '2'"),
    ({"seed": 0, "train": {"lr": -1}}, ValidationError,
     r"bad\.json: train: lr must be positive"),
    ({"seed": 0, "train": [3]}, ValidationError,
     r"bad\.json: train: must be a JSON object, got \[3\]"),
])
def test_bad_train_section_names_file_and_key(workdir, capsys, raw, error, match):
    with open("bad.json", "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    with pytest.raises(error, match=match):
        PipelineConfig.from_json("bad.json")
    assert main(["train", "--config", "bad.json", "--out", "run"]) == 1
    assert "error: bad.json" in capsys.readouterr().err


@pytest.mark.parametrize("raw, match", [
    ({"seed": "x"}, r"bad\.json: seed must be a non-negative integer, got 'x'"),
    ({"seed": -1}, r"bad\.json: seed must be a non-negative integer"),
    ({"seed": True}, r"bad\.json: seed must be a non-negative integer"),
    ({"seed": 0, "rates": {"joy": "fast"}},
     r"bad\.json: rates: joy must be a finite number, got 'fast'"),
    ({"seed": 0, "rates": {"imu": 0}}, r"bad\.json: rates: imu must be positive"),
    ({"seed": 0, "rates": {"replay": -20}},
     r"bad\.json: rates: replay must be positive"),
    ({"seed": 0, "rates": {"jyo": 40}}, r"bad\.json: rates: unknown fields \['jyo'\]"),
    ({"seed": 0, "rates": [40]}, r"bad\.json: rates: must be a JSON object, got \[40\]"),
    ({"seed": 0, "delay_search": 5},
     r"bad\.json: delay_search must be a \[lo, hi\] pair, got 5"),
    ({"seed": 0, "delay_search": [0.0, 0.2, 0.4]},
     r"bad\.json: delay_search must be a \[lo, hi\] pair"),
    ({"seed": 0, "delay_search": [0.0, "hi"]},
     r"bad\.json: delay_search must be finite, got \[0\.0, 'hi'\]"),
    ({"seed": 0, "delay_search": [0.3, 0.1]},
     r"bad\.json: delay_search must be a \[lo, hi\] pair with lo < hi, got \[0\.3, 0\.1\]"),
    ({"seed": 0, "delay_step": 0}, r"bad\.json: delay_step must be positive"),
    ({"seed": 0, "delay_step": None},
     r"bad\.json: delay_step must be a finite number, got None"),
    ({"seed": 0, "pad": -1.0}, r"bad\.json: pad must be non-negative and finite, got -1\.0"),
    ({"seed": 0, "pad": "1"}, r"bad\.json: pad must be a finite number"),
    # never 0, 1 or 2: open() takes an integer as a file descriptor, and those
    # are this process's own standard streams
    ({"seed": 0, "slip_file": 5}, r"bad\.json: slip_file must be a path string, got 5$"),
    ({"seed": 0, "scenario_file": True},
     r"bad\.json: scenario_file must be a path string, got True$"),
    ({"seed": 0, "out_dir": ["a"]},
     r"bad\.json: out_dir must be a path string, got \['a'\]$"),
    ({"seed": 0, "out_dir": 5}, r"bad\.json: out_dir must be a path string, got 5$"),
])
def test_bad_top_level_config_names_file_and_key(workdir, capsys, raw, match):
    with open("bad.json", "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    with pytest.raises(ValidationError, match=match):
        PipelineConfig.from_json("bad.json")
    assert main(["align", "--config", "bad.json", "--out", "run"]) == 1
    assert "error: bad.json: " in capsys.readouterr().err


@pytest.mark.parametrize("rate, err", [
    (1e300, r"rate gives 1\.5e\+300 samples, more than an index can count \(\d+\)"),
    (1e-300, "command buffer must be non-empty")], ids=["1e300", "1e-300"])
def test_replay_rate_that_builds_no_drift_buffer_exits_1_naming_it(workdir, capsys, rate,
                                                                    err):
    with open("cfg.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": 0, "rates": {"replay": rate}}, fh)
    assert main(["eval-drift", "--config", "cfg.json", "--out", "run"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(rf"error: cfg\.json: rates: replay: {err}\n", captured.err)
    assert not os.path.exists("run")


@pytest.mark.parametrize("command", ["replay", "eval-drift"])
@pytest.mark.parametrize("rate, err", [
    (1e300, r"a replay of 2e-300 s holds no 0\.005 s step"),
    (1e-300, r"duration gives 4e\+302 samples, more than an index can count \(\d+\)")],
    ids=["1e300", "1e-300"])
def test_replay_rate_that_sets_no_buffer_pass_exits_1_naming_it(workdir, capsys, command,
                                                                 rate, err):
    # without --duration one pass of the two-row buffer lasts 2 / rate seconds
    with open("cfg.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": 0, "rates": {"replay": rate}}, fh)
    with open("buf.txt", "w", encoding="utf-8") as fh:
        fh.write("2.0,0.5\n2.0,-0.5\n")
    assert main([command, "--buffer", "buf.txt", "--config", "cfg.json",
                 "--out", "run"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(rf"error: cfg\.json: rates: replay: {err}\n", captured.err)
    assert not os.path.exists("run")


def test_eval_drift_lines_are_the_same_at_every_replay_rate(workdir, capsys):
    # The canned buffer holds the same commands per second at every rate, and
    # past 1/dt = 200 Hz a step still reads the row of the tick it starts in.
    lines = []
    for rate in (20, 400, 1000):
        with open("cfg.json", "w", encoding="utf-8") as fh:
            json.dump({"seed": 0, "rates": {"replay": rate}}, fh)
        assert main(["eval-drift", "--config", "cfg.json", "--out", "run"]) == 0
        lines.append(capsys.readouterr().out)
    assert lines[1] == lines[0] and lines[2] == lines[0]
    assert "min turn radius inf" not in lines[0]


def test_output_root_is_out_then_config_then_environment_then_default(workdir,
                                                                      monkeypatch):
    write_mini_script("script.json")
    with open("cfg.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": 0, "out_dir": "from_config"}, fh)
    monkeypatch.setenv("IKD_OUT_DIR", "from_env")
    collect = ["collect", "--script", "script.json", "--duration", "1"]
    for extra, root in ((["--config", "cfg.json", "--out", "from_flag"], "from_flag"),
                        (["--config", "cfg.json"], "from_config"),
                        ([], "from_env")):
        assert main(collect + extra) == 0
        assert sorted(os.listdir()) == sorted(["cfg.json", "script.json", root])
        assert sorted(os.listdir(os.path.join(root, "logs"))) == ["imu.csv", "joy.csv"]
        shutil.rmtree(root)
    monkeypatch.delenv("IKD_OUT_DIR")
    assert main(collect) == 0
    assert sorted(os.listdir()) == ["cfg.json", "out", "script.json"]


def test_zero_pad_is_accepted(workdir):
    with open("cfg.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": 0, "pad": 0}, fh)
    assert PipelineConfig.from_json("cfg.json").pad == 0.0


@pytest.mark.parametrize("segments, match", [
    ([{"t_start": 0.0, "v": 1.0}],
     r"script\.json: segment 0: missing field 'c'"),
    ([{"t_start": 0.0, "v": 1.0, "c": 0.1}, {"v": 1.0, "c": 0.2}],
     r"script\.json: segment 1: missing field 't_start'"),
    ([{"t_start": 0.0, "v": "fast", "c": 0.1}],
     r"script\.json: segment 0: v must be a finite number, got 'fast'"),
    ([{"t_start": 0.0, "v": 1.0, "c": 0.1, "w": 2}],
     r"script\.json: segment 0: unknown fields \['w'\]"),
    ([[0.0, 1.0, 0.1]], r"script\.json: segment 0: must be a JSON object"),
    ([{"t_start": 1.0, "v": 1.0, "c": 0.1}, {"t_start": 0.5, "v": 1.0, "c": 0.2}],
     r"script\.json: segment 1: t_start must be strictly increasing, got 0\.5"),
    ([], r"script\.json: ControlScript needs at least one segment"),
])
def test_bad_script_names_file_segment_and_field(workdir, capsys, segments, match):
    with open("script.json", "w", encoding="utf-8") as fh:
        json.dump({"segments": segments}, fh)
    with pytest.raises(ValidationError, match=match):
        ControlScript.from_json("script.json")
    assert main(["collect", "--out", "run", "--script", "script.json"]) == 1
    assert "error: script.json: " in capsys.readouterr().err


@pytest.mark.parametrize("c, err", [
    (2.2, "script.json: segment 1: commanded angular velocity v*c=4.4000 "
          "outside [-4.0, 4.0]"),
    # a non-finite value in a script file stops at the reader, before the
    # command check
    (float("nan"), "script.json: segment 1: c must be a finite number, got nan"),
])
def test_script_command_past_the_checks_exits_1(workdir, capsys, c, err):
    with open("script.json", "w", encoding="utf-8") as fh:
        json.dump({"segments": [{"t_start": 0.0, "v": 1.0, "c": 0.1},
                                {"t_start": 0.5, "v": 2.0, "c": c}]}, fh)
    assert main(["collect", "--out", "run", "--script", "script.json",
                 "--duration", "1.0"]) == 1
    assert capsys.readouterr().err == f"error: {err}\n"


def test_script_with_an_unknown_top_level_key_exits_1_naming_it(workdir, capsys):
    with open("script.json", "w", encoding="utf-8") as fh:
        json.dump({"segments": [{"t_start": 0.0, "v": 1.0, "c": 0.1}], "bogus": 1.0}, fh)
    assert main(["collect", "--out", "run", "--script", "script.json",
                 "--duration", "2"]) == 1
    assert capsys.readouterr().err == "error: script.json: unknown fields ['bogus']\n"


def test_script_out_of_order_exits_1_naming_the_segment(workdir, capsys):
    with open("script.json", "w", encoding="utf-8") as fh:
        json.dump({"segments": [{"t_start": 0.0, "v": 1.0, "c": 0.1},
                                {"t_start": 2.0, "v": 1.0, "c": 0.2},
                                {"t_start": 1.5, "v": 2.0, "c": 0.3}]}, fh)
    assert main(["collect", "--out", "run", "--script", "script.json"]) == 1
    assert capsys.readouterr().err == \
        "error: script.json: segment 2: t_start must be strictly increasing, got 1.5\n"
    assert not os.path.exists("run")


def test_script_that_starts_late_exits_1_naming_its_first_segment(workdir, capsys):
    with open("late.json", "w", encoding="utf-8") as fh:
        json.dump({"segments": [{"t_start": 0.5, "v": 1.0, "c": 0.1}]}, fh)
    assert main(["collect", "--out", "run", "--script", "late.json"]) == 1
    assert capsys.readouterr().err == \
        "error: late.json: segment 0: script must be defined from t=0\n"


# circle_trace checks each (--v, curvature) command before it simulates it;
# with one curvature, or a bad first one, nothing has been simulated yet
@pytest.mark.parametrize("argv, err", [
    (["--curvatures", "nan"], "--v 2.0 at --curvatures nan: c must be within +-1000, "
                              "got nan"),
    (["--curvatures", "inf"], "--v 2.0 at --curvatures inf: c must be within +-1000, "
                              "got inf"),
    (["--curvatures", "0"], "--v 2.0 at --curvatures 0.0: circle test needs a nonzero "
                            "speed and curvature"),
    (["--curvatures", "0.5,x"], "--curvatures: bad curvature list '0.5,x'"),
    (["--curvatures", ","], "--curvatures: curvature list is empty"),
    (["--v", "nan"], "--v nan at --curvatures 0.12: v must be within +-1000, got nan"),
    (["--v=-inf"], "--v -inf at --curvatures 0.12: v must be within +-1000, got -inf"),
    (["--v", "0"], "--v 0.0 at --curvatures 0.12: circle test needs a nonzero speed and "
                   "curvature"),
    (["--curvatures", "2.1"], "--v 2.0 at --curvatures 2.1: commanded angular velocity "
                              "v*c=4.2000 outside [-4.0, 4.0]"),
    (["--curvatures", "1e308"], "--v 2.0 at --curvatures 1e+308: c must be within +-1000, "
                                "got 1e+308"),
    (["--v", "1e308"], "--v 1e+308 at --curvatures 0.12: v must be within +-1000, "
                       "got 1e+308"),
    (["--v=-1e300", "--curvatures", "1e300"], "--v -1e+300 at --curvatures 1e+300: v must "
                                              "be within +-1000, got -1e+300"),
    # curvatures that format alike would write one plot file
    (["--curvatures", "0.5,0.504"], "--curvatures: 0.5 and 0.504 both plot to "
                                    "plots/circle_0.50.svg"),
    (["--curvatures", "0.5,0.5"], "--curvatures: 0.5 and 0.5 both plot to "
                                  "plots/circle_0.50.svg"),
    (["--curvatures", "0.12,-0.3,0.8,-0.299"], "--curvatures: -0.3 and -0.299 both plot "
                                               "to plots/circle_-0.30.svg"),
])
def test_eval_circle_checks_its_flags_before_simulating(workdir, capsys, argv, err):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["eval-circle", "--out", "run", *argv]) == 1
    assert capsys.readouterr().err == f"error: {err}\n"
    assert not os.path.exists("run")   # refused before any output was made


@pytest.mark.parametrize("curvatures, err", [
    ("0.5,inf", "--v 2.0 at --curvatures inf: c must be within +-1000, got inf"),
    ("0.5,0", "--v 2.0 at --curvatures 0.0: circle test needs a nonzero speed and "
              "curvature"),
    ("0.5,2.1", "--v 2.0 at --curvatures 2.1: commanded angular velocity v*c=4.2000 "
                "outside [-4.0, 4.0]"),
], ids=["inf", "zero", "past-the-actuator"])
def test_eval_circle_refuses_a_later_curvature_after_simulating_the_earlier_ones(
        workdir, capsys, curvatures, err):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["eval-circle", "--out", "run", "--curvatures", curvatures]) == 1
    assert capsys.readouterr().err == f"error: {err}\n"
    assert not os.path.exists("run")   # the earlier circles' files are not written


def test_eval_circle_names_the_flags_when_a_corrected_circle_cannot_be_fitted(
        workdir, capsys):
    # the correction turns a speed below the guard into curvature 0, so the
    # corrected run drives straight and its circle fit fails
    mlp.save_model(mlp.init_params(np.random.default_rng(0)), "model.json")
    argv = ["eval-circle", "--v", "0.01", "--curvatures", "0.5"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--out", "run", "--model", "model.json"]) == 1
        assert capsys.readouterr().err == (
            "error: --v 0.01 at --curvatures 0.5: points are collinear or otherwise "
            "degenerate\n")
        assert not os.path.exists("run")
        assert main([*argv, "--out", "plain"]) == 0   # uncorrected, it circles
    assert os.path.exists(os.path.join("plain", "reports", "circle_reports.csv"))


def test_eval_circle_fits_a_1e8_m_arc(workdir, capsys):
    # the run is capped at about 139 s, so at 1 m/s it covers an arc of
    # 1.4e-6 rad: a thin track that the fit must still tell from a line
    assert main(["eval-circle", "--v", "1.0", "--curvatures", "1e-8", "--out", "run"]) == 0
    assert capsys.readouterr().out == (
        "c=0.000 [raw] measured 0.0000 (r=99999999.967 m, deviation 0.00%)\n")


def test_model_free_circle_reports_are_the_same_on_every_blas_core(tmp_path):
    """Runs seed-0 ``eval-circle`` in two processes, under the default
    OpenBLAS core and under ``OPENBLAS_CORETYPE=Prescott``, and compares
    the circle reports byte for byte.

    Only an x86 OpenBLAS built with ``DYNAMIC_ARCH`` (numpy's wheels) reads
    the variable; elsewhere both runs use one core and the test passes
    trivially.
    """
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    reports = []
    for core in (None, "Prescott"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
        env.pop("OPENBLAS_CORETYPE", None)
        if core is not None:
            env["OPENBLAS_CORETYPE"] = core
        out = tmp_path / (core or "default")
        subprocess.run([sys.executable, "-m", "ikdlab.cli", "eval-circle", "--seed", "0",
                        "--curvatures", "0.12", "--out", str(out)],
                       env=env, check=True, capture_output=True)
        reports.append((out / "reports" / "circle_reports.csv").read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("v, c, product", [("1e308", "1e308", "inf"),
                                           ("-1e308", "1e308", "-inf")])
def test_correct_with_an_overflowing_v_times_c_exits_1_without_a_warning(
        workdir, capsys, v, c, product):
    assert float(v) * float(c) == float(product)   # what the flags would command
    mlp.save_model(mlp.init_params(np.random.default_rng(0)), "model.json")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["correct", "--model", "model.json", f"--v={v}", f"--c={c}"]) == 1
    assert caught == []
    err = capsys.readouterr().err
    # v is refused against its domain before the product is formed
    assert err == (f"error: --v {float(v)!r} at --c {float(c)!r}: v must be within "
                   f"+-1000, got {float(v)!r}\n")


@pytest.mark.parametrize("command", [["correct", "--v", "2", "--c", "0.5"],
                                     ["eval-circle", "--curvatures", "0.5"]],
                         ids=["correct", "eval-circle"])
def test_model_with_a_weight_past_the_domain_exits_1_naming_the_file(workdir, capsys,
                                                                     command):
    mlp.save_model(mlp.init_params(np.random.default_rng(0)), "big.json")
    with open("big.json", encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["weights"]["W1"][0][0] = 1e308   # finite, but past WEIGHT_DOMAIN
    with open("big.json", "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*command, "--model", "big.json", "--out", "run"]) == 1
    assert (capsys.readouterr().err
            == "error: big.json: W1 must be within +-1e+100, got 1e+308\n")
    assert not os.path.exists("run")


@pytest.mark.parametrize("argv, name, raw, line", [
    (["align", "--joy", "bad.csv", "--imu", "bad.csv"], "bad.csv",
     b"t,v,av\n0,1,2\n\xff,1,2\n", 3),
    (["collect", "--config", "bad.json"], "bad.json",
     b'{"seed": 0,\n "out_dir": "\xff"}\n', 2),
    (["correct", "--model", "bad.json", "--v", "2.0", "--c", "0.5"], "bad.json",
     b'{"W1": "\xff"}\n', 1),
])
def test_non_utf8_input_exits_1_naming_file_and_line(workdir, capsys, argv, name,
                                                     raw, line):
    with open(name, "wb") as fh:
        fh.write(raw)
    assert main([*argv, "--out", "run"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {name}:{line}: not valid UTF-8 (byte 0xff)\n"


@pytest.mark.parametrize("tensor, reason", [
    ("abc", "tensor W1 must be a rectangular array of numbers"),
    ([[1, 2], [3]], "tensor W1 must be a rectangular array of numbers"),
    ({"a": 1}, "tensor W1 must be a rectangular array of numbers"),
    ([[None, 1.0]] * 32, "tensor W1 must be a rectangular array of numbers"),
    ([["0.5", 1.0]] * 32, "tensor W1 must be a rectangular array of numbers"),
    ([[True, 1.0]] * 32, "tensor W1 must be a rectangular array of numbers"),
    ([[10 ** 400, 1.0]] * 32, "tensor W1 must be a rectangular array of numbers"),
    ([[float("nan"), 1.0]] * 32, "W1 must be within +-1e+100, got nan"),
], ids=["string", "ragged", "object", "null", "numeric-string", "bool",
        "integer-past-float-range", "nan"])
def test_model_tensor_that_is_not_numbers_exits_1_naming_file_and_tensor(
        workdir, capsys, tensor, reason):
    shapes = {"b1": [32], "W2": [32, 32], "b2": [32], "W3": [1, 32], "b3": [1]}
    weights = {name: np.zeros(shape).tolist() for name, shape in shapes.items()}
    with open("m.json", "w", encoding="utf-8") as fh:
        json.dump({"version": 1, "layer_sizes": [2, 32, 32, 1],
                   "weights": {"W1": tensor, **weights}}, fh)
    assert main(["correct", "--model", "m.json", "--v", "2", "--c", "0.5"]) == 1
    assert capsys.readouterr().err == f"error: m.json: {reason}\n"


ALIGN_ARGV = ["align", "--joy", "joy.csv", "--imu", "imu.csv"]


@pytest.mark.parametrize("argv, name, text, line, reason", [
    (ALIGN_ARGV, "joy.csv", "t,v,av\n0.0,1.0,0.5\n\n0.1,1.0,0.5\n0.1,1.0,0.5\n", 5,
     "JoyLog: t must be strictly increasing, got 0.1"),
    (ALIGN_ARGV, "imu.csv", "t,av_z\n0.0,0.5\n\n0.1,0.5\n0.2,nan\n0.3,0.5\n", 5,
     "ImuLog: av_z must be within +-1000, got nan"),
    (["replay", "--buffer", "buf.txt"], "buf.txt", "1.0,0.5\n\n1.0,0.5\n1.0,nan\n", 4,
     "buffer: av must be within +-1000, got nan"),
    # the value check runs before the order check: line 3 repeats t, line 5 is NaN
    (ALIGN_ARGV, "joy.csv", "t,v,av\n0.0,1.0,0.5\n0.0,1.0,0.5\n0.1,1.0,0.5\nnan,1.0,0.5\n",
     5, "JoyLog: t must be finite, got nan"),
    (ALIGN_ARGV, "joy.csv", "t,v,av\n0.0,1.0,0.5\n0.1,1.0,1e200\n", 3,
     "JoyLog: av must be within +-1000, got 1e+200"),
    (["eval-drift", "--buffer", "buf.txt"], "buf.txt", "1.0,0.5\n1e300,0.5\n", 2,
     "buffer: v must be within +-1000, got 1e+300"),
], ids=["joy-repeated-t", "imu-nan", "buffer-nan", "joy-nan-after-repeated-t",
        "joy-av-past-its-domain", "buffer-v-past-its-domain"])
def test_bad_log_or_buffer_row_exits_1_naming_file_and_line(workdir, capsys, argv, name,
                                                            text, line, reason):
    with open("joy.csv", "w", encoding="utf-8") as fh:
        fh.write("t,v,av\n0.0,1.0,0.5\n0.1,1.0,0.5\n")
    with open("imu.csv", "w", encoding="utf-8") as fh:
        fh.write("t,av_z\n0.0,0.5\n0.1,0.5\n")
    with open(name, "w", encoding="utf-8") as fh:
        fh.write(text)
    assert main([*argv, "--out", "run"]) == 1
    assert capsys.readouterr().err == f"error: {name}:{line}: {reason}\n"


@pytest.mark.parametrize("joy, err", [
    ("t,v,av\n" + "".join(f"{k / 40},0.0,0.0\n" for k in range(80)),
     "joy.csv: log is all idle rows; nothing left after trimming"),
    ("t,v,av\n" + "".join(f"{k / 40},1.0,0.5\n" for k in range(30)),
     "joy.csv and imu.csv: streams overlap less than 1.0 s at every candidate delay"),
    # the grid would interpolate between 1.0 and -1e308 past the float range;
    # the joystick log refuses the row first
    ("t,v,av\n" + "".join(f"{k / 40},{-1e308 if k == 40 else 1.0},0.5\n"
                          for k in range(80)),
     "joy.csv:42: JoyLog: v must be within +-1000, got -1e+308"),
    # yaw rates whose squared errors would overflow: refused the same way
    ("t,v,av\n" + "".join(f"{k / 40},1.0,{(-1) ** k * 1e200}\n" for k in range(80)),
     "joy.csv:2: JoyLog: av must be within +-1000, got 1e+200"),
    # a 40 Hz grid over 1e17 s has 4e18 rows, more than numpy can allocate
    ("t,v,av\n0,1.0,0.5\n1e17,1.0,0.5\n",
     "joy.csv and imu.csv: streams overlap 1e+17 s, more than a grid at 40 Hz can "
     "hold in an array"),
], ids=["all-idle", "short-overlap", "too-large-to-interpolate", "overflow", "span-1e17"])
def test_align_names_the_logs_its_pair_check_refuses(workdir, capsys, joy, err):
    with open("joy.csv", "w", encoding="utf-8") as fh:
        fh.write(joy)
    with open("imu.csv", "w", encoding="utf-8") as fh:
        fh.write("t,av_z\n0,0.5\n1e17,0.5\n" if "1e17" in joy else
                 "t,av_z\n" + "".join(f"{k / 40 + 0.01},0.5\n" for k in range(80)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*ALIGN_ARGV, "--out", "run"]) == 1
    assert capsys.readouterr().err == f"error: {err}\n"


@pytest.mark.parametrize("argv, err", [
    (["collect", "--seed", "-1"], "--seed: seed must be a non-negative integer, got -1"),
    (["correct", "--model", "model.json", "--v", "2", "--c", "0.5", "--seed", "-1"],
     "--seed: seed must be a non-negative integer, got -1"),
    (["correct", "--model", "model.json", "--v", "2", "--c", "nan"],
     "--v 2.0 at --c nan: c must be within +-1000, got nan"),
    (["correct", "--model", "model.json", "--v=-inf", "--c", "0.5"],
     "--v -inf at --c 0.5: v must be within +-1000, got -inf"),
    (["correct", "--model", "model.json", "--v", "nan", "--c", "0.5"],
     "--v nan at --c 0.5: v must be within +-1000, got nan"),
    (["correct", "--model", "model.json", "--v", "1e308", "--c", "0.5"],
     "--v 1e+308 at --c 0.5: v must be within +-1000, got 1e+308"),
    (["correct", "--model", "model.json", "--v", "2", "--c", "1e300"],
     "--v 2.0 at --c 1e+300: c must be within +-1000, got 1e+300"),
    # each within its domain, but not the yaw rate they ask for
    (["correct", "--model", "model.json", "--v", "1000", "--c", "2"],
     "--v 1000.0 at --c 2.0: av must be within +-1000, got 2000.0"),
], ids=["seed", "correct-seed", "c", "v", "v-nan", "v-past-its-domain",
        "c-past-its-domain", "v-times-c-past-its-domain"])
def test_seed_v_and_c_flags_are_checked_naming_the_flag(workdir, capsys, argv, err):
    mlp.save_model(mlp.init_params(np.random.default_rng(0)), "model.json")
    assert main([*argv, "--out", "run"]) == 1
    assert capsys.readouterr().err == f"error: {err}\n"


@pytest.mark.parametrize("seed", [-1, 1.5, True, "x", np.int64(-1)],
                         ids=["negative", "float", "bool", "string", "numpy-negative"])
def test_every_seed_is_refused_with_one_message(workdir, capsys, seed):
    # the records, a config file and --seed all word a bad seed alike
    for record in (SlipParams, mlp.TrainConfig):
        with pytest.raises(ValidationError) as exc:
            record(seed=seed)
        assert str(exc.value) == f"seed must be a non-negative integer, got {seed!r}"
    plain = int(seed) if isinstance(seed, np.integer) else seed   # as JSON reads it
    with open("bad.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": plain}, fh)
    assert main(["collect", "--config", "bad.json", "--out", "run"]) == 1
    assert capsys.readouterr().err == (
        f"error: bad.json: seed must be a non-negative integer, got {plain!r}\n")
    if isinstance(plain, int) and not isinstance(plain, bool):
        assert main(["collect", "--seed", str(seed), "--out", "run"]) == 1
        assert capsys.readouterr().err == (
            f"error: --seed: seed must be a non-negative integer, got {plain}\n")
    assert not os.path.exists("run")


def test_numpy_seeds_and_rates_are_accepted():
    assert SlipParams(seed=np.int64(3)).seed == mlp.TrainConfig(seed=np.int64(3)).seed == 3
    assert mlp.TrainConfig(lr=np.float32(1e-3)).lr == np.float32(1e-3)


def test_training_that_diverges_names_the_dataset(workdir, capsys):
    align_mod.write_dataset_csv(
        AlignedDataset(v_joy=np.linspace(0.5, 3.0, 100), av_joy=0.2 * np.ones(100),
                       av_imu=0.18 * np.ones(100)), "ds.csv")
    # sane rows, but a step size that throws the weights past the float range
    with open("cfg.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": 0, "train": {"epochs": 2, "batch_size": 16, "lr": 1e300}}, fh)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["train", "--config", "cfg.json", "--dataset", "ds.csv",
                     "--out", "run"]) == 1
    assert capsys.readouterr().err.startswith("error: ds.csv: training diverged in epoch 0")


def test_scan_memory_error_on_a_worker_reaches_caller_and_align_exits_1(
        workdir, capsys, monkeypatch):
    write_mini_script("script.json")
    assert main(["collect", "--script", "script.json", "--duration", "6.0",
                 "--out", "run"]) == 0
    capsys.readouterr()
    interp = np.interp

    def interp_failing_off_the_main_thread(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("Unable to allocate 512 KiB")
        return interp(*args, **kwargs)

    monkeypatch.setattr(np, "interp", interp_failing_off_the_main_thread)
    monkeypatch.setattr(align_mod, "_scan_workers", lambda: 2)
    threads = threading.active_count()
    t = np.arange(480) / 40.0
    joy, imu = JoyLog(t=t, v=np.ones(480), av=np.sin(t)), ImuLog(t=t, av_z=np.sin(t))
    with pytest.raises(MemoryError, match="512 KiB"):
        align_mod.scan_delays(joy, imu)
    assert threading.active_count() == threads
    assert main(["align", "--out", "run"]) == 1
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate 512 KiB\n"
    assert threading.active_count() == threads


def test_align_prints_and_writes_what_estimate_delay_returns(workdir, capsys):
    # align scans every candidate for delay_scan.csv; estimate_delay prunes
    write_mini_script("script.json")
    assert main(["collect", "--script", "script.json", "--duration", "24.0",
                 "--out", "run"]) == 0
    assert main(["align", "--out", "run"]) == 0
    printed = capsys.readouterr().out.splitlines()[-1]
    joy, imu = trim_idle(read_joy_csv(os.path.join("run", "logs", "joy.csv")),
                         read_imu_csv(os.path.join("run", "logs", "imu.csv")))
    est = align_mod.estimate_delay(joy, imu)
    with open(os.path.join("run", "reports", "delay.json"), encoding="utf-8") as fh:
        assert json.load(fh) == {"delay": est.delay, "objective": est.objective,
                                 "in_range": est.in_range, "corrupt": est.corrupt}
    assert printed.startswith(f"delay {est.delay:.3f} s (objective {est.objective:.6f}), ")


@pytest.mark.parametrize("files, line, flags", [
    # the true delay is below the searched range: the best candidate is its edge
    ({"cfg.json": {"seed": 0, "delay_search": [0.6, 1.0]}},
     "delay 0.600 s (objective 0.258744), 12095 training rows [delay-out-of-range]",
     {"in_range": False, "corrupt": False}),
    # IMU noise this wide leaves every candidate's error above the ceiling
    ({"cfg.json": {"seed": 0, "slip_file": "slip.json"}, "slip.json": {"noise_sigma": 3.0}},
     "delay 0.213 s (objective 4.645713), 12110 training rows [corrupt]",
     {"in_range": True, "corrupt": True}),
], ids=["out-of-range", "corrupt"])
def test_align_prints_and_writes_its_flags(workdir, capsys, files, line, flags):
    for name, raw in files.items():
        with open(name, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
    base = ["--config", "cfg.json", "--out", "run"]
    assert main(["collect", *base, "--dwell", "0.5"]) == 0
    assert main(["align", *base]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == line
    with open(os.path.join("run", "reports", "delay.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    assert {key: report[key] for key in flags} == flags


def test_align_clamps_commands_past_the_actuator_limit(workdir, capsys):
    t = np.arange(160) / 40.0
    av = 1.0 + 0.5 * np.sin(2.0 * t)
    av[40], av[80] = -4.2, 4.2
    write_joy_csv(JoyLog(t=t, v=np.full(t.size, 2.0), av=av), "joy.csv")
    write_imu_csv(ImuLog(t=t, av_z=1.0 + 0.5 * np.sin(2.0 * (t - 0.1))), "imu.csv")
    assert main([*ALIGN_ARGV, "--out", "run"]) == 0
    assert capsys.readouterr().err == ""
    d = align_mod.read_dataset_csv(os.path.join("run", "datasets", "dataset.csv"))
    # the grid starts on the first joystick row at 40 Hz, and every row turns
    assert (d.av_joy[40], d.av_joy[80]) == (-4.0, 4.0)
    assert np.array_equal(d.av_joy, np.clip(av[:len(d)], -4.0, 4.0))


def test_bad_slip_file_names_file_and_field(workdir, capsys):
    with open("slip.json", "w", encoding="utf-8") as fh:
        json.dump({"beta": "x"}, fh)
    with open("cfg.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": 0, "slip_file": "slip.json"}, fh)
    assert main(["collect", "--config", "cfg.json", "--out", "run"]) == 1
    assert ("error: slip.json: beta must be a finite number, got 'x'"
            in capsys.readouterr().err)


@pytest.mark.parametrize("slip, message", [
    ({"beta": 0.02, "lag": 0.1}, "error: slip.json: unknown fields ['lag']"),
    ([0.02], "error: slip.json: must be a JSON object, got [0.02]"),
])
def test_slip_file_object_and_field_checks_exit_1(workdir, capsys, slip, message):
    with open("slip.json", "w", encoding="utf-8") as fh:
        json.dump(slip, fh)
    with open("cfg.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": 0, "slip_file": "slip.json"}, fh)
    assert main(["collect", "--config", "cfg.json", "--out", "run"]) == 1
    assert message in capsys.readouterr().err


def test_truncated_config_is_parse_error_naming_file_and_line(workdir, capsys):
    with open("cut.json", "w", encoding="utf-8") as fh:
        fh.write('{"seed": 0,\n "train": {"epochs": 3')
    with pytest.raises(ParseError, match=r"cut\.json: not valid JSON .*line 2"):
        PipelineConfig.from_json("cut.json")
    assert main(["collect", "--config", "cut.json", "--out", "run"]) == 1
    assert "error: cut.json: not valid JSON" in capsys.readouterr().err


def test_config_fields_flow_through(workdir):
    raw = {"seed": 11, "rates": {"joy": 50.0, "imu": 100.0, "replay": 10.0},
           "delay_search": [0.0, 0.3], "delay_step": 0.002, "pad": 0.5,
           "train": {"epochs": 7}}
    with open("cfg.json", "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    cfg = PipelineConfig.from_json("cfg.json")
    assert cfg.slip.seed == 11
    assert (cfg.joy_hz, cfg.imu_hz, cfg.replay_hz) == (50.0, 100.0, 10.0)
    assert cfg.delay_search == (0.0, 0.3)
    assert cfg.delay_step == 0.002
    assert cfg.pad == 0.5
    assert cfg.train.epochs == 7
    assert cfg.train.seed == 11   # train seed inherits the config seed


def test_custom_script_round_trip(workdir):
    script = make_script([(0.0, 2.0, 0.5), (1.0, 1.0, -0.2)])
    write_dataclass_json("s.json", script)
    back = ControlScript.from_json("s.json")
    assert back == script
    assert DEFAULT_CIRCLE_CURVATURES == (0.12, 0.63, 0.80)


LOSS = "epoch,train_mse,test_mse\n"
HIST = "bin_lo,bin_hi,count\n"
SCAN = "delay,objective\n"


@pytest.mark.parametrize("flag, text, err", [
    ("--loss", LOSS + "0,abc,1.0\n", r"bad\.csv:2: non-numeric field"),
    ("--loss", LOSS + "0,0.5\n", r"bad\.csv:2: expected 3 columns, got 2"),
    ("--loss", LOSS, r"bad\.csv: no rows after the header"),
    ("--loss", SCAN + "0.1,0.5\n", r"bad\.csv:1: expected header"),
    ("--hist", HIST + "0.0,0.25,x\n", r"bad\.csv:2: non-numeric field"),
    ("--hist", HIST + "0.0,0.25\n", r"bad\.csv:2: expected 3 columns, got 2"),
    ("--hist", HIST, r"bad\.csv: no rows after the header"),
    ("--hist", LOSS + "0,0.5,0.6\n", r"bad\.csv:1: expected header"),
    ("--delay-scan", SCAN + "0.1,nope\n", r"bad\.csv:2: non-numeric field"),
    ("--delay-scan", SCAN + "0.1\n", r"bad\.csv:2: expected 2 columns, got 1"),
    ("--delay-scan", SCAN, r"bad\.csv: no rows after the header"),
    ("--delay-scan", HIST + "0.0,0.25,3\n", r"bad\.csv:1: expected header"),
    ("--loss", LOSS + "0,0.5,0.4\n\n1,0.4,1e306\n",
     r"bad\.csv:4: cannot plot: test_mse must be within \+-1e\+305, got 1e\+306$"),
    ("--delay-scan", SCAN + "0.0,-inf\n", r"bad\.csv:2: cannot plot: objective must be "),
    ("--hist", HIST + "0.0,0.25,3\n0.25,nan,1\n", r"bad\.csv:3: cannot plot: bin_hi must "),
    ("--hist", None, r"missing file: missing\.csv"),
    # a negative bar height is not valid SVG
    ("--hist", HIST + "0.0,1.0,3\n1.0,2.0,-2\n",
     r"bad\.csv:3: cannot plot: count must be within \[0, 1e\+305\], got -2\.0$"),
    # the chart's x range runs from the first bin_lo to the last bin_hi
    ("--hist", HIST + "1.0,2.0,3\n0.0,1.0,2\n", r"bad\.csv: cannot plot: bin range must be "
     r"a \[lo, hi\] pair with lo < hi, got \(1\.0, 1\.0\)$"),
])
def test_plot_fails_closed_on_bad_tables(workdir, capsys, flag, text, err):
    path = "missing.csv"
    if text is not None:
        path = "bad.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    assert main(["plot", "--out", "run", flag, path]) == 1
    captured = capsys.readouterr()
    assert re.match("error: " + err, captured.err)
    assert not os.path.exists("run")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("course, match", [
    ({"cones": []}, r"course\.json: missing field 'boxes'"),
    ([], r"course\.json: must be a JSON object"),
    ({"boxes": [], "cones": [], "gap_width": 2.0, "gap": 1},
     r"course\.json: unknown fields \['gap'\]"),
    ({"boxes": {}, "cones": [], "gap_width": 2.0}, r"course\.json: boxes must be a list"),
    ({"boxes": [{"cx": 0, "cy": 0, "w": "x", "h": 1}], "cones": [], "gap_width": 2.0},
     r"course\.json: boxes\[0\]: w must be a finite number, got 'x'"),
    ({"boxes": [{"cx": 0, "cy": 0, "w": 1}], "cones": [], "gap_width": 2.0},
     r"course\.json: boxes\[0\]: missing field 'h'"),
    ({"boxes": [{"cx": 0, "cy": 0, "w": 1, "h": 1, "d": 1}], "cones": [],
      "gap_width": 2.0}, r"course\.json: boxes\[0\]: unknown fields \['d'\]"),
    ({"boxes": [{"cx": 0, "cy": 0, "w": 1, "h": 1}, {"cx": 0, "cy": 0, "w": 0, "h": 1}],
      "cones": [], "gap_width": 2.0},
     r"course\.json: boxes\[1\]: w must be positive and finite, got 0\.0"),
    ({"boxes": [], "cones": [[1.0]], "gap_width": 2.0},
     r"course\.json: cones\[0\]: must be an \[x, y\] pair"),
    ({"boxes": [], "cones": [[1.0, None]], "gap_width": 2.0},
     r"course\.json: cones\[0\]: y must be a finite number, got None"),
    ({"boxes": [], "cones": [], "gap_width": "wide"},
     r"course\.json: gap_width must be a finite number, got 'wide'"),
    ({"boxes": [], "cones": [], "gap_width": 0.1},
     r"course\.json: gap 0\.1 m narrower than the car"),
    ({"boxes": [], "cones": [], "gap_width": 2.0, "car_length": 0.0},
     r"course\.json: car_length must be positive and finite, got 0\.0$"),
    ({"boxes": [], "cones": [], "gap_width": 2.0, "car_width": -0.5},
     r"course\.json: car_width must be positive and finite, got -0\.5$"),
])
def test_bad_scenario_file_names_file_and_field(workdir, capsys, course, match):
    with open("course.json", "w", encoding="utf-8") as fh:
        json.dump(course, fh)
    with pytest.raises(ValidationError, match=match):
        DriftScenario.from_json("course.json")
    with open("cfg.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": 0, "scenario_file": "course.json"}, fh)
    assert main(["eval-drift", "--config", "cfg.json", "--out", "run",
                 "--duration", "1"]) == 1
    err = capsys.readouterr().err
    assert re.match("error: " + match, err) and err.count("\n") == 1


LONG_INT = 10 ** 400   # a JSON integer that no float can hold


@pytest.mark.parametrize("argv, files, err", [
    (["collect", "--config", "cfg.json", "--dwell", "0.5"],
     {"cfg.json": {"seed": 0, "pad": LONG_INT}},
     f"error: cfg.json: pad must be a finite number, got {LONG_INT}\n"),
    (["eval-drift", "--config", "cfg.json", "--duration", "1"],
     {"cfg.json": {"seed": 0, "scenario_file": "course.json"},
      "course.json": {"boxes": [{"cx": LONG_INT, "cy": 0, "w": 1, "h": 1}],
                      "cones": [], "gap_width": 2.0}},
     f"error: course.json: boxes[0]: cx must be a finite number, got {LONG_INT}\n"),
], ids=["config", "scenario"])
def test_integer_past_float_range_exits_1_naming_file_and_key(workdir, capsys, argv,
                                                              files, err):
    for name, raw in files.items():
        with open(name, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
    assert main([*argv, "--out", "run"]) == 1
    assert capsys.readouterr().err == err


ONE_SEGMENT = {"segments": [{"t_start": 0.0, "v": 1.0, "c": 0.5}]}
COURSE = {"boxes": [{"cx": 0, "cy": 0, "w": 1, "h": 1}], "cones": [[2.0, 0.0]],
          "gap_width": 2.0}


@pytest.mark.parametrize("argv, files, err", [
    # a log of IMU noise this wide would hold samples past the yaw-rate domain
    (["collect", "--config", "cfg.json", "--dwell", "0.05"],
     {"cfg.json": {"seed": 0, "slip_file": "slip.json"},
      "slip.json": {"noise_sigma": 1.7e308}},
     "slip.json: noise_sigma must be within +-10, got 1.7e+308"),
    (["collect", "--config", "cfg.json", "--script", "sc.json", "--duration", "2"],
     {"cfg.json": {"seed": 0, "slip_file": "slip.json"},
      "slip.json": {"noise_sigma": 10.5}, "sc.json": ONE_SEGMENT},
     "slip.json: noise_sigma must be within +-10, got 10.5"),
    (["collect", "--config", "cfg.json", "--script", "sc.json", "--duration", "2"],
     {"cfg.json": {"seed": 0, "slip_file": "slip.json"},
      "slip.json": {"beta": 1e308}, "sc.json": ONE_SEGMENT},
     "slip.json: beta must be within +-1000, got 1e+308"),
    (["collect", "--script", "sc.json", "--duration", "2"],
     {"sc.json": {"segments": [{"t_start": 0.0, "v": 1.0, "c": 0.5},
                               {"t_start": 5.0, "v": 1e200, "c": 1e-200}]}},
     "sc.json: segment 1: v must be within +-1000, got 1e+200"),
    (["eval-drift", "--config", "cfg.json", "--duration", "1"],
     {"cfg.json": {"seed": 0, "scenario_file": "course.json"},
      "course.json": {**COURSE, "boxes": [{"cx": 0, "cy": 0, "w": 1e308, "h": 1}]}},
     "course.json: boxes[0]: w must be within +-1e+06, got 1e+308"),
    (["eval-drift", "--config", "cfg.json", "--duration", "1"],
     {"cfg.json": {"seed": 0, "scenario_file": "course.json"},
      "course.json": {**COURSE,
                      "boxes": [{"cx": 1e300, "cy": 1e300, "w": 1e300, "h": 1e300}]}},
     "course.json: boxes[0]: cx must be within +-1e+06, got 1e+300"),
    (["eval-drift", "--config", "cfg.json", "--duration", "1"],
     {"cfg.json": {"seed": 0, "scenario_file": "course.json"},
      "course.json": {**COURSE, "cones": [[2.0, 0.0], [1e200, 0.0]]}},
     "course.json: cones[1]: x must be within +-1e+06, got 1e+200"),
    (["eval-drift", "--config", "cfg.json", "--duration", "1"],
     {"cfg.json": {"seed": 0, "scenario_file": "course.json"},
      "course.json": {**COURSE, "gap_width": 1e308}},
     "course.json: gap_width must be within +-1e+06, got 1e+308"),
    # the flags pass the yaw-rate limit, but make a script past its domains
    (["eval-circle", "--v", "1e-5", "--curvatures", "2000"], {},
     "--v 1e-05 at --curvatures 2000.0: c must be within +-1000, got 2000.0"),
    (["eval-circle", "--v", "1e5", "--curvatures", "1e-5"], {},
     "--v 100000.0 at --curvatures 1e-05: v must be within +-1000, got 100000.0"),
    # a circle run settles for 5 lags, so this lag would be past any index
    (["eval-circle", "--config", "cfg.json", "--curvatures", "0.5"],
     {"cfg.json": {"seed": 0, "slip_file": "slip.json"}, "slip.json": {"lag_tau": 1e300}},
     "slip.json: lag_tau must be within +-1000, got 1e+300"),
    (["eval-circle", "--config", "cfg.json", "--curvatures", "0.5"],
     {"cfg.json": {"seed": 0, "slip_file": "slip.json"},
      "slip.json": {"lag_tau": float(np.nextafter(1e3, np.inf))}},
     "slip.json: lag_tau must be within +-1000, got 1000.0000000000001"),
], ids=["noise-sigma", "noise-sigma-script", "beta", "script-v", "box-w", "box-all",
        "cone", "gap", "circle-c", "circle-v", "lag-tau", "lag-tau-one-ulp-past"])
def test_finite_value_past_its_domain_exits_1_naming_file_and_key(workdir, capsys, argv,
                                                                  files, err):
    for name, raw in files.items():
        with open(name, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--out", "run"]) == 1
    assert capsys.readouterr().err == f"error: {err}\n"


# 2**62 epochs fit an index, but not the byte size of a float64 loss curve;
# 2**59 epochs fit that, but not the byte size of the curve's two halves.
@pytest.mark.parametrize("train, message", [
    ({"epochs": 10 ** 19}, f"epochs must be an integer in [1, {np.iinfo(np.intp).max // 8}], got {10 ** 19}"),
    ({"epochs": 2 ** 62}, f"epochs must be an integer in [1, {np.iinfo(np.intp).max // 8}], got {2 ** 62}"),
    ({"batch_size": LONG_INT},
     f"batch_size must be an integer in [1, {np.iinfo(np.intp).max // 8}], got {reprlib.repr(LONG_INT)}"),
    ({"epochs": 2 ** 59}, f"epochs {2 ** 59} needs 9.22e+18 bytes of loss curve, "
                          f"more than can be allocated"),
], ids=["epochs", "epochs-bytes", "batch_size", "epochs-curve"])
def test_train_size_past_the_index_range_exits_1_naming_file_and_key(workdir, capsys,
                                                                     train, message):
    with open("cfg.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": 0, "train": train}, fh)
    assert main(["train", "--config", "cfg.json", "--out", "run"]) == 1
    assert capsys.readouterr().err == f"error: cfg.json: train: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["--config", "cfg.json"], "batch_size 1000 needs at least 2000"),
    ([], "batch_size 32 needs at least 64"),
], ids=["config", "default"])
def test_batch_size_too_large_for_the_dataset_exits_1_naming_files_and_key(
        workdir, capsys, argv, message):
    rows = 468 if argv else 50
    v = np.linspace(0.5, 3.0, rows)
    align_mod.write_dataset_csv(
        AlignedDataset(v_joy=v, av_joy=0.2 * v, av_imu=0.18 * v), "ds.csv")
    with open("cfg.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": 0, "train": {"batch_size": 1000}}, fh)
    assert main(["train", *argv, "--dataset", "ds.csv", "--out", "run"]) == 1
    assert (capsys.readouterr().err
            == f"error: ds.csv: dataset has {rows} rows; {message}\n")
    assert not os.path.exists("run/models/model.json")


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


@pytest.mark.parametrize("course", [
    {"boxes": [], "cones": [], "gap_width": 2.0},
    {"boxes": [], "cones": [[0.0, 50.0]], "gap_width": 2.0},
], ids=["empty-course", "straight-line"])
def test_drift_report_is_strict_json(workdir, capsys, course):
    # Neither run turns, so the turn radius is infinite; the empty course
    # leaves the clearance infinite too.  Both are null in the report.
    with open("course.json", "w", encoding="utf-8") as fh:
        json.dump(course, fh)
    with open("cfg.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": 0, "scenario_file": "course.json"}, fh)
    with open("buffer.txt", "w", encoding="utf-8") as fh:
        fh.write("1.0,0.0\n" * 20)
    assert main(["eval-drift", "--config", "cfg.json", "--out", "run",
                 "--buffer", "buffer.txt"]) == 0
    assert "min turn radius inf m" in capsys.readouterr().out
    with open("run/reports/drift_report.json", encoding="utf-8") as fh:
        report = json.loads(fh.read(), parse_constant=_reject_constant)
    custom = report["uncorrected"]["custom"]
    assert custom["min_turn_radius"] is None
    assert (custom["min_clearance"] is None) == (not course["cones"])


# --- seeded mutation fuzz of the model and scenario files ---------------------

# a string, bool, null, list, object, integer past the float range, NaN and
# a finite number past every domain
BAD_JSON_VALUES = ("0.5", True, None, [1.0], {"x": 1.0}, LONG_INT, float("nan"), 1e308)


def _slots(value, found):
    """Append (container, key) for every dict entry and list element in
    ``value``, at any depth; return the dicts among the containers."""
    dicts = [value] if isinstance(value, dict) else []
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        found.append((value, key))
        dicts += _slots(item, found)
    return dicts


def mutate_json(rng, text: str) -> bytes:
    """``text`` (a JSON document) with one seeded mutation: a key deleted or
    an unknown one added, a bad value where a number belongs, the file
    truncated, or a byte that is not UTF-8 inserted."""
    raw = json.loads(text)
    slots = []
    dicts = _slots(raw, slots)
    numbers = [(c, k) for c, k in slots
               if isinstance(c[k], (int, float)) and not isinstance(c[k], bool)]
    mutation = rng.choice(["delete", "unknown", "not a number", "truncate", "byte"])
    if mutation == "truncate":
        return text.encode()[:int(rng.integers(0, len(text)))]
    if mutation == "byte":
        data = text.encode()
        at = int(rng.integers(0, len(data) + 1))
        return data[:at] + bytes([int(rng.integers(0x80, 0x100))]) + data[at:]
    if mutation == "delete":
        target = dicts[int(rng.integers(len(dicts)))]
        del target[list(target)[int(rng.integers(len(target)))]]
    elif mutation == "unknown":
        dicts[int(rng.integers(len(dicts)))]["bogus"] = 1.0
    else:
        container, key = numbers[int(rng.integers(len(numbers)))]
        container[key] = BAD_JSON_VALUES[int(rng.integers(len(BAD_JSON_VALUES)))]
    return json.dumps(raw).encode()


def own_out(argv: list, case: int) -> list:
    """``argv`` with its --out root, if any, moved to one of this case's own,
    so that the run writes new files instead of rewriting the last case's."""
    if "--out" not in argv:
        return argv
    i = argv.index("--out") + 1
    return [*argv[:i], f"{argv[i]}-{case}", *argv[i + 1:]]


def fuzz_files(capsys, argv: dict, seed: int, cases: int) -> list[int]:
    """Run ``cases`` seeded mutations, cycling over the files of ``argv`` (a
    file name -> the command line that reads it), and return the exit codes.
    Each run must exit 0, or 1 with one ``error: <file>`` line and no stdout;
    the file is restored after each case."""
    originals = {name: Path(name).read_text(encoding="utf-8") for name in argv}
    names = list(argv)
    rng = np.random.default_rng(seed)
    exits = []
    for case in range(cases):
        name = names[case % len(names)]
        mutated = mutate_json(rng, originals[name])
        write_new(name, mutated)
        code = main(own_out(argv[name], case))
        captured = capsys.readouterr()
        assert code in (0, 1), (case, mutated)
        if code == 1:
            assert captured.err.startswith(f"error: {name}"), (case, captured.err)
            assert captured.err.count("\n") == 1, (case, captured.err)
            assert captured.out == "", case
        exits.append(code)
        write_new(name, originals[name].encode())
    return exits


def test_mutated_model_and_scenario_files_exit_0_or_1_with_one_error_line(workdir,
                                                                          capsys):
    mlp.save_model(mlp.init_params(np.random.default_rng(0)), "model.json")
    write_dataclass_json("course.json", scenarios.loose_scenario())
    with open("cfg.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": 0, "scenario_file": "course.json"}, fh)
    argv = {"model.json": ["correct", "--model", "model.json", "--v", "2", "--c", "0.5"],
            "course.json": ["eval-drift", "--config", "cfg.json", "--out", "run",
                            "--duration", "0.5"]}
    exits = fuzz_files(capsys, argv, seed=2213, cases=240)
    # most mutations break the file; deleting an optional key does not
    assert 0 < exits.count(0) < exits.count(1)


def test_mutated_config_slip_and_script_files_exit_0_or_1_with_one_error_line(
        workdir, capsys):
    write_mini_script("script.json")
    assert main(["collect", "--out", "run", "--script", "script.json",
                 "--duration", "12"]) == 0
    assert main(["align", "--out", "run"]) == 0
    # every config key, at the values the dataset was made with
    with open("train.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": 0, "rates": {"joy": 40.0, "imu": 40.0, "replay": 20.0},
                   "delay_search": [0.0, 0.4], "delay_step": 0.002, "pad": 1.0,
                   "train": {"epochs": 1, "batch_size": 32, "lr": 1e-3,
                             "weight_decay": 0.01, "beta1": 0.9, "beta2": 0.999,
                             "eps_adam": 1e-8, "split_fraction": 0.1}}, fh)
    write_dataclass_json("slip.json", SlipParams(seed=0))
    with open("collect.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": 0, "slip_file": "slip.json"}, fh)
    collect = ["collect", "--out", "c", "--script", "script.json", "--duration", "2"]
    argv = {"train.json": ["train", "--config", "train.json",
                           "--dataset", "run/datasets/dataset.csv", "--out", "run"],
            "slip.json": [*collect, "--config", "collect.json"],
            "script.json": collect}
    capsys.readouterr()
    exits = fuzz_files(capsys, argv, seed=78, cases=240)
    assert 0 < exits.count(0) < exits.count(1)


@pytest.mark.parametrize("rows, line, err", [
    (["4.2,0.4"], 4, "dataset: av_joy must be within +-4, got 4.2"),
    (["nan,0.4"], 4, "dataset: av_joy must be within +-4, got nan"),
    (["0.5,inf"], 4, "dataset: av_imu must be within +-1000, got inf"),
    # the first row outside any column's domain, whichever check fails
    (["0.5,nan", "-4.5,0.4"], 4, "dataset: av_imu must be within +-1000, got nan"),
    (["0.5,-1e200"], 4, "dataset: av_imu must be within +-1000, got -1e+200"),
])
def test_train_on_a_bad_dataset_row_exits_1_naming_file_and_line(workdir, capsys,
                                                                 rows, line, err):
    with open("ds.csv", "w", encoding="utf-8") as fh:
        fh.write("idx,v_joy,av_joy,av_imu\n0,1.0,0.5,0.4\n\n")
        fh.writelines(f"{k + 1},1.0,{row}\n" for k, row in enumerate(rows))
    assert main(["train", "--dataset", "ds.csv", "--out", "run"]) == 1
    assert capsys.readouterr().err == f"error: ds.csv:{line}: {err}\n"


# --- seeded fuzz of the numeric flags -----------------------------------------

# NaN, infinities, zero, negatives, the float range's edge and integers past it
BAD_NUMBERS = ("nan", "-nan", "inf", "-inf", "0", "-0.0", "-1", "-2.5", "1e308",
               "-1e308", str(LONG_INT), f"-{LONG_INT}")
# --stride is an integer flag (argparse refuses "nan" with a usage error), so
# it gets integers of the same sizes: zero, negatives, past int64 and past
# the float range
BAD_INTEGERS = ("0", "-1", "-7", str(2 ** 63 - 1), str(10 ** 23), str(10 ** 308),
                str(LONG_INT), f"-{LONG_INT}")
# (command line, flag, what its error names, values to draw, values that run)
FLAG_CASES = (
    (["replay", "--buffer", "buffer.txt", "--duration", "0.2"], "--stride", "stride",
     BAD_INTEGERS, ("1", "3")),
    (["replay", "--buffer", "buffer.txt"], "--duration", "duration", BAD_NUMBERS,
     ("0.3",)),
    (["eval-drift", "--buffer", "buffer.txt"], "--duration", "duration", BAD_NUMBERS,
     ("0.3",)),
    (["collect"], "--dwell", "dwell", BAD_NUMBERS, ("0.02",)),
    (["collect", "--script", "script.json"], "--dwell", "dwell", BAD_NUMBERS, ("0.5",)),
    (["collect", "--script", "script.json"], "--duration", "duration", BAD_NUMBERS,
     ("0.5",)),
    (["eval-circle", "--curvatures", "0.5"], "--v", "--v", BAD_NUMBERS, ("2", "-1.5")),
    (["eval-circle", "--curvatures", "1e300"], "--v", "--v", BAD_NUMBERS, ()),
    (["eval-circle"], "--curvatures", "--curvatures", BAD_NUMBERS, ("0.5", "-0.6")),
    (["collect", "--script", "script.json", "--duration", "0.5"], "--seed", "--seed",
     BAD_INTEGERS, ("0", "7")),
    (["correct", "--model", "model.json", "--v", "2"], "--c", "--c", BAD_NUMBERS,
     ("0.5", "-0.3")),
)


def test_numeric_flag_fuzz_exits_0_or_1_with_one_error_line_naming_the_flag(
        workdir, capsys):
    with open("script.json", "w", encoding="utf-8") as fh:
        json.dump({"segments": [{"t_start": 0.0, "v": 2.0, "c": 0.3},
                                {"t_start": 0.2, "v": 1.5, "c": -0.4}]}, fh)
    with open("buffer.txt", "w", encoding="utf-8") as fh:
        fh.write("2.0,0.5\n2.0,-0.5\n1.0,0.0\n")
    mlp.save_model(mlp.init_params(np.random.default_rng(0)), "model.json")
    rng = np.random.default_rng(1913)
    exits = []
    for case in range(220):
        argv, flag, named, bad, good = FLAG_CASES[case % len(FLAG_CASES)]
        values = bad + good
        value = values[int(rng.integers(len(values)))]
        run = [*argv, f"{flag}={value}", "--out", "run"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # no warning text either
            code = main(run)
        captured = capsys.readouterr()
        assert code in ((0,) if value in good else (0, 1)), (run, captured.err)
        if code == 1:
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, \
                (run, captured.err)
            assert named in captured.err, (run, captured.err)
            assert len(captured.err) < 200, (run, captured.err)
        exits.append(code)
    assert 0 < exits.count(0) < exits.count(1)


# --- seeded mutation fuzz of the tables ---------------------------------------

# cells no row check may let through: NaN, infinities, the float range's edge
# and integers past it
BAD_CELLS = ("nan", "-nan", "inf", "-inf", "1e308", "-1e308", str(LONG_INT),
             f"-{LONG_INT}")


def mutate_table(rng, text: str) -> bytes:
    """``text`` (a table, header line or not) with one seeded mutation: the
    header changed or dropped, a row with a column more or less, a bad cell,
    a byte that is not UTF-8, blank lines, or a row whose first column
    repeats or goes below the previous row's."""
    lines = text.splitlines()
    first = 1 if lines[0][:1].isalpha() else 0   # the first data line
    k = int(rng.integers(first, len(lines)))
    cells = lines[k].split(",")
    mutation = rng.choice(["header", "columns", "cell", "byte", "blank", "order"])
    if mutation == "header":
        lines[0:first] = [["x,y", ",".join(lines[0].split(",")[:-1]), "v,av"][
            int(rng.integers(3))]] if rng.integers(2) else []
    elif mutation == "columns":
        lines[k] = ",".join(cells[:-1] if rng.integers(2) else cells + ["0.5"])
    elif mutation == "cell":
        cells[int(rng.integers(len(cells)))] = BAD_CELLS[int(rng.integers(len(BAD_CELLS)))]
        lines[k] = ",".join(cells)
    elif mutation == "byte":
        data = text.encode()
        at = int(rng.integers(0, len(data) + 1))
        return data[:at] + bytes([int(rng.integers(0x80, 0x100))]) + data[at:]
    elif mutation == "blank":
        for _ in range(int(rng.integers(1, 4))):
            lines.insert(int(rng.integers(first, len(lines) + 1)), ["", " \t"][
                int(rng.integers(2))])
    elif k > first:   # order: repeat the previous row's first cell, or swap the two
        if rng.integers(2):
            lines[k] = ",".join(lines[k - 1].split(",")[:1] + cells[1:])
        else:
            lines[k - 1], lines[k] = lines[k], lines[k - 1]
    return ("\n".join(lines) + "\n").encode()


def test_mutated_tables_exit_0_or_1_with_one_error_line_naming_the_file(workdir,
                                                                        capsys):
    write_mini_script("script.json")
    write_config("cfg.json", seed=0, epochs=1)
    assert main(["collect", "--out", "run", "--script", "script.json",
                 "--duration", "6"]) == 0
    assert main(["align", "--out", "run"]) == 0
    assert main(["train", "--config", "cfg.json", "--out", "run"]) == 0
    made = {"joy.csv": "run/logs/joy.csv", "imu.csv": "run/logs/imu.csv",
            "dataset.csv": "run/datasets/dataset.csv", "loss.csv": "run/reports/loss.csv",
            "hist.csv": "run/reports/vel_hist.csv", "scan.csv": "run/reports/delay_scan.csv"}
    originals = {name: Path(path).read_text(encoding="utf-8") for name, path in made.items()}
    # one of every 10 joystick rows, short enough to mutate near every row
    originals["joy.csv"] = "\n".join(originals["joy.csv"].splitlines()[::10]) + "\n"
    originals["buffer.txt"] = originals["drift.txt"] = "2.0,0.5\n2.0,-0.5\n1.0,0.0\n"
    align = ["align", "--joy", "joy.csv", "--imu", "imu.csv", "--out", "a"]
    argv = {"joy.csv": align, "imu.csv": align,
            "dataset.csv": ["train", "--config", "cfg.json", "--dataset", "dataset.csv",
                            "--out", "t"],
            "buffer.txt": ["replay", "--buffer", "buffer.txt", "--duration", "0.5",
                           "--out", "r"],
            "drift.txt": ["eval-drift", "--buffer", "drift.txt", "--duration", "0.5",
                          "--out", "r"],
            "loss.csv": ["plot", "--loss", "loss.csv", "--out", "p"],
            "hist.csv": ["plot", "--hist", "hist.csv", "--out", "p"],
            "scan.csv": ["plot", "--delay-scan", "scan.csv", "--out", "p"]}
    for name, text in originals.items():
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(text)
    capsys.readouterr()
    names = list(argv)
    rng = np.random.default_rng(2020)
    exits = []
    for case in range(320):
        name = names[case % len(names)]
        mutated = mutate_table(rng, originals[name])
        write_new(name, mutated)
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # no warning text either
            code = main(own_out(argv[name], case))
        captured = capsys.readouterr()
        assert code in (0, 1), (case, mutated)
        if code == 1:
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, \
                (case, mutated, captured.err)
            assert name in captured.err, (case, mutated, captured.err)
            assert captured.out == "", (case, captured.out)
        exits.append(code)
        write_new(name, originals[name].encode())
    assert 0 < exits.count(0) < exits.count(1)
