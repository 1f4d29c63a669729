"""Tests of the benchmark itself: tracing, metric names and seeded inputs.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import run as bench_run
import speed
import tracing
import workloads as wl
from ikdlab import cli

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _small_pipeline(root: str) -> None:
    """A seconds-long CLI pipeline that enters every traced layer."""
    config = os.path.join(root, "config.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({"seed": 3, "train": {"epochs": 1}}, fh)
    wl.warm_up_pipeline(os.path.join(root, "out"), config)


def test_wrappers_restore_every_patched_name():
    before = {(mod.__name__, name): getattr(mod, name)
              for mod_name, name, _, _ in tracing.TARGETS
              for mod in map(sys.modules.get, list(sys.modules))
              if mod is not None and mod.__name__.startswith("ikdlab")
              and hasattr(mod, name)}
    tracer = tracing.Tracer()
    with tracer.installed():
        patched = {(mod.__name__, name) for mod, name, _ in tracer.patched}
        for mod, name, original in tracer.patched:
            assert getattr(mod, name) is not original
            assert getattr(mod, name).__wrapped__ is original
    # names that other modules import directly are patched where they are looked up
    for site in (("ikdlab.cli", "run_scenario"), ("ikdlab.evalkit", "run_scenario"),
                 ("ikdlab.evalkit", "correct"), ("ikdlab.replay", "correct"),
                 ("ikdlab.mlp", "loss_and_grads"), ("ikdlab.mlp", "adamw_step"),
                 ("ikdlab.mlp", "forward")):
        assert site in patched
    assert not tracer.patched
    after = {key: getattr(sys.modules[key[0]], key[1]) for key in before}
    assert all(after[key] is before[key] for key in before)


def test_wrappers_restore_names_when_the_pass_raises():
    tracer = tracing.Tracer()
    original = sys.modules["ikdlab.simcore"].run_scenario
    with pytest.raises(RuntimeError):
        with tracer.installed(), tracer.traced_pass(0):
            raise RuntimeError("boom")
    assert sys.modules["ikdlab.simcore"].run_scenario is original
    assert cli.run_scenario is original


def test_self_times_are_non_negative_and_sum_to_at_most_wall(tmp_path):
    tracer = tracing.Tracer()
    t0 = time.perf_counter()
    with tracer.installed(), tracer.traced_pass(0):
        _small_pipeline(str(tmp_path))
    wall = time.perf_counter() - t0
    selfs = tracing.self_times(tracer.spans)
    assert min(selfs) >= 0.0
    assert sum(selfs) <= wall
    m = tracing.layer_metrics(tracer.spans, passes=1)
    layer_self = [m[name] for name in m if name.endswith(".self_s")]
    assert len(layer_self) == 17 and min(layer_self) >= 0.0
    assert sum(layer_self) <= wall
    # the small pipeline enters every layer the traced run reports on
    for name in ("simcore.steps", "replay.steps", "ikd.correct.calls",
                 "datalog.rows_written", "datalog.rows_read", "align.candidates",
                 "align.dataset_rows", "mlp.optimizer_steps", "mlp.epoch_eval.self_s",
                 "evalkit.circle_test.calls", "evalkit.drift_states",
                 "svgplot.bytes_written"):
        assert m[name] > 0, name
    # cmd_align scans the same inputs twice; eval-circle runs each scenario twice
    assert m["align.useful_scan_frac"] == 0.5
    assert m["simcore.repeat_steps"] > 0


def test_forward_inside_correct_counts_toward_correct():
    model = sys.modules["ikdlab.mlp"].init_params(np.random.default_rng(0))
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.traced_pass(0):
        sys.modules["ikdlab.ikd"].correct(model, 2.0, 0.5)
        sys.modules["ikdlab.mlp"].forward(model, (2.0, 1.0))
    names = [rec[tracing.NAME] for rec in tracer.spans]
    assert names == ["pass", "ikd.correct", "mlp.forward"]


def test_result_metric_names_equal_benchmark_json():
    spec = _spec()
    plain = bench_run.run("delay_recovery", 5, 0.0, trace=False)
    assert list(plain["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(v > 0 for v in plain["metrics"].values())
    traced = bench_run.run("delay_recovery", 5, 0.0, trace=True)
    assert list(traced["metrics"]) == [m["name"] for m in spec["per_layer"]]
    assert traced["ops"].failed == 0


def test_command_prints_json_last_line():
    spec = _spec()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         "delay_recovery", "--seed", "2", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "delay_recovery",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_speed_meter_restores_the_alarm_and_leaves_out_the_reference():
    previous = signal.getsignal(signal.SIGALRM)
    meter = speed.SpeedMeter("python", interval=0.05)
    t0 = time.perf_counter()
    with meter:
        while time.perf_counter() - t0 < 0.4:
            pass
    wall = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(meter._samples) >= 4
    reference_s = sum(end - start for start, end, _ in meter._samples)
    assert meter.raw_s == pytest.approx(wall - reference_s, abs=1e-3)
    assert meter.norm_s > 0.0


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if hasattr(a, "__dataclass_fields__"):
        return all(_same(getattr(a, f), getattr(b, f)) for f in a.__dataclass_fields__)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


@pytest.mark.parametrize("workload", ["pipeline", "closed_loop", "delay_recovery"])
def test_seed_determines_inputs(workload, tmp_path):
    cls = wl.WORKLOADS[workload]

    def inputs(seed, sub):
        st = cls().setup(seed, str(tmp_path / sub))
        if workload == "pipeline":
            with open(st["config"], "rb") as fh:
                return fh.read()
        if workload == "closed_loop":
            return (st["probes"], st["drifts"], st["teleop"], st["plant"])
        return [(label, joy, imu, d) for label, joy, imu, d, _ in st["cases"]]

    first, again, other = inputs(11, "a"), inputs(11, "b"), inputs(12, "c")
    assert _same(first, again)
    assert not _same(first, other)


def test_train_inputs_follow_the_seed():
    st = wl.Train().setup(4, "")
    assert st["seeds"] == (4, 5, 6)
    assert _same(st["data"], wl.fixture_dataset(4))
    assert not _same(st["data"], wl.fixture_dataset(5))
