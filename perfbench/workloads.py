"""The four benchmark workloads: seeded inputs, set-up, one timed pass, checks.

Every workload drives ikdlab only through its public functions and the
in-process ``ikdlab.cli.main``, always looked up as a module attribute at
call time so that the traced run's wrappers see the call.  Each workload is
a closed loop with one client: one call is issued after the previous one
returns, in a single thread.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil

import numpy as np

from ikdlab import align, cli, datalog, evalkit, mlp, replay, scenarios, simcore
from ikdlab.errors import IkdError

FIXTURE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
FIXTURE_MODEL = os.path.join(FIXTURE_DIR, "closed_loop_model.json")
FIXTURE_SHA256 = FIXTURE_MODEL + ".sha256"

# The acceptance circle fixture's recipe (tests/test_acceptance.py).
FIXTURE_SWEEP_SPEEDS = (1.0, 1.5, 2.0, 2.0, 2.5, 3.0, 4.0)
FIXTURE_SWEEP_DWELL = 2.0
FIXTURE_TRAIN = dict(batch_size=128, lr=5e-4)
FIXTURE_EPOCHS = 300
FIXTURE_SEED_POOL = (0, 1, 2)
ANCHOR_V, ANCHOR_AV = 2.0, 0.24

CIRCLE_SPEED = 2.0
ACCEPTANCE_CURVATURES = (0.12, 0.63, 0.70, 0.80)
CIRCLE_DEV_LIMIT_PCT = 2.5
WARMUP_COMMAND = (1.0, 1.0)   # (v, c); the probes draw v > 1

PIPELINE_EPOCHS = 2      # a short run of one seed, at the CLI default batch of 32
TRAIN_EPOCHS = 4         # reduced from the fixture's 300
PROBE_AV_STRATA = ((0.5, 1.0), (1.0, 1.8), (1.8, 2.8), (2.8, 4.0))
DRIFT_VARIANTS = 1
TELEOP_TICKS = 2000
GATE_PAIRS = 8           # each estimated clean and noisy
LONG_PAIRS = 2
LONG_ROWS = 96_000
CLEAN_TOL_S = 0.002
NOISY_TOL_S = 0.025
WARMUP_DELAY = 0.45   # s; seeded delays are drawn from [0.05, 0.40)
GATE_T_JOY = np.arange(480) / 40.0
GATE_T_IMU = np.arange(13000) / 1000.0
GATE_NOISE = 0.01


class Ops:
    """Operations attempted and failed in the timed passes.

    An operation fails if it raises ``IkdError`` or fails its check; each
    failed operation is counted once, whatever number of checks it fails.
    """

    def __init__(self):
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.reasons: list[str] = []

    def run(self, label: str, fn, *args, **kwargs):
        """Attempt one operation; return its result, or None if it raised."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except IkdError as exc:
            self.fail(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def fail(self, reason: str) -> None:
        """Mark the latest operation as failed."""
        self.failed_ops.add(self.attempted - 1)
        self.reasons.append(reason)

    def check(self, ok: bool, reason: str) -> None:
        if not ok:
            self.fail(reason)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)


def fixture_dataset(seed: int) -> align.AlignedDataset:
    """Simulate, log and align the acceptance fixture sweep for one plant seed."""
    plant = simcore.SlipParams(seed=seed)
    script = scenarios.training_sweep_script(dwell=FIXTURE_SWEEP_DWELL,
                                             speeds=FIXTURE_SWEEP_SPEEDS)
    duration = scenarios.sweep_duration(script, dwell=FIXTURE_SWEEP_DWELL)
    trace = simcore.run_scenario(script, plant, duration)
    joy, imu = datalog.trim_idle(*simcore.emit_sensor_logs(trace, plant))
    est = align.estimate_delay(joy, imu)
    return align.prune_zero_curvature(align.build_dataset(joy, imu, est.delay))


def anchor_target(data: align.AlignedDataset) -> float:
    """Joystick yaw rate that produced ANCHOR_AV at ANCHOR_V, by local regression.

    Same ranking rule as the acceptance fixture: the candidate model that
    answers this least-tolerant query best is kept.
    """
    mask = np.abs(data.v_joy - ANCHOR_V) < 0.01
    a, u = data.av_imu[mask], data.av_joy[mask]
    sel = np.abs(a - ANCHOR_AV) < 0.08
    A = np.column_stack([np.ones(int(sel.sum())), a[sel] - ANCHOR_AV])
    coef, *_ = np.linalg.lstsq(A, u[sel], rcond=None)
    return float(coef[0])


def anchor_residual(model: mlp.MlpParams, target: float) -> float:
    return abs(mlp.forward(model, (ANCHOR_V, ANCHOR_AV)) - target)


def file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def tree_digest(root: str) -> str:
    """sha256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for dirpath, dirnames, files in os.walk(root):
        dirnames.sort()
        for name in sorted(files):
            full = os.path.join(dirpath, name)
            h.update(os.path.relpath(full, root).encode() + b"\0")
            with open(full, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class Pipeline:
    """The canonical CLI run, in process: collect, align, train, eval, plot."""

    name = "pipeline"
    reference = "mixed"
    work_name = "drive_s_per_s"
    work_unit = "simulated s/s"

    def setup(self, seed: int, scratch: str) -> dict:
        root = _fresh_dir(os.path.join(scratch, "pipeline"))
        config = os.path.join(root, "config.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({"seed": seed, "train": {"epochs": PIPELINE_EPOCHS}}, fh)
        warm_up_pipeline(os.path.join(root, "warmup"), config)
        dwell = 4.0  # the collect subcommand's default
        sweep = scenarios.training_sweep_script(dwell=dwell)
        return {"root": root, "config": config, "digests": [],
                "drive_s": scenarios.sweep_duration(sweep, dwell=dwell)}

    def run_pass(self, st: dict, index: int, ops: Ops, span) -> float:
        out = os.path.join(st["root"], f"pass{index}")
        shutil.rmtree(out, ignore_errors=True)
        base = ["--config", st["config"], "--out", out]
        model = os.path.join(out, "models", "model.json")
        reports = os.path.join(out, "reports")
        steps = (
            ("collect", []),
            ("align", []),
            ("train", []),
            ("eval-circle", ["--model", model]),
            ("eval-drift", ["--model", model]),
            ("plot", ["--loss", os.path.join(reports, "loss.csv"),
                      "--hist", os.path.join(reports, "vel_hist.csv"),
                      "--delay-scan", os.path.join(reports, "delay_scan.csv")]),
        )
        for cmd, extra in steps:
            with span(f"cli.{cmd}"):
                rc = ops.run(cmd, _cli_main, [cmd, *base, *extra])
            ops.check(rc == 0, f"{cmd} exited with {rc}")
        digest = tree_digest(out)
        first = st["digests"][0] if st["digests"] else digest
        ops.check(digest == first, f"pass {index} artifact digest {digest} != {first}")
        st["digests"].append(digest)
        shutil.rmtree(out, ignore_errors=True)
        return st["drive_s"]

    def report(self, st: dict) -> dict:
        return {"digest": st["digests"][0] if st["digests"] else ""}


WARMUP_SEGMENTS = ((2.0, 0.3), (2.0, 0.6), (2.0, -0.6), (1.5, 0.4), (2.5, -0.5))


def warm_up_pipeline(out: str, config: str) -> None:
    """Run every subcommand once on a 15 s script, so lazy set-up is done.

    The inputs are small and differ from the timed pass's, so nothing the
    timed pass computes is computed here first.
    """
    script = os.path.join(_fresh_dir(out), "script.json")
    with open(script, "w", encoding="utf-8") as fh:
        json.dump({"segments": [{"t_start": 3.0 * i, "v": v, "c": c}
                                for i, (v, c) in enumerate(WARMUP_SEGMENTS)]}, fh)
    base = ["--config", config, "--out", out]
    model = os.path.join(out, "models", "model.json")
    reports = os.path.join(out, "reports")
    for argv in (["collect", *base, "--script", script, "--duration", "15.0"],
                 ["align", *base], ["train", *base],
                 ["eval-circle", *base, "--model", model, "--curvatures", "0.5"],
                 ["eval-drift", *base, "--model", model, "--duration", "0.5"],
                 ["plot", *base, "--loss", os.path.join(reports, "loss.csv"),
                  "--delay-scan", os.path.join(reports, "delay_scan.csv")]):
        rc = _cli_main(argv)
        if rc != 0:
            raise RuntimeError(f"warm-up {argv[0]} exited with {rc}")
    shutil.rmtree(out)


def _cli_main(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class Train:
    """Seed-pool training on the acceptance fixture dataset."""

    name = "train"
    reference = "numpy"
    work_name = "row_epochs_per_s"
    work_unit = "row-epochs/s"

    def setup(self, seed: int, scratch: str) -> dict:
        data = fixture_dataset(seed)
        return {"data": data, "target": anchor_target(data),
                "seeds": (seed, seed + 1, seed + 2), "best_mse": None}

    def run_pass(self, st: dict, index: int, ops: Ops, span) -> float:
        best, best_res, best_mse = None, math.inf, None
        for s in st["seeds"]:
            cfg = mlp.TrainConfig(seed=s, epochs=TRAIN_EPOCHS, **FIXTURE_TRAIN)
            out = ops.run(f"train seed {s}", mlp.train, st["data"], cfg)
            if out is None:
                continue
            params, curve = out
            ops.check(bool(np.all(np.isfinite(curve.train_mse))
                           and np.all(np.isfinite(curve.test_mse))),
                      f"seed {s}: non-finite loss")
            ops.check(curve.test_mse[-1] < curve.test_mse[0],
                      f"seed {s}: final test mse {curve.test_mse[-1]} not below "
                      f"first epoch's {curve.test_mse[0]}")
            res = anchor_residual(params, st["target"])
            if res < best_res:
                best, best_res, best_mse = params, res, float(curve.test_mse[-1])
        ops.check(best is not None, "no seed produced a model")
        st["best_mse"] = best_mse
        return float(len(st["data"]) * TRAIN_EPOCHS * len(st["seeds"]))

    def report(self, st: dict) -> dict:
        return {"test_mse": st["best_mse"]}


def drift_variant_rows(rng: np.random.Generator, rate: float = 20.0) -> list:
    """The canned drift buffer with seeded approach, turn and exit commands.

    Segment durations stay as canned, so every variant replays the same
    number of simulator steps.
    """
    segments = (
        (rng.uniform(1.8, 2.2), 0.0, scenarios.DRIFT_APPROACH[2]),
        (rng.uniform(2.8, 3.2), rng.uniform(0.72, 0.88), scenarios.DRIFT_TURN[2]),
        (rng.uniform(1.8, 2.2), 0.0, scenarios.DRIFT_EXIT[2]),
    )
    rows = []
    for v, c, seconds in segments:
        rows.extend([(float(v), float(v * c))] * int(round(seconds * rate)))
    return rows


def teleop_rows(rng: np.random.Generator, ticks: int, rate: float = 20.0) -> list:
    """A smooth seeded teleoperation buffer of (v, av) rows within |av| <= 4."""
    t = np.arange(ticks) / rate
    ph = rng.uniform(0.0, 2.0 * np.pi, 4)
    f = rng.uniform(0.01, 0.05, 2)
    v = 2.0 + 1.0 * np.sin(2 * np.pi * f[0] * t + ph[0]) \
        + 0.4 * np.sin(2 * np.pi * 0.13 * t + ph[1])
    c = 0.45 * np.sin(2 * np.pi * f[1] * t + ph[2]) \
        + 0.2 * np.sin(2 * np.pi * 0.21 * t + ph[3])
    v = np.clip(v, 0.3, 3.8)
    av = np.clip(v * c, -4.0, 4.0)
    return list(zip(v.tolist(), av.tolist()))


def circle_probes(rng: np.random.Generator) -> list:
    """One (v, c) probe per yaw-rate stratum, |v*c| <= 4.

    Stratifying the commanded yaw rate keeps the simulated duration of a
    pass (which scales with 1/yaw rate) nearly the same across seeds.
    """
    probes = []
    for lo, hi in PROBE_AV_STRATA:
        av = rng.uniform(lo, hi)
        v = rng.uniform(max(1.0, av / 1.15), 4.0)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        probes.append((float(v), float(sign * av / v)))
    return probes


class ClosedLoop:
    """Circle tests, drift runs and a corrected teleop replay with a fixed model."""

    name = "closed_loop"
    reference = "python"
    work_name = "evals_per_s"
    work_unit = "evals/s"

    def setup(self, seed: int, scratch: str) -> dict:
        with open(FIXTURE_SHA256, "r", encoding="utf-8") as fh:
            expected = fh.read().split()[0]
        actual = file_sha256(FIXTURE_MODEL)
        if actual != expected:
            raise RuntimeError(f"{FIXTURE_MODEL}: sha256 {actual} != {expected}")
        model = mlp.load_model(FIXTURE_MODEL)
        rng = np.random.default_rng(seed)
        drifts = [scenarios.drift_buffer().rows]
        drifts += [drift_variant_rows(rng) for _ in range(DRIFT_VARIANTS)]
        plant = simcore.SlipParams(seed=seed)
        self._warm_up(plant, model)
        return {"model": model, "plant": plant,
                "probes": circle_probes(rng), "drifts": drifts,
                "teleop": teleop_rows(rng, TELEOP_TICKS),
                "loose": scenarios.loose_scenario(),
                "tight": scenarios.tight_scenario(), "dev_max": None}

    def run_pass(self, st: dict, index: int, ops: Ops, span) -> float:
        model, plant = st["model"], st["plant"]
        evals = 0
        dev_max = 0.0
        for c in ACCEPTANCE_CURVATURES:
            raw = ops.run(f"raw circle c={c}", evalkit.circle_test,
                          CIRCLE_SPEED, c, plant)
            fixed = ops.run(f"corrected circle c={c}", evalkit.circle_test,
                            CIRCLE_SPEED, c, plant, model)
            evals += 2
            if raw is None or fixed is None:
                continue
            dev_max = max(dev_max, fixed.deviation_pct)
            ops.check(fixed.deviation_pct <= CIRCLE_DEV_LIMIT_PCT
                      and fixed.deviation_pct < raw.deviation_pct,
                      f"c={c}: corrected deviation {fixed.deviation_pct:.3f}% "
                      f"(uncorrected {raw.deviation_pct:.3f}%)")
        for v, c in st["probes"]:
            for m in (None, model):
                r = ops.run(f"circle probe v={v:.3f} c={c:.3f}",
                            evalkit.circle_test, v, c, plant, m)
                evals += 1
                if r is not None:
                    ops.check(math.isfinite(r.deviation_pct),
                              f"probe v={v} c={c}: non-finite deviation")
        for k, rows in enumerate(st["drifts"]):
            runs = {}
            for tag, m in (("raw", None), ("corrected", model)):
                runs[tag] = ops.run(f"drift {k} {tag}", self._drift_run,
                                    st, rows, m)
                evals += 1
            if runs["raw"] is None or runs["corrected"] is None:
                continue
            raw_loose, fixed_loose = runs["raw"][0], runs["corrected"][0]
            ops.check(fixed_loose.min_turn_radius < raw_loose.min_turn_radius,
                      f"drift {k}: corrected radius {fixed_loose.min_turn_radius:.3f} "
                      f"not below {raw_loose.min_turn_radius:.3f}")
            if k == 0:
                ops.check(not fixed_loose.collided,
                          "canned drift: corrected run collides on the loose course")
        rows = st["teleop"]
        trace = ops.run("teleop replay", replay.execute_replay,
                        replay.CommandBuffer(rows=list(rows)), plant, model=model,
                        duration=len(rows) / replay.DEFAULT_REPLAY_RATE)
        if trace is not None:
            ops.check(len(trace) == int(round(len(rows) / replay.DEFAULT_REPLAY_RATE
                                              / simcore.DEFAULT_DT))
                      and bool(np.all(np.isfinite(trace.xy()))),
                      "teleop replay: wrong length or non-finite pose")
        st["dev_max"] = dev_max
        return float(evals)

    @staticmethod
    def _warm_up(plant, model) -> None:
        """One circle test, replay and drift score on commands the pass never uses."""
        evalkit.circle_test(*WARMUP_COMMAND, plant, model)
        v, c = WARMUP_COMMAND
        trace = replay.execute_replay(replay.CommandBuffer(rows=[(v, v * c)]), plant,
                                      model=model, duration=1.0)
        evalkit.drift_eval(trace, scenarios.loose_scenario())

    @staticmethod
    def _drift_run(st: dict, rows: list, model):
        """Replay one drift buffer and score it on the loose and tight courses."""
        trace = replay.execute_replay(
            replay.CommandBuffer(rows=list(rows)), st["plant"], model=model,
            duration=len(rows) / replay.DEFAULT_REPLAY_RATE)
        return (evalkit.drift_eval(trace, st["loose"]),
                evalkit.drift_eval(trace, st["tight"]))

    def report(self, st: dict) -> dict:
        return {"circle_dev_pct_max": st["dev_max"]}


def multi_sine(t: np.ndarray) -> np.ndarray:
    """The acceptance gate's three-tone yaw-rate excitation."""
    return (1.8 * np.sin(2 * np.pi * 0.31 * t)
            + 1.1 * np.sin(2 * np.pi * 0.93 * t + 1.0)
            + 0.6 * np.sin(2 * np.pi * 2.17 * t + 2.2))


def _pair(t_joy, t_imu, delay: float, noise=None):
    joy = datalog.JoyLog(t=t_joy, v=np.full(t_joy.size, 2.0), av=multi_sine(t_joy))
    av_z = multi_sine(t_imu - delay)
    if noise is not None:
        av_z = av_z + noise
    return joy, datalog.ImuLog(t=t_imu, av_z=av_z)


def warm_up_pairs() -> list:
    """A gate-shaped and a quarter-length (joy, imu) pair at a delay no seed draws."""
    t_long = np.arange(LONG_ROWS // 4) / 40.0
    return [_pair(GATE_T_JOY, GATE_T_IMU, WARMUP_DELAY),
            _pair(t_long, t_long, WARMUP_DELAY)]


def delay_pairs(seed: int) -> list:
    """Seeded (label, joy, imu, true delay, tolerance) cases.

    Gate-shaped pairs (480 joystick rows against 13,000 IMU rows at 1 kHz)
    come clean and noisy; recording-length pairs are 96k x 96k rows at 40 Hz.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(GATE_PAIRS):
        d = float(rng.uniform(0.05, 0.40))
        noise = rng.normal(0.0, GATE_NOISE, size=GATE_T_IMU.size)
        cases.append((f"gate {i} clean", *_pair(GATE_T_JOY, GATE_T_IMU, d), d,
                      CLEAN_TOL_S))
        cases.append((f"gate {i} noisy", *_pair(GATE_T_JOY, GATE_T_IMU, d, noise), d,
                      NOISY_TOL_S))
    t_long = np.arange(LONG_ROWS) / 40.0
    for i in range(LONG_PAIRS):
        d = float(rng.uniform(0.05, 0.40))
        cases.append((f"long {i}", *_pair(t_long, t_long, d), d, CLEAN_TOL_S))
    return cases


class DelayRecovery:
    """Delay estimates on seeded multi-sine pairs of two sizes."""

    name = "delay_recovery"
    reference = "numpy"
    work_name = "estimates_per_s"
    work_unit = "estimates/s"

    def setup(self, seed: int, scratch: str) -> dict:
        cases = delay_pairs(seed)
        for joy, imu in warm_up_pairs():
            align.estimate_delay(joy, imu)
        return {"cases": cases, "err_max": None}

    def run_pass(self, st: dict, index: int, ops: Ops, span) -> float:
        err_max = 0.0
        for label, joy, imu, d, tol in st["cases"]:
            est = ops.run(label, align.estimate_delay, joy, imu)
            if est is None:
                continue
            err = abs(est.delay - d)
            err_max = max(err_max, err)
            ops.check(err <= tol, f"{label}: delay error {err * 1e3:.3f} ms "
                                  f"> {tol * 1e3:.0f} ms")
        st["err_max"] = err_max
        return float(len(st["cases"]))

    def report(self, st: dict) -> dict:
        err = st["err_max"]
        return {"delay_err_ms_max": None if err is None else err * 1e3}


WORKLOADS = {w.name: w for w in (Pipeline, Train, ClosedLoop, DelayRecovery)}
