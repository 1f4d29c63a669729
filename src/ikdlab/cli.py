"""Command-line pipeline: collect, align, train, correct, replay, eval.

One executable with subcommands covering the whole workflow; every run is
seeded through the config (or --seed), so repeated invocations write
byte-identical artifacts.  Output tree: logs/, datasets/, models/,
reports/, plots/ under the resolved output root.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import align as align_mod
from . import datalog, evalkit, ikd, mlp, replay as replay_mod, scenarios, svgplot
from .errors import (CorruptLogError, IkdError, InsufficientOverlapError, ParseError,
                     ValidationError, finite_number, json_fields, require_positive,
                     seed_value)
from .fileio import read_json, read_record, write_json, write_table
from .simcore import (AV_LIMIT, DEFAULT_DT, DEFAULT_LOG_RATE, DEFAULT_PAD, ControlScript,
                      SimTrace, SlipParams, emit_sensor_logs, run_scenario, sample_count)

DEFAULT_OUT = "out"
ENV_OUT = "IKD_OUT_DIR"
DEFAULT_CIRCLE_CURVATURES = (0.12, 0.63, 0.80)
DEFAULT_CIRCLE_V = 2.0
SUBDIRS = ("logs", "datasets", "models", "reports", "plots")


@dataclass(frozen=True)
class PipelineConfig:
    """Run configuration; seeds are always explicit, never wall-clock."""

    seed: int = 0
    slip: SlipParams = field(default_factory=SlipParams)
    scenario_file: str | None = None
    joy_hz: float = DEFAULT_LOG_RATE
    imu_hz: float = DEFAULT_LOG_RATE
    replay_hz: float = replay_mod.DEFAULT_REPLAY_RATE
    delay_search: tuple[float, float] = (align_mod.DELAY_MIN, align_mod.DELAY_MAX)
    delay_step: float = align_mod.DEFAULT_DELAY_STEP
    pad: float = DEFAULT_PAD
    train: mlp.TrainConfig = field(default_factory=mlp.TrainConfig)
    out_dir: str | None = None

    @classmethod
    def from_json(cls, path: str) -> "PipelineConfig":
        raw = json_fields(path, read_json(path), ("seed",),
                          ("slip_file", "scenario_file", "rates", "delay_search",
                           "delay_step", "pad", "train", "out_dir"))
        seed = seed_value(path, raw["seed"])
        slip = (SlipParams.from_json(raw["slip_file"]) if "slip_file" in raw
                else SlipParams(seed=seed))
        rates = json_fields(f"{path}: rates", raw.get("rates", {}), (),
                            ("joy", "imu", "replay"))
        train_raw = json_fields(f"{path}: train", raw.get("train", {}), (),
                                tuple(f.name for f in fields(mlp.TrainConfig)))
        try:
            train = mlp.TrainConfig(**{"seed": seed, **train_raw})
        except ValidationError as exc:
            raise ValidationError(f"{path}: train: {exc}") from None
        # Only the keys present are passed: absent ones keep the field defaults.
        given = {}
        if "delay_search" in raw:
            search = raw["delay_search"]
            if not isinstance(search, list) or len(search) != 2:
                raise ValidationError(
                    f"{path}: delay_search must be a [lo, hi] pair, got {search!r}")
            lo, hi = (finite_number(path, "delay_search", v) for v in search)
            if not lo < hi:
                raise ValidationError(f"{path}: delay_search must satisfy lo < hi, "
                                      f"got {search!r}")
            given["delay_search"] = (lo, hi)
        for key in ("joy", "imu", "replay"):
            if key in rates:
                given[f"{key}_hz"] = _positive(path, f"rates: {key}", rates[key])
        if "delay_step" in raw:
            given["delay_step"] = _positive(path, "delay_step", raw["delay_step"])
        if "pad" in raw:
            given["pad"] = _positive(path, "pad", raw["pad"], zero_ok=True)
        return cls(seed=seed, slip=slip, scenario_file=raw.get("scenario_file"),
                   train=train, out_dir=raw.get("out_dir"), **given)


def _positive(path: str, key: str, value, zero_ok: bool = False) -> float:
    """A finite JSON number from config ``path`` that is > 0 (>= 0 when
    ``zero_ok``), else a ValidationError naming file and key."""
    value = finite_number(path, key, value)
    if value < 0.0 or (value == 0.0 and not zero_ok):
        bound = ">= 0" if zero_ok else "positive"
        raise ValidationError(f"{path}: {key} must be {bound}, got {value!r}")
    return value


def _resolve_out(args, cfg: PipelineConfig) -> str:
    out = args.out or cfg.out_dir or os.environ.get(ENV_OUT) or DEFAULT_OUT
    for sub in SUBDIRS:
        os.makedirs(os.path.join(out, sub), exist_ok=True)
    return out


def _load_config(args) -> PipelineConfig:
    if args.seed is not None and args.seed < 0:
        raise ValidationError("--seed must be >= 0")
    cfg = PipelineConfig.from_json(args.config) if args.config else PipelineConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed,
                      slip=replace(cfg.slip, seed=args.seed),
                      train=replace(cfg.train, seed=args.seed))
    return cfg


def write_trace_csv(trace: SimTrace, path: str) -> None:
    """Ground-truth trace rows: t,x,y,heading,v,av."""
    write_table(path, "t,x,y,heading,v,av",
                (trace.times(), trace.x, trace.y, trace.heading, trace.v, trace.av))


def cmd_collect(args) -> int:
    # The run length comes from --dwell, so a step count past the index names
    # it: first one dwell's, before a sweep's segment starts can overflow,
    # then the whole run's.
    dwell_sets_length = args.script is None or args.duration is None
    if dwell_sets_length:
        require_positive(dwell=args.dwell)
        sample_count("dwell", args.dwell / DEFAULT_DT)
    cfg = _load_config(args)
    out = _resolve_out(args, cfg)
    if args.script:
        script = ControlScript.from_json(args.script)
        duration = script.t_end + args.dwell if args.duration is None else args.duration
    else:
        script = scenarios.training_sweep_script(dwell=args.dwell)
        duration = scenarios.sweep_duration(script, dwell=args.dwell)
    if dwell_sets_length:
        sample_count("dwell", duration / DEFAULT_DT)
    try:
        trace = run_scenario(script, cfg.slip, duration)
    except ValidationError as exc:
        # a row is a script segment: the sweep's commands are all in the limit
        if exc.row is None:
            raise
        raise ValidationError(f"{args.script}: segment {exc.row}: {exc}") from None
    joy, imu = emit_sensor_logs(trace, cfg.slip, joy_rate=cfg.joy_hz,
                                imu_rate=cfg.imu_hz, pad=cfg.pad)
    joy_path = os.path.join(out, "logs", "joy.csv")
    imu_path = os.path.join(out, "logs", "imu.csv")
    datalog.write_joy_csv(joy, joy_path)
    datalog.write_imu_csv(imu, imu_path)
    print(f"collected {len(joy)} joy rows, {len(imu)} imu rows "
          f"({duration:.1f} s simulated)")
    return 0


def cmd_align(args) -> int:
    cfg = _load_config(args)
    out = _resolve_out(args, cfg)
    joy_path = args.joy or os.path.join(out, "logs", "joy.csv")
    imu_path = args.imu or os.path.join(out, "logs", "imu.csv")
    joy = datalog.read_joy_csv(joy_path)
    imu = datalog.read_imu_csv(imu_path)
    try:
        joy, imu = datalog.trim_idle(joy, imu)
    except CorruptLogError as exc:   # the joystick log is empty or idle
        raise CorruptLogError(f"{joy_path}: {exc}") from None
    try:
        delays, objectives = align_mod.scan_delays(joy, imu, search=cfg.delay_search,
                                                   step=cfg.delay_step)
        est = align_mod.delay_from_scan(delays, objectives)
        dataset = align_mod.build_dataset(joy, imu, est.delay, rate=cfg.joy_hz)
    except ValidationError as exc:
        # The pair's fault is no overlap, or a dataset row past the float
        # range; any other error here names a config value.
        if exc.row is None and not isinstance(exc, InsufficientOverlapError):
            raise
        raise type(exc)(f"{joy_path} and {imu_path}: {exc}") from None
    pruned = align_mod.prune_zero_curvature(dataset)

    align_mod.write_dataset_csv(pruned, os.path.join(out, "datasets", "dataset.csv"))
    write_json(os.path.join(out, "reports", "delay.json"),
               {"delay": est.delay, "objective": est.objective,
                "in_range": est.in_range, "corrupt": est.corrupt})
    align_mod.write_delay_scan_csv(delays, objectives,
                                   os.path.join(out, "reports", "delay_scan.csv"))

    counts = align_mod.histogram(pruned.v_joy, bins=20, vrange=(0.0, 5.0))
    align_mod.write_histogram_csv(counts, (0.0, 5.0),
                                  os.path.join(out, "reports", "vel_hist.csv"))
    flags = []
    if not est.in_range:
        flags.append("delay-out-of-range")
    if est.corrupt:
        flags.append("corrupt")
    suffix = f" [{' '.join(flags)}]" if flags else ""
    print(f"delay {est.delay:.3f} s (objective {est.objective:.6f}), "
          f"{len(pruned)} training rows{suffix}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args)
    out = _resolve_out(args, cfg)
    data_path = args.dataset or os.path.join(out, "datasets", "dataset.csv")
    dataset = align_mod.read_dataset_csv(data_path, period=1.0 / cfg.joy_hz)
    batch = cfg.train.batch_size
    if len(dataset) < 2 * batch:   # train's own check, worded with the files
        source = f"in {args.config}" if args.config else "by default"
        raise ValidationError(f"{data_path} has {len(dataset)} rows; train.batch_size "
                              f"{batch} {source} needs at least {2 * batch}")
    try:
        params, curve = mlp.train(dataset, cfg.train)
    except ValidationError as exc:   # training diverged on this dataset
        raise ValidationError(f"{data_path}: {exc}") from None
    model_path = os.path.join(out, "models", "model.json")
    mlp.save_model(params, model_path)
    mlp.write_loss_csv(curve, os.path.join(out, "reports", "loss.csv"))
    print(f"trained {cfg.train.epochs} epochs on {len(dataset)} rows; "
          f"final test mse {curve.test_mse[-1]:.6f}; model at {model_path}")
    return 0


def cmd_correct(args) -> int:
    for flag, value in (("--v", args.v), ("--c", args.c)):
        if not math.isfinite(value):
            raise ValidationError(f"{flag} must be finite, got {value!r}")
    if not math.isfinite(args.v * args.c):   # correct_batch's check, worded with the flags
        raise ValidationError(f"--v {args.v!r} at --c {args.c!r} commands a non-finite "
                              f"yaw rate v*c={args.v * args.c!r}")
    model = mlp.load_model(args.model)
    result = ikd.correct(model, args.v, args.c)
    print(result.to_json())
    return 0


def cmd_replay(args) -> int:
    cfg = _load_config(args)
    out = _resolve_out(args, cfg)
    buf = replay_mod.read_buffer_txt(args.buffer)
    model = mlp.load_model(args.model) if args.model else None
    duration = (args.duration if args.duration is not None
                else len(buf) / cfg.replay_hz)
    trace = replay_mod.execute_replay(buf, cfg.slip, model=model,
                                      rate=cfg.replay_hz, duration=duration,
                                      stride=args.stride)
    trace_path = os.path.join(out, "reports", "replay_trace.csv")
    write_trace_csv(trace, trace_path)
    print(f"replayed {duration:.2f} s ({len(trace)} steps) -> {trace_path}")
    return 0


def _finite_nonzero(flag: str, value: float) -> float:
    if not (math.isfinite(value) and value != 0):
        raise ValidationError(f"{flag} must be finite and nonzero, got {value!r}")
    return value


def _parse_curvatures(text: str) -> list[float]:
    try:
        vals = [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ValidationError(f"--curvatures: bad curvature list {text!r}") from None
    if not vals:
        raise ValidationError("--curvatures: curvature list is empty")
    return [_finite_nonzero("--curvatures", c) for c in vals]


def cmd_eval_circle(args) -> int:
    curvatures = (_parse_curvatures(args.curvatures) if args.curvatures
                  else list(DEFAULT_CIRCLE_CURVATURES))
    _finite_nonzero("--v", args.v)
    for c in curvatures:   # _check_commands' bound, worded with the flags
        if not abs(args.v * c) <= AV_LIMIT + 1e-9:
            raise ValidationError(f"--v {args.v!r} at --curvatures {c!r} commands a "
                                  f"yaw rate outside [-{AV_LIMIT}, {AV_LIMIT}] rad/s")
    cfg = _load_config(args)
    out = _resolve_out(args, cfg)
    model = mlp.load_model(args.model) if args.model else None

    runs = [("uncorrected", None)]
    if model is not None:
        runs.append(("corrected", model))
    reports = []
    comparison = []
    for c in curvatures:
        traces = []
        for run_name, run_model in runs:
            trace, _ = evalkit.circle_trace(args.v, c, cfg.slip, run_model)
            reports.append(evalkit.circle_test(args.v, c, cfg.slip, run_model,
                                               trace=trace))
            traces.append((run_name, trace.xy()))
        if model is not None:
            plain, corrected = reports[-2:]
            comparison.append((c, plain.c_measured, corrected.c_measured,
                               corrected.deviation_pct))
        svgplot.svg_trajectory(traces,
                               os.path.join(out, "plots", f"circle_{c:.2f}.svg"),
                               title=f"circle test c={c:.2f} v={args.v:.1f}")

    evalkit.emit_report(reports, os.path.join(out, "reports", "circle_reports.csv"))
    if comparison:
        evalkit.write_comparison_csv(
            comparison, os.path.join(out, "reports", "circle_comparison.csv"))
    for r in reports:
        tag = "ikd" if r.ikd_enabled else "raw"
        print(f"c={r.c_commanded:.3f} [{tag}] measured {r.c_measured:.4f} "
              f"(r={r.r_fit:.3f} m, deviation {r.deviation_pct:.2f}%)")
    return 0


def cmd_eval_drift(args) -> int:
    cfg = _load_config(args)
    out = _resolve_out(args, cfg)
    buf_rows = (replay_mod.read_buffer_txt(args.buffer).rows if args.buffer
                else scenarios.drift_buffer(rate=cfg.replay_hz).rows)
    model = mlp.load_model(args.model) if args.model else None
    duration = (args.duration if args.duration is not None
                else len(buf_rows) / cfg.replay_hz)

    if cfg.scenario_file:
        courses = {"custom": evalkit.DriftScenario.from_json(cfg.scenario_file)}
    else:
        courses = {"loose": scenarios.loose_scenario(),
                   "tight": scenarios.tight_scenario()}

    runs = {"uncorrected": None}
    if model is not None:
        runs["corrected"] = model
    report = {}
    traces = []
    for run_name, run_model in runs.items():
        buf = replay_mod.CommandBuffer(rows=buf_rows)
        trace = replay_mod.execute_replay(buf, cfg.slip, model=run_model,
                                          rate=cfg.replay_hz, duration=duration)
        traces.append((run_name, trace.xy()))
        report[run_name] = {name: asdict(evalkit.drift_eval(trace, course))
                            for name, course in courses.items()}

    write_json(os.path.join(out, "reports", "drift_report.json"), report)
    first_course = next(iter(courses.values()))
    svgplot.svg_trajectory(traces, os.path.join(out, "plots", "drift.svg"),
                           scenario=first_course, title="drift replay")
    for run_name, by_course in report.items():
        for course_name, r in by_course.items():
            print(f"{run_name}/{course_name}: clearance {r['min_clearance']:.3f} m, "
                  f"collided {r['collided']}, min turn radius "
                  f"{r['min_turn_radius']:.3f} m, cleared gate {r['cleared_gate']}")
    return 0


def _plot_rows(path: str, header: str) -> np.ndarray:
    """The rows of the table at ``path``; a table without any is a ParseError,
    and one with a value svgplot cannot scale names its line."""
    def build(rows):
        if len(rows) == 0:
            raise ParseError(f"{path}: no rows after the header")
        fit = np.abs(rows) <= svgplot.MAX_VALUE   # NaN fails too
        if not np.all(fit):
            k = int(np.argmin(fit.all(axis=1)))
            raise ValidationError(f"cannot plot {float(rows[k][~fit[k]][0])!r}: values "
                                  f"must be finite and within +-{svgplot.MAX_VALUE:g}",
                                  row=k)
        return rows
    return read_record(path, header, build)


def cmd_plot(args) -> int:
    cfg = _load_config(args)
    out = _resolve_out(args, cfg)
    made = []
    if args.loss:
        epoch, train_mse, test_mse = _plot_rows(args.loss, mlp.LOSS_HEADER).T
        dest = os.path.join(out, "plots", "loss.svg")
        svgplot.svg_line_chart([("train", epoch, train_mse), ("test", epoch, test_mse)],
                               dest, title="training loss", xlabel="epoch", ylabel="mse")
        made.append(dest)
    if args.hist:
        rows = _plot_rows(args.hist, align_mod.HIST_HEADER)
        dest = os.path.join(out, "plots", "vel_hist.svg")
        svgplot.svg_bar_chart(rows[:, 2], (rows[0, 0], rows[-1, 1]), dest,
                              title="velocity histogram", xlabel="v [m/s]")
        made.append(dest)
    if args.delay_scan:
        delay, objective = _plot_rows(args.delay_scan, align_mod.DELAY_SCAN_HEADER).T
        dest = os.path.join(out, "plots", "delay_scan.svg")
        svgplot.svg_line_chart([("objective", delay, objective)], dest,
                               title="alignment error vs delay",
                               xlabel="delay [s]", ylabel="mse")
        made.append(dest)
    if not made:
        raise ValidationError("nothing to plot; pass --loss, --hist or --delay-scan")
    print("wrote " + ", ".join(made))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ikdlab",
        description="slip simulator, log alignment, inverse-model training "
                    "and closed-loop evaluation")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="pipeline config JSON")
        p.add_argument("--seed", type=int, help="override every seed")
        p.add_argument("--out", help=f"output root (default ${ENV_OUT} or ./{DEFAULT_OUT})")

    p = sub.add_parser("collect", help="run the scripted drive and emit sensor logs")
    common(p)
    p.add_argument("--dwell", type=float, default=scenarios.DEFAULT_DWELL,
                   help="seconds per sweep segment")
    p.add_argument("--script", help="custom control script JSON")
    p.add_argument("--duration", type=float,
                   help="override simulated duration (with --script)")
    p.set_defaults(func=cmd_collect)

    p = sub.add_parser("align", help="estimate delay and build the training dataset")
    common(p)
    p.add_argument("--joy", help="joystick CSV (default <out>/logs/joy.csv)")
    p.add_argument("--imu", help="IMU CSV (default <out>/logs/imu.csv)")
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("train", help="fit the inverse model on the dataset")
    common(p)
    p.add_argument("--dataset", help="dataset CSV (default <out>/datasets/dataset.csv)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("correct", help="one-shot correction query")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--v", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.set_defaults(func=cmd_correct)

    p = sub.add_parser("replay", help="replay a command buffer through the simulator")
    common(p)
    p.add_argument("--buffer", required=True, help="buffer txt (v,av per line)")
    p.add_argument("--model", help="correction model JSON")
    p.add_argument("--duration", type=float, help="seconds (default one buffer pass)")
    p.add_argument("--stride", type=int, default=1,
                   help="buffer rows consumed per tick (decimation)")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("eval-circle", help="constant-curvature circle tests")
    common(p)
    p.add_argument("--model", help="correction model JSON")
    p.add_argument("--v", type=float, default=DEFAULT_CIRCLE_V)
    p.add_argument("--curvatures", help="comma-separated curvature list")
    p.set_defaults(func=cmd_eval_circle)

    p = sub.add_parser("eval-drift", help="drift replay scored against the gate")
    common(p)
    p.add_argument("--buffer", help="buffer txt (default built-in drift sequence)")
    p.add_argument("--model", help="correction model JSON")
    p.add_argument("--duration", type=float)
    p.set_defaults(func=cmd_eval_drift)

    p = sub.add_parser("plot", help="render CSV artifacts as SVG charts")
    common(p)
    p.add_argument("--loss", help="loss curve CSV")
    p.add_argument("--hist", help="histogram CSV")
    p.add_argument("--delay-scan", dest="delay_scan", help="delay scan CSV")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IkdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc.filename}", file=sys.stderr)
        return 1
    except OSError as exc:
        where = f": {exc.filename}" if exc.filename else ""
        print(f"error: {exc.strerror or exc}{where}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
