"""Command-line pipeline: collect, align, train, correct, replay, eval.

One executable with subcommands covering the whole workflow; every run is
seeded through the config (or --seed), so repeated invocations write
byte-identical artifacts.  A stage ``cmd_*(args, cfg, out)`` computes; the
library function that uses a value checks it, and the stage names the flag
or file at fault (``errors.blamed``).  It returns the files to write, as
(path under the output root, writer) pairs, and the lines to print.  ``main``
alone loads the config, makes the directories (logs/, datasets/, models/,
reports/, plots/) it writes to, writes and prints, and only once the stage
has succeeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cache, partial

from . import align as align_mod
from . import datalog, evalkit, ikd, mlp, replay as replay_mod, scenarios, svgplot
from .errors import (CorruptLogError, IkdError, InsufficientOverlapError, ParseError,
                     ValidationError, blamed, check_within, finite_number, json_fields,
                     require_positive, seed_value)
from .fileio import read_json, read_record, write_json, write_table
from .simcore import (DEFAULT_DT, DEFAULT_LOG_RATE, DEFAULT_PAD, EMPTY_TRACE,
                      ControlScript, SimTrace, SlipParams, record_logs, sample_count)

DEFAULT_OUT = "out"
ENV_OUT = "IKD_OUT_DIR"
DEFAULT_CIRCLE_CURVATURES = (0.12, 0.63, 0.80)
DEFAULT_CIRCLE_V = 2.0


@dataclass(frozen=True)
class PipelineConfig:
    """Run configuration; seeds are always explicit, never wall-clock.
    ``slip.seed`` and ``train.seed`` are the seeds a run uses."""

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
        for key in ("slip_file", "scenario_file", "out_dir"):
            if key in raw and not isinstance(raw[key], str):
                raise ValidationError(
                    f"{path}: {key} must be a path string, got {raw[key]!r}")
        slip = (SlipParams.from_json(raw["slip_file"]) if "slip_file" in raw
                else SlipParams(seed=seed))
        rates = json_fields(f"{path}: rates", raw.get("rates", {}), (),
                            ("joy", "imu", "replay"))
        train_raw = json_fields(f"{path}: train", raw.get("train", {}), (),
                                tuple(f.name for f in fields(mlp.TrainConfig)))
        with blamed(lambda exc: f"{path}: train"):
            train = mlp.TrainConfig(**{"seed": seed, **train_raw})
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
        return cls(slip=slip, scenario_file=raw.get("scenario_file"),
                   train=train, out_dir=raw.get("out_dir"), **given)


def _positive(path: str, key: str, value, zero_ok: bool = False) -> float:
    """A finite JSON number from config ``path`` that is > 0 (>= 0 when
    ``zero_ok``), else a ValidationError naming file and key."""
    value = finite_number(path, key, value)
    if value < 0.0 or (value == 0.0 and not zero_ok):
        bound = ">= 0" if zero_ok else "positive"
        raise ValidationError(f"{path}: {key} must be {bound}, got {value!r}")
    return value


def _load_config(args) -> PipelineConfig:
    if args.seed is not None and args.seed < 0:
        raise ValidationError("--seed must be >= 0")
    cfg = PipelineConfig.from_json(args.config) if args.config else PipelineConfig()
    if args.seed is not None:
        cfg = replace(cfg, slip=replace(cfg.slip, seed=args.seed),
                      train=replace(cfg.train, seed=args.seed))
    return cfg


def _under(out: str, rel: str) -> str:
    """The path of ``rel`` (a "/"-separated path) under the output root."""
    return os.path.join(out, *rel.split("/"))


def write_trace_csv(trace: SimTrace, path: str) -> None:
    """Ground-truth trace rows: t,x,y,heading,v,av."""
    write_table(path, "t,x,y,heading,v,av",
                (trace.times(), trace.x, trace.y, trace.heading, trace.v, trace.av))


def cmd_collect(args, cfg, out):
    # The run length comes from --dwell, so a step count past the index names
    # it: first one dwell's, before a sweep's segment starts can overflow,
    # then the whole run's.
    dwell_sets_length = args.script is None or args.duration is None
    if dwell_sets_length:
        require_positive(dwell=args.dwell)
        sample_count("dwell", args.dwell / DEFAULT_DT)
    if args.script:
        script = ControlScript.from_json(args.script)
        duration = script.t_end + args.dwell if args.duration is None else args.duration
    else:
        script = scenarios.training_sweep_script(dwell=args.dwell)
        duration = scenarios.sweep_duration(script, dwell=args.dwell)
    if dwell_sets_length:
        sample_count("dwell", duration / DEFAULT_DT)
    # a row is a script segment (the logs' values are all inside their
    # domains); a run too short to record is the length-setting flag's doing
    length_flag = "--dwell" if args.duration is None else "--duration"
    with blamed(lambda exc: f"{args.script}: segment {exc.row}"
                if args.script and exc.row is not None
                else length_flag if str(exc) == EMPTY_TRACE else None):
        joy, imu = record_logs(script, cfg.slip, duration, joy_rate=cfg.joy_hz,
                               imu_rate=cfg.imu_hz, pad=cfg.pad)
    files = [("logs/joy.csv", partial(datalog.write_joy_csv, joy)),
             ("logs/imu.csv", partial(datalog.write_imu_csv, imu))]
    return files, [f"collected {len(joy)} joy rows, {len(imu)} imu rows "
                   f"({duration:.1f} s simulated)"]


def cmd_align(args, cfg, out):
    joy_path = args.joy or _under(out, "logs/joy.csv")
    imu_path = args.imu or _under(out, "logs/imu.csv")
    joy = datalog.read_joy_csv(joy_path)
    imu = datalog.read_imu_csv(imu_path)
    # the joystick log is empty or idle
    with blamed(lambda exc: joy_path if isinstance(exc, CorruptLogError) else None):
        joy, imu = datalog.trim_idle(joy, imu)
    # The pair's fault is no usable overlap or timestamps too far apart; any
    # other error here names a config value.
    pair_fault = (InsufficientOverlapError, CorruptLogError)
    with blamed(lambda exc: f"{joy_path} and {imu_path}"
                if isinstance(exc, pair_fault) else None):
        delays, objectives = align_mod.scan_delays(joy, imu, search=cfg.delay_search,
                                                   step=cfg.delay_step)
        est = align_mod.delay_from_scan(delays, objectives)
        dataset = align_mod.build_dataset(joy, imu, est.delay, rate=cfg.joy_hz)
    pruned = align_mod.prune_zero_curvature(dataset)
    counts = align_mod.histogram(pruned.v_joy, bins=20, vrange=(0.0, 5.0))
    files = [("datasets/dataset.csv", partial(align_mod.write_dataset_csv, pruned)),
             ("reports/delay.json",
              partial(write_json, payload={"delay": est.delay, "objective": est.objective,
                                           "in_range": est.in_range,
                                           "corrupt": est.corrupt})),
             ("reports/delay_scan.csv",
              partial(align_mod.write_delay_scan_csv, delays, objectives)),
             ("reports/vel_hist.csv",
              partial(align_mod.write_histogram_csv, counts, (0.0, 5.0)))]
    flags = []
    if not est.in_range:
        flags.append("delay-out-of-range")
    if est.corrupt:
        flags.append("corrupt")
    suffix = f" [{' '.join(flags)}]" if flags else ""
    return files, [f"delay {est.delay:.3f} s (objective {est.objective:.6f}), "
                   f"{len(pruned)} training rows{suffix}"]


def cmd_train(args, cfg, out):
    data_path = args.dataset or _under(out, "datasets/dataset.csv")
    dataset = align_mod.read_dataset_csv(data_path)
    # too few rows for the batch size, or training diverged on this dataset
    with blamed(lambda exc: data_path):
        params, curve = mlp.train(dataset, cfg.train)
    files = [("models/model.json", partial(mlp.save_model, params)),
             ("reports/loss.csv", partial(mlp.write_loss_csv, curve))]
    return files, [f"trained {cfg.train.epochs} epochs on {len(dataset)} rows; "
                   f"final test mse {curve.test_mse[-1]:.6f}; model at "
                   f"{_under(out, 'models/model.json')}"]


def cmd_correct(args, cfg, out):
    model = mlp.load_model(args.model)
    with blamed(lambda exc: f"--v {args.v!r} at --c {args.c!r}"):
        result = ikd.correct(model, args.v, args.c)
    return [], [json.dumps(result._asdict(), indent=2, sort_keys=True)]


def cmd_replay(args, cfg, out):
    buf = replay_mod.read_buffer_txt(args.buffer)
    model = mlp.load_model(args.model) if args.model else None
    duration = (args.duration if args.duration is not None
                else len(buf) / cfg.replay_hz)
    trace = replay_mod.execute_replay(buf, cfg.slip, model=model,
                                      rate=cfg.replay_hz, duration=duration,
                                      stride=args.stride)
    files = [("reports/replay_trace.csv", partial(write_trace_csv, trace))]
    return files, [f"replayed {duration:.2f} s ({len(trace)} steps) -> "
                   f"{_under(out, 'reports/replay_trace.csv')}"]


def _parse_curvatures(text: str) -> list[float]:
    try:
        vals = [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ValidationError(f"--curvatures: bad curvature list {text!r}") from None
    if not vals:
        raise ValidationError("--curvatures: curvature list is empty")
    return vals


def cmd_eval_circle(args, cfg, out):
    curvatures = (_parse_curvatures(args.curvatures) if args.curvatures
                  else list(DEFAULT_CIRCLE_CURVATURES))
    model = mlp.load_model(args.model) if args.model else None

    runs = [("uncorrected", None)]
    if model is not None:
        runs.append(("corrected", model))
    files = []
    reports = []
    comparison = []
    for c in curvatures:
        traces = []
        for run_name, run_model in runs:
            # the command the flags give is refused, or its run cannot be fitted
            with blamed(lambda exc: f"--v {args.v!r} at --curvatures {c!r}"):
                trace = evalkit.circle_trace(args.v, c, cfg.slip, run_model)
                reports.append(evalkit.circle_test(args.v, c, cfg.slip, run_model,
                                                   trace=trace))
            traces.append((run_name, trace.xy()))
        if model is not None:
            plain, corrected = reports[-2:]
            comparison.append((c, plain.c_measured, corrected.c_measured,
                               corrected.deviation_pct))
        files.append((f"plots/circle_{c:.2f}.svg",
                      partial(svgplot.svg_trajectory, traces,
                              title=f"circle test c={c:.2f} v={args.v:.1f}")))

    files.append(("reports/circle_reports.csv", partial(evalkit.emit_report, reports)))
    if comparison:
        files.append(("reports/circle_comparison.csv",
                      partial(evalkit.write_comparison_csv, comparison)))
    lines = [f"c={r.c_commanded:.3f} [{'ikd' if r.ikd_enabled else 'raw'}] measured "
             f"{r.c_measured:.4f} (r={r.r_fit:.3f} m, deviation {r.deviation_pct:.2f}%)"
             for r in reports]
    return files, lines


def cmd_eval_drift(args, cfg, out):
    buf = (replay_mod.read_buffer_txt(args.buffer) if args.buffer
           else scenarios.drift_buffer(rate=cfg.replay_hz))
    model = mlp.load_model(args.model) if args.model else None
    duration = (args.duration if args.duration is not None
                else len(buf) / cfg.replay_hz)

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
        trace = replay_mod.execute_replay(buf, cfg.slip, model=run_model,
                                          rate=cfg.replay_hz, duration=duration)
        traces.append((run_name, trace.xy()))
        report[run_name] = {name: asdict(evalkit.drift_eval(trace, course))
                            for name, course in courses.items()}

    first_course = next(iter(courses.values()))
    files = [("reports/drift_report.json", partial(write_json, payload=report)),
             ("plots/drift.svg", partial(svgplot.svg_trajectory, traces,
                                         scenario=first_course, title="drift replay"))]
    lines = [f"{run_name}/{course_name}: clearance {r['min_clearance']:.3f} m, "
             f"collided {r['collided']}, min turn radius "
             f"{r['min_turn_radius']:.3f} m, cleared gate {r['cleared_gate']}"
             for run_name, by_course in report.items()
             for course_name, r in by_course.items()]
    return files, lines


def _plot_rows(path: str, header: str):
    """The rows of the table at ``path``; a table without any is a ParseError,
    and one with a value svgplot cannot scale names its line."""
    def build(rows):
        if len(rows) == 0:
            raise ParseError(f"{path}: no rows after the header")
        check_within(*((name, rows[:, j], svgplot.MAX_VALUE)
                       for j, name in enumerate(header.split(","))), where="cannot plot")
        return rows
    return read_record(path, header, build)


def cmd_plot(args, cfg, out):
    files = []
    if args.loss:
        epoch, train_mse, test_mse = _plot_rows(args.loss, mlp.LOSS_HEADER).T
        series = [("train", epoch, train_mse), ("test", epoch, test_mse)]
        files.append(("plots/loss.svg", partial(
            svgplot.svg_line_chart, series, title="training loss", xlabel="epoch",
            ylabel="mse")))
    if args.hist:
        rows = _plot_rows(args.hist, align_mod.HIST_HEADER)
        files.append(("plots/vel_hist.svg", partial(
            svgplot.svg_bar_chart, rows[:, 2], (rows[0, 0], rows[-1, 1]),
            title="velocity histogram", xlabel="v [m/s]")))
    if args.delay_scan:
        delay, objective = _plot_rows(args.delay_scan, align_mod.DELAY_SCAN_HEADER).T
        files.append(("plots/delay_scan.svg", partial(
            svgplot.svg_line_chart, [("objective", delay, objective)],
            title="alignment error vs delay", xlabel="delay [s]", ylabel="mse")))
    if not files:
        raise ValidationError("nothing to plot; pass --loss, --hist or --delay-scan")
    return files, ["wrote " + ", ".join(_under(out, rel) for rel, _ in files)]


@cache   # one parser per process: parsing leaves it unchanged
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
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        out = args.out or cfg.out_dir or os.environ.get(ENV_OUT) or DEFAULT_OUT
        files, lines = args.func(args, cfg, out)
        for rel, write in files:
            path = _under(out, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            write(path)
        for line in lines:
            print(line)
        return 0
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
