"""Span tracing for the benchmark's traced run.

The tracer wraps public ikdlab functions under every module attribute that
binds them (``ikdlab.cli.run_scenario`` and ``ikdlab.evalkit.run_scenario``
are the same function looked up under two modules), records one span per
call in memory, and restores the originals when it is uninstalled.  Spans
are (name, start, end, parent, pass id, counts); a span's self time is its
duration minus the durations of its direct children.

``simcore.step_dynamics`` is not wrapped: it runs once per 5 ms simulator
step, and replay steps are counted from the returned trace instead.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

NAME, START, END, PARENT, PASS, COUNTS = range(6)


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _arrays_key(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _scenario_counts(tracer, fn, args, kwargs, trace):
    a = _bound(fn, args, kwargs)
    key = (a["script"], a["p"], a["duration"], a["dt"], a["initial_state"])
    repeat = tracer.seen(("run_scenario", key))
    return {"steps": len(trace), "repeat_steps": len(trace) if repeat else 0}


def _scan_counts(tracer, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    joy, imu = a["joy"], a["imu"]
    key = (_arrays_key(joy.t, joy.av, imu.t, imu.av_z), a["search"], a["step"])
    n = len(result[0])
    return {"candidates": n, "useful_candidates": 0 if tracer.seen(("scan", key)) else n}


def _write_counts(tracer, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    return {"rows_written": len(a["log"]), "bytes_written": os.path.getsize(a["path"])}


def _svg_counts(tracer, fn, args, kwargs, result):
    return {"bytes_written": os.path.getsize(_bound(fn, args, kwargs)["path"])}


# (module, function, span name, counts(tracer, fn, args, kwargs, result) or None)
TARGETS = (
    ("ikdlab.simcore", "run_scenario", "simcore.run_scenario", _scenario_counts),
    ("ikdlab.simcore", "emit_sensor_logs", "simcore.emit_sensor_logs", None),
    ("ikdlab.replay", "execute_replay", "replay.execute_replay",
     lambda tr, fn, a, k, r: {"steps": len(r)}),
    ("ikdlab.ikd", "correct", "ikd.correct",
     lambda tr, fn, a, k, r: {"clamped": int(r.clamped)}),
    ("ikdlab.datalog", "write_joy_csv", "datalog.write", _write_counts),
    ("ikdlab.datalog", "write_imu_csv", "datalog.write", _write_counts),
    ("ikdlab.datalog", "read_joy_csv", "datalog.read",
     lambda tr, fn, a, k, r: {"rows_read": len(r)}),
    ("ikdlab.datalog", "read_imu_csv", "datalog.read",
     lambda tr, fn, a, k, r: {"rows_read": len(r)}),
    ("ikdlab.datalog", "trim_idle", "datalog.trim_idle", None),
    ("ikdlab.align", "estimate_delay", "align.estimate_delay", None),
    ("ikdlab.align", "scan_delays", "align.scan", _scan_counts),
    ("ikdlab.align", "build_dataset", "align.build_dataset",
     lambda tr, fn, a, k, r: {"rows": len(r)}),
    ("ikdlab.align", "write_dataset_csv", "align.dataset_io", None),
    ("ikdlab.align", "read_dataset_csv", "align.dataset_io", None),
    ("ikdlab.mlp", "train", "mlp.train", None),
    ("ikdlab.mlp", "loss_and_grads", "mlp.loss_and_grads", None),
    ("ikdlab.mlp", "adamw_step", "mlp.adamw_step", None),
    ("ikdlab.mlp", "forward", "mlp.forward", None),
    ("ikdlab.evalkit", "circle_test", "evalkit.circle_test", None),
    ("ikdlab.evalkit", "fit_circle", "evalkit.fit_circle", None),
    ("ikdlab.evalkit", "drift_eval", "evalkit.drift_eval",
     lambda tr, fn, a, k, r: {"states": len(_bound(fn, a, k)["trace"].states)}),
    ("ikdlab.svgplot", "svg_line_chart", "svgplot", _svg_counts),
    ("ikdlab.svgplot", "svg_bar_chart", "svgplot", _svg_counts),
    ("ikdlab.svgplot", "svg_trajectory", "svgplot", _svg_counts),
)

CLI_COMMANDS = ("collect", "align", "train", "eval-circle", "eval-drift", "plot")


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._pass: int | None = None
        self._seen: set = set()
        self.patched: list[tuple[object, str, object]] = []

    def seen(self, key) -> bool:
        """True if key was already seen in the current pass; records it."""
        if key in self._seen:
            return True
        self._seen.add(key)
        return False

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self._pass, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def traced_pass(self, index: int):
        """Root span of one timed pass; repeat detection restarts per pass."""
        self._pass, self._seen = index, set()
        try:
            with self.span("pass"):
                yield
        finally:
            self._pass = None

    def _wrap(self, fn, name: str, measure):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        inline_under = "ikd.correct" if name == "mlp.forward" else None

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if inline_under is not None and parent >= 0 \
                    and spans[parent][NAME] == inline_under:
                return fn(*args, **kwargs)   # counted toward the correct call
            rec = [name, 0.0, 0.0, parent, self._pass, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if measure is not None:
                rec[COUNTS] = measure(self, fn, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Replace each target under every ikdlab module attribute bound to it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "ikdlab" or n.startswith("ikdlab."))]
        for mod_name, fn_name, span_name, measure in TARGETS:
            original = getattr(sys.modules[mod_name], fn_name)
            wrapper = self._wrap(original, span_name, measure)
            for mod in modules:
                if mod.__dict__.get(fn_name) is original:
                    self.patched.append((mod, fn_name, original))
                    setattr(mod, fn_name, wrapper)

    def uninstall(self) -> None:
        while self.patched:
            mod, fn_name, original = self.patched.pop()
            setattr(mod, fn_name, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path: str) -> None:
        """Write the spans as JSON lines; called once, when the run ends."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, pass_id, counts in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "pass": pass_id,
                                     "counts": counts}) + "\n")


def layer_name(spans: list[list], i: int) -> str:
    """Reporting name of span i: a forward call under train is epoch evaluation."""
    name, parent = spans[i][NAME], spans[i][PARENT]
    if name == "mlp.forward" and parent >= 0 and spans[parent][NAME] == "mlp.train":
        return "mlp.epoch_eval"
    return name


def self_times(spans: list[list]) -> list[float]:
    covered = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            covered[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - covered[i] for i, rec in enumerate(spans)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], passes: int) -> dict:
    """Per-pass self times, counts and rates of each layer, by metric name.

    Layers a workload never enters report 0.
    """
    selfs = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    counts: dict[str, Counter] = defaultdict(Counter)
    correct_us = []
    for i, rec in enumerate(spans):
        name = layer_name(spans, i)
        self_s[name] += selfs[i]
        total_s[name] += rec[END] - rec[START]
        calls[name] += 1
        if rec[COUNTS]:
            counts[name].update(rec[COUNTS])
        if name == "ikd.correct":
            correct_us.append((rec[END] - rec[START]) * 1e6)

    def per(x):
        return x / passes

    sim, rep, drift = counts["simcore.run_scenario"], counts["replay.execute_replay"], \
        counts["evalkit.drift_eval"]
    scan = counts["align.scan"]
    steps = calls["mlp.adamw_step"]
    step_s = total_s["mlp.train"] - self_s["mlp.epoch_eval"]
    m = {
        "simcore.steps": per(sim["steps"]),
        "simcore.run_scenario.calls": per(calls["simcore.run_scenario"]),
        "simcore.run_scenario.self_s": per(self_s["simcore.run_scenario"]),
        "simcore.us_per_step": _ratio(self_s["simcore.run_scenario"] * 1e6, sim["steps"]),
        "simcore.emit_sensor_logs.self_s": per(self_s["simcore.emit_sensor_logs"]),
        "simcore.repeat_steps": per(sim["repeat_steps"]),
        "replay.execute_replay.calls": per(calls["replay.execute_replay"]),
        "replay.steps": per(rep["steps"]),
        "replay.execute_replay.self_s": per(self_s["replay.execute_replay"]),
        "replay.us_per_step": _ratio(self_s["replay.execute_replay"] * 1e6, rep["steps"]),
        "ikd.correct.calls": per(calls["ikd.correct"]),
        "ikd.correct.us_p50": float(np.percentile(correct_us, 50)) if correct_us else 0.0,
        "ikd.correct.us_p99": float(np.percentile(correct_us, 99)) if correct_us else 0.0,
        "ikd.clamped_frac": _ratio(counts["ikd.correct"]["clamped"], calls["ikd.correct"]),
        "datalog.rows_written": per(counts["datalog.write"]["rows_written"]),
        "datalog.bytes_written": per(counts["datalog.write"]["bytes_written"]),
        "datalog.write.self_s": per(self_s["datalog.write"]),
        "datalog.rows_read": per(counts["datalog.read"]["rows_read"]),
        "datalog.read.self_s": per(self_s["datalog.read"]),
        "datalog.trim_idle.self_s": per(self_s["datalog.trim_idle"]),
        "align.dataset_io.self_s": per(self_s["align.dataset_io"]),
        "align.estimate_delay.calls": per(calls["align.estimate_delay"]),
        "align.candidates": per(scan["candidates"]),
        "align.scan.self_s": per(self_s["align.scan"]),
        "align.candidates_per_s": _ratio(scan["candidates"], self_s["align.scan"]),
        "align.build_dataset.self_s": per(self_s["align.build_dataset"]),
        "align.dataset_rows": per(counts["align.build_dataset"]["rows"]),
        "align.useful_scan_frac": _ratio(scan["useful_candidates"], scan["candidates"]),
        "mlp.train.calls": per(calls["mlp.train"]),
        "mlp.optimizer_steps": per(steps),
        "mlp.loss_and_grads.self_s": per(self_s["mlp.loss_and_grads"]),
        "mlp.adamw_step.self_s": per(self_s["mlp.adamw_step"]),
        "mlp.epoch_eval.self_s": per(self_s["mlp.epoch_eval"]),
        "mlp.train.self_s": per(self_s["mlp.train"]),
        "mlp.us_per_step": _ratio(step_s * 1e6, steps),
        "evalkit.circle_test.calls": per(calls["evalkit.circle_test"]),
        "evalkit.circle_test.self_s": per(self_s["evalkit.circle_test"]),
        "evalkit.fit_circle.self_s": per(self_s["evalkit.fit_circle"]),
        "evalkit.drift_eval.calls": per(calls["evalkit.drift_eval"]),
        "evalkit.drift_states": per(drift["states"]),
        "evalkit.drift_eval.self_s": per(self_s["evalkit.drift_eval"]),
        "evalkit.us_per_drift_state": _ratio(self_s["evalkit.drift_eval"] * 1e6,
                                             drift["states"]),
        "svgplot.self_s": per(self_s["svgplot"]),
        "svgplot.bytes_written": per(counts["svgplot"]["bytes_written"]),
    }
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.wall_s"] = per(total_s[f"cli.{cmd}"])
    return m

