"""ikdlab benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload pipeline --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout; ikdlab is imported from its
``src`` directory, never from an installed copy.  The workload is set up
at least SETUP_REPEATS times and for at least SETUP_MIN_S seconds (the
median is ``setup_s``), then timed passes run one after another until
``--seconds`` have passed, at least MIN_PASSES of them.
Times and throughputs are medians over the passes, normalised to the
speed of a reference loop (see speed.py); the table also prints raw times.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
untraced and traced passes alternate and the per-layer metrics, the
traced pass time and the tracing overhead are printed.  A human-readable
table comes first; the last line of standard output is the JSON result.
Scratch artifacts go to ``.perfbench_out/`` in the checkout; traced runs
leave their spans there as JSON lines.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

SETUP_REPEATS = 3    # at least this many set-ups ...
SETUP_MIN_S = 2.0    # ... and until this much time has gone into them
MIN_PASSES = 2

# One client, one thread: BLAS runs single-threaded, so a pass does not
# compete with its own helper threads for the machine's two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def import_ikdlab() -> None:
    """Import ikdlab from this checkout's src/; exit 1 if it is not there."""
    sys.path.insert(0, SRC)
    try:
        import ikdlab
        import ikdlab.cli  # noqa: F401  (every module the tracer patches)
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import ikdlab from {SRC}: {exc}")
    if os.path.dirname(os.path.dirname(os.path.abspath(ikdlab.__file__))) != SRC:
        sys.exit(f"perfbench: ikdlab imported from {ikdlab.__file__}, not {SRC}")


def no_span(name: str):
    return contextlib.nullcontext()


def metric_units() -> dict[str, str]:
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    from speed import SpeedMeter
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS, Ops

    workload = WORKLOADS[workload_name]()
    scratch = os.path.join(OUT, f"{workload_name}-seed{seed}-{os.getpid()}")
    os.makedirs(scratch)
    meter = SpeedMeter(workload.reference)
    try:
        setup_times = []
        setup_start = time.perf_counter()
        while True:
            with meter:
                state = workload.setup(seed, scratch)
            setup_times.append(meter.norm_s)
            if trace or (len(setup_times) >= SETUP_REPEATS
                         and time.perf_counter() - setup_start >= SETUP_MIN_S):
                break

        ops = Ops()
        tracer = Tracer()
        # raw wall times of untraced and traced passes; normalised pass times
        untraced, traced, norm, rates = [], [], [], []
        start = time.perf_counter()
        index = 0
        while time.perf_counter() - start < seconds or index < MIN_PASSES:
            if trace:
                t0 = time.perf_counter()
                if index % 2:
                    with tracer.installed(), tracer.traced_pass(index):
                        workload.run_pass(state, index, ops, tracer.span)
                    traced.append(time.perf_counter() - t0)
                else:
                    workload.run_pass(state, index, ops, no_span)
                    untraced.append(time.perf_counter() - t0)
            else:
                with meter:
                    work = workload.run_pass(state, index, ops, no_span)
                untraced.append(meter.raw_s)
                norm.append(meter.norm_s)
                rates.append(work / meter.norm_s)
            index += 1
        extra = workload.report(state)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if trace:
        metrics = layer_metrics(tracer.spans, len(traced))
        metrics["trace.wall_s"] = statistics.median(traced)
        metrics["trace.overhead_s"] = (statistics.median(traced)
                                       - statistics.median(untraced))
        metrics["mlp.test_mse"] = extra.get("test_mse") or 0.0
        metrics["evalkit.circle_dev_pct_max"] = extra.get("circle_dev_pct_max") or 0.0
        metrics["align.delay_err_ms_max"] = extra.get("delay_err_ms_max") or 0.0
        tracer.write(os.path.join(OUT, f"spans-{workload_name}-seed{seed}.jsonl"))
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(norm),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "throughput": statistics.median(rates),
        }
    return {"workload": workload, "ops": ops, "metrics": metrics, "extra": extra,
            "passes": (untraced, traced, norm)}


def print_table(res: dict, units: dict[str, str]) -> None:
    workload, ops = res["workload"], res["ops"]
    untraced, traced, norm = res["passes"]
    print(f"workload {workload.name}")
    for label, times in (("untraced pass wall", untraced), ("traced pass wall", traced),
                         ("pass at reference speed", norm)):
        if times:
            print(f"  {label:36s} {' '.join(f'{w:.3f}' for w in times)} s")
    for name, value in res["metrics"].items():
        print(f"  {name:36s} {value:16.6f} {units[name]}")
        if name == "throughput":
            print(f"  {'  = ' + workload.work_name:36s} {value:16.6f} {workload.work_unit}")
    print(f"  {'ops':36s} {ops.attempted:16d} count")
    print(f"  {'failed_frac':36s} {ops.failed / ops.attempted:16.6f} of ops")
    for name, value in res["extra"].items():
        print(f"  {name:36s} {value!s:>16s}")
    for reason in ops.reasons:
        print(f"  FAILED: {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("pipeline", "train", "closed_loop", "delay_recovery"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    import_ikdlab()
    units = metric_units()
    res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print_table(res, units)
    ops = res["ops"]
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
