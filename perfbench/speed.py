"""Machine-speed normalisation of the timed sections.

On the shared 2-core virtual machine this benchmark was sized on, the same
pure-Python code runs up to twice as fast in some stretches of 10 to 60
seconds as in others, so raw wall times of two sets of runs can differ by
25% with no change to the program.  A fixed reference loop of the same kind of code,
which is benchmark code and never ikdlab code, tracks that speed.  Measured
there over 35 s, interleaved with each kind of work, the quartile distance
over the median of 12 block medians was:

    work                        raw    python ref   numpy ref
    drift_eval (interpreter)    0.36   0.03         0.10
    train epoch (small arrays)  0.46   0.08         0.02
    gate-shaped delay scan      0.29   0.16         0.03
    96k-row delay scan          0.31   0.20         0.08

so each workload names the reference that matches the code it spends its
time in.  Over ten repeated `pipeline` passes, which run both kinds, the
same measure was 0.21 raw, 0.087 with the python reference, 0.040 with the
numpy one and 0.068 with both loops together ("mixed").

SpeedMeter samples the reference every INTERVAL_S seconds from a SIGALRM
handler, which runs in the main thread between bytecodes, so no thread is
started and long calls into the program are sampled too.  The time spent in
the reference is left out of the measured section.  A section's normalised
time is the sum over sampling intervals of the interval's time times
the reference's nominal duration over its measured duration, averaged over
the interval's two bounding samples after a running median over five
samples: seconds as they would read on a machine that runs the reference
loop in its nominal time.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.25
_PY_ITERATIONS = 12_000
_NP_X = np.linspace(0.0, 2400.0, 96_000)
_NP_Y = np.sin(_NP_X)


def python_reference() -> float:
    """Interpreter-bound reference: float math, dict work, tiny numpy calls."""
    acc = 0.0
    a = np.ones((4, 2))
    table = {}
    for i in range(_PY_ITERATIONS):
        acc += math.hypot(i * 0.5, acc * 1e-9)
        table[i & 255] = acc
        if i % 8 == 0:
            acc += float((a @ a.T).sum()) * 1e-12
    return acc


def numpy_reference() -> float:
    """Array-bound reference: masks, interpolation and means over 96k floats."""
    acc = 0.0
    for k in range(6):
        m = (_NP_X >= 1.0 + k) & (_NP_X <= 2000.0)
        shifted = np.interp(_NP_X[m] + 0.0123 + k * 1e-3, _NP_X, _NP_Y)
        acc += float(np.mean((shifted - _NP_Y[m]) ** 2))
    return acc


def mixed_reference() -> float:
    """Both loops, for a workload that spends its time in both kinds of code."""
    return python_reference() + numpy_reference()


# reference loop and its nominal duration, by the kind of code a workload runs
REFERENCES = {"python": (python_reference, 0.010), "numpy": (numpy_reference, 0.0075),
              "mixed": (mixed_reference, 0.0175)}


class SpeedMeter:
    """Times one section at a time, raw and normalised to the reference speed."""

    def __init__(self, kind: str, interval: float = INTERVAL_S):
        self.reference, self.nominal = REFERENCES[kind]
        self.interval = interval
        self._samples: list[tuple[float, float, float]] = []  # (start, end, factor)

    def _sample(self, *_) -> None:
        t0 = time.perf_counter()
        self.reference()
        t1 = time.perf_counter()
        self._samples.append((t0, t1, self.nominal / (t1 - t0)))

    def __enter__(self) -> "SpeedMeter":
        self._samples = []
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        # a running median over five samples drops single-sample outliers
        factors = [f for _, _, f in self._samples]
        smooth = [statistics.median(factors[max(0, i - 2):i + 3])
                  for i in range(len(factors))]
        raw = norm = 0.0
        for i in range(1, len(self._samples)):
            interval = self._samples[i][0] - self._samples[i - 1][1]
            raw += interval
            norm += interval * 0.5 * (smooth[i - 1] + smooth[i])
        self.raw_s, self.norm_s = raw, norm
