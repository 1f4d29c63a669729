"""Canned control scripts and obstacle courses.

These provide the scripted analogs of the data-collection drives and the
drift course: a varied-curvature training sweep, a counter-clockwise drift
command sequence, and the loose/tight gate layouts.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError, require_positive
from .evalkit import DriftScenario, Rect
from .replay import DEFAULT_REPLAY_RATE, CommandBuffer
from .simcore import AV_LIMIT, ControlScript, ScriptSegment

LOOSE_GAP = 2.13   # m
TIGHT_GAP = 0.81   # m
BOX_SIZE = 0.56    # m, square cardboard-box obstacle

# Speeds, and curvature magnitudes in increasing order, visited by the
# training sweep.  Chosen to bracket the circle-test speed (2 m/s) densely
# and to cover the commanded yaw-rate range used by the drift course, while
# respecting |v*c| <= 4.
# The low range is sampled finely (and dwelt on longer, see LOW_CURVATURE):
# small commanded yaw rates are where the inverse map must be most precise.
SWEEP_SPEEDS = (1.0, 1.5, 2.0, 2.5, 3.0, 4.0)
SWEEP_CURVATURES = (0.05, 0.06, 0.07, 0.08, 0.09, 0.1, 0.11, 0.12, 0.13,
                    0.14, 0.15, 0.16, 0.18, 0.2, 0.22, 0.25, 0.3, 0.35, 0.4,
                    0.45, 0.5, 0.55, 0.6, 0.63, 0.65, 0.7, 0.75, 0.8, 0.85,
                    0.9, 0.95, 1.0, 1.05, 1.1, 1.15)


DEFAULT_DWELL = 4.0  # s per sweep segment, before LOW_BOOST

# Segments at or below LOW_CURVATURE in magnitude dwell LOW_BOOST times as long.
LOW_CURVATURE = 0.25
LOW_BOOST = 2.0


def _segment_dwell(c: float, dwell: float) -> float:
    return dwell * (LOW_BOOST if abs(c) <= LOW_CURVATURE else 1.0)


def training_sweep_script(dwell: float = DEFAULT_DWELL,
                          speeds=SWEEP_SPEEDS) -> ControlScript:
    """Piecewise-constant sweep over (speed, +-curvature) combinations,
    SWEEP_CURVATURES at each of ``speeds``.

    Per speed, curvature walks up the positive magnitudes and back down the
    negative ones, so consecutive commands differ by one small step and the
    yaw rate crosses zero only once per speed block.  This keeps transition
    transients from polluting the low-curvature training rows.  Segments at
    |c| <= LOW_CURVATURE dwell LOW_BOOST times longer: small yaw rates need
    the most resolution in the learned inverse but contribute the least to
    a squared-error fit.  Pairs with |v*c| > AV_LIMIT are skipped.
    """
    require_positive(dwell=dwell)
    segs = []
    t = 0.0
    for v in speeds:
        ordered = [c for c in SWEEP_CURVATURES if abs(v * c) <= AV_LIMIT]
        for c in ordered + [-c for c in reversed(ordered)]:
            segs.append(ScriptSegment(t, v, c))
            t += _segment_dwell(c, dwell)
    if not segs:
        raise ValidationError("no feasible (v, c) pairs in the sweep")
    return ControlScript(tuple(segs))


def sweep_duration(script: ControlScript, dwell: float = DEFAULT_DWELL) -> float:
    """Total time covered by a sweep built with the same dwell settings."""
    last = script.segments[-1]
    return last.t_start + _segment_dwell(last.c, dwell)


# Drift command sequence: straight approach, one aggressive counter-clockwise
# arc whose ideal correction saturates the actuator, straight exit.
DRIFT_APPROACH = (2.0, 0.0, 1.5)   # (v, c, seconds)
DRIFT_TURN = (3.0, 0.8, 2.0)
DRIFT_EXIT = (2.0, 0.0, 1.0)


def drift_buffer(rate: float = DEFAULT_REPLAY_RATE) -> CommandBuffer:
    """The loose-drift teleoperation buffer, one (v, av) row per tick."""
    rows = []
    for v, c, seconds in (DRIFT_APPROACH, DRIFT_TURN, DRIFT_EXIT):
        n = int(round(seconds * rate))
        rows.extend([(v, v * c)] * n)
    return CommandBuffer(rows=rows)


# The corrected counter-clockwise arc peaks near x=4.2 at y=1.3; the gate is
# laid radially outward there so the car threads between cone (inside the
# arc) and box (outside).
GATE_CONE = (3.6, 1.3)
GATE_DIRECTION = (1.0, 0.0)


def _gate_scenario(gap: float) -> DriftScenario:
    """The gate cone plus a square box whose near face sits gap meters from
    it along GATE_DIRECTION."""
    d = np.asarray(GATE_DIRECTION, dtype=float)
    d = d / np.hypot(*d)
    center = np.asarray(GATE_CONE) + d * (gap + BOX_SIZE / 2.0)
    angle = math.atan2(d[1], d[0])
    box = Rect(cx=float(center[0]), cy=float(center[1]),
               w=BOX_SIZE, h=BOX_SIZE, angle=angle)
    return DriftScenario(boxes=(box,), cones=(GATE_CONE,), gap_width=gap)


def loose_scenario() -> DriftScenario:
    return _gate_scenario(LOOSE_GAP)


def tight_scenario() -> DriftScenario:
    return _gate_scenario(TIGHT_GAP)
