"""Shared fixtures: hand-built models with known outputs, tiny oracles, and
builders and writers for the inputs the library only reads."""

import dataclasses
import math
import os

import numpy as np
import pytest

from ikdlab.evalkit import Rect
from ikdlab.fileio import write_json, write_table
from ikdlab.mlp import MlpParams, _SHAPES
from ikdlab.simcore import ControlScript, ScriptSegment


def make_script(segs) -> ControlScript:
    """A ControlScript from ``(t_start, v, c)`` tuples."""
    return ControlScript(tuple(ScriptSegment(*s) for s in segs))


def step_commands(trace) -> np.ndarray:
    """A trace's per-step ``(v, c)`` commands, a (2, n) array: its command
    table expanded to the n steps by one np.repeat."""
    return np.repeat([trace.command_v, trace.command_c],
                     np.diff(trace.command_first, append=len(trace)), axis=1)


def zero_commands(states: int) -> dict:
    """The command table of a hand-built trace of ``states`` states that is
    commanded (0, 0) throughout: one row from step 0, none for one state."""
    rows = min(states - 1, 1)
    return dict(command_first=np.zeros(rows, dtype=int), command_v=np.zeros(rows),
                command_c=np.zeros(rows))


def write_dataclass_json(path, obj) -> None:
    """Write a SlipParams, ControlScript or DriftScenario as the JSON file
    its ``from_json`` reads."""
    write_json(path, dataclasses.asdict(obj))


def write_new(path, data: bytes) -> None:
    """Write ``data`` to ``path`` as a new file.  Truncating a file and
    writing it again makes ext4 (auto_da_alloc) flush it on close, some
    50-80 ms; a loop that rewrites one file in place spends its time there."""
    if os.path.lexists(path):
        os.unlink(path)
    with open(path, "wb") as fh:
        fh.write(data)


def write_buffer(path, rows) -> None:
    """A command buffer file: one "v,av" pair per line, no header."""
    write_table(path, None, np.asarray(rows, dtype=float).T)


def build_identity_model() -> MlpParams:
    """Network computing exactly av for any (v, av) input.

    Layer 1 splits av into relu(av) and relu(-av); layer 2 passes both
    through (they are non-negative, so ReLU is the identity on them); the
    head recombines them as relu(av) - relu(-av) = av.  Exact in floats.
    """
    W1 = np.zeros(_SHAPES["W1"])
    W1[0, 1] = 1.0
    W1[1, 1] = -1.0
    W2 = np.zeros(_SHAPES["W2"])
    W2[0, 0] = 1.0
    W2[1, 1] = 1.0
    W3 = np.zeros(_SHAPES["W3"])
    W3[0, 0] = 1.0
    W3[0, 1] = -1.0
    return MlpParams(W1=W1, b1=np.zeros(_SHAPES["b1"]),
                     W2=W2, b2=np.zeros(_SHAPES["b2"]),
                     W3=W3, b3=np.zeros(_SHAPES["b3"]))


def build_gain_model(gain: float) -> MlpParams:
    """Network computing gain * av (identity model with a scaled head)."""
    p = build_identity_model()
    return MlpParams(W1=p.W1, b1=p.b1, W2=p.W2, b2=p.b2,
                     W3=gain * p.W3, b3=p.b3)


def build_constant_model(value: float) -> MlpParams:
    """Network whose output is a constant, independent of the input."""
    vals = {n: np.zeros(_SHAPES[n]) for n in _SHAPES}
    vals["b3"] = np.array([float(value)])
    return MlpParams(**vals)


def kasa_radius(points) -> float:
    """Independent algebraic circle fit used as a test oracle."""
    pts = np.asarray(points, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    A = np.column_stack([2.0 * x, 2.0 * y, np.ones_like(x)])
    sol, *_ = np.linalg.lstsq(A, x * x + y * y, rcond=None)
    a, b, k = sol
    return float(np.sqrt(k + a * a + b * b))


# --- scalar geometry: one pose at a time, the reference for drift_eval --------

def point_rect_signed_distance(point, rect: Rect) -> float:
    """Signed distance from a point to a rectangle (negative inside)."""
    q = rect.to_local(point)
    dx = abs(q[0]) - rect.w / 2.0
    dy = abs(q[1]) - rect.h / 2.0
    outside = math.hypot(max(dx, 0.0), max(dy, 0.0))
    inside = min(max(dx, dy), 0.0)
    return outside + inside


def _point_segment_distance(p, a, b) -> float:
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.hypot(*(p - a)))
    t = float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    closest = a + t * ab
    return float(np.hypot(*(p - closest)))


def rect_rect_signed_distance(a: Rect, b: Rect) -> float:
    """Signed distance between oriented rectangles.

    Negative while overlapping (minus the separating-axis penetration
    depth); when disjoint, the exact minimum distance between boundaries.
    """
    ca, cb = a.corners(), b.corners()
    axes = []
    for ang in (a.angle, b.angle):
        axes.append(np.array([math.cos(ang), math.sin(ang)]))
        axes.append(np.array([-math.sin(ang), math.cos(ang)]))
    gaps = []
    for axis in axes:
        pa, pb = ca @ axis, cb @ axis
        gaps.append(max(pa.min() - pb.max(), pb.min() - pa.max()))
    max_gap = max(gaps)
    if max_gap <= 0.0:
        return max_gap  # overlapping: minus the smallest penetration depth
    best = math.inf
    for pts, poly in ((ca, cb), (cb, ca)):
        for p in pts:
            for i in range(4):
                d = _point_segment_distance(p, poly[i], poly[(i + 1) % 4])
                best = min(best, d)
    return best


def segments_intersect(p1, p2, q1, q2) -> bool:
    def orient(o, a, b):
        v = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
        return int(v > 0) - int(v < 0)

    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    if d1 != d2 and d3 != d4:
        return True

    def on_seg(a, b, p):
        return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
                and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))

    if d1 == 0 and on_seg(q1, q2, p1):
        return True
    if d2 == 0 and on_seg(q1, q2, p2):
        return True
    if d3 == 0 and on_seg(p1, p2, q1):
        return True
    if d4 == 0 and on_seg(p1, p2, q2):
        return True
    return False


@pytest.fixture
def identity_model() -> MlpParams:
    return build_identity_model()
