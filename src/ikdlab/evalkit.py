"""Quantitative evaluation of executed trajectories.

Circle tests fit the steady-state trajectory with an algebraic circle fit
and compare measured curvature against the commanded one; drift scenarios
score obstacle clearance, collisions, gate passage, and the tightest turn
radius along the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (FitError, ValidationError, blamed, check_within, finite_number,
                     json_fields)
from .fileio import read_json, write_table
from .ikd import correct
from .mlp import MlpParams
from .simcore import (COURSE_DOMAIN, CURVATURE_DOMAIN, SPEED_DOMAIN, ControlScript,
                      SimTrace, SlipParams, _check_commands, run_scenario, slip_yaw_rate)

CAR_WIDTH = 0.48            # m
DEFAULT_CAR_LENGTH = 0.5    # m
TURN_AV_FLOOR = 0.5         # rad/s, samples below this are not "turning"
TRANSIENT_MULT = 5.0        # discard the first TRANSIENT_MULT*lag_tau seconds
MIN_REVOLUTIONS = 2.0       # full circles required after the transient
PRUNE_SLACK = 1e-9          # m, above the gap's rounding error at course scale


def fit_circle(points) -> tuple[tuple[float, float], float]:
    """Algebraic least-squares circle fit (exact on noiseless circular data).

    Solves [2x, 2y, 1] . [a, b, k] = x^2 + y^2 for center (a, b) and
    radius sqrt(k + a^2 + b^2).

    Returns:
        ((cx, cy), radius)
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise FitError("need at least 3 (x, y) points")
    if not np.all(np.isfinite(pts)):
        raise FitError("points must be finite")
    x, y = pts[:, 0], pts[:, 1]
    A = np.column_stack([2.0 * x, 2.0 * y, np.ones_like(x)])
    rhs = x * x + y * y
    sol, _, rank, _ = np.linalg.lstsq(A, rhs, rcond=None)
    if rank < 3:
        raise FitError("points are collinear or otherwise degenerate")
    a, b, k = sol
    r_sq = k + a * a + b * b
    if r_sq <= 0 or not np.isfinite(r_sq):
        raise FitError("fit produced a non-positive radius")
    return (float(a), float(b)), float(np.sqrt(r_sq))


@dataclass(frozen=True)
class CircleReport:
    """Measured vs commanded curvature for one constant-command run."""

    c_commanded: float
    r_fit: float
    ikd_enabled: bool

    @property
    def c_measured(self) -> float:
        return 1.0 / self.r_fit

    @property
    def deviation_pct(self) -> float:
        """|measured - |commanded|| as a percentage of |commanded|."""
        return 100.0 * abs(self.c_measured - abs(self.c_commanded)) / abs(self.c_commanded)


def circle_trace(v: float, c: float, p: SlipParams,
                 model: MlpParams | None = None) -> SimTrace:
    """Run the constant-command scenario used by circle_test.

    (v, c) is checked as a command before it is corrected or simulated:
    each within its domain, |v*c| within the actuator limit, and neither
    zero.  The trace's one command row holds the curvature actually
    commanded, ``command_c[0]`` (the corrected one when a model is supplied).
    """
    check_within(("v", v, SPEED_DOMAIN), ("c", c, CURVATURE_DOMAIN))
    _check_commands(np.array([v]), np.array([c]))
    if v == 0 or c == 0:
        raise ValidationError("circle test needs a nonzero speed and curvature")
    c_cmd = correct(model, v, c).c_corrected if model is not None else c
    # Steady-state yaw rate estimate sizes the run to >= MIN_REVOLUTIONS
    # full circles after the lag transient.
    av_ss = abs(slip_yaw_rate(v * c_cmd, v, p.beta))
    av_ss = max(av_ss, 0.1)
    transient = TRANSIENT_MULT * p.lag_tau
    duration = transient + (MIN_REVOLUTIONS + 0.2) * (2.0 * math.pi / av_ss)
    return run_scenario(ControlScript.constant(v, c_cmd), p, duration)


def circle_test(v: float, c: float, p: SlipParams,
                model: MlpParams | None = None,
                trace: SimTrace | None = None) -> CircleReport:
    """Drive a constant (v, c) command, fit the settled trajectory, report.

    The first TRANSIENT_MULT*lag_tau seconds are discarded before fitting.
    A caller that already holds the run, ``circle_trace(v, c, p, model)``
    (to plot it, say), passes it as ``trace`` instead of simulating it again.
    """
    if trace is None:
        trace = circle_trace(v, c, p, model)
    t = trace.times()
    keep = t >= TRANSIENT_MULT * p.lag_tau
    _, r_fit = fit_circle(trace.xy()[keep])
    return CircleReport(c_commanded=c, r_fit=r_fit, ikd_enabled=model is not None)


@dataclass(frozen=True)
class Rect:
    """Oriented rectangle: center, full extents, rotation angle (rad)."""

    cx: float
    cy: float
    w: float
    h: float
    angle: float = 0.0

    def __post_init__(self):
        check_within(*((k, getattr(self, k), COURSE_DOMAIN) for k in ("cx", "cy", "w", "h")))
        if self.w <= 0 or self.h <= 0:
            raise ValidationError("rectangle extents must be positive")

    def corners(self) -> np.ndarray:
        ca, sa = math.cos(self.angle), math.sin(self.angle)
        hw, hh = self.w / 2.0, self.h / 2.0
        local = np.array([(-hw, -hh), (hw, -hh), (hw, hh), (-hw, hh)])
        rot = np.array([(ca, -sa), (sa, ca)])
        return local @ rot.T + np.array([self.cx, self.cy])

    def to_local(self, point) -> np.ndarray:
        ca, sa = math.cos(self.angle), math.sin(self.angle)
        px = point[0] - self.cx
        py = point[1] - self.cy
        return np.array([ca * px + sa * py, -sa * px + ca * py])


@dataclass(frozen=True)
class DriftScenario:
    """Obstacle course: box obstacles, cone markers, and the gate width."""

    boxes: tuple
    cones: tuple
    gap_width: float
    car_width: float = CAR_WIDTH
    car_length: float = DEFAULT_CAR_LENGTH

    def __post_init__(self):
        object.__setattr__(self, "boxes", tuple(self.boxes))
        object.__setattr__(self, "cones",
                           tuple((float(x), float(y)) for x, y in self.cones))
        check_within(*((key, getattr(self, key), COURSE_DOMAIN)
                       for key in ("gap_width", "car_width", "car_length")))
        x, y = np.array(self.cones).reshape(-1, 2).T
        check_within(("x", x, COURSE_DOMAIN), ("y", y, COURSE_DOMAIN))
        if self.gap_width < self.car_width:
            raise ValidationError(
                f"gap {self.gap_width} m narrower than the car ({self.car_width} m)")
        if self.car_length <= 0:
            raise ValidationError("car_length must be positive")

    @classmethod
    def from_json(cls, path: str) -> "DriftScenario":
        """Read ``{"boxes": [{"cx", "cy", "w", "h", "angle"?}, ...],
        "cones": [[x, y], ...], "gap_width", "car_width"?, "car_length"?}``."""
        raw = json_fields(path, read_json(path), ("boxes", "cones", "gap_width"),
                          ("car_width", "car_length"))
        boxes, cones = raw.pop("boxes"), raw.pop("cones")
        for key, items in (("boxes", boxes), ("cones", cones)):
            if not isinstance(items, list):
                raise ValidationError(f"{path}: {key} must be a list, got {items!r}")
        for i, box in enumerate(boxes):
            where = f"{path}: boxes[{i}]"
            box = json_fields(where, box, ("cx", "cy", "w", "h"), ("angle",))
            box = {k: finite_number(where, k, v) for k, v in box.items()}
            with blamed(lambda exc: where):
                boxes[i] = Rect(**box)
        for i, cone in enumerate(cones):
            where = f"{path}: cones[{i}]"
            if not isinstance(cone, list) or len(cone) != 2:
                raise ValidationError(f"{where}: must be an [x, y] pair, got {cone!r}")
            cones[i] = [finite_number(where, k, v) for k, v in zip("xy", cone)]
        sizes = {k: finite_number(path, k, v) for k, v in raw.items()}
        with blamed(lambda exc: path if exc.row is None else f"{path}: cones[{exc.row}]"):
            return cls(boxes=boxes, cones=cones, **sizes)


@dataclass(frozen=True)
class ClearanceReport:
    """Collision/clearance outcome of one trace against one scenario.

    ``collided`` is ``min_clearance < 0``; it is a field so that
    ``asdict`` writes it to drift_report.json."""

    min_clearance: float
    collided: bool
    min_turn_radius: float
    cleared_gate: bool


def _gate_segment(scenario: DriftScenario):
    """Gate to thread: from the first cone to the nearest point on the first box."""
    if not scenario.cones or not scenario.boxes:
        return None
    cone = np.array(scenario.cones[0])
    box = scenario.boxes[0]
    q = box.to_local(cone)
    q[0] = np.clip(q[0], -box.w / 2.0, box.w / 2.0)
    q[1] = np.clip(q[1], -box.h / 2.0, box.h / 2.0)
    ca, sa = math.cos(box.angle), math.sin(box.angle)
    nearest = np.array([box.cx + ca * q[0] - sa * q[1],
                        box.cy + sa * q[0] + ca * q[1]])
    return cone, nearest


def _lowest(p) -> np.ndarray:
    """Smallest of the four corner rows of p, taken in corner order."""
    return np.minimum(np.minimum(np.minimum(p[0], p[1]), p[2]), p[3])


def _highest(p) -> np.ndarray:
    """Largest of the four corner rows of p, taken in corner order."""
    return np.maximum(np.maximum(np.maximum(p[0], p[1]), p[2]), p[3])


def _sat_gap(ax, ay, bx, by, axes) -> np.ndarray:
    """Largest separating-axis gap between the corner sets a and b.

    Corner coordinates are corner-major, shape (4, ...): one row per
    corner.  Each axis is a pair of unit vector components broadcastable
    against a row.
    """
    gap = -math.inf
    for ux, uy in axes:
        pa = ax * ux + ay * uy
        pb = bx * ux + by * uy
        gap = np.maximum(gap, np.maximum(_lowest(pa) - _highest(pb),
                                         _lowest(pb) - _highest(pa)))
    return gap


_NEXT_CORNER = np.array([1, 2, 3, 0])   # corner j's edge runs to corner j + 1 mod 4


def _corner_edge_distance(px, py, qx, qy) -> np.ndarray:
    """Smallest distance from the corners p to the edges of the rectangle q.

    Corner coordinates are corner-major, shape (4, m), q's corners in
    boundary order.  The distances of every corner to every edge are one
    (edge, corner, m) array.
    """
    ax, ay = qx[:, None], qy[:, None]
    abx, aby = qx[_NEXT_CORNER, None] - ax, qy[_NEXT_CORNER, None] - ay
    dx, dy = px - ax, py - ay
    t = np.clip((dx * abx + dy * aby) / (abx * abx + aby * aby), 0.0, 1.0)
    d = np.hypot(px - (ax + t * abx), py - (ay + t * aby))
    return d.min(axis=(0, 1))


def _box_distance(car_x, car_y, bx, by) -> np.ndarray:
    """Exact boundary-to-boundary distance between disjoint car and box corner
    sets: the nearer of corner-to-edge either way.

    The car's corners have shape (4, m), the box's (4, 1).  Both ways are
    one batch of 2m corner sets: the car's corners to the box's edges, then
    the box's corners to the car's edges.
    """
    m = car_x.shape[1]
    box_x, box_y = np.repeat(bx, m, axis=1), np.repeat(by, m, axis=1)
    d = _corner_edge_distance(np.concatenate((car_x, box_x), axis=1),
                              np.concatenate((car_y, box_y), axis=1),
                              np.concatenate((box_x, car_x), axis=1),
                              np.concatenate((box_y, car_y), axis=1))
    return np.minimum(d[:m], d[m:])


def _gate_crossed(x: np.ndarray, y: np.ndarray, g0, g1) -> bool:
    """Whether any segment between consecutive positions (x, y) meets the
    gate g0-g1.

    The orientation and collinear on-segment tests of a segment
    intersection, over all consecutive position pairs at once.  A
    position's tests against the gate are made once, for the segments
    that end and start there.
    """
    (gx0, gy0), (gx1, gy1) = g0, g1
    x1, y1, x2, y2 = x[:-1], y[:-1], x[1:], y[1:]

    def orient(ox, oy, ax, ay, bx, by):
        return np.sign((ax - ox) * (by - oy) - (ay - oy) * (bx - ox))

    def on_box(lo_x, hi_x, lo_y, hi_y, px, py):
        return (lo_x <= px) & (px <= hi_x) & (lo_y <= py) & (py <= hi_y)

    side = orient(gx0, gy0, gx1, gy1, x, y)
    on_gate = (side == 0) & on_box(np.minimum(gx0, gx1), np.maximum(gx0, gx1),
                                   np.minimum(gy0, gy1), np.maximum(gy0, gy1), x, y)
    d1, d2 = side[:-1], side[1:]
    d3, d4 = orient(x1, y1, x2, y2, gx0, gy0), orient(x1, y1, x2, y2, gx1, gy1)
    seg_box = (np.minimum(x1, x2), np.maximum(x1, x2),
               np.minimum(y1, y2), np.maximum(y1, y2))
    hit = (((d1 != d2) & (d3 != d4)) | on_gate[:-1] | on_gate[1:]
           | ((d3 == 0) & on_box(*seg_box, gx0, gy0))
           | ((d4 == 0) & on_box(*seg_box, gx1, gy1)))
    return bool(np.any(hit))


def drift_eval(trace: SimTrace, scenario: DriftScenario) -> ClearanceReport:
    """Sweep the oriented car rectangle along the trace and score it.

    min_clearance is the smallest signed distance from the car body to any
    obstacle; min_turn_radius is taken over samples with |yaw rate| above
    TURN_AV_FLOOR; cleared_gate requires crossing the cone-to-box gate
    segment without ever colliding.  Every state is scored at once: the
    car's corners, separating-axis gaps and corner-to-edge distances are
    arrays over the states.  The corners are corner-major, shape (4, n), so
    the smallest and largest corner of a projection are three elementwise
    minima or maxima of rows; every elementwise expression is the one the
    (n, 4) layout used, and minima and maxima are exact, so the layout
    changes no bit.  A box's signed distance is minus the smallest
    separating-axis penetration while overlapping and the exact
    boundary-to-boundary distance when disjoint; a cone's is the point's
    signed distance to the car rectangle (negative inside).

    Only the smallest distance per box is kept, so the exact distance is
    computed only for states that can hold it.  If any state overlaps a box
    (gap <= 0), the smallest gap is the box's minimum.  Otherwise the exact
    distance E of the smallest-gap state bounds the minimum, and only states
    whose gap is at most E + PRUNE_SLACK get an exact distance.  The result
    is bit for bit that of scoring every state: a state's exact distance does
    not depend on which states share its batch, and its gap never exceeds it
    (projecting onto a unit axis cannot lengthen a separation), up to
    rounding of about 1e-14 m at course scale, far below the slack.
    """
    ca, sa = np.cos(trace.heading), np.sin(trace.heading)
    hw, hh = scenario.car_length / 2.0, scenario.car_width / 2.0
    local_x = np.array([[-hw], [hw], [hw], [-hw]])
    local_y = np.array([[-hh], [-hh], [hh], [hh]])
    car_x = local_x * ca - local_y * sa + trace.x
    car_y = local_x * sa + local_y * ca + trace.y
    car_axes = ((ca, sa), (-sa, ca))

    min_clearance = math.inf
    for box in scenario.boxes:
        bx, by = box.corners().T[:, :, None]
        cb, sb = math.cos(box.angle), math.sin(box.angle)
        d = _sat_gap(car_x, car_y, bx, by, car_axes + ((cb, sb), (-sb, cb)))
        if d.min() > 0.0:  # disjoint in every state: exact distances near the minimum
            k = int(d.argmin())
            near = d <= _box_distance(car_x[:, k:k + 1], car_y[:, k:k + 1], bx, by) \
                + PRUNE_SLACK
            near[k] = True  # far from the origin the gap's rounding can pass the slack
            d = _box_distance(car_x[:, near], car_y[:, near], bx, by)
        min_clearance = min(min_clearance, float(d.min()))
    for cone_x, cone_y in scenario.cones:
        px, py = cone_x - trace.x, cone_y - trace.y
        dx = np.abs(ca * px + sa * py) - hw
        dy = np.abs(-sa * px + ca * py) - hh
        d = (np.hypot(np.maximum(dx, 0.0), np.maximum(dy, 0.0))
             + np.minimum(np.maximum(dx, dy), 0.0))
        min_clearance = min(min_clearance, float(d.min()))
    collided = bool(min_clearance < 0.0)

    turning = np.abs(trace.av) > TURN_AV_FLOOR
    min_turn_radius = math.inf
    if np.any(turning):
        min_turn_radius = float(np.min(np.abs(trace.v[turning])
                                       / np.abs(trace.av[turning])))

    gate = _gate_segment(scenario)
    crossed = gate is not None and _gate_crossed(trace.x, trace.y, *gate)
    cleared_gate = bool(crossed and not collided)

    return ClearanceReport(min_clearance=float(min_clearance), collided=collided,
                           min_turn_radius=min_turn_radius,
                           cleared_gate=cleared_gate)


_CIRCLE_HEADER = "c_commanded,r_fit,c_measured,deviation_pct,ikd_enabled"
_COMPARE_HEADER = "commanded_c,executed_c,ikd_c,deviation_pct"


def emit_report(reports, path: str) -> None:
    """Write CircleReports as CSV, one row per report (header-only if empty)."""
    cols = np.asarray([(r.c_commanded, r.r_fit, r.c_measured, r.deviation_pct,
                        r.ikd_enabled) for r in reports], dtype=float).reshape(-1, 5).T
    write_table(path, _CIRCLE_HEADER, (*cols[:4], cols[4].astype(int)))


def write_comparison_csv(rows, path: str) -> None:
    """Paired-run table: (commanded_c, executed_c, ikd_c, deviation_pct) rows."""
    write_table(path, _COMPARE_HEADER, np.asarray(rows, dtype=float).reshape(-1, 4).T)
