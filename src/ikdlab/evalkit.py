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
_EPS = float(np.finfo(float).eps)


def fit_circle(points) -> tuple[tuple[float, float], float]:
    """Algebraic (Kåsa) least-squares circle fit, exact on noiseless circular data.

    The least-squares solution of [2p, 2q, 1] . [a, b, k] = p^2 + q^2, in
    closed form.  (p, q) are the points about their centroid, turned to their
    principal axes (p along the major axis), so that the centroid's sums
    vanish: k = mean(p^2 + q^2), and (a, b) solves the 2x2 normal equations
    [[Spp, Spq], [Spq, Sqq]] . [a, b] = [Sp(p^2 + q^2), Sq(p^2 + q^2)] / 2.
    The center is (a, b) turned back and moved by the centroid, the radius
    sqrt(k + a^2 + b^2).  Every sum is a pairwise ``np.add.reduce``, and no
    step calls BLAS or LAPACK, so the bits do not depend on the BLAS kernel.

    The points are collinear or otherwise degenerate when their scatter
    across the major axis is at most (n eps)^2 of the scatter along it,
    Sqq <= (n eps)^2 Spp, both direct sums of squares: lstsq's rank rule on
    the centred points' singular values sqrt(Spp) and sqrt(Sqq).  (The 2x2
    determinant cancels on near-collinear points and cannot decide it.)

    Returns:
        ((cx, cy), radius)
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise FitError("need at least 3 (x, y) points")
    if not np.all(np.isfinite(pts)):
        raise FitError("points must be finite")
    n = pts.shape[0]
    total = np.add.reduce
    x, y = pts[:, 0], pts[:, 1]
    x0, y0 = total(x) / n, total(y) / n
    u, v = x - x0, y - y0
    turn = 0.5 * math.atan2(2.0 * total(u * v), total(u * u) - total(v * v))
    ct, st = math.cos(turn), math.sin(turn)
    p, q = ct * u + st * v, ct * v - st * u
    pp, qq = p * p, q * q
    spp, sqq, spq = total(pp), total(qq), total(p * q)
    if not sqq > (n * _EPS) ** 2 * spp:
        raise FitError("points are collinear or otherwise degenerate")
    z = pp + qq
    spz, sqz = total(p * z), total(q * z)
    det = 2.0 * (spp * sqq - spq * spq)
    a, b = (spz * sqq - sqz * spq) / det, (sqz * spp - spz * spq) / det
    r_sq = total(z) / n + a * a + b * b
    if r_sq <= 0 or not np.isfinite(r_sq):
        raise FitError("fit produced a non-positive radius")
    return (float(x0 + ct * a - st * b), float(y0 + st * a + ct * b)), float(np.sqrt(r_sq))


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
    # full circles after the lag transient.  The estimate is floored at
    # 0.1 rad/s, so a slower turn runs for the floor's duration and covers
    # only part of a circle.
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
    k0 = np.searchsorted(trace.times(), TRANSIENT_MULT * p.lag_tau)
    _, r_fit = fit_circle(np.column_stack((trace.x[k0:], trace.y[k0:])))
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
        """The four corners as (x, y) rows, in boundary order from (-w/2, -h/2)."""
        return np.hstack(_corners(*_frame(self)))


def _frame(rect: Rect):
    """``rect`` as (cx, cy, cos, sin, half width, half height), _corners' arguments."""
    return (rect.cx, rect.cy, math.cos(rect.angle), math.sin(rect.angle),
            rect.w / 2.0, rect.h / 2.0)


def _corners(cx, cy, ca, sa, hw, hh):
    """x and y of the corners, corner-major (4, ...) in boundary order from
    (-hw, -hh), of the rectangles centred at (cx, cy), turned by the angle of
    cosine ca and sine sa, with half extents hw, hh (numbers)."""
    lx = np.array([[-hw], [hw], [hw], [-hw]])
    ly = np.array([[-hh], [-hh], [hh], [hh]])
    return lx * ca - ly * sa + cx, lx * sa + ly * ca + cy


def _in_frame(px, py, cx, cy, ca, sa):
    """The points (px, py) in the frame of the rectangle centred at (cx, cy),
    turned by (ca, sa): x along its width, y along its height."""
    px, py = px - cx, py - cy
    return ca * px + sa * py, -sa * px + ca * py


def _rect_distance(qx, qy, hw, hh) -> np.ndarray:
    """Signed distance of points (qx, qy) in a rectangle's frame to it; negative inside."""
    dx, dy = np.abs(qx) - hw, np.abs(qy) - hh
    return (np.hypot(np.maximum(dx, 0.0), np.maximum(dy, 0.0))
            + np.minimum(np.maximum(dx, dy), 0.0))


def _axis_gap(qx, qy, hw, hh) -> np.ndarray:
    """Largest gap along a rectangle's axes to each corner set (qx, qy) in its frame."""
    return np.maximum(np.maximum(qx.min(axis=0), -qx.max(axis=0)) - hw,
                      np.maximum(qy.min(axis=0), -qy.max(axis=0)) - hh)


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
    cone = scenario.cones[0]
    cx, cy, ca, sa, hw, hh = _frame(scenario.boxes[0])
    qx, qy = _in_frame(*cone, cx, cy, ca, sa)
    # (qx, qy) clipped to the box is its nearest point, placed as corner 2
    x, y = _corners(cx, cy, ca, sa, np.clip(qx, -hw, hw), np.clip(qy, -hh, hh))
    return np.array(cone), np.array([x[2, 0], y[2, 0]])


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
    segment without ever colliding.  Every state is scored at once, in
    rectangle frames, corners corner-major, shape (4, n).  A cone's signed
    distance is its distance, in the car's frame, to the car rectangle
    (negative inside).  A box is scored from the car's corners in its frame
    and its corners in the car's: each frame's two axes give separating-axis
    gaps, and each corner its distance to the other rectangle.  If any state
    overlaps the box, the box scores each state's largest gap (in an overlap,
    minus the smallest penetration), else the smallest corner distance: the
    nearest points of two disjoint convex polygons include a corner of one.
    """
    ca, sa = np.cos(trace.heading), np.sin(trace.heading)
    hw, hh = scenario.car_length / 2.0, scenario.car_width / 2.0
    car_x, car_y = _corners(trace.x, trace.y, ca, sa, hw, hh)

    min_clearance = math.inf
    for box in scenario.boxes:
        cx, cy, cb, sb, bw, bh = frame = _frame(box)
        in_box = _in_frame(car_x, car_y, cx, cy, cb, sb)
        in_car = _in_frame(*_corners(*frame), trace.x, trace.y, ca, sa)
        d = np.maximum(_axis_gap(*in_box, bw, bh), _axis_gap(*in_car, hw, hh))
        if d.min() > 0.0:  # disjoint in every state: the exact distances
            d = np.minimum(_rect_distance(*in_box, bw, bh).min(axis=0),
                           _rect_distance(*in_car, hw, hh).min(axis=0))
        min_clearance = min(min_clearance, float(d.min()))
    for cone in scenario.cones:
        d = _rect_distance(*_in_frame(*cone, trace.x, trace.y, ca, sa), hw, hh)
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
