"""Circle fitting, circle tests, rectangle geometry, drift scoring."""

import math
from dataclasses import fields

import numpy as np
import pytest

from ikdlab import evalkit
from ikdlab.errors import FitError, ValidationError
from ikdlab.evalkit import (CAR_WIDTH, MIN_REVOLUTIONS, TRANSIENT_MULT,
                            CircleReport, DriftScenario,
                            Rect, circle_test, circle_trace, drift_eval,
                            emit_report, fit_circle, write_comparison_csv)
from ikdlab.fileio import read_table
from ikdlab.simcore import SimTrace, SlipParams

from conftest import (build_gain_model, kasa_radius, point_rect_signed_distance,
                      rect_rect_signed_distance, step_commands, write_dataclass_json,
                      zero_commands)


def circle_points(cx, cy, r, n=50, start=0.0, span=2 * math.pi):
    th = start + np.linspace(0.0, span, n, endpoint=False)
    return np.column_stack([cx + r * np.cos(th), cy + r * np.sin(th)])


# --- fit_circle --------------------------------------------------------------

def test_fit_recovers_exact_circle():
    pts = circle_points(0.3, -0.7, 1.49)
    (cx, cy), r = fit_circle(pts)
    assert cx == pytest.approx(0.3, abs=1e-9)
    assert cy == pytest.approx(-0.7, abs=1e-9)
    assert r == pytest.approx(1.49, abs=1e-9)


def test_fit_right_triangle_circumcircle():
    # Thales: the hypotenuse of (0,0),(2,0),(0,2) is a diameter, so the
    # circumcircle has center (1,1) and radius sqrt(2).
    (cx, cy), r = fit_circle([(0.0, 0.0), (2.0, 0.0), (0.0, 2.0)])
    assert (cx, cy) == pytest.approx((1.0, 1.0), abs=1e-9)
    assert r == pytest.approx(math.sqrt(2.0), abs=1e-9)


def test_fit_handles_partial_arcs():
    pts = circle_points(5.0, 2.0, 0.8, n=40, span=math.pi / 2)
    _, r = fit_circle(pts)
    assert r == pytest.approx(0.8, abs=1e-9)


def test_fit_under_noise_stays_within_half_percent():
    rng = np.random.default_rng(17)
    for _ in range(20):
        pts = circle_points(0.0, 0.0, 1.5, n=400)
        noisy = pts + rng.normal(0.0, 0.005, pts.shape)
        _, r = fit_circle(noisy)
        assert abs(r - 1.5) / 1.5 < 0.005


def test_fit_agrees_with_independent_solver():
    rng = np.random.default_rng(4)
    pts = circle_points(-1.0, 3.0, 2.2, n=60) + rng.normal(0, 0.01, (60, 2))
    _, r = fit_circle(pts)
    assert r == pytest.approx(kasa_radius(pts), rel=1e-12)


def test_fit_rejects_degenerate_input():
    with pytest.raises(FitError):
        fit_circle([(0.0, 0.0), (1.0, 1.0)])
    with pytest.raises(FitError):
        fit_circle([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])
    with pytest.raises(FitError):
        fit_circle([(0.0, 0.0), (1.0, float("nan")), (2.0, 0.0)])


# On the 1,000-point line y = 0.7x - 2 the 2x2 determinant keeps 3.7e-9 of
# rounding, far above (n eps)^2 Suu Svv: a determinant test would fit a circle
@pytest.mark.parametrize("slope, intercept", [(0.3, 1.0), (0.7, -2.0)])
@pytest.mark.parametrize("n", [4, 1000])
def test_fit_rejects_lines_collinear_up_to_rounding(slope, intercept, n):
    x = np.linspace(-3.0, 5.0, n)
    with pytest.raises(FitError, match="collinear or otherwise degenerate"):
        fit_circle(np.column_stack((x, slope * x + intercept)))


@pytest.mark.parametrize("points", [
    [(0.3, -1.7), (1.1, 2.9)] * 2,
    [(0.3, -1.7), (1.1, 2.9)] * 500,
    [(1.5, -2.5)] * 3,
    [(0.1, 0.7)] * 1000,
], ids=["two-points-twice", "two-points-500-times", "three-equal", "1000-equal"])
def test_fit_rejects_repeated_points(points):
    with pytest.raises(FitError, match="collinear or otherwise degenerate"):
        fit_circle(points)


# lstsq and the closed form both lose digits on the thinnest arcs: at v = 0.5,
# c = 1e-8 the run covers 69 m of a 1e8 m circle, and they agreed to 2.2e-12
# there and to 1.9e-15 at every c >= 1e-4
@pytest.mark.parametrize("v, c", [(v, c) for v in (0.5, 2.0, 4.0)
                                  for c in (1e-8, 1e-6, 1e-4, 0.12, 0.8, 3.0)
                                  if abs(v * c) <= 4.0])
def test_fit_of_settled_circle_tracks_matches_the_lstsq_oracle(v, c):
    p = SlipParams()
    trace = circle_trace(v, c, p)
    settled = trace.xy()[trace.times() >= TRANSIENT_MULT * p.lag_tau]
    _, r = fit_circle(settled)
    assert r == pytest.approx(kasa_radius(settled), rel=1e-13 if c >= 1e-4 else 1e-11,
                              abs=0.0)
    # circle_test fits exactly the settled samples
    assert circle_test(v, c, p, trace=trace).r_fit == r


def test_circle_report_derives_measured_curvature_and_deviation():
    assert [f.name for f in fields(CircleReport)] == ["c_commanded", "r_fit", "ikd_enabled"]
    rng = np.random.default_rng(12)
    for c, r in zip(rng.uniform(-3.0, 3.0, 50), rng.uniform(0.2, 20.0, 50)):
        report = CircleReport(c_commanded=float(c), r_fit=float(r), ikd_enabled=False)
        c_measured = 1.0 / r
        assert report.c_measured == c_measured
        assert report.deviation_pct == 100.0 * abs(c_measured - abs(c)) / abs(c)


# --- circle_test -------------------------------------------------------------

def test_circle_test_ideal_plant_tracks_commanded_curvature():
    # Discretization bounds the error: the sampled points lie on a circle of
    # radius (v*dt)/(2*sin(av*dt/2)), within 0.01% of 1/c for these rates.
    report = circle_test(2.0, 0.5, SlipParams.ideal())
    assert report.deviation_pct < 0.01
    assert not report.ikd_enabled
    assert report.c_commanded == 0.5


def test_circle_test_slip_plant_understeers():
    report = circle_test(2.0, 0.7, SlipParams())
    assert report.c_measured < 0.7
    assert report.deviation_pct > 4.0
    assert report.deviation_pct < 20.0


def test_circle_test_covers_two_revolutions_after_transient():
    p = SlipParams()
    trace = circle_trace(2.0, 0.5, p)
    t = trace.times()
    keep = t >= TRANSIENT_MULT * p.lag_tau
    headings = trace.heading[keep]
    swept = np.abs(np.unwrap(headings)[-1] - np.unwrap(headings)[0])
    assert swept >= MIN_REVOLUTIONS * 2.0 * math.pi


def test_circle_test_correction_model_changes_command():
    # A 1.25x gain model should overshoot an ideal plant by 25%.
    report = circle_test(2.0, 0.4, SlipParams.ideal(), build_gain_model(1.25))
    assert report.ikd_enabled
    assert report.c_measured == pytest.approx(0.5, rel=1e-3)
    trace = circle_trace(2.0, 0.4, SlipParams.ideal(), build_gain_model(1.25))
    cmd_c = step_commands(trace)[1]
    assert np.all(cmd_c == cmd_c[0])
    assert cmd_c[0] == pytest.approx(0.5, rel=1e-9)


def test_circle_test_rejects_zero_curvature():
    with pytest.raises(ValidationError):
        circle_test(2.0, 0.0, SlipParams())


@pytest.mark.parametrize("v, c, message, row", [
    (1e308, 0.5, "v must be within +-1000, got 1e+308", None),
    (2.0, float("nan"), "c must be within +-1000, got nan", None),
    (-1e300, 1e300, "v must be within +-1000, got -1e+300", None),
    (2.0, 2.1, "commanded angular velocity v*c=4.2000 outside [-4.0, 4.0]", 0),
    (0.0, 0.5, "circle test needs a nonzero speed and curvature", None),
    (2.0, 0.0, "circle test needs a nonzero speed and curvature", None),
], ids=["v", "c-nan", "both-past", "past-the-actuator", "zero-v", "zero-c"])
def test_circle_trace_checks_its_command_before_correcting_or_simulating(
        monkeypatch, v, c, message, row):
    def never(*args, **kwargs):
        raise AssertionError("reached past the command check")
    monkeypatch.setattr(evalkit, "correct", never)
    monkeypatch.setattr(evalkit, "run_scenario", never)
    with pytest.raises(ValidationError) as exc:
        circle_trace(v, c, SlipParams(), build_gain_model(1.25))
    assert (str(exc.value), exc.value.row) == (message, row)


# --- rectangle geometry ------------------------------------------------------

def test_rect_corners_axis_aligned():
    r = Rect(cx=1.0, cy=2.0, w=4.0, h=2.0)
    corners = sorted(map(tuple, r.corners()))
    assert corners == [(-1.0, 1.0), (-1.0, 3.0), (3.0, 1.0), (3.0, 3.0)]


def test_rect_corners_rotated_quarter_turn():
    r = Rect(cx=0.0, cy=0.0, w=4.0, h=2.0, angle=math.pi / 2)
    corners = sorted((round(x, 12), round(y, 12)) for x, y in r.corners())
    assert corners == [(-1.0, -2.0), (-1.0, 2.0), (1.0, -2.0), (1.0, 2.0)]


def test_rect_corners_are_the_elementwise_rotation_bit_for_bit():
    # No matrix product: corner bits must not depend on the BLAS kernel.
    rng = np.random.default_rng(2000)
    for _ in range(2000):
        cx, cy = rng.uniform(-50.0, 50.0, 2).tolist()
        w, h = rng.uniform(0.01, 10.0, 2).tolist()
        angle = float(rng.uniform(-math.pi, math.pi))
        ca, sa = math.cos(angle), math.sin(angle)
        want = [(lx * ca - ly * sa + cx, lx * sa + ly * ca + cy)
                for lx, ly in ((-w / 2, -h / 2), (w / 2, -h / 2), (w / 2, h / 2),
                               (-w / 2, h / 2))]
        got = Rect(cx=cx, cy=cy, w=w, h=h, angle=angle).corners()
        assert [(x.hex(), y.hex()) for x, y in got.tolist()] == \
            [(x.hex(), y.hex()) for x, y in want]


def test_rect_validation():
    with pytest.raises(ValidationError):
        Rect(cx=0.0, cy=0.0, w=0.0, h=1.0)


def test_point_rect_distance_cases():
    r = Rect(cx=0.0, cy=0.0, w=2.0, h=2.0)
    assert point_rect_signed_distance((0.0, 0.0), r) == -1.0
    assert point_rect_signed_distance((3.0, 0.0), r) == 2.0
    assert point_rect_signed_distance((1.0, 0.0), r) == 0.0
    assert point_rect_signed_distance((2.0, 2.0), r) == pytest.approx(math.sqrt(2.0))
    assert point_rect_signed_distance((0.0, 0.5), r) == -0.5


def test_rect_rect_distance_overlap_and_gap():
    a = Rect(cx=0.0, cy=0.0, w=1.0, h=1.0)
    assert rect_rect_signed_distance(
        a, Rect(cx=0.9, cy=0.0, w=1.0, h=1.0)) == pytest.approx(-0.1)
    assert rect_rect_signed_distance(
        a, Rect(cx=3.0, cy=0.0, w=1.0, h=1.0)) == pytest.approx(2.0)
    assert rect_rect_signed_distance(
        a, Rect(cx=1.0, cy=0.0, w=1.0, h=1.0)) == pytest.approx(0.0)
    # corner-to-corner diagonal separation: (0.5,0.5) to (1.5,1.5)
    assert rect_rect_signed_distance(
        a, Rect(cx=2.0, cy=2.0, w=1.0, h=1.0)) == pytest.approx(math.sqrt(2.0))


def test_rect_rect_distance_is_symmetric_and_rigid():
    rng = np.random.default_rng(23)
    for _ in range(50):
        a = Rect(cx=float(rng.uniform(-2, 2)), cy=float(rng.uniform(-2, 2)),
                 w=float(rng.uniform(0.3, 2)), h=float(rng.uniform(0.3, 2)),
                 angle=float(rng.uniform(0, math.tau)))
        b = Rect(cx=float(rng.uniform(-2, 2)), cy=float(rng.uniform(-2, 2)),
                 w=float(rng.uniform(0.3, 2)), h=float(rng.uniform(0.3, 2)),
                 angle=float(rng.uniform(0, math.tau)))
        d = rect_rect_signed_distance(a, b)
        assert rect_rect_signed_distance(b, a) == pytest.approx(d, abs=1e-12)
        # translate and rotate both rects by the same rigid motion
        phi = float(rng.uniform(0, math.tau))
        tx, ty = float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))
        cp, sp = math.cos(phi), math.sin(phi)

        def moved(r):
            return Rect(cx=cp * r.cx - sp * r.cy + tx,
                        cy=sp * r.cx + cp * r.cy + ty,
                        w=r.w, h=r.h, angle=r.angle + phi)

        assert rect_rect_signed_distance(moved(a), moved(b)) == pytest.approx(
            d, abs=1e-9)


def test_rotated_overlap_uses_separating_axes():
    # A diamond (square at 45 deg) whose tip pokes into an axis-aligned square.
    a = Rect(cx=0.0, cy=0.0, w=2.0, h=2.0)
    tip = Rect(cx=1.0 + math.sqrt(2.0) / 2, cy=0.0, w=1.0, h=1.0,
               angle=math.pi / 4)
    assert rect_rect_signed_distance(a, tip) == pytest.approx(0.0, abs=1e-12)
    poked = Rect(cx=1.0 + math.sqrt(2.0) / 2 - 0.05, cy=0.0, w=1.0, h=1.0,
                 angle=math.pi / 4)
    assert rect_rect_signed_distance(a, poked) < 0.0


# --- drift scenarios and scoring ----------------------------------------------

def gate_scenario() -> DriftScenario:
    # Cone at origin, box from x=2.0 to 3.0: a 2 m gate along the x axis.
    box = Rect(cx=2.5, cy=0.0, w=1.0, h=1.0)
    return DriftScenario(boxes=(box,), cones=((0.0, 0.0),), gap_width=2.0)


def straight_trace(y: float, length: float = 4.0, x0: float = -1.0,
                   heading: float = math.pi / 2) -> SimTrace:
    """Constant-speed straight line at x in [x0, x0+...], pointing +y."""
    n = 80
    i = np.arange(n + 1)
    return SimTrace(dt=0.05, x=np.full(n + 1, y), y=x0 + length * i / n,
                    heading=np.full(n + 1, heading), v=np.ones(n + 1),
                    av=np.zeros(n + 1), av_lag=np.zeros(n + 1),
                    **zero_commands(n + 1))


def test_scenario_validation_and_json(tmp_path):
    with pytest.raises(ValidationError):
        DriftScenario(boxes=(), cones=(), gap_width=0.3)
    with pytest.raises(ValidationError,
                       match=r"^car_length must be positive and finite, got 0\.0$"):
        DriftScenario(boxes=(), cones=(), gap_width=1.0, car_length=0.0)
    # a negative width once passed the gap check and scored a wider clearance
    for car_width, shown in ((0.0, r"0\.0"), (-0.5, r"-0\.5")):
        with pytest.raises(ValidationError,
                           match=rf"^car_width must be positive and finite, got {shown}$"):
            DriftScenario(boxes=(), cones=(), gap_width=2.0, car_width=car_width)
    sc = gate_scenario()
    path = str(tmp_path / "scenario.json")
    write_dataclass_json(path, sc)
    back = DriftScenario.from_json(path)
    assert back == sc


def test_gate_crossing_midway_counts_with_clearance():
    # Drive straight through the middle of the gate, perpendicular to it.
    sc = gate_scenario()
    trace = straight_trace(y=1.0)
    report = drift_eval(trace, sc)
    assert report.cleared_gate
    assert not report.collided
    # heading +y puts the car's 0.48 m width across the gate: clearance
    # 1.0 - 0.24 = 0.76 to the box face, and the same to the cone
    assert report.min_clearance == pytest.approx(0.76, abs=1e-9)
    assert report.min_turn_radius == math.inf


def test_missing_the_gate_does_not_clear_it():
    sc = gate_scenario()
    report = drift_eval(straight_trace(y=4.5), sc)
    assert not report.cleared_gate
    assert not report.collided


def test_driving_into_the_box_collides():
    sc = gate_scenario()
    report = drift_eval(straight_trace(y=2.5), sc)
    assert report.collided
    assert report.min_clearance < 0.0
    assert not report.cleared_gate  # crossing while colliding doesn't count


def test_clipping_the_cone_collides():
    sc = gate_scenario()
    report = drift_eval(straight_trace(y=0.1), sc)
    assert report.collided


def test_turn_radius_tracks_tightest_turning_sample():
    trace = SimTrace(dt=0.05, x=[0, 1, 2], y=[0, 0, 0], heading=[0, 0, 0],
                     v=[3.0, 2.0, 2.0], av=[2.0, 0.1, 4.0], av_lag=[2.0, 0.1, 4.0],
                     **zero_commands(3))
    report = drift_eval(trace, DriftScenario(boxes=(), cones=(), gap_width=1.0))
    # |av|=0.1 is below the turning floor; 2/4 beats 3/2
    assert report.min_turn_radius == pytest.approx(0.5)
    assert report.min_clearance == math.inf
    assert not report.cleared_gate


# --- report files ------------------------------------------------------------

CIRCLE_HEADER = "c_commanded,r_fit,c_measured,deviation_pct,ikd_enabled"


def test_circle_report_csv_round_trip(tmp_path):
    reports = [
        CircleReport(c_commanded=0.5, r_fit=2.0, ikd_enabled=False),
        CircleReport(c_commanded=0.7, r_fit=1.5873015873015872, ikd_enabled=True),
    ]
    path = str(tmp_path / "reports.csv")
    emit_report(reports, path)
    rows = read_table(path, CIRCLE_HEADER)
    columns = [(r.c_commanded, r.r_fit, r.c_measured, r.deviation_pct, r.ikd_enabled)
               for r in reports]
    assert rows.tobytes() == np.array(columns, dtype=float).tobytes()


def test_circle_report_csv_empty_is_header_only(tmp_path):
    path = str(tmp_path / "empty.csv")
    emit_report([], path)
    with open(path, "r", encoding="utf-8") as fh:
        assert fh.read() == CIRCLE_HEADER + "\n"
    assert read_table(path, CIRCLE_HEADER).shape == (0, 5)


def test_comparison_csv_layout(tmp_path):
    path = str(tmp_path / "compare.csv")
    write_comparison_csv([(0.5, 0.45, 0.49, 2.0)], path)
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "commanded_c,executed_c,ikd_c,deviation_pct"
    assert lines[1] == "0.5,0.45,0.49,2.0"


def test_car_width_constant():
    assert CAR_WIDTH == 0.48
