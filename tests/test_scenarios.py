"""Canned sweep scripts, the drift command buffer, gate layouts."""

import math

import pytest

from ikdlab.errors import ValidationError
from ikdlab.evalkit import CAR_WIDTH
from ikdlab.replay import DEFAULT_REPLAY_RATE
from ikdlab.scenarios import (BOX_SIZE, DRIFT_APPROACH, DRIFT_EXIT, DRIFT_TURN,
                              GATE_CONE, LOOSE_GAP, LOW_BOOST, LOW_CURVATURE,
                              SWEEP_CURVATURES, SWEEP_SPEEDS, TIGHT_GAP, drift_buffer,
                              loose_scenario, tight_scenario, training_sweep_script,
                              sweep_duration)
from ikdlab.simcore import AV_LIMIT

from conftest import point_rect_signed_distance


# --- training sweep ----------------------------------------------------------

def test_sweep_visits_each_feasible_pair_twice():
    script = training_sweep_script()
    per_speed = {v: sum(1 for c in SWEEP_CURVATURES if abs(v * c) <= AV_LIMIT)
                 for v in SWEEP_SPEEDS}
    assert per_speed[4.0] == 32     # 1.05, 1.1, 1.15 are infeasible at 4 m/s
    assert per_speed[1.0] == 35
    assert len(script.segments) == 2 * sum(per_speed.values())
    assert all(abs(s.v * s.c) <= AV_LIMIT + 1e-12 for s in script.segments)


def test_sweep_curvature_walk_is_unimodal_per_speed():
    script = training_sweep_script()
    for v in SWEEP_SPEEDS:
        cs = [s.c for s in script.segments if s.v == v]
        half = len(cs) // 2
        assert all(c > 0 for c in cs[:half])
        assert all(c < 0 for c in cs[half:])
        mags = [abs(c) for c in cs]
        assert mags[:half] == sorted(mags[:half])
        assert mags[half:] == sorted(mags[half:], reverse=True)
        # the magnitude walk turns around exactly once
        assert mags[half - 1] == mags[half] == max(mags)


def test_sweep_dwell_boost_applies_to_low_curvature():
    dwell = 1.5
    script = training_sweep_script(dwell=dwell)
    segs = script.segments
    for i in range(len(segs) - 1):
        gap = segs[i + 1].t_start - segs[i].t_start
        want = dwell * (LOW_BOOST if abs(segs[i].c) <= LOW_CURVATURE else 1.0)
        assert gap == pytest.approx(want, abs=1e-12)


def test_sweep_duration_adds_the_last_dwell():
    dwell = 2.0
    script = training_sweep_script(dwell=dwell)
    dur = sweep_duration(script, dwell=dwell)
    # last segment is -0.05, inside the boosted band
    assert script.segments[-1].c == -0.05
    assert dur == pytest.approx(script.segments[-1].t_start + 2.0 * dwell)


def test_sweep_validation():
    with pytest.raises(ValidationError):
        training_sweep_script(dwell=0.0)
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="dwell must be positive and finite"):
            training_sweep_script(dwell=value)
    with pytest.raises(ValidationError):
        training_sweep_script(speeds=(100.0,))   # 100 * 0.05 is past AV_LIMIT


def test_sweep_accepts_custom_grids():
    script = training_sweep_script(dwell=1.0, speeds=(4.0,))
    mags = list(SWEEP_CURVATURES[:-3])   # 4 * 1.05, 1.1 and 1.15 are past AV_LIMIT
    assert mags == sorted(mags) and 4.0 * mags[-1] == AV_LIMIT
    assert [(s.v, s.c) for s in script.segments] == [
        (4.0, c) for c in mags + [-c for c in reversed(mags)]]
    segs = script.segments
    assert segs[0].t_start == 0.0
    # LOW_BOOST (2) times the 1 s dwell on the 16 segments each way at |c| <= 0.25
    assert [b.t_start - a.t_start for a, b in zip(segs, segs[1:])] == [
        2.0 if abs(a.c) <= 0.25 else 1.0 for a in segs[:-1]]
    assert sum(abs(a.c) <= 0.25 for a in segs) == 32


# --- drift commands ----------------------------------------------------------

def test_drift_buffer_layout():
    buf = drift_buffer()
    assert len(buf) == 90   # (1.5 + 2.0 + 1.0) s at 20 Hz
    rows = buf.rows.tolist()
    assert rows[:30] == [[2.0, 0.0]] * 30
    assert rows[30:70] == [[3.0, pytest.approx(2.4)]] * 40
    assert rows[70:] == [[2.0, 0.0]] * 20


def test_drift_turn_is_counter_clockwise_and_aggressive():
    v, c, _ = DRIFT_TURN
    assert v * c > 0            # positive yaw rate: counter-clockwise
    assert v * c == pytest.approx(2.4)
    assert DRIFT_APPROACH[1] == 0.0 and DRIFT_EXIT[1] == 0.0


def test_drift_duration_matches_segments():
    # the CLI replays the buffer for len(buf) / rate seconds: exactly 4.5 s
    duration = len(drift_buffer()) / DEFAULT_REPLAY_RATE
    assert duration == DRIFT_APPROACH[2] + DRIFT_TURN[2] + DRIFT_EXIT[2] == 4.5


# --- gate layouts ------------------------------------------------------------

def test_gate_width_constants():
    assert LOOSE_GAP == 2.13
    assert TIGHT_GAP == 0.81
    assert TIGHT_GAP > CAR_WIDTH


def test_loose_scenario_geometry():
    sc = loose_scenario()
    assert sc.gap_width == LOOSE_GAP
    assert len(sc.boxes) == 1 and len(sc.cones) == 1
    assert sc.cones[0] == GATE_CONE
    box = sc.boxes[0]
    assert (box.w, box.h) == (BOX_SIZE, BOX_SIZE)
    # the cone-to-box-face distance is the advertised gap
    assert point_rect_signed_distance(GATE_CONE, box) == pytest.approx(
        LOOSE_GAP, abs=1e-12)


def test_tight_scenario_shares_the_gate_position():
    loose, tight = loose_scenario(), tight_scenario()
    assert tight.gap_width == TIGHT_GAP
    assert tight.cones == loose.cones
    assert point_rect_signed_distance(GATE_CONE, tight.boxes[0]) == pytest.approx(
        TIGHT_GAP, abs=1e-12)
    # same direction: both boxes sit radially outward along +x from the cone
    assert tight.boxes[0].cy == loose.boxes[0].cy == GATE_CONE[1]
    assert tight.boxes[0].cx < loose.boxes[0].cx
