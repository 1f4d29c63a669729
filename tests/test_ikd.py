"""Command correction: conversions, clamping, failure modes."""

import json
import math

import numpy as np
import pytest

from ikdlab.errors import InferenceError, ValidationError
from ikdlab.ikd import (AV_LIMIT, EPS_V, CorrectionResult, av_from_vc,
                        c_from_av_v, correct)
from ikdlab.mlp import MlpParams

from conftest import build_constant_model, build_gain_model, build_identity_model


# --- conversions -------------------------------------------------------------

def test_av_from_vc_is_product():
    assert av_from_vc(2.0, 0.7) == 1.4
    assert av_from_vc(3.0, -0.5) == -1.5
    assert av_from_vc(0.0, 0.9) == 0.0


def test_c_from_av_v_inverts_product():
    assert c_from_av_v(1.4, 2.0) == pytest.approx(0.7)
    assert c_from_av_v(-1.5, 3.0) == pytest.approx(-0.5)


def test_c_from_av_v_guards_low_speed():
    assert c_from_av_v(1.0, 0.0) == 0.0
    assert c_from_av_v(1.0, 0.04) == 0.0
    assert c_from_av_v(1.0, -0.04) == 0.0
    assert c_from_av_v(1.0, 0.05) == pytest.approx(20.0)
    assert c_from_av_v(1.0, 0.2, eps_v=0.3) == 0.0


def test_conversion_round_trip_away_from_guard():
    rng = np.random.default_rng(7)
    for _ in range(100):
        v = rng.uniform(0.1, 4.2)
        c = rng.uniform(-2.0, 2.0)
        assert c_from_av_v(av_from_vc(v, c), v) == pytest.approx(c, rel=1e-12)


def test_conversions_reject_non_finite():
    with pytest.raises(ValidationError):
        av_from_vc(float("nan"), 1.0)
    with pytest.raises(ValidationError):
        c_from_av_v(float("inf"), 1.0)


# --- correct -----------------------------------------------------------------

def test_identity_model_passes_command_through():
    result = correct(build_identity_model(), 2.0, 0.7)
    assert result.av_desired == 1.4
    assert result.av_corrected == 1.4
    assert result.c_corrected == pytest.approx(0.7)
    assert not result.clamped
    assert result.v == 2.0


def test_gain_model_overcorrects_curvature():
    # A plant that understeers by 20% needs a model that asks for 1.25x.
    result = correct(build_gain_model(1.25), 2.0, 0.8)
    assert result.av_corrected == pytest.approx(2.0)
    assert result.c_corrected == pytest.approx(1.0)
    assert not result.clamped


def test_correction_clamps_to_actuator_range():
    result = correct(build_constant_model(9.0), 2.0, 0.5)
    assert result.av_corrected == AV_LIMIT
    assert result.clamped
    assert result.c_corrected == pytest.approx(AV_LIMIT / 2.0)
    low = correct(build_constant_model(-9.0), 2.0, 0.5)
    assert low.av_corrected == -AV_LIMIT
    assert low.clamped


def test_output_exactly_at_limit_is_not_clamped():
    result = correct(build_constant_model(AV_LIMIT), 1.0, 0.1)
    assert result.av_corrected == AV_LIMIT
    assert not result.clamped


def test_low_speed_query_yields_zero_curvature():
    result = correct(build_constant_model(1.0), 0.01, 0.5)
    assert result.c_corrected == 0.0
    assert result.av_corrected == 1.0
    assert EPS_V == 0.05


def test_speed_guard_has_one_home():
    from ikdlab import align, ikd, replay, simcore
    assert align.EPS_V is ikd.EPS_V is replay.EPS_V is simcore.EPS_V


def test_non_finite_model_output_raises():
    vals = {"W1": np.zeros((32, 2)), "b1": np.zeros(32),
            "W2": np.zeros((32, 32)), "b2": np.zeros(32),
            "W3": np.zeros((1, 32)), "b3": np.zeros(1)}
    vals["W1"][0, 0] = 1e308
    vals["W2"][0, 0] = 1e308
    vals["W3"][0, 0] = 1e308
    huge = MlpParams(**vals)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InferenceError):
            correct(huge, 4.0, 0.9)


def test_result_serialization_round_trip():
    result = correct(build_identity_model(), 2.0, 0.7)
    data = json.loads(result.to_json())
    assert data == result.to_dict()
    assert set(data) == {"v", "av_desired", "av_corrected", "c_corrected",
                         "clamped"}
    assert data["clamped"] is False


def test_correction_query_point_is_v_times_c():
    """The model must be asked for the desired yaw rate at this speed, not
    the raw curvature."""
    gain = build_gain_model(1.0)
    for v, c in ((1.0, 0.3), (3.0, 0.3), (4.0, -0.9)):
        result = correct(gain, v, c)
        assert result.av_desired == pytest.approx(v * c)
        assert result.av_corrected == pytest.approx(v * c, abs=1e-12)
