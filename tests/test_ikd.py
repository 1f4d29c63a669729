"""Command correction: conversions, clamping, failure modes."""

import json
import math

import numpy as np
import pytest

from ikdlab.errors import InferenceError, ValidationError
from ikdlab.ikd import (AV_LIMIT, EPS_V, CorrectionResult, av_from_vc,
                        c_from_av_v, correct, correct_batch)
from ikdlab.mlp import MlpParams, init_params

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


def test_c_from_av_v_is_elementwise():
    c = c_from_av_v(1.4, 2.0)
    assert type(c) is float and c == 1.4 / 2.0
    rng = np.random.default_rng(5)
    av = rng.uniform(-4.0, 4.0, 200)
    v = rng.uniform(-0.2, 4.2, 200)
    v[::7] = 0.0
    c = c_from_av_v(av, v)
    assert isinstance(c, np.ndarray) and c.shape == (200,)
    guarded = np.abs(v) < EPS_V
    assert np.all(c[guarded] == 0.0)
    assert np.array_equal(c[~guarded], av[~guarded] / v[~guarded])
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="av and v must be finite"):
            c_from_av_v(np.array([1.0, bad]), np.array([2.0, 2.0]))
        with pytest.raises(ValidationError, match="av and v must be finite"):
            c_from_av_v(np.array([1.0, 1.0]), np.array([2.0, bad]))


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
    assert ikd.c_from_av_v is simcore.c_from_av_v
    assert not hasattr(align, "row_curvature")


def overflowing_model() -> MlpParams:
    """A model whose output overflows for v > 0 and is 0 for v <= 0."""
    vals = {"W1": np.zeros((32, 2)), "b1": np.zeros(32),
            "W2": np.zeros((32, 32)), "b2": np.zeros(32),
            "W3": np.zeros((1, 32)), "b3": np.zeros(1)}
    vals["W1"][0, 0] = 1e308
    vals["W2"][0, 0] = 1e308
    vals["W3"][0, 0] = 1e308
    return MlpParams(**vals)


def test_non_finite_model_output_raises():
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InferenceError, match=r"^model output (inf|nan) is not finite$"):
            correct(overflowing_model(), 4.0, 0.9)


# --- correct_batch -----------------------------------------------------------

def test_batched_correction_matches_per_row_correct():
    rng = np.random.default_rng(41)
    for case in range(30):
        n = int(rng.integers(20, 200))
        v = rng.uniform(-1.0, 4.2, n)
        v[rng.random(n) < 0.2] = rng.uniform(-EPS_V, EPS_V)   # speed guard
        c = rng.uniform(-2.0, 2.0, n)
        # random weights, and gains high enough to clamp at both ends
        model = (init_params(rng), build_gain_model(float(rng.uniform(1.5, 6.0))),
                 build_gain_model(float(rng.uniform(-6.0, -1.5))))[case % 3]
        batch = correct_batch(model, v, c)
        rows = [correct(model, float(a), float(b)) for a, b in zip(v, c)]
        assert np.array_equal(batch.av_desired, [r.av_desired for r in rows])
        assert np.all(np.abs(batch.av_corrected - [r.av_corrected for r in rows])
                      <= 1e-12)
        assert np.all(np.abs(batch.c_corrected - [r.c_corrected for r in rows])
                      <= 1e-12)
        assert batch.clamped.tolist() == [r.clamped for r in rows]
        assert np.all(batch.c_corrected[np.abs(v) < EPS_V] == 0.0)
        if case % 3:
            assert batch.clamped.any()
        # the one-row case is correct itself, bit for bit
        one = correct_batch(model, v[:1], c[:1])
        assert CorrectionResult(float(v[0]), *(x.item() for x in one)) == rows[0]
    both = correct_batch(build_gain_model(3.0), [2.0, 2.0, 2.0], [1.0, -1.0, 0.1])
    assert both.av_corrected.tolist() == [AV_LIMIT, -AV_LIMIT, pytest.approx(0.6)]
    assert both.clamped.tolist() == [True, True, False]


def test_batched_correction_names_first_non_finite_row():
    v = np.array([-1.0, -2.0, 4.0, 3.0])   # relu(v * 1e308) = 0 for v <= 0
    c = np.array([0.5, 0.5, 0.9, 0.9])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InferenceError, match=r"^row 2: model output (inf|nan) is not finite$"):
            correct_batch(overflowing_model(), v, c)
    with pytest.raises(ValidationError, match="v and c must be finite"):
        correct_batch(build_identity_model(), [1.0, 2.0], [0.1, float("nan")])


def test_overflowing_v_times_c_is_refused_by_name():
    with pytest.raises(ValidationError, match=r"^row 1: v\*c must be finite, got -inf$"):
        correct_batch(build_identity_model(), [1.0, -1e200, 1e200], [0.1, 1e200, 1e200])
    with pytest.raises(ValidationError, match=r"^v\*c must be finite, got inf$"):
        correct(build_identity_model(), 1e308, 1e308)


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
