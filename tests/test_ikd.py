"""Command correction: conversions, clamping, failure modes."""

import ast
import json
import math
import pathlib

import numpy as np
import pytest

import ikdlab
from ikdlab.cli import main
from ikdlab.errors import ValidationError
from ikdlab.ikd import AV_LIMIT, Corrections, c_from_av_v, correct, correct_batch
from ikdlab.mlp import _SHAPES, WEIGHT_DOMAIN, MlpParams, forward, init_params, save_model
from ikdlab.simcore import EPS_V

from conftest import build_constant_model, build_gain_model, build_identity_model


# --- conversions -------------------------------------------------------------

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
        assert c_from_av_v(v * c, v) == pytest.approx(c, rel=1e-12)


def test_conversions_reject_non_finite():
    with pytest.raises(ValidationError):
        c_from_av_v(1.0, float("nan"))
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
    # simcore defines the guard and the guarded curvature; of the other
    # modules only the package __init__ binds EPS_V, to export it
    binds, defines = set(), set()
    for path in pathlib.Path(ikdlab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.asname or alias.name for alias in node.names]
            else:
                names = [node.id] if isinstance(node, ast.Name) and isinstance(
                    node.ctx, ast.Store) else []
            if "EPS_V" in names:
                binds.add(path.stem)
            if isinstance(node, ast.FunctionDef) and node.name == "c_from_av_v":
                defines.add(path.stem)
    assert binds == {"simcore", "__init__"}
    assert defines == {"simcore"}
    assert ikdlab.c_from_av_v is c_from_av_v
    assert not hasattr(ikdlab.align, "row_curvature")


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
        assert Corrections(*(x.item() for x in one)) == rows[0]
    both = correct_batch(build_gain_model(3.0), [2.0, 2.0, 2.0], [1.0, -1.0, 0.1])
    assert both.av_corrected.tolist() == [AV_LIMIT, -AV_LIMIT, pytest.approx(0.6)]
    assert both.clamped.tolist() == [True, True, False]


def test_batched_correction_names_first_non_finite_row():
    with pytest.raises(ValidationError) as exc:
        correct_batch(build_identity_model(), [1.0, 2.0], [0.1, float("nan")])
    assert (str(exc.value), exc.value.row) == ("c must be within +-1000, got nan", 1)


def test_overflowing_v_times_c_is_refused_by_name():
    cases = [
        # v and c are checked first, so a product past the float range is never formed
        ([1.0, -1e200, 1e200], [0.1, 1e200, 1e200], 1,
         "v must be within +-1000, got -1e+200"),
        ([1.0, 1e3, 2.0], [0.1, 1e3, 1e300], 2, "c must be within +-1000, got 1e+300"),
        ([1.0, 2.0, 1e3], [0.1, float(np.nextafter(1e3, np.inf)), 1e3], 1,
         "c must be within +-1000, got 1000.0000000000001"),
        # then v*c, against the yaw-rate domain
        ([1.0, 1e3, 2.0], [0.1, 1e3, 0.5], 1, "v*c must be within +-1000, got 1000000.0"),
        ([-1e3, 2.0], [-1.0 - 2 ** -52, 0.5], 0,
         "v*c must be within +-1000, got 1000.0000000000002"),
    ]
    for v, c, row, message in cases:
        with pytest.raises(ValidationError) as exc:
            correct_batch(build_identity_model(), v, c)
        assert (str(exc.value), exc.value.row) == (message, row)
    with pytest.raises(ValidationError, match=r"^v must be within \+-1000, got 1e\+308$"):
        correct(build_identity_model(), 1e308, 1e308)


def test_correction_at_the_domain_edges_is_finite_without_a_warning():
    # every weight at +WEIGHT_DOMAIN and every input at the edge of its domain:
    # the output, about 2e306, still fits a float, and the clamp takes it; with
    # W3 and b3 at -WEIGHT_DOMAIN it is the most negative one, about -2e306
    for sign in (1.0, -1.0):
        edge = MlpParams(**{name: np.full(shape, sign * WEIGHT_DOMAIN if name[1] == "3"
                                          else WEIGHT_DOMAIN)
                            for name, shape in _SHAPES.items()})
        v, c = [1e3, 1e3, -1e3], [1.0, 1e-3, -1.0]
        batch = correct_batch(edge, v, c)
        assert batch.av_desired.tolist() == [1e3, 1.0, 1e3]
        raw = forward(edge, np.column_stack([v, batch.av_desired]))
        assert np.all(np.isfinite(raw)) and sign * raw[0] > 2e306
        assert batch.av_corrected.tolist() == [sign * AV_LIMIT] * 3
        assert batch.clamped.all()


def test_cli_correct_prints_the_result_as_json(tmp_path, capsys):
    model = build_identity_model()
    path = str(tmp_path / "model.json")
    save_model(model, path)
    assert main(["correct", "--out", str(tmp_path), "--model", path,
                 "--v", "2.0", "--c", "0.7"]) == 0
    out = capsys.readouterr().out
    result = correct(model, 2.0, 0.7)
    assert out == json.dumps(result._asdict(), indent=2, sort_keys=True) + "\n"
    data = json.loads(out)
    assert list(data) == ["av_corrected", "av_desired", "c_corrected", "clamped", "v"]
    assert data == result._asdict()
    assert data["clamped"] is False and data["v"] == 2.0


def test_correction_query_point_is_v_times_c():
    """The model must be asked for the desired yaw rate at this speed, not
    the raw curvature."""
    gain = build_gain_model(1.0)
    for v, c in ((1.0, 0.3), (3.0, 0.3), (4.0, -0.9)):
        result = correct(gain, v, c)
        assert result.av_desired == pytest.approx(v * c)
        assert result.av_corrected == pytest.approx(v * c, abs=1e-12)
