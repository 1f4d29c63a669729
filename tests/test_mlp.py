"""Network forward/backward math, the optimizer rule, training, model files."""

import warnings

import numpy as np
import pytest

from ikdlab.align import AlignedDataset
from ikdlab.errors import ParseError, ValidationError
from ikdlab import mlp as mlp_module
from ikdlab.mlp import (LAYER_SIZES, N_PARAMS, WEIGHT_DOMAIN, AdamState, LossCurve,
                        MlpParams, TrainConfig, _EVAL_ROWS, _FIELDS, _SHAPES,
                        _forward_batch, _views, adamw_step, forward, init_params,
                        load_model, loss_and_grads, save_model, train,
                        write_loss_csv)

from conftest import build_constant_model, build_gain_model, build_identity_model


def random_params(seed: int = 0) -> MlpParams:
    return init_params(np.random.default_rng(seed))


def batch_loss_and_grads(p: MlpParams, X, y):
    """The batch MSE, its gradient as one flat vector, and that vector's
    views keyed like the MlpParams fields."""
    g = np.empty(N_PARAMS)
    grads = _views(g)
    resid = loss_and_grads(p, X, y, grads)
    return float(np.mean(resid * resid)), g, dict(zip(_FIELDS, grads))


def identity_dataset(n: int = 3000, seed: int = 0) -> AlignedDataset:
    rng = np.random.default_rng(seed)
    v = rng.uniform(0.5, 4.0, n)
    av = rng.uniform(-3.8, 3.8, n)
    return AlignedDataset(v_joy=v, av_joy=av, av_imu=av)


# --- forward -----------------------------------------------------------------

def test_forward_zero_params_is_zero():
    p = build_constant_model(0.0)
    assert forward(p, (2.0, 1.3)) == 0.0
    assert np.array_equal(forward(p, [[1.0, 2.0], [3.0, -1.0]]), [0.0, 0.0])


def test_forward_constant_head():
    p = build_constant_model(0.5)
    assert forward(p, (2.0, 1.3)) == 0.5
    assert forward(p, (-7.0, 0.0)) == 0.5


def test_forward_matches_independent_evaluation():
    p = random_params(21)
    x = np.array([2.0, 1.3])
    h1 = np.maximum(p.W1 @ x + p.b1, 0.0)
    h2 = np.maximum(p.W2 @ h1 + p.b2, 0.0)
    expect = float((p.W3 @ h2 + p.b3)[0])
    assert forward(p, (2.0, 1.3)) == pytest.approx(expect, rel=1e-12)


def test_forward_shape_handling():
    p = random_params(2)
    batch = np.array([[2.0, 1.3], [1.0, -0.5], [3.0, 0.0]])
    out = forward(p, batch)
    assert out.shape == (3,)
    assert out[0] == pytest.approx(forward(p, batch[0]))
    with pytest.raises(ValidationError):
        forward(p, np.ones((2, 3)))
    with pytest.raises(ValidationError):
        forward(p, (float("nan"), 0.0))


def test_forward_refuses_inputs_outside_the_simcore_domains():
    # every weight at +WEIGHT_DOMAIN: inputs at +-1e3 give about 2e306, still
    # a float; past the domain the output would overflow, so they are refused
    edge = MlpParams(**{name: np.full(shape, WEIGHT_DOMAIN)
                        for name, shape in _SHAPES.items()})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert forward(edge, [1e3, 1e3]) == pytest.approx(2.049024e306, rel=1e-12)
        for inputs, message, row in (
                ([1e5, 1e5], "v must be within +-1000, got 100000.0", 0),
                ([[1.0, 2.0], [1e3, -1e5]], "av must be within +-1000, got -100000.0", 1)):
            with pytest.raises(ValidationError) as exc:
                forward(edge, inputs)
            assert (str(exc.value), exc.value.row) == (message, row)


def test_identity_construction_is_exact():
    p = build_identity_model()
    for v, av in ((2.0, 1.4), (0.0, -3.3), (4.0, 0.0), (1.0, 0.123456789)):
        assert forward(p, (v, av)) == av


def test_scaling_head_scales_output():
    base = build_identity_model()
    scaled = MlpParams(W1=base.W1, b1=base.b1, W2=base.W2, b2=base.b2,
                       W3=2.5 * base.W3, b3=2.5 * base.b3)
    for av in (-3.0, -0.2, 0.7, 2.0):
        assert forward(scaled, (1.0, av)) == pytest.approx(
            2.5 * forward(base, (1.0, av)), rel=1e-15)


# --- parameter containers ----------------------------------------------------

def test_params_shape_and_finiteness_validation():
    bad = {n: np.zeros(_SHAPES[n]) for n in _FIELDS}
    bad["W1"] = np.zeros((31, 2))
    with pytest.raises(ValidationError, match="W1"):
        MlpParams(**bad)
    bad["W1"] = np.full(_SHAPES["W1"], np.inf)
    with pytest.raises(ValidationError):
        MlpParams(**bad)


def test_params_refuse_the_first_weight_outside_the_domain():
    edge = {n: np.full(_SHAPES[n], -WEIGHT_DOMAIN) for n in _FIELDS}
    MlpParams(**edge)   # at the edge is fine
    past = float(np.nextafter(WEIGHT_DOMAIN, np.inf))
    for name, k, value, shown in (("b2", 5, 1e308, "1e+308"), ("W3", 0, np.nan, "nan"),
                                  ("W1", 3, -past, "-1.0000000000000002e+100")):
        tensors = {n: np.zeros(_SHAPES[n]) for n in _FIELDS}
        tensors[name].flat[k] = value
        tensors["W3"].flat[-1] = np.inf   # a later bad weight: the first is named
        with pytest.raises(ValidationError) as exc:
            MlpParams(**tensors)
        assert str(exc.value) == f"{name} must be within +-1e+100, got {shown}"


def test_named_tensors_are_views_of_one_flat_vector():
    p = random_params(4)
    assert p.theta.shape == (N_PARAMS,) == (1185,)
    assert p.theta.dtype == np.float64 and p.theta.flags.c_contiguous
    k = 0
    for name in _FIELDS:
        arr = getattr(p, name)
        assert arr.shape == _SHAPES[name]
        assert np.shares_memory(arr, p.theta)
        assert np.array_equal(arr.ravel(), p.theta[k:k + arr.size])
        k += arr.size
    assert k == N_PARAMS
    # bound once: repeated access returns the same view object
    assert p.W2 is p.W2
    with pytest.raises(ValueError):
        p.W1[0, 0] = 1.0
    with pytest.raises(ValueError):
        p.theta[0] = 1.0


def test_named_constructor_copies_its_tensors():
    W1 = np.ones(_SHAPES["W1"])
    p = MlpParams(W1=W1, **{n: np.zeros(_SHAPES[n]) for n in _FIELDS[1:]})
    W1[0, 0] = 5.0
    assert p.W1[0, 0] == 1.0


def test_init_params_respects_fan_in_bounds():
    p = init_params(np.random.default_rng(0))
    assert np.max(np.abs(p.W1)) <= 1.0 / np.sqrt(2.0)
    assert np.max(np.abs(p.b1)) <= 1.0 / np.sqrt(2.0)
    assert np.max(np.abs(p.W2)) <= 1.0 / np.sqrt(32.0)
    assert np.max(np.abs(p.W3)) <= 1.0 / np.sqrt(32.0)
    q = init_params(np.random.default_rng(0))
    assert np.array_equal(p.W1, q.W1) and np.array_equal(p.b3, q.b3)
    # tensor by tensor in file order, each within its layer's fan-in bound
    rng = np.random.default_rng(0)
    draws = [rng.uniform(-1.0 / np.sqrt(fan_in), 1.0 / np.sqrt(fan_in), size=shape)
             for fan_in, shape in ((2, (32, 2)), (2, (32,)), (32, (32, 32)),
                                   (32, (32,)), (32, (1, 32)), (32, (1,)))]
    assert p.theta.tobytes() == np.concatenate(draws, axis=None).tobytes()


# --- loss and gradients ------------------------------------------------------

def test_perfect_fit_batch_has_zero_loss_and_grads():
    p = build_constant_model(0.5)
    X = np.array([[1.0, 2.0], [0.5, -1.0]])
    y = np.array([0.5, 0.5])
    mse, g, _ = batch_loss_and_grads(p, X, y)
    assert mse == 0.0
    assert not g.any()


def test_single_sample_bias_gradient():
    mse, _, grads = batch_loss_and_grads(build_constant_model(0.0),
                                         np.array([[1.0, 1.0]]), np.array([1.0]))
    assert mse == 1.0
    assert grads["b3"].tolist() == [-2.0]
    assert np.all(grads["W3"] == 0.0)  # hidden activations are all zero


def test_gradients_match_finite_differences():
    """Central differences on a few draws; batches near ReLU kinks are
    redrawn since the derivative jumps there."""
    rng = np.random.default_rng(42)
    h = 1e-5

    def flat(p):
        return np.concatenate([getattr(p, n).ravel() for n in _FIELDS])

    def unflat(vec):
        vals, k = {}, 0
        for n in _FIELDS:
            size = int(np.prod(_SHAPES[n]))
            vals[n] = vec[k:k + size].reshape(_SHAPES[n])
            k += size
        return MlpParams(**vals)

    checked = 0
    while checked < 5:
        p = init_params(rng)
        X = np.column_stack([rng.uniform(0, 4.2, 6), rng.uniform(-4, 4, 6)])
        y = rng.uniform(-4, 4, 6)
        z1 = X @ p.W1.T + p.b1
        z2 = np.maximum(z1, 0) @ p.W2.T + p.b2
        if min(np.min(np.abs(z1)), np.min(np.abs(z2))) < 10 * h:
            continue
        checked += 1
        _, g_an, _ = batch_loss_and_grads(p, X, y)
        theta = flat(p)
        g_fd = np.empty_like(theta)
        for i in range(theta.size):
            up, down = theta.copy(), theta.copy()
            up[i] += h
            down[i] -= h
            f_up = np.mean((forward(unflat(up), X) - y) ** 2)
            f_dn = np.mean((forward(unflat(down), X) - y) ** 2)
            g_fd[i] = (f_up - f_dn) / (2 * h)
        rel = np.abs(g_an - g_fd) / np.maximum.reduce(
            [np.abs(g_an), np.abs(g_fd), np.full_like(g_an, 1e-6)])
        assert float(rel.max()) < 1e-4


def test_loss_rejects_malformed_batches():
    p = build_constant_model(0.0)
    grads = _views(np.empty(N_PARAMS))
    with pytest.raises(ValidationError, match="non-empty"):
        loss_and_grads(p, np.empty((0, 2)), np.empty(0), grads)
    # y of shape (3, 1) would broadcast against the (3,) outputs unchecked
    for X, y in ((np.ones((3, 2)), np.ones(4)), (np.ones((3, 2)), np.ones((3, 1))),
                 (np.ones((3, 3)), np.ones(3)), (np.ones(2), np.ones(1))):
        with pytest.raises(ValidationError, match=r"X:\(n,2\), y:\(n,\)"):
            loss_and_grads(p, X, y, grads)


# --- AdamW -------------------------------------------------------------------

def test_adamw_zero_grads_zero_decay_is_identity():
    theta = random_params(5).theta.copy()
    before = theta.copy()
    s = AdamState.fresh()
    adamw_step(theta, np.zeros(N_PARAMS), s, TrainConfig(weight_decay=0.0),
               np.empty(N_PARAMS))
    assert np.array_equal(theta, before)
    assert s.t == 1


def test_adamw_single_step_hand_computation():
    # param 1.0, grad 1.0, defaults: m_hat = 1, v_hat = 1,
    # step = 1/(1+1e-8) + 0.01, new value = 1 - 1e-3*step = 0.99899000001
    theta, g = np.zeros(N_PARAMS), np.zeros(N_PARAMS)
    theta[-1] = g[-1] = 1.0   # b3, the last tensor
    s = AdamState.fresh()
    adamw_step(theta, g, s, TrainConfig(), np.empty(N_PARAMS))
    assert theta[-1] == pytest.approx(0.99899000001, rel=1e-12)
    assert not theta[:-1].any()
    assert s.t == 1


def test_adamw_is_stateful_and_deterministic():
    start = random_params(6).theta
    cfg = TrainConfig()

    def step(theta, s):
        adamw_step(theta, np.full(N_PARAMS, 0.3), s, cfg, np.empty(N_PARAMS))

    a, s1 = start.copy(), AdamState.fresh()
    step(a, s1)
    b = start.copy()
    step(b, AdamState.fresh())
    assert np.array_equal(a, b)
    a1 = a.copy()
    step(a, s1)
    assert s1.t == 2
    # second step differs from the first because the moments have state
    assert not np.array_equal(a - a1, a1 - start)


def test_adam_state_is_flat():
    s = AdamState.fresh()
    assert s.m.shape == s.v.shape == (N_PARAMS,)
    assert s.t == 0 and not s.m.any() and not s.v.any()


def test_adamw_rejects_shape_mismatch():
    # a (1,) gradient would broadcast over every weight unchecked
    for shape in ((4, 4), (1,), (N_PARAMS, 1)):
        theta = random_params(1).theta.copy()
        with pytest.raises(ValidationError, match=r"gradient has shape"):
            adamw_step(theta, np.zeros(shape), AdamState.fresh(), TrainConfig(),
                       np.empty(N_PARAMS))


# --- train -------------------------------------------------------------------

def test_train_learns_identity_mapping():
    data = identity_dataset()
    params, curve = train(data, TrainConfig(epochs=30, seed=0))
    assert curve.test_mse[-1] < 1e-3
    for v, a in ((1.0, 0.5), (2.0, -1.5), (3.5, 2.0)):
        assert forward(params, (v, a)) == pytest.approx(a, abs=0.1)


def test_train_loss_is_loosely_monotone():
    data = identity_dataset(seed=3)
    _, curve = train(data, TrainConfig(epochs=30, seed=1))
    tm = curve.train_mse
    for i in range(len(tm) - 5):
        assert tm[i + 5] < tm[i] + max(0.5 * tm[i], 1e-4)


def test_train_converges_toward_constant_target():
    rng = np.random.default_rng(8)
    n = 500
    data = AlignedDataset(v_joy=rng.uniform(0.5, 4, n),
                          av_joy=np.full(n, 1.7),
                          av_imu=rng.uniform(-3, 3, n))
    _, curve = train(data, TrainConfig(epochs=10, seed=0))
    assert curve.train_mse[-1] < curve.train_mse[0]


def test_train_is_seeded_and_deterministic():
    data = identity_dataset(n=600, seed=5)
    cfg = TrainConfig(epochs=3, seed=9)
    p1, c1 = train(data, cfg)
    p2, c2 = train(data, cfg)
    assert all(np.array_equal(getattr(p1, n), getattr(p2, n)) for n in _FIELDS)
    assert np.array_equal(c1.train_mse, c2.train_mse)
    p3, _ = train(data, TrainConfig(epochs=3, seed=10))
    assert not np.array_equal(p1.W1, p3.W1)


def test_train_rejects_small_datasets():
    data = identity_dataset(n=50)
    with pytest.raises(ValidationError,
                       match="^dataset has 50 rows; batch_size 32 needs at least 64$"):
        train(data, TrainConfig(batch_size=32, epochs=1))


def test_train_stops_when_a_weight_leaves_the_domain(monkeypatch):
    # One step of size 1e120 (a 100-row train split, one batch) moves every
    # weight to about 1e120: finite, but far past WEIGHT_DOMAIN.  The train
    # MSE is that step's, at the initial weights, and the test MSE is 0.0
    # (forward answers the identity dataset's target, av_imu): both finite,
    # so the weight bound alone stops the run.
    monkeypatch.setattr(mlp_module, "forward", lambda p, X: X[:, 1])
    cfg = TrainConfig(lr=1e120, epochs=2, batch_size=100, split_fraction=0.5)
    with pytest.raises(ValidationError,
                       match=r"^training diverged in epoch 0: train mse 5\.287\d*, "
                             r"test mse 0\.0, weights outside \+-1e\+100 in "
                             r"W1, b1, W2, b2, W3, b3$"):
        train(identity_dataset(n=200), cfg)


def test_train_mse_is_the_mean_of_the_epoch_step_residuals(monkeypatch):
    # 700 rows: 630 train 70 test; batch 64 leaves a short last batch
    data = identity_dataset(n=700, seed=3)
    cfg = TrainConfig(epochs=3, batch_size=64, seed=2)
    resids, evaluated = [], []
    real_step, real_eval = mlp_module.loss_and_grads, mlp_module.forward

    def step_spy(p, X, y, grads):
        resid = real_step(p, X, y, grads)
        resids.append(resid.copy())
        return resid

    def eval_spy(p, X):
        evaluated.append(len(X))
        return real_eval(p, X)

    monkeypatch.setattr(mlp_module, "loss_and_grads", step_spy)
    monkeypatch.setattr(mlp_module, "forward", eval_spy)
    _, curve = train(data, cfg)
    steps = -(-630 // 64)
    assert len(resids) == 3 * steps
    assert evaluated == [70] * 3   # one pass per epoch, over the test split only
    for epoch in range(3):
        sq = np.concatenate(resids[epoch * steps:(epoch + 1) * steps]) ** 2
        assert sq.size == 630
        assert curve.train_mse[epoch] == pytest.approx(np.mean(sq), rel=1e-12, abs=0.0)


def test_train_config_validation():
    with pytest.raises(ValidationError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValidationError):
        TrainConfig(epochs=0)
    with pytest.raises(ValidationError):
        TrainConfig(split_fraction=1.0)


@pytest.mark.parametrize("field, value", [
    ("lr", -1.0), ("lr", 0.0), ("lr", float("nan")), ("lr", float("inf")),
    ("lr", "0.1"),
    ("beta1", 1.0), ("beta1", -0.1), ("beta2", 1.5), ("beta2", float("nan")),
    ("weight_decay", -1.0), ("weight_decay", float("inf")),
    ("eps_adam", 0.0), ("eps_adam", -1e-8),
    ("batch_size", 32.0), ("batch_size", "32"), ("batch_size", True),
    ("epochs", "2"), ("epochs", 2.5),
    ("seed", -1), ("seed", 1.0),
])
def test_train_config_rejects_values_that_diverge_or_do_not_type(field, value):
    with pytest.raises(ValidationError, match=field):
        TrainConfig(**{field: value})


def test_train_config_accepts_edge_values():
    cfg = TrainConfig(lr=1e6, beta1=0.0, beta2=0.0, weight_decay=0.0,
                      eps_adam=1e-300, batch_size=np.int64(8), epochs=1, seed=0)
    assert cfg.lr == 1e6 and cfg.batch_size == 8


def test_train_names_the_epoch_when_it_diverges():
    data = identity_dataset(n=3000, seed=2)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValidationError, match="diverged in epoch 0"):
            train(data, TrainConfig(lr=1e6, epochs=3, seed=0))


@pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 8193, 45302])
def test_split_mse_is_the_whole_split_mse_in_bounded_chunks(monkeypatch, n):
    # train's test MSE is the mean square of forward's residuals on the
    # split, and forward evaluates a batch in bounded chunks
    rng = np.random.default_rng(n)
    p = random_params(3)
    X = np.column_stack([rng.uniform(0.3, 4.2, n), rng.uniform(-4.0, 4.0, n)])
    y = rng.normal(0.0, 1.0, n)
    whole = _forward_batch(p, X)[2]
    seen = []
    real = mlp_module._forward_batch
    monkeypatch.setattr(mlp_module, "_forward_batch",
                        lambda p, X: seen.append(len(X)) or real(p, X))
    out = forward(p, X)
    assert sum(seen) == n
    assert max(seen) <= _EVAL_ROWS
    assert max(seen) - min(seen) <= 1          # near-equal, so no chunk is small
    if n <= _EVAL_ROWS:                        # one chunk: the whole-batch bits
        assert seen == [n] and np.array_equal(out, whole)
    else:                                      # chunk edges may round otherwise
        np.testing.assert_allclose(out, whole, rtol=0.0, atol=1e-15)
    assert np.mean((out - y) ** 2) == pytest.approx(np.mean((whole - y) ** 2),
                                                    rel=1e-12, abs=0.0)


# --- model files -------------------------------------------------------------

def test_model_file_round_trip(tmp_path):
    p = random_params(33)
    path = str(tmp_path / "model.json")
    save_model(p, path)
    q = load_model(path)
    assert all(np.array_equal(getattr(p, n), getattr(q, n)) for n in _FIELDS)


def test_model_file_truncated_is_parse_error(tmp_path):
    p = random_params(1)
    path = tmp_path / "model.json"
    save_model(p, str(path))
    text = path.read_text(encoding="utf-8")
    path.write_text(text[: len(text) // 2], encoding="utf-8")
    with pytest.raises(ParseError):
        load_model(str(path))


def test_model_file_shape_error_names_tensor(tmp_path):
    import json
    p = random_params(2)
    path = tmp_path / "model.json"
    save_model(p, str(path))
    raw = json.loads(path.read_text(encoding="utf-8"))
    raw["weights"]["W1"] = [row for row in raw["weights"]["W1"]][:31]
    path.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(ValidationError) as exc:
        load_model(str(path))
    assert str(exc.value) == f"{path}: W1 has shape (31, 2), expected (32, 2)"


def test_model_file_version_and_layer_checks(tmp_path):
    import json
    p = random_params(3)
    path = tmp_path / "model.json"
    save_model(p, str(path))
    raw = json.loads(path.read_text(encoding="utf-8"))
    raw["version"] = 99
    path.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(ValidationError, match="version"):
        load_model(str(path))
    raw["version"] = 1
    raw["layer_sizes"] = [2, 16, 16, 1]
    path.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(ValidationError):
        load_model(str(path))
    assert LAYER_SIZES == (2, 32, 32, 1)


def test_loss_csv_layout(tmp_path):
    curve = LossCurve(train_mse=np.array([0.5, 0.25]), test_mse=np.array([0.6, 0.3]))
    path = tmp_path / "loss.csv"
    write_loss_csv(curve, str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "epoch,train_mse,test_mse"
    assert lines[1] == "0,0.5,0.6"
    assert lines[2] == "1,0.25,0.3"
