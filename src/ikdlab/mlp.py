"""Small fully connected regressor: 2 inputs -> 32 -> 32 -> 1 output.

Maps (commanded velocity, observed yaw rate) to the joystick yaw rate that
produced it.  ReLU hidden layers, linear output head, MSE loss, analytic
backpropagation, AdamW updates.  Everything runs in double precision on
plain numpy arrays; no input normalization is applied.

The weights live in one contiguous float64 vector.  A training step
backpropagates into one flat gradient vector and runs AdamW in place on
whole vectors, so it allocates little beyond the batch's activations.
Weights are validated once, where they are held: the one constructor of
MlpParams checks them, so a model read from a file and a trained model are
checked alike.  Training checks its config, and the end of each epoch,
where it could diverge, not every step.  Each weight must lie within
WEIGHT_DOMAIN, so no forward pass on inputs within the simcore domains
(+-1e3) overflows; forward refuses inputs outside them.
"""

from __future__ import annotations

import collections
import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .align import AlignedDataset
from .errors import ParseError, ValidationError, blamed, check_within, is_finite
from .fileio import read_json, write_json, write_table
from .simcore import SPEED_DOMAIN, YAW_RATE_DOMAIN, _MAX_LEN

LAYER_SIZES = (2, 32, 32, 1)
MODEL_VERSION = 1
LOSS_HEADER = "epoch,train_mse,test_mse"
# +-limit of every weight: with inputs within +-1e3 a forward pass stays
# below about 2.1e6 * WEIGHT_DOMAIN**3, some 2e306, inside the float range
WEIGHT_DOMAIN = 1e100

# W<k> is (fan_out, fan_in) and b<k> is (fan_out,) for layer k, in file order
_SHAPES = {name: shape
           for k, (fan_in, fan_out) in enumerate(zip(LAYER_SIZES, LAYER_SIZES[1:]), 1)
           for name, shape in ((f"W{k}", (fan_out, fan_in)), (f"b{k}", (fan_out,)))}
_FIELDS = tuple(_SHAPES)   # W1, b1, W2, b2, W3, b3
_STOPS = tuple(itertools.accumulate(math.prod(shape) for shape in _SHAPES.values()))
N_PARAMS = _STOPS[-1]   # 1185 weights
_TINY = np.finfo(float).tiny  # smallest normal float64


@dataclass(frozen=True)
class MlpParams:
    """Network weights; shapes are fixed by LAYER_SIZES.

    ``theta`` holds every weight in one read-only float64 vector, in
    _FIELDS order; W1, b1, W2, b2, W3 and b3 are reshaped views of it,
    bound once when the object is built.  The constructor, the only way to
    build one, copies its tensors and checks their shapes and that every
    weight is within WEIGHT_DOMAIN.
    """

    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    W3: np.ndarray
    b3: np.ndarray
    theta: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        tensors = []
        for name in _FIELDS:
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != _SHAPES[name]:
                raise ValidationError(
                    f"{name} has shape {arr.shape}, expected {_SHAPES[name]}")
            tensors.append(arr)
        theta = np.concatenate(tensors, axis=None)
        theta.flags.writeable = False
        # A frozen dataclass refuses setattr: bind the views in its __dict__.
        self.__dict__.update(zip(_FIELDS, _views(theta)), theta=theta)
        for name in _FIELDS:
            check_within((name, getattr(self, name), WEIGHT_DOMAIN))


def _views(flat: np.ndarray) -> tuple[np.ndarray, ...]:
    """W1, b1, W2, b2, W3 and b3 as reshaped views of a flat vector."""
    return tuple(part.reshape(shape)
                 for part, shape in zip(np.split(flat, _STOPS[:-1]), _SHAPES.values()))


# train's working weights: the _views of its private vector, named as an
# MlpParams names them, and neither copied nor checked on each step
_Weights = collections.namedtuple("_Weights", _FIELDS)


def init_params(rng: np.random.Generator) -> MlpParams:
    """Uniform init in +-1/sqrt(fan_in), applied to weights and biases."""
    vals = {}
    for name in _FIELDS:
        bound = 1.0 / np.sqrt(_SHAPES["W" + name[1:]][1])   # the layer's fan-in
        vals[name] = rng.uniform(-bound, bound, size=_SHAPES[name])
    return MlpParams(**vals)


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    batch_size: int = 32
    epochs: int = 50
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps_adam: float = 1e-8
    seed: int = 0
    split_fraction: float = 0.1  # fraction of rows held out for the test split

    def __post_init__(self):
        for name in ("batch_size", "epochs", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        for name in ("lr", "weight_decay", "beta1", "beta2", "eps_adam",
                     "split_fraction"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not is_finite(value)):
                raise ValidationError(f"{name} must be a finite number, got {value!r}")
        for name in ("batch_size", "epochs"):   # lengths of arrays train allocates
            if not 1 <= getattr(self, name) <= _MAX_LEN:
                raise ValidationError(f"{name} must be in [1, {_MAX_LEN}]")
        try:   # train's loss curve: a train and a test MSE per epoch
            np.empty(2 * self.epochs)
        except (MemoryError, ValueError):   # ValueError: past numpy's byte limit
            raise ValidationError(
                f"epochs {self.epochs} needs {16 * self.epochs:.3g} bytes of loss "
                f"curve, more than can be allocated") from None
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        if self.lr <= 0.0:
            raise ValidationError("lr must be positive")
        if self.weight_decay < 0.0:
            raise ValidationError("weight_decay must be >= 0")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValidationError(f"{name} must be in [0, 1)")
        if self.eps_adam <= 0.0:
            raise ValidationError("eps_adam must be positive")
        if not 0.0 < self.split_fraction < 1.0:
            raise ValidationError("split_fraction must be in (0, 1)")


@dataclass
class AdamState:
    """First/second moment vectors, laid out like MlpParams.theta, and the step counter."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def fresh(cls) -> "AdamState":
        return cls(m=np.zeros(N_PARAMS), v=np.zeros(N_PARAMS))


@dataclass(frozen=True)
class LossCurve:
    """Train and test MSE, one of each per epoch: the train MSE is the mean
    over the epoch's steps, each residual taken at its own step's weights;
    the test MSE is the test split's, evaluated at the end of the epoch."""

    train_mse: np.ndarray
    test_mse: np.ndarray

    def __len__(self) -> int:
        return self.train_mse.size


_EVAL_ROWS = 4096   # most rows forward evaluates in one pass


def _forward_batch(p: MlpParams, X: np.ndarray):
    """Return the activations backprop needs: (a1, a2, out).

    Bias adds and ReLUs run in place, so a batch holds two hidden-layer
    arrays at a time, not four.  a1 > 0 exactly where its
    pre-activation is > 0, so the activations also give the ReLU masks.
    """
    a1 = X @ p.W1.T
    a1 += p.b1
    np.maximum(a1, 0.0, out=a1)
    a2 = a1 @ p.W2.T
    a2 += p.b2
    np.maximum(a2, 0.0, out=a2)
    out = a2 @ p.W3.T + p.b3
    return a1, a2, out[:, 0]


def forward(p: MlpParams, inputs) -> float | np.ndarray:
    """Evaluate the network on one (v, av) pair or a batch of them.

    A shape-(2,) input returns a scalar; shape-(n, 2) returns shape (n,).
    v must lie within simcore.SPEED_DOMAIN and av within YAW_RATE_DOMAIN,
    or a ValidationError names the first row outside; there the output is
    finite for every MlpParams (see WEIGHT_DOMAIN).

    A batch runs in near-equal chunks of at most _EVAL_ROWS rows, each
    written into the one output vector, so the two hidden-layer arrays of
    a chunk stay under 1.1 MB each instead of growing with the batch
    (2.5 MB each on the 9.7k-row test split of the default sweep's
    dataset, which train evaluates after every epoch).  Large temporaries
    that come and go every epoch leave the allocator's heap in a state
    that depends on what ran before, and with it the peak memory of a
    training run.  No chunk is small when the batch is not.  A batch of at
    most _EVAL_ROWS rows is one chunk; in a larger one, a row's output may
    differ in the last bit from a whole-batch pass, since BLAS may order
    its sums differently for another row count.
    """
    X = np.asarray(inputs, dtype=float)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != 2:
        raise ValidationError(f"inputs must have shape (2,) or (n, 2), got {X.shape}")
    check_within(("v", X[:, 0], SPEED_DOMAIN), ("av", X[:, 1], YAW_RATE_DOMAIN))
    n = X.shape[0]
    chunks = max(-(-n // _EVAL_ROWS), 1)
    bounds = [n * i // chunks for i in range(chunks + 1)]
    out = np.empty(n)
    for lo, hi in zip(bounds, bounds[1:]):
        out[lo:hi] = _forward_batch(p, X[lo:hi])[2]
    return float(out[0]) if single else out


def loss_and_grads(p: MlpParams, X: np.ndarray, y: np.ndarray,
                   grads: tuple) -> np.ndarray:
    """Write the exact gradient of the batch MSE into ``grads``, the _views
    of one flat vector, and return the residuals out - y (the MSE is their
    mean square).

    X must be an (n, 2) float array with n >= 1 and y an (n,) one; only the
    shapes are checked.  Each weight gradient is computed straight into its
    view (matmul and sum with ``out=``) and each ReLU mask is applied in
    place on its delta.  The products are the per-tensor ones, term for
    term, so the bits are too: d * (a > 0) gives -0.0 for a negative delta
    behind a closed unit either way.  The output delta is one column, so it
    reaches the second hidden layer as the outer product d_out * W3: the
    matmul's one-term sums, bit for bit but for the sign of a zero product,
    which the matmul makes +0.0.
    """
    if X.ndim != 2 or X.shape[1] != 2 or y.shape != (X.shape[0],):
        raise ValidationError("batch must be X:(n,2), y:(n,)")
    if X.shape[0] == 0:
        raise ValidationError("batch must be non-empty")
    g_W1, g_b1, g_W2, g_b2, g_W3, g_b3 = grads
    a1, a2, out = _forward_batch(p, X)
    resid = out - y
    d_out = (2.0 / X.shape[0]) * resid[:, None]   # (n, 1)
    np.matmul(d_out.T, a2, out=g_W3)
    d_out.sum(axis=0, out=g_b3)
    d_z2 = d_out * p.W3                            # (n, 1) * (1, 32) -> (n, 32)
    np.multiply(d_z2, a2 > 0.0, out=d_z2)
    np.matmul(d_z2.T, a1, out=g_W2)
    d_z2.sum(axis=0, out=g_b2)
    d_z1 = d_z2 @ p.W2
    np.multiply(d_z1, a1 > 0.0, out=d_z1)
    np.matmul(d_z1.T, X, out=g_W1)
    d_z1.sum(axis=0, out=g_b1)
    return resid


def adamw_step(theta: np.ndarray, g: np.ndarray, s: AdamState, cfg: TrainConfig,
               tmp: np.ndarray) -> None:
    """One AdamW update of ``theta`` and ``s`` in place, from the flat gradient
    ``g``.  ``g`` and ``tmp`` are overwritten as scratch.

    m = b1*m + (1-b1)*g,  v = b2*v + (1-b2)*(g*g),
    step = m_hat / (sqrt(v_hat) + eps) + wd*theta,  theta - lr*step:
    evaluated in this order, and so bit for bit, with every product written
    into one of the five vectors.  Weight decay applies to every weight,
    biases included.  The new weights are not validated: train checks them
    once per epoch.
    """
    if g.shape != theta.shape:
        raise ValidationError(f"gradient has shape {g.shape}, expected {theta.shape}")
    s.t += 1
    b1, b2 = cfg.beta1, cfg.beta2
    s.m *= b1
    s.m += np.multiply(g, 1.0 - b1, out=tmp)
    g *= g
    g *= 1.0 - b2
    s.v *= b2
    s.v += g
    denom = np.divide(s.v, 1.0 - b2 ** s.t, out=g)   # v_hat
    np.sqrt(denom, out=denom)
    denom += cfg.eps_adam
    step = np.divide(s.m, 1.0 - b1 ** s.t, out=tmp)  # m_hat
    step /= denom
    step += np.multiply(theta, cfg.weight_decay, out=g)
    step *= cfg.lr
    theta -= step


def _dataset_xy(data: AlignedDataset) -> tuple[np.ndarray, np.ndarray]:
    X = np.column_stack([data.v_joy, data.av_imu])
    y = np.asarray(data.av_joy, dtype=float)
    return X, y


@np.errstate(over="ignore", invalid="ignore")   # overflow ends in the divergence check
def train(data: AlignedDataset, cfg: TrainConfig = TrainConfig()
          ) -> tuple[MlpParams, LossCurve]:
    """Train the regressor on aligned rows: inputs (v_joy, av_imu), target av_joy.

    Seeded and fully deterministic: weight init, train/test split, and the
    per-epoch shuffles all come from one generator seeded with cfg.seed.
    The loss curve's train MSE is the mean of the squared residuals that
    the epoch's steps return, each at its own step's weights; only the test
    split is evaluated again, after each epoch, through forward, looked up
    as this module's global on each call, so a wrapper patched onto
    mlp.forward times it.  A run whose loss turns non-finite, or a weight
    leaves WEIGHT_DOMAIN, stops with a ValidationError naming the epoch.
    Each step runs loss_and_grads and adamw_step in place on vectors
    private to this call, read through read-only views taken once.  When
    training ends the MlpParams constructor copies and checks the weights;
    it cannot refuse them, since the last epoch's check has passed.  After
    each epoch, AdamW moments of magnitude below the smallest normal float
    are set to zero.
    """
    n = len(data)
    if n < 2 * cfg.batch_size:
        raise ValidationError(f"dataset has {n} rows; batch_size {cfg.batch_size} "
                              f"needs at least {2 * cfg.batch_size}")

    rng = np.random.default_rng(cfg.seed)
    theta = init_params(rng).theta.copy()   # the private working vector
    read_only = theta.view()
    read_only.flags.writeable = False
    p = _Weights(*_views(read_only))        # views that follow theta
    s = AdamState.fresh()
    g, tmp = np.empty(N_PARAMS), np.empty(N_PARAMS)
    grads = _views(g)

    X, y = _dataset_xy(data)
    perm = rng.permutation(n)
    n_test = min(max(int(round(n * cfg.split_fraction)), 1), n - cfg.batch_size)
    test_idx = perm[:n_test]
    train_idx = perm[n_test:]
    X_tr, y_tr = X[train_idx], y[train_idx]
    X_te, y_te = X[test_idx], y[test_idx]

    train_mse = np.empty(cfg.epochs)
    test_mse = np.empty(cfg.epochs)
    n_tr = len(train_idx)
    X_ep, y_ep = np.empty_like(X_tr), np.empty_like(y_tr)
    for epoch in range(cfg.epochs):
        # the epoch's shuffle, gathered once, so that each batch is a slice
        order = rng.permutation(n_tr)
        np.take(X_tr, order, axis=0, out=X_ep)
        np.take(y_tr, order, out=y_ep)
        sse = 0.0
        for start in range(0, n_tr, cfg.batch_size):
            stop = start + cfg.batch_size
            resid = loss_and_grads(p, X_ep[start:stop], y_ep[start:stop], grads)
            sse += resid @ resid
            adamw_step(theta, g, s, cfg, tmp)
        # A unit that stays closed decays its moments into the subnormal
        # range, where every operation on them is slow on some CPUs.  There
        # they change no weight bit: they add under 3e-300 to a step.
        for moment in (s.m, s.v):
            moment[np.abs(moment) < _TINY] = 0.0
        train_mse[epoch] = sse / n_tr
        test_mse[epoch] = np.mean((forward(p, X_te) - y_te) ** 2)
        if not (math.isfinite(train_mse[epoch]) and math.isfinite(test_mse[epoch])
                and np.all(np.abs(theta) <= WEIGHT_DOMAIN)):
            bad = ", ".join(name for name, w in zip(_FIELDS, p)
                            if not np.all(np.abs(w) <= WEIGHT_DOMAIN)) or "none"
            raise ValidationError(
                f"training diverged in epoch {epoch}: train mse {train_mse[epoch]}, "
                f"test mse {test_mse[epoch]}, weights outside +-{WEIGHT_DOMAIN:g} "
                f"in {bad}")
    return MlpParams(*p), LossCurve(train_mse=train_mse, test_mse=test_mse)


def save_model(p: MlpParams, path: str) -> None:
    payload = {
        "version": MODEL_VERSION,
        "layer_sizes": list(LAYER_SIZES),
        "weights": {name: getattr(p, name).tolist() for name in _FIELDS},
    }
    write_json(path, payload)


def _numbers_only(value) -> bool:
    """Whether ``value`` is a JSON number (not a bool) or a list of such
    values, nested to any depth.  ``np.asarray(..., dtype=float)`` alone would
    also take numeric strings, bools and null."""
    if isinstance(value, list):
        return all(map(_numbers_only, value))
    return not isinstance(value, bool) and isinstance(value, (int, float))


def load_model(path: str) -> MlpParams:
    raw = read_json(path)
    if not isinstance(raw, dict) or "version" not in raw:
        raise ParseError(f"{path}: missing version field")
    if raw["version"] != MODEL_VERSION:
        raise ValidationError(
            f"{path}: model version {raw['version']!r}, expected {MODEL_VERSION}")
    if raw.get("layer_sizes") != list(LAYER_SIZES):
        raise ValidationError(
            f"{path}: layer sizes {raw.get('layer_sizes')!r}, "
            f"expected {list(LAYER_SIZES)}")
    weights = raw.get("weights")
    if not isinstance(weights, dict):
        raise ParseError(f"{path}: missing weights table")
    vals = {}
    for name in _FIELDS:
        if name not in weights:
            raise ValidationError(f"{path}: missing tensor {name}")
        try:
            arr = np.asarray(weights[name], dtype=float)
        except (TypeError, ValueError, OverflowError):
            arr = None
        if arr is None or not _numbers_only(weights[name]):
            raise ParseError(f"{path}: tensor {name} must be a rectangular "
                             f"array of numbers") from None
        vals[name] = arr
    with blamed(lambda exc: path):   # a tensor's shape, or a weight outside WEIGHT_DOMAIN
        return MlpParams(**vals)


def write_loss_csv(curve: LossCurve, path: str) -> None:
    write_table(path, LOSS_HEADER,
                (np.arange(len(curve)), curve.train_mse, curve.test_mse))
