"""Small fully connected regressor: 2 inputs -> 32 -> 32 -> 1 output.

Maps (commanded velocity, observed yaw rate) to the joystick yaw rate that
produced it.  ReLU hidden layers, linear output head, MSE loss, analytic
backpropagation, AdamW updates.  Everything runs in double precision on
plain numpy arrays; no input normalization is applied.

The weights live in one contiguous float64 vector.  A training step
backpropagates into one flat gradient vector and runs AdamW in place on
whole vectors, so it allocates little beyond the batch's activations.
Weights are validated where they enter or leave the program (the named
constructor, model files) and where training could diverge (the config and
the end of each epoch), not on every step.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .align import AlignedDataset
from .errors import ParseError, ValidationError
from .fileio import read_json, write_json, write_table

LAYER_SIZES = (2, 32, 32, 1)
MODEL_VERSION = 1
LOSS_HEADER = "epoch,train_mse,test_mse"

_FIELDS = ("W1", "b1", "W2", "b2", "W3", "b3")
_SHAPES = {
    "W1": (32, 2), "b1": (32,),
    "W2": (32, 32), "b2": (32,),
    "W3": (1, 32), "b3": (1,),
}
_STOPS = tuple(itertools.accumulate(math.prod(_SHAPES[n]) for n in _FIELDS))
N_PARAMS = _STOPS[-1]   # 1185 weights
_TINY = np.finfo(float).tiny  # smallest normal float64
# (name, slice of the flat vector, shape) of each tensor, in _FIELDS order
_LAYOUT = tuple((name, slice(lo, hi), _SHAPES[name])
                for name, lo, hi in zip(_FIELDS, (0,) + _STOPS[:-1], _STOPS))


@dataclass(frozen=True)
class MlpParams:
    """Network weights; shapes are fixed by LAYER_SIZES.

    ``theta`` holds every weight in one read-only float64 vector, in
    _FIELDS order; W1, b1, W2, b2, W3 and b3 are reshaped views of it,
    bound once when the object is built.  The named constructor copies and
    validates its tensors; ``_from_flat`` adopts a vector unchecked and is
    meant for the optimizer only.
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
        self._bind(np.concatenate(tensors, axis=None))
        if not np.isfinite(self.theta).all():
            raise ValidationError(
                f"{_nonfinite_tensors(self)[0]} contains non-finite values")

    def _bind(self, theta: np.ndarray) -> None:
        theta.flags.writeable = False
        # One __dict__ update instead of seven frozen-dataclass setattrs:
        # adamw_step builds an MlpParams on every call.
        self.__dict__.update(zip(_FIELDS, _views(theta)), theta=theta)

    @classmethod
    def _from_flat(cls, theta: np.ndarray) -> "MlpParams":
        """Wrap a float64 vector of N_PARAMS values without validating it."""
        p = object.__new__(cls)
        p._bind(theta)
        return p

    @classmethod
    def zeros(cls) -> "MlpParams":
        return cls._from_flat(np.zeros(N_PARAMS))


def _views(flat: np.ndarray) -> tuple[np.ndarray, ...]:
    """W1, b1, W2, b2, W3 and b3 as reshaped views of a flat vector."""
    return tuple(flat[span].reshape(shape) for _, span, shape in _LAYOUT)


def _nonfinite_tensors(p: MlpParams) -> list[str]:
    """Names of the tensors of p that hold a NaN or an infinity."""
    return [name for name in _FIELDS if not np.all(np.isfinite(getattr(p, name)))]


def init_params(rng: np.random.Generator) -> MlpParams:
    """Uniform init in +-1/sqrt(fan_in), applied to weights and biases."""
    vals = {}
    fan_in = {"W1": 2, "b1": 2, "W2": 32, "b2": 32, "W3": 32, "b3": 32}
    for name in _FIELDS:
        bound = 1.0 / np.sqrt(fan_in[name])
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
                    or not math.isfinite(value)):
                raise ValidationError(f"{name} must be a finite number, got {value!r}")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValidationError("epochs must be >= 1")
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
    train_mse: np.ndarray
    test_mse: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "train_mse", np.asarray(self.train_mse, dtype=float))
        object.__setattr__(self, "test_mse", np.asarray(self.test_mse, dtype=float))
        if self.train_mse.shape != self.test_mse.shape:
            raise ValidationError("loss curve arrays must have equal length")
        if np.any(self.train_mse < 0) or np.any(self.test_mse < 0):
            raise ValidationError("mse values must be non-negative")

    def __len__(self) -> int:
        return self.train_mse.size


_EVAL_ROWS = 4096   # rows per chunk of the per-epoch evaluation


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
    """
    X = np.asarray(inputs, dtype=float)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != 2:
        raise ValidationError(f"inputs must have shape (2,) or (n, 2), got {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValidationError("inputs must be finite")
    out = _forward_batch(p, X)[2]
    return float(out[0]) if single else out


def _backprop(p: MlpParams, X: np.ndarray, y: np.ndarray, grads: tuple) -> np.ndarray:
    """Write the exact gradient of the batch MSE into ``grads``, the _views
    of one flat vector, and return the residuals out - y.

    Each weight gradient is computed straight into its view (matmul and sum
    with ``out=``) and each ReLU mask is applied in place on its delta.  The
    products are the per-tensor ones, term for term, so the bits are too:
    d * (a > 0) gives -0.0 for a negative delta behind a closed unit either
    way.
    """
    g_W1, g_b1, g_W2, g_b2, g_W3, g_b3 = grads
    a1, a2, out = _forward_batch(p, X)
    resid = out - y
    d_out = (2.0 / X.shape[0]) * resid[:, None]   # (n, 1)
    np.matmul(d_out.T, a2, out=g_W3)
    d_out.sum(axis=0, out=g_b3)
    d_z2 = d_out @ p.W3                            # (n, 32)
    np.multiply(d_z2, a2 > 0.0, out=d_z2)
    np.matmul(d_z2.T, a1, out=g_W2)
    d_z2.sum(axis=0, out=g_b2)
    d_z1 = d_z2 @ p.W2
    np.multiply(d_z1, a1 > 0.0, out=d_z1)
    np.matmul(d_z1.T, X, out=g_W1)
    d_z1.sum(axis=0, out=g_b1)
    return resid


def _adamw(theta: np.ndarray, g: np.ndarray, s: AdamState, cfg: TrainConfig,
           tmp: np.ndarray) -> None:
    """One AdamW update of ``theta`` and ``s`` in place, from the flat gradient
    ``g``.  ``g`` and ``tmp`` are overwritten as scratch.

    m = b1*m + (1-b1)*g,  v = b2*v + (1-b2)*(g*g),
    step = m_hat / (sqrt(v_hat) + eps) + wd*theta,  theta - lr*step:
    evaluated in this order, and so bit for bit, with every product written
    into one of the five vectors.
    """
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


def loss_and_grads(p: MlpParams, X: np.ndarray, y: np.ndarray):
    """MSE over the batch and its exact analytic gradients.

    Returns:
        (mse, grads) with grads keyed like MlpParams fields.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[1] != 2 or y.shape != (X.shape[0],):
        raise ValidationError("batch must be X:(n,2), y:(n,)")
    if X.shape[0] == 0:
        raise ValidationError("batch must be non-empty")
    grads = _views(np.empty(N_PARAMS))
    resid = _backprop(p, X, y, grads)
    return float(np.mean(resid * resid)), dict(zip(_FIELDS, grads))


def adamw_step(p: MlpParams, grads: dict, s: AdamState,
               cfg: TrainConfig) -> tuple[MlpParams, AdamState]:
    """One decoupled-weight-decay Adam update with bias correction.

    Weight decay is applied to every parameter tensor, biases included.
    The update runs on copies of the flat vectors; it returns new objects
    and leaves p, grads and s untouched.  The new weights are not
    validated: train checks them once per epoch.
    """
    g = np.empty(N_PARAMS)
    for name, span, shape in _LAYOUT:
        g_name = np.asarray(grads[name], dtype=float)
        if g_name.shape != shape:
            raise ValidationError(f"grad {name} has shape {g_name.shape}, "
                                  f"expected {shape}")
        g[span] = g_name.ravel()
    theta = p.theta.copy()
    s_new = AdamState(m=s.m.copy(), v=s.v.copy(), t=s.t)
    _adamw(theta, g, s_new, cfg, np.empty(N_PARAMS))
    return MlpParams._from_flat(theta), s_new


def _dataset_xy(data: AlignedDataset) -> tuple[np.ndarray, np.ndarray]:
    X = np.column_stack([data.v_joy, data.av_imu])
    y = np.asarray(data.av_joy, dtype=float)
    return X, y


def _split_mse(p: MlpParams, X: np.ndarray, y: np.ndarray) -> float:
    """MSE of the network over a whole split, a few thousand rows at a time.

    The split is cut into near-equal chunks of at most _EVAL_ROWS rows, so
    the two hidden-layer arrays of a chunk stay under 1.1 MB each instead
    of growing with the split (11.6 MB each on a 45k-row split).  Large
    temporaries that come and go every epoch leave the allocator's heap in
    a state that depends on what ran before, and with it the peak memory of
    a training run.  No chunk is small when the split is not, and squared
    errors are gathered into one vector and averaged once, as a
    whole-split evaluation averages them.
    """
    n = y.size
    chunks = -(-n // _EVAL_ROWS)
    bounds = [n * i // chunks for i in range(chunks + 1)]
    sq = np.empty(n)
    for lo, hi in zip(bounds, bounds[1:]):
        sq[lo:hi] = _forward_batch(p, X[lo:hi])[2] - y[lo:hi]
    sq *= sq
    return float(np.mean(sq))


def train(data: AlignedDataset, cfg: TrainConfig = TrainConfig()
          ) -> tuple[MlpParams, LossCurve]:
    """Train the regressor on aligned rows: inputs (v_joy, av_imu), target av_joy.

    Seeded and fully deterministic: weight init, train/test split, and the
    per-epoch shuffles all come from one generator seeded with cfg.seed.
    The loss curve holds full-split MSE evaluated after each epoch.  A run
    whose loss or weights turn non-finite stops with a ValidationError
    naming the epoch.  Each step runs the two kernels behind loss_and_grads
    and adamw_step in place on vectors private to this call; the weights
    are wrapped once, in a read-only copy, when training ends.  After each
    epoch, AdamW moments of magnitude below the smallest normal float are
    set to zero.
    """
    n = len(data)
    if n < 2 * cfg.batch_size:
        raise ValidationError(
            f"dataset has {n} rows; need at least {2 * cfg.batch_size}")

    rng = np.random.default_rng(cfg.seed)
    theta = init_params(rng).theta.copy()   # the private working vector
    p = MlpParams._from_flat(theta.view())  # read-only views that follow it
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
        for start in range(0, n_tr, cfg.batch_size):
            stop = start + cfg.batch_size
            _backprop(p, X_ep[start:stop], y_ep[start:stop], grads)
            _adamw(theta, g, s, cfg, tmp)
        # A unit that stays closed decays its moments into the subnormal
        # range, where every operation on them is slow on some CPUs.  There
        # they change no weight bit: they add under 3e-300 to a step.
        for moment in (s.m, s.v):
            moment[np.abs(moment) < _TINY] = 0.0
        train_mse[epoch] = _split_mse(p, X_tr, y_tr)
        test_mse[epoch] = _split_mse(p, X_te, y_te)
        if not (math.isfinite(train_mse[epoch]) and math.isfinite(test_mse[epoch])
                and np.all(np.isfinite(theta))):
            bad = ", ".join(_nonfinite_tensors(p)) or "none"
            raise ValidationError(
                f"training diverged in epoch {epoch}: train mse {train_mse[epoch]}, "
                f"test mse {test_mse[epoch]}, non-finite weights in {bad}")
    return MlpParams._from_flat(theta.copy()), LossCurve(train_mse=train_mse,
                                                         test_mse=test_mse)


def save_model(p: MlpParams, path: str) -> None:
    bad = _nonfinite_tensors(p)
    if bad:
        raise ValidationError(
            f"{path}: refusing to save non-finite weights in {', '.join(bad)}")
    payload = {
        "version": MODEL_VERSION,
        "layer_sizes": list(LAYER_SIZES),
        "weights": {name: getattr(p, name).tolist() for name in _FIELDS},
    }
    write_json(path, payload)


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
        except (TypeError, ValueError):
            raise ParseError(f"{path}: tensor {name} must be a rectangular "
                             f"array of numbers") from None
        if arr.shape != _SHAPES[name]:
            raise ValidationError(
                f"{path}: tensor {name} has shape {arr.shape}, "
                f"expected {_SHAPES[name]}")
        vals[name] = arr
    try:
        return MlpParams(**vals)
    except ValidationError as exc:  # a non-finite weight
        raise ValidationError(f"{path}: {exc}") from None


def write_loss_csv(curve: LossCurve, path: str) -> None:
    write_table(path, LOSS_HEADER,
                (np.arange(len(curve)), curve.train_mse, curve.test_mse))
