"""Per-location neural net machinery with hand-derived gradients.

Everything here operates on (N, dim) float64 arrays where N is the number of
grid locations; receptive field is always 1x1, so a "layer" is a plain affine
map applied at every location. Both models (the per-class localizer and the
segmentation head) are an MLP: a hidden layer, a ReLU, an output layer. MLP
holds the layers and their initializer; a checkpoint is an MLP's flat buffer
as one params.dstn tensor beside a meta.json that records its dimensions
(save_checkpoint). Both models run mlp_forward/mlp_backward, the one chain
of linear_fwd, ReLU, linear_backward and relu_backward. Losses return a
LossValue carrying the scalar loss and gradients w.r.t. their direct inputs.

An MLP keeps its four parameter arrays as views into one flat float64
buffer, `MLP.flat`, in the one layout `MLP.layout` states; `MLP.views` lays
the same shapes over any buffer of that length, such as a gradient buffer,
or over a (C, P) stack of them with a leading class axis. Write parameters
through `set_params` or in place; a rebound layer array is no longer part of
the buffer. The layer ops take such stacked layers too: (C, out, in) weights
map (C, N, in) inputs slice by slice, and a stacked matmul gives each slice
the bits of its own product.

The localizer's max-pooled loss sends its gradient through at most two
locations, so its backward (localization.localizer_loss_and_grads) runs
mlp_backward on those rows only, always as a two-row product: when both
argmaxes are one location, a neighbouring row with zero gradient is added.
A two-row product gives the same bits as the full-grid chain; a one-row
product takes a matrix-vector path that rounds differently.

adam_step is the one Adam: it updates a flat parameter buffer, or a (C, P)
stack of them with a learning rate per row, in place, using the same
elementwise expressions, in the same order, as a per-array update.

Numeric conventions:
  - parameters and loss math are float64; float32 only at storage boundaries
  - max-pooling subgradient: all gradient to the lowest-linear-index argmax
  - ReLU subgradient at exactly 0 is 0
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, NumericError
from .rng import Rng
from .tensor import load_tensor, save_json, save_tensor

PROB_CLAMP = 1e-7


@dataclass
class LinearLayer:
    """Affine map applied per location: y = W x + b; stacked, C of them."""

    weights: np.ndarray  # (out_dim, in_dim) float64, or (C, out_dim, in_dim)
    bias: np.ndarray  # (out_dim,) float64, or (C, out_dim)

    @property
    def in_dim(self) -> int:
        return self.weights.shape[-1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[-2]

    def params(self) -> list[np.ndarray]:
        return [self.weights, self.bias]


def init_linear(rng: Rng, in_dim: int, out_dim: int) -> LinearLayer:
    """Uniform(-a, a) weights with a = sqrt(6 / (fan_in + fan_out)); zero bias.

    Weights are drawn row-major over (out, in) so layouts are reproducible.
    """
    a = math.sqrt(6.0 / (in_dim + out_dim))
    w = rng.uniform_array(out_dim * in_dim, -a, a).reshape(out_dim, in_dim)
    return LinearLayer(weights=w, bias=np.zeros(out_dim, dtype=np.float64))


@dataclass
class MLP:
    """Per-location network: hidden layer, ReLU, output layer. params() lists
    hidden weights, hidden bias, output weights, output bias: views into the
    flat buffer `flat`, which construction fills with copies of the layers'
    arrays."""

    hidden: LinearLayer
    out: LinearLayer
    seed: int  # the initializer's seed

    def __post_init__(self):
        self.flat = np.concatenate([np.ravel(a) for a in self.params()], dtype=np.float64)
        w1, b1, w2, b2 = self.views(self.flat)
        self.hidden, self.out = LinearLayer(w1, b1), LinearLayer(w2, b2)

    # pickles (and deep copies) carry the arrays; unpickling rebuilds the buffer
    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "flat"}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.__post_init__()

    @classmethod
    def initialized(cls, seed: int, in_dim: int, hidden: int, out_dim: int, **fields):
        """Fresh layers from one Rng(seed), the hidden layer drawn first."""
        rng = Rng(seed)
        hidden_layer = init_linear(rng, in_dim, hidden)
        out_layer = init_linear(rng, hidden, out_dim)
        return cls(hidden=hidden_layer, out=out_layer, seed=seed, **fields)

    def params(self) -> list[np.ndarray]:
        return self.hidden.params() + self.out.params()

    @property
    def dims(self) -> tuple[int, int, int]:
        """(in_dim, hidden, out_dim)."""
        return self.hidden.in_dim, self.hidden.out_dim, self.out.out_dim

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Arrays shaped like params() over consecutive spans of flat's last
        axis: (P,) gives the shapes themselves, (C, P) each with a leading C."""
        return self.layout(flat, *self.dims)

    @staticmethod
    def layout(flat: np.ndarray, in_dim: int, hidden: int, out_dim: int) -> list[np.ndarray]:
        """views() of an MLP of these dimensions; DataError unless flat's last
        axis holds exactly its hidden*(in_dim+1) + out_dim*(hidden+1)
        parameters."""
        shapes = ((hidden, in_dim), (hidden,), (out_dim, hidden), (out_dim,))
        sizes = [math.prod(shape) for shape in shapes]
        if flat.shape[-1] != sum(sizes):
            raise DataError(f"{flat.shape[-1]} parameters, want {sum(sizes)} for in_dim "
                            f"{in_dim}, hidden {hidden}, out_dim {out_dim}")
        spans = np.split(flat, np.cumsum(sizes[:-1]), axis=-1)
        return [span.reshape(flat.shape[:-1] + shape) for span, shape in zip(spans, shapes)]

    def set_params(self, params: list[np.ndarray]) -> None:
        """Copy params, shaped like params(), into the buffer."""
        views = self.params()
        if len(params) != len(views):
            raise DataError(f"set_params: {len(params)} arrays, want {len(views)}")
        for view, p in zip(views, params):
            if view.shape != np.shape(p):
                raise DataError(f"set_params: shape {np.shape(p)} != {view.shape}")
            view[...] = p


def linear_fwd(layer: LinearLayer, x: np.ndarray) -> np.ndarray:
    """x: (N, in_dim) -> (N, out_dim); a stacked layer maps (C, N, in_dim)."""
    if x.shape[-1] != layer.in_dim:
        raise DataError(f"linear: input depth {x.shape[-1]} != in_dim {layer.in_dim}")
    y = x @ np.swapaxes(layer.weights, -1, -2)
    y += layer.bias[..., None, :]
    return y


def linear_backward(
    layer: LinearLayer, x: np.ndarray, dy: np.ndarray, input_grad: bool = True,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Returns (dW, db, dx) for upstream gradient dy of shape (N, out_dim), or
    (C, N, out_dim) for a stacked layer; dW and db are written into out when
    given; dx is None when input_grad is False (a first layer needs none)."""
    dw_out, db_out = out or (None, None)
    dw = np.matmul(np.swapaxes(dy, -1, -2), x, out=dw_out)
    db = dy.sum(axis=-2, out=db_out)
    dx = dy @ layer.weights if input_grad else None
    return dw, db, dx


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    return dy * (x > 0.0)


def mlp_forward(params: list[np.ndarray], x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hidden activations a1, outputs y) at x: (N, in_dim), or (C, N, in_dim)
    for a (C, P) stack's views. The ReLU runs in place, so a1 is its own mask
    for mlp_backward: a1 > 0 exactly where its pre-activation is."""
    w1, b1, w2, b2 = params
    a1 = linear_fwd(LinearLayer(w1, b1), x)
    np.maximum(a1, 0.0, out=a1)
    return a1, linear_fwd(LinearLayer(w2, b2), a1)


def mlp_backward(params: list[np.ndarray], x: np.ndarray, a1: np.ndarray, dy: np.ndarray,
                 grads: list[np.ndarray]) -> None:
    """Write into grads, shaped like params, the gradients for upstream dy at
    the outputs of mlp_forward's a1 at x, or of rows of both."""
    w1, b1, w2, b2 = params
    dw1, db1, dw2, db2 = grads
    _, _, da1 = linear_backward(LinearLayer(w2, b2), a1, dy, out=(dw2, db2))
    linear_backward(LinearLayer(w1, b1), x, relu_backward(a1, da1), input_grad=False,
                    out=(dw1, db1))


# ---------------------------------------------------------------------------
# image-level pooling of score maps


@dataclass(frozen=True)
class PoolingTrace:
    """Where the pooled probability came from, for gradient routing.

    fg_loc / bg_loc are flat location indices; the per-pixel scheme routes
    both through one location, the global scheme through two.
    """

    mode: str  # "pixel" | "global"
    fg_loc: int
    bg_loc: int


def _sigmoid(u: float) -> float:
    # saturates to exactly 0.0 / 1.0 in float64 beyond |u| ~ 36.7; the BCE
    # clamp downstream keeps the log finite there
    if u >= 0:
        return 1.0 / (1.0 + math.exp(-u))
    e = math.exp(u)
    return e / (1.0 + e)


def pixel_softmax_prob(fg: np.ndarray, bg: np.ndarray) -> tuple[float, PoolingTrace]:
    """Max over locations of the per-location two-way softmax probability.

    Since sigmoid is monotone this equals sigmoid(max_i (fg_i - bg_i)),
    which is how it is computed; the argmax of the difference is the single
    location gradients flow through.
    """
    return pool_rows("pixel", _score_pair(fg, bg))[0]


def global_softmax_prob(fg: np.ndarray, bg: np.ndarray) -> tuple[float, PoolingTrace]:
    """Two-way softmax of the separate maxima of the fg and bg score maps.

    Equals sigmoid(max_i fg_i - max_l bg_l); gradients flow through the two
    argmax locations.
    """
    return pool_rows("global", _score_pair(fg, bg))[0]


def pool_rows(mode: str, scores: np.ndarray) -> list[tuple[float, PoolingTrace]]:
    """pixel_softmax_prob or global_softmax_prob, by mode, of every row of a
    (C, N, 2) float64 stack of fg / bg scores: the argmaxes (first index on
    ties) over the whole stack at once, each row's sigmoid in scalar math.
    NumericError if any score is non-finite."""
    if not np.all(np.isfinite(scores)):
        raise NumericError("non-finite scores in pooling")
    rows = np.arange(scores.shape[0])
    if mode == "pixel":
        diffs = scores[:, :, 0] - scores[:, :, 1]
        fg_locs = bg_locs = np.argmax(diffs, axis=1)
        logits = diffs[rows, fg_locs]
    elif mode == "global":
        fg_locs, bg_locs = np.argmax(scores, axis=1).T
        logits = scores[rows, fg_locs, 0] - scores[rows, bg_locs, 1]
    else:
        raise DataError(f"unknown pooling mode {mode!r}")
    return [
        (_sigmoid(u), PoolingTrace(mode=mode, fg_loc=i, bg_loc=l))
        for u, i, l in zip(logits.tolist(), fg_locs.tolist(), bg_locs.tolist())
    ]


def _score_pair(fg: np.ndarray, bg: np.ndarray) -> np.ndarray:
    """Two score maps of one image as a (1, N, 2) float64 stack."""
    f = np.asarray(fg, dtype=np.float64).ravel()
    b = np.asarray(bg, dtype=np.float64).ravel()
    if f.size == 0:
        raise DataError("empty score map")
    if f.shape != b.shape:
        raise DataError(f"score map shapes differ: {fg.shape} vs {bg.shape}")
    return np.stack([f, b], axis=1)[None]


@dataclass
class LossValue:
    """Scalar loss plus gradients w.r.t. the op's direct inputs."""

    loss: float
    grads: dict[str, np.ndarray] = field(default_factory=dict)
    clamp_events: int = 0

    def __post_init__(self):
        if not math.isfinite(self.loss):
            raise NumericError(f"non-finite loss {self.loss}")


def bce_loss_and_grad(p: float, label: int, trace: PoolingTrace, n_locations: int) -> LossValue:
    """Binary cross-entropy on a pooled probability, routed back to score maps.

    Returns gradients d_fg / d_bg over the flattened maps: for either pooling
    scheme dL/du = p - label at the pooled logit u, placed at the traced
    argmax locations and zero elsewhere. p is clamped away from {0, 1} for
    the log only; clamp events are counted.
    """
    clamped = min(max(p, PROB_CLAMP), 1.0 - PROB_CLAMP)
    events = int(clamped != p)
    loss = -(label * math.log(clamped) + (1 - label) * math.log(1.0 - clamped))
    g = p - label  # d loss / d pooled-logit, exact for unclamped sigmoid
    d_fg = np.zeros(n_locations, dtype=np.float64)
    d_bg = np.zeros(n_locations, dtype=np.float64)
    d_fg[trace.fg_loc] += g
    d_bg[trace.bg_loc] -= g
    return LossValue(loss=loss, grads={"fg": d_fg, "bg": d_bg}, clamp_events=events)


def masked_ce_loss_and_grad(logits: np.ndarray, labels: list[tuple[int, int]] | np.ndarray
                            ) -> LossValue:
    """Mean softmax cross-entropy over labeled locations only.

    logits: (N, C+1); labels: (location, class) pairs, as a list of pairs or
    an (m, 2) integer array; duplicates are allowed and counted toward the
    mean. Gradient rows at unlabeled locations are exactly zero. An empty
    label set gives loss 0 and an all-zero gradient. When the labels are
    locations 0 .. N-1 in order (a training batch labels every row once),
    the logits are used as they are and the gradient is the rows' own.
    """
    logits = np.asarray(logits, dtype=np.float64)
    n, n_classes = logits.shape
    pairs = np.asarray(labels, dtype=np.int64).reshape(-1, 2)
    m = pairs.shape[0]
    if m == 0:
        return LossValue(loss=0.0, grads={"logits": np.zeros_like(logits)})
    locs, cls = pairs[:, 0], pairs[:, 1]
    if locs.min() < 0 or locs.max() >= n:
        raise DataError("masked CE: location index out of range")
    if cls.min() < 0 or cls.max() >= n_classes:
        raise DataError("masked CE: class index out of range")
    every_row = m == n and bool(np.all(locs[1:] > locs[:-1]))  # then locs is 0 .. n-1
    rows = logits if every_row else logits[locs]
    shifted = rows - rows.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    log_probs = shifted - log_z[:, None]
    picked = np.arange(m), cls
    loss = -float(log_probs[picked].sum() / m)  # the mean's bits, without its overhead
    row_grad = np.exp(log_probs)
    row_grad[picked] -= 1.0
    row_grad /= m
    if every_row:
        grad = row_grad
    else:
        grad = np.zeros_like(logits)
        np.add.at(grad, locs, row_grad)  # accumulates duplicates
    return LossValue(loss=loss, grads={"logits": grad})


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    """Bias-corrected Adam state; m and v are shaped like the parameter
    buffer, allocated by the first step. lr is a number, or for a (C, P)
    stack a (C,) array with one rate per row."""

    lr: float | np.ndarray
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState) -> None:
    """One update of a flat float64 parameter buffer (P,), or of a (C, P)
    stack of them, in place; advances the state."""
    if params.shape != grads.shape:
        raise DataError(f"adam_step: shape mismatch {params.shape} vs {grads.shape}")
    if state.m is None:
        state.m = np.zeros_like(params)
        state.v = np.zeros_like(params)
    elif state.m.shape != params.shape:
        raise DataError(f"adam_step: parameters {params.shape}, state holds {state.m.shape}")
    state.t += 1
    t = state.t
    m, v, g = state.m, state.v, grads
    # m = beta1 * m + (1 - beta1) * g; v = beta2 * v + (1 - beta2) * g * g
    m *= state.beta1
    m += (1 - state.beta1) * g
    v *= state.beta2
    gg = (1 - state.beta2) * g
    gg *= g
    v += gg
    # p - lr * m_hat / (sqrt(v_hat) + eps)
    denom = v / (1 - state.beta2 ** t)
    np.sqrt(denom, out=denom)
    denom += state.eps
    step = m / (1 - state.beta1 ** t)
    step *= state.lr if np.ndim(state.lr) == 0 else np.asarray(state.lr)[:, None]
    step /= denom
    params -= step


# ---------------------------------------------------------------------------
# finite-difference gradient checking


def grad_check(loss_fn, params: list[np.ndarray], rng: Rng, n_coords: int = 100,
               step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    loss_fn(params) must return (loss, grads) with grads shaped like params.
    Checks a random subsample of at least n_coords coordinates (all of them
    if fewer exist); rel err = |ga - gf| / max(|ga|, |gf|, 1e-8). params
    are copied first: a loss_fn given a model's own parameter views that
    writes its arguments into that model (set_params) would otherwise move
    the base point.
    """
    params = [np.array(p, dtype=np.float64) for p in params]
    loss0, analytic = loss_fn(params)
    if not math.isfinite(loss0):
        raise NumericError("grad_check: non-finite loss")
    sizes = [p.size for p in params]
    total = sum(sizes)
    if total <= n_coords:
        coords = list(range(total))
    else:
        coords = rng.sample_indices(total, n_coords)
    offsets = np.cumsum([0] + sizes)
    worst = 0.0
    for flat in coords:
        pi = int(np.searchsorted(offsets, flat, side="right")) - 1
        j = flat - offsets[pi]
        idx = np.unravel_index(j, params[pi].shape)

        def eval_at(delta):
            bumped = [p.copy() for p in params]
            bumped[pi][idx] += delta
            loss, _ = loss_fn(bumped)
            return loss

        fd = (eval_at(step) - eval_at(-step)) / (2 * step)
        ga = float(analytic[pi][idx])
        err = abs(ga - fd) / max(abs(ga), abs(fd), 1e-8)
        worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# checkpoints: the flat parameter buffer as one DSTN tensor + a JSON sidecar


def save_checkpoint(path, model: MLP, meta: dict) -> None:
    """Write a checkpoint directory: params.dstn, the model's flat buffer
    (params() in order) as one (P,) float32 tensor, and meta.json holding
    meta and the model's in_dim, hidden, out_dim and seed."""
    os.makedirs(path, exist_ok=True)
    save_tensor(model.flat, os.path.join(path, "params.dstn"))
    in_dim, hidden, out_dim = model.dims
    meta = {**meta, "in_dim": in_dim, "hidden": hidden, "out_dim": out_dim, "seed": model.seed}
    save_json(meta, os.path.join(path, "meta.json"))


def load_checkpoint(path, kind: str) -> tuple[dict, dict]:
    """Read a checkpoint written by save_checkpoint with meta["kind"] == kind.

    Returns the MLP fields (hidden, out, seed), with float64 parameters, and
    the meta document. DataError for another kind, an unreadable meta, a
    seed that is not an integer, a dimension that is not an integer >= 1, or
    a params.dstn that is not one axis of exactly the parameters those
    dimensions give.
    """
    try:
        with open(os.path.join(path, "meta.json")) as fh:
            meta = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise DataError(f"{path}: meta.json is not valid JSON: {e}")
    if not isinstance(meta, dict) or meta.get("kind") != kind:
        raise DataError(f"{path}: not a {kind} checkpoint")
    dims = [meta_value(path, meta, key, lambda v: is_int(v) and v >= 1, "an integer >= 1")
            for key in ("in_dim", "hidden", "out_dim")]
    seed = meta_value(path, meta, "seed", is_int, "an integer")
    params = os.path.join(path, "params.dstn")
    flat = load_tensor(params)
    if flat.ndim != 1:
        raise DataError(f"{params}: shape {flat.shape}, want one axis")
    try:
        w1, b1, w2, b2 = MLP.layout(flat, *dims)
    except DataError as e:
        raise DataError(f"{params}: {e}") from None
    return {"hidden": LinearLayer(w1, b1), "out": LinearLayer(w2, b2), "seed": seed}, meta


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def require_count(name: str, value) -> None:
    """ConfigError unless value is at least 1."""
    if value < 1:
        raise ConfigError(f"{name} must be >= 1, got {value!r}")


def require_rate(name: str, value) -> None:
    """ConfigError unless value is a positive finite number."""
    if not (is_number(value) and math.isfinite(value) and value > 0):
        raise ConfigError(f"{name} must be positive and finite, got {value!r}")


def meta_value(path, meta: dict, key: str, valid, want: str):
    """meta[key] of the checkpoint at path; DataError naming its meta.json
    and the key when the key is missing or valid(value) is false."""
    where = os.path.join(path, "meta.json")
    if key not in meta:
        raise DataError(f"{where}: missing key {key!r}")
    if not valid(meta[key]):
        raise DataError(f"{where}: {key!r} must be {want}, got {meta[key]!r}")
    return meta[key]
