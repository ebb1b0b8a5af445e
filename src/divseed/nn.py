"""Per-location neural net machinery with hand-derived gradients.

Everything here operates on (N, dim) arrays where N is the number of grid
locations; receptive field is always 1x1, so a "layer" is a plain affine
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
elementwise expressions, in the same order, as a per-array update in the
gradients' dtype. Its intermediate results go to scratch buffers its state
allocates beside the moments, so only its first step allocates.

A training step allocates none of its activations or gradients:
mlp_forward and mlp_backward write activations, outputs, the hidden
gradient and the ReLU mask into a caller's step workspace through numpy's
out=, and softmax_ce_rows can overwrite the logits with their gradient.
The float operations and their order are those of the unbuffered calls
(out=None), so the results keep their bits.

Numeric conventions:
  - mixed precision: parameters (MLP.flat) and the loss math (pooling, BCE,
    softmax) are float64; the products of mlp_forward and mlp_backward run
    in the dtype of the arrays they are given, which a training step's
    workspace sets: float32 to train, score and predict, float64 for
    gradient checks. A float32 step copies the float64 master parameters
    into its float32 buffer, reads its scores or logits back as float64 for
    the loss, and hands float32 gradients to adam_step, whose moments and
    update are then float32 too
  - max-pooling subgradient: all gradient to the lowest-linear-index argmax
  - ReLU subgradient at exactly 0 is 0
"""

from __future__ import annotations

import math
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, NumericError, check_fields, is_count, is_int
from .rng import Rng
from .tensor import _require_finite, load_json, load_tensor, save_json, save_tensor

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


def linear_fwd(layer: LinearLayer, x: np.ndarray, out: np.ndarray | None = None
               ) -> np.ndarray:
    """x: (N, in_dim) -> (N, out_dim); a stacked layer maps (C, N, in_dim).
    The result is written into out when given."""
    if x.shape[-1] != layer.in_dim:
        raise DataError(f"linear: input depth {x.shape[-1]} != in_dim {layer.in_dim}")
    y = np.matmul(x, layer.weights.swapaxes(-1, -2), out=out)
    y += layer.bias[..., None, :]
    return y


def linear_backward(
    layer: LinearLayer, x: np.ndarray, dy: np.ndarray, input_grad: bool = True,
    out: tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Returns (dW, db, dx) for upstream gradient dy of shape (N, out_dim), or
    (C, N, out_dim) for a stacked layer, each written into its array of out
    where that is given; dx is None when input_grad is False (a first layer
    needs none)."""
    dw_out, db_out, dx_out = out or (None, None, None)
    dw = np.matmul(dy.swapaxes(-1, -2), x, out=dw_out)
    db = dy.sum(axis=-2, out=db_out)
    dx = np.matmul(dy, layer.weights, out=dx_out) if input_grad else None
    return dw, db, dx


def relu_backward(x: np.ndarray, dy: np.ndarray, out: np.ndarray | None = None,
                  mask: np.ndarray | None = None) -> np.ndarray:
    """dy times (x > 0), into out (which may be dy) and the mask into mask
    when given."""
    return np.multiply(dy, np.greater(x, 0.0, out=mask), out=out)


def mlp_forward(params: list[np.ndarray], x: np.ndarray,
                out: tuple[np.ndarray, np.ndarray] | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
    """(hidden activations a1, outputs y) at x: (N, in_dim), or (C, N, in_dim)
    for a (C, P) stack's views, written into out's two arrays when given. The
    ReLU runs in place, so a1 is its own mask for mlp_backward: a1 > 0
    exactly where its pre-activation is."""
    w1, b1, w2, b2 = params
    a1_out, y_out = out or (None, None)
    a1 = linear_fwd(LinearLayer(w1, b1), x, out=a1_out)
    np.maximum(a1, 0.0, out=a1)
    return a1, linear_fwd(LinearLayer(w2, b2), a1, out=y_out)


def mlp_backward(params: list[np.ndarray], x: np.ndarray, a1: np.ndarray, dy: np.ndarray,
                 grads: list[np.ndarray],
                 out: tuple[np.ndarray, np.ndarray] | None = None) -> None:
    """Write into grads, shaped like params, the gradients for upstream dy at
    the outputs of mlp_forward's a1 at x, or of rows of both. out, when
    given, holds an array of a1's dtype and a bool array shaped like a1, for
    the hidden layer's upstream gradient (masked in place) and the ReLU
    mask."""
    w1, b1, w2, b2 = params
    dw1, db1, dw2, db2 = grads
    da1_out, mask = out or (None, None)
    _, _, da1 = linear_backward(LinearLayer(w2, b2), a1, dy, out=(dw2, db2, da1_out))
    linear_backward(LinearLayer(w1, b1), x, relu_backward(a1, da1, out=da1, mask=mask),
                    input_grad=False, out=(dw1, db1, None))


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
    return _pool_one("pixel", fg, bg)


def global_softmax_prob(fg: np.ndarray, bg: np.ndarray) -> tuple[float, PoolingTrace]:
    """Two-way softmax of the separate maxima of the fg and bg score maps.

    Equals sigmoid(max_i fg_i - max_l bg_l); gradients flow through the two
    argmax locations.
    """
    return _pool_one("global", fg, bg)


def pool_rows(mode: str, scores: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pooled logits of every row of a (C, N, 2) stack of fg / bg scores,
    read as float64, by mode, and the locations they come from: (fg_locs,
    bg_locs, logits), each (C,), the argmaxes (first index on ties) taken
    over the whole stack at once. A row's pooled probability is the sigmoid
    of its logit (pixel_softmax_prob, global_softmax_prob; bce_rows); the
    pixel scheme's fg and bg locations are one. NumericError if any score
    is non-finite."""
    scores = np.asarray(scores, dtype=np.float64)
    _require_finite(scores, "pooling scores")
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
    return fg_locs, bg_locs, logits


def _pool_one(mode: str, fg: np.ndarray, bg: np.ndarray) -> tuple[float, PoolingTrace]:
    """The one-row call of pool_rows: the pooled probability of one image's
    two score maps, read as float64, and its trace."""
    f = np.asarray(fg, dtype=np.float64).ravel()
    b = np.asarray(bg, dtype=np.float64).ravel()
    if f.size == 0:
        raise DataError("empty score map")
    if f.shape != b.shape:
        raise DataError(f"score map shapes differ: {fg.shape} vs {bg.shape}")
    fg_locs, bg_locs, logits = pool_rows(mode, np.stack([f, b], axis=1)[None])
    return _sigmoid(float(logits[0])), PoolingTrace(mode, int(fg_locs[0]), int(bg_locs[0]))


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
    loss, g, events = bce_pooled(p, label)
    d_fg = np.zeros(n_locations, dtype=np.float64)
    d_bg = np.zeros(n_locations, dtype=np.float64)
    d_fg[trace.fg_loc] += g
    d_bg[trace.bg_loc] -= g
    return LossValue(loss=loss, grads={"fg": d_fg, "bg": d_bg}, clamp_events=events)


def bce_pooled(p: float, label: int) -> tuple[float, float, int]:
    """bce_loss_and_grad's scalars: the loss, dL/du = p - label at the pooled
    logit u, and the clamp events (0 or 1)."""
    clamped = min(max(p, PROB_CLAMP), 1.0 - PROB_CLAMP)
    loss = -(label * math.log(clamped) + (1 - label) * math.log(1.0 - clamped))
    return loss, p - label, int(clamped != p)  # p - label: exact for unclamped sigmoid


def bce_rows(logits: np.ndarray, labels: list[int]
             ) -> tuple[tuple[float, ...], tuple[float, ...], tuple[int, ...]]:
    """bce_pooled of each row's pooled probability, the sigmoid of its pooled
    logit (pool_rows), against its label: the C losses, dL/du and clamp
    events. The sigmoid and the logs stay scalar math.exp / math.log calls,
    as pixel_softmax_prob and bce_loss_and_grad make them: numpy's exp
    rounds some values differently."""
    losses, grads, events = zip(*(bce_pooled(_sigmoid(u), label)
                                  for u, label in zip(logits.tolist(), labels)))
    return losses, grads, events


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
    loss, row_grad = softmax_ce_rows(logits if every_row else logits[locs], cls)
    if every_row:
        grad = row_grad
    else:
        grad = np.zeros_like(logits)
        np.add.at(grad, locs, row_grad)  # accumulates duplicates
    return LossValue(loss=loss, grads={"logits": grad})


def softmax_ce_rows(logits: np.ndarray, cls: np.ndarray, out: np.ndarray | None = None
                    ) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy of the rows of logits (m, K), row i against
    class cls[i] in 0 .. K-1, and its gradient w.r.t. the logits, written into
    out (which may be logits itself) when given."""
    m = logits.shape[0]
    grad = np.subtract(logits, logits.max(axis=1, keepdims=True), out=out)
    log_z = np.log(np.exp(grad).sum(axis=1))
    grad -= log_z[:, None]  # the log-probabilities
    picked = np.arange(m), cls
    loss = -float(grad[picked].sum() / m)  # the mean's bits, without its overhead
    np.exp(grad, out=grad)
    grad[picked] -= 1.0
    grad /= m
    return loss, grad


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    """Bias-corrected Adam state. m and v, and the two scratch buffers a step
    keeps its intermediate results in, are arrays shaped like the parameter
    buffer in the dtype of the gradients, allocated by the first step; for
    gradients narrower than the parameters, a third scratch buffer in the
    parameters' dtype takes the update before it is subtracted (a
    mixed-dtype subtraction would allocate a cast buffer each step). lr is a
    number, or for a (C, P) stack a (C,) array with one rate per row."""

    lr: float | np.ndarray
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    scratch: tuple[np.ndarray, ...] | None = None

    def keep(self, rows: list[int]) -> None:
        """Keep only these rows of a (C, P) stack's moments; the scratch
        shrinks with them (its contents do not carry over a step)."""
        if self.m is not None:
            self.m, self.v = self.m[rows], self.v[rows]
            self.scratch = tuple(s[: len(rows)] for s in self.scratch)


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState) -> None:
    """One update of a flat float64 parameter buffer (P,), or of a (C, P)
    stack of them, in place; advances the state. The moments and the update
    are computed in the gradients' dtype, float32 from a training step's
    workspace, float64 from a gradient check's, and only the update is
    subtracted from the parameters in their own dtype: the wide type holds
    the master weights alone (Micikevicius et al. 2018). The update is
    Kingma & Ba's reordered form (2015, section 2): both bias corrections
    fold into the step size alpha_t = lr * sqrt(1 - beta2^t) / (1 - beta1^t),
    rounded to the gradients' dtype (per row for a stack, as a per-row
    update's scalar would be), and eps into eps_hat = eps * sqrt(1 - beta2^t),
    which is the textbook update up to rounding. Allocates nothing
    parameter-sized after the first step."""
    if params.shape != grads.shape:
        raise DataError(f"adam_step: shape mismatch {params.shape} vs {grads.shape}")
    if state.m is None:
        state.m = np.zeros(grads.shape, grads.dtype)
        state.v = np.zeros(grads.shape, grads.dtype)
        wide = [] if grads.dtype == params.dtype else [np.empty_like(params)]
        state.scratch = (np.empty(grads.shape, grads.dtype), np.empty(grads.shape, grads.dtype),
                         *wide)
    elif (state.m.shape, state.m.dtype) != (params.shape, grads.dtype):
        raise DataError(f"adam_step: {grads.dtype} gradients {params.shape}, state holds "
                        f"{state.m.dtype} {state.m.shape}")
    state.t += 1
    t = state.t
    m, v = state.m, state.v
    a, u, *wide = state.scratch
    # m = beta1 * m + (1 - beta1) * g; v = beta2 * v + (1 - beta2) * g * g
    m *= state.beta1
    m += np.multiply(1 - state.beta1, grads, out=a)
    v *= state.beta2
    np.multiply(1 - state.beta2, grads, out=a)
    a *= grads
    v += a
    # p - alpha_t * m / (sqrt(v) + eps_hat)
    root = math.sqrt(1 - state.beta2 ** t)
    alpha = np.multiply(state.lr, root / (1 - state.beta1 ** t)).astype(grads.dtype)
    np.sqrt(v, out=a)
    a += state.eps * root
    if m.ndim == 1:
        np.multiply(m, alpha, out=u)
    else:  # row by row: numpy would buffer a broadcast column of rates, allocating
        for m_row, u_row, rate in zip(m, u, np.broadcast_to(alpha, len(m))):
            np.multiply(m_row, rate, out=u_row)
    u /= a
    if wide:
        np.copyto(wide[0], u)
        u = wide[0]
    params -= u


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
    the base point. The analytic gradients are copied too, so a loss_fn may
    write every call's gradients into one workspace.
    """
    params = [np.array(p, dtype=np.float64) for p in params]
    loss0, analytic = loss_fn(params)
    analytic = [np.array(g, dtype=np.float64) for g in analytic]
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
    meta and the model's in_dim, hidden, out_dim and seed. Both go into a
    temporary directory beside path, which then takes path's place, so a
    failed write leaves the old pair (or none), never a mix. ConfigError,
    touching nothing, if path exists and is not a directory holding only
    those two files."""
    path = os.path.normpath(path)
    if os.path.lexists(path) and (os.path.islink(path) or not os.path.isdir(path)
                                  or not set(os.listdir(path)) <= {"meta.json", "params.dstn"}):
        raise ConfigError(f"{path} exists and is not a checkpoint directory; not replacing it")
    tmp, old = f"{path}.tmp{os.getpid()}", f"{path}.old{os.getpid()}"
    in_dim, hidden, out_dim = model.dims
    meta = {**meta, "in_dim": in_dim, "hidden": hidden, "out_dim": out_dim, "seed": model.seed}
    os.makedirs(tmp)
    moved = False
    try:
        save_tensor(model.flat, os.path.join(tmp, "params.dstn"))
        save_json(meta, os.path.join(tmp, "meta.json"))
        if os.path.isdir(path):
            os.rename(path, old)
            moved = True
        try:
            os.rename(tmp, path)
        except OSError:
            if moved:
                moved = False  # keep old if it cannot go back either
                os.rename(old, path)
            raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if moved:
            shutil.rmtree(old, ignore_errors=True)


#: the meta.json fields of every checkpoint: (key, check, what it must be)
_META_FIELDS = (
    ("in_dim", is_count, "an integer >= 1"),
    ("hidden", is_count, "an integer >= 1"),
    ("out_dim", is_count, "an integer >= 1"),
    ("seed", is_int, "an integer"),
)


def load_checkpoint(path, kind: str) -> tuple[dict, dict]:
    """Read a checkpoint written by save_checkpoint with meta["kind"] == kind.

    Returns the MLP fields (hidden, out, seed), with float64 parameters, and
    the meta document. DataError for another kind, an unreadable meta, a
    seed that is not an integer, a dimension that is not an integer >= 1, or
    a params.dstn that is not one axis of exactly the parameters those
    dimensions give; NumericError naming params.dstn for a non-finite value.
    """
    where = os.path.join(path, "meta.json")
    meta = load_json(where, DataError)
    _, *dims, seed = check_fields(
        meta, (("kind", lambda v: v == kind, repr(kind)), *_META_FIELDS), where, DataError)
    params = os.path.join(path, "params.dstn")
    flat = load_tensor(params)
    if flat.ndim != 1:
        raise DataError(f"{params}: shape {flat.shape}, want one axis")
    _require_finite(flat, params)
    try:
        w1, b1, w2, b2 = MLP.layout(flat, *dims)
    except DataError as e:
        raise DataError(f"{params}: {e}") from None
    return {"hidden": LinearLayer(w1, b1), "out": LinearLayer(w2, b2), "seed": seed}, meta
