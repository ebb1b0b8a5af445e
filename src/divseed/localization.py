"""Per-class localization scorers trained from image-level tags.

Each foreground class gets its own two-layer per-location network producing
a foreground score map and a background score map. Training sees only
image-level presence labels: the maps are pooled to one probability per
image ("pixel" or "global" softmax pooling, see nn) and pushed through
binary cross-entropy. Adding a class later never touches other classes'
models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError
from .nn import (
    MLP,
    AdamState,
    LossValue,
    PoolingTrace,
    adam_step,
    bce_loss_and_grad,
    global_softmax_prob,
    is_int,
    linear_backward,
    linear_fwd,
    load_checkpoint,
    meta_value,
    pixel_softmax_prob,
    relu,
    relu_backward,
    save_checkpoint,
)
from .rng import Rng, derive_seed
from .tensor import FeatureGrid, NormState

POOLING_MODES = ("global", "pixel")

# max-pooled training occasionally collapses both score channels onto one
# profile and flatlines at the ln(2) loss plateau; a run whose last epoch
# loss stays above RESTART_LOSS_THRESHOLD is restarted from a derived seed
# (deterministic), up to MAX_RESTARTS times
RESTART_LOSS_THRESHOLD = 0.5
MAX_RESTARTS = 4

# checkpoint file names of the hidden and output layers: params/layer1_w.dstn ...
_CHECKPOINT_LAYERS = ("layer1", "layer2")


@dataclass(frozen=True)
class TagSet:
    """Image-level labels: which foreground classes appear somewhere."""

    image_id: str
    present: frozenset[int]

    def __contains__(self, class_id: int) -> bool:
        return class_id in self.present


@dataclass(frozen=True)
class ScoreMap:
    """Foreground / background score maps for one (image, class) pair."""

    class_id: int
    image_id: str
    fg: np.ndarray  # (H, W) float32
    bg: np.ndarray  # (H, W) float32

    def __post_init__(self):
        if self.fg.shape != self.bg.shape:
            raise DataError("ScoreMap fg/bg shapes differ")
        if not (np.all(np.isfinite(self.fg)) and np.all(np.isfinite(self.bg))):
            raise NumericError("non-finite score map")

    def fg_flat(self) -> np.ndarray:
        return self.fg.astype(np.float64).ravel()


@dataclass
class LocalizationModel(MLP):
    """hidden-ReLU-2 per-location network; output channel 0 is the foreground
    score, channel 1 the background score."""

    class_id: int
    pooling: str


@dataclass(frozen=True)
class LocConfig:
    hidden: int = 64
    # (epochs, learning rate) pairs run in order: two epochs, then a 10x lr
    # drop for one more, batch of one image. Magnitudes are set for unit-norm
    # features at desk scale; pass your own schedule for other feature scales.
    lr_schedule: tuple[tuple[int, float], ...] = ((2, 2e-2), (1, 2e-3))
    pooling: str = "global"

    def __post_init__(self):
        if self.pooling not in POOLING_MODES:
            raise DataError(f"unknown pooling mode {self.pooling!r}")


@dataclass
class LocTrainResult:
    model: LocalizationModel
    epoch_losses: list[float]
    negative_ids: list[str]  # the sampled balanced negatives, for the log
    clamp_events: int = 0
    restarts: int = 0


def new_localization_model(class_id: int, in_dim: int, config: LocConfig, seed: int
                           ) -> LocalizationModel:
    return LocalizationModel.initialized(
        seed, in_dim, config.hidden, 2, class_id=class_id, pooling=config.pooling
    )


def _forward_scores(model: LocalizationModel, x: np.ndarray):
    """x: (N, D) float64 -> (h1 pre-act, hidden act, (N, 2) scores)."""
    h1 = linear_fwd(model.hidden, x)
    a1 = relu(h1)
    y = linear_fwd(model.out, a1)
    return h1, a1, y


def score_batch(model: LocalizationModel, x: np.ndarray) -> np.ndarray:
    """One forward pass over the locations of B images of one grid size.

    x: (B, N, D) float64 unit features -> (B, N, 2) float32 fg/bg scores,
    each image's equal bit for bit to its own forward pass. NumericError if
    any score is non-finite.
    """
    b, n, d = x.shape
    _, _, y = _forward_scores(model, x.reshape(b * n, d))
    scores = y.astype(np.float32).reshape(b, n, 2)
    if not np.all(np.isfinite(scores)):
        raise NumericError("non-finite score map")
    return scores


def score_image(model: LocalizationModel, f: FeatureGrid, image_id: str = "") -> ScoreMap:
    """Deterministic forward pass to fg/bg maps at feature-grid resolution."""
    _require_unit(f)
    g = f.grid
    y = score_batch(model, g.locations().astype(np.float64)[None])[0]
    fg = np.ascontiguousarray(y[:, 0]).reshape(g.height, g.width)
    bg = np.ascontiguousarray(y[:, 1]).reshape(g.height, g.width)
    return ScoreMap(class_id=model.class_id, image_id=image_id, fg=fg, bg=bg)


def pooled_probability(model_pooling: str, fg: np.ndarray, bg: np.ndarray
                       ) -> tuple[float, PoolingTrace]:
    if model_pooling == "pixel":
        return pixel_softmax_prob(fg, bg)
    if model_pooling == "global":
        return global_softmax_prob(fg, bg)
    raise DataError(f"unknown pooling mode {model_pooling!r}")


def _require_unit(f: FeatureGrid) -> None:
    if f.norm_state != NormState.UNIT:
        raise DataError(f"expected unit-normalized features, got {f.norm_state.value}")


def train_localizer(
    class_id: int,
    dataset: list[tuple[FeatureGrid, TagSet]],
    config: LocConfig,
    seed: int,
) -> LocTrainResult:
    """Train one class's localizer on its positives plus an equal number of
    randomly sampled negatives (batch = one image, Adam, staged lr).

    Negatives are drawn without replacement when enough exist, otherwise with
    replacement up to the positive count. Same seed and data give a
    bit-identical model. A run that never leaves the chance-level loss
    plateau is retrained from a derived seed (see MAX_RESTARTS). Raises
    DataError without at least one positive and one negative; raises
    NumericError (with the step) if the loss goes non-finite.
    """
    result = _train_localizer_once(class_id, dataset, config, seed)
    attempt = 0
    while (
        result.epoch_losses[-1] > RESTART_LOSS_THRESHOLD
        and attempt < MAX_RESTARTS
    ):
        attempt += 1
        result = _train_localizer_once(
            class_id, dataset, config, derive_seed(seed, 0x7E57A47 + attempt)
        )
    result.restarts = attempt
    return result


def _train_localizer_once(
    class_id: int,
    dataset: list[tuple[FeatureGrid, TagSet]],
    config: LocConfig,
    seed: int,
) -> LocTrainResult:
    for f, _ in dataset:
        _require_unit(f)
    positives = [(f, t) for f, t in dataset if class_id in t]
    negative_pool = [(f, t) for f, t in dataset if class_id not in t]
    if not positives:
        raise DataError(f"class {class_id}: no positive images")
    if not negative_pool:
        raise DataError(f"class {class_id}: no negative images")

    rng = Rng(derive_seed(seed, 0x10C))
    n_pos = len(positives)
    if len(negative_pool) >= n_pos:
        chosen = rng.sample_indices(len(negative_pool), n_pos)
    else:
        chosen = [rng.randint(len(negative_pool)) for _ in range(n_pos)]
    negatives = [negative_pool[i] for i in chosen]

    in_dim = dataset[0][0].grid.depth
    model = new_localization_model(class_id, in_dim, config, derive_seed(seed, 0x1417))

    batches = [(f, 1) for f, _ in positives] + [(f, 0) for f, _ in negatives]
    epoch_losses: list[float] = []
    clamp_events = 0
    step = 0
    state: AdamState | None = None
    for epochs, lr in config.lr_schedule:
        for _ in range(epochs):
            # keep accumulated moments across the lr drop, like a lr scheduler
            if state is None:
                state = AdamState(lr=lr)
            else:
                state.lr = lr
            order = list(range(len(batches)))
            rng.shuffle(order)
            total = 0.0
            for bi in order:
                f, label = batches[bi]
                loss_value = _loc_step(model, f, label, state)
                step += 1
                if not np.isfinite(loss_value.loss):
                    raise NumericError(
                        f"class {class_id}: non-finite loss at step {step}"
                    )
                clamp_events += loss_value.clamp_events
                total += loss_value.loss
            epoch_losses.append(total / len(batches))
    return LocTrainResult(
        model=model,
        epoch_losses=epoch_losses,
        negative_ids=[t.image_id for _, t in negatives],
        clamp_events=clamp_events,
    )


def _loc_step(model: LocalizationModel, f: FeatureGrid, label: int,
              state: AdamState) -> LossValue:
    """One image: forward, pooled BCE, sparse backward, Adam update."""
    lv, grads = localizer_loss_and_grads(
        model, f.grid.locations().astype(np.float64), label
    )
    model.set_params(adam_step(model.params(), grads, state))
    return lv


def localizer_loss_and_grads(model: LocalizationModel, x: np.ndarray, label: int
                             ) -> tuple[LossValue, list[np.ndarray]]:
    """Pooled BCE of one image and its gradients w.r.t. model.params().

    x: (N, D) float64 locations. The pooled loss depends on the scores at
    its fg/bg argmax locations only, so the backward runs on those rows
    alone; the result equals the full-grid chain bit for bit (see nn).
    """
    h1, a1, y = _forward_scores(model, x)
    p, trace = pooled_probability(model.pooling, y[:, 0], y[:, 1])
    lv = bce_loss_and_grad(p, label, trace, n_locations=x.shape[0])
    rows = _gradient_rows(trace, x.shape[0])
    dy = np.stack([lv.grads["fg"][rows], lv.grads["bg"][rows]], axis=1)
    dw2, db2, da1 = linear_backward(model.out, a1[rows], dy)
    dh1 = relu_backward(h1[rows], da1)
    dw1, db1, _ = linear_backward(model.hidden, x[rows], dh1, input_grad=False)
    return lv, [dw1, db1, dw2, db2]


def _gradient_rows(trace: PoolingTrace, n_locations: int) -> list[int]:
    """The traced locations as two distinct rows in ascending order; when
    they coincide, a neighbouring row (zero gradient) is the second."""
    a, b = sorted((trace.fg_loc, trace.bg_loc))
    if a != b:
        return [a, b]
    if n_locations == 1:
        return [a]
    return [a, a + 1] if a + 1 < n_locations else [a - 1, a]


def save_loc_checkpoint(path, result: LocTrainResult) -> None:
    """Checkpoint directory: params as DSTN tensors + JSON sidecar."""
    m = result.model
    save_checkpoint(
        path,
        m,
        _CHECKPOINT_LAYERS,
        meta={
            "kind": "localization",
            "class_id": m.class_id,
            "pooling": m.pooling,
            "epoch_losses": result.epoch_losses,
            "negative_ids": result.negative_ids,
            "clamp_events": result.clamp_events,
        },
    )


def load_loc_checkpoint(path) -> LocalizationModel:
    fields, meta = load_checkpoint(path, "localization", _CHECKPOINT_LAYERS)
    return LocalizationModel(
        **fields,
        class_id=meta_value(path, meta, "class_id", is_int, "an integer"),
        pooling=meta_value(path, meta, "pooling", lambda v: v in POOLING_MODES,
                           f"one of {POOLING_MODES}"),
    )
