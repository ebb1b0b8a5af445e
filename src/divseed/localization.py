"""Per-class localization scorers trained from image-level tags.

Each foreground class gets its own two-layer per-location network producing
a foreground score map and a background score map. Training sees only
image-level presence labels: the maps are pooled to one probability per
image ("pixel" or "global" softmax pooling, see nn) and pushed through
binary cross-entropy. Adding a class later never touches other classes'
models.

A training set is a list of SupervisionRecords (image id, feature grid,
tags). Both lockstep cores, this module's and sampling's, check it once at
entry with check_records: every grid is unit-normalized and all share one
(H, W, D), else a DataError names the first image at fault.

One core, train_class_localizers, trains the localizers of several classes
together, in lockstep. Each class keeps its own random stream (negatives,
shuffles, initializer), its own ragged epochs and its own restarts; a step
copies the current image of every class still training into the (C, N, D)
images of the lockstep's StepWorkspace and the (C, P) float64 parameter
stack into the workspace's parameter buffer, runs the stacked forward,
pools every class at once (nn.pool_rows) and scores each with scalar
float64 math (nn.bce_rows), runs the stacked two-row backward into the
workspace's (C, P) gradient buffer and takes one Adam step, in the
gradients' dtype, over the parameter stack, all in buffers made once per
lockstep.
The workspace's dtype is the step's compute dtype: float32 to train (the
features' own dtype, so the images are copied, not converted), float64 for
gradient checks. A stacked matmul gives each slice the bits of its own
product, so every class's model equals its one-class training bit for bit.
train_localizer and localizer_loss_and_grads are the one-class calls of the
same core.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigError, DataError, NumericError, check_fields, is_int, require_count,
                     require_rate)
from .nn import (
    MLP,
    AdamState,
    LossValue,
    adam_step,
    bce_rows,
    load_checkpoint,
    mlp_backward,
    mlp_forward,
    pool_rows,
    save_checkpoint,
)
# not called here: perfbench/perftrace.py traces nn ops by the module binding them (NN_OPS)
from .nn import (bce_loss_and_grad, global_softmax_prob, linear_backward,  # noqa: F401
                 linear_fwd, pixel_softmax_prob, relu_backward)
from .rng import Rng, derive_seed
from .tensor import FeatureGrid, NormState, _require_finite

POOLING_MODES = ("global", "pixel")

# max-pooled training occasionally collapses both score channels onto one
# profile and flatlines at the ln(2) loss plateau; a run whose last epoch
# loss stays above RESTART_LOSS_THRESHOLD is restarted from a derived seed
# (deterministic), up to MAX_RESTARTS times
RESTART_LOSS_THRESHOLD = 0.5
MAX_RESTARTS = 4


@dataclass(frozen=True)
class TagSet:
    """Image-level labels: which foreground classes appear somewhere."""

    image_id: str
    present: frozenset[int]

    def __contains__(self, class_id: int) -> bool:
        return class_id in self.present


@dataclass
class SupervisionRecord:
    """One training image: its id, its features and its image-level tags."""

    image_id: str
    features: FeatureGrid  # unit-normalized
    tags: TagSet


def check_records(records: list[SupervisionRecord]) -> None:
    """The input contract of the lockstep cores: every record's features are
    unit-normalized and all grids share the first one's (H, W, D). Raises
    DataError naming the first image that breaks it."""
    for rec in records:
        f = rec.features
        if f.norm_state != NormState.UNIT:
            raise DataError(f"image {rec.image_id!r}: expected unit-normalized "
                            f"features, got {f.norm_state.value}")
        if f.values.shape != records[0].features.values.shape:
            first = records[0]
            raise DataError(f"image {rec.image_id!r}: grid shape {f.values.shape} "
                            f"differs from {first.features.values.shape} of image "
                            f"{first.image_id!r}")


def check_grid(f: FeatureGrid, image_id: str = "") -> None:
    """check_records for one image."""
    check_records([SupervisionRecord(image_id, f, TagSet(image_id, frozenset()))])


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
        _require_finite(np.stack([self.fg, self.bg]), "score map")

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
        # a message names the config key that sets the field
        if self.pooling not in POOLING_MODES:
            raise ConfigError(f"unknown pooling {self.pooling!r}, want one of {POOLING_MODES}")
        require_count("loc_hidden", self.hidden)
        for epochs, lr in self.lr_schedule:
            if epochs < 0:
                raise ConfigError(f"loc_lr_schedule epochs must be >= 0, got {epochs!r}")
            require_rate("loc_lr_schedule learning rate", lr)
        if sum(epochs for epochs, _ in self.lr_schedule) < 1:
            raise ConfigError("loc_lr_schedule runs no epoch")


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


def score_batch(model: LocalizationModel, x: np.ndarray,
                out: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """One float32 forward pass over the locations of B images of one grid
    size, with the parameters rounded to the float32 a checkpoint stores: a
    model scores the same bits before and after a checkpoint round trip.

    x: (B, N, D) float32 unit features -> (B, N, 2) float32 fg/bg scores,
    each image's equal bit for bit to its own forward pass. out, when given,
    holds the forward's (B * N, hidden) and (B * N, 2) float32 activations.
    NumericError if any score is non-finite.
    """
    b, n, d = x.shape
    params = model.views(model.flat.astype(np.float32))
    _, y = mlp_forward(params, x.reshape(b * n, d), out=out)
    scores = y.astype(np.float32).reshape(b, n, 2)
    _require_finite(scores, "score map")
    return scores


def score_image(model: LocalizationModel, f: FeatureGrid, image_id: str = "") -> ScoreMap:
    """Deterministic forward pass to fg/bg maps at feature-grid resolution."""
    check_grid(f, image_id)
    y = score_batch(model, f.locations()[None])[0]
    fg = np.ascontiguousarray(y[:, 0]).reshape(f.height, f.width)
    bg = np.ascontiguousarray(y[:, 1]).reshape(f.height, f.width)
    return ScoreMap(class_id=model.class_id, image_id=image_id, fg=fg, bg=bg)


def train_localizer(
    class_id: int,
    records: list[SupervisionRecord],
    config: LocConfig,
    seed: int,
) -> LocTrainResult:
    """Train one class's localizer on its positives plus an equal number of
    randomly sampled negatives (batch = one image, Adam, staged lr).

    Negatives are drawn without replacement when enough exist, otherwise with
    replacement up to the positive count. Same seed and data give a
    bit-identical model. A run that never leaves the chance-level loss
    plateau is retrained from a derived seed (see MAX_RESTARTS). Raises
    DataError without at least one positive and one negative, or for
    records that break check_records; raises NumericError (with the class
    and step) if the loss goes non-finite. The one-class call of
    train_class_localizers.
    """
    return train_class_localizers([class_id], records, config, [seed])[0]


def train_class_localizers(
    class_ids: list[int],
    records: list[SupervisionRecord],
    config: LocConfig,
    seeds: list[int],
) -> list[LocTrainResult]:
    """train_localizer for each class with its seed, all classes in
    lockstep; each result equals that class's own train_localizer bit for
    bit. Classes whose run stays on the loss plateau are retrained together
    from their derived seeds, up to MAX_RESTARTS times.
    """
    check_records(records)
    results: list[LocTrainResult | None] = [None] * len(class_ids)
    pending = range(len(class_ids))
    for attempt in range(MAX_RESTARTS + 1):
        trained = _train_lockstep([
            _ClassRun.start(class_ids[i], records, config,
                            derive_seed(seeds[i], 0x7E57A47 + attempt) if attempt else seeds[i])
            for i in pending
        ], config.pooling)
        for i, result in zip(pending, trained):
            result.restarts = attempt
            results[i] = result
        pending = [i for i in pending if results[i].epoch_losses[-1] > RESTART_LOSS_THRESHOLD]
        if not pending:
            break
    return results


@dataclass
class _ClassRun:
    """One class's training run: its model, batches and step plan, and the
    losses recorded so far."""

    model: LocalizationModel
    batches: list[tuple[FeatureGrid, int]]  # (image, label)
    negative_ids: list[str]
    plan: list[int]  # batch index per step, every epoch's shuffle in turn
    epoch_lrs: list[float]
    epoch_losses: list[float] = field(default_factory=list)
    clamp_events: int = 0
    total: float = 0.0

    @classmethod
    def start(cls, class_id: int, records: list[SupervisionRecord],
              config: LocConfig, seed: int) -> "_ClassRun":
        """Balanced negatives, the initial model and the whole step plan,
        drawn from the class's stream in the order training uses them."""
        positives = [r for r in records if class_id in r.tags]
        negative_pool = [r for r in records if class_id not in r.tags]
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

        in_dim = records[0].features.depth
        model = new_localization_model(class_id, in_dim, config, derive_seed(seed, 0x1417))
        batches = [(r.features, 1) for r in positives] + [(r.features, 0) for r in negatives]
        plan, epoch_lrs = [], []
        for epochs, lr in config.lr_schedule:
            for _ in range(epochs):
                order = list(range(len(batches)))
                rng.shuffle(order)
                plan += order
                epoch_lrs.append(lr)
        return cls(model, batches, [r.image_id for r in negatives], plan, epoch_lrs)

    def batch(self, step: int) -> tuple[FeatureGrid, int]:
        return self.batches[self.plan[step]]

    def lr(self, step: int) -> float:
        return self.epoch_lrs[step // len(self.batches)]

    def next_epoch(self, step: int) -> int:
        """The first step of the epoch after step's."""
        return (step // len(self.batches) + 1) * len(self.batches)

    def record(self, step: int, loss: float, clamp_events: int) -> None:
        self.clamp_events += clamp_events
        self.total += loss
        if (step + 1) % len(self.batches) == 0:
            self.epoch_losses.append(self.total / len(self.batches))
            self.total = 0.0

    def result(self) -> LocTrainResult:
        return LocTrainResult(
            model=self.model,
            epoch_losses=self.epoch_losses,
            negative_ids=self.negative_ids,
            clamp_events=self.clamp_events,
        )


def _train_lockstep(runs: list[_ClassRun], pooling: str) -> list[LocTrainResult]:
    """Train the runs' models together: step s stacks every unfinished run's
    s-th image, all of one grid shape (check_records), into one (C, N, D)
    array. Rows of the (C, P) parameter stack, its gradient buffer and the
    Adam moments belong to the unfinished runs, in order; a finished run's
    row is copied into its model and dropped. Adam keeps accumulated
    moments across each lr drop, like a lr scheduler; the rows' rates are
    gathered again only when a run starts an epoch or finishes. The steps
    run in a float32 StepWorkspace; the parameter stack stays float64."""
    if not runs:
        return []
    live = list(range(len(runs)))
    params = np.stack([run.model.flat for run in runs])
    n = runs[0].batches[0][0].n_locations
    ws = StepWorkspace(len(runs), n, runs[0].model.dims)
    state = AdamState(lr=0.0)
    step = lrs_until = 0  # the rates in state.lr hold for the steps before lrs_until
    while live:
        finished = [row for row, i in enumerate(live) if len(runs[i].plan) == step]
        if finished:
            for row in finished:
                runs[live[row]].model.flat[:] = params[row]
            keep = [row for row in range(len(live)) if row not in finished]
            live = [live[row] for row in keep]
            params = params[keep]
            state.keep(keep)
            lrs_until = step
            continue
        batch = [runs[i].batch(step) for i in live]
        x = ws.images([f for f, _ in batch])
        try:
            losses, clamp_events = _loss_and_grads(params, pooling, x,
                                                   [label for _, label in batch], ws)
        except NumericError as e:
            ids = [runs[live[j]].model.class_id for j in _diverged(ws.stack(len(live))[0], x)]
            raise NumericError(f"class {', '.join(map(str, ids))}: "
                               f"non-finite loss at step {step + 1}: {e}") from e
        for i, loss, events in zip(live, losses, clamp_events):
            runs[i].record(step, loss, events)
        if step == lrs_until:
            state.lr = np.array([runs[i].lr(step) for i in live])
            lrs_until = min(runs[i].next_epoch(step) for i in live)
        adam_step(params, ws.grad[: len(live)], state)
        step += 1
    return [run.result() for run in runs]


def _diverged(params: list[np.ndarray], x: np.ndarray) -> list[int]:
    """Indexes of the stacked models whose scores on their images are not
    all finite (all of them if none is: then the loss itself diverged)."""
    with np.errstate(all="ignore"):
        _, y = mlp_forward(params, x)
    bad = np.flatnonzero(~np.isfinite(y).all(axis=(1, 2))).tolist()
    return bad or list(range(len(x)))


def localizer_loss_and_grads(model: LocalizationModel, x: np.ndarray, label: int,
                             ws: "StepWorkspace") -> tuple[LossValue, np.ndarray]:
    """Pooled BCE of one image and its gradient w.r.t. model.flat: the
    one-class call of the step the localizers train with, in the workspace
    ws of a model of model's dimensions on images of x's locations (a
    float64 one for a gradient check). Returns the loss and the (P,)
    gradient row of ws, which the next call overwrites.

    x: (N, D) locations. The pooled loss depends on the scores at its fg/bg
    argmax locations only, so the backward runs on those rows alone; the
    result equals the full-grid chain bit for bit (see nn).
    """
    ws.x[0] = x
    losses, clamp_events = _loss_and_grads(model.flat[None], model.pooling, ws.x[:1], [label], ws)
    lv = LossValue(loss=losses[0], clamp_events=clamp_events[0])
    return lv, ws.grad[0]


class StepWorkspace:
    """The arrays a lockstep step writes, for up to `size` models of these
    (in_dim, hidden, out_dim) on images of n locations, in the step's
    compute dtype: the (size, n, in_dim) images x, the (size, P) parameter
    and gradient buffers, the forward's activations and outputs, and the
    two-row backward's rows, inputs, upstream gradients, hidden gradient
    and ReLU mask. A step of C models uses the first C of each. Made once
    per lockstep."""

    def __init__(self, size: int, n: int, dims: tuple[int, int, int],
                 dtype: type = np.float32):
        in_dim, hidden, out_dim = dims
        r = min(n, 2)
        n_params = hidden * (in_dim + 1) + out_dim * (hidden + 1)
        self.params = np.empty((size, n_params), dtype)
        self.grad = np.empty((size, n_params), dtype)
        self.param_views = MLP.layout(self.params, *dims)
        self.grad_views = MLP.layout(self.grad, *dims)
        self.x = np.empty((size, n, in_dim), dtype)
        self.a1 = np.empty((size, n, hidden), dtype)
        self.y = np.empty((size, n, out_dim), dtype)
        self.rows = np.empty((size, r), dtype=np.int64)
        self.x_rows = np.empty((size, r, in_dim), dtype)
        self.a1_rows = np.empty((size, r, hidden), dtype)
        self.dy = np.empty((size, r, out_dim), dtype)
        self.da1 = np.empty((size, r, hidden), dtype)
        self.mask = np.empty((size, r, hidden), dtype=bool)

    def stack(self, c: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """params()-shaped views of the first c rows of the parameter and
        the gradient buffers."""
        return [v[:c] for v in self.param_views], [v[:c] for v in self.grad_views]

    def images(self, features: list[FeatureGrid]) -> np.ndarray:
        """The first len(features) rows of x, holding their locations."""
        x = self.x[: len(features)]
        for row, f in enumerate(features):
            x[row] = f.locations()
        return x


def _loss_and_grads(flat: np.ndarray, pooling: str, x: np.ndarray, labels: list[int],
                    ws: StepWorkspace) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """One lockstep step's losses for C models and C images, in ws.

    flat: the (C, P) float64 parameter stack, copied into ws's parameter
    buffer; x: (C, N, D) images of ws's dtype; labels: C presence labels.
    Writes each model's gradients into the first C rows of ws.grad and
    returns the C pooled BCE losses and clamp events. A model's score
    gradient is p - label at the pooled fg location's fg score, its negation
    at the bg location's bg score, as nn.bce_loss_and_grad routes it.
    """
    n_models, n = x.shape[:2]
    np.copyto(ws.params[:n_models], flat)
    params, grads = ws.stack(n_models)
    a1, y = mlp_forward(params, x, out=(ws.a1[:n_models], ws.y[:n_models]))
    fg_locs, bg_locs, logits = pool_rows(pooling, y)
    losses, g, clamp_events = bce_rows(logits, labels)
    rows, dy = ws.rows[:n_models], ws.dy[:n_models]
    dy.fill(0.0)
    for c, (fg, bg, g_c) in enumerate(zip(fg_locs.tolist(), bg_locs.tolist(), g)):
        pair = _gradient_rows(fg, bg, n)
        rows[c] = pair
        dy[c, pair.index(fg), 0] = 0.0 + g_c  # the bits of d_fg[fg_loc] += g
        dy[c, pair.index(bg), 1] = 0.0 - g_c  # and of d_bg[bg_loc] -= g
    at = (rows + n * np.arange(n_models)[:, None]).ravel()  # into the (C * N) rows
    x_rows, a1_rows = ws.x_rows[:n_models], ws.a1_rows[:n_models]
    for stack, out in ((x, x_rows), (a1, a1_rows)):  # in range: mode="clip" never clips
        np.take(stack.reshape(-1, stack.shape[2]), at, axis=0,
                out=out.reshape(-1, out.shape[2]), mode="clip")
    mlp_backward(params, x_rows, a1_rows, dy, grads,
                 out=(ws.da1[:n_models], ws.mask[:n_models]))
    return losses, clamp_events


def _gradient_rows(fg_loc: int, bg_loc: int, n_locations: int) -> list[int]:
    """The two traced locations as two distinct rows in ascending order;
    when they coincide, a neighbouring row (zero gradient) is the second."""
    a, b = sorted((fg_loc, bg_loc))
    if a != b:
        return [a, b]
    if n_locations == 1:
        return [a]
    return [a, a + 1] if a + 1 < n_locations else [a - 1, a]


def save_loc_checkpoint(path, result: LocTrainResult) -> None:
    """Checkpoint directory (nn.save_checkpoint) with the training log in its
    meta."""
    m = result.model
    save_checkpoint(
        path,
        m,
        meta={
            "kind": "localization",
            "class_id": m.class_id,
            "pooling": m.pooling,
            "epoch_losses": result.epoch_losses,
            "negative_ids": result.negative_ids,
            "clamp_events": result.clamp_events,
            "restarts": result.restarts,
        },
    )


#: a localizer's own meta.json fields: (key, check, what it must be)
_META_FIELDS = (
    ("out_dim", lambda v: v == 2, "2, a foreground and a background map"),
    ("class_id", is_int, "an integer"),
    ("pooling", lambda v: v in POOLING_MODES, f"one of {POOLING_MODES}"),
)


def load_loc_checkpoint(path) -> LocalizationModel:
    """DataError unless the checkpoint's output layer gives the two maps."""
    fields, meta = load_checkpoint(path, "localization")
    _, class_id, pooling = check_fields(meta, _META_FIELDS, os.path.join(path, "meta.json"),
                                        DataError)
    return LocalizationModel(**fields, class_id=class_id, pooling=pooling)
