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
stacks the current image of every class still training into one (C, N, D)
float64 array, runs the stacked forward, pools and scores each class with
scalar math, runs the stacked two-row backward into the (C, P) gradient
buffer and takes one Adam step over the (C, P) parameter stack. A stacked
matmul gives each slice the bits of its own product, so every class's model
equals its one-class training bit for bit. train_localizer and
localizer_loss_and_grads are the one-class calls of the same core.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, NumericError
from .nn import (
    MLP,
    AdamState,
    LossValue,
    PoolingTrace,
    adam_step,
    bce_loss_and_grad,
    global_softmax_prob,
    is_int,
    load_checkpoint,
    meta_value,
    mlp_backward,
    mlp_forward,
    pixel_softmax_prob,
    pool_rows,
    require_count,
    require_rate,
    save_checkpoint,
)
# not called here: perfbench/perftrace.py traces nn ops by the module binding them (NN_OPS)
from .nn import linear_backward, linear_fwd, relu_backward  # noqa: F401
from .rng import Rng, derive_seed
from .tensor import FeatureGrid, NormState

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
        if f.grid.values.shape != records[0].features.grid.values.shape:
            first = records[0]
            raise DataError(f"image {rec.image_id!r}: grid shape {f.grid.values.shape} "
                            f"differs from {first.features.grid.values.shape} of image "
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
            raise ConfigError(f"unknown pooling {self.pooling!r}, want one of {POOLING_MODES}")
        require_count("localizer hidden size", self.hidden)
        for epochs, lr in self.lr_schedule:
            if epochs < 0:
                raise ConfigError(f"lr_schedule epochs must be >= 0, got {epochs!r}")
            require_rate("lr_schedule learning rate", lr)
        if sum(epochs for epochs, _ in self.lr_schedule) < 1:
            raise ConfigError("lr_schedule runs no epoch")


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


def score_batch(model: LocalizationModel, x: np.ndarray) -> np.ndarray:
    """One forward pass over the locations of B images of one grid size.

    x: (B, N, D) float64 unit features -> (B, N, 2) float32 fg/bg scores,
    each image's equal bit for bit to its own forward pass. NumericError if
    any score is non-finite.
    """
    b, n, d = x.shape
    _, y = mlp_forward(model.params(), x.reshape(b * n, d))
    scores = y.astype(np.float32).reshape(b, n, 2)
    if not np.all(np.isfinite(scores)):
        raise NumericError("non-finite score map")
    return scores


def score_image(model: LocalizationModel, f: FeatureGrid, image_id: str = "") -> ScoreMap:
    """Deterministic forward pass to fg/bg maps at feature-grid resolution."""
    check_grid(f, image_id)
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

        in_dim = records[0].features.grid.depth
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

    def record(self, step: int, lv: LossValue) -> None:
        self.clamp_events += lv.clamp_events
        self.total += lv.loss
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
    moments across each lr drop, like a lr scheduler."""
    if not runs:
        return []
    live = list(range(len(runs)))
    views = runs[0].model.views
    params = np.stack([run.model.flat for run in runs])
    grads = np.empty_like(params)
    param_views, grad_views = views(params), views(grads)
    state = AdamState(lr=0.0)
    step = 0
    while live:
        finished = [row for row, i in enumerate(live) if len(runs[i].plan) == step]
        if finished:
            for row in finished:
                runs[live[row]].model.flat[:] = params[row]
            keep = [row for row in range(len(live)) if row not in finished]
            live = [live[row] for row in keep]
            params, grads = params[keep], grads[keep]
            param_views, grad_views = views(params), views(grads)
            if state.m is not None:
                state.m, state.v = state.m[keep], state.v[keep]
            continue
        batch = [runs[i].batch(step) for i in live]
        x = np.stack([f.grid.locations() for f, _ in batch], dtype=np.float64)
        try:
            lvs = _loss_and_grads(
                param_views, pooling, x, [label for _, label in batch], grad_views
            )
        except NumericError as e:
            ids = [runs[live[j]].model.class_id for j in _diverged(param_views, x)]
            raise NumericError(f"class {', '.join(map(str, ids))}: "
                               f"non-finite loss at step {step + 1}: {e}") from e
        for i, lv in zip(live, lvs):
            runs[i].record(step, lv)
        state.lr = np.array([runs[i].lr(step) for i in live])
        adam_step(params, grads, state)
        step += 1
    return [run.result() for run in runs]


def _diverged(params: list[np.ndarray], x: np.ndarray) -> list[int]:
    """Indexes of the stacked models whose scores on their images are not
    all finite (all of them if none is: then the loss itself diverged)."""
    with np.errstate(all="ignore"):
        _, y = mlp_forward(params, x)
    bad = np.flatnonzero(~np.isfinite(y).all(axis=(1, 2))).tolist()
    return bad or list(range(len(x)))


def localizer_loss_and_grads(model: LocalizationModel, x: np.ndarray, label: int
                             ) -> tuple[LossValue, list[np.ndarray]]:
    """Pooled BCE of one image and its gradients w.r.t. model.params(), as
    views of one flat gradient buffer: the one-class call of the step the
    localizers train with.

    x: (N, D) float64 locations. The pooled loss depends on the scores at
    its fg/bg argmax locations only, so the backward runs on those rows
    alone; the result equals the full-grid chain bit for bit (see nn).
    """
    grad = np.empty_like(model.flat)
    (lv,) = _loss_and_grads(
        [p[None] for p in model.params()], model.pooling,
        np.asarray(x, dtype=np.float64)[None], [label], model.views(grad[None]),
    )
    return lv, model.views(grad)


def _loss_and_grads(params: list[np.ndarray], pooling: str, x: np.ndarray,
                    labels: list[int], grads: list[np.ndarray]) -> list[LossValue]:
    """One lockstep step's losses for C models and C images.

    params: the stacked (C, ...) parameter arrays; x: (C, N, D) float64
    images; labels: C presence labels. Writes each model's gradients into
    the stacked arrays grads and returns the C pooled BCE values.
    """
    a1, y = mlp_forward(params, x)
    n_models, n = x.shape[:2]
    lvs = []
    rows = np.empty((n_models, min(n, 2)), dtype=np.int64)
    dy = np.empty((n_models, rows.shape[1], 2))
    pooled = pool_rows(pooling, y)
    for c, ((p, trace), label) in enumerate(zip(pooled, labels)):
        lv = bce_loss_and_grad(p, label, trace, n_locations=n)
        rows[c] = _gradient_rows(trace, n)
        dy[c, :, 0] = lv.grads["fg"][rows[c]]
        dy[c, :, 1] = lv.grads["bg"][rows[c]]
        lvs.append(lv)
    picked = np.arange(n_models)[:, None], rows
    mlp_backward(params, x[picked], a1[picked], dy, grads)
    return lvs


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


def load_loc_checkpoint(path) -> LocalizationModel:
    """DataError unless the checkpoint's output layer gives the two maps."""
    fields, meta = load_checkpoint(path, "localization")
    meta_value(path, meta, "out_dim", lambda v: v == 2, "2, a foreground and a background map")
    return LocalizationModel(
        **fields,
        class_id=meta_value(path, meta, "class_id", is_int, "an integer"),
        pooling=meta_value(path, meta, "pooling", lambda v: v in POOLING_MODES,
                           f"one of {POOLING_MODES}"),
    )
