"""Per-class localization scorers trained from image-level tags.

Each foreground class gets its own two-layer per-location network producing
a foreground score map and a background score map. Training sees only
image-level presence labels: the maps are pooled to one probability per
image ("pixel" or "global" softmax pooling, see nn) and pushed through
binary cross-entropy. Adding a class later never touches other classes'
models.

One core, train_class_localizers, trains the localizers of several classes
together, in lockstep. Each class keeps its own random stream (negatives,
shuffles, initializer), its own ragged epochs and its own restarts; a step
gathers the current image of every class still training into a (C, N, D)
float64 stack, runs the stacked forward, pools and scores each class with
scalar math, runs the stacked two-row backward into a (C, P) gradient
buffer and takes one Adam step over the (C, P) parameter stack. A stacked
matmul gives each slice the bits of its own product, so every class's model
equals its one-class training bit for bit. train_localizer and
localizer_loss_and_grads are the one-class calls of the same core.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericError
from .nn import (
    MLP,
    AdamState,
    LinearLayer,
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
    pool_rows,
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
        if sum(epochs for epochs, _ in self.lr_schedule) < 1:
            raise DataError("lr_schedule runs no epoch")


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


def _forward_scores(hidden: LinearLayer, out: LinearLayer, x: np.ndarray):
    """x: (N, D) float64, or (C, N, D) for stacked layers -> (hidden
    activations, (..., N, 2) scores). The ReLU runs in place: an activation
    is > 0 exactly where its pre-activation is, so it serves relu_backward."""
    a1 = linear_fwd(hidden, x)
    np.maximum(a1, 0.0, out=a1)
    return a1, linear_fwd(out, a1)


def score_batch(model: LocalizationModel, x: np.ndarray) -> np.ndarray:
    """One forward pass over the locations of B images of one grid size.

    x: (B, N, D) float64 unit features -> (B, N, 2) float32 fg/bg scores,
    each image's equal bit for bit to its own forward pass. NumericError if
    any score is non-finite.
    """
    b, n, d = x.shape
    _, y = _forward_scores(model.hidden, model.out, x.reshape(b * n, d))
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
    NumericError (with the class and step) if the loss goes non-finite.
    The one-class call of
    train_class_localizers.
    """
    return train_class_localizers([class_id], dataset, config, [seed])[0]


def train_class_localizers(
    class_ids: list[int],
    dataset: list[tuple[FeatureGrid, TagSet]],
    config: LocConfig,
    seeds: list[int],
) -> list[LocTrainResult]:
    """train_localizer for each class with its seed, all classes in
    lockstep; each result equals that class's own train_localizer bit for
    bit. Classes whose run stays on the loss plateau are retrained together
    from their derived seeds, up to MAX_RESTARTS times.
    """
    for f, _ in dataset:
        _require_unit(f)
    results: list[LocTrainResult | None] = [None] * len(class_ids)
    pending = range(len(class_ids))
    for attempt in range(MAX_RESTARTS + 1):
        trained = _train_lockstep([
            _ClassRun.start(class_ids[i], dataset, config,
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
    def start(cls, class_id: int, dataset: list[tuple[FeatureGrid, TagSet]],
              config: LocConfig, seed: int) -> "_ClassRun":
        """Balanced negatives, the initial model and the whole step plan,
        drawn from the class's stream in the order training uses them."""
        positives = [f for f, t in dataset if class_id in t]
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
        batches = [(f, 1) for f in positives] + [(f, 0) for f, _ in negatives]
        plan, epoch_lrs = [], []
        for epochs, lr in config.lr_schedule:
            for _ in range(epochs):
                order = list(range(len(batches)))
                rng.shuffle(order)
                plan += order
                epoch_lrs.append(lr)
        return cls(model, batches, [t.image_id for _, t in negatives], plan, epoch_lrs)

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
    """Train the runs' models together: step s takes every unfinished run's
    s-th batch. Rows of the (C, P) parameter stack, its gradient buffer and
    the Adam moments belong to the unfinished runs, in order; a finished
    run's row is copied into its model and dropped. Adam keeps accumulated
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
        for rows in _rows_by_shape(batch):
            whole = len(rows) == len(live)
            p = param_views if whole else views(params[rows])
            g = grads if whole else np.empty((len(rows), params.shape[1]))
            x = np.empty((len(rows),) + batch[rows[0]][0].grid.locations().shape)
            for j, row in enumerate(rows):
                x[j] = batch[row][0].grid.locations()
            try:
                lvs = _loss_and_grads(
                    p, pooling, x, [batch[row][1] for row in rows],
                    grad_views if whole else views(g),
                )
            except NumericError as e:
                ids = [runs[live[rows[j]]].model.class_id for j in _diverged(p, x)]
                raise NumericError(f"class {', '.join(map(str, ids))}: "
                                   f"non-finite loss at step {step + 1}: {e}") from e
            if not whole:
                grads[rows] = g
            for row, lv in zip(rows, lvs):
                runs[live[row]].record(step, lv)
        state.lr = np.array([runs[i].lr(step) for i in live])
        adam_step(params, grads, state)
        step += 1
    return [run.result() for run in runs]


def _diverged(params: list[np.ndarray], x: np.ndarray) -> list[int]:
    """Indexes of the stacked models whose scores on their images are not
    all finite (all of them if none is: then the loss itself diverged)."""
    w1, b1, w2, b2 = params
    with np.errstate(all="ignore"):
        _, y = _forward_scores(LinearLayer(w1, b1), LinearLayer(w2, b2), x)
    bad = np.flatnonzero(~np.isfinite(y).all(axis=(1, 2))).tolist()
    return bad or list(range(len(x)))


def _rows_by_shape(batch: list[tuple[FeatureGrid, int]]) -> list[list[int]]:
    """Batch rows grouped by grid shape, so each group stacks into one array
    (one group when all images share a size)."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for row, (f, _) in enumerate(batch):
        groups.setdefault(f.grid.values.shape, []).append(row)
    return list(groups.values())


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
    w1, b1, w2, b2 = params
    hidden, out = LinearLayer(w1, b1), LinearLayer(w2, b2)
    a1, y = _forward_scores(hidden, out, x)
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
    gw1, gb1, gw2, gb2 = grads
    _, _, da1 = linear_backward(out, a1[picked], dy, out=(gw2, gb2))
    dh1 = relu_backward(a1[picked], da1)
    linear_backward(hidden, x[picked], dh1, input_grad=False, out=(gw1, gb1))
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
