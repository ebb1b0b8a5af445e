"""Per-location multi-class segmentation trained on sampled points only.

The classifier is a hidden-ReLU-(C+1) per-location network over features
augmented with a per-image global descriptor (the L2-normalized spatial mean
of the unit feature grid, replicated at every location). Training touches
only the sparse sampled points; it never sees ground-truth masks. Growing the
class universe re-instantiates and retrains just this head, leaving all
localization models alone.

Label spaces: sampled points carry class ids with -1 for background; the
model maps ids onto output indices via its ordered class universe, with
background always the last index.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError
from .localization import (
    LocalizationModel,
    LocConfig,
    LocTrainResult,
    SupervisionRecord,
    check_grid,
    train_localizer,
)
from .nn import (
    MLP,
    AdamState,
    LossValue,
    adam_step,
    is_int,
    load_checkpoint,
    masked_ce_loss_and_grad,
    meta_value,
    mlp_backward,
    mlp_forward,
    require_count,
    require_rate,
    save_checkpoint,
)
# not called here: perfbench/perftrace.py traces nn ops by the module binding them (NN_OPS)
from .nn import linear_backward, linear_fwd  # noqa: F401
from .rng import Rng, derive_seed
from .sampling import (
    BACKGROUND,
    PointSet,
    SamplingConfig,
    sample_class_points,
)
from .tensor import FeatureGrid, Grid, l2_normalize_locations


@dataclass(frozen=True)
class AugmentedFeatureGrid:
    """Unit feature grid with the image-level descriptor appended per location."""

    grid: Grid  # depth = base depth + global_dim
    global_dim: int


def augment_with_global(f: FeatureGrid) -> AugmentedFeatureGrid:
    """Append the image's normalized mean feature vector at every location."""
    check_grid(f)
    locs = f.grid.locations().astype(np.float64)
    mean = locs.mean(axis=0)
    unit_mean = l2_normalize_locations(mean[None, :])
    tiled = np.broadcast_to(unit_mean[0], (locs.shape[0], locs.shape[1]))
    stacked = np.concatenate([locs, tiled], axis=1).astype(np.float32)
    h, w, d = f.grid.height, f.grid.width, f.grid.depth
    return AugmentedFeatureGrid(
        grid=Grid(stacked.reshape(h, w, 2 * d)), global_dim=d
    )


@dataclass
class SegmentationModel(MLP):
    class_ids: tuple[int, ...]  # ordered foreground universe
    global_dim: int

    @property
    def n_classes(self) -> int:
        return len(self.class_ids)

    @property
    def background_index(self) -> int:
        return self.n_classes

    def label_to_index(self, label: int) -> int:
        if label == BACKGROUND:
            return self.background_index
        try:
            return self.class_ids.index(label)
        except ValueError:
            raise DataError(f"label {label} not in class universe {self.class_ids}")


@dataclass(frozen=True)
class SegConfig:
    hidden: int = 128
    lr: float = 1e-3
    epochs: int = 2
    batch_size: int = 100

    def __post_init__(self):
        require_count("head hidden size", self.hidden)
        require_count("head epochs", self.epochs)
        require_count("head batch size", self.batch_size)
        require_rate("head learning rate", self.lr)


@dataclass
class SegTrainResult:
    model: SegmentationModel
    epoch_losses: list[float]
    wall_seconds: float


def new_segmentation_model(class_ids, in_dim: int, global_dim: int,
                           config: SegConfig, seed: int) -> SegmentationModel:
    return SegmentationModel.initialized(
        seed, in_dim, config.hidden, len(class_ids) + 1,
        class_ids=tuple(class_ids), global_dim=global_dim,
    )


def train_segmentation(
    points: PointSet,
    features_by_image: dict[str, AugmentedFeatureGrid],
    class_ids,
    config: SegConfig,
    seed: int,
) -> SegTrainResult:
    """Train the per-location head on the pooled point set (a PointSet, or a
    list of SampledPoint rows).

    Points are gathered into one (n, D) matrix, shuffled with the seeded
    stream each epoch, and consumed in batches of config.batch_size under
    mean softmax cross-entropy. Ground-truth masks are not an input.
    """
    if not points:
        raise DataError("train_segmentation: empty point set")
    started = time.perf_counter()
    points = PointSet.of(points)
    missing = sorted(set(points.image_ids) - set(features_by_image))
    if missing:
        raise DataError(f"points reference images without features: {missing[:5]}")

    first = next(iter(features_by_image.values()))
    in_dim = first.grid.depth
    model = new_segmentation_model(
        class_ids, in_dim, first.global_dim, config, derive_seed(seed, 0x5E6)
    )

    x, y = _gather_points(points, features_by_image, model)

    rng = Rng(derive_seed(seed, 0x5EC0))
    state = AdamState(lr=config.lr)
    grad = np.empty_like(model.flat)
    grads = model.views(grad)
    epoch_losses = []
    for epoch in range(config.epochs):
        order = list(range(len(points)))
        rng.shuffle(order)
        order = np.array(order, dtype=np.int64)
        total = 0.0
        n_batches = 0
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            try:
                lv, _ = head_loss_and_grads(model, x[batch].astype(np.float64), y[batch], grads)
            except NumericError as e:
                raise NumericError(f"head: non-finite loss at epoch {epoch + 1}, "
                                   f"batch {n_batches + 1}: {e}") from e
            adam_step(model.flat, grad, state)
            total += lv.loss
            n_batches += 1
        epoch_losses.append(total / n_batches)
    return SegTrainResult(
        model=model,
        epoch_losses=epoch_losses,
        wall_seconds=time.perf_counter() - started,
    )


def _gather_points(points: PointSet,
                   features_by_image: dict[str, AugmentedFeatureGrid],
                   model: SegmentationModel) -> tuple[np.ndarray, np.ndarray]:
    """(n, D) float32 point features as stored (training converts a batch)
    and (n,) output indices, in point order: one fancy-index per image,
    labels mapped through a per-label lookup. DataError for a point whose
    loc is outside its image's grid."""
    points = PointSet.of(points)
    by_image = np.argsort(points.image, kind="stable")
    bounds = np.searchsorted(points.image[by_image], np.arange(len(points.image_ids) + 1))
    x = np.empty((len(points), model.hidden.in_dim), dtype=np.float32)
    for c, image_id in enumerate(points.image_ids):
        rows = by_image[bounds[c] : bounds[c + 1]]
        grid = features_by_image[image_id].grid
        locs = points.loc[rows]
        outside = locs[(locs < 0) | (locs >= grid.n_locations)]
        if outside.size:
            raise DataError(f"image {image_id!r}: point loc {int(outside[0])} is outside "
                            f"its grid of {grid.n_locations} locations")
        x[rows] = grid.locations()[locs]
    labels, inverse = np.unique(points.label, return_inverse=True)
    lookup = np.array([model.label_to_index(int(c)) for c in labels], dtype=np.int64)
    return x, lookup[inverse]


def head_loss_and_grads(model: SegmentationModel, xb: np.ndarray, yb: np.ndarray,
                        grads: list[np.ndarray] | None = None
                        ) -> tuple[LossValue, list[np.ndarray]]:
    """Mean cross-entropy of a batch of points and its gradients w.r.t.
    model.params(): the backward the head trains with. The gradients are
    written into grads, arrays shaped like params() (training passes views
    of its flat gradient buffer), or into views of a new buffer.

    xb: (m, D) float64 point features; yb: (m,) output indices, one per row.
    """
    a1, logits = mlp_forward(model.params(), xb)
    lv = masked_ce_loss_and_grad(logits, np.stack([np.arange(len(yb)), yb], axis=1))
    if grads is None:
        grads = model.views(np.empty_like(model.flat))
    mlp_backward(model.params(), xb, a1, lv.grads["logits"], grads)
    return lv, grads


def predict(model: SegmentationModel, af: AugmentedFeatureGrid
            ) -> tuple[np.ndarray, Grid]:
    """Dense prediction: (H, W) argmax label indices (background = C, ties to
    the lowest index) and the (H, W, C+1) softmax probability grid."""
    g = af.grid
    if g.depth != model.hidden.in_dim:
        raise DataError(
            f"predict: feature depth {g.depth} != model input {model.hidden.in_dim}"
        )
    x = g.locations().astype(np.float64)
    _, logits = mlp_forward(model.params(), x)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=1, keepdims=True)
    labels = probs.argmax(axis=1).reshape(g.height, g.width)
    prob_grid = Grid(
        probs.reshape(g.height, g.width, model.n_classes + 1).astype(np.float32)
    )
    return labels, prob_grid


# ---------------------------------------------------------------------------
# incremental class addition


@dataclass
class AddClassResult:
    class_ids: tuple[int, ...]
    loc_result: LocTrainResult
    new_points: PointSet
    merged_points: PointSet
    seg_result: SegTrainResult


def add_class(
    new_class_id: int,
    new_data: list[SupervisionRecord],
    loc_models: dict[int, LocalizationModel],
    existing_points: PointSet,
    features_by_image: dict[str, AugmentedFeatureGrid],
    class_ids,
    loc_config: LocConfig,
    sampling_config: SamplingConfig,
    seg_config: SegConfig,
    seed: int,
) -> AddClassResult:
    """Extend the system with one class: train that class's localizer on the
    new images, sample its points (plus background) on the new images tagged
    with it, append them to the existing point pool (a PointSet or a list of
    SampledPoint rows), and retrain only the segmentation head with one more
    output. Existing localization models are not touched.
    """
    if new_class_id in class_ids:
        raise DataError(f"class {new_class_id} already registered")
    if new_class_id in loc_models:
        raise DataError(f"class {new_class_id} already has a localization model")

    loc_result = train_localizer(
        new_class_id, new_data, loc_config, seed=derive_seed(seed, 0xADD0 + new_class_id)
    )

    new_points = sample_class_points(
        new_data, loc_result.model, sampling_config, derive_seed(seed, 0xADD5A3F)
    )
    merged = PointSet.concat([PointSet.of(existing_points), new_points])
    all_features = dict(features_by_image)
    all_features.update(
        (rec.image_id, augment_with_global(rec.features))
        for rec in new_data
        if new_class_id in rec.tags
    )
    seg_result = train_segmentation(
        merged,
        all_features,
        tuple(class_ids) + (new_class_id,),
        seg_config,
        seed=derive_seed(seed, 0xADD5E6),
    )
    return AddClassResult(
        class_ids=tuple(class_ids) + (new_class_id,),
        loc_result=loc_result,
        new_points=new_points,
        merged_points=merged,
        seg_result=seg_result,
    )


def save_seg_checkpoint(path, result: SegTrainResult, config: SegConfig) -> None:
    m = result.model
    save_checkpoint(
        path,
        m,
        meta={
            "kind": "segmentation",
            "class_ids": list(m.class_ids),
            "global_dim": m.global_dim,
            "lr": config.lr,
            "epochs": config.epochs,
            "batch_size": config.batch_size,
            "epoch_losses": result.epoch_losses,
        },
    )


def load_seg_checkpoint(path) -> SegmentationModel:
    """DataError unless the checkpoint's output layer has one output per
    class in class_ids plus background."""
    fields, meta = load_checkpoint(path, "segmentation")
    class_ids = meta_value(
        path, meta, "class_ids",
        lambda v: isinstance(v, list) and all(map(is_int, v)), "a list of integers",
    )
    meta_value(path, meta, "out_dim", lambda v: v == len(class_ids) + 1,
               f"{len(class_ids) + 1}, one output per class in class_ids plus background")
    return SegmentationModel(
        **fields,
        class_ids=tuple(class_ids),
        global_dim=meta_value(path, meta, "global_dim", is_int, "an integer"),
    )
