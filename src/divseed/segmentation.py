"""Per-location multi-class segmentation trained on sampled points only.

The classifier is a hidden-ReLU-(C+1) per-location network. Its input at a
location is the unit feature vector there followed by the image's global
descriptor (the L2-normalized spatial mean of the unit feature grid), the
global-context appending of ParseNet. The descriptor is stored once per
image; the (H, W, 2D) input grid is built only where a whole image is
predicted. Training touches only the sparse sampled points; it never sees
ground-truth masks. Growing the class universe re-instantiates and retrains
just this head, leaving all localization models alone.

Label spaces: sampled points carry class ids with -1 for background; the
model maps ids onto output indices via its ordered class universe, with
background always the last index.
"""

from __future__ import annotations

import array
import os
import time
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import (DataError, NumericError, check_fields, is_int, is_int_list, require_count,
                     require_rate)
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
    load_checkpoint,
    mlp_backward,
    mlp_forward,
    save_checkpoint,
    softmax_ce_rows,
)
# not called here: perfbench/perftrace.py traces nn ops by the module binding them (NN_OPS)
from .nn import linear_backward, linear_fwd, masked_ce_loss_and_grad  # noqa: F401
from .rng import Rng, derive_seed
from .sampling import (
    BACKGROUND,
    PointSet,
    SamplingConfig,
    sample_class_points,
)
from .tensor import FeatureGrid, Grid, NormState, l2_normalize_locations


@dataclass(frozen=True)
class AugmentedFeatureGrid:
    """A unit feature grid and its image-level descriptor: the head's input
    at each location is the location's vector followed by the descriptor."""

    features: FeatureGrid  # unit
    descriptor: np.ndarray  # (global_dim,) float32

    @property
    def global_dim(self) -> int:
        return self.descriptor.shape[0]

    @property
    def depth(self) -> int:
        return self.features.grid.depth + self.global_dim

    def locations(self, dtype=np.float32) -> np.ndarray:
        """(H*W, depth) head inputs in location order, as dtype."""
        locs = self.features.grid.locations()
        tiled = np.broadcast_to(self.descriptor, (locs.shape[0], self.global_dim))
        return np.concatenate([locs, tiled], axis=1, dtype=dtype)

    @property
    def grid(self) -> Grid:
        """The (H, W, depth) input grid, built on each use."""
        g = self.features.grid
        return Grid(self.locations().reshape(g.height, g.width, self.depth))


def augment_with_global(f: FeatureGrid) -> AugmentedFeatureGrid:
    """Pair a unit grid with its normalized mean feature vector."""
    check_grid(f)
    mean = f.grid.locations().astype(np.float64).mean(axis=0)
    unit_mean = l2_normalize_locations(mean[None, :])
    return AugmentedFeatureGrid(features=f, descriptor=unit_mean[0].astype(np.float32))


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
        # a message names the config key that sets the field
        require_count("seg_hidden", self.hidden)
        require_count("seg_epochs", self.epochs)
        require_count("seg_batch", self.batch_size)
        require_rate("seg_lr", self.lr)


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
    features_by_image: Mapping[str, AugmentedFeatureGrid],
    class_ids,
    config: SegConfig,
    seed: int,
) -> SegTrainResult:
    """Train the per-location head on the pooled point set (a PointSet, or a
    list of SampledPoint rows).

    Each point is a row of a feature table plus an image index
    (_point_inputs): a FeatureTable's shared array, indexed in place, or
    the points' rows gathered from any other mapping. Points are shuffled
    with the seeded stream each epoch, and consumed in batches of
    config.batch_size under mean softmax cross-entropy. Every step runs in
    one float32 HeadWorkspace, its batch's [rows | descriptors] included,
    and Adam in float32, in its own scratch, subtracting its update from the
    float64 parameters, so no step allocates a (batch, hidden) array.
    Ground-truth masks are not an input.
    """
    if not points:
        raise DataError("train_segmentation: empty point set")
    started = time.perf_counter()
    points = PointSet.of(points)
    missing = sorted(set(points.image_ids) - set(features_by_image))
    if missing:
        raise DataError(f"points reference images without features: {missing[:5]}")

    first = next(iter(features_by_image.values()))
    model = new_segmentation_model(
        class_ids, first.depth, first.global_dim, config, derive_seed(seed, 0x5E6)
    )

    table, rows, image, descriptors, y = _point_inputs(points, features_by_image, model)
    d = table.shape[1]
    ws = HeadWorkspace(model, min(config.batch_size, len(points)))

    rng = Rng(derive_seed(seed, 0x5EC0))
    state = AdamState(lr=config.lr)
    epoch_losses = []
    for epoch in range(config.epochs):
        order = array.array("q", range(len(points)))  # 8 bytes a point, not a list's 40
        rng.shuffle(order)
        order = np.frombuffer(order, dtype=np.int64)
        total = 0.0
        n_batches = 0
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            xb = ws.x[: len(batch)]
            xb[:, :d] = table[rows[batch]]
            xb[:, d:] = descriptors[image[batch]]
            try:
                lv, _ = head_loss_and_grads(model, xb, y[batch], ws)
            except NumericError as e:
                raise NumericError(f"head: non-finite loss at epoch {epoch + 1}, "
                                   f"batch {n_batches + 1}: {e}") from e
            adam_step(model.flat, ws.grad, state)
            total += lv.loss
            n_batches += 1
        epoch_losses.append(total / n_batches)
    return SegTrainResult(
        model=model,
        epoch_losses=epoch_losses,
        wall_seconds=time.perf_counter() - started,
    )


class FeatureTable(Mapping):
    """The head's inputs of images whose unit grids are the rows of one
    C-ordered (n, H, W, D) float32 array, values: each image's
    AugmentedFeatureGrid by id, plus the array's (n*H*W, D) location rows
    as `table` (a view) and each image's first row in it, `first_row`.
    train_segmentation reads a point's features from `table` in place."""

    def __init__(self, image_ids: list[str], values: np.ndarray):
        n, h, w, d = values.shape
        if len(image_ids) != n or not values.flags.c_contiguous:
            raise DataError(f"FeatureTable: {len(image_ids)} image ids for {n} grids, "
                            "which must be one C-ordered array")
        self.table = values.reshape(n * h * w, d)  # a view of C-ordered values
        self.first_row = {image_id: i * h * w for i, image_id in enumerate(image_ids)}
        self._grids = {
            image_id: augment_with_global(FeatureGrid(Grid(values[i]), NormState.UNIT))
            for i, image_id in enumerate(image_ids)
        }

    def __getitem__(self, image_id: str) -> AugmentedFeatureGrid:
        return self._grids[image_id]

    def __iter__(self):
        return iter(self._grids)

    def __len__(self) -> int:
        return len(self._grids)


def _point_inputs(points: PointSet,
                  features_by_image: Mapping[str, AugmentedFeatureGrid],
                  model: SegmentationModel
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """In point order, what the head trains on: point i's input is row
    rows[i] of the (m, D) float32 unit features `table` followed by
    descriptor image[i] of the (k, global_dim) float32 descriptors of
    points.image_ids; y[i] is its output index. Returns (table, rows, image,
    descriptors, y).

    A FeatureTable's table is its shared array, indexed in place; for any
    other mapping the points' rows are gathered into a table of their own,
    one fancy-index per image. Labels are mapped through a per-label lookup.
    DataError for a point whose loc is outside its image's grid or whose
    label is not in the model's universe: the one check of the labels,
    which the steps then take as valid output indices."""
    points = PointSet.of(points)
    augmented = [features_by_image[image_id] for image_id in points.image_ids]
    n_locations = np.array([af.features.grid.n_locations for af in augmented], dtype=np.int64)
    outside = np.flatnonzero((points.loc < 0) | (points.loc >= n_locations[points.image]))
    if outside.size:
        i = outside[np.argmin(points.image[outside])]  # the first of the first image
        c = points.image[i]
        raise DataError(f"image {points.image_ids[c]!r}: point loc {int(points.loc[i])} is "
                        f"outside its grid of {n_locations[c]} locations")
    if isinstance(features_by_image, FeatureTable):
        first = np.array([features_by_image.first_row[i] for i in points.image_ids], np.int64)
        table, rows = features_by_image.table, first[points.image] + points.loc
    else:
        by_image = np.argsort(points.image, kind="stable")
        bounds = np.searchsorted(points.image[by_image], np.arange(len(points.image_ids) + 1))
        table = np.empty((len(points), model.dims[0] - model.global_dim), np.float32)
        for c, af in enumerate(augmented):
            at = by_image[bounds[c] : bounds[c + 1]]
            table[at] = af.features.grid.locations()[points.loc[at]]
        rows = np.arange(len(points))
    descriptors = np.stack([af.descriptor for af in augmented])
    labels, inverse = np.unique(points.label, return_inverse=True)
    lookup = np.array([model.label_to_index(int(c)) for c in labels], dtype=np.int64)
    return table, rows, points.image, descriptors, lookup[inverse]


class HeadWorkspace:
    """The arrays a head training step writes, for batches of up to `size`
    points of a model of these dimensions, in the step's compute dtype
    (float32 to train, float64 for a gradient check): the input batch x, the
    parameter buffer `flat` with its params()-shaped views `params`, the
    hidden activations, the logits (overwritten by their gradient), their
    float64 copy `logits64` that the loss reads, the hidden layer's upstream
    gradient and ReLU mask, and the flat gradient buffer `grad` with its
    views `grads`. Made once per training call."""

    def __init__(self, model: SegmentationModel, size: int, dtype: type = np.float32):
        in_dim, hidden, out_dim = model.dims
        self.x = np.empty((size, in_dim), dtype)
        self.flat = np.empty(model.flat.shape, dtype)
        self.params = model.views(self.flat)
        self.a1 = np.empty((size, hidden), dtype)
        self.logits = np.empty((size, out_dim), dtype)
        self.logits64 = np.empty((size, out_dim))
        self.da1 = np.empty((size, hidden), dtype)
        self.mask = np.empty((size, hidden), dtype=bool)
        self.grad = np.empty(model.flat.shape, dtype)
        self.grads = model.views(self.grad)


def head_loss_and_grads(model: SegmentationModel, xb: np.ndarray, yb: np.ndarray,
                        ws: HeadWorkspace) -> tuple[LossValue, np.ndarray]:
    """Mean cross-entropy of a batch of points and its gradient w.r.t.
    model.flat: the step the head trains with, in the workspace ws of a
    model of model's dimensions. The products run on ws's copy of the
    parameters, the softmax on a float64 copy of the logits. Returns the
    loss and the flat gradient buffer ws.grad, which the next call
    overwrites.

    xb: (m, D) point features of ws's dtype, m at most ws's size; yb: (m,)
    output indices, one per row, each in 0 .. n_classes (_point_inputs maps
    the labels).
    """
    m = len(yb)
    np.copyto(ws.flat, model.flat)
    a1, logits = mlp_forward(ws.params, xb, out=(ws.a1[:m], ws.logits[:m]))
    logits64 = ws.logits64[:m]
    np.copyto(logits64, logits)
    loss, dy = softmax_ce_rows(logits64, yb, out=logits64)
    np.copyto(logits, dy)
    mlp_backward(ws.params, xb, a1, logits, ws.grads, out=(ws.da1[:m], ws.mask[:m]))
    return LossValue(loss=loss, grads={"logits": dy}), ws.grad


def predict(model: SegmentationModel, af: AugmentedFeatureGrid
            ) -> tuple[np.ndarray, Grid]:
    """Dense prediction: (H, W) argmax label indices (background = C, ties to
    the lowest index) and the (H, W, C+1) softmax probability grid. The
    products run in float32, the softmax on the logits read as float64."""
    if af.depth != model.dims[0]:
        raise DataError(f"predict: feature depth {af.depth} != model input {model.dims[0]}")
    g = af.features.grid
    _, logits = mlp_forward(model.views(model.flat.astype(np.float32)), af.locations())
    logits = logits.astype(np.float64)
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
    class_ids, global_dim, _ = check_fields(meta, (
        ("class_ids", is_int_list, "a list of integers"),
        ("global_dim", is_int, "an integer"),
        ("out_dim", lambda v: v == len(meta["class_ids"]) + 1,  # class_ids checked above
         "one output per class in class_ids plus background"),
    ), os.path.join(path, "meta.json"), DataError)
    return SegmentationModel(**fields, class_ids=tuple(class_ids), global_dim=global_dim)
