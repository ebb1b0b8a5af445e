"""Turning score maps into sparse point-wise pseudo-labels.

The main strategy greedily picks high-scoring locations while multiplicatively
penalizing similarity (absolute feature dot product) to points already picked:

    pick_1 = argmax_i  s_i
    pick_k = argmax_i  s_i * (1 - max_{k'<k} |z_i . z_{pick_k'}|)

Background points need no threshold: they minimize the maximum similarity to
any foreground pick and to prior background picks. Baselines: plain top-k,
the same greedy recursion with a spatial Gaussian similarity instead of the
feature dot product, and dense thresholded labeling of every location.

Conventions shared by every sampler: scores are clamped at 0 first (the
multiplicative penalty is only meaningful for non-negative scores), selected
locations are excluded from later steps, and ties break toward the lowest
flat location index. Point labels use -1 for background so the encoding
survives growing the class universe.

One lockstep core does the work. `build_supervision_set` checks its records
once (localization.check_records: unit features, one grid shape for the
whole dataset), then takes them in slices of CHUNK: it scores every
(image, class) pair of a chunk with one forward pass per class, runs each
greedy step for all pairs at once on (pairs, locations) arrays, then picks
background points for all images at once. The per-pair samplers
(`sample_diverse_fg`, `sample_diverse_bg`, `sample_top_k`, `sample_spatial`,
`dense_pseudo_labels`) are one-pair calls of the same steps. Points come
back as a `PointSet` of parallel columns.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .localization import (LocalizationModel, ScoreMap, SupervisionRecord, TagSet,
                           check_grid, check_records, score_batch, score_image)
from .nn import is_int, require_count, require_rate
from .rng import Rng, derive_seed
from .tensor import FeatureGrid, atomic_write

BACKGROUND = -1

STRATEGIES = ("diverse", "top_k", "spatial", "dense")

#: flag set on background points drawn uniformly because an image had no
#: foreground picks at all
FLAG_RANDOM_BG = "random_bg_fallback"

#: point flags by bit of PointSet.flags
FLAGS = (FLAG_RANDOM_BG,)
_FLAG_NAMES = [
    tuple(name for bit, name in enumerate(FLAGS) if mask >> bit & 1)
    for mask in range(1 << len(FLAGS))
]

#: images sampled in lockstep; the points do not depend on it
CHUNK = 32


@dataclass(frozen=True)
class SampledPoint:
    image_id: str
    loc: int  # flat grid location, row * width + col
    label: int  # class id, or BACKGROUND (-1)
    rank: int  # 1-based selection order within its (image, label) group
    value: float  # selection objective at pick time
    flags: tuple[str, ...] = ()


@dataclass(frozen=True, eq=False)
class PointSet:
    """Points as parallel columns; row i is one SampledPoint.

    Equal to another PointSet, list or tuple with the same rows in the same
    order. Every image id has at least one point.
    """

    image_ids: tuple[str, ...]
    image: np.ndarray  # (n,) int64 index into image_ids
    loc: np.ndarray  # (n,) int64
    label: np.ndarray  # (n,) int64
    rank: np.ndarray  # (n,) int64
    value: np.ndarray  # (n,) float64
    flags: np.ndarray  # (n,) uint8 bitmask over FLAGS

    def _columns(self) -> tuple[np.ndarray, ...]:
        return self.image, self.loc, self.label, self.rank, self.value, self.flags

    def __len__(self) -> int:
        return self.loc.shape[0]

    def __iter__(self):
        ids = self.image_ids
        for image, loc, label, rank, value, flags in zip(
            *(c.tolist() for c in self._columns())
        ):
            yield SampledPoint(ids[image], loc, label, rank, value, _FLAG_NAMES[flags])

    def __getitem__(self, i: int) -> SampledPoint:
        image, loc, label, rank, value, flags = (c[i].item() for c in self._columns())
        return SampledPoint(
            self.image_ids[image], loc, label, rank, value, _FLAG_NAMES[flags]
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, (PointSet, list, tuple)):
            return NotImplemented
        return list(self) == list(other)

    @classmethod
    def of(cls, points) -> "PointSet":
        """points as a PointSet: itself, or built from SampledPoint rows."""
        if isinstance(points, PointSet):
            return points
        rows = list(points)
        index: dict[str, int] = {}
        image = [index.setdefault(p.image_id, len(index)) for p in rows]
        flags = [sum(1 << FLAGS.index(f) for f in p.flags) for p in rows]
        return cls(tuple(index), *(
            np.array(column, dtype=dtype) for column, dtype in zip(
                (image, [p.loc for p in rows], [p.label for p in rows],
                 [p.rank for p in rows], [p.value for p in rows], flags),
                _COLUMN_DTYPES,
            )
        ))

    @classmethod
    def concat(cls, parts: list["PointSet"]) -> "PointSet":
        """The parts' rows in order; an image id shared by parts keeps one
        index."""
        index: dict[str, int] = {}
        images = []
        for part in parts:
            remap = np.array(
                [index.setdefault(i, len(index)) for i in part.image_ids], dtype=np.int64
            )
            images.append(remap[part.image])
        columns = [
            np.concatenate([part._columns()[c] for part in parts] or [np.empty(0, dtype)])
            for c, dtype in enumerate(_COLUMN_DTYPES)
        ]
        columns[0] = np.concatenate(images or [np.empty(0, np.int64)])
        return cls(tuple(index), *columns)


_COLUMN_DTYPES = (np.int64, np.int64, np.int64, np.int64, np.float64, np.uint8)


@dataclass(frozen=True)
class SamplingConfig:
    k: int = 20
    strategy: str = "diverse"
    tau: float = 0.2  # dense mode only
    spatial_scale: float | None = None  # spatial mode; None = diagonal / 8

    def __post_init__(self):
        require_count("k", self.k)
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}, want one of {STRATEGIES}")
        if not math.isfinite(self.tau):
            raise ConfigError(f"tau must be finite, got {self.tau!r}")
        if self.spatial_scale is not None:
            require_rate("spatial_scale", self.spatial_scale)


# ---------------------------------------------------------------------------
# the lockstep selection steps, on (P, N) arrays: P pairs or images, N
# locations each


def _feature_rows(feats: np.ndarray):
    """Similarity rows for feats (P, N, D): picks (P,) -> |feats[p] .
    feats[p, picks[p]]| as (P, N), one matrix-vector product per row."""
    ar = np.arange(feats.shape[0])
    return lambda picks: np.abs(np.matmul(feats, feats[ar, picks][:, :, None]))[:, :, 0]


def _greedy(k, similarity, objective, max_sim, available, lowest=False):
    """The greedy recursion every non-dense sampler runs, for P rows at once:
    k steps, each taking per row the first argmax (argmin when lowest) of
    objective(max_sim) over the available locations, then folding the
    picks' similarity rows into the running per-location max max_sim, so a
    step costs O(P * N * D) instead of re-scanning all previous picks.
    max_sim and available change in place. Returns (P, k) picks and values.
    """
    best, fill = (np.argmin, np.inf) if lowest else (np.argmax, -np.inf)
    rows = np.arange(max_sim.shape[0])
    picks = np.empty((max_sim.shape[0], k), dtype=np.int64)
    values = np.empty((max_sim.shape[0], k), dtype=np.float64)
    for step in range(k):
        masked = np.where(available, objective(max_sim), fill)
        i = best(masked, axis=1)
        picks[:, step] = i
        values[:, step] = masked[rows, i]
        available[rows, i] = False
        np.maximum(max_sim, similarity(i), out=max_sim)
    return picks, values


def _check_k(k: int, n: int) -> None:
    if k > n:
        raise DataError(f"k={k} exceeds {n} locations")


def _greedy_fg(scores: np.ndarray, k: int, similarity):
    """k foreground points per row of clamped scores (P, N), maximizing
    score * (1 - max similarity to earlier picks): picks, values and the
    final running max similarity."""
    _check_k(k, scores.shape[1])
    max_sim = np.zeros(scores.shape, dtype=np.float64)
    picks, values = _greedy(
        k, similarity, lambda max_sim: scores * (1.0 - max_sim),
        max_sim, np.ones(scores.shape, dtype=bool),
    )
    return picks, values, max_sim


def _top_k(scores: np.ndarray, k: int):
    """The k highest clamped scores per row, ties by lowest index."""
    _check_k(k, scores.shape[1])
    picks = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    return picks, np.take_along_axis(scores, picks, axis=1)


def _fold(similarity, picks: np.ndarray, max_sim: np.ndarray) -> np.ndarray:
    """max_sim raised in place to the similarity rows of every pick."""
    for step in range(picks.shape[1]):
        np.maximum(max_sim, similarity(picks[:, step]), out=max_sim)
    return max_sim


def _background(feats: np.ndarray, k: int, max_sim: np.ndarray, available: np.ndarray):
    """k background points per image (P, N, D), each minimizing its max
    similarity to the foreground picks (folded into max_sim, taken out of
    available) and to background points already chosen."""
    free = available.sum(axis=1)
    if (free < k).any():
        raise DataError(f"k={k} exceeds {free[free < k][0]} free locations")
    return _greedy(
        k, _feature_rows(feats), lambda max_sim: max_sim, max_sim, available, lowest=True
    )


def _spatial_table(shape: tuple[int, int], scale: float | None) -> np.ndarray:
    """(N, N): row i is spatial_similarity(shape, i, scale or the default)."""
    if scale is None:
        scale = default_spatial_scale(shape)
    return np.stack(
        [spatial_similarity(shape, loc, scale) for loc in range(shape[0] * shape[1])]
    )


def _dense_labels(fg, pair_image, pair_class, n_images, tau, calibration):
    """Dense labels and values (n_images, N) from the raw fg scores (P, N)
    of the pairs: each location takes its best calibrated class score (ties
    to the lowest class id), BACKGROUND below tau. Images without a pair are
    all background with value 0."""
    labels = np.full((n_images, fg.shape[1]), BACKGROUND, dtype=np.int64)
    values = np.zeros((n_images, fg.shape[1]), dtype=np.float64)
    if not pair_image.shape[0]:
        return labels, values
    images, slot = np.unique(pair_image, return_inverse=True)
    classes = np.unique(pair_class)
    stack = np.full((images.shape[0], classes.shape[0], fg.shape[1]), -np.inf)
    divisors = np.array([calibration[c] for c in pair_class.tolist()], dtype=np.float64)
    stack[slot, np.searchsorted(classes, pair_class)] = fg / divisors[:, None]
    best = np.argmax(stack, axis=1)
    values[images] = np.take_along_axis(stack, best[:, None], axis=1)[:, 0]
    labels[images] = classes[best]
    labels[values < tau] = BACKGROUND
    return labels, values


def _label_ranks(labels: np.ndarray) -> np.ndarray:
    """Per row of labels (B, N): each location's 1-based rank within its
    label group, in location order."""
    order = np.argsort(labels, axis=1, kind="stable")
    grouped = np.take_along_axis(labels, order, axis=1)
    positions = np.broadcast_to(np.arange(labels.shape[1]), labels.shape)
    starts = np.ones(labels.shape, dtype=bool)
    starts[:, 1:] = grouped[:, 1:] != grouped[:, :-1]
    group_start = np.maximum.accumulate(np.where(starts, positions, 0), axis=1)
    ranks = np.empty(labels.shape, dtype=np.int64)
    np.put_along_axis(ranks, order, positions - group_start + 1, axis=1)
    return ranks


def _rows(image_id: str, label: int, picks: np.ndarray, values: np.ndarray
          ) -> list[SampledPoint]:
    return [
        SampledPoint(image_id, loc, label, rank, value)
        for rank, (loc, value) in enumerate(zip(picks.tolist(), values.tolist()), start=1)
    ]


# ---------------------------------------------------------------------------
# one (image, class) pair at a time


def _clamped_scores(sm: ScoreMap) -> np.ndarray:
    """(1, N) scores clamped at 0."""
    return np.maximum(sm.fg_flat(), 0.0)[None]


def sample_diverse_fg(sm: ScoreMap, f: FeatureGrid, k: int) -> list[SampledPoint]:
    """Greedy score-times-dissimilarity selection of k foreground points."""
    check_grid(f, sm.image_id)
    feats = f.grid.locations().astype(np.float64)
    if feats.shape[0] != sm.fg.size:
        raise DataError("score map and feature grid shapes differ")
    picks, values, _ = _greedy_fg(_clamped_scores(sm), k, _feature_rows(feats[None]))
    return _rows(sm.image_id, sm.class_id, picks[0], values[0])


def _random_background(n: int, k: int, rng: Rng) -> list[int]:
    """The fallback of an image with no foreground picks: k uniform distinct
    locations, ascending."""
    _check_k(k, n)
    return sorted(rng.sample_indices(n, k))


def sample_diverse_bg(
    fg_points: list[SampledPoint],
    f: FeatureGrid,
    k: int,
    rng: Rng | None = None,
) -> list[SampledPoint]:
    """k background points, each minimizing its max similarity to all
    foreground picks and to background points already chosen.

    An image with no foreground picks falls back to uniform random distinct
    locations (requires rng), flagged FLAG_RANDOM_BG with value 0.
    """
    check_grid(f, fg_points[0].image_id if fg_points else "")
    feats = f.grid.locations().astype(np.float64)[None]
    n = feats.shape[1]
    if not fg_points:
        if rng is None:
            raise DataError("no foreground points and no rng for the fallback")
        return [
            SampledPoint("", loc, BACKGROUND, r, 0.0, flags=(FLAG_RANDOM_BG,))
            for r, loc in enumerate(_random_background(n, k, rng), start=1)
        ]
    locs = np.array([[p.loc for p in fg_points]], dtype=np.int64)
    available = np.ones((1, n), dtype=bool)
    available[0, locs[0]] = False
    max_sim = _fold(_feature_rows(feats), locs, np.zeros((1, n), dtype=np.float64))
    picks, values = _background(feats, k, max_sim, available)
    return _rows(fg_points[0].image_id, BACKGROUND, picks[0], values[0])


def sample_top_k(sm: ScoreMap, k: int) -> list[SampledPoint]:
    """The k highest-scoring distinct locations; ties by lowest index."""
    picks, values = _top_k(_clamped_scores(sm), k)
    return _rows(sm.image_id, sm.class_id, picks[0], values[0])


def spatial_similarity(shape: tuple[int, int], loc: int, scale: float) -> np.ndarray:
    """Gaussian of grid distance from loc to every location, in (0, 1]."""
    h, w = shape
    rows, cols = np.divmod(np.arange(h * w), w)
    d2 = (rows - loc // w) ** 2.0 + (cols - loc % w) ** 2.0
    return np.exp(-d2 / (2.0 * scale * scale))


def default_spatial_scale(shape: tuple[int, int]) -> float:
    h, w = shape
    return math.hypot(h, w) / 8.0


def sample_spatial(sm: ScoreMap, k: int, scale: float | None = None) -> list[SampledPoint]:
    """Same greedy recursion as sample_diverse_fg with similarity replaced by
    a Gaussian of euclidean grid distance."""
    table = _spatial_table(sm.fg.shape, scale)
    picks, values, _ = _greedy_fg(_clamped_scores(sm), k, table.__getitem__)
    return _rows(sm.image_id, sm.class_id, picks[0], values[0])


# ---------------------------------------------------------------------------
# dense thresholded labeling


def _calibration(pair_class: np.ndarray, maxima: np.ndarray) -> dict[int, float]:
    """Per-class normalizer: the mean of the maximum foreground scores of the
    pairs of that class, so a calibrated present-class map peaks at 1 on
    average. Non-positive means are floored at 1e-6."""
    return {
        int(c): max(float(np.mean(maxima[pair_class == c])), 1e-6)
        for c in np.unique(pair_class)
    }


def dense_pseudo_labels(
    scoremaps: dict[int, ScoreMap],
    tau: float,
    calibration: dict[int, float],
) -> np.ndarray:
    """Label every location with the best calibrated class score, or
    BACKGROUND where that best score stays below tau.

    scoremaps holds the maps of the classes tagged present in the image; an
    empty dict labels everything background. Returns an (H, W) int array of
    class ids / BACKGROUND.
    """
    if not scoremaps:
        raise DataError("dense_pseudo_labels: no score maps (label all bg upstream)")
    class_ids = sorted(scoremaps)
    missing = [c for c in class_ids if c not in calibration]
    if missing:
        raise DataError(f"missing calibration constants for classes {missing}")
    shape = scoremaps[class_ids[0]].fg.shape
    if any(scoremaps[c].fg.shape != shape for c in class_ids):
        raise DataError("score map shapes differ across classes")
    fg = np.stack([scoremaps[c].fg_flat() for c in class_ids])
    labels, _ = _dense_labels(
        fg, np.zeros(len(class_ids), dtype=np.int64), np.array(class_ids), 1,
        tau, calibration,
    )
    return labels.reshape(shape)


# ---------------------------------------------------------------------------
# whole-dataset supervision sets


def score_tagged_classes(
    rec: SupervisionRecord, models: dict[int, LocalizationModel]
) -> dict[int, ScoreMap]:
    return {
        c: score_image(models[c], rec.features, image_id=rec.image_id)
        for c in sorted(rec.tags.present)
    }


def image_stream(seed: int, index: int) -> Rng:
    """The per-image random stream used by the whole-dataset samplers."""
    return Rng(derive_seed(seed, 0x5A3F0000 + index))


def build_supervision_set(
    dataset: list[SupervisionRecord],
    models: dict[int, LocalizationModel],
    config: SamplingConfig,
    seed: int,
    maps_by_image: dict[str, dict[int, ScoreMap]] | None = None,
) -> PointSet:
    """Run the configured sampler over every training image.

    For each image and each tagged class: k foreground points; then k
    background points from the pooled foreground picks (the dense strategy
    instead labels every location once via the threshold rule). Images with
    an empty tag set get k flagged random background points (dense: all
    background). Points come image by image; within an image, foreground
    points by class then rank, then background. Deterministic given the
    seed; per-image randomness is an independent derived stream, so the
    chunking cannot change the result. Score maps may be passed in (e.g.
    read from files); by default they are computed here, and only then are
    models needed. An image's maps may lack a tagged class, or the image
    may have no entry: it gets points from the maps it has. Records that
    break check_records, or a map whose shape differs from the feature
    grid, are a DataError.
    """
    if maps_by_image is None:
        missing = sorted(
            {c for rec in dataset for c in rec.tags.present} - set(models)
        )
        if missing:
            raise DataError(f"no localization model for tagged classes {missing}")
    return _sample(dataset, config, seed, models, maps_by_image)


def sample_class_points(
    records: list[SupervisionRecord],
    model: LocalizationModel,
    config: SamplingConfig,
    seed: int,
) -> PointSet:
    """Points of model's class alone on the records tagged with it, as
    build_supervision_set would sample them: what class addition learns the
    new class from. Records without the tag get no points."""
    c = model.class_id
    tagged = [
        SupervisionRecord(r.image_id, r.features, TagSet(r.image_id, frozenset({c})))
        for r in records
        if c in r.tags
    ]
    return _sample(tagged, config, seed, {c: model}, None)


def _stack(records: list[SupervisionRecord]) -> np.ndarray:
    """(B, N, D) float64 locations of the records' features."""
    return np.stack([r.features.grid.locations() for r in records], dtype=np.float64)


def _pair_scores(records, models, maps_by_image, feats):
    """Image index, class id and raw fg scores (P, N) float64 of every
    (image, class) pair of the chunk, image by image, classes ascending:
    the pairs with a given map, else the tagged pairs scored with one
    forward pass per class over feats (B, N, D)."""
    g = records[0].features.grid
    shape = (g.height, g.width)
    pairs, fg = [], []
    for b, rec in enumerate(records):
        if maps_by_image is None:
            pairs += [(b, c) for c in sorted(rec.tags.present)]
            continue
        maps = maps_by_image.get(rec.image_id, {})
        for c in sorted(maps):
            if maps[c].fg.shape != shape:
                raise DataError(
                    f"score map of image {rec.image_id!r}, class {c}: shape "
                    f"{maps[c].fg.shape} differs from its feature grid {shape}"
                )
            pairs.append((b, c))
            fg.append(maps[c].fg_flat())
    pair_image = np.array([b for b, _ in pairs], dtype=np.int64)
    pair_class = np.array([c for _, c in pairs], dtype=np.int64)
    if maps_by_image is not None:
        fg = np.array(fg, dtype=np.float64).reshape(len(pairs), g.n_locations)
        return pair_image, pair_class, fg
    scores = np.empty((len(pairs), g.n_locations), dtype=np.float64)
    for c in np.unique(pair_class).tolist():
        rows = np.flatnonzero(pair_class == c)
        scores[rows] = score_batch(models[c], feats[pair_image[rows]])[:, :, 0]
    return pair_image, pair_class, scores


def _block(image, label, picks, values, flags=0):
    """Columns of the k picks of each of len(image) rows, ranked 1..k."""
    m, k = picks.shape
    return (
        np.repeat(image, k), picks.ravel(), np.repeat(label, k),
        np.tile(np.arange(1, k + 1), m), values.ravel(),
        np.full(m * k, flags, dtype=np.uint8),
    )


def _point_set(records, blocks) -> PointSet:
    """The blocks' points ordered by image, blocks in order within one."""
    columns = [
        np.concatenate([block[c] for block in blocks]).astype(dtype, copy=False)
        for c, dtype in enumerate(_COLUMN_DTYPES)
    ]
    order = np.argsort(columns[0], kind="stable")
    return PointSet(tuple(r.image_id for r in records), *(c[order] for c in columns))


def _sample(dataset, config, seed, models, maps_by_image) -> PointSet:
    """The lockstep core behind build_supervision_set."""
    check_records(dataset)
    chunks = [dataset[start : start + CHUNK] for start in range(0, len(dataset), CHUNK)]
    if config.strategy != "dense":
        table = None
        if config.strategy == "spatial" and dataset:
            g = dataset[0].features.grid
            table = _spatial_table((g.height, g.width), config.spatial_scale)
        return PointSet.concat([
            _sample_chunk(i * CHUNK, records, config, seed, models, maps_by_image, table)
            for i, records in enumerate(chunks)
        ])
    # dense labels divide by a calibration over all maps, so score them first
    scored = [
        (records, _pair_scores(
            records, models, maps_by_image,
            _stack(records) if maps_by_image is None else None,
        ))
        for records in chunks
    ]
    calibration = _calibration(
        np.concatenate([np.empty(0, np.int64)] + [c for _, (_, c, _) in scored]),
        np.concatenate([np.empty(0)] + [fg.max(axis=1) for _, (_, _, fg) in scored]),
    )
    return PointSet.concat([
        _dense_chunk(records, pairs, config.tau, calibration) for records, pairs in scored
    ])


def _dense_chunk(records, pairs, tau, calibration) -> PointSet:
    """Every location of every image, in location order."""
    pair_image, pair_class, fg = pairs
    b, n = len(records), records[0].features.grid.n_locations
    labels, values = _dense_labels(fg, pair_image, pair_class, b, tau, calibration)
    return _point_set(records, [(
        np.repeat(np.arange(b), n), np.tile(np.arange(n), b), labels.ravel(),
        _label_ranks(labels).ravel(), values.ravel(), np.zeros(b * n, dtype=np.uint8),
    )])


def _sample_chunk(start, records, config, seed, models, maps_by_image, table) -> PointSet:
    """k foreground points per pair, then k background points per image,
    of the non-dense strategies; table is the spatial strategy's."""
    feats = _stack(records)
    b, n, _ = feats.shape
    k = config.k
    pair_image, pair_class, fg = _pair_scores(records, models, maps_by_image, feats)
    blocks = []
    if pair_image.shape[0]:
        scores = np.maximum(fg, 0.0)
        similarity = _feature_rows(feats[pair_image])
        if config.strategy == "diverse":
            picks, values, fg_sim = _greedy_fg(scores, k, similarity)
        else:
            if config.strategy == "top_k":
                picks, values = _top_k(scores, k)
            else:
                picks, values, _ = _greedy_fg(scores, k, table.__getitem__)
            fg_sim = _fold(similarity, picks, np.zeros(scores.shape, dtype=np.float64))
        blocks.append(_block(pair_image, pair_class, picks, values))
        # an image's foreground max similarity is the max over its pairs'
        images, first, slot = np.unique(pair_image, return_index=True, return_inverse=True)
        available = np.ones((images.shape[0], n), dtype=bool)
        available[slot[:, None], picks] = False
        bg_picks, bg_values = _background(
            feats[images], k, np.maximum.reduceat(fg_sim, first, axis=0), available
        )
        blocks.append(_block(images, np.full(images.shape, BACKGROUND), bg_picks, bg_values))
    for i in np.setdiff1d(np.arange(b), pair_image).tolist():
        locs = _random_background(n, k, image_stream(seed, start + i))
        blocks.append(_block(
            np.array([i]), np.array([BACKGROUND]), np.array([locs]), np.zeros((1, k)),
            flags=1 << FLAGS.index(FLAG_RANDOM_BG),
        ))
    return _point_set(records, blocks)


# ---------------------------------------------------------------------------
# JSON-lines serialization: {"image", "loc", "label", "rank", "value", "flags"}


def save_points(points, path) -> None:
    """Write a PointSet (or any SampledPoint rows), one JSON object a line:
    the bytes of json.dumps(row, sort_keys=True) with the keys flags, image,
    label, loc, rank, value, written from the columns. Each image id and
    flag tuple is encoded once; floats keep float.__repr__, as json does."""
    points = PointSet.of(points)
    ids = [json.dumps(image_id) for image_id in points.image_ids]
    flags = [json.dumps(list(names)) for names in _FLAG_NAMES]
    with atomic_write(path) as fh:
        fh.writelines(
            f'{{"flags": {flags[f]}, "image": {ids[i]}, "label": {label}, '
            f'"loc": {loc}, "rank": {rank}, "value": {_json_float(value)}}}\n'
            for i, loc, label, rank, value, f in zip(*(c.tolist() for c in points._columns()))
        )


def _json_float(value: float) -> str:
    return repr(value) if math.isfinite(value) else json.dumps(value)


def _is_int64(v) -> bool:
    return is_int(v) and -(2**63) <= v < 2**63


#: a points line's fields in SampledPoint order: (key, check, what it must be)
_POINT_FIELDS = (
    ("image", lambda v: isinstance(v, str), "a string"),
    ("loc", _is_int64, "an integer"),
    ("label", _is_int64, "an integer"),
    ("rank", _is_int64, "an integer"),
    ("value", lambda v: isinstance(v, float) or _is_int64(v), "a number"),
    ("flags", lambda v: isinstance(v, list) and all(f in FLAGS for f in v)
     and len(set(v)) == len(v), f"a list of distinct names from {list(FLAGS)}"),
)


def load_points(path) -> PointSet:
    """Read a points file; DataError naming the file and line for a line
    that is not a UTF-8 JSON object, or lacks or mistypes a field: image a
    string, loc, label and rank integers, value a number (bools are
    neither), flags (optional) a list of known names."""
    points = []
    with open(path, "rb") as fh:  # json.loads decodes, so a bad byte is a ValueError
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}: malformed point"
            try:
                d = json.loads(line)
            except ValueError as e:
                raise DataError(f"{where}: {type(e).__name__} {e}")
            if not isinstance(d, dict):
                raise DataError(f"{where}: not a JSON object")
            d = {"flags": [], **d}
            for key, valid, want in _POINT_FIELDS:
                if key not in d:
                    raise DataError(f"{where}: missing key {key!r}")
                if not valid(d[key]):
                    raise DataError(f"{where}: {key!r} must be {want}, got {d[key]!r}")
            image, loc, label, rank, value, flags = (d[key] for key, _, _ in _POINT_FIELDS)
            points.append(SampledPoint(image, loc, label, rank, float(value), tuple(flags)))
    return PointSet.of(points)
