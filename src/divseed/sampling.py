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

Scoring and sampling are separate steps. `pair_scores` runs the
localizers: one float32 forward pass per class over a slice of CHUNK images
gives the raw foreground scores of every tagged (image, class) pair.
`build_supervision_set` samples from those scores and the records alone;
it checks the records once (localization.check_records: unit features, one
grid shape for the whole dataset) and the scores against them, then takes
the images in slices of CHUNK: each greedy step runs for all pairs of a
slice at once on (pairs, locations) arrays, then background points are
picked for all its images at once. The per-pair samplers
(`sample_diverse_fg`, `sample_diverse_bg`, `sample_top_k`, `sample_spatial`,
`dense_pseudo_labels`) are one-pair calls of the same steps. Points come
back as a `PointSet` of parallel columns.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError, check_fields, is_int, require_count, require_rate
from .localization import (LocalizationModel, ScoreMap, SupervisionRecord, TagSet,
                           check_grid, check_records, score_batch, score_image)
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

#: images sampled in lockstep; the points do not depend on it. Small enough
#: that a chunk's float64 pair features (about 15 pairs of 256 x 48 on the
#: default grids) stay in a core's L2 cache across the greedy steps.
CHUNK = 12


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


def _feature_rows(feats: np.ndarray, out: np.ndarray | None = None):
    """Similarity rows for feats (P, N, D): picks (P,) -> |feats[p] .
    feats[p, picks[p]]| as (P, N), one matrix-vector product per row, each
    call's written into out, a (P, N, 1) float64 array, when given."""
    ar = np.arange(feats.shape[0])

    def rows(picks):
        sim = np.matmul(feats, feats[ar, picks][:, :, None], out=out)
        return np.abs(sim, out=sim)[:, :, 0]

    return rows


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


def _background(feats: np.ndarray, k: int, max_sim: np.ndarray, available: np.ndarray,
                sim: np.ndarray | None = None):
    """k background points per image (P, N, D), each minimizing its max
    similarity to the foreground picks (folded into max_sim, taken out of
    available) and to background points already chosen; sim is
    _feature_rows' out."""
    free = available.sum(axis=1)
    if (free < k).any():
        raise DataError(f"k={k} exceeds {free[free < k][0]} free locations")
    return _greedy(
        k, _feature_rows(feats, sim), lambda max_sim: max_sim, max_sim, available, lowest=True
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
    feats = f.locations().astype(np.float64)
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
    feats = f.locations().astype(np.float64)[None]
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


class PairScores(NamedTuple):
    """Raw foreground scores of every tagged (image, class) pair of a list
    of records, image by image, classes ascending."""

    image: np.ndarray  # (P,) int64 index into the records
    class_id: np.ndarray  # (P,) int64
    fg: np.ndarray  # (P, N) float64


def _tagged_pairs(records: list[SupervisionRecord]):
    """check_records, then the image index and class id of every tagged pair
    and the grid's location count."""
    check_records(records)
    pairs = [(i, c) for i, rec in enumerate(records) for c in sorted(rec.tags.present)]
    return (np.array([i for i, _ in pairs], dtype=np.int64),
            np.array([c for _, c in pairs], dtype=np.int64),
            records[0].features.n_locations if records else 0)


def pair_scores(
    records: list[SupervisionRecord], models: dict[int, LocalizationModel]
) -> PairScores:
    """Score every tagged pair of records: CHUNK images at a time, one
    forward pass per class in float32 chunk buffers, each row the bits of
    its pair's score_image. DataError for records that break check_records
    or a tagged class without a model."""
    image, class_id, n = _tagged_pairs(records)
    missing = sorted(set(class_id.tolist()) - set(models))
    if missing:
        raise DataError(f"no localization model for tagged classes {missing}")
    fg = np.empty((image.shape[0], n), dtype=np.float64)
    if not records:
        return PairScores(image, class_id, fg)
    # one set of float32 chunk buffers for the call: the images of a class,
    # and the activations of the widest model
    x_buf = np.empty((min(CHUNK, len(records)), n, records[0].features.depth), np.float32)
    hidden = max((models[c].dims[1] for c in set(class_id.tolist())), default=0)
    a1_buf = np.empty(x_buf.shape[0] * n * hidden, np.float32)
    y_buf = np.empty(x_buf.shape[0] * n * 2, np.float32)
    for start in range(0, len(records), CHUNK):
        lo, hi = np.searchsorted(image, [start, start + CHUNK]).tolist()
        for c in np.unique(class_id[lo:hi]).tolist():
            rows = lo + np.flatnonzero(class_id[lo:hi] == c)
            x = _fill(x_buf, records, image[rows].tolist())
            bn, h = x.shape[0] * n, models[c].dims[1]
            out = a1_buf[: bn * h].reshape(bn, h), y_buf[: bn * 2].reshape(bn, 2)
            fg[rows] = score_batch(models[c], x, out)[:, :, 0]
    return PairScores(image, class_id, fg)


def build_supervision_set(
    records: list[SupervisionRecord],
    scores: PairScores,
    config: SamplingConfig,
    seed: int,
) -> PointSet:
    """Run the configured sampler over every record, from the pair_scores
    of the records.

    For each image and each tagged class: k foreground points; then k
    background points from the pooled foreground picks (the dense strategy
    instead labels every location once via the threshold rule, calibrated
    over all pairs). Images with an empty tag set get k flagged random
    background points (dense: all background). Points come image by image;
    within an image, foreground points by class then rank, then background.
    Deterministic given the seed; per-image randomness is an independent
    derived stream, so the chunking cannot change the result. DataError for
    records that break check_records, or scores that are not one row of the
    grid's locations for each tagged pair of the records, in order.
    """
    image, class_id, n = _tagged_pairs(records)
    if not (np.array_equal(scores.image, image) and np.array_equal(scores.class_id, class_id)):
        raise DataError(f"scores of {len(scores.image)} pairs are not the records' "
                        f"{len(image)} tagged (image, class) pairs in order")
    if scores.fg.shape != (len(image), n):
        raise DataError(f"scores of shape {scores.fg.shape}, want {(len(image), n)}")
    chunks = [(start, records[start : start + CHUNK]) for start in range(0, len(records), CHUNK)]
    if config.strategy == "dense":
        calibration = _calibration(class_id, scores.fg.max(axis=1, initial=-np.inf))
        return PointSet.concat([
            _dense_chunk(chunk, _chunk_scores(scores, start, len(chunk)), config.tau, calibration)
            for start, chunk in chunks
        ])
    table = None
    if config.strategy == "spatial" and records:
        f = records[0].features
        table = _spatial_table((f.height, f.width), config.spatial_scale)
    bufs = _ChunkBuffers(records, image) if records else None
    return PointSet.concat([
        _sample_chunk(start, chunk, _chunk_scores(scores, start, len(chunk)), config, seed,
                      table, bufs)
        for start, chunk in chunks
    ])


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
    return build_supervision_set(tagged, pair_scores(tagged, {c: model}), config, seed)


def _fill(out: np.ndarray, records: list[SupervisionRecord], indices: list[int]) -> np.ndarray:
    """The first len(indices) rows of out (B, N, D), filled with the
    locations of records[i] for each i in indices, as out's dtype."""
    x = out[: len(indices)]
    for row, i in enumerate(indices):
        x[row] = records[i].features.locations()
    return x


class _ChunkBuffers:
    """The float64 arrays build_supervision_set's chunks are sampled in,
    made once per call: the features of a chunk's tagged images and of its
    pairs, and the pairs' similarity rows. image is the pair image index of
    the records' tagged pairs."""

    def __init__(self, records: list[SupervisionRecord], image: np.ndarray):
        f = records[0].features
        cuts = np.searchsorted(image, np.arange(0, len(records) + CHUNK, CHUNK))
        pairs = int(np.diff(cuts).max())
        self.images = np.empty((min(CHUNK, len(records), pairs), f.n_locations, f.depth))
        self.pairs = np.empty((pairs, f.n_locations, f.depth))
        self.sim = np.empty((pairs, f.n_locations, 1))


def _chunk_scores(scores: PairScores, start: int, b: int):
    """Image index within the chunk, class id and raw fg scores (P, N) of
    the pairs of images start..start+b-1."""
    lo, hi = np.searchsorted(scores.image, [start, start + b]).tolist()
    return scores.image[lo:hi] - start, scores.class_id[lo:hi], scores.fg[lo:hi]


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


def _dense_chunk(records, pairs, tau, calibration) -> PointSet:
    """Every location of every image, in location order."""
    pair_image, pair_class, fg = pairs
    b, n = len(records), records[0].features.n_locations
    labels, values = _dense_labels(fg, pair_image, pair_class, b, tau, calibration)
    return _point_set(records, [(
        np.repeat(np.arange(b), n), np.tile(np.arange(n), b), labels.ravel(),
        _label_ranks(labels).ravel(), values.ravel(), np.zeros(b * n, dtype=np.uint8),
    )])


def _sample_chunk(start, records, pairs, config, seed, table, bufs) -> PointSet:
    """k foreground points per pair, then k background points per image,
    of the non-dense strategies, in bufs (a _ChunkBuffers); table is the
    spatial strategy's."""
    b, n = len(records), records[0].features.n_locations
    k = config.k
    pair_image, pair_class, fg = pairs
    blocks = []
    if pair_image.shape[0]:
        images, first, slot = np.unique(pair_image, return_index=True, return_inverse=True)
        image_feats = _fill(bufs.images, records, images.tolist())
        pair_feats = bufs.pairs[: slot.shape[0]]
        np.take(image_feats, slot, axis=0, out=pair_feats, mode="clip")  # slot is in range
        sim = bufs.sim[: slot.shape[0]]
        scores = np.maximum(fg, 0.0)
        similarity = _feature_rows(pair_feats, sim)
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
        available = np.ones((images.shape[0], n), dtype=bool)
        available[slot[:, None], picks] = False
        bg_picks, bg_values = _background(
            image_feats, k, np.maximum.reduceat(fg_sim, first, axis=0), available,
            sim[: images.shape[0]],
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
            image, loc, label, rank, value, flags = check_fields(
                {"flags": [], **d}, _POINT_FIELDS, where, DataError)
            points.append(SampledPoint(image, loc, label, rank, float(value), tuple(flags)))
    return PointSet.of(points)
