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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .localization import LocalizationModel, ScoreMap, TagSet, score_image
from .rng import Rng, derive_seed
from .tensor import FeatureGrid, NormState

BACKGROUND = -1

STRATEGIES = ("diverse", "top_k", "spatial", "dense")

#: flag set on background points drawn uniformly because an image had no
#: foreground picks at all
FLAG_RANDOM_BG = "random_bg_fallback"


@dataclass(frozen=True)
class SampledPoint:
    image_id: str
    loc: int  # flat grid location, row * width + col
    label: int  # class id, or BACKGROUND (-1)
    rank: int  # 1-based selection order within its (image, label) group
    value: float  # selection objective at pick time
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class SamplingConfig:
    k: int = 20
    strategy: str = "diverse"
    tau: float = 0.2  # dense mode only
    spatial_scale: float | None = None  # spatial mode; None = diagonal / 8

    def __post_init__(self):
        if self.k < 1:
            raise DataError(f"k must be >= 1, got {self.k}")
        if self.strategy not in STRATEGIES:
            raise DataError(f"unknown strategy {self.strategy!r}")
        if not math.isfinite(self.tau):
            raise DataError("tau must be finite")


def _clamped_scores(sm: ScoreMap) -> np.ndarray:
    return np.maximum(sm.fg_flat(), 0.0)


def _unit_locations(f: FeatureGrid) -> np.ndarray:
    if f.norm_state != NormState.UNIT:
        raise DataError("sampling requires unit-normalized features")
    return f.grid.locations().astype(np.float64)


def _greedy(
    image_id: str,
    label: int,
    k: int,
    similarity,
    objective,
    max_sim: np.ndarray,
    available: np.ndarray,
    lowest: bool = False,
) -> list[SampledPoint]:
    """The greedy recursion every non-dense sampler runs: k steps, each taking
    the first argmax (argmin when lowest) of objective(max_sim) over the
    available locations, then folding the pick's similarity(loc) row into
    the running per-location max max_sim, so a step costs O(N * D) instead
    of re-scanning all previous picks. max_sim and available change in place.
    """
    best, fill = (np.argmin, np.inf) if lowest else (np.argmax, -np.inf)
    picks: list[SampledPoint] = []
    for rank in range(1, k + 1):
        masked = np.where(available, objective(max_sim), fill)
        i = int(best(masked))
        picks.append(SampledPoint(image_id, i, label, rank, float(masked[i])))
        available[i] = False
        np.maximum(max_sim, similarity(i), out=max_sim)
    return picks


def _greedy_fg(sm: ScoreMap, k: int, similarity) -> list[SampledPoint]:
    """k foreground points maximizing score * (1 - max similarity to earlier
    picks)."""
    scores = _clamped_scores(sm)
    n = scores.shape[0]
    if k > n:
        raise DataError(f"k={k} exceeds {n} locations")
    return _greedy(
        sm.image_id, sm.class_id, k, similarity,
        lambda max_sim: scores * (1.0 - max_sim),
        np.zeros(n, dtype=np.float64), np.ones(n, dtype=bool),
    )


def sample_diverse_fg(sm: ScoreMap, f: FeatureGrid, k: int) -> list[SampledPoint]:
    """Greedy score-times-dissimilarity selection of k foreground points."""
    feats = _unit_locations(f)
    if feats.shape[0] != sm.fg.size:
        raise DataError("score map and feature grid shapes differ")
    return _greedy_fg(sm, k, lambda loc: np.abs(feats @ feats[loc]))


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
    feats = _unit_locations(f)
    n = feats.shape[0]
    if not fg_points:
        if rng is None:
            raise DataError("no foreground points and no rng for the fallback")
        if k > n:
            raise DataError(f"k={k} exceeds {n} locations")
        locs = sorted(rng.sample_indices(n, k))
        return [
            SampledPoint("", loc, BACKGROUND, r, 0.0, flags=(FLAG_RANDOM_BG,))
            for r, loc in enumerate(locs, start=1)
        ]
    taken = {p.loc for p in fg_points}
    if k > n - len(taken):
        raise DataError(f"k={k} exceeds {n - len(taken)} free locations")
    available = np.ones(n, dtype=bool)
    available[list(taken)] = False

    def similarity(loc):
        return np.abs(feats @ feats[loc])

    max_sim = np.zeros(n, dtype=np.float64)
    for p in fg_points:
        np.maximum(max_sim, similarity(p.loc), out=max_sim)
    return _greedy(
        fg_points[0].image_id, BACKGROUND, k, similarity, lambda max_sim: max_sim,
        max_sim, available, lowest=True,
    )


def sample_top_k(sm: ScoreMap, k: int) -> list[SampledPoint]:
    """The k highest-scoring distinct locations; ties by lowest index."""
    scores = _clamped_scores(sm)
    if k > scores.shape[0]:
        raise DataError(f"k={k} exceeds {scores.shape[0]} locations")
    order = np.argsort(-scores, kind="stable")[:k]
    return [
        SampledPoint(sm.image_id, int(loc), sm.class_id, rank, float(scores[loc]))
        for rank, loc in enumerate(order, start=1)
    ]


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
    shape = sm.fg.shape
    if scale is None:
        scale = default_spatial_scale(shape)
    return _greedy_fg(sm, k, lambda loc: spatial_similarity(shape, loc, scale))


# ---------------------------------------------------------------------------
# dense thresholded labeling


def compute_dense_calibration(
    scoremaps_by_image: dict[str, dict[int, ScoreMap]]
) -> dict[int, float]:
    """Per-class normalizer: the mean over images containing the class of the
    image's maximum foreground score, so a calibrated present-class map peaks
    at 1 on average. Non-positive means are floored at 1e-6."""
    maxima: dict[int, list[float]] = {}
    for maps in scoremaps_by_image.values():
        for c, sm in maps.items():
            maxima.setdefault(c, []).append(float(sm.fg_flat().max()))
    return {c: max(float(np.mean(v)), 1e-6) for c, v in maxima.items()}


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
    labels, _ = _dense_labels_and_values(scoremaps, tau, calibration)
    return labels


def _dense_labels_and_values(
    scoremaps: dict[int, ScoreMap],
    tau: float,
    calibration: dict[int, float],
) -> tuple[np.ndarray, np.ndarray]:
    """dense_pseudo_labels plus each location's best calibrated score."""
    if not scoremaps:
        raise DataError("dense_pseudo_labels: no score maps (label all bg upstream)")
    class_ids = sorted(scoremaps)
    missing = [c for c in class_ids if c not in calibration]
    if missing:
        raise DataError(f"missing calibration constants for classes {missing}")
    shape = next(iter(scoremaps.values())).fg.shape
    stack = np.stack(
        [scoremaps[c].fg.astype(np.float64) / calibration[c] for c in class_ids]
    )
    best = np.argmax(stack, axis=0)  # lowest class index on ties
    best_val = np.take_along_axis(stack, best[None], axis=0)[0]
    labels = np.array(class_ids, dtype=np.int64)[best]
    labels[best_val < tau] = BACKGROUND
    if labels.shape != shape:
        raise DataError("score map shapes differ across classes")
    return labels, best_val


def _dense_points(
    image_id: str,
    labels: np.ndarray,
    values: np.ndarray,
) -> list[SampledPoint]:
    """Dense labeling as a point list: every location, ranked per label group
    in location order."""
    points = []
    counters: dict[int, int] = {}
    flat = labels.ravel()
    vals = values.ravel()
    for loc in range(flat.shape[0]):
        label = int(flat[loc])
        rank = counters.get(label, 0) + 1
        counters[label] = rank
        points.append(SampledPoint(image_id, loc, label, rank, float(vals[loc])))
    return points


# ---------------------------------------------------------------------------
# whole-dataset supervision sets


@dataclass
class SupervisionRecord:
    image_id: str
    features: FeatureGrid  # unit-normalized
    tags: TagSet


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
) -> list[SampledPoint]:
    """Run the configured sampler over every training image.

    For each image and each tagged class: k foreground points; then k
    background points from the pooled foreground picks (the dense strategy
    instead labels every location once via the threshold rule). Images with
    an empty tag set get k flagged random background points (dense: all
    background). Deterministic given the seed; per-image randomness is an
    independent derived stream, so ordering and worker count cannot change
    the result. Precomputed score maps may be passed in (e.g. from a worker
    pool, or read from files); by default they are computed here, and only
    then are models needed. An image's maps may lack a tagged class: it gets
    points from the maps it has.
    """
    if maps_by_image is None:
        missing = sorted(
            {c for rec in dataset for c in rec.tags.present} - set(models)
        )
        if missing:
            raise DataError(f"no localization model for tagged classes {missing}")
        maps_by_image = {
            rec.image_id: score_tagged_classes(rec, models) for rec in dataset
        }

    calibration: dict[int, float] = {}
    if config.strategy == "dense":
        calibration = compute_dense_calibration(maps_by_image)

    points: list[SampledPoint] = []
    for index, rec in enumerate(dataset):
        maps = maps_by_image[rec.image_id]
        points.extend(
            sample_image(rec, maps, config, calibration, image_stream(seed, index))
        )
    return points


def sample_image(
    rec: SupervisionRecord,
    maps: dict[int, ScoreMap],
    config: SamplingConfig,
    calibration: dict[int, float],
    rng: Rng,
) -> list[SampledPoint]:
    """Points for a single image; see build_supervision_set."""
    h, w = rec.features.grid.height, rec.features.grid.width
    if config.strategy == "dense":
        if not maps:
            labels = np.full((h, w), BACKGROUND, dtype=np.int64)
            values = np.zeros((h, w))
        else:
            labels, values = _dense_labels_and_values(maps, config.tau, calibration)
        return _dense_points(rec.image_id, labels, values)

    fg_points: list[SampledPoint] = []
    for c in sorted(maps):
        sm = maps[c]
        if config.strategy == "diverse":
            fg_points.extend(sample_diverse_fg(sm, rec.features, config.k))
        elif config.strategy == "top_k":
            fg_points.extend(sample_top_k(sm, config.k))
        elif config.strategy == "spatial":
            fg_points.extend(sample_spatial(sm, config.k, config.spatial_scale))
    bg_points = sample_diverse_bg(fg_points, rec.features, config.k, rng=rng)
    if not fg_points:
        bg_points = [
            SampledPoint(rec.image_id, p.loc, p.label, p.rank, p.value, p.flags)
            for p in bg_points
        ]
    return fg_points + bg_points


# ---------------------------------------------------------------------------
# JSON-lines serialization: {"image", "loc", "label", "rank", "value", "flags"}


def save_points(points: list[SampledPoint], path) -> None:
    with open(path, "w") as fh:
        for p in points:
            fh.write(
                json.dumps(
                    {
                        "image": p.image_id,
                        "loc": p.loc,
                        "label": p.label,
                        "rank": p.rank,
                        "value": p.value,
                        "flags": list(p.flags),
                    },
                    sort_keys=True,
                )
            )
            fh.write("\n")


def load_points(path) -> list[SampledPoint]:
    """Read a points file; DataError naming the file and line for a line
    that is not JSON or lacks or mistypes a field."""
    points = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                d = json.loads(line)
                points.append(
                    SampledPoint(
                        image_id=d["image"],
                        loc=int(d["loc"]),
                        label=int(d["label"]),
                        rank=int(d["rank"]),
                        value=float(d["value"]),
                        flags=tuple(d.get("flags", [])),
                    )
                )
            except (KeyError, TypeError, ValueError) as e:
                raise DataError(f"{path}:{lineno}: malformed point: {type(e).__name__} {e}")
    return points
