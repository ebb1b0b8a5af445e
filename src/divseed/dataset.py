"""On-disk dataset layout and the JSON manifest tying it together.

A dataset directory (manifest version 2) holds one stacked tensor per kind:

    manifest.json   classes, sizes, extractor seed, entries (id, tags)
    stats.dstn      (2, D) tensor: row 0 feature means, row 1 stds
    images.dstn     (N, H, W, 3) scenes
    masks.dstn      (N, H, W) labels as float32 (background = n_classes)
    features.dstn   (N, H/4, W/4, D) raw extractor output

Row i of each tensor belongs to manifest entry i. A Manifest reads each
tensor once, on first use, and checks its shape against the manifest.
Features are stored raw; consumers z-score + unit-normalize them against the
manifest's stats file on load. `make_split` builds every split, in memory and
on disk, one scene at a time, into one stacked features array per split
(a `FeatureStack`): a training split computes its stats, and a
split made from a training set (test splits, added-class data) takes that
set's extractor and frozen stats.
"""

from __future__ import annotations

import os
from contextlib import ExitStack
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError, check_fields, is_count, is_int, is_int_list
from .localization import SupervisionRecord, TagSet
from .synthdata import (
    GRID_FACTOR,
    ExtractorSpec,
    downsample_mask,
    extract_features,
    generate_scene,
)
from .tensor import (
    FeatureGrid,
    FeatureStack,
    NormStats,
    _require_finite,
    atomic_write,
    compute_norm_stats,
    load_json,
    load_tensor,
    normalize_features,
    save_tensor,
    tensor_rows,
    write_json,
)

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 2
STATS_NAME = "stats.dstn"
IMAGES_NAME = "images.dstn"
MASKS_NAME = "masks.dstn"
FEATURES_NAME = "features.dstn"


@dataclass(frozen=True)
class ManifestEntry:
    image_id: str
    row: int  # of each stacked tensor
    tags: frozenset[int]

    def tag_set(self) -> TagSet:
        return TagSet(image_id=self.image_id, present=self.tags)


@dataclass
class Manifest:
    root: str
    classes: list[int]
    image_size: tuple[int, int]
    grid_size: tuple[int, int]
    feature_depth: int
    extractor_seed: int
    stats_path: str
    entries: list[ManifestEntry]

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def background_label(self) -> int:
        return self.n_classes

    def path(self, rel: str) -> str:
        return os.path.join(self.root, rel)

    def load_stats(self) -> NormStats:
        arr = load_tensor(self.path(self.stats_path)).astype(np.float64)
        if arr.ndim != 2 or arr.shape[0] != 2:
            raise DataError(f"stats tensor must be (2, D), got {arr.shape}")
        _require_finite(arr, self.path(self.stats_path))
        return NormStats(mean=arr[0], std=arr[1])

    def _load_stacked(self, name: str, row_shape: tuple[int, ...]) -> np.ndarray:
        """The stacked tensor `name`; DataError naming it unless it holds one
        row of row_shape per entry."""
        arr = load_tensor(self.path(name))
        expected = (len(self.entries), *row_shape)
        if arr.shape != expected:
            raise DataError(
                f"{self.path(name)}: tensor of shape {arr.shape}, the manifest says {expected}"
            )
        return arr

    @cached_property
    def images(self) -> np.ndarray:
        return self._load_stacked(IMAGES_NAME, (*self.image_size, 3))

    @cached_property
    def masks(self) -> np.ndarray:
        masks = self._load_stacked(MASKS_NAME, self.image_size)
        if masks.size and not 0 <= masks.min() <= masks.max() <= self.background_label:
            raise DataError(f"{self.path(MASKS_NAME)}: labels outside 0..{self.background_label}")
        fractional = masks != np.round(masks)  # load_grid_truth casts the labels to integers
        if fractional.any():
            raise DataError(f"{self.path(MASKS_NAME)}: label {masks[fractional][0]} is not an "
                            "integer")
        return masks

    @cached_property
    def raw_features(self) -> np.ndarray:
        return self._load_stacked(FEATURES_NAME, (*self.grid_size, self.feature_depth))

    def entry(self, image_id: str) -> ManifestEntry:
        found = next((e for e in self.entries if e.image_id == image_id), None)
        if found is None:
            raise DataError(f"image {image_id!r} not in manifest")
        return found

    def load_raw_features(self, entry: ManifestEntry) -> FeatureGrid:
        return FeatureGrid(self.raw_features[entry.row])

    def load_unit_features(self, entry: ManifestEntry, stats: NormStats) -> FeatureGrid:
        return normalize_features(self.load_raw_features(entry), stats)

    def load_grid_truth(self, entry: ManifestEntry) -> np.ndarray:
        """Majority-vote downsampled mask at feature-grid resolution."""
        return downsample_mask(self.masks[entry.row].astype(np.int64), self.n_classes + 1)

    def load_records(self) -> list[SupervisionRecord]:
        stats = self.load_stats()
        return [
            SupervisionRecord(
                image_id=e.image_id,
                features=self.load_unit_features(e, stats),
                tags=e.tag_set(),
            )
            for e in self.entries
        ]

    def check_made_from(self, base: "Manifest") -> None:
        """DataError naming both manifests unless this dataset's features come
        from base's extractor and its stats file holds base's stats."""
        mine, theirs = (load_tensor(m.path(m.stats_path)) for m in (self, base))
        if self.extractor_seed != base.extractor_seed or not np.array_equal(mine, theirs):
            raise DataError(
                f"{self.path(MANIFEST_NAME)} was not made from {base.path(MANIFEST_NAME)}: "
                f"extractor seeds {self.extractor_seed} and {base.extractor_seed}, and the "
                "stats, must both match"
            )


def make_split(n: int, n_classes: int, size: int, seed: int, name: str, spec: ExtractorSpec,
               stats: NormStats | None = None, out_dir: str | None = None
               ) -> tuple[list[TagSet], FeatureStack, list[np.ndarray], NormStats]:
    """n size x size scenes from seed, ids prefixed by name, made one at a
    time (the sizes are checked by the caller: pipeline.config_split);
    returns their tags, their raw features from spec as one FeatureStack
    filled scene by scene, their grid-resolution truth, and the given stats
    (else stats computed from the features). With out_dir each
    scene is also appended to the split's stacked tensors there, which
    replace the old files only after the last row, the stats and
    write_dataset, so a failure before those renames leaves an earlier split
    whole."""
    grid = size // GRID_FACTOR
    tags, features, truth = [], FeatureStack(n, (grid, grid, spec.depth)), []
    with ExitStack() as files:
        rows = []
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            rows = [files.enter_context(tensor_rows(os.path.join(out_dir, f), (n, *row)))
                    for f, row in ((IMAGES_NAME, (size, size, 3)), (MASKS_NAME, (size, size)),
                                   (FEATURES_NAME, (grid, grid, spec.depth)))]
        for i in range(n):
            scene = generate_scene(seed, i, n_classes, size, size, name)
            raw = extract_features(scene, spec)
            for append, row in zip(rows, (scene.image, scene.mask, raw.values)):
                append(row)
            tags.append(scene.tags)
            features.append(raw)
            truth.append(downsample_mask(scene.mask, n_classes + 1))
        if stats is None:
            stats = compute_norm_stats(features)
        if out_dir is not None:
            write_dataset(out_dir, tags, n_classes, size, spec, stats)
    return tags, features, truth, stats


def write_dataset(out_dir: str, tags: list[TagSet], n_classes: int, size: int,
                  spec: ExtractorSpec, stats: NormStats) -> None:
    """Write a split's stats.dstn and manifest.json beside its stacked
    tensors (make_split writes those scene by scene and renames them after
    this). The manifest is written in full before stats.dstn and replaces
    its old file after it, so a failed write changes neither."""
    doc = {
        "version": MANIFEST_VERSION,
        "classes": list(range(n_classes)),
        "image_size": [size, size],
        "grid_size": [size // GRID_FACTOR, size // GRID_FACTOR],
        "feature_depth": spec.depth,
        "extractor": {
            "seed": spec.seed,
            "scales": list(spec.scales),
            "dims_per_scale": spec.dims_per_scale,
        },
        "norm_stats": STATS_NAME,
        "images": [{"id": t.image_id, "tags": sorted(t.present)} for t in tags],
    }
    manifest = os.path.join(out_dir, MANIFEST_NAME)
    with atomic_write(manifest) as fh:
        write_json(doc, fh, manifest)
        fh.flush()
        save_tensor(np.stack([stats.mean, stats.std]), os.path.join(out_dir, STATS_NAME))


def _is_size(v) -> bool:
    return isinstance(v, list) and len(v) == 2 and all(map(is_count, v))


#: a manifest's fields: (key, check, what it must be); a dot reaches into an
#: object
_MANIFEST_FIELDS = (
    ("classes", is_int_list, "a list of integers"),
    ("image_size", _is_size, "two integers >= 1"),
    ("grid_size", _is_size, "two integers >= 1"),
    ("feature_depth", is_count, "an integer >= 1"),
    ("extractor.seed", is_int, "an integer"),
    ("norm_stats", lambda v: isinstance(v, str), "a file name"),
    ("images", lambda v: isinstance(v, list) and all(isinstance(e, dict) for e in v),
     "a list of objects"),
)
#: each entry of its images list
_ENTRY_FIELDS = (
    ("id", lambda v: isinstance(v, str) and v != "", "a non-empty string"),
    ("tags", is_int_list, "a list of integers"),
)


def load_manifest(path: str) -> Manifest:
    """Read a version-2 manifest.json (or a directory containing one);
    DataError when it is missing, not UTF-8 JSON, of another version, lacks
    or mistypes a field (_MANIFEST_FIELDS, and _ENTRY_FIELDS per image; bools
    are not integers), tags an image with a class it does not list, or
    repeats an image id."""
    if os.path.isdir(path):
        path = os.path.join(path, MANIFEST_NAME)
    try:
        doc = load_json(path, DataError)
    except FileNotFoundError:
        raise DataError(f"manifest not found: {path}")
    root = os.path.dirname(os.path.abspath(path))
    if doc.get("version") != MANIFEST_VERSION:
        raise DataError(
            f"manifest {path} is version {doc.get('version')!r}, and only version "
            f"{MANIFEST_VERSION} (one stacked tensor per kind) is read; "
            "regenerate the dataset with `divseed gen-data`"
        )
    classes, image_size, grid_size, depth, extractor_seed, stats, images = check_fields(
        doc, _MANIFEST_FIELDS, f"manifest {path}", DataError)
    entries = []
    for row, e in enumerate(images):
        where = f"manifest {path}: images[{row}]"
        image_id, tags = check_fields(e, _ENTRY_FIELDS, where, DataError)
        if not set(classes).issuperset(tags):
            raise DataError(f"{where}: 'tags' {tags!r} name a class not in 'classes' {classes!r}")
        entries.append(ManifestEntry(image_id, row, frozenset(tags)))
    ids = [e.image_id for e in entries]
    if len(set(ids)) != len(ids):
        repeated = next(i for i in ids if ids.count(i) > 1)
        raise DataError(f"manifest {path} lists image {repeated!r} more than once")
    return Manifest(root, classes, tuple(image_size), tuple(grid_size), depth, extractor_seed,
                    stats, entries)
