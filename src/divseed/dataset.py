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
on disk: a training split computes its stats, and a split made from a
training set (test splits, added-class data) takes that set's extractor and
frozen stats.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError
from .localization import SupervisionRecord, TagSet
from .synthdata import (
    GRID_FACTOR,
    ExtractorSpec,
    SyntheticScene,
    downsample_mask,
    extract_features,
    generate_dataset,
)
from .tensor import (
    FeatureGrid,
    Grid,
    NormStats,
    compute_norm_stats,
    load_tensor,
    normalize_features,
    save_json,
    save_tensor,
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
        return self._load_stacked(MASKS_NAME, self.image_size)

    @cached_property
    def raw_features(self) -> np.ndarray:
        return self._load_stacked(FEATURES_NAME, (*self.grid_size, self.feature_depth))

    def entry(self, image_id: str) -> ManifestEntry:
        found = next((e for e in self.entries if e.image_id == image_id), None)
        if found is None:
            raise DataError(f"image {image_id!r} not in manifest")
        return found

    def load_image(self, entry: ManifestEntry) -> np.ndarray:
        return self.images[entry.row]

    def load_raw_features(self, entry: ManifestEntry) -> FeatureGrid:
        return FeatureGrid(grid=Grid(self.raw_features[entry.row]))

    def load_unit_features(self, entry: ManifestEntry, stats: NormStats) -> FeatureGrid:
        return normalize_features(self.load_raw_features(entry), stats)

    def load_mask(self, entry: ManifestEntry) -> np.ndarray:
        return self.masks[entry.row].astype(np.int64)

    def load_grid_truth(self, entry: ManifestEntry) -> np.ndarray:
        """Majority-vote downsampled mask at feature-grid resolution."""
        return downsample_mask(self.load_mask(entry), self.n_classes + 1)

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
               ) -> tuple[list[SyntheticScene], list[FeatureGrid], NormStats]:
    """n size x size scenes from seed, ids prefixed by name; returns them
    with their raw features from spec and the given stats (else stats
    computed from the features). With out_dir the split is also written
    there as a dataset directory."""
    scenes = generate_dataset(n, n_classes, size, size, seed, id_prefix=name)
    features = [extract_features(s, spec) for s in scenes]
    if stats is None:
        stats = compute_norm_stats(features)
    if out_dir is not None:
        write_dataset(out_dir, scenes, spec, stats, features)
    return scenes, features, stats


def write_dataset(
    out_dir: str,
    scenes: list[SyntheticScene],
    spec: ExtractorSpec,
    stats: NormStats,
    features: list[FeatureGrid],
) -> str:
    """Write scenes, their raw features from spec, stats and a manifest;
    returns the manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    save_tensor(np.stack([s.image for s in scenes]), os.path.join(out_dir, IMAGES_NAME))
    save_tensor(np.stack([s.mask for s in scenes]).astype(np.float32),
                os.path.join(out_dir, MASKS_NAME))
    save_tensor(np.stack([f.grid.values for f in features]),
                os.path.join(out_dir, FEATURES_NAME))
    save_tensor(np.stack([stats.mean, stats.std]), os.path.join(out_dir, STATS_NAME))

    n_classes = scenes[0].n_classes
    h, w, _ = scenes[0].image.shape
    doc = {
        "version": MANIFEST_VERSION,
        "classes": list(range(n_classes)),
        "image_size": [h, w],
        "grid_size": [h // GRID_FACTOR, w // GRID_FACTOR],
        "feature_depth": spec.depth,
        "extractor": {
            "seed": spec.seed,
            "scales": list(spec.scales),
            "dims_per_scale": spec.dims_per_scale,
        },
        "norm_stats": STATS_NAME,
        "images": [
            {"id": s.tags.image_id, "tags": sorted(s.tags.present)} for s in scenes
        ],
    }
    manifest_path = os.path.join(out_dir, MANIFEST_NAME)
    save_json(doc, manifest_path)
    return manifest_path


def load_manifest(path: str) -> Manifest:
    """Read a version-2 manifest.json (or a directory containing one);
    DataError when it is missing, not UTF-8 JSON, of another version, lacks
    or mistypes a field (norm_stats must be a string), or repeats an image
    id."""
    if os.path.isdir(path):
        path = os.path.join(path, MANIFEST_NAME)
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise DataError(f"manifest not found: {path}")
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise DataError(f"manifest {path} is not valid JSON: {e}")
    root = os.path.dirname(os.path.abspath(path))
    try:
        if doc["version"] != MANIFEST_VERSION:
            raise DataError(
                f"manifest {path} is version {doc['version']!r}, and only version "
                f"{MANIFEST_VERSION} (one stacked tensor per kind) is read; "
                "regenerate the dataset with `divseed gen-data`"
            )
        entries = [
            ManifestEntry(
                image_id=e["id"], row=row, tags=frozenset(int(t) for t in e["tags"])
            )
            for row, e in enumerate(doc["images"])
        ]
        if not isinstance(doc["norm_stats"], str):
            raise DataError(f"manifest {path}: norm_stats must be a file name, "
                            f"got {doc['norm_stats']!r}")
        ids = [e.image_id for e in entries]
        if len(set(ids)) != len(ids):
            repeated = next(i for i in ids if ids.count(i) > 1)
            raise DataError(f"manifest {path} lists image {repeated!r} more than once")
        return Manifest(
            root=root,
            classes=[int(c) for c in doc["classes"]],
            image_size=tuple(int(v) for v in doc["image_size"]),
            grid_size=tuple(int(v) for v in doc["grid_size"]),
            feature_depth=int(doc["feature_depth"]),
            extractor_seed=int(doc["extractor"]["seed"]),
            stats_path=doc["norm_stats"],
            entries=entries,
        )
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"manifest {path} is malformed: {type(e).__name__} {e}")
