"""On-disk dataset layout and the JSON manifest tying it together.

A dataset directory holds:

    manifest.json      classes, sizes, extractor seed, per-image entries
    stats.dstn         (2, D) tensor: row 0 feature means, row 1 stds
    images/<id>.dstn   (H, W, 3) scene
    masks/<id>.dstn    (H, W) labels as float32 (background = n_classes)
    features/<id>.dstn (H/4, W/4, D) raw extractor output

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
STATS_NAME = "stats.dstn"


@dataclass(frozen=True)
class ManifestEntry:
    image_id: str
    image_path: str
    mask_path: str
    features_path: str
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

    def load_raw_features(self, entry: ManifestEntry) -> FeatureGrid:
        arr = load_tensor(self.path(entry.features_path))
        expected = (*self.grid_size, self.feature_depth)
        if arr.shape != expected:
            raise DataError(
                f"{entry.features_path}: features of shape {arr.shape}, "
                f"the manifest says {expected}"
            )
        return FeatureGrid(grid=Grid(arr))

    def load_unit_features(self, entry: ManifestEntry, stats: NormStats) -> FeatureGrid:
        return normalize_features(self.load_raw_features(entry), stats)

    def load_mask(self, entry: ManifestEntry) -> np.ndarray:
        return load_tensor(self.path(entry.mask_path)).astype(np.int64)

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
    with their features from spec, unit-normalized in place by stats (else
    by stats computed from them), and the stats. With out_dir the split is
    also written there with its raw features as a dataset directory."""
    scenes = generate_dataset(n, n_classes, size, size, seed, id_prefix=name)
    features = [extract_features(s, spec) for s in scenes]
    if stats is None:
        stats = compute_norm_stats(features)
    if out_dir is not None:
        write_dataset(out_dir, scenes, spec, stats, features)
    for i, f in enumerate(features):
        features[i] = normalize_features(f, stats)
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
    for sub in ("images", "masks", "features"):
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)

    entries = []
    for scene, feats in zip(scenes, features):
        image_id = scene.tags.image_id
        rel = {
            "image": f"images/{image_id}.dstn",
            "mask": f"masks/{image_id}.dstn",
            "features": f"features/{image_id}.dstn",
        }
        save_tensor(scene.image, os.path.join(out_dir, rel["image"]))
        save_tensor(scene.mask.astype(np.float32), os.path.join(out_dir, rel["mask"]))
        save_tensor(feats.grid.values, os.path.join(out_dir, rel["features"]))
        entries.append(
            {
                "id": image_id,
                "image": rel["image"],
                "mask": rel["mask"],
                "features": rel["features"],
                "tags": sorted(scene.tags.present),
            }
        )

    save_tensor(np.stack([stats.mean, stats.std]), os.path.join(out_dir, STATS_NAME))

    n_classes = scenes[0].n_classes
    h, w, _ = scenes[0].image.shape
    doc = {
        "version": 1,
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
        "images": entries,
    }
    manifest_path = os.path.join(out_dir, MANIFEST_NAME)
    save_json(doc, manifest_path)
    return manifest_path


def load_manifest(path: str) -> Manifest:
    """Read a manifest.json (or a directory containing one); DataError when
    it is missing, not UTF-8 JSON, or lacks or mistypes a field."""
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
        entries = [
            ManifestEntry(
                image_id=e["id"],
                image_path=e["image"],
                mask_path=e["mask"],
                features_path=e["features"],
                tags=frozenset(int(t) for t in e["tags"]),
            )
            for e in doc["images"]
        ]
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
