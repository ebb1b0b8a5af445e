"""End-to-end orchestration: benchmark construction, full pipeline runs,
evaluation against ground truth, and ablation grids.

A pipeline run is: generate data -> train one localizer per class -> sample
points -> train the segmentation head -> evaluate. Every stage's randomness
comes from a stream derived from the single run seed, one stream per task
(class, image, stage), so results are independent of scheduling and worker
count. Reports and artifact hashes are reproducible bit-for-bit from the
config.

The stage functions below work in memory and are the only implementation:
`run_pipeline` and `ablation_run` both call them, and a run's output
directory is a sink they write to, never read back. So a run and an
ablation of the same config train and evaluate on bitwise-equal features.

Ground truth is only ever touched here (for evaluation) and in data
generation; training and sampling code never receives masks.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dataset import write_dataset
from .errors import ConfigError, DataError, DivseedError
from .evaluation import ConfusionMatrix, EvalReport, accumulate, miou
from .localization import (
    LocalizationModel,
    LocConfig,
    LocTrainResult,
    save_loc_checkpoint,
    train_localizer,
)
from .rng import derive_seed
from .sampling import (
    STRATEGIES,
    SampledPoint,
    SamplingConfig,
    SupervisionRecord,
    build_supervision_set,
    save_points,
    score_tagged_classes,
)
from .segmentation import (
    AugmentedFeatureGrid,
    SegConfig,
    SegmentationModel,
    SegTrainResult,
    augment_with_global,
    predict,
    save_seg_checkpoint,
    train_segmentation,
)
from .synthdata import ExtractorSpec, downsample_mask, extract_features, generate_dataset
from .tensor import FeatureGrid, compute_norm_stats, normalize_features, save_json

POOLINGS = ("global", "pixel")


@dataclass(frozen=True)
class PipelineConfig:
    """Every tunable of a full run; one flat JSON document."""

    seed: int = 7
    n_train: int = 500
    n_test: int = 100
    n_classes: int = 4
    image_size: int = 64
    loc_hidden: int = 64
    loc_lr_schedule: tuple[tuple[int, float], ...] = ((2, 2e-2), (1, 2e-3))
    pooling: str = "global"
    strategy: str = "diverse"
    k: int = 20
    tau: float = 0.2
    spatial_scale: float | None = None
    seg_hidden: int = 128
    seg_lr: float = 1e-3
    seg_epochs: int = 2
    seg_batch: int = 100
    jobs: int = 1

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and (not isinstance(value, int) or isinstance(value, bool)):
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
        if self.pooling not in POOLINGS:
            raise ConfigError(f"unknown pooling {self.pooling!r}, want one of {POOLINGS}")
        if self.strategy not in STRATEGIES:
            raise ConfigError(
                f"unknown strategy {self.strategy!r}, want one of {STRATEGIES}"
            )
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["loc_lr_schedule"] = [list(pair) for pair in self.loc_lr_schedule]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(d) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        d = dict(d)
        if "loc_lr_schedule" in d:
            d["loc_lr_schedule"] = tuple(
                (int(e), float(lr)) for e, lr in d["loc_lr_schedule"]
            )
        try:
            return cls(**d)
        except TypeError as e:
            raise ConfigError(str(e))

    def loc_config(self) -> LocConfig:
        return LocConfig(
            hidden=self.loc_hidden,
            lr_schedule=self.loc_lr_schedule,
            pooling=self.pooling,
        )

    def sampling_config(self) -> SamplingConfig:
        return SamplingConfig(
            k=self.k,
            strategy=self.strategy,
            tau=self.tau,
            spatial_scale=self.spatial_scale,
        )

    def seg_config(self) -> SegConfig:
        return SegConfig(
            hidden=self.seg_hidden,
            lr=self.seg_lr,
            epochs=self.seg_epochs,
            batch_size=self.seg_batch,
        )

    def report_echo(self) -> dict:
        """Config as logged in reports: semantic fields only (jobs controls
        scheduling, never results)."""
        d = self.to_dict()
        d.pop("jobs")
        return d


# stage seed streams
_STREAM_TRAIN_DATA = 0xDA7A1
_STREAM_TEST_DATA = 0xDA7A2
_STREAM_EXTRACTOR = 0xE87
_STREAM_LOC_BASE = 0x10C000
_STREAM_SAMPLING = 0x5A3F
_STREAM_SEG = 0x5E60


# ---------------------------------------------------------------------------
# benchmark data, optionally written out as dataset directories


@dataclass
class EvalImage:
    image_id: str
    features: FeatureGrid  # unit
    truth: np.ndarray  # grid-resolution labels, background = n_classes


@dataclass
class Benchmark:
    n_classes: int
    train_records: list[SupervisionRecord]
    test_images: list[EvalImage]
    extractor: ExtractorSpec
    norm_stats: object  # NormStats, frozen from the training split

    @cached_property
    def train_features(self) -> dict[str, AugmentedFeatureGrid]:
        """The head's input per training image, built on first use and shared
        by every head trained on this benchmark."""
        return {r.image_id: augment_with_global(r.features) for r in self.train_records}


def make_benchmark(config: PipelineConfig, data_dir: str | None = None) -> Benchmark:
    """Generate train/test scenes and normalized features in memory.

    With data_dir, both splits are also written there as dataset directories
    (data_dir/train, data_dir/test) sharing the training stats. Scenes and
    raw features are not kept in the Benchmark.
    """
    spec = ExtractorSpec(seed=derive_seed(config.seed, _STREAM_EXTRACTOR))
    size = config.image_size
    stats = None

    def split(name, n, stream):
        """(scene, unit features) pairs of one split; the training split,
        made first, fixes the stats."""
        nonlocal stats
        scenes = generate_dataset(
            n, config.n_classes, size, size,
            derive_seed(config.seed, stream), id_prefix=name,
        )
        features = [extract_features(s, spec) for s in scenes]
        if stats is None:
            stats = compute_norm_stats(features)
        if data_dir is not None:
            write_dataset(os.path.join(data_dir, name), scenes, spec, stats, features)
        # in place, so unit grids reuse the memory of the raw grids they replace
        for i, f in enumerate(features):
            features[i] = normalize_features(f, stats)
        return zip(scenes, features)

    train_records = [
        SupervisionRecord(image_id=s.tags.image_id, features=f, tags=s.tags)
        for s, f in split("train", config.n_train, _STREAM_TRAIN_DATA)
    ]
    test_images = [
        EvalImage(
            image_id=s.tags.image_id,
            features=f,
            truth=downsample_mask(s.mask, config.n_classes + 1),
        )
        for s, f in split("test", config.n_test, _STREAM_TEST_DATA)
    ]
    return Benchmark(
        n_classes=config.n_classes,
        train_records=train_records,
        test_images=test_images,
        extractor=spec,
        norm_stats=stats,
    )


# ---------------------------------------------------------------------------
# localizer training, optionally fanned out over processes


def _loc_task(args):
    class_id, records, loc_config, seed = args
    dataset = [(r.features, r.tags) for r in records]
    return class_id, train_localizer(class_id, dataset, loc_config, seed)


def train_localizers(
    records: list[SupervisionRecord],
    class_ids: list[int],
    loc_config: LocConfig,
    seed: int,
    jobs: int = 1,
) -> dict[int, LocTrainResult]:
    """One localizer per class, each on its own derived seed stream."""
    tasks = [
        (c, records, loc_config, derive_seed(seed, _STREAM_LOC_BASE + c))
        for c in sorted(class_ids)
    ]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = dict(pool.map(_loc_task, tasks))
    else:
        results = dict(_loc_task(t) for t in tasks)
    return {c: results[c] for c in sorted(results)}


def _score_task(args):
    indexed, models = args
    return [(rec.image_id, score_tagged_classes(rec, models)) for rec in indexed]


def sample_supervision(
    records: list[SupervisionRecord],
    models: dict[int, LocalizationModel],
    sampling_config: SamplingConfig,
    seed: int,
    jobs: int = 1,
) -> list[SampledPoint]:
    """build_supervision_set with per-image scoring optionally fanned out.

    Only the scoring forward passes move to workers; the greedy selection
    itself runs in order in the parent, so the output is identical for any
    worker count.
    """
    maps_by_image = None
    if jobs > 1 and len(records) > 1:
        chunks = [(records[i::jobs], models) for i in range(jobs)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            maps_by_image = {
                image_id: maps
                for part in pool.map(_score_task, chunks)
                for image_id, maps in part
            }
    return build_supervision_set(
        records, models, sampling_config, seed, maps_by_image=maps_by_image
    )


# ---------------------------------------------------------------------------
# segmentation head and evaluation


def _train_head(
    bench: Benchmark, points: list[SampledPoint], config: PipelineConfig
) -> SegTrainResult:
    return train_segmentation(
        points, bench.train_features, list(range(bench.n_classes)), config.seg_config(),
        derive_seed(config.seed, _STREAM_SEG),
    )


def evaluate_images(
    model: SegmentationModel,
    images: list[EvalImage],
    truth_background_label: int,
    config_echo: dict | None = None,
) -> tuple[EvalReport, ConfusionMatrix]:
    """Predict every image and score against grid-resolution ground truth.

    Truth grids carry class ids with their own background label; both are
    mapped into the model's index space (background last) before counting, so
    a model with a grown universe can still be scored on older truth.
    """
    lookup = np.full(truth_background_label + 1, -1, dtype=np.int64)
    for index, cid in enumerate(model.class_ids):
        if 0 <= cid < truth_background_label:
            lookup[cid] = index
    lookup[truth_background_label] = model.background_index
    cm = ConfusionMatrix(n_labels=model.n_classes + 1)
    for im in images:
        pred, _ = predict(model, augment_with_global(im.features))
        if im.truth.min() < 0 or im.truth.max() > truth_background_label:
            raise DataError(f"truth labels out of range for {im.image_id}")
        truth_idx = lookup[im.truth]
        if truth_idx.min() < 0:
            raise DataError("truth contains classes outside the model universe")
        accumulate(cm, pred, truth_idx)
    return miou(cm, config=config_echo), cm


# ---------------------------------------------------------------------------
# full run against an output directory


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _hash_tree(root: str) -> dict[str, str]:
    """Content hash of every file under root except a summary.json left there
    by an earlier run, which this run's summary replaces."""
    hashes = {}
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            full = os.path.join(dirpath, name)
            rel = os.path.relpath(full, root)
            if rel != "summary.json":
                hashes[rel] = _sha256(full)
    return hashes


def run_pipeline(config: PipelineConfig, out_dir: str) -> dict:
    """Execute all stages, writing artifacts under out_dir.

    Layout: data/train, data/test, loc/class_<id>/ checkpoints, points.jsonl,
    seg.ckpt/, report.json, config.json, summary.json. The summary carries
    per-stage wall-clock seconds and a content hash of every artifact file;
    everything except the timing section is reproducible from the config.
    config.json records the config without `jobs`, so the artifacts are the
    same for any worker count.
    """
    os.makedirs(out_dir, exist_ok=True)
    save_json(config.report_echo(), os.path.join(out_dir, "config.json"))

    stages = []

    def _timed(name, fn):
        t0 = time.perf_counter()
        try:
            result = fn()
        except DivseedError as e:
            # abort with the failing stage named; partial artifacts stay on disk
            raise type(e)(f"stage {name}: {e}") from e
        stages.append({"name": name, "seconds": round(time.perf_counter() - t0, 3)})
        return result

    bench = _timed(
        "gen-data", lambda: make_benchmark(config, os.path.join(out_dir, "data"))
    )

    def _loc():
        results = train_localizers(
            bench.train_records, list(range(bench.n_classes)), config.loc_config(),
            config.seed, config.jobs,
        )
        for c, res in results.items():
            save_loc_checkpoint(os.path.join(out_dir, "loc", f"class_{c}"), res)
        return results

    loc_results = _timed("train-loc", _loc)
    models = {c: r.model for c, r in loc_results.items()}

    def _sample():
        points = sample_supervision(
            bench.train_records, models, config.sampling_config(),
            derive_seed(config.seed, _STREAM_SAMPLING), jobs=config.jobs,
        )
        save_points(points, os.path.join(out_dir, "points.jsonl"))
        return points

    points = _timed("sample", _sample)

    def _seg():
        result = _train_head(bench, points, config)
        save_seg_checkpoint(
            os.path.join(out_dir, "seg.ckpt"), result, config.seg_config()
        )
        return result

    seg_result = _timed("train-seg", _seg)

    def _eval():
        report, _ = evaluate_images(
            seg_result.model, bench.test_images, bench.n_classes,
            config_echo=config.report_echo(),
        )
        save_json(report.to_dict(), os.path.join(out_dir, "report.json"))
        return report

    report = _timed("eval", _eval)

    summary = {
        "config": config.report_echo(),
        "stages": stages,
        "artifacts": _hash_tree(out_dir),
        "report": report.to_dict(),
    }
    save_json(summary, os.path.join(out_dir, "summary.json"))
    return summary


# ---------------------------------------------------------------------------
# ablation grids


def run_variant(
    bench: Benchmark,
    models: dict[int, LocalizationModel],
    config: PipelineConfig,
) -> tuple[EvalReport, SegTrainResult, list[SampledPoint]]:
    """Sampling + segmentation + eval on an existing benchmark and localizer
    set (the stages a sampling/k variant actually changes)."""
    points = build_supervision_set(
        bench.train_records, models, config.sampling_config(),
        derive_seed(config.seed, _STREAM_SAMPLING),
    )
    seg_result = _train_head(bench, points, config)
    report, _ = evaluate_images(
        seg_result.model, bench.test_images, bench.n_classes,
        config_echo=config.report_echo(),
    )
    return report, seg_result, points


def ablation_run(
    base: PipelineConfig,
    variants: list[dict],
    seeds: list[int],
    jobs: int = 1,
    log=None,
) -> dict:
    """Full pipeline per (variant, seed) with shared per-seed datasets.

    Each seed builds one benchmark and one localizer set per pooling mode
    (model training does not depend on the sampling variant); each variant
    then runs sampling + segmentation + evaluation on top. Rows are returned
    per (variant, seed), plus per-variant medians and a robustness analysis
    of any k-sweeps in the grid.
    """
    for v in variants:
        base_with(base, v)  # validate early, before any work
    rows = []
    for seed in seeds:
        seed_cfg = base_with(base, {"seed": seed})
        if log:
            log(f"[ablate] seed {seed}: generating benchmark")
        bench = make_benchmark(seed_cfg)
        poolings = sorted({base_with(base, v).pooling for v in variants})
        models_by_pooling = {}
        for pooling in poolings:
            cfg = base_with(seed_cfg, {"pooling": pooling})
            if log:
                log(f"[ablate] seed {seed}: training localizers ({pooling})")
            results = train_localizers(
                bench.train_records, list(range(cfg.n_classes)),
                cfg.loc_config(), cfg.seed, jobs,
            )
            models_by_pooling[pooling] = {c: r.model for c, r in results.items()}
        for v in variants:
            cfg = base_with(seed_cfg, v)
            report, _, _ = run_variant(bench, models_by_pooling[cfg.pooling], cfg)
            if log:
                log(f"[ablate] seed {seed}: {variant_name(v)} miou={report.miou:.4f}")
            rows.append(
                {
                    "variant": variant_name(v),
                    "overrides": dict(v),
                    "seed": seed,
                    "miou": report.miou,
                    "per_class_iou": report.per_class_iou,
                }
            )
    return summarize_ablation(base, rows)


def base_with(base: PipelineConfig, overrides: dict) -> PipelineConfig:
    d = base.to_dict()
    unknown = sorted(set(overrides) - set(d))
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    d.update(overrides)
    return PipelineConfig.from_dict(d)


def variant_name(overrides: dict) -> str:
    if not overrides:
        return "base"
    return ",".join(f"{k}={overrides[k]}" for k in sorted(overrides))


def summarize_ablation(base: PipelineConfig, rows: list[dict]) -> dict:
    variants = []
    by_name: dict[str, list[dict]] = {}
    for row in rows:
        by_name.setdefault(row["variant"], []).append(row)
    for name, group in by_name.items():
        variants.append(
            {
                "variant": name,
                "overrides": group[0]["overrides"],
                "median_miou": float(np.median([r["miou"] for r in group])),
                "mious": [r["miou"] for r in group],
            }
        )
    return {
        "base_config": base.report_echo(),
        "rows": rows,
        "variants": variants,
        "k_band": k_band_analysis(variants),
    }


def k_band_analysis(variants: list[dict], rel_band: float = 0.25) -> dict | None:
    """Robustness of median mIoU across a k-sweep: every k must stay within
    rel_band (relative) of the best k. Violations are flagged, not fatal.

    A sweep is any group of variants whose overrides differ only in k; with
    several sweeps in the grid, the largest one is analyzed.
    """
    sweeps: dict[tuple, dict[int, float]] = {}
    for v in variants:
        overrides = dict(v["overrides"])
        if "k" not in overrides:
            continue
        k = int(overrides.pop("k"))
        key = tuple(sorted(overrides.items()))
        sweeps.setdefault(key, {})[k] = v["median_miou"]
    candidates = [(key, s) for key, s in sweeps.items() if len(s) >= 2]
    if not candidates:
        return None
    key, sweep = max(candidates, key=lambda item: len(item[1]))
    best_k = max(sweep, key=lambda k: (sweep[k], -k))
    best = sweep[best_k]
    violations = [k for k, m in sweep.items() if m < (1 - rel_band) * best]
    return {
        "context": dict(key),
        "k_values": sorted(sweep),
        "median_miou_by_k": {str(k): sweep[k] for k in sorted(sweep)},
        "best_k": best_k,
        "rel_band": rel_band,
        "violations": sorted(violations),
        "within_band": not violations,
    }


def format_ablation_table(summary: dict) -> str:
    lines = [f"{'variant':40s} {'median mIoU':>12s}  per-seed mIoU"]
    for v in summary["variants"]:
        per_seed = " ".join(f"{m:.4f}" for m in v["mious"])
        lines.append(f"{v['variant']:40s} {v['median_miou']:>12.4f}  {per_seed}")
    band = summary.get("k_band")
    if band:
        status = "within band" if band["within_band"] else (
            f"VIOLATED for k={band['violations']}"
        )
        lines.append(
            f"k-sweep robustness (best k={band['best_k']}, "
            f"band {band['rel_band']:.0%}): {status}"
        )
    return "\n".join(lines) + "\n"
