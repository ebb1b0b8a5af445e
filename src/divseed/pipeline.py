"""End-to-end orchestration: benchmark construction, full pipeline runs,
evaluation against ground truth, and ablation grids.

A pipeline run is: generate data -> train one localizer per class -> sample
points -> train the segmentation head -> evaluate. Every stage's randomness
comes from a stream derived from the single run seed, one stream per task
(class, image, stage), so results are independent of scheduling and worker
count. The training split is one list of SupervisionRecords of one grid
shape, the input both lockstep cores take. `jobs` fans out only localizer
training: each worker receives the records once, when it starts, and
trains a contiguous group of classes in lockstep; points are sampled
in-process by sampling's lockstep core and flow on as a `PointSet` of
columns. Reports and artifact hashes are reproducible bit-for-bit from the
config.

`run_variant` is the one sample -> train-seg -> eval sequence, for a run and
for every ablation variant; `ablation_seed` is the one per-seed grid driver.
A run's output directory is written, never read back, so a run and an
ablation of the same config train and evaluate on bitwise-equal features.

Ground truth is only ever touched here (for evaluation) and in data
generation; training and sampling code never receives masks.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dataset import make_split
from .errors import (ConfigError, DataError, DivseedError, check_fields, is_int, is_number,
                     require_count)
from .evaluation import ConfusionMatrix, EvalReport, accumulate, miou
from .localization import (
    LocalizationModel,
    LocConfig,
    LocTrainResult,
    SupervisionRecord,
    save_loc_checkpoint,
    train_class_localizers,
)
from .rng import derive_seed
from .sampling import (
    PairScores,
    PointSet,
    SamplingConfig,
    build_supervision_set,
    pair_scores,
    save_points,
)
from .segmentation import (
    AddClassResult,
    AugmentedFeatureGrid,
    FeatureTable,
    SegConfig,
    SegmentationModel,
    SegTrainResult,
    add_class,
    augment_with_global,
    predict,
    save_seg_checkpoint,
    train_segmentation,
)
from .synthdata import ExtractorSpec, check_dataset_size
from .tensor import FeatureGrid, NormStats, save_json


@dataclass(frozen=True)
class PipelineConfig:
    """Every tunable of a full run; one flat JSON document."""

    seed: int = 7
    n_train: int = 500
    n_test: int = 100
    n_classes: int = 4
    image_size: int = 64
    loc_hidden: int = LocConfig.hidden
    loc_lr_schedule: tuple[tuple[int, float], ...] = LocConfig.lr_schedule
    pooling: str = LocConfig.pooling
    strategy: str = SamplingConfig.strategy
    k: int = SamplingConfig.k
    tau: float = SamplingConfig.tau
    spatial_scale: float | None = SamplingConfig.spatial_scale
    seg_hidden: int = SegConfig.hidden
    seg_lr: float = SegConfig.lr
    seg_epochs: int = SegConfig.epochs
    seg_batch: int = SegConfig.batch_size
    jobs: int = 1

    def __post_init__(self):
        # types here, then counts and the stage configs check the values, before
        # any work
        check_fields(vars(self), _CONFIG_FIELDS, "config", ConfigError)
        object.__setattr__(self, "loc_lr_schedule",
                           tuple((epochs, float(lr)) for epochs, lr in self.loc_lr_schedule))
        for key in ("n_train", "n_test"):
            require_count(key, getattr(self, key))
        check_dataset_size(self.n_train, self.n_classes, self.image_size, self.image_size)
        self.loc_config()
        self.sampling_config()
        self.seg_config()
        require_count("jobs", self.jobs)

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
        return cls(**d)

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


def _is_schedule(v) -> bool:
    return isinstance(v, (list, tuple)) and len(v) > 0 and all(
        isinstance(p, (list, tuple)) and len(p) == 2 and is_int(p[0]) and is_number(p[1])
        for p in v)


#: a PipelineConfig field's check by its annotation: (check, what it must be)
_FIELD_TYPES = {
    "int": (is_int, "an integer"),
    "float": (is_number, "a number"),
    "float | None": (lambda v: v is None or is_number(v), "a number"),
    "tuple[tuple[int, float], ...]": (
        _is_schedule, "a non-empty list of [epochs, lr] pairs, integer epochs and a number lr"),
}
_CONFIG_FIELDS = tuple((f.name, *_FIELD_TYPES[f.type])
                       for f in dataclasses.fields(PipelineConfig) if f.type in _FIELD_TYPES)


# stage seed streams
_STREAM_EXTRACTOR = 0xE87
_STREAM_LOC_BASE = 0x10C000
_STREAM_SAMPLING = 0x5A3F
_STREAM_SEG = 0x5E60
_STREAM_ADD_CLASS = 0xADD
_SPLIT_STREAMS = {"train": 0xDA7A1, "test": 0xDA7A2, "new": 0xADDDA7A}


# Every model-stage seed is derived from the run seed by one of these, in a
# run, an ablation and a stage command alike.
def loc_seed(seed: int, class_id: int) -> int:
    """The seed of one class's localizer."""
    return derive_seed(seed, _STREAM_LOC_BASE + class_id)


def sampling_seed(seed: int) -> int:
    return derive_seed(seed, _STREAM_SAMPLING)


def seg_seed(seed: int) -> int:
    return derive_seed(seed, _STREAM_SEG)


def add_class_seed(seed: int) -> int:
    return derive_seed(seed, _STREAM_ADD_CLASS)


def extractor_spec(seed: int) -> ExtractorSpec:
    return ExtractorSpec(seed=derive_seed(seed, _STREAM_EXTRACTOR))


# ---------------------------------------------------------------------------
# benchmark data, optionally written out as dataset directories


@dataclass
class EvalImage:
    image_id: str
    features: FeatureGrid  # unit
    truth: np.ndarray  # grid-resolution labels, background = n_classes

    @cached_property
    def augmented(self) -> AugmentedFeatureGrid:
        """The head's input, built on first use and read by every evaluation."""
        return augment_with_global(self.features)


def _score_key(models: dict[int, LocalizationModel]) -> tuple:
    """What pair_scores depends on besides the records: each class id, with
    its model's dims and the float32 parameters score_batch scores with."""
    return tuple((c, m.dims, m.flat.astype(np.float32).tobytes())
                 for c, m in sorted(models.items()))


@dataclass
class Benchmark:
    n_classes: int
    train_records: list[SupervisionRecord]
    train_table: np.ndarray  # (n_train, H, W, D) unit features; row i is record i's grid
    test_images: list[EvalImage]
    extractor: ExtractorSpec
    norm_stats: NormStats  # frozen from the training split
    _scores: tuple | None = dataclasses.field(default=None, init=False, repr=False)

    @cached_property
    def train_features(self) -> FeatureTable:
        """The head's input per training image, over train_table in place;
        built on first use and shared by every head trained on this
        benchmark."""
        return FeatureTable([r.image_id for r in self.train_records], self.train_table)

    def pair_scores(self, models: dict[int, LocalizationModel]) -> PairScores:
        """pair_scores of the training records under models. The scores of
        the last localizer set scored are kept, read-only, and returned again
        while the models' class ids, dims and float32 parameters are the
        same: the variants of a grid seed share one localizer set."""
        key = _score_key(models)
        if self._scores is None or self._scores[0] != key:
            self._scores = None  # free the old scores first
            scores = pair_scores(self.train_records, models)
            for column in scores:
                column.flags.writeable = False
            self._scores = key, scores
        return self._scores[1]


def config_split(config: PipelineConfig, split: str, out_dir: str | None = None,
                 n: int | None = None, stats: NormStats | None = None):
    """make_split of the config's split, ids `<split>_NNNNN`: train and test
    of n_train and n_test images, new of n (else ConfigError) over one class
    more, all from the training extractor; test and new take the training
    stats, given or computed from the training split made in memory."""
    if (n is None) == (split == "new"):
        raise ConfigError(f"a {split} split {'needs' if n is None else 'takes no'} image count n")
    n = n if split == "new" else getattr(config, f"n_{split}")
    n_classes = config.n_classes + (split == "new")
    check_dataset_size(n, n_classes, config.image_size, config.image_size)
    if split != "train" and stats is None:
        stats = config_split(config, "train")[3]
    return make_split(n, n_classes, config.image_size,
                      derive_seed(config.seed, _SPLIT_STREAMS[split]), split,
                      extractor_spec(config.seed), stats, out_dir)


def make_benchmark(config: PipelineConfig, data_dir: str | None = None) -> Benchmark:
    """Generate train/test scenes and normalized features in memory, each
    split's features normalized into the rows of its one stack.

    With data_dir, both splits are also written there as dataset directories
    (data_dir/train, data_dir/test) sharing the training extractor and stats.
    Scenes and raw features are not kept in the Benchmark.
    """
    def split(name, stats=None):
        out_dir = None if data_dir is None else os.path.join(data_dir, name)
        tags, features, truth, stats = config_split(config, name, out_dir, stats=stats)
        features.normalize(stats)
        return tags, features, truth, stats

    tags, train, _, stats = split("train")
    train_records = [SupervisionRecord(t.image_id, f, t) for t, f in zip(tags, train)]
    tags, test, truth, _ = split("test", stats)
    test_images = [EvalImage(t.image_id, f, m) for t, f, m in zip(tags, test, truth)]
    return Benchmark(config.n_classes, train_records, train.values, test_images,
                     extractor_spec(config.seed), stats)


# ---------------------------------------------------------------------------
# localizer training and point sampling; localizers optionally fanned out
# over processes


# a pool worker's training records, set once as it starts (inherited, not
# pickled, where workers are forked) rather than pickled into every task
_worker_records: list[SupervisionRecord] = []


def _set_worker_records(records: list[SupervisionRecord]) -> None:
    global _worker_records
    _worker_records = records


def _train_worker_group(class_ids: list[int], loc_config: LocConfig, seeds: list[int]):
    return train_class_localizers(class_ids, _worker_records, loc_config, seeds)


def train_localizers(
    records: list[SupervisionRecord],
    class_ids: list[int],
    loc_config: LocConfig,
    seed: int,
    jobs: int = 1,
) -> dict[int, LocTrainResult]:
    """One localizer per class, each on its own derived seed stream. The
    sorted classes are cut into min(jobs, classes) contiguous groups, one
    per worker, and each group trains in lockstep; results are the same bits
    for any jobs."""
    classes = sorted(set(class_ids))
    seeds = [loc_seed(seed, c) for c in classes]
    n_groups = max(1, min(jobs, len(classes)))
    if n_groups == 1:
        return dict(zip(classes, train_class_localizers(classes, records, loc_config, seeds)))
    cuts = [len(classes) * g // n_groups for g in range(n_groups + 1)]
    spans = list(zip(cuts, cuts[1:]))
    with ProcessPoolExecutor(max_workers=n_groups, initializer=_set_worker_records,
                             initargs=(records,)) as pool:
        groups = list(pool.map(
            _train_worker_group, [classes[a:b] for a, b in spans],
            [loc_config] * n_groups, [seeds[a:b] for a, b in spans],
        ))
    return dict(zip(classes, (r for group in groups for r in group)))


def sample_supervision(
    records: list[SupervisionRecord],
    models: dict[int, LocalizationModel],
    sampling_config: SamplingConfig,
    seed: int,
    scores: PairScores | None = None,
) -> PointSet:
    """The sample stage, in this process: build_supervision_set from the
    pair_scores of the training records under the localizers, scored here
    unless the caller passes them as scores (Benchmark.pair_scores)."""
    if scores is None:
        scores = pair_scores(records, models)
    return build_supervision_set(records, scores, sampling_config, seed)


# ---------------------------------------------------------------------------
# evaluation


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
        pred = predict(model, im.augmented)
        if im.truth.min() < 0 or im.truth.max() > truth_background_label:
            raise DataError(f"truth labels out of range for {im.image_id}")
        truth_idx = lookup[im.truth]
        if truth_idx.min() < 0:
            raise DataError("truth contains classes outside the model universe")
        accumulate(cm, pred, truth_idx)
    return miou(cm, config=config_echo), cm


# ---------------------------------------------------------------------------
# the stage sequence, and full runs against an output directory


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# the artifacts a run writes under its output directory, files and trees;
# summary.json, which hashes them, comes last
_RUN_LAYOUT = ("config.json", "data/train", "data/test", "loc", "points.jsonl",
               "seg.ckpt", "report.json")


def _clear_layout(root: str) -> None:
    """Remove what an earlier run left at the run layout's paths, so a rerun
    writes the tree a fresh run does; other entries under root stay."""
    for rel in _RUN_LAYOUT + ("summary.json",):
        path = os.path.join(root, rel)
        if os.path.isdir(path) and not os.path.islink(path):
            shutil.rmtree(path)
        elif os.path.lexists(path):
            os.remove(path)


def _hash_tree(root: str) -> dict[str, str]:
    """Content hash of every file of the run layout under root."""
    hashes = {}
    for rel in _RUN_LAYOUT:
        path = os.path.join(root, rel)
        if os.path.isfile(path):
            hashes[rel] = _sha256(path)
        for dirpath, dirnames, files in os.walk(path):
            dirnames.sort()
            for name in sorted(files):
                full = os.path.join(dirpath, name)
                hashes[os.path.relpath(full, root)] = _sha256(full)
    return hashes


@contextmanager
def _stage(stages: list[dict], name: str):
    """Append the stage's wall-clock seconds to stages. A DivseedError raised
    in it is re-raised with the stage named; artifacts already written stay
    on disk."""
    t0 = time.perf_counter()
    try:
        yield
    except DivseedError as e:
        raise type(e)(f"stage {name}: {e}") from e
    stages.append({"name": name, "seconds": round(time.perf_counter() - t0, 3)})


def run_pipeline(config: PipelineConfig, out_dir: str) -> dict:
    """Execute all stages, writing artifacts under out_dir.

    Layout: data/train, data/test, loc/class_<id>/ checkpoints, points.jsonl,
    seg.ckpt/, report.json, config.json, summary.json. The summary carries
    per-stage wall-clock seconds and a content hash of every artifact file;
    everything except the timing section is reproducible from the config.
    config.json records the config without `jobs`, so the artifacts are the
    same for any worker count. What an earlier run left at these paths is
    removed first; other files under out_dir are kept and not hashed.
    """
    os.makedirs(out_dir, exist_ok=True)
    _clear_layout(out_dir)
    save_json(config.report_echo(), os.path.join(out_dir, "config.json"))
    stages = []
    with _stage(stages, "gen-data"):
        bench = make_benchmark(config, os.path.join(out_dir, "data"))
    with _stage(stages, "train-loc"):
        loc_results = train_localizers(
            bench.train_records, list(range(bench.n_classes)), config.loc_config(),
            config.seed, config.jobs,
        )
        for c, res in loc_results.items():
            save_loc_checkpoint(os.path.join(out_dir, "loc", f"class_{c}"), res)
    models = {c: r.model for c, r in loc_results.items()}
    report, _, _ = run_variant(bench, models, config, out_dir, stages)
    summary = {
        "config": config.report_echo(),
        "stages": stages,
        "artifacts": _hash_tree(out_dir),
        "report": report.to_dict(),
    }
    save_json(summary, os.path.join(out_dir, "summary.json"))
    return summary


def run_variant(
    bench: Benchmark,
    models: dict[int, LocalizationModel],
    config: PipelineConfig,
    out_dir: str | None = None,
    stages: list[dict] | None = None,
) -> tuple[EvalReport, SegTrainResult, PointSet]:
    """The sample -> train-seg -> eval stages on a benchmark and a localizer
    set: all that a sampling or k variant changes. With out_dir, each stage
    writes its artifact there as it finishes (points.jsonl, seg.ckpt/,
    report.json); with stages, each stage's timing is appended there."""
    stages = [] if stages is None else stages
    with _stage(stages, "sample"):
        points = sample_supervision(
            bench.train_records, models, config.sampling_config(),
            sampling_seed(config.seed), bench.pair_scores(models),
        )
        if out_dir is not None:
            save_points(points, os.path.join(out_dir, "points.jsonl"))
    with _stage(stages, "train-seg"):
        seg_result = train_segmentation(
            points, bench.train_features, list(range(bench.n_classes)),
            config.seg_config(), seg_seed(config.seed),
        )
        if out_dir is not None:
            save_seg_checkpoint(
                os.path.join(out_dir, "seg.ckpt"), seg_result, config.seg_config()
            )
    with _stage(stages, "eval"):
        report, _ = evaluate_images(
            seg_result.model, bench.test_images, bench.n_classes,
            config_echo=config.report_echo(),
        )
        if out_dir is not None:
            save_json(report.to_dict(), os.path.join(out_dir, "report.json"))
    return report, seg_result, points


# ---------------------------------------------------------------------------
# ablation grids


def new_class_records(
    bench: Benchmark, config: PipelineConfig, n_images: int
) -> list[SupervisionRecord]:
    """The config's new split of n_images, normalized by the frozen training
    stats of the benchmark made from config: what class addition learns from."""
    tags, features, _, _ = config_split(config, "new", n=n_images, stats=bench.norm_stats)
    features.normalize(bench.norm_stats)
    return [SupervisionRecord(t.image_id, f, t) for t, f in zip(tags, features)]


@dataclass
class VariantRun:
    overrides: dict
    config: PipelineConfig
    report: EvalReport
    seg_result: SegTrainResult
    points: PointSet


@dataclass
class SeedRun:
    seed: int
    bench: Benchmark
    models: dict[str, dict[int, LocalizationModel]]  # by pooling mode
    variants: list[VariantRun]

    def rows(self) -> list[dict]:
        """One row per variant; a class absent from the test images has IoU
        null, as in report.json."""
        return [
            {
                "variant": variant_name(v.overrides),
                "overrides": dict(v.overrides),
                "seed": self.seed,
                "miou": v.report.miou,
                "per_class_iou": v.report.to_dict()["per_class_iou"],
            }
            for v in self.variants
        ]

    def run_add_class(self, n_images: int) -> tuple[AddClassResult, EvalReport]:
        """Add class n_classes, learned from n_images new images, on top of the
        first variant's localizers and points; the grown head's result and its
        report on the benchmark's test images."""
        first = self.variants[0]
        cfg = first.config
        n = self.bench.n_classes
        added = add_class(
            n, new_class_records(self.bench, cfg, n_images),
            self.models[cfg.pooling], first.points, self.bench.train_features,
            list(range(n)), cfg.loc_config(), cfg.sampling_config(),
            cfg.seg_config(), seed=add_class_seed(cfg.seed),
        )
        report, _ = evaluate_images(added.seg_result.model, self.bench.test_images, n)
        return added, report


def ablation_seed(
    base: PipelineConfig, variants: list[dict], seed: int, log=None
) -> SeedRun:
    """One seed of an ablation grid: one benchmark, one localizer set per
    pooling mode the variants use, then run_variant for each variant."""
    log = log or (lambda message: None)
    seed_cfg = base_with(base, {"seed": seed})
    configs = [base_with(seed_cfg, v) for v in variants]  # validated before work
    log(f"[ablate] seed {seed}: generating benchmark")
    bench = make_benchmark(seed_cfg)
    models = {}
    for pooling in sorted({cfg.pooling for cfg in configs}):
        log(f"[ablate] seed {seed}: training localizers ({pooling})")
        cfg = base_with(seed_cfg, {"pooling": pooling})
        results = train_localizers(
            bench.train_records, list(range(cfg.n_classes)), cfg.loc_config(),
            cfg.seed, cfg.jobs,
        )
        models[pooling] = {c: r.model for c, r in results.items()}
    runs = []
    for overrides, cfg in zip(variants, configs):
        report, seg_result, points = run_variant(bench, models[cfg.pooling], cfg)
        log(f"[ablate] seed {seed}: {variant_name(overrides)} miou={report.miou:.4f}")
        runs.append(VariantRun(dict(overrides), cfg, report, seg_result, points))
    return SeedRun(seed, bench, models, runs)


def ablation_run(
    base: PipelineConfig,
    variants: list[dict],
    seeds: list[int],
    log=None,
) -> dict:
    """ablation_seed for every seed, summarized: rows per (variant, seed),
    per-variant medians and a robustness analysis of any k-sweeps."""
    rows = []
    for seed in seeds:
        rows += ablation_seed(base, variants, seed, log=log).rows()
    return summarize_ablation(base, rows)


def base_with(base: PipelineConfig, overrides: dict) -> PipelineConfig:
    return PipelineConfig.from_dict({**base.to_dict(), **overrides})


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
    # by the other overrides as canonical JSON: their values may be lists
    sweeps: dict[str, tuple[dict, dict[int, float]]] = {}
    for v in variants:
        overrides = dict(sorted(v["overrides"].items()))
        if "k" not in overrides:
            continue
        k = int(overrides.pop("k"))
        _, sweep = sweeps.setdefault(json.dumps(overrides, sort_keys=True), (overrides, {}))
        sweep[k] = v["median_miou"]
    candidates = [item for item in sweeps.values() if len(item[1]) >= 2]
    if not candidates:
        return None
    context, sweep = max(candidates, key=lambda item: len(item[1]))
    best_k = max(sweep, key=lambda k: (sweep[k], -k))
    best = sweep[best_k]
    violations = [k for k, m in sweep.items() if m < (1 - rel_band) * best]
    return {
        "context": context,
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
