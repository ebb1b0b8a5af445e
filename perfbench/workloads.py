"""The benchmark's workloads.

Each workload runs one iteration against divseed's public API, turns the
program's outputs into an Outcome, and checks that outcome against the
reference: the first iteration of the same seed. An untimed warm-up comes
first: one iteration of a tiny config, which pays for imports and first
calls (for run-jobs2, the jobs=1 run that is its reference). Calls go
through module attributes (`pipeline.run_pipeline`, not a name imported
once), so the tracer sees the benchmark's own calls into each layer.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from dataclasses import dataclass, field

from divseed import pipeline, segmentation, synthdata, tensor
from divseed.rng import derive_seed
from divseed.sampling import SupervisionRecord

# The acceptance grid's variants (tests/test_acceptance.py); the first is
# the diverse-k20 system that add_class extends.
VARIANTS = [
    {"strategy": "diverse", "k": 20},
    {"strategy": "top_k", "k": 20},
    {"strategy": "dense"},
    {"strategy": "spatial", "k": 20},
    {"strategy": "diverse", "k": 5},
    {"strategy": "diverse", "k": 10},
    {"strategy": "diverse", "k": 50},
    {"strategy": "diverse", "k": 20, "pooling": "pixel"},
]
ADD_CLASS_IMAGES = 150  # new-class images, as in the acceptance grid

# The warm-up's config, also used by the benchmark's tests.
TINY = {"n_train": 40, "n_test": 10}
TINY_ADD_CLASS_IMAGES = 30

# Artifacts a --jobs 2 run must share with --jobs 1: the report, the points
# and every checkpoint file.
JOBS_INVARIANT_PREFIXES = ("report.json", "points.jsonl", "loc/", "seg.ckpt/")


@dataclass
class Outcome:
    """What one iteration produced."""

    miou: float
    # must equal the reference iteration's, key by key
    values: dict[str, object]
    # must hold in this iteration alone
    errors: list[str] = field(default_factory=list)
    # per-layer numbers read from the program's outputs
    stages: dict[str, float] = field(default_factory=dict)
    artifacts: dict[str, str] = field(default_factory=dict)


class Workload:
    name = ""
    why = ""
    jobs = 1

    def __init__(self, seed: int, work_dir: str, overrides: dict | None = None):
        self.seed = seed
        self.work_dir = work_dir
        self.config = pipeline.base_with(
            pipeline.PipelineConfig(seed=seed), dict(overrides or {})
        )
        self.ref: Outcome | None = None
        self._count = 0

    @classmethod
    def tiny(cls, seed: int, work_dir: str) -> "Workload":
        return cls(seed, work_dir, overrides=TINY)

    def warm_up(self) -> None:
        """Untimed: one iteration of the tiny config."""
        tiny = self.tiny(self.seed, self.work_dir)
        tiny.finish(tiny.run())

    def run(self):
        """The timed part of one iteration."""
        raise NotImplementedError

    def finish(self, raw) -> Outcome:
        """Untimed: read the iteration's outputs and clean up after it."""
        raise NotImplementedError

    def check(self, outcome: Outcome) -> list[str]:
        """Mismatches against the reference; empty when the iteration is
        correct. The first outcome checked becomes the reference."""
        if self.ref is None:
            self.ref = outcome
        keys = sorted(set(outcome.values) | set(self.ref.values))
        diff = [k for k in keys if outcome.values.get(k) != self.ref.values.get(k)]
        shown = ", ".join(diff[:5]) + (" ..." if len(diff) > 5 else "")
        return outcome.errors + ([f"{len(diff)} outputs differ: {shown}"] if diff else [])

    def artifact_mismatch(self, outcome: Outcome) -> int:
        """Artifact files whose hash differs from the reference's."""
        keys = set(outcome.artifacts) | set(self.ref.artifacts)
        return sum(outcome.artifacts.get(k) != self.ref.artifacts.get(k) for k in keys)


class RunWorkload(Workload):
    """One `pipeline.run_pipeline` into a fresh directory."""

    compared = ("",)  # prefixes of the artifacts that must match the reference

    def run(self, jobs: int | None = None):
        self._count += 1
        out = os.path.join(self.work_dir, f"{self.name}-{self._count}")
        config = pipeline.base_with(self.config, {"jobs": jobs or self.jobs})
        return out, pipeline.run_pipeline(config, out)

    def finish(self, raw) -> Outcome:
        out, summary = raw
        shutil.rmtree(out)
        artifacts = summary["artifacts"]
        values = {k: v for k, v in artifacts.items() if k.startswith(self.compared)}
        return Outcome(
            miou=summary["report"]["miou"],
            values=values,
            stages={s["name"]: s["seconds"] for s in summary["stages"]},
            artifacts=artifacts,
        )


class RunDefault(RunWorkload):
    name = "run-default"
    why = ("the headline `divseed run`: the only path with dataset and points "
           "file I/O and artifact hashing")


class RunJobs2(RunWorkload):
    name = "run-jobs2"
    why = ("the headline run with jobs=2: the only path through the worker "
           "pool of train_localizers and sample_supervision")
    jobs = 2
    compared = JOBS_INVARIANT_PREFIXES

    def warm_up(self) -> None:
        """A jobs=1 run of this seed: the warm-up, and the reference every
        jobs=2 iteration must match."""
        self.ref = self.finish(self.run(jobs=1))


def _param_digests(models) -> dict[int, str]:
    digests = {}
    for c, model in models.items():
        h = hashlib.sha256()
        for p in model.params():
            h.update(p.tobytes())
        digests[c] = h.hexdigest()
    return digests


class AblationSeed(Workload):
    """One seed of the acceptance grid, in memory: localizers for both
    poolings, the 8 sampling/segmentation/eval variants, then add_class on
    the diverse-k20 system."""

    name = "ablation-seed"
    why = ("one seed of the acceptance grid, most of the test suite's time: "
           "all four samplers and eight head trainings, no file I/O")

    def __init__(self, seed, work_dir, overrides=None, add_class_images=ADD_CLASS_IMAGES):
        super().__init__(seed, work_dir, overrides)
        self.add_class_images = add_class_images

    @classmethod
    def tiny(cls, seed, work_dir):
        return cls(seed, work_dir, overrides=TINY, add_class_images=TINY_ADD_CLASS_IMAGES)

    def run(self):
        cfg = self.config
        bench = pipeline.make_benchmark(cfg)
        models_by_pooling = {}
        for pooling in sorted({v.get("pooling", cfg.pooling) for v in VARIANTS}):
            loc = pipeline.base_with(cfg, {"pooling": pooling}).loc_config()
            results = pipeline.train_localizers(
                bench.train_records, list(range(cfg.n_classes)), loc, cfg.seed, jobs=1
            )
            models_by_pooling[pooling] = {c: r.model for c, r in results.items()}
        mious = {}
        for overrides in VARIANTS:
            vcfg = pipeline.base_with(cfg, overrides)
            report, _, points = pipeline.run_variant(
                bench, models_by_pooling[vcfg.pooling], vcfg
            )
            mious[pipeline.variant_name(overrides)] = report.miou
            if overrides is VARIANTS[0]:
                diverse_points = points
        models = models_by_pooling[cfg.pooling]
        before = _param_digests(models)
        added = self._add_class(bench, models, diverse_points)
        after = _param_digests(models)
        added_report, _ = pipeline.evaluate_images(
            added.seg_result.model, bench.test_images, cfg.n_classes
        )
        return mious, before == after, added_report.miou

    def _add_class(self, bench, models, points):
        cfg = self.config
        new_scenes = synthdata.generate_dataset(
            self.add_class_images, cfg.n_classes + 1, cfg.image_size, cfg.image_size,
            seed=derive_seed(cfg.seed, 0xADDDA7A), id_prefix="new",
        )
        new_records = [
            SupervisionRecord(
                image_id=s.tags.image_id,
                features=tensor.normalize_features(
                    synthdata.extract_features(s, bench.extractor), bench.norm_stats
                ),
                tags=s.tags,
            )
            for s in new_scenes
        ]
        features = {
            r.image_id: segmentation.augment_with_global(r.features)
            for r in bench.train_records
        }
        return segmentation.add_class(
            cfg.n_classes, new_records, models, points, features,
            list(range(cfg.n_classes)), cfg.loc_config(),
            cfg.sampling_config(), cfg.seg_config(),
            seed=derive_seed(cfg.seed, 0xADD),
        )

    def finish(self, raw) -> Outcome:
        mious, untouched, added_miou = raw
        values = {f"miou[{name}]": m for name, m in mious.items()}
        values["miou[add_class]"] = added_miou
        errors = [] if untouched else ["add_class changed an existing localizer"]
        return Outcome(
            miou=mious[pipeline.variant_name(VARIANTS[0])],
            values=values,
            errors=errors,
        )


WORKLOADS = {w.name: w for w in (RunDefault, AblationSeed, RunJobs2)}
