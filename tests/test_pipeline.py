import copy
import json
from pathlib import Path

import numpy as np
import pytest

from divseed import pipeline
from divseed.dataset import load_manifest
from divseed.errors import ConfigError, DataError, NumericError
from divseed.pipeline import (
    _STREAM_LOC_BASE,
    PipelineConfig,
    EvalImage,
    ablation_seed,
    base_with,
    evaluate_images,
    format_ablation_table,
    k_band_analysis,
    make_benchmark,
    run_pipeline,
    run_variant,
    sample_supervision,
    sampling_seed,
    summarize_ablation,
    train_localizers,
)
from divseed.rng import derive_seed
from divseed.sampling import (
    CHUNK,
    STRATEGIES,
    PointSet,
    SamplingConfig,
    SupervisionRecord,
    build_supervision_set,
    pair_scores,
    save_points,
    score_tagged_classes,
)
from divseed.segmentation import (FeatureTable, SegConfig, augment_with_global,
                                  new_segmentation_model, save_seg_checkpoint,
                                  train_segmentation)
from divseed.tensor import FeatureGrid, NormState, save_json

from reference_localizer import reference_train_localizer
from reference_samplers import reference_supervision_set
from test_perftrace_names import _perfbench_module
from test_tensor import _traced_peak
from test_trained_bits import DEFAULT_RUN, run_digest

# small but real: big enough for localizers to train, small enough for CI
TINY = PipelineConfig(seed=3, n_train=80, n_test=16, n_classes=2, image_size=32)


@pytest.fixture(scope="module")
def tiny_bench():
    return make_benchmark(TINY)


@pytest.fixture(scope="module")
def tiny_models(tiny_bench):
    results = train_localizers(
        tiny_bench.train_records, [0, 1], TINY.loc_config(), TINY.seed
    )
    return {c: r.model for c, r in results.items()}


# ---------------------------------------------------------------------------
# config


def test_config_round_trip():
    cfg = PipelineConfig(seed=9, k=10, strategy="top_k")
    doc = json.loads(json.dumps(cfg.to_dict()))
    assert PipelineConfig.from_dict(doc) == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict({"stratgy": "diverse"})


def test_config_rejects_bad_values_before_work():
    with pytest.raises(ConfigError):
        PipelineConfig(strategy="nonsense")
    with pytest.raises(ConfigError):
        PipelineConfig(pooling="avg")
    with pytest.raises(ConfigError):
        PipelineConfig(k=0)


def test_report_echo_drops_scheduling_fields():
    echo = PipelineConfig().report_echo()
    assert "jobs" not in echo
    assert echo["k"] == 20


def test_full_scale_hyperparameters_reachable():
    """The larger published-style sizes and rates stay expressible."""
    cfg = PipelineConfig(
        loc_hidden=1024,
        loc_lr_schedule=((2, 1e-4), (1, 1e-5)),
        seg_hidden=512,
        seg_lr=1e-6,
    )
    assert cfg.loc_config().hidden == 1024
    assert cfg.loc_config().lr_schedule == ((2, 1e-4), (1, 1e-5))
    assert cfg.seg_config().hidden == 512
    assert PipelineConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


# ---------------------------------------------------------------------------
# benchmark and variants


def test_benchmark_shapes(tiny_bench):
    assert len(tiny_bench.train_records) == 80
    assert len(tiny_bench.test_images) == 16
    r = tiny_bench.train_records[0]
    assert r.features.grid.depth == 48
    assert tiny_bench.test_images[0].truth.shape == (8, 8)


def test_run_variant_reports_sane_miou(tiny_bench, tiny_models):
    report, seg, points = run_variant(tiny_bench, tiny_models, TINY)
    assert 0.0 <= report.miou <= 1.0
    assert len(points) > 0
    assert seg.wall_seconds < 60


@pytest.mark.slow
def test_ablation_seed_equals_the_benchmark_hand_loop(tmp_path):
    """The per-seed driver gives the variant mIoUs and the class addition of
    the loop the benchmark's ablation-seed workload writes out by hand:
    make_benchmark, train_localizers, run_variant per variant, add_class."""
    workloads = _perfbench_module("workloads")
    hand = workloads.AblationSeed.tiny(5, str(tmp_path))
    mious, untouched, added_miou = hand.run()
    run = ablation_seed(hand.config, workloads.VARIANTS, 5)
    _, added_report = run.run_add_class(workloads.TINY_ADD_CLASS_IMAGES)
    assert {row["variant"]: row["miou"] for row in run.rows()} == mious
    assert untouched
    assert added_report.miou == added_miou


# ---------------------------------------------------------------------------
# what the variants of a benchmark share: the training features, the scores
# of a localizer set and the test images' head inputs


def test_benchmark_features_are_views_of_its_training_table(tiny_bench):
    table = tiny_bench.train_table
    assert table.shape == (80, 8, 8, 48) and table.flags.c_contiguous
    for i, r in enumerate(tiny_bench.train_records):
        assert np.shares_memory(r.features.grid.values, table[i])
    features = tiny_bench.train_features
    assert isinstance(features, FeatureTable) and np.shares_memory(features.table, table)
    assert list(features) == [r.image_id for r in tiny_bench.train_records]


@pytest.mark.parametrize("strategy", ["diverse", "dense"])
def test_a_head_trains_the_same_bits_on_the_shared_table_as_on_a_plain_dict(
        tiny_bench, tiny_models, strategy):
    """The benchmark's table is indexed in place; a plain dict of the same
    grids has its points' rows gathered."""
    cfg = base_with(TINY, {"strategy": strategy, "k": 20})
    points = sample_supervision(tiny_bench.train_records, tiny_models, cfg.sampling_config(),
                                sampling_seed(cfg.seed))
    plain = {r.image_id: augment_with_global(r.features) for r in tiny_bench.train_records}
    heads = [train_segmentation(points, features, [0, 1], cfg.seg_config(), 5)
             for features in (tiny_bench.train_features, plain)]
    assert heads[0].model.flat.tobytes() == heads[1].model.flat.tobytes()
    assert heads[0].epoch_losses == heads[1].epoch_losses


def test_a_dense_head_holds_no_copy_of_the_training_features():
    """Every location of a benchmark as a point: training on its shared
    table peaks below the split's features, the size of the copy a gather
    would make."""
    bench = make_benchmark(PipelineConfig(seed=4, n_train=60, n_test=1, n_classes=2))
    n, h, w, _ = bench.train_table.shape
    loc = np.tile(np.arange(h * w), n)
    points = PointSet(tuple(r.image_id for r in bench.train_records),
                      np.repeat(np.arange(n), h * w), loc, loc % 3 - 1,
                      np.ones_like(loc), np.zeros(loc.shape), np.zeros(loc.shape, np.uint8))
    _, peak = _traced_peak(train_segmentation, points, bench.train_features, [0, 1],
                           SegConfig(hidden=8, epochs=1), 5)
    assert peak < bench.train_table.nbytes


def _counting(monkeypatch, module, name):
    """Calls of module.name, counted into the returned list."""
    calls, fn = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **kw: calls.append(1) or fn(*a, **kw))
    return calls


def test_the_benchmark_keeps_the_scores_of_its_last_localizer_set(monkeypatch, tiny_models):
    """The same bits as pair_scores, scored again only when the float32
    parameters score_batch reads change, in place included. On a benchmark
    of its own: the shared one may hold scores already."""
    bench = make_benchmark(TINY)
    models = copy.deepcopy(tiny_models)
    calls = _counting(monkeypatch, pipeline, "pair_scores")

    def assert_scored_as_pair_scores(scores):
        for got, want in zip(scores, pair_scores(bench.train_records, models)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    scores = bench.pair_scores(models)
    assert_scored_as_pair_scores(scores)
    assert not scores.fg.flags.writeable
    models[1].flat[0] = np.nextafter(models[1].flat[0], np.inf)  # same float32
    assert bench.pair_scores(models) is scores and len(calls) == 1
    models[1].flat[0] += 0.25
    rescored = bench.pair_scores(models)
    assert len(calls) == 2 and rescored.fg.tobytes() != scores.fg.tobytes()
    assert_scored_as_pair_scores(rescored)


def test_ablation_seed_scores_once_per_pooling(monkeypatch):
    calls = _counting(monkeypatch, pipeline, "pair_scores")
    variants = [{"strategy": "diverse"}, {"strategy": "top_k"}, {"strategy": "dense"},
                {"strategy": "diverse", "pooling": "pixel"}]
    base = PipelineConfig(n_train=24, n_test=4, n_classes=2, image_size=32)
    ablation_seed(base, variants, 3)
    assert len(calls) == 2


def test_a_test_image_builds_its_head_input_once(monkeypatch, tiny_models):
    calls = _counting(monkeypatch, pipeline, "augment_with_global")
    bench = make_benchmark(TINY)
    for _ in range(2):
        run_variant(bench, tiny_models, TINY)
    assert len(calls) == len(bench.test_images)


@pytest.fixture(scope="module")
def tiny_pixel_models(tiny_bench):
    loc_config = base_with(TINY, {"pooling": "pixel"}).loc_config()
    results = train_localizers(tiny_bench.train_records, [0, 1], loc_config, TINY.seed)
    return {c: r.model for c, r in results.items()}


@pytest.mark.parametrize("pooling", ["global", "pixel"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_supervision_set_equals_the_per_image_loop(
    tiny_bench, tiny_models, tiny_pixel_models, pooling, strategy
):
    """The lockstep core gives the points of the per-image loop, value for
    value: over chunks (80 images is no multiple of CHUNK) and untagged
    images (the random-background fallback)."""
    models = tiny_models if pooling == "global" else tiny_pixel_models
    records = tiny_bench.train_records
    assert len(records) % CHUNK and any(not r.tags.present for r in records)
    seed = derive_seed(TINY.seed, 0x5A3F)
    scores = pair_scores(records, models)
    for k in (1, 5, 20):
        config = SamplingConfig(k=k, strategy=strategy)
        points = build_supervision_set(records, scores, config, seed)
        assert list(points) == reference_supervision_set(records, models, config, seed)


@pytest.mark.parametrize("pooling", ["global", "pixel"])
def test_pair_scores_equal_the_per_image_score_maps(
    tiny_bench, tiny_models, tiny_pixel_models, pooling
):
    """Scoring a chunk of images per class gives each tagged pair the bits
    of its own score_image, pair by pair in record order."""
    models = tiny_models if pooling == "global" else tiny_pixel_models
    records = tiny_bench.train_records
    scores = pair_scores(records, models)
    maps = [(i, sm) for i, r in enumerate(records)
            for sm in score_tagged_classes(r, models).values()]
    assert scores.image.tolist() == [i for i, _ in maps]
    assert scores.class_id.tolist() == [sm.class_id for _, sm in maps]
    assert scores.fg.dtype == np.float64
    assert scores.fg.tobytes() == np.stack([sm.fg_flat() for _, sm in maps]).tobytes()


def test_supervision_set_errors_match_the_per_image_loop(tiny_bench, tiny_models):
    records = tiny_bench.train_records
    n = records[0].features.grid.n_locations
    both = next(i for i, r in enumerate(records) if len(r.tags.present) == 2)
    raw = list(records)
    raw[both] = SupervisionRecord(
        records[both].image_id,
        FeatureGrid(records[both].features.grid, NormState.RAW),
        records[both].tags,
    )
    cases = [
        (records, tiny_models, {"k": n + 1}, f"exceeds {n} locations"),
        (records, tiny_models, {"k": n // 2}, "free locations"),
        (raw, tiny_models, {"k": 5}, "unit-normalized"),
        (records, {0: tiny_models[0]}, {"k": 5}, "no localization model"),
    ]
    broken = copy.deepcopy(tiny_models)
    broken[1].params()[2][0, 0] = np.inf  # an output weight
    cases.append((records, broken, {"k": 5}, "non-finite values in score map"))
    for dataset, models, overrides, message in cases:
        error = NumericError if "non-finite" in message else DataError
        for strategy in STRATEGIES:
            if strategy == "dense" and "locations" in message:
                continue  # dense labeling takes no k
            config = SamplingConfig(strategy=strategy, **overrides)
            for sampler in (sample_supervision, reference_supervision_set):
                with pytest.raises(error, match=message), np.errstate(all="ignore"):
                    sampler(dataset, models, config, 1)


def test_train_localizers_equal_the_per_class_loop_for_any_worker_count():
    """Workers take contiguous groups of classes, each trained in lockstep;
    every class equals its own per-class training for jobs 1, 2 and 3."""
    cfg = PipelineConfig(seed=4, n_train=60, n_test=2, n_classes=4, image_size=32)
    bench = make_benchmark(cfg)
    runs = [
        train_localizers(bench.train_records, [3, 0, 2, 1], cfg.loc_config(), cfg.seed, jobs)
        for jobs in (1, 2, 3)
    ]
    for c in range(4):
        params, losses, negatives, clamps, restarts = reference_train_localizer(
            c, bench.train_records, cfg.loc_config(),
            derive_seed(cfg.seed, _STREAM_LOC_BASE + c),
        )
        for results in runs:
            assert list(results) == [0, 1, 2, 3]
            r = results[c]
            assert [p.tobytes() for p in r.model.params()] == [p.tobytes() for p in params]
            assert (r.epoch_losses, r.negative_ids) == (losses, negatives)
            assert (r.clamp_events, r.restarts) == (clamps, restarts)


# ---------------------------------------------------------------------------
# evaluation mapping


def test_evaluate_images_maps_grown_universe():
    model = new_segmentation_model([0, 1, 7], in_dim=8, global_dim=4,
                                   config=SegConfig(hidden=4), seed=0)
    for arr in model.params():
        arr[...] = 0.0
    from divseed.tensor import FeatureGrid, Grid, NormState

    feats = FeatureGrid(
        grid=Grid(np.full((2, 2, 4), 0.5, dtype=np.float32)),
        norm_state=NormState.UNIT,
    )
    # truth in the original 2-class space: background label 2
    truth = np.array([[0, 1], [2, 2]])
    images = [EvalImage(image_id="x", features=feats, truth=truth)]
    report, cm = evaluate_images(model, images, truth_background_label=2)
    assert cm.n_labels == 4
    # zeroed model predicts index 0 everywhere
    assert cm.counts[0, 0] == 1 and cm.counts[1, 0] == 1 and cm.counts[3, 0] == 2


def test_evaluate_images_rejects_unknown_truth():
    model = new_segmentation_model([5], in_dim=8, global_dim=4,
                                   config=SegConfig(hidden=4), seed=0)
    from divseed.tensor import FeatureGrid, Grid, NormState

    feats = FeatureGrid(
        grid=Grid(np.full((1, 1, 4), 0.5, dtype=np.float32)),
        norm_state=NormState.UNIT,
    )
    images = [EvalImage(image_id="x", features=feats, truth=np.array([[0]]))]
    with pytest.raises(DataError):
        evaluate_images(model, images, truth_background_label=2)


# ---------------------------------------------------------------------------
# full run on disk


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.mark.slow
def test_run_pipeline_writes_artifacts(tiny_bench, tiny_models, tmp_path):
    out = tmp_path / "run"
    summary = run_pipeline(TINY, str(out))
    for rel in ("config.json", "report.json", "summary.json", "points.jsonl"):
        assert (out / rel).exists()
    assert (out / "seg.ckpt" / "meta.json").exists()
    assert (out / "loc" / "class_0" / "meta.json").exists()
    assert (out / "data" / "train" / "manifest.json").exists()
    stage_names = [s["name"] for s in summary["stages"]]
    assert stage_names == ["gen-data", "train-loc", "sample", "train-seg", "eval"]
    assert 0.0 <= summary["report"]["miou"] <= 1.0
    assert summary["artifacts"]  # every artifact hashed
    # report echoes the semantic config
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["n_train"] == 80
    # one stage sequence: the points, head and report are run_variant's on the
    # in-memory benchmark and localizers of the same config
    report, seg, points = run_variant(tiny_bench, tiny_models, TINY)
    save_points(points, str(tmp_path / "points.jsonl"))
    save_seg_checkpoint(str(tmp_path / "seg.ckpt"), seg, TINY.seg_config())
    save_json(report.to_dict(), str(tmp_path / "report.json"))
    for name in ("points.jsonl", "report.json"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()
    assert _files(out / "seg.ckpt") == _files(tmp_path / "seg.ckpt")


@pytest.mark.slow
def test_worker_count_does_not_change_results(tmp_path):
    seq = run_pipeline(TINY, str(tmp_path / "seq"))
    par = run_pipeline(base_with(TINY, {"jobs": 2}), str(tmp_path / "par"))
    assert seq["report"] == par["report"]
    # config.json omits jobs, so the artifact trees are identical
    diff = {
        rel
        for rel in set(seq["artifacts"]) | set(par["artifacts"])
        if seq["artifacts"].get(rel) != par["artifacts"].get(rel)
    }
    assert diff == set()
    assert "jobs" not in json.loads((tmp_path / "par" / "config.json").read_text())


@pytest.mark.slow
def test_rerun_into_the_same_directory_hashes_the_same_artifacts(tmp_path):
    first = run_pipeline(TINY, str(tmp_path))
    again = run_pipeline(TINY, str(tmp_path))
    assert "summary.json" not in first["artifacts"]
    assert again["artifacts"] == first["artifacts"]


@pytest.mark.slow
def test_rerun_over_a_larger_run_writes_a_fresh_runs_tree(tmp_path):
    """A 2-class run into the directory of a 3-class one: the stale class_2
    localizer is gone, the artifacts equal a fresh run's, and a file the
    run did not write stays and is not hashed."""
    fresh = run_pipeline(TINY, str(tmp_path / "fresh"))
    out = tmp_path / "reused"
    run_pipeline(base_with(TINY, {"n_classes": 3, "k": 5}), str(out))
    (out / "notes.txt").write_text("kept")
    again = run_pipeline(TINY, str(out))
    assert again["artifacts"] == fresh["artifacts"]
    assert not (out / "loc" / "class_2").exists()
    assert (out / "notes.txt").read_text() == "kept"
    assert "notes.txt" not in again["artifacts"]


def test_artifact_paths_do_not_grow_with_the_dataset(tmp_path):
    """A split is one file per kind, so a run on twice the images writes the
    same set of files."""
    paths = {}
    for n_train in (20, 40):
        out = tmp_path / str(n_train)
        run_pipeline(base_with(TINY, {"n_train": n_train, "seg_epochs": 1}), str(out))
        paths[n_train] = set(_files(out))
    assert paths[20] == paths[40]
    # 5 files per split, 2 per localizer and the head; config, points, report, summary
    assert len(paths[20]) == 2 * 5 + TINY.n_classes * 2 + 2 + 4


@pytest.mark.parametrize("key", ["k", "seed", "n_train", "jobs"])
@pytest.mark.parametrize("value", [2.5, "3", True])
def test_int_fields_reject_other_types(key, value):
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict({key: value})


def test_run_and_benchmark_train_on_bitwise_equal_data(tmp_path):
    """What a run writes and a stage command reads back equals the in-memory
    benchmark bit for bit, and so do localizers trained on either."""
    config = PipelineConfig(n_train=40, n_test=10)
    bench = make_benchmark(config)
    run_pipeline(config, str(tmp_path))
    train = load_manifest(str(tmp_path / "data" / "train"))
    test = load_manifest(str(tmp_path / "data" / "test"))
    stats = test.load_stats()
    records = train.load_records()
    assert [r.image_id for r in records] == [r.image_id for r in bench.train_records]
    for disk, mem in zip(records, bench.train_records):
        assert disk.tags == mem.tags
        assert np.array_equal(disk.features.grid.values, mem.features.grid.values)
    assert [e.image_id for e in test.entries] == [im.image_id for im in bench.test_images]
    for entry, mem in zip(test.entries, bench.test_images):
        features = test.load_unit_features(entry, stats)
        assert np.array_equal(features.grid.values, mem.features.grid.values)
        assert np.array_equal(test.load_grid_truth(entry), mem.truth)
    classes = list(range(config.n_classes))
    from_disk = train_localizers(records, classes, config.loc_config(), config.seed)
    in_memory = train_localizers(
        bench.train_records, classes, config.loc_config(), config.seed
    )
    for c in classes:
        for a, b in zip(from_disk[c].model.params(), in_memory[c].model.params()):
            assert np.array_equal(a, b)


def test_config_split_is_the_benchmark_split():
    """config_split makes the benchmark's training split, and its test split
    without the training stats given; n is for a new split alone."""
    config = PipelineConfig(seed=3, n_train=12, n_test=4, n_classes=2, image_size=32)
    bench = make_benchmark(config)
    tags, features, _, stats = pipeline.config_split(config, "train")
    features.normalize(stats)
    assert [t.image_id for t in tags] == [r.image_id for r in bench.train_records]
    assert np.array_equal(features.values, bench.train_table)
    tags, features, truth, stats = pipeline.config_split(config, "test")
    assert (stats.mean.tobytes(), stats.std.tobytes()) == (
        bench.norm_stats.mean.tobytes(), bench.norm_stats.std.tobytes())
    features.normalize(stats)
    for t, f, m, im in zip(tags, features, truth, bench.test_images, strict=True):
        assert t.image_id == im.image_id and np.array_equal(m, im.truth)
        assert np.array_equal(f.grid.values, im.features.grid.values)
    for split, n in (("train", 3), ("test", 3), ("new", None)):
        with pytest.raises(ConfigError, match="count n"):
            pipeline.config_split(config, split, n=n)


def test_seed_streams_are_named_in_one_module():
    """Every seed stream is derived in pipeline, a split's scenes by
    config_split, the one caller of make_split."""
    src = Path(pipeline.__file__).parent
    assert [p.name for p in sorted(src.glob("*.py")) if "_STREAM_" in p.read_text()] == [
        "pipeline.py"]
    assert [p.name for p in sorted(src.glob("*.py")) if "make_split(" in p.read_text()] == [
        "dataset.py", "pipeline.py"]


def test_stage_failure_names_the_stage(tmp_path):
    # k larger than the number of grid locations fails in the sample stage
    bad = PipelineConfig(seed=1, n_train=10, n_test=4, n_classes=2,
                         image_size=32, k=200)
    with pytest.raises(DataError, match="stage sample"):
        run_pipeline(bad, str(tmp_path / "fail"))
    # earlier stages' artifacts are retained
    assert (tmp_path / "fail" / "data" / "train" / "manifest.json").exists()


@pytest.mark.slow
def test_default_config_end_to_end_under_ten_minutes(tmp_path):
    import time

    started = time.perf_counter()
    summary = run_pipeline(PipelineConfig(), str(tmp_path / "default"))
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    # the same behaviour: every artifact and the mIoU, bit for bit
    assert run_digest(summary) == DEFAULT_RUN


@pytest.mark.slow
def test_run_pipeline_deterministic(tmp_path):
    a = run_pipeline(TINY, str(tmp_path / "a"))
    b = run_pipeline(TINY, str(tmp_path / "b"))
    assert (tmp_path / "a" / "report.json").read_bytes() == (
        tmp_path / "b" / "report.json"
    ).read_bytes()
    assert a["artifacts"] == b["artifacts"]


# ---------------------------------------------------------------------------
# ablation summaries (the slow full grid is exercised in the acceptance suite)


def _fake_rows():
    rows = []
    for k, base_miou in ((5, 0.5), (20, 0.6), (50, 0.56)):
        for seed, delta in ((1, -0.01), (2, 0.0), (3, 0.01)):
            rows.append(
                {
                    "variant": f"k={k}",
                    "overrides": {"k": k},
                    "seed": seed,
                    "miou": base_miou + delta,
                    "per_class_iou": [],
                }
            )
    return rows


def test_summarize_ablation_medians_and_band():
    summary = summarize_ablation(PipelineConfig(), _fake_rows())
    med = {v["variant"]: v["median_miou"] for v in summary["variants"]}
    assert med == {"k=5": 0.5, "k=20": 0.6, "k=50": 0.56}
    band = summary["k_band"]
    assert band["best_k"] == 20
    assert band["within_band"] is True
    assert band["violations"] == []
    table = format_ablation_table(summary)
    assert "k=20" in table and "within band" in table


def test_k_band_flags_violations():
    variants = [
        {"variant": "k=5", "overrides": {"k": 5}, "median_miou": 0.3, "mious": []},
        {"variant": "k=20", "overrides": {"k": 20}, "median_miou": 0.6, "mious": []},
    ]
    band = k_band_analysis(variants)
    assert band["within_band"] is False
    assert band["violations"] == [5]


def test_k_band_groups_sweeps_whose_overrides_hold_lists():
    """A k-sweep run under a learning-rate schedule: its overrides hold a
    list, which the grouping of sweeps once failed to hash after the whole
    grid had run."""
    schedule = [[1, 0.02], [1, 0.002]]
    variants = [
        {"variant": f"k={k}", "overrides": {"k": k, "loc_lr_schedule": schedule},
         "median_miou": m, "mious": []}
        for k, m in ((5, 0.3), (20, 0.6), (50, 0.58))
    ] + [{"variant": "k=10", "overrides": {"k": 10}, "median_miou": 0.6, "mious": []}]
    band = k_band_analysis(variants)
    assert band["context"] == {"loc_lr_schedule": schedule}
    assert band["k_values"] == [5, 20, 50]
    assert band["violations"] == [5]
