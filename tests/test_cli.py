import json
import os
import re
import shlex
from pathlib import Path

import pytest

from divseed.cli import build_parser, main
from divseed.dataset import load_manifest
from divseed.sampling import load_points
from divseed.tensor import load_tensor
from test_tensor import MALFORMED_DSTN


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One tiny dataset shared by the stage-command tests: the train and test
    splits of config.json."""
    root = tmp_path_factory.mktemp("cli")
    (root / "config.json").write_text(json.dumps(
        {"n_train": 60, "n_test": 12, "n_classes": 2, "image_size": 32, "seed": 5}))
    for split in ("train", "test"):
        assert main(["gen-data", "--split", split, "--config", str(root / "config.json"),
                     "--out", str(root / split)]) == 0
    return root


def _gen_new(workdir, out, n=4):
    """gen-data's new split of the workdir's config: n images of class 2 too."""
    assert main(["gen-data", "--split", "new", "--n", str(n),
                 "--config", str(workdir / "config.json"), "--out", str(out)]) == 0


def test_gen_data_manifest(workdir):
    m = load_manifest(str(workdir / "train"))
    assert len(m.entries) == 60
    assert m.classes == [0, 1]
    assert [e.image_id for e in m.entries[:2]] == ["train_00000", "train_00001"]
    # a split made from a training set takes its extractor and stats
    test = load_manifest(str(workdir / "test"))
    assert test.extractor_seed == m.extractor_seed
    stats = [(workdir / split / "stats.dstn").read_bytes() for split in ("train", "test")]
    assert stats[0] == stats[1]


def _files(root) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_gen_data_writes_a_run_split_from_its_config_alone(tmp_path):
    """gen-data --split test, given only a run's config.json, writes the
    run's test split byte for byte, with its training extractor and stats
    worked out in memory; --split new writes the images run_add_class
    learns from, bit for bit."""
    import numpy as np

    from divseed.pipeline import PipelineConfig, make_benchmark, new_class_records

    run = tmp_path / "run"
    rc = main(["run", "--set", "n_train=20", "--set", "n_test=6", "--set", "n_classes=2",
               "--set", "image_size=32", "--set", "seed=17", "--set", "seg_epochs=1",
               "--out", str(run)])
    assert rc == 0
    config = ["--config", str(run / "config.json")]
    assert main(["gen-data", "--split", "test", *config, "--out", str(tmp_path / "test")]) == 0
    assert _files(tmp_path / "test") == _files(run / "data" / "test")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run", "test"]
    assert main(["gen-data", "--split", "new", "--n", "5", *config,
                 "--out", str(tmp_path / "new")]) == 0
    cfg = PipelineConfig.from_dict(json.loads((run / "config.json").read_text()))
    expected = new_class_records(make_benchmark(cfg), cfg, 5)
    got = load_manifest(str(tmp_path / "new")).load_records()
    assert [(r.image_id, r.tags) for r in got] == [(r.image_id, r.tags) for r in expected]
    for a, b in zip(got, expected):
        assert np.array_equal(a.features.grid.values, b.features.grid.values)


# the tiny run the stage chains below reproduce
TINY_RUN = ["--set", "n_train=80", "--set", "n_test=16", "--set", "n_classes=2",
            "--set", "image_size=32", "--set", "seed=3"]


@pytest.mark.parametrize("overrides", [
    ["strategy=diverse"], ["strategy=dense"], ["strategy=spatial"],
    ["strategy=top_k", "pooling=pixel"],
], ids=["diverse", "dense", "spatial", "top_k-pixel"])
def test_stage_chain_reproduces_a_run(tmp_path, overrides):
    """gen-data for the train and test splits, train-loc per class, sample,
    train-seg and eval, each given the run's config.json, write the run's
    data/, loc/, points.jsonl, seg.ckpt/ and report.json byte for byte; so
    does sample from the run's own loc/."""
    run, chain = tmp_path / "run", tmp_path / "chain"
    sets = [arg for item in overrides for arg in ("--set", item)]
    assert main(["run", *TINY_RUN, *sets, "--out", str(run)]) == 0
    config = ["--config", str(run / "config.json")]
    for split in ("train", "test"):
        assert main(["gen-data", "--split", split, *config,
                     "--out", str(chain / "data" / split)]) == 0
    train = str(chain / "data" / "train")
    assert main(["sample", "--loc-dir", str(run / "loc"), "--features", train, *config,
                 "--out", str(tmp_path / "points.jsonl")]) == 0
    assert (tmp_path / "points.jsonl").read_bytes() == (run / "points.jsonl").read_bytes()
    for c in (0, 1):
        assert main(["train-loc", "--class", str(c), "--data", train, *config,
                     "--out", str(chain / "loc" / f"class_{c}")]) == 0
    assert main(["sample", "--loc-dir", str(chain / "loc"), "--features", train, *config,
                 "--out", str(chain / "points.jsonl")]) == 0
    assert main(["train-seg", "--points", str(chain / "points.jsonl"), "--features", train,
                 *config, "--out", str(chain / "seg.ckpt")]) == 0
    assert main(["eval", "--model", str(chain / "seg.ckpt"),
                 "--data", str(chain / "data" / "test"), *config,
                 "--out", str(chain / "report.json")]) == 0
    produced = {rel: blob for rel, blob in _files(run).items() if rel.split(os.sep)[0] in
                ("data", "loc", "points.jsonl", "seg.ckpt", "report.json")}
    assert len(produced) == 2 * 5 + 2 * 2 + 1 + 2 + 1
    assert _files(chain) == produced


@pytest.mark.parametrize("strategy", ["diverse", "dense"])
def test_add_class_command_equals_the_in_memory_class_addition(tmp_path, strategy):
    """gen-data --split new makes the new-class split run_add_class makes in
    memory; add-class, given the run's config.json, then writes the new
    localizer, the merged points and the head that run_add_class returns,
    for any strategy the config names."""
    from divseed.localization import save_loc_checkpoint
    from divseed.pipeline import PipelineConfig, ablation_seed
    from divseed.sampling import save_points
    from divseed.segmentation import save_seg_checkpoint

    run = tmp_path / "run"
    assert main(["run", *TINY_RUN, "--set", "seg_epochs=1", "--set", f"strategy={strategy}",
                 "--out", str(run)]) == 0
    cfg = PipelineConfig.from_dict(json.loads((run / "config.json").read_text()))
    n_images, new = 30, tmp_path / "new"
    assert main(["gen-data", "--split", "new", "--n", str(n_images),
                 "--config", str(run / "config.json"), "--out", str(new)]) == 0
    assert main([
        "add-class", "--class", "2", "--data", str(new),
        "--base-data", str(run / "data" / "train"), "--loc-dir", str(run / "loc"),
        "--points", str(run / "points.jsonl"), "--config", str(run / "config.json"),
        "--out", str(tmp_path / "added"),
    ]) == 0
    added, _ = ablation_seed(cfg, [{}], cfg.seed).run_add_class(n_images)
    expected = tmp_path / "expected"
    save_loc_checkpoint(expected / "loc_class_2", added.loc_result)
    save_points(added.merged_points, expected / "points.jsonl")
    save_seg_checkpoint(expected / "seg.ckpt", added.seg_result, cfg.seg_config())
    assert _files(tmp_path / "added") == _files(expected)


def test_no_option_aliases_a_config_key():
    """A setting has one name, its config key, set by --config or --set.
    gradcheck reads no config; its --seed is its own."""
    import argparse
    import dataclasses

    from divseed.pipeline import PipelineConfig

    keys = {f.name for f in dataclasses.fields(PipelineConfig)}
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    aliases = {
        (command, action.dest)
        for command, subparser in sub.choices.items()
        for action in subparser._actions
        if action.option_strings and action.dest in keys
    }
    assert aliases == {("gradcheck", "seed")}


def _readme_commands() -> list[str]:
    """Every `divseed ...` line of README's code blocks, continuations joined."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"^```[a-z]*\n(.*?)^```", text, re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            if line.strip().startswith("divseed "):
                commands.append(line.strip())
    return commands


def test_readme_commands_parse():
    commands = _readme_commands()
    assert len(commands) >= 10
    parser = build_parser()
    for line in commands:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


def test_train_loc_sample_seg_predict_eval_chain(workdir):
    maps_dir = workdir / "maps"
    for c in (0, 1):
        rc = main([
            "train-loc", "--class", str(c), "--data", str(workdir / "train"),
            "--set", "pooling=global", "--set", "seed=9", "--set", "loc_hidden=32",
            "--out", str(workdir / "loc" / f"class_{c}"),
            "--export-maps", str(maps_dir),
        ])
        assert rc == 0
        assert (workdir / "loc" / f"class_{c}" / "meta.json").exists()

    rc = main([
        "sample", "--set", "strategy=diverse", "--set", "k=5",
        "--loc-dir", str(workdir / "loc"), "--features", str(workdir / "train"),
        "--set", "seed=3", "--out", str(workdir / "points.jsonl"),
    ])
    assert rc == 0
    points = load_points(workdir / "points.jsonl")
    assert points
    by_image = {}
    for p in points:
        by_image.setdefault(p.image_id, []).append(p)
    m = load_manifest(str(workdir / "train"))
    for e in m.entries:
        n_tagged = len(e.tags)
        assert len(by_image[e.image_id]) == 5 * (n_tagged + 1)

    rc = main([
        "train-seg", "--points", str(workdir / "points.jsonl"),
        "--features", str(workdir / "train"), "--set", "seed=4",
        "--out", str(workdir / "seg.ckpt"),
    ])
    assert rc == 0

    image_id = m.entries[0].image_id
    rc = main([
        "predict", "--model", str(workdir / "seg.ckpt"),
        "--data", str(workdir / "train"), "--image", image_id,
        "--out", str(workdir / "pred.dstn"), "--ppm", str(workdir / "pred.ppm"),
    ])
    assert rc == 0
    labels = load_tensor(workdir / "pred.dstn")
    assert labels.shape == (8, 8)
    assert (workdir / "pred.ppm").read_bytes().startswith(b"P6\n8 8\n255\n")

    rc = main([
        "eval", "--model", str(workdir / "seg.ckpt"),
        "--data", str(workdir / "test"), "--out", str(workdir / "report.json"),
    ])
    assert rc == 0
    report = json.loads((workdir / "report.json").read_text())
    assert 0.0 <= report["miou"] <= 1.0


@pytest.mark.parametrize("strategy", ["diverse", "dense"])
def test_sample_names_a_tagged_class_without_a_checkpoint(workdir, tmp_path, capsys, strategy):
    """Runs after the chain test: a --loc-dir without class 1's checkpoint."""
    import shutil

    loc = tmp_path / "loc"
    shutil.copytree(workdir / "loc" / "class_0", loc / "class_0")
    out = tmp_path / "points.jsonl"
    rc = main([
        "sample", "--set", f"strategy={strategy}", "--set", "k=5", "--loc-dir", str(loc),
        "--features", str(workdir / "train"), "--set", "seed=3", "--out", str(out),
    ])
    assert rc == 3
    assert "no localization model for tagged classes [1]" in capsys.readouterr().err
    assert not out.exists()


def test_sample_names_a_checkpoint_of_another_depth(workdir, tmp_path, capsys):
    """Runs after the chain test: class 1's localizer takes 40 features, the
    manifest's grids hold 48."""
    import shutil

    from divseed.localization import LocTrainResult, new_localization_model, save_loc_checkpoint
    from divseed.pipeline import PipelineConfig

    loc = tmp_path / "loc"
    shutil.copytree(workdir / "loc" / "class_0", loc / "class_0")
    model = new_localization_model(1, 40, PipelineConfig().loc_config(), seed=1)
    save_loc_checkpoint(loc / "class_1", LocTrainResult(model, [0.5], []))
    rc = main(["sample", "--loc-dir", str(loc), "--features", str(workdir / "train"),
               "--out", str(tmp_path / "points.jsonl")])
    assert rc == 3
    err = capsys.readouterr().err
    assert f"{loc / 'class_1'}: in_dim 40 differs from the features' depth 48" in err


@pytest.mark.parametrize("command", ["sample", "add-class"])
def test_two_checkpoints_of_one_class_are_data_error(workdir, tmp_path, capsys, command):
    """Runs after the chain test: the class_0.old<pid> directory a killed
    checkpoint write leaves beside class_0 holds class 0 too."""
    import shutil

    loc = tmp_path / "loc"
    shutil.copytree(workdir / "loc", loc)
    shutil.copytree(loc / "class_0", loc / "class_0.old123")
    if command == "sample":
        argv = ["sample", "--features", str(workdir / "train")]
    else:
        new = tmp_path / "new"
        _gen_new(workdir, new)
        argv = ["add-class", "--class", "2", "--data", str(new),
                "--base-data", str(workdir / "train"),
                "--points", str(workdir / "points.jsonl")]
    out = tmp_path / "out"
    assert main(argv + ["--loc-dir", str(loc), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"{loc / 'class_0'} and {loc / 'class_0.old123'} both hold a localizer of class 0" in err
    assert not out.exists()


def test_add_class_command(workdir):
    """Runs after the chain test: extends the 2-class system with class 2."""
    _gen_new(workdir, workdir / "new", 30)
    loc_dir = workdir / "loc"
    before = {
        p: (loc_dir / p / "params.dstn").read_bytes()
        for p in os.listdir(loc_dir)
    }
    rc = main([
        "add-class", "--class", "2", "--data", str(workdir / "new"),
        "--base-data", str(workdir / "train"), "--loc-dir", str(loc_dir),
        "--points", str(workdir / "points.jsonl"),
        "--out", str(workdir / "added"), "--set", "seed=13", "--set", "k=5",
    ])
    assert rc == 0
    # existing localization checkpoints stay byte-identical
    for p, blob in before.items():
        assert (loc_dir / p / "params.dstn").read_bytes() == blob
    from divseed.segmentation import load_seg_checkpoint

    model = load_seg_checkpoint(workdir / "added" / "seg.ckpt")
    assert model.class_ids == (0, 1, 2)
    merged = load_points(workdir / "added" / "points.jsonl")
    assert len(merged) > len(load_points(workdir / "points.jsonl"))


def _other_extractor(new):
    doc = json.loads((new / "manifest.json").read_text())
    doc["extractor"]["seed"] += 1
    (new / "manifest.json").write_text(json.dumps(doc))


def _other_stats(new):
    from divseed.tensor import save_tensor

    stats = load_tensor(new / "stats.dstn")
    save_tensor(stats * [[1.0], [2.0]], new / "stats.dstn")


@pytest.mark.parametrize("edit", [_other_extractor, _other_stats])
def test_add_class_rejects_data_not_made_from_the_base(workdir, tmp_path, capsys, edit):
    """New-class data made from the base set, then given another extractor
    seed or other stats; rejected before any model or points file is read."""
    new = tmp_path / "new"
    _gen_new(workdir, new)
    edit(new)
    rc = main([
        "add-class", "--class", "2", "--data", str(new),
        "--base-data", str(workdir / "train"), "--loc-dir", str(workdir / "loc"),
        "--points", str(workdir / "points.jsonl"), "--out", str(tmp_path / "added"),
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert str(new / "manifest.json") in err
    assert str(workdir / "train" / "manifest.json") in err
    assert not (tmp_path / "added").exists()


def test_render_heatmap_and_points(workdir):
    maps_dir = workdir / "maps"
    some_map = sorted(os.listdir(maps_dir))[0]
    rc = main([
        "render", "--kind", "heatmap", "--in", str(maps_dir / some_map),
        "--out", str(workdir / "h.pgm"),
    ])
    assert rc == 0
    assert (workdir / "h.pgm").read_bytes().startswith(b"P5\n8 8\n255\n")

    m = load_manifest(str(workdir / "train"))
    image_id = load_points(workdir / "points.jsonl")[0].image_id
    rc = main([
        "render", "--kind", "points", "--points", str(workdir / "points.jsonl"),
        "--data", str(workdir / "train"), "--image", image_id,
        "--out", str(workdir / "pts.ppm"),
    ])
    assert rc == 0
    assert (workdir / "pts.ppm").read_bytes().startswith(b"P6\n32 32\n255\n")


def test_render_labels(workdir):
    rc = main([
        "render", "--kind", "labels", "--in", str(workdir / "pred.dstn"),
        "--background-index", "2", "--out", str(workdir / "lab.ppm"),
    ])
    assert rc == 0


def _render(tmp_path, kind, values):
    import numpy as np

    from divseed.tensor import save_tensor

    save_tensor(np.array(values, dtype=np.float32), tmp_path / "in.dstn")
    return main([
        "render", "--kind", kind, "--in", str(tmp_path / "in.dstn"),
        "--background-index", "2", "--out", str(tmp_path / "out.img"),
    ])


@pytest.mark.parametrize("kind", ["heatmap", "labels"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_render_of_non_finite_input_is_numeric_error(tmp_path, capsys, kind, bad):
    assert _render(tmp_path, kind, [[0.0, 1.0], [bad, 2.0]]) == 4
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "out.img").exists()


@pytest.mark.parametrize("bad", [1.5, -0.25, 2.0**40])
def test_render_of_non_integer_labels_is_data_error(tmp_path, capsys, bad):
    assert _render(tmp_path, "labels", [[0.0, 1.0], [bad, 2.0]]) == 3
    assert "labels" in capsys.readouterr().err
    assert not (tmp_path / "out.img").exists()


def test_gradcheck_command(capsys):
    rc = main(["gradcheck", "--seed", "11"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "pooled-bce[pixel]" in out and "pooled-bce[global]" in out
    assert "masked-ce" in out
    assert "FAIL" not in out


# ---------------------------------------------------------------------------
# exit codes


def test_unknown_strategy_is_config_error(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"strategy": "bogus"}))
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2


def test_unknown_config_key_is_config_error(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"stratgy": "diverse"}))
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2


# each ended in a traceback (exit 1) or ran an untrained model before the
# config checked it
@pytest.mark.parametrize("doc", [
    {"loc_lr_schedule": [[1]]},
    {"loc_lr_schedule": "ab"},
    {"loc_lr_schedule": [[0, 0.01]]},
    {"seg_batch": 0},
    {"tau": "x"},
    {"seg_hidden": -1},
    {"loc_hidden": 0},
    {"seg_epochs": 0},
    {"image_size": 30},
    {"image_size": 36},
    {"n_classes": 0},
    {"n_test": 0},
], ids=["schedule-pair-too-short", "schedule-string", "schedule-no-epochs",
        "seg-batch-zero", "tau-string", "seg-hidden-negative", "loc-hidden-zero",
        "seg-epochs-zero", "image-size-30", "image-size-36", "classes-zero",
        "test-images-zero"])
def test_malformed_config_values_are_config_errors(tmp_path, capsys, doc):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # rejected before any work


# a stage command checks its config with the stage config `run` uses,
# and gen-data its --n, before anything is read or written
@pytest.mark.parametrize("argv", [
    ["train-seg", "--set", "seg_batch=0"],
    ["train-seg", "--set", "seg_epochs=0"],
    ["add-class", "--class", "2", "--set", "seg_epochs=0"],
    ["train-seg", "--set", "seg_hidden=0"],
    ["add-class", "--class", "2", "--set", "seg_hidden=0"],
    ["train-loc", "--class", "0", "--set", "loc_hidden=0"],
    ["sample", "--set", "k=0"],
    ["sample", "--set", "strategy=spatial", "--set", "spatial_scale=0"],
    ["gen-data", "--split", "train", "--set", "image_size=30"],
    ["gen-data", "--split", "test", "--set", "image_size=36"],
    ["gen-data", "--split", "new", "--n", "0"],
    ["gen-data", "--split", "train", "--set", "n_classes=9"],
    ["gen-data", "--split", "new", "--n", "4", "--set", "n_classes=8"],
    ["gen-data", "--split", "train", "--n", "4"],
    ["gen-data", "--split", "test", "--n", "4"],
    ["gen-data", "--split", "new"],
], ids=["train-seg-batch-zero", "train-seg-epochs-zero", "add-class-epochs-zero",
        "train-seg-hidden-zero", "add-class-hidden-zero", "train-loc-hidden-zero",
        "sample-k-zero", "sample-spatial-scale-zero", "gen-data-size-30",
        "gen-data-size-36", "gen-data-n-zero", "gen-data-classes-nine",
        "gen-data-new-classes-nine", "gen-data-n-for-train", "gen-data-n-for-test",
        "gen-data-new-without-n"])
def test_malformed_stage_flags_are_config_errors(workdir, tmp_path, capsys, argv):
    inputs = {
        "train-seg": ["--points", workdir / "points.jsonl", "--features", workdir / "train"],
        "add-class": ["--data", workdir / "new", "--base-data", workdir / "train",
                      "--loc-dir", workdir / "loc", "--points", workdir / "points.jsonl"],
        "train-loc": ["--data", workdir / "train"],
        "sample": ["--loc-dir", workdir / "loc", "--features", workdir / "train"],
        "gen-data": [],
    }[argv[0]]
    out = tmp_path / "out"
    rc = main(argv + [str(a) for a in inputs] + ["--out", str(out)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()  # rejected before any output


def _binary_file(path):
    """A DSTN tensor whose bytes are not UTF-8 (0xc0 never is)."""
    import numpy as np

    from divseed.tensor import save_tensor

    save_tensor(np.array([1.5, -2.25]), path)
    with pytest.raises(UnicodeDecodeError):
        path.read_text(encoding="utf-8")
    return path


def test_invalid_config_json_is_config_error(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"k": 20,')
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    binary = _binary_file(tmp_path / "c.dstn")
    rc = main(["run", "--config", str(binary), "--out", str(tmp_path / "out")])
    assert rc == 2


def test_invalid_ablation_grid_json_is_config_error(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text('{"variants": [')
    rc = main(["ablate", "--grid", str(grid), "--out", str(tmp_path / "abl")])
    assert rc == 2
    grid.write_text('{"base": [1], "variants": [{}]}')
    rc = main(["ablate", "--grid", str(grid), "--out", str(tmp_path / "abl")])
    assert rc == 2
    binary = _binary_file(tmp_path / "grid.dstn")
    rc = main(["ablate", "--grid", str(binary), "--out", str(tmp_path / "abl")])
    assert rc == 2


@pytest.mark.parametrize("grid", [
    {"variants": {"k": 5}},
    {"variants": [5]},
    {"variants": [{}, []]},
    {"variants": []},
    {},
    {"variants": [{}], "seeds": 5},
    {"variants": [{}], "seeds": "1"},
    {"variants": [{}], "seeds": {"1": 1}},
], ids=["variants-object", "variants-number", "variants-list", "variants-empty",
        "variants-missing", "seeds-number", "seeds-string", "seeds-object"])
def test_malformed_ablation_grid_is_config_error(tmp_path, capsys, grid):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"base": {"n_train": 10}, **grid}))
    rc = main(["ablate", "--grid", str(path), "--out", str(tmp_path / "abl")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and ("variants" in err or "seeds" in err)
    assert not (tmp_path / "abl.json").exists()


def _grid_must_not_run(monkeypatch):
    from divseed import cli

    def ran(*args, **kwargs):
        raise AssertionError("the grid ran")

    monkeypatch.setattr(cli.pipeline, "ablation_run", ran)


# each ran: a typo'd key ran the derived seeds, a repeated seed ran twice and
# counted twice in the median, and a bool failed later without naming the grid
@pytest.mark.parametrize("grid, key", [
    ({"variants": [{}], "seedz": [1]}, "seedz"),
    ({"variants": [{}], "seeds": [3, 3]}, "seeds"),
    ({"variants": [{}], "seeds": [True]}, "seeds"),
], ids=["unknown-key", "seeds-repeated", "seeds-bool"])
def test_grid_key_or_seeds_refused_names_the_grid(tmp_path, capsys, monkeypatch, grid, key):
    _grid_must_not_run(monkeypatch)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"base": {"n_train": 10}, **grid}))
    assert main(["ablate", "--grid", str(path), "--out", str(tmp_path / "abl")]) == 2
    err = capsys.readouterr().err
    assert f"config error: {path}: " in err and f"'{key}'" in err


def _strict_json(path):
    """The JSON document at path, read as a strict parser does: a NaN or
    Infinity token is an error."""
    def refuse(token):
        raise ValueError(f"{path}: {token} is not JSON")

    return json.loads(Path(path).read_text(), parse_constant=refuse)


def test_a_class_absent_from_the_test_images_is_null_in_the_ablation(tmp_path):
    """Two test images leave classes out of seed 0's truth and predictions:
    their IoU is null in abl.json, as in report.json, never a bare NaN."""
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"base": {"n_train": 40, "n_test": 2},
                                "variants": [{"strategy": "diverse"}], "seeds": [0]}))
    assert main(["ablate", "--grid", str(path), "--out", str(tmp_path / "abl")]) == 0
    (row,) = _strict_json(tmp_path / "abl.json")["rows"]
    assert None in row["per_class_iou"]
    assert all(v is None or 0.0 <= v <= 1.0 for v in row["per_class_iou"])


def test_a_non_finite_number_in_an_artifact_exits_4_naming_it(tmp_path, capsys, monkeypatch):
    from divseed import cli

    monkeypatch.setattr(cli.pipeline, "ablation_run", lambda *_, **__: {"x": float("inf")})
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"variants": [{}], "seeds": [1]}))
    assert main(["ablate", "--grid", str(path), "--out", str(tmp_path / "abl")]) == 4
    assert f"{tmp_path / 'abl.json'}: " in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["grid.json"]


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_ablate_seeds_below_one_is_config_error(tmp_path, capsys, monkeypatch, seeds):
    """With a grid that lists no seeds, these ran nothing and wrote an empty
    table."""
    _grid_must_not_run(monkeypatch)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"base": {"n_train": 10}, "variants": [{}]}))
    rc = main(["ablate", "--grid", str(path), "--seeds", seeds, "--out", str(tmp_path / "abl")])
    assert rc == 2
    assert "--seeds must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "abl.json").exists()


@pytest.mark.parametrize("variant, key", [
    ({"k": "x"}, "'k'"), ({"seg_batch": 0}, "seg_batch"), ({"kk": 5}, "'kk'"),
], ids=["mistyped", "out-of-range", "unknown-key"])
def test_refused_variant_names_the_grid_and_its_index(tmp_path, capsys, monkeypatch, variant,
                                                     key):
    _grid_must_not_run(monkeypatch)
    path = tmp_path / "grid.json"
    variants = [{}, {"k": 5}, {"strategy": "top_k"}, variant, {"k": 10}]
    path.write_text(json.dumps({"base": {"n_train": 10}, "variants": variants}))
    assert main(["ablate", "--grid", str(path), "--out", str(tmp_path / "abl")]) == 2
    err = capsys.readouterr().err
    assert f"config error: {path}: variants[3]: " in err and key in err


@pytest.mark.parametrize("first, second", [
    ({"k": 5}, {"k": 5}),
    ({"k": 5, "strategy": "diverse"}, {"strategy": "diverse", "k": 5}),
], ids=["same", "keys-reordered"])
def test_a_variant_listed_twice_is_refused_naming_both(tmp_path, capsys, monkeypatch, first,
                                                       second):
    """The summary groups rows by variant name, so a second copy of a variant
    would be merged into the first's median."""
    _grid_must_not_run(monkeypatch)
    path = tmp_path / "grid.json"
    variants = [{}, first, {"strategy": "top_k"}, second]
    path.write_text(json.dumps({"base": {"n_train": 10}, "variants": variants}))
    assert main(["ablate", "--grid", str(path), "--out", str(tmp_path / "abl")]) == 2
    err = capsys.readouterr().err
    assert f"config error: {path}: variants[1] and variants[3] are both " in err
    assert not (tmp_path / "abl.json").exists()


def test_non_integer_set_value_is_config_error(tmp_path):
    rc = main(["run", "--set", "k=2.5", "--out", str(tmp_path / "out")])
    assert rc == 2


def _edited_manifest(workdir, tmp_path, edit):
    """A copy of the training manifest with edit(doc) applied, in tmp_path
    (its file paths then point nowhere; the parse fails first)."""
    doc = json.loads((workdir / "train" / "manifest.json").read_text())
    edit(doc)
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    return tmp_path


def _split_with_edited_tensor(workdir, tmp_path, split, name, edit):
    """A copy of a split whose stacked tensor `name` is replaced by
    edit(tensor); returns the copy's directory and the edited file."""
    import shutil

    from divseed.tensor import save_tensor

    data = tmp_path / split
    shutil.copytree(workdir / split, data)
    save_tensor(edit(load_tensor(data / name)), data / name)
    return data, data / name


def test_manifest_entry_without_features_is_data_error(workdir, tmp_path, capsys):
    """The last entry has no row in features.dstn: the tensor's first
    dimension differs from the entry count."""
    data, path = _split_with_edited_tensor(
        workdir, tmp_path, "train", "features.dstn", lambda t: t[:-1]
    )
    rc = main(["train-loc", "--class", "0", "--data", str(data), "--out", str(tmp_path / "ck")])
    assert rc == 3
    assert f"{path}: tensor of shape (59, 8, 8, 48)" in capsys.readouterr().err


def test_manifest_with_a_repeated_image_id_is_data_error(workdir, tmp_path, capsys):
    def repeat_id(doc):
        doc["images"][1]["id"] = doc["images"][0]["id"]

    data = _edited_manifest(workdir, tmp_path, repeat_id)
    rc = main(["train-loc", "--class", "0", "--data", str(data), "--out", str(tmp_path / "ck")])
    assert rc == 3
    assert "more than once" in capsys.readouterr().err


def test_version_1_manifest_is_data_error(workdir, tmp_path, capsys):
    """A manifest of the per-image layout is named and sent to gen-data."""
    def to_version_1(doc):
        doc["version"] = 1
        for e in doc["images"]:
            e.update(image=f"images/{e['id']}.dstn", mask=f"masks/{e['id']}.dstn",
                     features=f"features/{e['id']}.dstn")

    data = _edited_manifest(workdir, tmp_path, to_version_1)
    rc = main(["train-loc", "--class", "0", "--data", str(data), "--out", str(tmp_path / "ck")])
    assert rc == 3
    err = capsys.readouterr().err
    assert f"{data / 'manifest.json'} is version 1" in err
    assert "gen-data" in err


def test_binary_manifest_is_data_error(tmp_path, capsys):
    binary = _binary_file(tmp_path / "m.dstn")
    rc = main(["train-loc", "--class", "0", "--data", str(binary),
               "--out", str(tmp_path / "ck")])
    assert rc == 3
    assert "m.dstn" in capsys.readouterr().err


def test_manifest_non_integer_tag_is_data_error(workdir, tmp_path, capsys):
    data = _edited_manifest(workdir, tmp_path,
                            lambda doc: doc["images"][0].update(tags=["x"]))
    rc = main(["train-loc", "--class", "0", "--data", str(data), "--out", str(tmp_path / "ck")])
    assert rc == 3
    assert "manifest.json" in capsys.readouterr().err


@pytest.mark.parametrize("stats", [5, None, ["stats.dstn"], {"path": "stats.dstn"}],
                         ids=["number", "null", "list", "object"])
def test_manifest_norm_stats_that_is_not_a_string_is_data_error(workdir, tmp_path, capsys,
                                                                stats):
    data = _edited_manifest(workdir, tmp_path, lambda doc: doc.update(norm_stats=stats))
    rc = main(["train-loc", "--class", "0", "--data", str(data), "--out", str(tmp_path / "ck")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "manifest.json" in err and "norm_stats" in err


def _set_entry(row, **fields):
    return lambda doc: doc["images"][row].update(fields)


def _set_seed(seed):
    return lambda doc: doc["extractor"].update(seed=seed)


# (edit, the key the error names, the entry it names or None)
MANIFEST_FIELD_EDITS = {
    "tag-half": (_set_entry(0, tags=[0.5]), "tags", 0),
    "tag-bool": (_set_entry(3, tags=[True]), "tags", 3),
    "tags-not-list": (_set_entry(1, tags=0), "tags", 1),
    "tag-not-a-class": (_set_entry(5, tags=[0, 7]), "tags", 5),
    "tag-negative": (_set_entry(2, tags=[-1]), "tags", 2),
    "id-number": (_set_entry(2, id=5), "id", 2),
    "id-empty": (_set_entry(0, id=""), "id", 0),
    "id-missing": (lambda doc: doc["images"][4].pop("id"), "id", 4),
    "entry-not-object": (lambda doc: doc["images"].__setitem__(1, ["x"]), "images", None),
    "image-size-float": (lambda doc: doc.update(image_size=[32.7, 32]), "image_size", None),
    "image-size-zero": (lambda doc: doc.update(image_size=[0, 32]), "image_size", None),
    "image-size-one-dim": (lambda doc: doc.update(image_size=[32]), "image_size", None),
    "grid-size-float": (lambda doc: doc.update(grid_size=[8, 8.0]), "grid_size", None),
    "grid-size-negative": (lambda doc: doc.update(grid_size=[8, -8]), "grid_size", None),
    "classes-float": (lambda doc: doc.update(classes=[0, 1.5]), "classes", None),
    "classes-bool": (lambda doc: doc.update(classes=[0, True]), "classes", None),
    "depth-zero": (lambda doc: doc.update(feature_depth=0), "feature_depth", None),
    "depth-float": (lambda doc: doc.update(feature_depth=48.0), "feature_depth", None),
    "seed-float": (_set_seed(1.5), "extractor.seed", None),
    "seed-string": (_set_seed("7"), "extractor.seed", None),
    "seed-bool": (_set_seed(True), "extractor.seed", None),
    "seed-missing": (lambda doc: doc["extractor"].pop("seed"), "extractor.seed", None),
}


@pytest.mark.parametrize("case", sorted(MANIFEST_FIELD_EDITS))
def test_mistyped_manifest_field_is_data_error(workdir, tmp_path, capsys, case):
    """Each manifest field is checked by type before use; the error names
    the file, the entry and the key."""
    edit, key, row = MANIFEST_FIELD_EDITS[case]
    data = _edited_manifest(workdir, tmp_path, edit)
    rc = main(["train-loc", "--class", "0", "--data", str(data), "--out", str(tmp_path / "ck")])
    assert rc == 3
    err = capsys.readouterr().err
    assert str(data / "manifest.json") in err and repr(key) in err
    if row is not None:
        assert f"images[{row}]" in err
    assert not (tmp_path / "ck").exists()


def test_features_of_the_wrong_shape_are_data_error(workdir, tmp_path, capsys):
    """A row count that matches but trailing dims that differ from the
    manifest's grid_size and feature_depth exit 3 naming the file."""
    data, path = _split_with_edited_tensor(
        workdir, tmp_path, "train", "features.dstn", lambda t: t[..., :-1]
    )
    rc = main(["train-loc", "--class", "0", "--data", str(data), "--out", str(tmp_path / "ck")])
    assert rc == 3
    assert f"{path}: tensor of shape (60, 8, 8, 47)" in capsys.readouterr().err


def test_masks_of_the_wrong_shape_are_data_error(workdir, tmp_path, capsys):
    """Runs after the chain test (eval needs its seg.ckpt)."""
    data, path = _split_with_edited_tensor(
        workdir, tmp_path, "test", "masks.dstn", lambda t: t[:, :-4]
    )
    rc = main(["eval", "--model", str(workdir / "seg.ckpt"), "--data", str(data),
               "--out", str(tmp_path / "report.json")])
    assert rc == 3
    assert f"{path}: tensor of shape (12, 28, 32)" in capsys.readouterr().err


def test_images_of_the_wrong_shape_are_data_error(workdir, tmp_path, capsys):
    """Runs after the chain test (render needs its points.jsonl)."""
    data, path = _split_with_edited_tensor(
        workdir, tmp_path, "train", "images.dstn", lambda t: t[..., :1]
    )
    image_id = load_points(workdir / "points.jsonl")[0].image_id
    rc = main(["render", "--kind", "points", "--points", str(workdir / "points.jsonl"),
               "--data", str(data), "--image", image_id, "--out", str(tmp_path / "p.ppm")])
    assert rc == 3
    assert f"{path}: tensor of shape (60, 32, 32, 1)" in capsys.readouterr().err


def test_truncated_stacked_tensor_is_format_error(workdir, tmp_path, capsys):
    import shutil

    data = tmp_path / "train"
    shutil.copytree(workdir / "train", data)
    blob = (data / "features.dstn").read_bytes()
    (data / "features.dstn").write_bytes(blob[: len(blob) // 2])
    rc = main(["train-loc", "--class", "0", "--data", str(data), "--out", str(tmp_path / "ck")])
    assert rc == 5
    assert "features.dstn" in capsys.readouterr().err


def _train_seg_on_edited_points(workdir, tmp_path, edit):
    """train-seg (runs after the chain test) on points.jsonl with its
    second line replaced by edit(line)."""
    lines = (workdir / "points.jsonl").read_text().splitlines()
    lines[1] = edit(lines[1])
    bad = tmp_path / "points.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    return main([
        "train-seg", "--points", str(bad), "--features", str(workdir / "train"),
        "--out", str(tmp_path / "seg.ckpt"),
    ])


@pytest.mark.parametrize("loc", [1_000_000, -1])
def test_point_outside_the_grid_is_data_error(workdir, tmp_path, capsys, loc):
    line = (workdir / "points.jsonl").read_text().splitlines()[1]
    rc = _train_seg_on_edited_points(workdir, tmp_path,
                                     lambda text: json.dumps({**json.loads(text), "loc": loc}))
    assert rc == 3
    err = capsys.readouterr().err
    assert json.loads(line)["image"] in err and str(loc) in err


def test_truncated_points_line_is_data_error(workdir, tmp_path, capsys):
    rc = _train_seg_on_edited_points(workdir, tmp_path, lambda line: line[: len(line) // 2])
    assert rc == 3
    assert "points.jsonl:2" in capsys.readouterr().err


def test_binary_points_file_is_data_error(workdir, tmp_path, capsys):
    binary = _binary_file(tmp_path / "points.dstn")
    rc = main(["train-seg", "--points", str(binary), "--features", str(workdir / "train"),
               "--out", str(tmp_path / "seg.ckpt")])
    assert rc == 3
    assert "points.dstn" in capsys.readouterr().err


def test_point_without_label_is_data_error(workdir, tmp_path, capsys):
    def drop_label(line):
        d = json.loads(line)
        del d["label"]
        return json.dumps(d)

    rc = _train_seg_on_edited_points(workdir, tmp_path, drop_label)
    assert rc == 3
    assert "points.jsonl:2" in capsys.readouterr().err


_MALFORMED_POINTS = {
    "array": lambda d: [d],
    "image-list": lambda d: {**d, "image": []},
    "image-number": lambda d: {**d, "image": 7},
    "loc-float": lambda d: {**d, "loc": 1.5},
    "loc-bool": lambda d: {**d, "loc": True},
    "loc-string": lambda d: {**d, "loc": "7"},
    "label-bool": lambda d: {**d, "label": False},
    "rank-float": lambda d: {**d, "rank": 2.0},
    "value-string": lambda d: {**d, "value": "0.5"},
    "value-bool": lambda d: {**d, "value": True},
    "flags-string": lambda d: {**d, "flags": "random_bg_fallback"},
    "flags-unknown": lambda d: {**d, "flags": ["nope"]},
    "flags-repeated": lambda d: {**d, "flags": ["random_bg_fallback"] * 2},
}


@pytest.mark.parametrize("command", ["train-seg", "add-class"])
@pytest.mark.parametrize("edit", list(_MALFORMED_POINTS))
def test_malformed_point_field_is_data_error(workdir, tmp_path, capsys, command, edit):
    """Runs after the chain test: points.jsonl with its second line edited."""
    lines = (workdir / "points.jsonl").read_text().splitlines()
    lines[1] = json.dumps(_MALFORMED_POINTS[edit](json.loads(lines[1])))
    bad = tmp_path / "points.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    if command == "train-seg":
        argv = ["train-seg", "--features", str(workdir / "train")]
    else:
        new = tmp_path / "new"
        _gen_new(workdir, new)
        argv = ["add-class", "--class", "2", "--data", str(new),
                "--base-data", str(workdir / "train"), "--loc-dir", str(workdir / "loc")]
    rc = main(argv + ["--points", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 3
    assert f"{bad}:2: malformed point" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_missing_manifest_is_data_error(tmp_path):
    rc = main([
        "train-loc", "--class", "0", "--data", str(tmp_path / "nope"),
        "--out", str(tmp_path / "ck"),
    ])
    assert rc == 3


def test_bad_tensor_file_is_io_error(tmp_path):
    bad = tmp_path / "bad.dstn"
    bad.write_bytes(b"NOPE" + bytes(32))
    rc = main(["render", "--kind", "heatmap", "--in", str(bad),
               "--out", str(tmp_path / "x.pgm")])
    assert rc == 5


@pytest.mark.parametrize("case", sorted(MALFORMED_DSTN))
def test_malformed_tensor_file_exits_5(tmp_path, capsys, case):
    bad = tmp_path / "bad.dstn"
    bad.write_bytes(MALFORMED_DSTN[case][0])
    rc = main(["render", "--kind", "heatmap", "--in", str(bad),
               "--out", str(tmp_path / "x.pgm")])
    assert rc == 5
    err = capsys.readouterr().err
    assert MALFORMED_DSTN[case][1] in err and "Traceback" not in err


def test_missing_class_in_data_is_data_error(workdir, tmp_path):
    rc = main([
        "train-loc", "--class", "7", "--data", str(workdir / "train"),
        "--out", str(tmp_path / "ck"),
    ])
    assert rc == 3


def test_non_finite_model_is_numeric_error(workdir, tmp_path):
    import shutil
    import warnings

    import numpy as np

    from divseed.tensor import load_tensor, save_tensor

    broken = tmp_path / "broken.ckpt"
    shutil.copytree(workdir / "seg.ckpt", broken)
    flat = load_tensor(broken / "params.dstn")
    flat[0] = np.inf
    save_tensor(flat, broken / "params.dstn")
    m = load_manifest(str(workdir / "train"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rc = main([
            "predict", "--model", str(broken), "--data", str(workdir / "train"),
            "--image", m.entries[0].image_id, "--out", str(tmp_path / "p.dstn"),
        ])
    assert rc == 4


def _edited_head(workdir, tmp_path, edit):
    """A copy of the chain test's seg.ckpt, changed in place by edit(dir)."""
    import shutil

    head = tmp_path / "seg.ckpt"
    shutil.copytree(workdir / "seg.ckpt", head)
    edit(head)
    return head


def _edit_meta(change):
    def edit(head):
        meta = json.loads((head / "meta.json").read_text())
        change(meta)
        (head / "meta.json").write_text(json.dumps(meta))
    return edit


def _eval_and_predict(workdir, tmp_path, head):
    """Exit codes of eval and predict given the head at head."""
    image_id = load_manifest(str(workdir / "train")).entries[0].image_id
    return [
        main(["eval", "--model", str(head), "--data", str(workdir / "test"),
              "--out", str(tmp_path / "report.json")]),
        main(["predict", "--model", str(head), "--data", str(workdir / "train"),
              "--image", image_id, "--out", str(tmp_path / "p.dstn")]),
    ]


def test_head_whose_class_ids_disagree_with_its_outputs_is_data_error(workdir, tmp_path,
                                                                      capsys):
    head = _edited_head(workdir, tmp_path, _edit_meta(lambda m: m["class_ids"].append(2)))
    assert _eval_and_predict(workdir, tmp_path, head) == [3, 3]
    err = capsys.readouterr().err
    assert str(head / "meta.json") in err and "'out_dim'" in err


@pytest.mark.parametrize("edit", ["short", "long"])
def test_head_params_of_the_wrong_length_are_data_error(workdir, tmp_path, capsys, edit):
    import numpy as np

    from divseed.tensor import save_tensor

    def resize(head):
        flat = load_tensor(head / "params.dstn")
        save_tensor(flat[:-1] if edit == "short" else np.append(flat, 0.0), head / "params.dstn")

    head = _edited_head(workdir, tmp_path, resize)
    assert _eval_and_predict(workdir, tmp_path, head) == [3, 3]
    assert str(head / "params.dstn") in capsys.readouterr().err


def test_head_in_the_per_layer_layout_is_data_error(workdir, tmp_path, capsys):
    """The earlier layout, one params/<layer>_{w,b}.dstn file per array, has
    no out_dim in its meta and no reader."""
    from divseed.segmentation import load_seg_checkpoint
    from divseed.tensor import save_tensor

    def per_layer(head):
        model = load_seg_checkpoint(head)
        (head / "params.dstn").unlink()
        (head / "params").mkdir()
        w1, b1, w2, b2 = model.params()
        for name, weights, bias in (("hidden", w1, b1), ("out", w2, b2)):
            save_tensor(weights, head / "params" / f"{name}_w.dstn")
            save_tensor(bias, head / "params" / f"{name}_b.dstn")
        _edit_meta(lambda m: m.pop("out_dim"))(head)

    head = _edited_head(workdir, tmp_path, per_layer)
    assert _eval_and_predict(workdir, tmp_path, head) == [3, 3]
    err = capsys.readouterr().err
    assert str(head / "meta.json") in err and "missing key 'out_dim'" in err


def test_head_without_params_is_io_error(workdir, tmp_path, capsys):
    head = _edited_head(workdir, tmp_path, lambda head: (head / "params.dstn").unlink())
    assert _eval_and_predict(workdir, tmp_path, head) == [5, 5]
    assert "params.dstn" in capsys.readouterr().err


def test_jobs_env_fallback(monkeypatch, tmp_path):
    """jobs is the config key alone: 1 without it, else the document's, the
    --set override's or the ablation grid base's value."""
    import divseed.cli as cli

    captured = {}

    def spy(config, out_dir):
        captured["jobs"] = config.jobs
        raise SystemExit(0)  # skip the actual run

    monkeypatch.setattr(cli.pipeline, "run_pipeline", spy)
    with pytest.raises(SystemExit):
        main(["run", "--out", str(tmp_path / "o")])
    assert captured["jobs"] == 1
    # a config document's jobs counts, and --set wins over it
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"jobs": 2}))
    for args, jobs in (
        (["--config", str(cfg)], 2), (["--set", "jobs=4"], 4),
        (["--config", str(cfg), "--set", "jobs=1"], 1),
    ):
        with pytest.raises(SystemExit):
            main(["run", "--out", str(tmp_path / "o")] + args)
        assert captured["jobs"] == jobs
    # ablate takes it from the grid's base
    monkeypatch.setattr(cli.pipeline, "ablation_run", lambda base, *_, **__: spy(base, None))
    for base, jobs in (({}, 1), ({"jobs": 2}, 2)):
        grid = _tiny_grid(tmp_path, **base)
        with pytest.raises(SystemExit):
            main(["ablate", "--grid", str(grid), "--out", str(tmp_path / "a")])
        assert captured["jobs"] == jobs


def _tiny_grid(tmp_path, **base):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(
        {"base": {"n_train": 10, **base}, "variants": [{}], "seeds": [1]}
    ))
    return grid


@pytest.mark.parametrize("command", ["run", "ablate"])
@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_is_config_error(tmp_path, capsys, command, jobs):
    if command == "run":
        args = ["run", "--set", f"jobs={jobs}"]
    else:
        args = ["ablate", "--grid", str(_tiny_grid(tmp_path, jobs=int(jobs)))]
    rc = main(args + ["--out", str(tmp_path / "o")])
    assert rc == 2
    assert "jobs must be >= 1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# run + ablate wiring (tiny)


@pytest.mark.slow
def test_run_subcommand_and_set_overrides(tmp_path):
    out = tmp_path / "run"
    rc = main([
        "run", "--set", "n_train=50", "--set", "n_test=10",
        "--set", "n_classes=2", "--set", "image_size=32", "--set", "seed=8",
        "--out", str(out),
    ])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["n_train"] == 50
    summary = json.loads((out / "summary.json").read_text())
    assert summary["artifacts"]


@pytest.mark.slow
def test_run_deterministic_across_processes(tmp_path):
    """Fresh interpreters with the same config produce identical reports."""
    import subprocess
    import sys

    args = ["--set", "n_train=40", "--set", "n_test=8", "--set", "n_classes=2",
            "--set", "image_size=32", "--set", "seed=17"]
    for name in ("a", "b"):
        proc = subprocess.run(
            [sys.executable, "-m", "divseed", "run", *args,
             "--out", str(tmp_path / name)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "a" / "report.json").read_bytes() == (
        tmp_path / "b" / "report.json"
    ).read_bytes()
    sa = json.loads((tmp_path / "a" / "summary.json").read_text())
    sb = json.loads((tmp_path / "b" / "summary.json").read_text())
    assert sa["artifacts"] == sb["artifacts"]


@pytest.mark.slow
def test_ablate_subcommand(tmp_path):
    grid = {
        "base": {"n_train": 50, "n_test": 10, "n_classes": 2, "image_size": 32},
        "variants": [{"strategy": "diverse"}, {"strategy": "top_k"}],
        "seeds": [1, 2],
    }
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(grid))
    rc = main(["ablate", "--grid", str(grid_path),
               "--out", str(tmp_path / "table")])
    assert rc == 0
    doc = json.loads((tmp_path / "table.json").read_text())
    assert len(doc["rows"]) == 4  # 2 variants x 2 seeds
    assert len(doc["variants"]) == 2
    for row in doc["rows"]:
        assert 0.0 <= row["miou"] <= 1.0
    text = (tmp_path / "table.txt").read_text()
    assert "strategy=diverse" in text and "strategy=top_k" in text
