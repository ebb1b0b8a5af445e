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


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One tiny dataset shared by the stage-command tests."""
    root = tmp_path_factory.mktemp("cli")
    rc = main([
        "gen-data", "--n", "60", "--classes", "2", "--size", "32",
        "--seed", "5", "--out", str(root / "train"), "--prefix", "tr",
    ])
    assert rc == 0
    rc = main([
        "gen-data", "--n", "12", "--classes", "2", "--size", "32",
        "--seed", "6", "--out", str(root / "test"), "--prefix", "te",
        "--stats-from", str(root / "train"),
    ])
    assert rc == 0
    return root


def test_gen_data_manifest(workdir):
    m = load_manifest(str(workdir / "train"))
    assert len(m.entries) == 60
    assert m.classes == [0, 1]
    # a split made from a training set takes its extractor and stats
    test = load_manifest(str(workdir / "test"))
    assert test.extractor_seed == m.extractor_seed
    stats = [(workdir / split / "stats.dstn").read_bytes() for split in ("train", "test")]
    assert stats[0] == stats[1]


def _files(root) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_gen_data_from_a_run_training_set_writes_its_test_split(tmp_path):
    """gen-data with the run's test-split seed, --stats-from the run's
    training set, writes the run's test split byte for byte."""
    from divseed.pipeline import _STREAM_TEST_DATA
    from divseed.rng import derive_seed

    run = tmp_path / "run"
    rc = main(["run", "--set", "n_train=20", "--set", "n_test=6", "--set", "n_classes=2",
               "--set", "image_size=32", "--set", "seed=17", "--set", "seg_epochs=1",
               "--out", str(run)])
    assert rc == 0
    rc = main([
        "gen-data", "--n", "6", "--classes", "2", "--size", "32",
        "--seed", str(derive_seed(17, _STREAM_TEST_DATA)), "--prefix", "test",
        "--stats-from", str(run / "data" / "train"), "--out", str(tmp_path / "test"),
    ])
    assert rc == 0
    assert _files(tmp_path / "test") == _files(run / "data" / "test")


# the tiny run the stage chains below reproduce
TINY_RUN = ["--set", "n_train=80", "--set", "n_test=16", "--set", "n_classes=2",
            "--set", "image_size=32", "--set", "seed=3"]


@pytest.mark.parametrize("overrides", [
    ["strategy=diverse"], ["strategy=dense"], ["strategy=spatial"],
    ["strategy=top_k", "pooling=pixel"],
], ids=["diverse", "dense", "spatial", "top_k-pixel"])
def test_stage_chain_reproduces_a_run(tmp_path, overrides):
    """train-loc per class, sample, train-seg and eval, each given the run's
    config.json, write the run's loc/, points.jsonl, seg.ckpt/ and
    report.json byte for byte."""
    run, chain, maps = tmp_path / "run", tmp_path / "chain", tmp_path / "maps"
    sets = [arg for item in overrides for arg in ("--set", item)]
    assert main(["run", *TINY_RUN, *sets, "--out", str(run)]) == 0
    config = ["--config", str(run / "config.json")]
    train = str(run / "data" / "train")
    for c in (0, 1):
        assert main(["train-loc", "--class", str(c), "--data", train, *config,
                     "--out", str(chain / "loc" / f"class_{c}"),
                     "--export-maps", str(maps)]) == 0
    assert main(["sample", "--in", str(maps), "--features", train, *config,
                 "--out", str(chain / "points.jsonl")]) == 0
    assert main(["train-seg", "--points", str(chain / "points.jsonl"), "--features", train,
                 *config, "--out", str(chain / "seg.ckpt")]) == 0
    assert main(["eval", "--model", str(chain / "seg.ckpt"),
                 "--data", str(run / "data" / "test"), *config,
                 "--out", str(chain / "report.json")]) == 0
    produced = {rel: blob for rel, blob in _files(run).items()
                if rel.split(os.sep)[0] in ("loc", "points.jsonl", "seg.ckpt", "report.json")}
    assert len(produced) == 2 * 2 + 1 + 2 + 1
    assert _files(chain) == produced


@pytest.mark.parametrize("strategy", ["diverse", "dense"])
def test_add_class_command_equals_the_in_memory_class_addition(tmp_path, strategy):
    """gen-data makes the new-class split run_add_class makes in memory;
    add-class, given the run's config.json, then writes the new localizer,
    the merged points and the head that run_add_class returns, for any
    strategy the config names."""
    from divseed.localization import save_loc_checkpoint
    from divseed.pipeline import (
        _STREAM_ADD_CLASS_DATA, PipelineConfig, ablation_seed,
    )
    from divseed.rng import derive_seed
    from divseed.sampling import save_points
    from divseed.segmentation import save_seg_checkpoint

    run = tmp_path / "run"
    assert main(["run", *TINY_RUN, "--set", "seg_epochs=1", "--set", f"strategy={strategy}",
                 "--out", str(run)]) == 0
    cfg = PipelineConfig.from_dict(json.loads((run / "config.json").read_text()))
    n_images, new = 30, tmp_path / "new"
    assert main([
        "gen-data", "--n", str(n_images), "--classes", "3", "--size", "32",
        "--seed", str(derive_seed(cfg.seed, _STREAM_ADD_CLASS_DATA)), "--prefix", "new",
        "--stats-from", str(run / "data" / "train"), "--out", str(new),
    ]) == 0
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
    gen-data and gradcheck read no config; their --seed is their own."""
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
    assert aliases == {("gen-data", "seed"), ("gradcheck", "seed")}


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
        "--in", str(maps_dir), "--features", str(workdir / "train"),
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
def test_sample_with_a_missing_class_map(workdir, tmp_path, strategy):
    """Runs after the chain test: an image whose map directory lacks one of
    its tagged classes gets points from the maps it has, with no error."""
    import shutil

    from divseed.cli import _load_map_dir
    from divseed.pipeline import sampling_seed
    from divseed.sampling import SamplingConfig

    from reference_samplers import reference_supervision_set

    m = load_manifest(str(workdir / "train"))
    both = next(e for e in m.entries if e.tags == {0, 1})
    maps_dir = tmp_path / "maps"
    shutil.copytree(workdir / "maps", maps_dir)
    os.remove(maps_dir / f"{both.image_id}__c1.dstn")
    out = tmp_path / "points.jsonl"
    rc = main([
        "sample", "--set", f"strategy={strategy}", "--set", "k=5", "--in", str(maps_dir),
        "--features", str(workdir / "train"), "--set", "seed=3", "--out", str(out),
    ])
    assert rc == 0
    # the per-image loop the command used to run, as the reference
    expected = reference_supervision_set(
        m.load_records(), {}, SamplingConfig(k=5, strategy=strategy), sampling_seed(3),
        maps_by_image=_load_map_dir(str(maps_dir)),
    )
    points = load_points(out)
    assert points == expected
    assert not [p for p in points if p.image_id == both.image_id and p.label == 1]


@pytest.mark.parametrize("strategy", ["diverse", "top_k", "spatial", "dense"])
def test_misshaped_score_map_is_data_error(workdir, tmp_path, capsys, strategy):
    """Runs after the chain test: a 16x16 map for an image of an 8x8 grid."""
    import shutil

    import numpy as np

    from divseed.tensor import save_tensor

    maps_dir = tmp_path / "maps"
    shutil.copytree(workdir / "maps", maps_dir)
    name = sorted(os.listdir(maps_dir))[0]
    save_tensor(np.zeros((2, 16, 16), dtype=np.float32), maps_dir / name)
    rc = main([
        "sample", "--set", f"strategy={strategy}", "--set", "k=5", "--in", str(maps_dir),
        "--features", str(workdir / "train"), "--out", str(tmp_path / "p.jsonl"),
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert name.split("__c")[0] in err and "(16, 16)" in err and "(8, 8)" in err


def test_add_class_command(workdir):
    """Runs after the chain test: extends the 2-class system with class 2."""
    rc = main([
        "gen-data", "--n", "30", "--classes", "3", "--size", "32",
        "--seed", "44", "--out", str(workdir / "new"), "--prefix", "new",
        "--stats-from", str(workdir / "train"),
    ])
    assert rc == 0
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
    assert main(["gen-data", "--n", "4", "--classes", "3", "--size", "32", "--seed", "44",
                 "--stats-from", str(workdir / "train"), "--out", str(new)]) == 0
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
# and gen-data its flags, before anything is read or written
@pytest.mark.parametrize("argv", [
    ["train-seg", "--set", "seg_batch=0"],
    ["train-seg", "--set", "seg_epochs=0"],
    ["add-class", "--class", "2", "--set", "seg_epochs=0"],
    ["train-seg", "--set", "seg_hidden=0"],
    ["add-class", "--class", "2", "--set", "seg_hidden=0"],
    ["train-loc", "--class", "0", "--set", "loc_hidden=0"],
    ["sample", "--set", "k=0"],
    ["sample", "--set", "strategy=spatial", "--set", "spatial_scale=0"],
    ["gen-data", "--n", "4", "--classes", "2", "--size", "30"],
    ["gen-data", "--n", "4", "--classes", "2", "--size", "36"],
    ["gen-data", "--n", "0", "--classes", "2"],
    ["gen-data", "--n", "4", "--classes", "9"],
], ids=["train-seg-batch-zero", "train-seg-epochs-zero", "add-class-epochs-zero",
        "train-seg-hidden-zero", "add-class-hidden-zero", "train-loc-hidden-zero",
        "sample-k-zero", "sample-spatial-scale-zero", "gen-data-size-30",
        "gen-data-size-36", "gen-data-n-zero", "gen-data-classes-nine"])
def test_malformed_stage_flags_are_config_errors(workdir, tmp_path, capsys, argv):
    inputs = {
        "train-seg": ["--points", workdir / "points.jsonl", "--features", workdir / "train"],
        "add-class": ["--data", workdir / "new", "--base-data", workdir / "train",
                      "--loc-dir", workdir / "loc", "--points", workdir / "points.jsonl"],
        "train-loc": ["--data", workdir / "train"],
        "sample": ["--in", workdir / "maps", "--features", workdir / "train"],
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


def test_non_integer_set_value_is_config_error(tmp_path):
    rc = main(["run", "--set", "k=2.5", "--out", str(tmp_path / "out")])
    assert rc == 2


def test_non_integer_map_class_suffix_is_data_error(workdir, tmp_path):
    maps_dir = tmp_path / "maps"
    maps_dir.mkdir()
    (maps_dir / "tr_00000__cx.dstn").write_bytes(b"")
    rc = main([
        "sample", "--in", str(maps_dir),
        "--features", str(workdir / "train"), "--out", str(tmp_path / "p.jsonl"),
    ])
    assert rc == 3


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


def test_binary_manifest_is_data_error(workdir, tmp_path, capsys):
    binary = _binary_file(tmp_path / "m.dstn")
    rc = main(["train-loc", "--class", "0", "--data", str(binary),
               "--out", str(tmp_path / "ck")])
    assert rc == 3
    assert "m.dstn" in capsys.readouterr().err
    # --stats-from names the training set, not its stats file
    rc = main(["gen-data", "--n", "4", "--classes", "2", "--size", "32",
               "--stats-from", str(workdir / "train" / "stats.dstn"),
               "--out", str(tmp_path / "test")])
    assert rc == 3
    assert "stats.dstn" in capsys.readouterr().err
    assert not (tmp_path / "test").exists()


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
        assert main(["gen-data", "--n", "4", "--classes", "3", "--size", "32", "--seed", "44",
                     "--stats-from", str(workdir / "train"), "--out", str(new)]) == 0
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
        for name, layer in (("hidden", model.hidden), ("out", model.out)):
            save_tensor(layer.weights, head / "params" / f"{name}_w.dstn")
            save_tensor(layer.bias, head / "params" / f"{name}_b.dstn")
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
