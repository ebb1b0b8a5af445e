import json
import os

import pytest

from divseed.cli import main
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
        "--stats-from", str(root / "train" / "stats.dstn"),
        "--extractor-seed", "1234",
    ])
    assert rc == 0
    return root


def test_gen_data_manifest(workdir):
    m = load_manifest(str(workdir / "train"))
    assert len(m.entries) == 60
    assert m.classes == [0, 1]


def test_train_loc_sample_seg_predict_eval_chain(workdir):
    maps_dir = workdir / "maps"
    for c in (0, 1):
        rc = main([
            "train-loc", "--class", str(c), "--data", str(workdir / "train"),
            "--pooling", "global", "--seed", "9", "--hidden", "32",
            "--out", str(workdir / "loc" / f"class_{c}"),
            "--export-maps", str(maps_dir),
        ])
        assert rc == 0
        assert (workdir / "loc" / f"class_{c}" / "meta.json").exists()

    rc = main([
        "sample", "--strategy", "diverse", "--k", "5",
        "--in", str(maps_dir), "--features", str(workdir / "train"),
        "--seed", "3", "--out", str(workdir / "points.jsonl"),
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
        "--features", str(workdir / "train"), "--seed", "4",
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
    from divseed.sampling import SamplingConfig

    from reference_samplers import reference_supervision_set

    m = load_manifest(str(workdir / "train"))
    both = next(e for e in m.entries if e.tags == {0, 1})
    maps_dir = tmp_path / "maps"
    shutil.copytree(workdir / "maps", maps_dir)
    os.remove(maps_dir / f"{both.image_id}__c1.dstn")
    out = tmp_path / "points.jsonl"
    rc = main([
        "sample", "--strategy", strategy, "--k", "5", "--in", str(maps_dir),
        "--features", str(workdir / "train"), "--seed", "3", "--out", str(out),
    ])
    assert rc == 0
    # the per-image loop the command used to run, as the reference
    expected = reference_supervision_set(
        m.load_records(), {}, SamplingConfig(k=5, strategy=strategy), 3,
        maps_by_image=_load_map_dir(str(maps_dir)),
    )
    points = load_points(out)
    assert points == expected
    assert not [p for p in points if p.image_id == both.image_id and p.label == 1]


@pytest.mark.parametrize("strategy", ["diverse", "topk", "spatial", "dense"])
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
        "sample", "--strategy", strategy, "--k", "5", "--in", str(maps_dir),
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
        "--stats-from", str(workdir / "train" / "stats.dstn"),
    ])
    assert rc == 0
    loc_dir = workdir / "loc"
    before = {
        p: (loc_dir / p / "params" / "layer1_w.dstn").read_bytes()
        for p in os.listdir(loc_dir)
    }
    rc = main([
        "add-class", "--class", "2", "--data", str(workdir / "new"),
        "--base-data", str(workdir / "train"), "--loc-dir", str(loc_dir),
        "--points", str(workdir / "points.jsonl"),
        "--out", str(workdir / "added"), "--seed", "13", "--k", "5",
    ])
    assert rc == 0
    # existing localization checkpoints stay byte-identical
    for p, blob in before.items():
        assert (loc_dir / p / "params" / "layer1_w.dstn").read_bytes() == blob
    from divseed.segmentation import load_seg_checkpoint

    model = load_seg_checkpoint(workdir / "added" / "seg.ckpt")
    assert model.class_ids == (0, 1, 2)
    merged = load_points(workdir / "added" / "points.jsonl")
    assert len(merged) > len(load_points(workdir / "points.jsonl"))


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
], ids=["schedule-pair-too-short", "schedule-string", "schedule-no-epochs",
        "seg-batch-zero", "tau-string", "seg-hidden-negative", "loc-hidden-zero",
        "seg-epochs-zero"])
def test_malformed_config_values_are_config_errors(tmp_path, capsys, doc):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # rejected before any work


def test_invalid_config_json_is_config_error(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"k": 20,')
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2


def test_invalid_ablation_grid_json_is_config_error(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text('{"variants": [')
    rc = main(["ablate", "--grid", str(grid), "--out", str(tmp_path / "abl")])
    assert rc == 2
    grid.write_text('{"base": [1], "variants": [{}]}')
    rc = main(["ablate", "--grid", str(grid), "--out", str(tmp_path / "abl")])
    assert rc == 2


def test_non_integer_set_value_is_config_error(tmp_path):
    rc = main(["run", "--set", "k=2.5", "--out", str(tmp_path / "out")])
    assert rc == 2


def test_non_integer_map_class_suffix_is_data_error(workdir, tmp_path):
    maps_dir = tmp_path / "maps"
    maps_dir.mkdir()
    (maps_dir / "tr_00000__cx.dstn").write_bytes(b"")
    rc = main([
        "sample", "--strategy", "diverse", "--in", str(maps_dir),
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


def test_manifest_entry_without_features_is_data_error(workdir, tmp_path, capsys):
    data = _edited_manifest(workdir, tmp_path, lambda doc: doc["images"][3].pop("features"))
    rc = main(["train-loc", "--class", "0", "--data", str(data), "--out", str(tmp_path / "ck")])
    assert rc == 3
    assert "manifest.json" in capsys.readouterr().err


def test_manifest_non_integer_tag_is_data_error(workdir, tmp_path, capsys):
    data = _edited_manifest(workdir, tmp_path,
                            lambda doc: doc["images"][0].update(tags=["x"]))
    rc = main(["train-loc", "--class", "0", "--data", str(data), "--out", str(tmp_path / "ck")])
    assert rc == 3
    assert "manifest.json" in capsys.readouterr().err


def test_features_of_the_wrong_shape_are_data_error(workdir, tmp_path, capsys):
    import shutil

    from divseed.tensor import save_tensor

    data = tmp_path / "train"
    shutil.copytree(workdir / "train", data)
    m = load_manifest(str(data))
    feats = load_tensor(data / m.entries[5].features_path)
    save_tensor(feats[:, :-1], data / m.entries[5].features_path)
    rc = main(["train-loc", "--class", "0", "--data", str(data), "--out", str(tmp_path / "ck")])
    assert rc == 3
    assert m.entries[5].features_path in capsys.readouterr().err


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


def test_truncated_points_line_is_data_error(workdir, tmp_path, capsys):
    rc = _train_seg_on_edited_points(workdir, tmp_path, lambda line: line[: len(line) // 2])
    assert rc == 3
    assert "points.jsonl:2" in capsys.readouterr().err


def test_point_without_label_is_data_error(workdir, tmp_path, capsys):
    def drop_label(line):
        d = json.loads(line)
        del d["label"]
        return json.dumps(d)

    rc = _train_seg_on_edited_points(workdir, tmp_path, drop_label)
    assert rc == 3
    assert "points.jsonl:2" in capsys.readouterr().err


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
    w = load_tensor(broken / "params" / "hidden_w.dstn")
    w[0, 0] = np.inf
    save_tensor(w, broken / "params" / "hidden_w.dstn")
    m = load_manifest(str(workdir / "train"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rc = main([
            "predict", "--model", str(broken), "--data", str(workdir / "train"),
            "--image", m.entries[0].image_id, "--out", str(tmp_path / "p.dstn"),
        ])
    assert rc == 4


def test_jobs_env_fallback(monkeypatch, workdir, tmp_path):
    import divseed.cli as cli

    captured = {}
    real = cli.pipeline.run_pipeline

    def spy(config, out_dir):
        captured["jobs"] = config.jobs
        raise SystemExit(0)  # skip the actual run

    monkeypatch.setattr(cli.pipeline, "run_pipeline", spy)
    monkeypatch.setenv("DIVSEED_JOBS", "3")
    with pytest.raises(SystemExit):
        main(["run", "--out", str(tmp_path / "o")])
    assert captured["jobs"] == 3
    # explicit flag wins over the environment
    with pytest.raises(SystemExit):
        main(["run", "--out", str(tmp_path / "o"), "--jobs", "2"])
    assert captured["jobs"] == 2
    # a config document's jobs wins over the environment, the flag over both
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"jobs": 2}))
    for args, jobs in (
        (["--config", str(cfg)], 2), (["--set", "jobs=4"], 4),
        (["--config", str(cfg), "--jobs", "1"], 1),
    ):
        with pytest.raises(SystemExit):
            main(["run", "--out", str(tmp_path / "o")] + args)
        assert captured["jobs"] == jobs
    # ablate resolves its worker count the same way, into the base config
    monkeypatch.setattr(cli.pipeline, "ablation_run", lambda base, *_, **__: spy(base, None))
    for base, flag, jobs in (
        ({}, [], 3), ({}, ["--jobs", "2"], 2),
        ({"jobs": 2}, [], 2), ({"jobs": 2}, ["--jobs", "1"], 1),
    ):
        grid = _tiny_grid(tmp_path, **base)
        with pytest.raises(SystemExit):
            main(["ablate", "--grid", str(grid), "--out", str(tmp_path / "a")] + flag)
        assert captured["jobs"] == jobs


@pytest.mark.parametrize("command", ["run", "ablate"])
@pytest.mark.parametrize("value", ["0", "-1", "two"])
def test_invalid_divseed_jobs_is_config_error(monkeypatch, tmp_path, capsys, command, value):
    monkeypatch.setenv("DIVSEED_JOBS", value)
    args = ["run"] if command == "run" else ["ablate", "--grid", str(_tiny_grid(tmp_path))]
    rc = main(args + ["--out", str(tmp_path / "o")])
    assert rc == 2
    assert "DIVSEED_JOBS" in capsys.readouterr().err


def _tiny_grid(tmp_path, **base):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(
        {"base": {"n_train": 10, **base}, "variants": [{}], "seeds": [1]}
    ))
    return grid


@pytest.mark.parametrize("command", ["run", "ablate"])
@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_is_config_error(tmp_path, capsys, command, jobs):
    args = ["run"] if command == "run" else ["ablate", "--grid", str(_tiny_grid(tmp_path))]
    rc = main(args + ["--out", str(tmp_path / "o"), "--jobs", jobs])
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
