"""Random malformed inputs end in a documented error, never a traceback."""

import copy
import json
import shutil
from argparse import Namespace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import divseed
from divseed import cli
from divseed.cli import main
from divseed.dataset import load_manifest, make_split
from divseed.errors import ConfigError, DataError
from divseed.localization import (LocalizationModel, LocTrainResult, load_loc_checkpoint,
                                  save_loc_checkpoint)
from divseed.pipeline import PipelineConfig
from divseed.sampling import FLAGS, load_points
from divseed.segmentation import (SegConfig, SegmentationModel, SegTrainResult,
                                  load_seg_checkpoint, save_seg_checkpoint)
from divseed.synthdata import ExtractorSpec

GRID_PATH = Path(__file__).resolve().parents[1] / "configs" / "strategy_ablation.json"
_VALID_POINT = {"flags": [], "image": "im0", "label": 1, "loc": 3, "rank": 1, "value": 0.5}

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([2**63, 10**400, -10**400])
    | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                max_size=3),
    max_leaves=6,
)


def _is_int64(v) -> bool:
    return type(v) is int and -(2**63) <= v < 2**63


def _documented(key, v) -> bool:
    """Whether value v of a points field is what README documents."""
    if key == "image":
        return isinstance(v, str)
    if key == "value":
        return type(v) is float or _is_int64(v)
    if key == "flags":
        return (isinstance(v, list) and all(isinstance(f, str) and f in FLAGS for f in v)
                and len(set(v)) == len(v))
    return _is_int64(v)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(key=st.sampled_from(sorted(_VALID_POINT)), value=_json_values)
def test_any_json_in_a_points_field_loads_or_is_data_error(tmp_path_factory, key, value):
    path = tmp_path_factory.mktemp("points") / "points.jsonl"
    path.write_text(json.dumps(_VALID_POINT) + "\n" + json.dumps({**_VALID_POINT, key: value})
                    + "\n")
    try:
        points = load_points(path)
    except DataError as e:
        assert f"{path}:2: malformed point" in str(e)
        assert not _documented(key, value)
        return
    assert _documented(key, value)
    got = points[1]
    want = value if key != "flags" else tuple(value)
    field = {"image": "image_id"}.get(key, key)
    if key == "value":
        assert np.array_equal(getattr(got, field), float(value), equal_nan=True)
    else:
        assert getattr(got, field) == want


# ---------------------------------------------------------------------------
# every other JSON document divseed reads: one field set to any JSON value


class _Loaded(Exception):
    """Raised in place of the work a command starts once its input loaded."""


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    """A valid document of each kind, as the program writes it, and the
    dataset directory its manifest came from."""
    root = tmp_path_factory.mktemp("docs")
    make_split(4, 2, 32, 1, "im", ExtractorSpec(seed=3), None, str(root / "data"))
    depth = ExtractorSpec(seed=3).depth
    loc = LocalizationModel.initialized(5, depth, 4, 2, class_id=0, pooling="global")
    save_loc_checkpoint(root / "loc" / "class_0", LocTrainResult(loc, [0.5], ["im_00000"]))
    head = SegmentationModel.initialized(6, 2 * depth, 4, 3, class_ids=(0, 1),
                                         global_dim=depth)
    save_seg_checkpoint(root / "seg", SegTrainResult(head, [0.5], 0.0), SegConfig())
    read = lambda *parts: json.loads(root.joinpath(*parts).read_text())
    return root, {
        "manifest": read("data", "manifest.json"),
        "loc": read("loc", "class_0", "meta.json"),
        "head": read("seg", "meta.json"),
        "config": {},
        "grid": {"base": {"n_train": 10}, "variants": [{}], "seeds": [1]},
    }


def _load_command(command, pipeline_call):
    """Loader of a config or grid at path: the command with its pipeline
    call replaced by _Loaded."""
    def load(path):
        with mock.patch.object(cli.pipeline, pipeline_call, side_effect=_Loaded):
            command(Namespace(config=str(path), grid=str(path), set=None, seeds=5,
                              out=str(path) + ".out"))
    return load


# kind: (file written under a fresh directory, loader of that file, error,
# what the message names besides the file)
_KINDS = {
    "manifest": ("manifest.json", lambda p: load_manifest(str(p)), DataError, ""),
    "entry": ("manifest.json", lambda p: load_manifest(str(p)), DataError, "images[0]"),
    "loc": ("ckpt/meta.json", lambda p: load_loc_checkpoint(p.parent), DataError, ""),
    "head": ("ckpt/meta.json", lambda p: load_seg_checkpoint(p.parent), DataError, ""),
    "config": ("config.json", _load_command(cli.cmd_run, "run_pipeline"), ConfigError, ""),
    "grid": ("grid.json", _load_command(cli.cmd_ablate, "ablation_run"), ConfigError, ""),
}

_FIELDS = (
    [("manifest", k) for k in ("version", "classes", "image_size", "grid_size",
                               "feature_depth", "extractor", "norm_stats", "images")]
    + [("entry", k) for k in ("id", "tags")]
    + [("loc", k) for k in ("kind", "in_dim", "hidden", "out_dim", "seed", "class_id",
                            "pooling")]
    + [("head", k) for k in ("kind", "in_dim", "hidden", "out_dim", "seed", "class_ids",
                             "global_dim")]
    + [("config", f) for f in PipelineConfig.__dataclass_fields__]
    + [("grid", k) for k in ("base", "variants", "seeds", "seedz")]
)


def _write(root, docs, kind, key, value) -> Path:
    """The kind's document with key set to value, written under root with
    what its loader reads beside it."""
    data, valid = docs
    name, *_ = _KINDS[kind]
    doc = copy.deepcopy(valid["manifest" if kind == "entry" else kind])
    if kind == "entry":
        doc["images"][0][key] = value
    else:
        doc[key] = value
    path = root / name
    path.parent.mkdir(exist_ok=True)
    if kind in ("loc", "head"):
        src = data / ("loc/class_0" if kind == "loc" else "seg") / "params.dstn"
        (path.parent / "params.dstn").write_bytes(src.read_bytes())
    path.write_text(json.dumps(doc))
    return path


# an integer too large for a float ended in an OverflowError traceback
@example(field=("config", "image_size"), value=10**400)
@example(field=("config", "tau"), value=10**400)
@settings(max_examples=400, derandomize=True, deadline=None)
@given(field=st.sampled_from(_FIELDS), value=_json_values)
def test_any_json_in_a_document_field_loads_or_is_its_error_naming_file_and_key(
        tmp_path_factory, docs, field, value):
    kind, key = field
    _, load, error, names = _KINDS[kind]
    path = _write(tmp_path_factory.mktemp(kind), docs, kind, key, value)
    try:
        load(path)
    except _Loaded:
        return
    except error as e:
        message = str(e)
        where = path.parent if kind in ("loc", "head") else path
        assert str(where) in message and key in message and names in message, message


@pytest.mark.parametrize("kind, key, value, code", [
    ("manifest", "feature_depth", "48", 3),
    ("entry", "tags", [0, True], 3),
    ("loc", "class_id", 0.5, 3),
    ("head", "class_ids", [0, "1"], 3),
    ("config", "k", "20", 2),
    ("grid", "seeds", [True], 2),
])
def test_a_mistyped_field_exits_with_the_code_of_its_kind(tmp_path, capsys, docs, kind, key,
                                                          value, code):
    path = _write(tmp_path, docs, kind, key, value)
    data = str(docs[0] / "data")
    argv = {
        "manifest": ["train-loc", "--class", "0", "--data", str(path)],
        "entry": ["train-loc", "--class", "0", "--data", str(path)],
        "loc": ["sample", "--loc-dir", str(tmp_path), "--features", data],
        "head": ["eval", "--model", str(path.parent), "--data", data],
        "config": ["run", "--config", str(path)],
        "grid": ["ablate", "--grid", str(path)],
    }[kind]
    assert main(argv + ["--out", str(tmp_path / "out")]) == code
    assert f"'{key}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_missing_key_is_formatted_in_one_module():
    """Every JSON document's fields are read through errors.check_fields."""
    src = Path(divseed.__file__).parent
    assert [p.name for p in sorted(src.glob("*.py")) if "missing key" in p.read_text()] == [
        "errors.py"]


# ---------------------------------------------------------------------------
# a run's files truncated or with one byte flipped, fed to the command that
# reads them


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("run")
    assert main(["run", "--out", str(root), "--set", "n_train=12", "--set", "n_test=4",
                 "--set", "n_classes=2", "--set", "image_size=32"]) == 0
    return root


# file: (what is copied, the file in the copy, the command reading the copy c
# of the run r, writing to o)
_RUN_FILES = {
    "loc params.dstn": ("loc", "class_0/params.dstn",
                        lambda r, c, o: ["sample", "--loc-dir", c, "--features",
                                         f"{r}/data/train", "--out", o]),
    "head params.dstn": ("seg.ckpt", "params.dstn",
                         lambda r, c, o: ["eval", "--model", c, "--data", f"{r}/data/test",
                                          "--out", o]),
    "features.dstn": ("data/train", "features.dstn",
                      lambda r, c, o: ["sample", "--loc-dir", f"{r}/loc", "--features", c,
                                       "--out", o]),
    "manifest.json": ("data/train", "manifest.json",
                      lambda r, c, o: ["sample", "--loc-dir", f"{r}/loc", "--features", c,
                                       "--out", o]),
    "points.jsonl": ("points.jsonl", "",
                     lambda r, c, o: ["train-seg", "--points", c, "--features",
                                      f"{r}/data/train", "--out", o]),
    "stats.dstn": ("data/train", "stats.dstn",
                   lambda r, c, o: ["sample", "--loc-dir", f"{r}/loc", "--features", c,
                                    "--out", o]),
    "masks.dstn": ("data/test", "masks.dstn",
                   lambda r, c, o: ["eval", "--model", f"{r}/seg.ckpt", "--data", c,
                                    "--out", o]),
    "images.dstn": ("data/train", "images.dstn",
                    lambda r, c, o: ["render", "--kind", "points", "--points",
                                     f"{r}/points.jsonl", "--data", c, "--image",
                                     "train_00000", "--out", o]),
    "loc meta.json": ("loc", "class_0/meta.json",
                      lambda r, c, o: ["sample", "--loc-dir", c, "--features",
                                       f"{r}/data/train", "--out", o]),
    "head meta.json": ("seg.ckpt", "meta.json",
                       lambda r, c, o: ["eval", "--model", c, "--data", f"{r}/data/test",
                                        "--out", o]),
    "config.json": ("config.json", "",
                    lambda r, c, o: ["sample", "--config", c, "--loc-dir", f"{r}/loc",
                                     "--features", f"{r}/data/train", "--out", o]),
}

# a cut or a flip: at a header offset or anywhere, taken modulo the length
_damage = st.tuples(st.sampled_from(["truncate", "flip"]),
                    st.integers(0, 40) | st.integers(0, 2**24), st.integers(1, 255))


def _damaged(data: bytes, damage) -> bytes:
    """data cut at, or with the byte at, the damage's offset xor-ed."""
    data = bytearray(data)
    kind, at, xor = damage
    if kind == "truncate":
        del data[at % (len(data) + 1):]
    else:
        data[at % len(data)] ^= xor
    return bytes(data)


@pytest.mark.parametrize("name", sorted(_RUN_FILES))
@settings(max_examples=12, derandomize=True, deadline=None)
@given(damage=_damage)
def test_a_damaged_run_file_exits_with_a_documented_code(tmp_path_factory, tiny_run, name,
                                                         damage):
    """main returns a code rather than raising: any other exception would
    end the command in a traceback."""
    copied, rel, argv = _RUN_FILES[name]
    work = tmp_path_factory.mktemp("damaged")
    copy_path = work / Path(copied).name
    if (tiny_run / copied).is_dir():
        shutil.copytree(tiny_run / copied, copy_path)
    else:
        shutil.copy(tiny_run / copied, copy_path)
    target = copy_path / rel if rel else copy_path
    target.write_bytes(_damaged(target.read_bytes(), damage))
    assert main(argv(tiny_run, str(copy_path), str(work / "out"))) in (0, 2, 3, 4, 5)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(damage=_damage)
def test_a_damaged_ablation_grid_exits_with_a_documented_code(tmp_path_factory, damage):
    """The committed grid, truncated or with one byte flipped, through
    `ablate` with the grid run stubbed as _load_command stubs it: a grid
    that still reads reaches the run, any other exits 2, the code of a
    refused grid, and never raises."""
    work = tmp_path_factory.mktemp("grid")
    grid = work / "grid.json"
    grid.write_bytes(_damaged(GRID_PATH.read_bytes(), damage))
    with mock.patch.object(cli.pipeline, "ablation_run", side_effect=_Loaded):
        try:
            code = main(["ablate", "--grid", str(grid), "--out", str(work / "out")])
        except _Loaded:
            return
    assert code == 2


# a DSTN file of the run with NaN or +inf as its first value: (what is copied,
# the file in the copy, the command reading the copy, the exit code, whether
# the message names the file)
_FIRST_VALUE_CASES = {
    "stats": ("data/train", "stats.dstn", _RUN_FILES["stats.dstn"][2], 4, True),
    "features": ("data/train", "features.dstn", _RUN_FILES["features.dstn"][2], 4, False),
    "masks": ("data/test", "masks.dstn", _RUN_FILES["masks.dstn"][2], 3, True),
    "images": ("data/train", "images.dstn", _RUN_FILES["images.dstn"][2], 4, False),
    "loc params": ("loc", "class_0/params.dstn", _RUN_FILES["loc params.dstn"][2], 4, True),
    "head params": ("seg.ckpt", "params.dstn", _RUN_FILES["head params.dstn"][2], 4, True),
}


def _first_value_exits_with_its_code(tmp_path, capsys, tiny_run, case, value):
    """The run file of case with value as its first value: the command that
    reads it exits with the case's code, names the file or says
    non-finite, and writes nothing."""
    from divseed.tensor import load_tensor, save_tensor

    copied, rel, argv, code, names_file = _FIRST_VALUE_CASES[case]
    copy_path = tmp_path / Path(copied).name
    shutil.copytree(tiny_run / copied, copy_path)
    target = copy_path / rel
    arr = load_tensor(target)
    arr.reshape(-1)[0] = value
    save_tensor(arr, target)
    assert main(argv(tiny_run, str(copy_path), str(tmp_path / "out"))) == code
    err = capsys.readouterr().err
    assert str(target) in err if names_file else "non-finite" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("case", sorted(_FIRST_VALUE_CASES))
def test_a_non_finite_value_in_a_run_tensor_exits_with_its_code(tmp_path, capsys, tiny_run,
                                                                case, value):
    """Random flips almost never write these values. Each is refused before
    any arithmetic reads it, so no RuntimeWarning is raised (an error under
    this suite's settings)."""
    _first_value_exits_with_its_code(tmp_path, capsys, tiny_run, case, value)


def test_a_fractional_mask_label_is_a_data_error_naming_the_file(tmp_path, capsys, tiny_run):
    """A label of 1.5 lies in the label range, and casting it to an integer
    would read it as class 1: it is refused as the NaN above is."""
    _first_value_exits_with_its_code(tmp_path, capsys, tiny_run, "masks", 1.5)
