import hashlib
import json
import os
import shutil

import numpy as np
import pytest

from divseed import dataset
from divseed.dataset import load_manifest, make_split
from divseed.errors import DataError
from divseed.synthdata import ExtractorSpec, downsample_mask, extract_features, generate_dataset
from divseed.tensor import NormState, load_tensor, save_tensor
from test_tensor import _traced_peak


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    """A written 6-image split, its scenes (generated again: make_split
    keeps none) and make_split's tags, raw features, truth and stats."""
    out = tmp_path_factory.mktemp("data")
    made = make_split(6, 3, 32, 5, "tr", ExtractorSpec(seed=2), out_dir=str(out))
    return out, generate_dataset(6, 3, 32, 32, seed=5, id_prefix="tr"), made


def test_manifest_round_trip(dataset_dir):
    """Row i of each stacked tensor holds entry i's image, mask and raw
    extracted features, bit for bit."""
    out, scenes, _ = dataset_dir
    m = load_manifest(str(out))
    assert m.classes == [0, 1, 2]
    assert m.image_size == (32, 32)
    assert m.grid_size == (8, 8)
    assert m.feature_depth == 48
    assert sorted(os.listdir(out)) == [
        "features.dstn", "images.dstn", "manifest.json", "masks.dstn", "stats.dstn",
    ]
    assert [e.image_id for e in m.entries] == [s.tags.image_id for s in scenes]
    spec = ExtractorSpec(seed=m.extractor_seed)
    for row, (e, s) in enumerate(zip(m.entries, scenes)):
        assert e.row == row
        assert e.tags == s.tags.present
        assert m.images[e.row].tobytes() == s.image.tobytes()
        assert m.masks[e.row].tobytes() == s.mask.astype(np.float32).tobytes()
        expected = extract_features(s, spec).grid.values
        assert m.load_raw_features(e).grid.values.tobytes() == expected.tobytes()


def test_make_split_returns_raw_features(dataset_dir):
    """Normalizing is left to the callers that need unit features; the
    truth is each mask downsampled to the feature grid."""
    out, scenes, (tags, features, truth, _) = dataset_dir
    m = load_manifest(str(out))
    assert tags == [s.tags for s in scenes]
    assert all(f.norm_state is NormState.RAW for f in features)
    for e, f, t, s in zip(m.entries, features, truth, scenes):
        assert np.array_equal(m.load_raw_features(e).grid.values, f.grid.values)
        assert t.tobytes() == downsample_mask(s.mask, 4).tobytes()
        assert np.array_equal(m.load_grid_truth(e), t)


def test_records_are_unit_normalized(dataset_dir):
    out, _, _ = dataset_dir
    m = load_manifest(str(out))
    records = m.load_records()
    assert all(r.features.norm_state is NormState.UNIT for r in records)
    norms = np.linalg.norm(records[0].features.grid.locations(), axis=1)
    assert np.all((np.abs(norms - 1) < 1e-5) | (norms == 0))


def test_grid_truth_matches_majority_downsample(dataset_dir):
    out, _, _ = dataset_dir
    m = load_manifest(str(out))
    truth = m.load_grid_truth(m.entries[0])
    assert truth.shape == (8, 8)
    assert truth.max() <= 3  # 3 classes + background label 3


def test_stats_reuse_copies_file(tmp_path, dataset_dir):
    """A split made with a training set's stats, as read back from its
    stats.dstn, writes them byte for byte."""
    out, _, _ = dataset_dir
    base = load_manifest(str(out))
    make_split(3, 3, 32, 9, "te", ExtractorSpec(seed=base.extractor_seed),
               base.load_stats(), str(tmp_path / "test"))
    a = (out / "stats.dstn").read_bytes()
    b = (tmp_path / "test" / "stats.dstn").read_bytes()
    assert a == b


@pytest.mark.parametrize("written", [False, True], ids=["in-memory", "written"])
def test_make_split_keeps_no_images(tmp_path, written):
    """Scenes are made, extracted and written one at a time: the peak stays
    below the split's raw features plus 16 scenes' float32 images and int64
    masks. Rendering one scene takes about 9 of those in temporaries; the
    images and masks of all 40 scenes held at once would exceed the bound."""
    n, size, spec = 40, 64, ExtractorSpec(seed=2)
    out = str(tmp_path) if written else None
    make_split(1, 3, size, 6, "w", spec)  # cached grids and projections first
    (_, features, _, _), peak = _traced_peak(make_split, n, 3, size, 5, "tr", spec, None, out)
    features_bytes = sum(f.grid.values.nbytes for f in features)
    assert peak < features_bytes + 16 * size * size * (3 * 4 + 8)
    if written:
        masks = load_manifest(str(tmp_path)).masks
        scenes = generate_dataset(n, 3, size, size, seed=5, id_prefix="tr")
        assert masks.tobytes() == np.stack([s.mask for s in scenes]).astype(np.float32).tobytes()


#: sha256 of the files of make_split(12, 3, 32, 5, "tr", ExtractorSpec(seed=2)),
#: as written when each split was stacked in memory before it was written
PINNED_FILES = {
    "features.dstn": "4ae7eee924c181b65cb0420d78575140c455e042eeb5b56d36cd35463aad7789",
    "images.dstn": "2dda217567113e9090553484fa0b4c96f6b4bde2a520a528f968542a02a7a09c",
    "manifest.json": "250c8bcc7f6a441554fdd04ff1d694370dc7da22d6270e008a31005b8508bf56",
    "masks.dstn": "5e923e253e2d26a64c16ba6f37b038ee236285c175cc181291f098186e76b562",
    "stats.dstn": "6d1c771dd211ac322a8dc7995f2814b00982a75b1f02955702075e7aa146630f",
}


def _file_digests(root):
    return {name: hashlib.sha256((root / name).read_bytes()).hexdigest()
            for name in sorted(os.listdir(root))}


def test_written_split_bytes_are_pinned(tmp_path):
    make_split(12, 3, 32, 5, "tr", ExtractorSpec(seed=2), out_dir=str(tmp_path))
    assert _file_digests(tmp_path) == PINNED_FILES


@pytest.mark.parametrize("fails", ["first-scene", "eighth-scene", "stats", "manifest",
                                   "stats-file"])
def test_a_split_failing_partway_leaves_the_earlier_split(tmp_path, monkeypatch, fails):
    """An exception while a scene is made, after the last row while the
    stats are computed, or while manifest.json or stats.dstn is written,
    leaves the split already in out_dir byte for byte as it was, with no
    temporary file beside it."""
    make_split(12, 3, 32, 5, "tr", ExtractorSpec(seed=2), out_dir=str(tmp_path))
    made = []

    def extract(scene, spec):
        made.append(scene)
        if len(made) == {"first-scene": 1, "eighth-scene": 8}.get(fails):
            raise RuntimeError("crashed")
        return extract_features(scene, spec)

    def crash(*args):
        raise RuntimeError("crashed")

    def half_json(doc, fh, path):
        fh.write('{"classes": ')
        raise RuntimeError("crashed")

    monkeypatch.setattr(dataset, "extract_features", extract)
    hooks = {"stats": ("compute_norm_stats", crash), "manifest": ("write_json", half_json),
             "stats-file": ("save_tensor", crash)}
    if fails in hooks:
        monkeypatch.setattr(dataset, *hooks[fails])
    with pytest.raises(RuntimeError, match="crashed"):
        make_split(12, 4, 32, 9, "other", ExtractorSpec(seed=3), out_dir=str(tmp_path))
    assert _file_digests(tmp_path) == PINNED_FILES


@pytest.mark.parametrize("label", [-1.0, 4.0])
def test_mask_label_outside_the_classes_is_data_error(tmp_path, dataset_dir, label):
    """A masks.dstn label below 0 or above the background label (3 here)
    names the file instead of miscounting a cell's truth."""
    out, _, _ = dataset_dir
    shutil.copytree(out, tmp_path / "split")
    masks = load_tensor(tmp_path / "split" / "masks.dstn")
    masks[2, 5, 7] = label
    save_tensor(masks, tmp_path / "split" / "masks.dstn")
    m = load_manifest(str(tmp_path / "split"))
    with pytest.raises(DataError, match=r"masks\.dstn: labels outside 0\.\.3"):
        m.load_grid_truth(m.entries[0])


def test_missing_manifest_raises(tmp_path):
    with pytest.raises(DataError):
        load_manifest(str(tmp_path / "nope"))


def test_manifest_is_sorted_json(dataset_dir):
    out, _, _ = dataset_dir
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["version"] == 2
    assert set(doc) >= {"classes", "image_size", "grid_size", "images", "norm_stats"}
    assert all(set(e) == {"id", "tags"} for e in doc["images"])
