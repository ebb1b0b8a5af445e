import json
import os

import numpy as np
import pytest

from divseed.dataset import load_manifest, make_split, write_dataset
from divseed.errors import DataError
from divseed.synthdata import ExtractorSpec, extract_features
from divseed.tensor import NormState
from test_tensor import _traced_peak


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    scenes, features, _ = make_split(6, 3, 32, 5, "tr", ExtractorSpec(seed=2), out_dir=str(out))
    return out, scenes, features


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
        assert m.load_image(e).tobytes() == s.image.tobytes()
        assert np.array_equal(m.load_mask(e), s.mask)
        expected = extract_features(s, spec).grid.values
        assert m.load_raw_features(e).grid.values.tobytes() == expected.tobytes()


def test_make_split_returns_raw_features(dataset_dir):
    """Normalizing is left to the callers that need unit features."""
    out, _, features = dataset_dir
    m = load_manifest(str(out))
    assert all(f.norm_state is NormState.RAW for f in features)
    for e, f in zip(m.entries, features):
        assert np.array_equal(m.load_raw_features(e).grid.values, f.grid.values)


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


def test_write_dataset_stacks_nothing(tmp_path):
    """Each tensor is written part by part: the peak stays below the
    smallest stacked tensor, the (N, H, W) float32 masks."""
    spec = ExtractorSpec(seed=2)
    scenes, features, stats = make_split(40, 3, 32, 5, "tr", spec)
    masks_bytes = 40 * 32 * 32 * 4
    _, peak = _traced_peak(write_dataset, str(tmp_path), scenes, spec, stats, features)
    assert peak < masks_bytes / 2
    masks = load_manifest(str(tmp_path)).masks
    assert masks.tobytes() == np.stack([s.mask for s in scenes]).astype(np.float32).tobytes()


def test_missing_manifest_raises(tmp_path):
    with pytest.raises(DataError):
        load_manifest(str(tmp_path / "nope"))


def test_manifest_is_sorted_json(dataset_dir):
    out, _, _ = dataset_dir
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["version"] == 2
    assert set(doc) >= {"classes", "image_size", "grid_size", "images", "norm_stats"}
    assert all(set(e) == {"id", "tags"} for e in doc["images"])
