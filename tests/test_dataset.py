import json

import numpy as np
import pytest

from divseed.dataset import load_manifest, make_split
from divseed.errors import DataError
from divseed.synthdata import ExtractorSpec
from divseed.tensor import NormState, load_tensor


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    scenes, _, _ = make_split(6, 3, 32, 5, "tr", ExtractorSpec(seed=2), out_dir=str(out))
    return out, scenes


def test_manifest_round_trip(dataset_dir):
    out, scenes = dataset_dir
    m = load_manifest(str(out))
    assert m.classes == [0, 1, 2]
    assert m.image_size == (32, 32)
    assert m.grid_size == (8, 8)
    assert m.feature_depth == 48
    assert [e.image_id for e in m.entries] == [s.tags.image_id for s in scenes]
    for e, s in zip(m.entries, scenes):
        assert e.tags == s.tags.present
        assert np.array_equal(m.load_mask(e), s.mask)
        img = load_tensor(m.path(e.image_path))
        assert np.array_equal(img, s.image)


def test_records_are_unit_normalized(dataset_dir):
    out, _ = dataset_dir
    m = load_manifest(str(out))
    records = m.load_records()
    assert all(r.features.norm_state is NormState.UNIT for r in records)
    norms = np.linalg.norm(records[0].features.grid.locations(), axis=1)
    assert np.all((np.abs(norms - 1) < 1e-5) | (norms == 0))


def test_grid_truth_matches_majority_downsample(dataset_dir):
    out, scenes = dataset_dir
    m = load_manifest(str(out))
    truth = m.load_grid_truth(m.entries[0])
    assert truth.shape == (8, 8)
    assert truth.max() <= 3  # 3 classes + background label 3


def test_stats_reuse_copies_file(tmp_path, dataset_dir):
    """A split made with a training set's stats, as read back from its
    stats.dstn, writes them byte for byte."""
    out, _ = dataset_dir
    base = load_manifest(str(out))
    make_split(3, 3, 32, 9, "te", ExtractorSpec(seed=base.extractor_seed),
               base.load_stats(), str(tmp_path / "test"))
    a = (out / "stats.dstn").read_bytes()
    b = (tmp_path / "test" / "stats.dstn").read_bytes()
    assert a == b


def test_missing_manifest_raises(tmp_path):
    with pytest.raises(DataError):
        load_manifest(str(tmp_path / "nope"))


def test_manifest_is_sorted_json(dataset_dir):
    out, _ = dataset_dir
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["version"] == 1
    assert set(doc) >= {"classes", "image_size", "grid_size", "images", "norm_stats"}
