import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from divseed.dataset import load_manifest, make_split
from divseed.errors import ConfigError, DataError
from divseed.synthdata import (
    GRID_FACTOR,
    MAX_CLASS_COVER,
    MAX_SHAPES,
    MIN_CLASS_COVER,
    ExtractorSpec,
    SyntheticScene,
    _avg_pool,
    downsample_mask,
    extract_features,
    generate_dataset,
    nearest_indices,
)
from divseed.localization import TagSet
from divseed.pipeline import PipelineConfig, make_benchmark
from divseed.rng import derive_seed
from divseed.tensor import normalize_features
from reference_synthdata import reference_extract_features


def test_generation_deterministic():
    a = generate_dataset(5, 3, 32, 32, seed=7)
    b = generate_dataset(5, 3, 32, 32, seed=7)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.image, sb.image)
        assert np.array_equal(sa.mask, sb.mask)
        assert sa.tags == sb.tags


def test_tags_match_mask_exactly():
    for scene in generate_dataset(30, 4, 32, 32, seed=3):
        in_mask = {int(c) for c in np.unique(scene.mask) if c < 4}
        assert scene.tags.present == in_mask


def test_coverage_invariant():
    scenes = generate_dataset(50, 4, 64, 64, seed=11)
    for scene in scenes:
        total = scene.mask.size
        for c in scene.tags.present:
            count = int((scene.mask == c).sum())
            assert MIN_CLASS_COVER * total <= count <= MAX_CLASS_COVER * total


def test_image_values_in_unit_range():
    for scene in generate_dataset(10, 2, 32, 32, seed=5):
        assert scene.image.min() >= 0.0 and scene.image.max() <= 1.0


def expected_class_frequency(n_classes: int, max_shapes: int = MAX_SHAPES) -> float:
    """P(a given class appears in a scene), ignoring the coverage retry."""
    miss = 1.0 - 1.0 / n_classes
    return 1.0 - sum(miss ** n for n in range(max_shapes + 1)) / (max_shapes + 1)


def test_class_frequency_near_prior():
    n, n_classes = 500, 4
    scenes = generate_dataset(n, n_classes, 32, 32, seed=13)
    prior = expected_class_frequency(n_classes)
    for c in range(n_classes):
        freq = sum(c in s.tags.present for s in scenes) / n
        assert abs(freq - prior) <= 0.2 * prior


def test_generate_dataset_validation():
    with pytest.raises(ConfigError):
        generate_dataset(0, 2, 32, 32, seed=1)
    with pytest.raises(ConfigError):
        generate_dataset(1, 9, 32, 32, seed=1)
    with pytest.raises(ConfigError):
        generate_dataset(1, 2, 30, 30, seed=1)  # not divisible by 4
    with pytest.raises(ConfigError, match="by 16"):
        generate_dataset(1, 2, 36, 36, seed=1)  # not divisible by scale 16
    with pytest.raises(ConfigError):
        generate_dataset(1, 2, 4, 4, seed=1)  # too small for shapes
    with pytest.raises(ConfigError):
        generate_dataset(1, 2, 0, 0, seed=1)  # divides by anything


# ---------------------------------------------------------------------------
# feature extraction


def constant_scene(value=(0.3, 0.5, 0.7), h=32, w=32):
    image = np.tile(np.array(value, dtype=np.float32), (h, w, 1))
    mask = np.full((h, w), 2, dtype=np.int64)
    return SyntheticScene(
        image=image,
        mask=mask,
        tags=TagSet(image_id="const", present=frozenset()),
    )


def test_constant_image_gives_constant_features():
    feats = extract_features(constant_scene(), ExtractorSpec(seed=5))
    flat = feats.locations()
    assert np.allclose(flat, flat[0])


def test_extraction_deterministic_and_depth():
    scene = generate_dataset(1, 2, 32, 32, seed=9)[0]
    spec = ExtractorSpec(seed=17)
    a = extract_features(scene, spec)
    b = extract_features(scene, spec)
    assert np.array_equal(a.values, b.values)
    assert a.depth == spec.depth == 48
    assert (a.height, a.width) == (8, 8)


def test_projections_are_drawn_once_per_spec():
    """One read-only (P, b) per scale, built on first use; a used spec and
    a fresh equal one extract the same bits."""
    scenes = generate_dataset(2, 2, 32, 32, seed=9)
    spec = ExtractorSpec(seed=17)
    first = [extract_features(s, spec).values for s in scenes]
    projections = spec.projections
    assert spec.projections is projections
    assert sorted(projections) == list(spec.scales)
    for p, b in projections.values():
        assert p.shape == (spec.dims_per_scale, 3) and b.shape == (spec.dims_per_scale,)
        assert not (p.flags.writeable or b.flags.writeable)
    fresh = [extract_features(s, ExtractorSpec(seed=17)).values for s in scenes]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first, fresh))


def test_feature_change_footprint():
    """Recoloring pixels inside one region only moves features whose pooled
    source cells intersect that region."""
    scene = generate_dataset(1, 3, 32, 32, seed=21)[0]
    spec = ExtractorSpec(seed=4)
    base = extract_features(scene, spec)

    changed = np.zeros(scene.mask.shape, dtype=bool)
    changed[10:14, 20:26] = True
    image2 = scene.image.copy()
    image2[changed] = np.float32(1.0) - image2[changed]
    scene2 = SyntheticScene(image=image2, mask=scene.mask, tags=scene.tags)
    other = extract_features(scene2, spec)

    diff = np.any(base.values != other.values, axis=2)
    h, w = scene.mask.shape
    gh, gw = h // GRID_FACTOR, w // GRID_FACTOR
    allowed = np.zeros((gh, gw), dtype=bool)
    for s in spec.scales:
        pooled_changed = changed.reshape(h // s, s, w // s, s).any(axis=(1, 3))
        rows = nearest_indices(h // s, gh)
        cols = nearest_indices(w // s, gw)
        allowed |= pooled_changed[rows][:, cols]
    assert not np.any(diff & ~allowed)
    assert np.any(diff)  # the change is actually visible


def test_extract_features_requires_divisible_dims():
    scene = constant_scene(h=32, w=32)
    bad = SyntheticScene(image=scene.image[:30], mask=scene.mask[:30], tags=scene.tags)
    with pytest.raises(DataError):
        extract_features(bad, ExtractorSpec(seed=1))


# ---------------------------------------------------------------------------
# mask downsampling


def test_downsample_majority_vote():
    mask = np.zeros((4, 4), dtype=np.int64)
    mask[:2, :2] = 1  # 4 of 16 pixels -> minority
    mask[2:, :] = 2  # bottom half
    mask[:2, 2:] = 2
    out = downsample_mask(mask, n_labels=3, factor=4)
    assert out.shape == (1, 1)
    assert out[0, 0] == 2


def test_downsample_tie_goes_to_lowest_label():
    mask = np.array([[0, 1], [1, 0]], dtype=np.int64)
    out = downsample_mask(mask, n_labels=2, factor=2)
    assert out[0, 0] == 0


def test_downsample_shape_check():
    with pytest.raises(DataError):
        downsample_mask(np.zeros((5, 8), dtype=np.int64), n_labels=2, factor=4)


def _per_label_downsample(mask, n_labels, factor):
    """downsample_mask as first written: one block count per label."""
    h, w = mask.shape
    blocks = mask.reshape(h // factor, factor, w // factor, factor)
    counts = np.stack([(blocks == lab).sum(axis=(1, 3)) for lab in range(n_labels)], axis=2)
    return counts.argmax(axis=2)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 9),
    st.integers(2, 9),
    st.sampled_from([1, 2, 4]),
    st.integers(1, 16),
    st.integers(1, 16),
)
def test_downsample_equals_the_per_label_count(seed, n_labels, n_used, factor, gh, gw):
    """The same labels, ties to the lowest included: with 2 used labels and
    2 x 2 cells, about a third of the cells tie."""
    rng = np.random.default_rng(seed)
    used = rng.choice(n_labels, size=min(n_used, n_labels), replace=False)
    mask = rng.choice(used, size=(gh * factor, gw * factor)).astype(np.int64)
    got = downsample_mask(mask, n_labels, factor)
    assert got.dtype == np.int64
    assert np.array_equal(got, _per_label_downsample(mask, n_labels, factor))


# ---------------------------------------------------------------------------
# generated bits, pinned: a rewrite of generation, extraction or the stats
# must leave every image, mask, feature and stat exactly as it was


def _sha(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def _split_digests(n_classes, seed, name, out_dir):
    """Images and masks as written to out_dir, masks as the int64 labels
    they were generated as; the rest as make_split returns them."""
    spec = ExtractorSpec(seed=derive_seed(seed, 1))
    tags, features, _, stats = make_split(16, n_classes, 64, seed, name, spec, out_dir=out_dir)
    written = load_manifest(out_dir)
    return {
        "images": _sha(written.images),
        "masks": _sha(written.masks.astype(np.int64)),
        "tags": "|".join("".join(map(str, sorted(t.present))) for t in tags),
        "features": _sha(np.stack([f.values for f in features])),
        "stats": _sha(np.stack([stats.mean, stats.std])),
    }


# digests of the bits the generator, the extractor (see
# tests/reference_synthdata.py) and the stats gave before they were optimized
PINNED_SPLITS = {
    (4, 2024, "train"): {
        "images": "19b7ad326cf900d8d9b4911198ad8ade53a6b7b9c75fb467f0a577faf0176dc1",
        "masks": "7307a29f77eaacee24507e6b0a9e3225e7a85157d6668b1769099466524df1be",
        "tags": "012|0|02||3|01|3|013|01||013|01|||03|2",
        "features": "7bc7ec3db7d6fc5d258c7e959704e32bdcc84a4afbbacc6bbd26e99563619390",
        "stats": "a15253bc91d9188e69a639a1628c95a428ce667808a9c18e3a72c4cea38cda2d",
    },
    # the shape of the added-class split: one class more
    (5, 77, "new"): {
        "images": "ad556dc42cfbbd61b080884281d76eaf5d11a4a5b65b1ba1f82e59690a5918d8",
        "masks": "8f7e2dc94f0b8677ef05cc5dddbcd1831857f5b7c7d67f9ce0b5c93b00f2b624",
        "tags": "03|02|2||12|03|13|1|134|4|4|12|24|012|1|02",
        "features": "e5f1b2bfbd584ae989ec5eb0294535dd9ba5b4a8d69aa9008b52d2b91d7f635d",
        "stats": "ea4a20f6c4fd4009eab0a725c43d6e44e2196c5e41e2b19e57b97f6b18dbd1a3",
    },
}


@pytest.mark.parametrize("n_classes,seed,name", sorted(PINNED_SPLITS))
def test_make_split_bits_are_pinned(tmp_path, n_classes, seed, name):
    assert _split_digests(n_classes, seed, name, str(tmp_path)) == PINNED_SPLITS[
        n_classes, seed, name]


def test_benchmark_bits_are_pinned():
    config = PipelineConfig(seed=5, n_train=12, n_test=6, n_classes=3, image_size=32)
    bench = make_benchmark(config)
    got = {
        "train": _sha(np.stack([r.features.values for r in bench.train_records])),
        "test": _sha(np.stack([e.features.values for e in bench.test_images])),
        "truth": _sha(np.stack([e.truth for e in bench.test_images])),
        "stats": _sha(np.stack([bench.norm_stats.mean, bench.norm_stats.std])),
    }
    assert got == {
        "train": "8dad7bbeae48ce7cf9fc161556ac34bc35a9920f4d26054f975bf02d29716516",
        "test": "a4b6b268394b1ca915c8503185758717b26db505d2f8021d5764c1202acd5ec5",
        "truth": "a91ae4a424a1c30e7b1596e1db2cb7af7095b6ad18ac72ce67fb59ae5fc1a455",
        "stats": "88301a0ecdd5221eafbec6e40c71ef104fac60f17890a16b483749a0d774182e",
    }


def _image_with_edge_values(seed, size, p_zero, p_one, p_tiny):
    rng = np.random.default_rng(seed)
    image = rng.random((size, size, 3), dtype=np.float32)
    pick = rng.random(image.shape)
    tiny = rng.uniform(0.0, 1e-7, image.shape).astype(np.float32)
    tiny[rng.random(image.shape) < 0.1] = np.float32(1e-40)  # subnormal
    image[pick < p_tiny] = tiny[pick < p_tiny]
    image[(pick >= p_tiny) & (pick < p_tiny + p_zero)] = 0.0
    image[(pick >= p_tiny + p_zero) & (pick < p_tiny + p_zero + p_one)] = 1.0
    return image


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**64 - 1),
    st.sampled_from([16, 32, 64]),
    st.floats(0.0, 0.3),
    st.floats(0.0, 0.3),
    st.floats(0.0, 0.3),
)
def test_extractor_equals_the_reference_bit_for_bit(seed, spec_seed, size, p_zero, p_one,
                                                    p_tiny):
    """Projecting only the grid's sampled cells of each pooled image gives
    the bits of projecting every pooled cell (4,096 pixels at scale 1),
    including at exact 0s, 1s and near-zero inputs."""
    image = _image_with_edge_values(seed, size, p_zero, p_one, p_tiny)
    scene = SyntheticScene(
        image=image, mask=np.zeros((size, size), dtype=np.int64),
        tags=TagSet(image_id="x", present=frozenset()),
    )
    spec = ExtractorSpec(seed=spec_seed)
    got = extract_features(scene, spec).values
    want = reference_extract_features(scene, spec).values
    assert got.tobytes() == want.tobytes()


def _mean_pool(image, s):
    """_avg_pool as first written: numpy's mean over each s x s block."""
    h, w, c = image.shape
    return image.reshape(h // s, s, w // s, s, c).mean(axis=(1, 3))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([16, 32, 48, 64, 128]),
    st.sampled_from([16, 32, 64]),
    st.sampled_from([2, 4, 8, 16]),
    st.booleans(),
)
def test_avg_pool_equals_the_mean_bit_for_bit(seed, h, w, scale, wide):
    """The accumulate adds each block's terms in the mean's order, also for
    signed values whose magnitudes span 1e-8..1e8, where another order
    rounds differently."""
    rng = np.random.default_rng(seed)
    image = rng.random((h, w, 3))
    if wide:
        image *= rng.choice([-1.0, 1.0], image.shape) * 10.0 ** rng.integers(-8, 9, image.shape)
    assert _avg_pool(image, scale).tobytes() == _mean_pool(image, scale).tobytes()


def test_raw_and_unit_grids_are_c_contiguous():
    """Feature grids are stored location-major, so FeatureGrid.locations()
    and the normalization's reshape are views, not copies."""
    _, features, _, stats = make_split(3, 2, 32, 1, "c", ExtractorSpec(seed=2))
    for raw in features:
        unit = normalize_features(raw, stats)
        for grid in (raw, unit):
            assert grid.values.flags.c_contiguous
            assert np.shares_memory(grid.locations(), grid.values)
