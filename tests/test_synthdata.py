import numpy as np
import pytest

from divseed.errors import ConfigError, DataError
from divseed.synthdata import (
    GRID_FACTOR,
    MAX_CLASS_COVER,
    MIN_CLASS_COVER,
    ExtractorSpec,
    SyntheticScene,
    downsample_mask,
    expected_class_frequency,
    extract_features,
    generate_dataset,
    nearest_indices,
)
from divseed.localization import TagSet


def test_generation_deterministic():
    a = generate_dataset(5, 3, 32, 32, seed=7)
    b = generate_dataset(5, 3, 32, 32, seed=7)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.image, sb.image)
        assert np.array_equal(sa.mask, sb.mask)
        assert sa.tags == sb.tags


def test_tags_match_mask_exactly():
    for scene in generate_dataset(30, 4, 32, 32, seed=3):
        in_mask = {int(c) for c in np.unique(scene.mask) if c < scene.n_classes}
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
        n_classes=2,
        seed=0,
    )


def test_constant_image_gives_constant_features():
    feats = extract_features(constant_scene(), ExtractorSpec(seed=5))
    flat = feats.grid.locations()
    assert np.allclose(flat, flat[0])


def test_extraction_deterministic_and_depth():
    scene = generate_dataset(1, 2, 32, 32, seed=9)[0]
    spec = ExtractorSpec(seed=17)
    a = extract_features(scene, spec)
    b = extract_features(scene, spec)
    assert np.array_equal(a.grid.values, b.grid.values)
    assert a.grid.depth == spec.depth == 48
    assert (a.grid.height, a.grid.width) == (8, 8)


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
    scene2 = SyntheticScene(
        image=image2, mask=scene.mask, tags=scene.tags,
        n_classes=scene.n_classes, seed=scene.seed,
    )
    other = extract_features(scene2, spec)

    diff = np.any(base.grid.values != other.grid.values, axis=2)
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
    bad = SyntheticScene(
        image=scene.image[:30], mask=scene.mask[:30], tags=scene.tags,
        n_classes=2, seed=0,
    )
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
