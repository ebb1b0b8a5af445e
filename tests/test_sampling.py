import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from divseed.errors import DataError
from divseed.localization import ScoreMap, TagSet
from divseed.rng import Rng
from divseed.sampling import (
    BACKGROUND,
    FLAG_RANDOM_BG,
    STRATEGIES,
    PairScores,
    PointSet,
    SampledPoint,
    SamplingConfig,
    SupervisionRecord,
    build_supervision_set,
    dense_pseudo_labels,
    pair_scores,
    load_points,
    sample_diverse_bg,
    sample_diverse_fg,
    sample_spatial,
    sample_top_k,
    save_points,
)
from divseed.tensor import FeatureGrid, Grid, NormState

from reference_samplers import (
    naive_diverse_bg,
    naive_diverse_fg,
    naive_spatial,
    naive_top_k,
)


def scoremap(values, class_id=0, image_id="img"):
    fg = np.asarray(values, dtype=np.float32)
    return ScoreMap(class_id=class_id, image_id=image_id, fg=fg, bg=np.zeros_like(fg))


def unit_features(vectors, shape=None):
    """Rows are per-location feature vectors, assumed already unit/zero."""
    arr = np.asarray(vectors, dtype=np.float32)
    n, d = arr.shape
    if shape is None:
        shape = (1, n)
    grid = Grid(arr.reshape(shape[0], shape[1], d))
    return FeatureGrid(grid=grid, norm_state=NormState.UNIT)


def random_instance(seed, n_max=64, d_max=8, unit=True):
    rng = Rng(seed)
    n = 2 + rng.randint(n_max - 1)
    d = 1 + rng.randint(d_max)
    scores = rng.uniform_array(n, 0.0, 2.0)
    feats = rng.uniform_array(n * d, -1.0, 1.0).reshape(n, d)
    if unit:
        norms = np.linalg.norm(feats, axis=1, keepdims=True)
        feats = feats / np.maximum(norms, 1e-12)
    return scores.astype(np.float32), feats.astype(np.float32), n, d


# ---------------------------------------------------------------------------
# hand traces


def test_diverse_fg_hand_trace_duplicate_feature():
    sm = scoremap([[1.0, 0.9, 0.5]])
    f = unit_features([[1, 0], [1, 0], [0, 1]])
    picks = sample_diverse_fg(sm, f, k=2)
    assert [p.loc for p in picks] == [0, 2]
    assert picks[0].value == pytest.approx(1.0, abs=1e-6)
    assert picks[1].value == pytest.approx(0.5, abs=1e-6)


def test_diverse_fg_hand_trace_three_picks():
    sm = scoremap([[1.0, 0.9, 0.5]])
    f = unit_features([[1, 0], [0.8, 0.6], [0, 1]])
    picks = sample_diverse_fg(sm, f, k=3)
    assert [p.loc for p in picks] == [0, 2, 1]
    values = [p.value for p in picks]
    assert values[0] == pytest.approx(1.0, abs=1e-6)
    assert values[1] == pytest.approx(0.5, abs=1e-6)
    # step 3 objective: 0.9 * (1 - max(0.8, 0.6))
    assert values[2] == pytest.approx(0.18, abs=1e-6)
    assert [p.rank for p in picks] == [1, 2, 3]


def test_diverse_bg_hand_trace():
    fg = [SampledPoint("img", 0, 0, 1, 1.0)]
    f = unit_features([[1, 0], [0, 1], [math.sqrt(0.5), math.sqrt(0.5)]])
    picks = sample_diverse_bg(fg, f, k=2)
    assert [p.loc for p in picks] == [1, 2]
    assert picks[0].value == pytest.approx(0.0, abs=1e-6)
    assert picks[1].value == pytest.approx(math.sqrt(0.5), abs=1e-6)
    assert all(p.label == BACKGROUND for p in picks)


def test_diverse_fg_k1_is_argmax():
    sm = scoremap([[0.2, 0.8, 0.3]])
    f = unit_features(np.eye(3))
    picks = sample_diverse_fg(sm, f, k=1)
    assert [p.loc for p in picks] == [1]


def test_diverse_bg_single_pick_minimizes_similarity():
    fg = [SampledPoint("img", 0, 0, 1, 1.0)]
    f = unit_features([[1, 0], [math.sqrt(0.5), math.sqrt(0.5)], [0, 1]])
    picks = sample_diverse_bg(fg, f, k=1)
    assert [p.loc for p in picks] == [2]


def test_diverse_bg_fallback_random_flagged():
    f = unit_features(np.eye(4))
    picks = sample_diverse_bg([], f, k=2, rng=Rng(1))
    assert len(picks) == 2
    assert all(FLAG_RANDOM_BG in p.flags for p in picks)
    assert len({p.loc for p in picks}) == 2
    with pytest.raises(DataError):
        sample_diverse_bg([], f, k=2)  # fallback needs an rng


# ---------------------------------------------------------------------------
# top-k and spatial


def test_top_k_basic():
    picks = sample_top_k(scoremap([[3.0, 1.0, 2.0]]), k=2)
    assert [p.loc for p in picks] == [0, 2]


def test_top_k_tie_rule_and_full():
    picks = sample_top_k(scoremap([[1.0, 1.0, 1.0]]), k=2)
    assert [p.loc for p in picks] == [0, 1]
    assert len(sample_top_k(scoremap([[1.0, 1.0, 1.0]]), k=3)) == 3
    with pytest.raises(DataError):
        sample_top_k(scoremap([[1.0, 1.0]]), k=3)


def test_default_spatial_scale_is_diagonal_over_eight():
    from divseed.sampling import default_spatial_scale

    assert default_spatial_scale((3, 4)) == pytest.approx(5.0 / 8.0)


def test_spatial_first_pick_is_argmax():
    sm = scoremap([[0.1, 0.9], [0.3, 0.2]])
    picks = sample_spatial(sm, k=1)
    assert [p.loc for p in picks] == [1]


def test_spatial_prefers_far_point():
    # equal scores at a neighbor of the first pick and far away
    scores = np.zeros((1, 8), dtype=np.float32)
    scores[0, 0] = 1.0
    scores[0, 1] = 0.5
    scores[0, 7] = 0.5
    picks = sample_spatial(scoremap(scores), k=2, scale=2.0)
    assert [p.loc for p in picks] == [0, 7]


# ---------------------------------------------------------------------------
# oracle equivalence against the naive reference


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_diverse_fg_matches_naive(seed):
    scores, feats, n, _ = random_instance(seed)
    k = 1 + Rng(seed ^ 0xF). randint(n)
    sm = scoremap(scores.reshape(1, n))
    picks = sample_diverse_fg(sm, unit_features(feats), k)
    ref_locs, ref_vals = naive_diverse_fg(scores, feats, k)
    assert [p.loc for p in picks] == ref_locs
    assert np.allclose([p.value for p in picks], ref_vals, atol=1e-9)


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_diverse_bg_matches_naive(seed):
    scores, feats, n, _ = random_instance(seed)
    r = Rng(seed ^ 0xB6)
    n_fg = 1 + r.randint(max(n // 3, 1))
    fg_locs = r.sample_indices(n, n_fg)
    k = 1 + r.randint(n - n_fg)
    fg = [SampledPoint("img", loc, 0, i + 1, 0.0) for i, loc in enumerate(fg_locs)]
    picks = sample_diverse_bg(fg, unit_features(feats), k)
    ref_locs, ref_vals = naive_diverse_bg(fg_locs, feats, k)
    assert [p.loc for p in picks] == ref_locs
    assert np.allclose([p.value for p in picks], ref_vals, atol=1e-9)


@given(st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_spatial_matches_naive(seed):
    r = Rng(seed)
    h, w = 1 + r.randint(8), 1 + r.randint(8)
    scores = r.uniform_array(h * w, 0, 2).reshape(h, w).astype(np.float32)
    k = 1 + r.randint(h * w)
    scale = r.uniform(0.5, 5.0)
    picks = sample_spatial(scoremap(scores), k, scale)
    ref_locs, ref_vals = naive_spatial(scores.ravel(), (h, w), k, scale)
    assert [p.loc for p in picks] == ref_locs
    assert np.allclose([p.value for p in picks], ref_vals, atol=1e-9)


@given(st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_top_k_matches_naive(seed):
    scores, _, n, _ = random_instance(seed)
    k = 1 + Rng(seed ^ 0x7).randint(n)
    picks = sample_top_k(scoremap(scores.reshape(1, n)), k)
    ref_locs, _ = naive_top_k(scores, k)
    assert [p.loc for p in picks] == ref_locs


# ---------------------------------------------------------------------------
# invariants


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_fg_values_non_increasing_bg_non_decreasing(seed):
    scores, feats, n, _ = random_instance(seed)
    k = min(n, 8)
    sm = scoremap(scores.reshape(1, n))
    f = unit_features(feats)
    fg = sample_diverse_fg(sm, f, k)
    fg_vals = [p.value for p in fg]
    assert all(a >= b - 1e-12 for a, b in zip(fg_vals, fg_vals[1:]))
    k_bg = min(n - k, 5)
    if k_bg >= 1:
        bg = sample_diverse_bg(fg, f, k_bg)
        bg_vals = [p.value for p in bg]
        assert all(a <= b + 1e-12 for a, b in zip(bg_vals, bg_vals[1:]))


@given(st.integers(0, 10**9), st.floats(0.1, 50.0))
@settings(max_examples=40, deadline=None)
def test_fg_selection_invariant_to_positive_scaling(seed, scale):
    scores, feats, n, _ = random_instance(seed)
    k = min(n, 6)
    f = unit_features(feats)
    a = sample_diverse_fg(scoremap(scores.reshape(1, n)), f, k)
    b = sample_diverse_fg(scoremap((scores * scale).reshape(1, n)), f, k)
    assert [p.loc for p in a] == [p.loc for p in b]


def test_fg_bg_disjoint_and_unique():
    scores, feats, n, _ = random_instance(99)
    f = unit_features(feats)
    fg = sample_diverse_fg(scoremap(scores.reshape(1, n)), f, min(n // 2, 10))
    bg = sample_diverse_bg(fg, f, min(n // 2, 10))
    fg_locs = [p.loc for p in fg]
    bg_locs = [p.loc for p in bg]
    assert len(set(fg_locs)) == len(fg_locs)
    assert len(set(bg_locs)) == len(bg_locs)
    assert not set(fg_locs) & set(bg_locs)


def test_identical_features_degenerate():
    sm = scoremap([[0.5, 1.0, 0.7, 0.2]])
    f = unit_features([[1, 0]] * 4)
    picks = sample_diverse_fg(sm, f, k=3)
    assert picks[0].loc == 1  # argmax first
    # all later objectives collapse to 0 and ties resolve by lowest index
    assert [p.loc for p in picks[1:]] == [0, 2]
    assert all(p.value == pytest.approx(0.0) for p in picks[1:])


def test_k_too_large_errors():
    scores, feats, n, _ = random_instance(5)
    with pytest.raises(DataError):
        sample_diverse_fg(scoremap(scores.reshape(1, n)), unit_features(feats), n + 1)


def test_requires_unit_features():
    sm = scoremap([[1.0, 0.5]])
    raw = FeatureGrid(grid=Grid(np.ones((1, 2, 3), dtype=np.float32)))
    with pytest.raises(DataError):
        sample_diverse_fg(sm, raw, 1)


# ---------------------------------------------------------------------------
# dense labeling


def test_dense_labels_hand_cases():
    maps = {
        0: scoremap([[0.9, 0.15]], class_id=0),
        1: scoremap([[0.1, 0.10]], class_id=1),
    }
    calib = {0: 1.0, 1: 1.0}
    labels = dense_pseudo_labels(maps, tau=0.2, calibration=calib)
    assert labels[0, 0] == 0  # (0.9, 0.1) -> class 0
    assert labels[0, 1] == BACKGROUND  # (0.15, 0.1) below tau


def test_dense_labels_tau_infinite_all_background():
    maps = {0: scoremap([[5.0, 9.0]], class_id=0)}
    labels = dense_pseudo_labels(maps, tau=np.inf, calibration={0: 1.0})
    assert np.all(labels == BACKGROUND)


def test_dense_labels_missing_calibration():
    maps = {0: scoremap([[1.0]], class_id=0)}
    with pytest.raises(DataError):
        dense_pseudo_labels(maps, tau=0.2, calibration={})


# ---------------------------------------------------------------------------
# whole-image supervision sets


def _toy_records(n_images=3, n=16, d=4, tagged=((0, 1), (1,), ())):
    records = []
    for i, tags in enumerate(tagged):
        r = Rng(1000 + i)
        feats = r.uniform_array(n * d, -1, 1).reshape(n, d)
        feats /= np.linalg.norm(feats, axis=1, keepdims=True)
        records.append(
            SupervisionRecord(
                image_id=f"im{i}",
                features=unit_features(feats.astype(np.float32), shape=(4, 4)),
                tags=TagSet(image_id=f"im{i}", present=frozenset(tags)),
            )
        )
    return records


def _fake_scores(records):
    """Uniform pseudo scores in [0, 1) for every tagged pair of records."""
    pairs = [(i, c) for i, rec in enumerate(records) for c in sorted(rec.tags.present)]
    n = records[0].features.grid.n_locations
    return PairScores(
        np.array([i for i, _ in pairs], dtype=np.int64).reshape(-1),
        np.array([c for _, c in pairs], dtype=np.int64).reshape(-1),
        np.array([Rng(7000 + 31 * c + i).uniform_array(n, 0, 1) for i, c in pairs]
                 ).reshape(len(pairs), n),
    )


def test_build_supervision_set_counts():
    records = _toy_records()
    cfg = SamplingConfig(k=3, strategy="diverse")
    points = build_supervision_set(records, _fake_scores(records), cfg, seed=5)
    by_image = {}
    for p in points:
        by_image.setdefault(p.image_id, []).append(p)
    # two tagged classes: 2*3 fg + 3 bg
    assert len(by_image["im0"]) == 9
    assert len([p for p in by_image["im0"] if p.label == BACKGROUND]) == 3
    # one tagged class: 3 fg + 3 bg
    assert len(by_image["im1"]) == 6
    # untagged image: 3 flagged random bg
    im2 = by_image["im2"]
    assert len(im2) == 3
    assert all(p.label == BACKGROUND and FLAG_RANDOM_BG in p.flags for p in im2)


def test_build_supervision_set_empty_dataset():
    assert build_supervision_set([], pair_scores([], {}), SamplingConfig(), seed=1) == []


def test_build_supervision_set_missing_model():
    """Its scores come from pair_scores, which wants a model per tagged class."""
    records = _toy_records(tagged=((0,),))
    with pytest.raises(DataError, match=r"no localization model for tagged classes \[0\]"):
        pair_scores(records, {})


def test_build_supervision_set_deterministic():
    records = _toy_records()
    cfg = SamplingConfig(k=2, strategy="diverse")
    a = build_supervision_set(records, _fake_scores(records), cfg, seed=5)
    b = build_supervision_set(records, _fake_scores(records), cfg, seed=5)
    assert a == b


def test_dense_supervision_labels_every_location():
    records = _toy_records(tagged=((0,), ()))
    cfg = SamplingConfig(k=2, strategy="dense", tau=0.2)
    points = build_supervision_set(records, _fake_scores(records), cfg, seed=5)
    per_image = {}
    for p in points:
        per_image.setdefault(p.image_id, []).append(p)
    for recs in per_image.values():
        assert len(recs) == 16  # every grid location labeled exactly once
        assert len({p.loc for p in recs}) == 16


@pytest.mark.parametrize("edit", [
    lambda s: s._replace(class_id=s.class_id[::-1].copy()),
    lambda s: s._replace(image=s.image[1:], class_id=s.class_id[1:], fg=s.fg[1:]),
    lambda s: s._replace(image=s.image + 1),
], ids=["classes-swapped", "pair-missing", "images-shifted"])
def test_scores_of_other_pairs_are_data_error(edit):
    """Scores must hold the records' tagged pairs, image by image, classes
    ascending."""
    records = _toy_records()
    scores = edit(_fake_scores(records))
    with pytest.raises(DataError, match="not the records' 3 tagged"):
        build_supervision_set(records, scores, SamplingConfig(k=2), seed=5)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_scores_of_another_width_are_data_error(strategy):
    """A score row per tagged pair, as wide as the grid (16 locations here),
    checked before any strategy reads the rows."""
    records = _toy_records()
    scores = _fake_scores(records)
    for fg in (scores.fg[:, :8], np.tile(scores.fg, 2)):
        with pytest.raises(DataError, match=rf"shape \(3, {fg.shape[1]}\), want \(3, 16\)"):
            build_supervision_set(records, scores._replace(fg=fg),
                                  SamplingConfig(k=2, strategy=strategy), seed=5)


# ---------------------------------------------------------------------------
# serialization


def test_points_jsonl_round_trip(tmp_path):
    points = [
        SampledPoint("a", 3, 0, 1, 0.5),
        SampledPoint("a", 7, BACKGROUND, 1, 0.0, flags=(FLAG_RANDOM_BG,)),
    ]
    path = tmp_path / "pts.jsonl"
    save_points(points, path)
    assert load_points(path) == points


def _per_row_points_file(points) -> bytes:
    """The points file as one json.dumps per point: the reference writer."""
    return b"".join(
        (json.dumps({"image": p.image_id, "loc": p.loc, "label": p.label, "rank": p.rank,
                     "value": p.value, "flags": list(p.flags)}, sort_keys=True) + "\n"
         ).encode()
        for p in points
    )


def test_points_file_bytes_equal_the_per_row_writer(tmp_path):
    points = PointSet.of([
        SampledPoint('sc"ene\\00é\n', 3, 0, 1, 0.1 + 0.2),
        SampledPoint("b", 7, BACKGROUND, 1, 0.0, flags=(FLAG_RANDOM_BG,)),
        SampledPoint('sc"ene\\00é\n', 11, 2, 2, -1.5e-300),
        SampledPoint("b", 0, 1, 1, 12345678.000000002),
        SampledPoint("c", 5, BACKGROUND, 3, -0.0),
    ])
    path = tmp_path / "pts.jsonl"
    save_points(points, path)
    assert path.read_bytes() == _per_row_points_file(points)
    assert load_points(path) == points
    save_points([], path)
    assert path.read_bytes() == b""
