import numpy as np
import pytest

from divseed.errors import DataError, NumericError
from divseed.localization import LocConfig, TagSet
from divseed.rng import Rng
from divseed.sampling import BACKGROUND, SampledPoint, SamplingConfig, SupervisionRecord
from divseed.nn import linear_backward, linear_fwd, masked_ce_loss_and_grad, relu, relu_backward
from divseed.segmentation import (
    SegConfig,
    _gather_points,
    add_class,
    augment_with_global,
    head_loss_and_grads,
    load_seg_checkpoint,
    new_segmentation_model,
    predict,
    save_seg_checkpoint,
    train_segmentation,
)
from divseed.tensor import FeatureGrid, Grid, NormState


def unit_features(seed, h=4, w=4, d=6):
    rng = Rng(seed)
    vecs = np.array(rng.uniform_array(h * w * d, -1, 1)).reshape(h * w, d)
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return FeatureGrid(
        grid=Grid(vecs.reshape(h, w, d).astype(np.float32)), norm_state=NormState.UNIT
    )


# ---------------------------------------------------------------------------
# global-prior augmentation


def test_augment_constant_grid():
    v = np.array([3.0, 4.0, 0.0], dtype=np.float32) / 5.0
    f = FeatureGrid(
        grid=Grid(np.tile(v, (2, 2, 1))), norm_state=NormState.UNIT
    )
    af = augment_with_global(f)
    assert af.grid.depth == 6
    assert af.global_dim == 3
    # the appended half equals the (unit-norm) constant vector everywhere
    assert np.allclose(af.grid.values[..., 3:], v, atol=1e-6)


def test_augment_permutation_invariant_descriptor():
    f = unit_features(3)
    af = augment_with_global(f)
    perm = np.random.default_rng(0).permutation(16)
    shuffled = f.grid.locations()[perm].reshape(4, 4, 6)
    af2 = augment_with_global(
        FeatureGrid(grid=Grid(shuffled), norm_state=NormState.UNIT)
    )
    assert np.allclose(af.grid.values[0, 0, 6:], af2.grid.values[0, 0, 6:])


def test_augment_requires_unit():
    raw = FeatureGrid(grid=Grid(np.ones((2, 2, 3), dtype=np.float32)))
    with pytest.raises(DataError):
        augment_with_global(raw)


# ---------------------------------------------------------------------------
# training


def _separable_points(n_images=6, d=6):
    """Class c points sit exactly on basis vector e_c; background on e_3."""
    features = {}
    points = []
    for i in range(n_images):
        image_id = f"im{i}"
        vecs = np.zeros((16, d), dtype=np.float32)
        rng = Rng(50 + i)
        for loc in range(16):
            c = rng.randint(4)  # classes 0..2 plus background direction 3
            vecs[loc, c] = 1.0
            label = BACKGROUND if c == 3 else c
            points.append(SampledPoint(image_id, loc, label, 1, 1.0))
        f = FeatureGrid(grid=Grid(vecs.reshape(4, 4, d)), norm_state=NormState.UNIT)
        features[image_id] = augment_with_global(f)
    return points, features


def _per_point_gather(points, features, model):
    """One row and one label lookup per point: the reference gather, rows
    kept float32 as the grids store them."""
    x = np.empty((len(points), model.hidden.in_dim), dtype=np.float32)
    y = np.empty(len(points), dtype=np.int64)
    for i, p in enumerate(points):
        x[i] = features[p.image_id].grid.locations()[p.loc]
        y[i] = model.label_to_index(p.label)
    return x, y


def test_gather_equals_per_point_loop():
    class_ids = (5, 0, 2)  # unsorted universe: indices are not ids
    features = {f"im{i}": augment_with_global(unit_features(200 + i)) for i in range(25)}
    rng = Rng(0x6A7)
    points = []
    for _ in range(400):  # images interleaved, duplicates likely
        image_id = f"im{rng.randint(25)}"
        label = (BACKGROUND,) + class_ids
        points.append(SampledPoint(image_id, rng.randint(16), label[rng.randint(4)], 1, 0.5))
    points += points[:30]  # exact duplicates
    model = new_segmentation_model(class_ids, 12, 6, SegConfig(hidden=4), seed=1)
    x, y = _gather_points(points, features, model)
    ref_x, ref_y = _per_point_gather(points, features, model)
    assert x.dtype == np.float32 and x.tobytes() == ref_x.tobytes()
    assert np.array_equal(y, ref_y)
    assert set(y.tolist()) == {0, 1, 2, 3}
    with pytest.raises(DataError):
        _gather_points(points + [SampledPoint("im0", 0, 7, 1, 0.5)], features, model)


def _chain_loss_and_grads(model, xb, yb):
    """The head's loss and backward layer by layer: the reference chain."""
    h1 = linear_fwd(model.hidden, xb)
    a1 = relu(h1)
    logits = linear_fwd(model.out, a1)
    lv = masked_ce_loss_and_grad(logits, np.stack([np.arange(len(yb)), yb], axis=1))
    dw2, db2, da1 = linear_backward(model.out, a1, lv.grads["logits"])
    dh1 = relu_backward(h1, da1)
    dw1, db1, _ = linear_backward(model.hidden, xb, dh1)
    return lv.loss, [dw1, db1, dw2, db2]


@pytest.mark.parametrize("m", [1, 7, 100])
def test_head_backward_equals_the_layer_chain(m):
    for seed in range(6):
        model = new_segmentation_model((4, 0, 2), 12, 6, SegConfig(hidden=16), seed)
        rng = Rng(900 + seed)
        model.hidden.bias[:] = rng.uniform_array(16, -0.3, 0.3)  # mixed ReLU mask
        model.out.bias[:] = rng.uniform_array(4, -0.3, 0.3)
        xb = rng.uniform_array(m * 12, -1, 1).reshape(m, 12)
        yb = np.array([rng.randint(4) for _ in range(m)], dtype=np.int64)
        lv, grads = head_loss_and_grads(model, xb, yb)
        loss, chain = _chain_loss_and_grads(model, xb, yb)
        assert lv.loss == loss
        for a, b in zip(grads, chain):
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes()  # bitwise, signed zeros included


def test_separable_points_reach_full_accuracy():
    points, features = _separable_points()
    config = SegConfig(hidden=32, lr=1e-2, epochs=30, batch_size=16)
    result = train_segmentation(points, features, [0, 1, 2], config, seed=3)
    correct = 0
    for p in points:
        labels, _ = predict(result.model, features[p.image_id])
        want = 3 if p.label == BACKGROUND else p.label
        correct += labels.ravel()[p.loc] == want
    assert correct == len(points)


def test_training_deterministic():
    points, features = _separable_points()
    config = SegConfig(hidden=16, epochs=2)
    a = train_segmentation(points, features, [0, 1, 2], config, seed=9)
    b = train_segmentation(points, features, [0, 1, 2], config, seed=9)
    for pa, pb in zip(a.model.params(), b.model.params()):
        assert np.array_equal(pa, pb)


def test_diverging_head_names_epoch_and_batch():
    """With a huge learning rate the first Adam step overflows the weights,
    so the second batch's loss is not finite; the error says where."""
    points, features = _separable_points()
    config = SegConfig(hidden=16, lr=1e300, epochs=2, batch_size=16)
    with np.errstate(all="ignore"), pytest.raises(
        NumericError, match=r"^head: non-finite loss at epoch 1, batch 2: "
    ):
        train_segmentation(points, features, [0, 1, 2], config, seed=3)


def test_empty_points_error():
    with pytest.raises(DataError):
        train_segmentation([], {}, [0], SegConfig(), seed=1)


def test_points_without_features_error():
    points = [SampledPoint("missing", 0, 0, 1, 1.0)]
    with pytest.raises(DataError):
        train_segmentation(points, {}, [0], SegConfig(), seed=1)


# ---------------------------------------------------------------------------
# prediction


def test_zero_weights_give_uniform_probabilities():
    model = new_segmentation_model([0, 1, 2], in_dim=12, global_dim=6,
                                   config=SegConfig(hidden=8), seed=1)
    for arr in model.params():
        arr[...] = 0.0
    af = augment_with_global(unit_features(7))
    labels, probs = predict(model, af)
    assert np.allclose(probs.values, 0.25, atol=1e-7)
    assert np.all(labels == 0)  # argmax ties resolve to the lowest index


def test_probabilities_sum_to_one():
    model = new_segmentation_model([0, 1], in_dim=12, global_dim=6,
                                   config=SegConfig(hidden=8), seed=2)
    _, probs = predict(model, augment_with_global(unit_features(8)))
    sums = probs.values.sum(axis=2)
    assert np.all(np.abs(sums - 1.0) < 1e-6)


def test_predict_locationwise():
    model = new_segmentation_model([0, 1], in_dim=12, global_dim=6,
                                   config=SegConfig(hidden=8), seed=4)
    f = unit_features(11)
    af = augment_with_global(f)
    labels, _ = predict(model, af)
    perm = [2, 0, 3, 1]
    # permuting rows permutes both the base features and the prediction;
    # the global descriptor is permutation-invariant so it stays valid
    shuffled = FeatureGrid(
        grid=Grid(f.grid.values[perm]), norm_state=NormState.UNIT
    )
    labels2, _ = predict(model, augment_with_global(shuffled))
    assert np.array_equal(labels[perm], labels2)


def test_predict_depth_mismatch():
    model = new_segmentation_model([0], in_dim=10, global_dim=5,
                                   config=SegConfig(hidden=4), seed=5)
    with pytest.raises(DataError):
        predict(model, augment_with_global(unit_features(1)))


# ---------------------------------------------------------------------------
# incremental class addition


def _toy_system():
    points, features = _separable_points()
    seg = train_segmentation(
        points, features, [0, 1, 2], SegConfig(hidden=16, epochs=2), seed=2
    )
    return points, features, seg


def _new_class_records(n=8, d=6):
    records = []
    for i in range(n):
        image_id = f"new{i}"
        rng = Rng(900 + i)
        vecs = np.array(rng.uniform_array(16 * d, -1, 1)).reshape(16, d)
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        positive = i % 2 == 0
        if positive:
            for loc in rng.sample_indices(16, 4):
                v = np.zeros(d)
                v[4] = 1.0
                vecs[loc] = v
        records.append(
            SupervisionRecord(
                image_id=image_id,
                features=FeatureGrid(
                    grid=Grid(vecs.reshape(4, 4, d).astype(np.float32)),
                    norm_state=NormState.UNIT,
                ),
                tags=TagSet(image_id=image_id,
                            present=frozenset({7} if positive else set())),
            )
        )
    return records


def test_add_class_grows_universe_and_keeps_old_models():
    points, features, _ = _toy_system()
    old_model = object()  # sentinel: must come back untouched
    result = add_class(
        7,
        _new_class_records(),
        {0: old_model, 1: old_model, 2: old_model},
        points,
        features,
        [0, 1, 2],
        LocConfig(hidden=8, lr_schedule=((6, 2e-2), (2, 2e-3))),
        SamplingConfig(k=3),
        SegConfig(hidden=16, epochs=2),
        seed=5,
    )
    assert result.class_ids == (0, 1, 2, 7)
    assert result.seg_result.model.out.out_dim == 5  # 4 classes + bg
    assert len(result.new_points) > 0
    assert len(result.merged_points) == len(points) + len(result.new_points)
    # only positive new images contribute points, each k fg + k bg
    new_images = {p.image_id for p in result.new_points}
    assert new_images == {f"new{i}" for i in range(0, 8, 2)}
    for image_id in new_images:
        pts = [p for p in result.new_points if p.image_id == image_id]
        assert len(pts) == 6
        assert {p.label for p in pts} == {7, BACKGROUND}


def test_add_class_rejects_existing():
    points, features, _ = _toy_system()
    with pytest.raises(DataError):
        add_class(
            1, _new_class_records(), {0: None, 1: None, 2: None}, points,
            features, [0, 1, 2], LocConfig(), SamplingConfig(), SegConfig(),
            seed=1,
        )


def test_retrain_same_pool_same_seed_identical():
    points, features, _ = _toy_system()
    config = SegConfig(hidden=16, epochs=2)
    a = train_segmentation(points, features, [0, 1, 2], config, seed=42)
    b = train_segmentation(points, features, [0, 1, 2], config, seed=42)
    for pa, pb in zip(a.model.params(), b.model.params()):
        assert np.array_equal(pa, pb)


# ---------------------------------------------------------------------------
# checkpoints


def test_seg_checkpoint_round_trip(tmp_path):
    points, features, seg = _toy_system()
    save_seg_checkpoint(tmp_path / "seg", seg, SegConfig(hidden=16, epochs=2))
    model = load_seg_checkpoint(tmp_path / "seg")
    assert model.class_ids == (0, 1, 2)
    assert model.background_index == 3
    af = next(iter(features.values()))
    a, _ = predict(seg.model, af)
    b, _ = predict(model, af)
    # float32 storage may flip exact argmax ties only; none exist here
    assert np.array_equal(a, b)
