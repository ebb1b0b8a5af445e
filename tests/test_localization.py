import json

import numpy as np
import pytest

from divseed import localization
from divseed.errors import ConfigError, DataError
from divseed.localization import (
    LocConfig,
    StepWorkspace,
    SupervisionRecord,
    TagSet,
    load_loc_checkpoint,
    localizer_loss_and_grads,
    new_localization_model,
    save_loc_checkpoint,
    score_image,
    train_class_localizers,
    train_localizer,
)
from divseed.nn import (
    AdamState,
    adam_step,
    bce_loss_and_grad,
    linear_backward,
    linear_fwd,
    relu_backward,
)
from divseed.rng import Rng
from divseed.sampling import SamplingConfig, build_supervision_set
from divseed.tensor import FeatureGrid, Grid, NormState

from reference_localizer import pooled_probability, reference_train_localizer
from test_tensor import _traced_peak


def image_probability(model, f):
    """Image-level presence probability for the model's class."""
    sm = score_image(model, f)
    p, _ = pooled_probability(model.pooling, sm.fg, sm.bg)
    return p


def unit_grid(vectors, shape):
    arr = np.asarray(vectors, dtype=np.float32).reshape(shape[0], shape[1], -1)
    return FeatureGrid(grid=Grid(arr), norm_state=NormState.UNIT)


def record(image_id, features, present):
    return SupervisionRecord(image_id, features, TagSet(image_id, frozenset(present)))


def separable_dataset(n_pos=20, n_neg=20, h=4, w=4, d=8, seed=0, n_signal=3):
    """Positives carry a few locations clustered around a direction that
    negatives are exactly orthogonal to, so perfect separation exists."""
    rng = Rng(seed)
    data = []
    signal = np.zeros(d)
    signal[2] = 1.0
    for i in range(n_pos + n_neg):
        positive = i < n_pos
        vecs = np.array(rng.uniform_array(h * w * d, -1, 1)).reshape(h * w, d)
        vecs[:, 2] = 0.0
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        if positive:
            for s in rng.sample_indices(h * w, n_signal):
                v = signal + 0.25 * np.array(rng.uniform_array(d, -1, 1))
                v[2] = abs(v[2])
                vecs[s] = v / np.linalg.norm(v)
        data.append(record(f"im{i}", unit_grid(vecs, (h, w)), {3} if positive else ()))
    return data


# enough passes over the 40-image toy to match the step count the default
# 2+1-epoch schedule gets from a full-size training set
TOY_SCHEDULE = ((16, 3e-2), (4, 3e-3))


@pytest.mark.parametrize("pooling", ["global", "pixel"])
def test_separable_features_reach_full_train_accuracy(pooling):
    data = separable_dataset()
    config = LocConfig(hidden=16, pooling=pooling, lr_schedule=TOY_SCHEDULE)
    result = train_localizer(3, data, config, seed=100)
    correct = 0
    for rec in data:
        p = image_probability(result.model, rec.features)
        correct += (p > 0.5) == (3 in rec.tags)
    assert correct == len(data)
    assert all(np.isfinite(l) for l in result.epoch_losses)


def test_heldout_positive_scores_above_negative():
    """Trained on real synthetic scenes, the image-level probability should
    rank held-out positives above negatives in at least 90% of pairs
    (median over 5 seeds)."""
    from divseed.rng import derive_seed
    from divseed.synthdata import ExtractorSpec, extract_features, generate_dataset
    from divseed.tensor import compute_norm_stats, normalize_features

    fractions = []
    for seed in range(5):
        spec = ExtractorSpec(seed=derive_seed(seed, 0xE87))
        train = generate_dataset(120, 3, 64, 64, seed=1000 + seed, id_prefix="tr")
        test = generate_dataset(40, 3, 64, 64, seed=2000 + seed, id_prefix="te")
        raw = [extract_features(s, spec) for s in train]
        stats = compute_norm_stats(raw)
        records = [
            SupervisionRecord(s.tags.image_id, normalize_features(f, stats), s.tags)
            for s, f in zip(train, raw)
        ]
        result = train_localizer(0, records, LocConfig(), seed=seed)
        pos, neg = [], []
        for s in test:
            p = image_probability(
                result.model, normalize_features(extract_features(s, spec), stats)
            )
            (pos if 0 in s.tags.present else neg).append(p)
        fractions.append(
            sum(p > n for p in pos for n in neg) / (len(pos) * len(neg))
        )
    assert np.median(fractions) >= 0.9


def test_training_is_deterministic_bitwise():
    data = separable_dataset()
    config = LocConfig(hidden=8)
    a = train_localizer(3, data, config, seed=4)
    b = train_localizer(3, data, config, seed=4)
    for pa, pb in zip(a.model.params(), b.model.params()):
        assert np.array_equal(pa, pb)
    assert a.negative_ids == b.negative_ids
    assert a.epoch_losses == b.epoch_losses


def test_no_positives_or_negatives_errors():
    data = separable_dataset(n_pos=0, n_neg=4)
    with pytest.raises(DataError):
        train_localizer(3, data, LocConfig(), seed=1)
    data = separable_dataset(n_pos=4, n_neg=0)
    with pytest.raises(DataError):
        train_localizer(3, data, LocConfig(), seed=1)


def test_negatives_balanced_and_logged():
    data = separable_dataset(n_pos=5, n_neg=20)
    result = train_localizer(3, data, LocConfig(hidden=4), seed=2)
    assert len(result.negative_ids) == 5
    assert len(set(result.negative_ids)) == 5  # without replacement
    # fewer negatives than positives: sampled with replacement up to n_pos
    data = separable_dataset(n_pos=8, n_neg=3)
    result = train_localizer(3, data, LocConfig(hidden=4), seed=2)
    assert len(result.negative_ids) == 8


def test_score_image_constant_on_zero_features():
    model = new_localization_model(0, in_dim=4, config=LocConfig(hidden=8), seed=3)
    f = FeatureGrid(
        grid=Grid(np.zeros((3, 4, 4), dtype=np.float32)), norm_state=NormState.UNIT
    )
    sm = score_image(model, f)
    assert np.all(sm.fg == sm.fg[0, 0])
    assert np.all(sm.bg == sm.bg[0, 0])


def test_score_image_is_locationwise():
    model = new_localization_model(0, in_dim=3, config=LocConfig(hidden=8), seed=5)
    rng = Rng(8)
    vals = rng.uniform_array(12 * 3, -1, 1).reshape(4, 3, 3).astype(np.float32)
    f = FeatureGrid(grid=Grid(vals), norm_state=NormState.UNIT)
    sm = score_image(model, f)
    # permute rows of the image; score map permutes identically
    perm = [2, 0, 3, 1]
    f2 = FeatureGrid(grid=Grid(vals[perm]), norm_state=NormState.UNIT)
    sm2 = score_image(model, f2)
    assert np.array_equal(sm.fg[perm], sm2.fg)
    assert np.array_equal(sm.bg[perm], sm2.bg)
    # and it is deterministic
    sm3 = score_image(model, f)
    assert np.array_equal(sm.fg, sm3.fg)


def test_score_image_requires_unit_features():
    model = new_localization_model(0, in_dim=3, config=LocConfig(), seed=5)
    raw = FeatureGrid(grid=Grid(np.ones((2, 2, 3), dtype=np.float32)))
    with pytest.raises(DataError):
        score_image(model, raw)


def test_pooling_modes_agree_on_single_location():
    rng = Rng(12)
    for _ in range(20):
        fg = np.array([rng.uniform(-3, 3)])
        bg = np.array([rng.uniform(-3, 3)])
        p1, _ = pooled_probability("pixel", fg, bg)
        p2, _ = pooled_probability("global", fg, bg)
        assert abs(p1 - p2) < 1e-12


def test_non_finite_scores_abort():
    import warnings

    from divseed.errors import NumericError

    model = new_localization_model(0, in_dim=3, config=LocConfig(hidden=4), seed=6)
    model.params()[2][0, 0] = np.inf  # an output weight
    f = FeatureGrid(
        grid=Grid(np.full((2, 2, 3), 0.5, dtype=np.float32)),
        norm_state=NormState.UNIT,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # inf propagates freely
        with pytest.raises(NumericError):
            image_probability(model, f)


def test_checkpoint_round_trip(tmp_path):
    data = separable_dataset(n_pos=4, n_neg=4)
    result = train_localizer(3, data, LocConfig(hidden=8), seed=9)
    save_loc_checkpoint(tmp_path / "ck", result)
    model = load_loc_checkpoint(tmp_path / "ck")
    assert model.class_id == 3
    assert model.pooling == result.model.pooling
    # float32 storage round trip
    assert np.array_equal(model.flat, result.model.flat.astype(np.float32))
    # which scoring already rounds to: the loaded model scores the same bits
    for rec in data:
        before, after = score_image(result.model, rec.features), score_image(model, rec.features)
        assert before.fg.tobytes() == after.fg.tobytes()
        assert before.bg.tobytes() == after.bg.tobytes()


def test_checkpoint_records_restarts(tmp_path, monkeypatch):
    monkeypatch.setattr(localization, "RESTART_LOSS_THRESHOLD", -1.0)
    result = train_localizer(3, separable_dataset(n_pos=4, n_neg=4), LocConfig(hidden=8), seed=9)
    save_loc_checkpoint(tmp_path / "ck", result)
    meta = json.loads((tmp_path / "ck" / "meta.json").read_text())
    assert meta["restarts"] == localization.MAX_RESTARTS


# ---------------------------------------------------------------------------
# sparse backward


def _dense_loss_and_grads(model, x, label):
    """The backward over every location: the reference chain."""
    w1, b1, w2, b2 = model.params()
    h1 = linear_fwd(w1, b1, x)
    a1 = np.maximum(h1, 0.0)
    y = linear_fwd(w2, b2, a1)
    p, trace = pooled_probability(model.pooling, y[:, 0], y[:, 1])
    lv = bce_loss_and_grad(p, label, trace, n_locations=x.shape[0])
    dy = np.stack([lv.grads["fg"], lv.grads["bg"]], axis=1)
    dw2, db2, da1 = linear_backward(w2, a1, dy)
    dh1 = relu_backward(h1, da1)
    dw1, db1, _ = linear_backward(w1, x, dh1)
    return lv.loss, [dw1, db1, dw2, db2], trace


def _assert_sparse_equals_dense(model, x, label):
    """The training step, in a float64 workspace, against the float64 chain."""
    ws = StepWorkspace(1, x.shape[0], model.dims, np.float64)
    lv, grad = localizer_loss_and_grads(model, x, label, ws)
    loss, dense, trace = _dense_loss_and_grads(model, x, label)
    assert lv.loss == loss
    for a, b in zip(model.views(grad), dense):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()  # bitwise, signed zeros included
    return trace


def _model(pooling, d, seed, hidden=6):
    model = new_localization_model(0, d, LocConfig(hidden=hidden, pooling=pooling), seed)
    rng = Rng(seed + 1)
    _, b1, _, b2 = model.params()
    b1[:] = rng.uniform_array(hidden, -0.3, 0.3)
    b2[:] = rng.uniform_array(2, -0.3, 0.3)
    return model


@pytest.mark.parametrize("pooling", ["global", "pixel"])
def test_sparse_backward_equals_dense_chain(pooling):
    for seed in range(12):
        model = _model(pooling, 8, seed)
        x = Rng(100 + seed).uniform_array(16 * 8, -1, 1).reshape(16, 8)
        for label in (0, 1):
            _assert_sparse_equals_dense(model, x, label)


@pytest.mark.parametrize("pooling", ["global", "pixel"])
def test_sparse_backward_at_the_last_location(pooling):
    """Both argmaxes on the last row: the added row is the one before it."""
    n, d = 9, 5
    model = _model(pooling, d, 3)
    w1, b1, w2, _ = model.params()
    np.abs(w1, out=w1)
    b1[:] = 0.0
    np.abs(w2, out=w2)
    if pooling == "pixel":
        w2[1] = 0.0  # fg - bg then peaks where fg does
    x = Rng(7).uniform_array(n * d, 0, 1).reshape(n, d)
    x[-1] = 2.0  # dominates every other row, elementwise
    for label in (0, 1):
        trace = _assert_sparse_equals_dense(model, x, label)
        assert trace.fg_loc == trace.bg_loc == n - 1


def test_sparse_backward_with_coinciding_global_argmaxes():
    model = _model("global", 8, 5)
    _, _, w2, b2 = model.params()
    w2[1] = w2[0]
    b2[1] = b2[0]  # bg map equals fg map
    x = Rng(11).uniform_array(16 * 8, -1, 1).reshape(16, 8)
    for label in (0, 1):
        trace = _assert_sparse_equals_dense(model, x, label)
        assert trace.fg_loc == trace.bg_loc


@pytest.mark.parametrize("pooling", ["global", "pixel"])
def test_sparse_backward_on_a_single_location(pooling):
    model = _model(pooling, 4, 9)
    x = Rng(13).uniform_array(4, -1, 1).reshape(1, 4)
    for label in (0, 1):
        _assert_sparse_equals_dense(model, x, label)


# ---------------------------------------------------------------------------
# lockstep training against the per-class loop


def multi_class_dataset(n=36, d=6, sizes=((4, 4),), seed=21):
    """Random unit features; class c is tagged on a share of the images that
    shrinks with c, so the classes have unequal positive counts (and ragged
    epochs). Grid sizes cycle through sizes."""
    rng = Rng(seed)
    data = []
    for i in range(n):
        h, w = sizes[i % len(sizes)]
        vecs = rng.uniform_array(h * w * d, -1, 1).reshape(h * w, d)
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        present = [c for c in range(4) if rng.uniform() < 0.6 - 0.12 * c]
        data.append(record(f"im{i}", unit_grid(vecs, (h, w)), present))
    return data


LOCKSTEP_SCHEDULE = ((2, 3e-2), (0, 1e-1), (1, 3e-3))


def _assert_lockstep_equals_reference(data, class_ids, config, seeds):
    results = train_class_localizers(class_ids, data, config, seeds)
    assert len(results) == len(class_ids)
    for c, seed, result in zip(class_ids, seeds, results):
        params, losses, negatives, clamps, restarts = reference_train_localizer(
            c, data, config, seed
        )
        assert result.model.class_id == c
        assert [p.tobytes() for p in result.model.params()] == [p.tobytes() for p in params]
        assert result.epoch_losses == losses
        assert result.negative_ids == negatives
        assert result.clamp_events == clamps
        assert result.restarts == restarts
    return results


@pytest.mark.parametrize("pooling", ["global", "pixel"])
@pytest.mark.parametrize("class_ids", [[2], [1, 3], [0, 1, 2, 3]], ids=["C1", "C2", "C4"])
def test_lockstep_equals_the_per_class_loop(pooling, class_ids):
    data = multi_class_dataset()
    counts = [sum(c in r.tags for r in data) for c in class_ids]
    assert len(set(counts)) == len(counts)  # unequal positive counts
    config = LocConfig(hidden=5, pooling=pooling, lr_schedule=LOCKSTEP_SCHEDULE)
    seeds = [1000 + 7 * c for c in class_ids]
    _assert_lockstep_equals_reference(data, class_ids, config, seeds)


@pytest.mark.parametrize("pooling", ["global", "pixel"])
@pytest.mark.parametrize("size", [(3, 2), (1, 1)], ids=["3x2", "1x1"])
def test_lockstep_equals_the_per_class_loop_on_small_grids(pooling, size):
    """Datasets of one small grid shape: a non-square grid, and one-location
    grids, whose backward runs on a single row."""
    data = multi_class_dataset(sizes=(size,), seed=5)
    config = LocConfig(hidden=4, pooling=pooling, lr_schedule=LOCKSTEP_SCHEDULE)
    _assert_lockstep_equals_reference(data, [0, 1, 2], config, [3, 4, 5])


def _raw(rec):
    return SupervisionRecord(rec.image_id, FeatureGrid(rec.features.grid), rec.tags)


def _train_class_localizers(records):
    train_class_localizers([0, 1], records, LocConfig(hidden=4), [1, 2])


def _build_supervision_set(records):
    config = LocConfig(hidden=4)
    models = {c: new_localization_model(c, 6, config, seed=c) for c in range(4)}
    build_supervision_set(records, models, SamplingConfig(k=2), seed=1)


@pytest.mark.parametrize("consumer", [_train_class_localizers, _build_supervision_set],
                         ids=["train_class_localizers", "build_supervision_set"])
def test_records_of_one_grid_shape_and_unit_features_are_the_input(consumer):
    """Both lockstep cores check their records once, at entry: a second grid
    shape or raw features is a DataError naming the first image at fault."""
    mixed = multi_class_dataset(n=8, sizes=((4, 4), (4, 4), (4, 4), (3, 2)))
    with pytest.raises(DataError, match=r"^image 'im3': grid shape \(3, 2, 6\) differs "
                                        r"from \(4, 4, 6\) of image 'im0'"):
        consumer(mixed)
    deeper = multi_class_dataset(n=8) + multi_class_dataset(n=1, d=7)
    deeper[-1] = record("deep", deeper[-1].features, deeper[-1].tags.present)
    with pytest.raises(DataError, match=r"^image 'deep': grid shape \(4, 4, 7\)"):
        consumer(deeper)
    raw = multi_class_dataset(n=8)
    raw[5], raw[6] = _raw(raw[5]), _raw(raw[6])
    with pytest.raises(DataError, match="^image 'im5': expected unit-normalized features"):
        consumer(raw)


@pytest.mark.parametrize("pooling", ["global", "pixel"])
def test_lockstep_restarts_equal_the_per_class_loop(pooling, monkeypatch):
    data = multi_class_dataset(seed=8)
    class_ids, seeds = [0, 1, 2, 3], [11, 12, 13, 14]
    config = LocConfig(hidden=5, pooling=pooling, lr_schedule=LOCKSTEP_SCHEDULE)
    first = [r.epoch_losses[-1] for r in train_class_localizers(class_ids, data, config, seeds)]
    # every class restarts until MAX_RESTARTS; then only those above a
    # threshold between the first runs' final losses, a ragged number of times
    for threshold in (-1.0, sorted(first)[1]):
        monkeypatch.setattr(localization, "RESTART_LOSS_THRESHOLD", threshold)
        results = _assert_lockstep_equals_reference(data, class_ids, config, seeds)
        restarts = [r.restarts for r in results]
        if threshold < 0:
            assert restarts == [localization.MAX_RESTARTS] * 4
        else:
            assert 0 in restarts and max(restarts) > 0


def test_lockstep_models_do_not_alias():
    """Training one model further leaves the others' bytes unchanged."""
    data = multi_class_dataset()
    config = LocConfig(hidden=5, lr_schedule=LOCKSTEP_SCHEDULE)
    models = [r.model for r in train_class_localizers([0, 1, 2], data, config, [1, 2, 3])]
    before = [m.flat.tobytes() for m in models]
    x = data[0].features.grid.locations()
    _, grads = localizer_loss_and_grads(models[1], x, 1, StepWorkspace(1, len(x), models[1].dims))
    adam_step(models[1].flat, np.concatenate([g.ravel() for g in grads]), AdamState(lr=0.1))
    assert models[1].flat.tobytes() != before[1]
    assert [m.flat.tobytes() for m in (models[0], models[2])] == [before[0], before[2]]
    for a in models:
        for b in models:
            assert a is b or not np.shares_memory(a.flat, b.flat)


def test_a_lockstep_step_allocates_no_stacked_activations():
    """A step of four 16 x 16 images stacks them and runs its forward and
    backward in the lockstep's workspace: it allocates no (C, N, D) images
    and no (C, N, hidden) activations."""
    c, n, d, hidden = 4, 256, 48, 64
    rng = Rng(0x57E9)
    features = []
    for _ in range(c):
        vecs = rng.uniform_array(n * d, -1, 1).reshape(n, d)
        features.append(unit_grid(vecs / np.linalg.norm(vecs, axis=1, keepdims=True), (16, 16)))
    models = [new_localization_model(k, d, LocConfig(hidden=hidden), k) for k in range(c)]
    params = np.stack([m.flat for m in models])
    ws = StepWorkspace(c, n, models[0].dims)

    def step():
        x = ws.images(features)
        localization._loss_and_grads(params, "global", x, [1, 0, 1, 0], ws)

    step()
    _, peak = _traced_peak(step)
    assert peak < c * n * min(d, hidden) * 4


def test_a_diverging_class_is_named_with_its_step(monkeypatch):
    """In a lockstep group, the NumericError names the class whose scores
    went non-finite and the step, not the whole group."""
    from divseed.errors import NumericError

    make = localization.new_localization_model

    def poisoned(class_id, in_dim, config, seed):
        model = make(class_id, in_dim, config, seed)
        if class_id == 1:
            model.params()[2][0, 0] = np.inf  # an output weight
        return model

    monkeypatch.setattr(localization, "new_localization_model", poisoned)
    config = LocConfig(hidden=5, lr_schedule=LOCKSTEP_SCHEDULE)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError, match=r"^class 1: non-finite loss at step 1: "):
            train_class_localizers([0, 1, 2], multi_class_dataset(), config, [1, 2, 3])


def test_a_schedule_without_epochs_is_a_config_error():
    with pytest.raises(ConfigError, match="no epoch"):
        LocConfig(lr_schedule=((0, 1e-2),))
