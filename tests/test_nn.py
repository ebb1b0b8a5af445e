import copy
import dataclasses
import json
import math
import os
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from divseed import localization, nn
from divseed.errors import ConfigError, DataError
from divseed.localization import (
    LocalizationModel,
    LocTrainResult,
    StepWorkspace,
    load_loc_checkpoint,
    localizer_loss_and_grads,
    save_loc_checkpoint,
)
from divseed.nn import (
    MLP,
    AdamState,
    adam_step,
    bce_loss_and_grad,
    bce_pooled,
    global_softmax_prob,
    grad_check,
    linear_fwd,
    load_checkpoint,
    masked_ce_loss_and_grad,
    pixel_softmax_prob,
    save_checkpoint,
    softmax_ce_rows,
)
from divseed.rng import Rng
from divseed.segmentation import (
    SegConfig,
    SegmentationModel,
    SegTrainResult,
    HeadWorkspace,
    head_loss_and_grads,
    load_seg_checkpoint,
    save_seg_checkpoint,
)
from divseed.tensor import Grid, atomic_write, load_tensor, save_tensor
from test_tensor import _traced_peak


def sigmoid(u):
    return 1.0 / (1.0 + math.exp(-u))


def linear_forward(weights: np.ndarray, bias: np.ndarray, x: Grid) -> Grid:
    """linear_fwd applied to every location of a grid (same H, W)."""
    y = linear_fwd(weights, bias, x.locations().astype(np.float64))
    return Grid(y.reshape(x.height, x.width, weights.shape[0]).astype(np.float32))


# ---------------------------------------------------------------------------
# linear layers


def test_linear_identity():
    g = Grid(np.random.default_rng(0).normal(size=(2, 2, 3)).astype(np.float32))
    out = linear_forward(np.eye(3), np.zeros(3), g)
    assert np.allclose(out.values, g.values)


def test_linear_scalar_case():
    out = linear_forward(np.array([[2.0]]), np.array([1.0]),
                         Grid(np.full((1, 1, 1), 3.0, dtype=np.float32)))
    assert out.values[0, 0, 0] == pytest.approx(7.0)


def test_linear_single_location_is_matvec():
    rng = np.random.default_rng(3)
    w, b = rng.normal(size=(4, 6)), rng.normal(size=4)
    x = rng.normal(size=6).astype(np.float32)
    out = linear_forward(w, b, Grid(x.reshape(1, 1, 6)))
    assert np.allclose(out.values.ravel(), w @ x.astype(np.float64) + b, atol=1e-6)


def test_linear_depth_mismatch():
    with pytest.raises(DataError):
        linear_forward(np.eye(3), np.zeros(3), Grid(np.zeros((1, 1, 2), dtype=np.float32)))


# ---------------------------------------------------------------------------
# pooled probabilities


def test_pixel_pool_symmetric():
    s = np.array([1.0, -2.0, 0.3])
    p, trace = pixel_softmax_prob(s, s.copy())
    assert p == pytest.approx(0.5)
    assert trace.fg_loc == trace.bg_loc == 0  # tie -> lowest index


def test_pixel_pool_hand_values():
    p, trace = pixel_softmax_prob(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert p == pytest.approx(sigmoid(1.0))
    assert p == pytest.approx(0.731059, abs=1e-6)
    assert trace.fg_loc == 0
    p2, _ = pixel_softmax_prob(np.array([-3.0, 0.0]), np.array([0.0, 0.0]))
    assert p2 == pytest.approx(0.5)


def test_global_pool_hand_values():
    p, _ = global_softmax_prob(np.array([2.0, 1.0]), np.array([0.0, -1.0]))
    assert p == pytest.approx(math.exp(2) / (math.exp(2) + 1))
    assert p == pytest.approx(0.880797, abs=1e-6)

    s = np.array([[1.0, 3.0], [0.0, 1.0]])
    sbar = np.full((2, 2), 2.0)
    p, trace = global_softmax_prob(s, sbar)
    assert p == pytest.approx(math.exp(3) / (math.exp(3) + math.exp(2)))
    assert p == pytest.approx(0.731059, abs=1e-6)
    assert trace.fg_loc == 1  # flat index of s[0, 1]
    assert trace.bg_loc == 0  # tie among equal bg scores -> lowest index


def test_global_pool_symmetric():
    p, _ = global_softmax_prob(np.array([0.0, 2.0]), np.array([2.0, 1.0]))
    assert p == pytest.approx(0.5)


def test_pools_reject_empty_and_mismatch():
    with pytest.raises(DataError):
        pixel_softmax_prob(np.array([]), np.array([]))
    with pytest.raises(DataError):
        global_softmax_prob(np.array([1.0]), np.array([1.0, 2.0]))


# score range kept below the float64 sigmoid saturation point (|diff| ~ 36.7),
# past which the probability rounds to exactly 0/1 and the BCE clamp takes over
finite_scores = arrays(
    dtype=np.float64,
    shape=st.integers(1, 12),
    elements=st.floats(-15, 15, allow_nan=False),
)


@given(finite_scores, finite_scores, st.floats(-5, 5))
def test_pool_properties(fg, bg, shift):
    n = min(len(fg), len(bg))
    fg, bg = fg[:n], bg[:n]
    for pool in (pixel_softmax_prob, global_softmax_prob):
        p, _ = pool(fg, bg)
        assert 0.0 < p < 1.0
        q, _ = pool(fg + shift, bg + shift)
        assert abs(p - q) < 1e-9  # invariant to constant shifts


@given(st.floats(-20, 20), st.floats(-20, 20))
def test_pools_agree_on_single_location(a, b):
    p1, _ = pixel_softmax_prob(np.array([a]), np.array([b]))
    p2, _ = global_softmax_prob(np.array([a]), np.array([b]))
    assert abs(p1 - p2) < 1e-12


# ---------------------------------------------------------------------------
# pooled BCE


def test_bce_uniform():
    _, trace = pixel_softmax_prob(np.array([0.0]), np.array([0.0]))
    for label in (0, 1):
        lv = bce_loss_and_grad(0.5, label, trace, n_locations=1)
        assert lv.loss == pytest.approx(math.log(2))
        assert lv.loss == pytest.approx(0.693147, abs=1e-6)


def test_bce_hand_value():
    p = math.exp(2) / (math.exp(2) + 1)
    _, trace = global_softmax_prob(np.array([2.0]), np.array([0.0]))
    lv = bce_loss_and_grad(p, 1, trace, n_locations=1)
    assert lv.loss == pytest.approx(-math.log(p))
    assert lv.loss == pytest.approx(0.126928, abs=1e-6)


def test_bce_grad_zero_off_argmax():
    fg = np.array([0.1, 2.0, -1.0, 0.5])
    bg = np.array([0.0, 0.0, 3.0, 0.0])
    p, trace = global_softmax_prob(fg, bg)
    lv = bce_loss_and_grad(p, 1, trace, n_locations=4)
    for name, hot in (("fg", 1), ("bg", 2)):
        g = lv.grads[name]
        mask = np.ones(4, dtype=bool)
        mask[hot] = False
        assert np.all(g[mask] == 0.0)  # exactly zero, not just small
        assert g[hot] != 0.0


def test_bce_clamp_counted():
    _, trace = pixel_softmax_prob(np.array([60.0]), np.array([0.0]))
    lv = bce_loss_and_grad(1.0 - 1e-12, 0, trace, n_locations=1)
    assert lv.clamp_events == 1
    assert math.isfinite(lv.loss)


def test_bce_pooled_is_the_scalars_of_the_routed_loss():
    for p, label in ((0.3, 1), (0.3, 0), (1.0 - 1e-12, 0), (0.0, 0), (1.0, 1)):
        _, trace = pixel_softmax_prob(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
        lv = bce_loss_and_grad(p, label, trace, n_locations=2)
        loss, g, events = bce_pooled(p, label)
        assert (loss, events) == (lv.loss, lv.clamp_events)
        assert lv.grads["fg"][trace.fg_loc] == g
        assert np.signbit(lv.grads["bg"][trace.bg_loc]) == np.signbit(0.0 - g)


# ---------------------------------------------------------------------------
# masked cross-entropy


def test_masked_ce_empty():
    lv = masked_ce_loss_and_grad(np.zeros((5, 3)), [])
    assert lv.loss == 0.0
    assert np.all(lv.grads["logits"] == 0.0)


def test_masked_ce_uniform_21_classes():
    lv = masked_ce_loss_and_grad(np.zeros((4, 21)), [(2, 7)])
    assert lv.loss == pytest.approx(math.log(21))
    assert lv.loss == pytest.approx(3.044522, abs=1e-6)


def test_masked_ce_duplicate_labels_keep_mean():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(6, 4))
    labels = [(0, 1), (3, 2), (5, 0)]
    a = masked_ce_loss_and_grad(logits, labels)
    b = masked_ce_loss_and_grad(logits, labels + labels)
    assert a.loss == pytest.approx(b.loss)


def test_masked_ce_grad_exactly_zero_at_unlabeled():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(10, 5))
    labels = [(2, 3), (7, 0)]
    lv = masked_ce_loss_and_grad(logits, labels)
    unlabeled = [i for i in range(10) if i not in (2, 7)]
    assert np.all(lv.grads["logits"][unlabeled] == 0.0)


def test_masked_ce_range_checks():
    with pytest.raises(DataError):
        masked_ce_loss_and_grad(np.zeros((3, 2)), [(3, 0)])
    with pytest.raises(DataError):
        masked_ce_loss_and_grad(np.zeros((3, 2)), [(0, 2)])


def test_masked_ce_takes_pairs_or_an_array():
    rng = Rng(0x3A5)
    logits = rng.uniform_array(8 * 4, -2, 2).reshape(8, 4)
    pairs = [(0, 1), (3, 3), (3, 3), (7, 0)]  # one duplicate
    a = masked_ce_loss_and_grad(logits, pairs)
    b = masked_ce_loss_and_grad(logits, np.array(pairs, dtype=np.int64))
    assert a.loss == b.loss
    assert a.grads["logits"].tobytes() == b.grads["logits"].tobytes()
    empty = masked_ce_loss_and_grad(logits, np.empty((0, 2), dtype=np.int64))
    assert empty.loss == 0.0 and not empty.grads["logits"].any()


def _reference_ce(logits, cls):
    """The every-row cross-entropy out of place, one new array per
    operation: the reference."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1))[:, None]
    picked = np.arange(len(cls)), cls
    loss = -float(log_probs[picked].sum() / len(cls))
    grad = np.exp(log_probs)
    grad[picked] -= 1.0
    grad /= len(cls)
    return loss, grad


@pytest.mark.parametrize("m", [1, 9, 100])
def test_softmax_ce_rows_in_place_equals_the_reference(m):
    rng = Rng(0xCE + m)
    logits = rng.uniform_array(m * 5, -20, 20).reshape(m, 5)
    cls = np.array([rng.randint(5) for _ in range(m)], dtype=np.int64)
    loss, grad = _reference_ce(logits, cls)
    assert softmax_ce_rows(logits, cls)[0] == loss
    assert softmax_ce_rows(logits, cls)[1].tobytes() == grad.tobytes()
    buffer = logits.copy()
    got_loss, got = softmax_ce_rows(buffer, cls, out=buffer)
    assert got is buffer
    assert got_loss == loss and got.tobytes() == grad.tobytes()
    every_row = masked_ce_loss_and_grad(logits, np.stack([np.arange(m), cls], axis=1))
    assert every_row.loss == loss and every_row.grads["logits"].tobytes() == grad.tobytes()


# ---------------------------------------------------------------------------
# Adam


def test_adam_first_step_closed_form():
    for g0 in (0.3, -2.0, 1e-3):
        params = np.full(4, 5.0)
        state = AdamState(lr=0.01)
        adam_step(params, np.full(4, g0), state)
        expected = 5.0 - 0.01 * g0 / (abs(g0) + state.eps)
        assert np.allclose(params, expected)
        assert state.t == 1


def test_adam_zero_gradient_nearly_static():
    state = AdamState(lr=0.1)
    adam_step(np.ones(3), np.ones(3), state)
    drift = np.ones(3)
    adam_step(drift, np.zeros(3), state)
    assert np.max(np.abs(drift - 1.0)) < 0.1  # only the decayed-moment term


def test_adam_deterministic():
    def run():
        rng = Rng(11)
        p = rng.uniform_array(6)
        s = AdamState(lr=0.05)
        for _ in range(10):
            adam_step(p, rng.uniform_array(6, -1, 1), s)
        return p

    assert np.array_equal(run(), run())


def test_adam_shape_mismatch():
    with pytest.raises(DataError):
        adam_step(np.zeros(2), np.zeros(3), AdamState(lr=0.1))
    state = AdamState(lr=0.1)
    adam_step(np.zeros(2), np.ones(2), state)
    with pytest.raises(DataError):
        adam_step(np.zeros(3), np.ones(3), state)


def test_adam_allocates_nothing_parameter_sized_after_its_first_step():
    params = np.zeros(20_000)
    state = AdamState(lr=0.1)
    adam_step(params, np.ones(20_000), state)
    _, peak = _traced_peak(adam_step, params, np.full(20_000, 0.5), state)
    assert peak < params.nbytes


def test_adam_keep_shrinks_moments_and_scratch():
    stack = np.zeros((3, 4))
    state = AdamState(lr=np.full(3, 0.1))
    state.keep([0, 2])  # before the first step: nothing to shrink
    assert state.m is None
    adam_step(stack, np.ones((3, 4)), state)
    state.keep([0, 2])
    assert state.m.shape == state.v.shape == (2, 4)
    assert [a.shape for a in state.scratch] == [(2, 4), (2, 4)]
    state.lr = np.full(2, 0.1)
    adam_step(stack[[0, 2]], np.ones((2, 4)), state)


def _per_array_adam(params, grads, state, moments):
    """Adam applied one parameter array at a time, in the gradients' dtype,
    in Kingma & Ba's reordered form (section 2), each update subtracted from
    its parameter array in the parameters' dtype: the reference update."""
    if not moments:
        moments["m"] = [np.zeros_like(g) for g in grads]
        moments["v"] = [np.zeros_like(g) for g in grads]
    m, v = moments["m"], moments["v"]
    state.t += 1
    t = state.t
    root = math.sqrt(1 - state.beta2 ** t)
    alpha_t = state.lr * (root / (1 - state.beta1 ** t))
    eps_hat = state.eps * root
    out = []
    for i, (p, g) in enumerate(zip(params, grads)):
        m[i] = state.beta1 * m[i] + (1 - state.beta1) * g
        v[i] = state.beta2 * v[i] + (1 - state.beta2) * g * g
        out.append(p - alpha_t * m[i] / (np.sqrt(v[i]) + eps_hat))
    return out


def test_adam_equals_the_per_array_update_past_its_rounded_bias_correction():
    """From step 356, 1 - 0.9 ** t is 1.0, so the step size alpha_t is
    lr * sqrt(1 - 0.999 ** t); every step still has the reference's bits."""
    rng = Rng(0xB1A5)
    params = rng.uniform_array(40, -1, 1)
    ref, ref_state, moments = [params.copy()], AdamState(lr=1e-2), {}
    state = AdamState(lr=1e-2)
    for _ in range(400):
        g = rng.uniform_array(40, -1, 1)
        adam_step(params, g, state)
        ref = _per_array_adam(ref, [g], ref_state, moments)
        assert params.tobytes() == ref[0].tobytes()
    assert 1 - state.beta1 ** state.t == 1.0


@pytest.mark.parametrize("rows", [None, 3])
def test_float32_gradients_give_a_float32_adam_that_allocates_nothing_after_its_first_step(rows):
    """Float32 gradients, as a training step gives them: the moments and the
    update are float32 and only the update meets the float64 parameters. A
    flat buffer (rows None) and a (3, P) stack with a rate per row equal,
    row by row, the float32 per-array reference bit for bit over 400 steps,
    past the step where 1 - 0.9 ** t rounds to 1; no step after the first
    allocates as much as a tenth of a row."""
    rng = Rng(0xF1A7)
    n = 4096
    lrs = [2e-2, 5e-3, 1e-3][: rows or 1]
    shape = (rows, n) if rows else (n,)
    params = rng.uniform_array(math.prod(shape), -1, 1).reshape(shape)
    refs = [[row.copy()] for row in params.reshape(-1, n)]
    ref_states, moments = [AdamState(lr=lr) for lr in lrs], [{} for _ in lrs]
    state = AdamState(lr=np.array(lrs) if rows else lrs[0])
    peaks = []
    for step in range(400):
        grads = rng.uniform_array(math.prod(shape), -1, 1).reshape(shape).astype(np.float32)
        if step < 2:
            adam_step(params, grads, state)
        else:
            peaks.append(_traced_peak(adam_step, params, grads, state)[1])
        for c, g in enumerate(grads.reshape(-1, n)):
            refs[c] = _per_array_adam(refs[c], [g], ref_states[c], moments[c])
            assert params.reshape(-1, n)[c].tobytes() == refs[c][0].tobytes()
    assert state.m.dtype == state.v.dtype == np.float32
    assert [a.dtype for a in state.scratch] == [np.float32, np.float32, np.float64]
    assert max(peaks) < n * 4 // 10
    assert 1 - state.beta1 ** state.t == 1.0


def test_flat_adam_equals_per_array_update_bitwise():
    """In place on one flat buffer (P,) and on a (C, P) stack with a rate per
    row, across a mid-run lr drop: each row equals its own per-array run."""
    rng = Rng(0xADA)
    shapes = [(5, 7), (5,), (2, 5), (2,)]
    lrs = [(2e-2, 2e-3), (5e-2, 1e-3), (2e-2, 2e-3)]  # per row: before, after
    model = MLP.initialized(1, 7, 5, 2)
    assert [p.shape for p in model.params()] == shapes
    refs = [[rng.uniform_array(int(np.prod(s)), -1, 1).reshape(s) for s in shapes]
            for _ in lrs]
    ref_states = [AdamState(lr=lr) for lr, _ in lrs]
    moments = [{} for _ in lrs]
    stack = np.stack([np.concatenate([p.ravel() for p in ref]) for ref in refs])
    flat = stack[0].copy()
    stack_state = AdamState(lr=np.array([lr for lr, _ in lrs]))
    flat_state = AdamState(lr=lrs[0][0])
    for step in range(6):
        if step == 3:  # lr drop mid-run, moments kept
            stack_state.lr = np.array([lr for _, lr in lrs])
            flat_state.lr = lrs[0][1]
            for state, (_, lr) in zip(ref_states, lrs):
                state.lr = lr
        grads = [[rng.uniform_array(int(np.prod(s)), -3, 3).reshape(s) for s in shapes]
                 for _ in lrs]
        for g in grads:
            g[1][step % 5] = 0.0
        stacked_grads = np.stack([np.concatenate([a.ravel() for a in g]) for g in grads])
        adam_step(stack, stacked_grads, stack_state)
        adam_step(flat, stacked_grads[0].copy(), flat_state)
        for c in range(len(lrs)):
            refs[c] = _per_array_adam(refs[c], grads[c], ref_states[c], moments[c])
            for a, b in zip(model.views(stack[c]), refs[c]):
                assert a.shape == b.shape
                assert a.tobytes() == b.tobytes()
        for a, b in zip(model.views(flat), refs[0]):
            assert a.tobytes() == b.tobytes()
    assert stack_state.t == flat_state.t == ref_states[0].t == 6
    for c in range(len(lrs)):
        m = np.concatenate([a.ravel() for a in moments[c]["m"]])
        v = np.concatenate([a.ravel() for a in moments[c]["v"]])
        assert stack_state.m[c].tobytes() == m.tobytes()
        assert stack_state.v[c].tobytes() == v.tobytes()
    assert flat_state.m.tobytes() == stack_state.m[0].tobytes()


# ---------------------------------------------------------------------------
# flat parameter buffers


def _separate_arrays(seed, shapes=((5, 7), (5,), (2, 5), (2,))):
    rng = Rng(seed)
    return [rng.uniform_array(int(np.prod(s)), -1, 1).reshape(s) for s in shapes]


def _assert_views_of_flat(model, arrays):
    assert model.flat.dtype == np.float64 and model.flat.flags.c_contiguous
    assert model.flat.tobytes() == np.concatenate([a.ravel() for a in arrays]).tobytes()
    for p, a in zip(model.params(), arrays):
        assert p.shape == a.shape
        assert p.tobytes() == a.tobytes()
        assert np.shares_memory(p, model.flat)


def test_mlp_is_its_flat_buffer():
    """params() are views of flat, computed on each call: writing into them
    or into flat is one write, and a clone has a buffer of its own."""
    arrays = _separate_arrays(0xF1A7)
    flat = np.concatenate([a.ravel() for a in arrays])
    model = MLP(flat=flat, dims=(7, 5, 2), seed=0)
    assert model.flat is flat
    _assert_views_of_flat(model, arrays)

    new = _separate_arrays(0xF1A8)
    for view, a in zip(model.params(), new):
        view[...] = a
    _assert_views_of_flat(model, new)

    for clone in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model)):
        _assert_views_of_flat(clone, new)
        assert not np.shares_memory(clone.flat, model.flat)
        assert (clone.dims, clone.seed) == (model.dims, model.seed)


@pytest.mark.parametrize("flat", [np.zeros(51), np.zeros(53), np.zeros((1, 52)),
                                  np.zeros(52, np.float32)],
                         ids=["short", "long", "stacked", "float32"])
def test_mlp_refuses_a_buffer_that_is_not_its_parameters(flat):
    """52 float64 parameters for dims (7, 5, 2), on one axis, or DataError."""
    assert MLP(flat=np.zeros(52), dims=(7, 5, 2), seed=0).flat.size == 52
    with pytest.raises(DataError):
        MLP(flat=flat, dims=(7, 5, 2), seed=0)


def test_mlp_views_lay_its_shapes_over_a_stack():
    model = MLP.initialized(3, 7, 5, 2)
    stack = np.arange(3 * model.flat.size, dtype=np.float64).reshape(3, -1)
    for c in range(3):
        for view, row_view in zip(model.views(stack), model.views(stack[c])):
            assert view.shape == (3,) + row_view.shape
            assert np.shares_memory(view, stack)
            assert view[c].tobytes() == row_view.tobytes()


def test_grad_check_keeps_its_base_point_when_the_loss_sets_the_model():
    """Given a model's own buffer, a loss that writes its argument into that
    model (as the gradient checks of the trainers do) is evaluated at the
    base point and at one bumped coordinate at a time."""
    model = MLP.initialized(5, 4, 3, 2)
    base = model.flat.copy()
    seen = []

    def fn(flat):
        model.flat[:] = flat
        seen.append(model.flat.copy())
        return float(model.flat @ model.flat), 2.0 * model.flat

    assert grad_check(fn, model.flat, Rng(1), n_coords=12) < 1e-6
    assert seen[0].tobytes() == base.tobytes()
    for bumped in seen[1:]:
        assert np.count_nonzero(bumped != base) == 1


# ---------------------------------------------------------------------------
# gradient checking


def _mlp_masked_loss(x, labels, dims):
    """The head's training loss on the labeled (location, class) rows."""
    locs, classes = np.array(labels).T

    def fn(flat):
        model = SegmentationModel(flat, dims, 0, class_ids=(0, 1, 2), global_dim=0)
        ws = HeadWorkspace(model, len(locs), np.float64)
        lv, grad = head_loss_and_grads(model, x[locs], classes, ws)
        return lv.loss, grad

    return fn


def _pooled_bce_loss(x, pooling, label, dims):
    """The localizer's training loss."""
    def fn(flat):
        model = LocalizationModel(flat, dims, 0, class_id=0, pooling=pooling)
        ws = StepWorkspace(1, x.shape[0], model.dims, np.float64)
        lv, grad = localizer_loss_and_grads(model, x, label, ws)
        return lv.loss, grad

    return fn


def random_net(seed, d=6, h=5, out=4, n=12):
    """An initialized MLP of dims (d, h, out), its biases then drawn
    non-zero so their gradients are exercised away from 0, and n input
    rows; all from the one stream Rng(seed), in that order."""
    model = MLP.initialized(seed, d, h, out)
    rng = Rng(seed)
    rng.next_u64_array(h * d + out * h)  # the weights' draws
    _, b1, _, b2 = model.params()
    b1[:] = rng.uniform_array(h, -0.3, 0.3)
    b2[:] = rng.uniform_array(out, -0.3, 0.3)
    return rng.uniform_array(n * d, -1, 1).reshape(n, d), model


def test_grad_check_masked_ce():
    x, net = random_net(2)
    labels = [(0, 1), (4, 3), (7, 0), (11, 2)]
    err = grad_check(_mlp_masked_loss(x, labels, net.dims), net.flat, Rng(3), n_coords=120)
    assert err < 1e-4


@pytest.mark.parametrize("pool_name", ["pixel", "global"])
def test_grad_check_pooled_bce(pool_name):
    x, net = random_net(5, out=2)
    err = grad_check(_pooled_bce_loss(x, pool_name, 1, net.dims), net.flat, Rng(7),
                     n_coords=120)
    assert err < 1e-4


def test_grad_check_constant_loss():
    def fn(flat):
        return 1.5, np.zeros_like(flat)

    err = grad_check(fn, np.ones(9), Rng(0))
    assert err < 1e-8


# ---------------------------------------------------------------------------
# compute precision: the steps train in float32 workspaces and are checked in
# float64 ones, so the two must give one loss and one gradient


def _assert_close_to_float32_precision(steps):
    """steps: (loss, gradient buffer) by workspace dtype."""
    (loss32, grad32), (loss64, grad64) = steps[np.float32], steps[np.float64]
    assert grad32.dtype == np.float32 and grad64.dtype == np.float64
    assert loss32 == pytest.approx(loss64, rel=1e-5)
    scale = np.abs(grad64).max(axis=-1, keepdims=True)
    assert scale.min() > 0.0
    assert np.all(np.abs(grad32 - grad64) <= 1e-5 * scale)


@pytest.mark.parametrize("pooling", ["global", "pixel"])
def test_a_lockstep_step_gives_one_loss_and_gradient_in_both_precisions(pooling):
    """One step of three localizers on three 8 x 8 images, in a float32 and
    a float64 StepWorkspace: the same losses and (C, P) gradients, to
    float32 precision."""
    c, n, d, hidden = 3, 64, 12, 16
    rng = Rng(0xF32)
    models = [LocalizationModel.initialized(100 + k, d, hidden, 2, class_id=k, pooling=pooling)
              for k in range(c)]
    for m in models:
        m.params()[1][:] = rng.uniform_array(hidden, -0.3, 0.3)  # mixed ReLU mask
    params = np.stack([m.flat for m in models])
    vecs = rng.uniform_array(c * n * d, -1, 1).reshape(c, n, d)
    x = (vecs / np.linalg.norm(vecs, axis=2, keepdims=True)).astype(np.float32)
    steps = {}
    for dtype in (np.float32, np.float64):
        ws = StepWorkspace(c, n, models[0].dims, dtype)
        ws.x[:] = x
        losses, _ = localization._loss_and_grads(params, pooling, ws.x, [1, 0, 1], ws)
        steps[dtype] = sum(losses), ws.grad.copy()
    _assert_close_to_float32_precision(steps)


def test_a_head_batch_gives_one_loss_and_gradient_in_both_precisions():
    """One batch of 50 points through the head's step, in a float32 and a
    float64 HeadWorkspace: the same loss and gradient, to float32
    precision."""
    rng = Rng(0x4EAD)
    model = SegmentationModel.initialized(7, 24, 32, 4, class_ids=(0, 1, 2), global_dim=12)
    model.params()[1][:] = rng.uniform_array(32, -0.3, 0.3)
    x = rng.uniform_array(50 * 24, -1, 1).reshape(50, 24).astype(np.float32)
    y = np.array([rng.randint(4) for _ in range(50)], dtype=np.int64)
    steps = {}
    for dtype in (np.float32, np.float64):
        ws = HeadWorkspace(model, 50, dtype)
        ws.x[:] = x
        lv, _ = head_loss_and_grads(model, ws.x, y, ws)
        steps[dtype] = lv.loss, ws.grad.copy()
    _assert_close_to_float32_precision(steps)


# ---------------------------------------------------------------------------
# checkpoints


def _f32_params(model, seed):
    """Random float32-representable parameters, so a float32 checkpoint
    holds them exactly."""
    model.flat[:] = Rng(seed).uniform_array(model.flat.size, -1, 1).astype(np.float32)
    return model


def test_checkpoint_round_trip(tmp_path):
    model = _f32_params(MLP.initialized(9, 4, 3, 2), 1)
    save_checkpoint(tmp_path / "ck", model, {"kind": "test", "note": [1]})
    fields, meta = load_checkpoint(tmp_path / "ck", "test")
    assert meta == {"kind": "test", "note": [1], "in_dim": 4, "hidden": 3, "out_dim": 2,
                    "seed": 9}
    loaded = MLP(**fields)
    assert loaded.seed == 9
    for a, b in zip(loaded.params(), model.params()):
        assert a.dtype == np.float64
        assert a.tobytes() == b.tobytes()


def _loc_checkpoint():
    model = LocalizationModel.initialized(3, 6, 5, 2, class_id=2, pooling="pixel")
    save = lambda path, m: save_loc_checkpoint(path, LocTrainResult(m, [0.5], ["x"]))
    return model, save, load_loc_checkpoint


def _seg_checkpoint():
    model = SegmentationModel.initialized(4, 6, 5, 4, class_ids=(0, 2, 1), global_dim=3)
    save = lambda path, m: save_seg_checkpoint(path, SegTrainResult(m, [0.5], 0.0), SegConfig())
    return model, save, load_seg_checkpoint


# the file names are part of the checkpoint format
@pytest.mark.parametrize("make", [_loc_checkpoint, _seg_checkpoint],
                         ids=["localization", "segmentation"])
def test_model_checkpoint_round_trips_bitwise(tmp_path, make):
    model, save, load = make()
    _f32_params(model, 2)
    save(tmp_path / "ck", model)
    assert sorted(os.listdir(tmp_path / "ck")) == ["meta.json", "params.dstn"]
    # params.dstn is the flat buffer: params() in order, as one float32 axis
    assert load_tensor(tmp_path / "ck" / "params.dstn").tobytes() == \
        model.flat.astype(np.float32).tobytes()
    loaded = load(tmp_path / "ck")
    assert type(loaded) is type(model)
    for a, b in zip(loaded.params(), model.params()):
        assert a.tobytes() == b.tobytes()
        assert np.shares_memory(a, loaded.flat)

    def other_fields(m):
        return {f.name: getattr(m, f.name) for f in dataclasses.fields(m)
                if f.name != "flat"}

    assert other_fields(loaded) == other_fields(model)


@pytest.mark.parametrize("make,where", [(_loc_checkpoint, "loc/class_2"),
                                        (_seg_checkpoint, "seg.ckpt")],
                         ids=["localization", "segmentation"])
def test_a_failed_checkpoint_write_keeps_the_old_pair(tmp_path, monkeypatch, make, where):
    """save_json raising halfway through meta.json, after params.dstn is
    written, leaves the earlier checkpoint loading unchanged (or, with none
    before, none) and no temporary directory beside it."""
    model, save, load = make()
    path = tmp_path / where
    save(path, _f32_params(model, 2))
    before = {name: (path / name).read_bytes() for name in ("meta.json", "params.dstn")}
    params_before = [p.tobytes() for p in model.params()]

    def half_json(doc, json_path):
        with atomic_write(json_path) as fh:
            fh.write('{"kind": ')
            raise OSError("disk full")

    monkeypatch.setattr(nn, "save_json", half_json)
    for target in (path, tmp_path / "fresh.ckpt"):
        with pytest.raises(OSError, match="disk full"):
            save(target, _f32_params(model, 3))
    assert {name: (path / name).read_bytes() for name in before} == before
    assert [p.tobytes() for p in load(path).params()] == params_before
    assert not (tmp_path / "fresh.ckpt").exists()
    assert sorted(os.listdir(path.parent)) == [path.name]


def test_a_checkpoint_is_not_written_over_other_files(tmp_path):
    """A path that is a file, or a directory holding anything beyond a
    checkpoint's two files, is refused with ConfigError and left as it was."""
    model = _f32_params(MLP.initialized(9, 4, 3, 2), 1)
    ck = tmp_path / "ck"
    save_checkpoint(ck, model, {"kind": "test"})
    (ck / "notes.txt").write_text("kept\n")
    (tmp_path / "file").write_text("kept\n")
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    for target in (ck, tmp_path / "file", tmp_path):
        with pytest.raises(ConfigError, match="not a checkpoint directory"):
            save_checkpoint(target, model, {"kind": "test"})
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


def test_a_failed_swap_puts_the_old_checkpoint_back(tmp_path, monkeypatch):
    """When the new directory cannot be renamed into place, the old one is
    renamed back, and nothing else is left beside it."""
    model = _f32_params(MLP.initialized(9, 4, 3, 2), 1)
    ck = tmp_path / "ck"
    save_checkpoint(ck, model, {"kind": "test"})
    before = {name: (ck / name).read_bytes() for name in ("meta.json", "params.dstn")}
    rename = os.rename

    def failing_rename(src, dst):
        if os.fspath(src).endswith(f".tmp{os.getpid()}"):
            raise OSError("rename failed")
        rename(src, dst)

    monkeypatch.setattr(nn.os, "rename", failing_rename)
    with pytest.raises(OSError, match="rename failed"):
        save_checkpoint(ck, _f32_params(model, 3), {"kind": "test"})
    monkeypatch.undo()
    assert {name: (ck / name).read_bytes() for name in ("meta.json", "params.dstn")} == before
    assert os.listdir(tmp_path) == ["ck"]


def test_load_checkpoint_rejects_the_wrong_kind(tmp_path):
    for make, other_load in ((_loc_checkpoint, load_seg_checkpoint),
                             (_seg_checkpoint, load_loc_checkpoint)):
        model, save, _ = make()
        path = tmp_path / type(model).__name__
        save(path, model)
        with pytest.raises(DataError, match="checkpoint"):
            other_load(path)
    (path / "meta.json").write_text('{"kind": "segm')
    with pytest.raises(DataError, match="not valid JSON"):
        load_seg_checkpoint(path)
    (path / "meta.json").write_bytes(b'{"kind": "\xc0"}')  # not UTF-8
    with pytest.raises(DataError, match="not valid JSON"):
        load_seg_checkpoint(path)


_MISSING = object()


# every meta key a loader reads, missing or of the wrong kind
@pytest.mark.parametrize("make, key, value", [
    (_loc_checkpoint, "seed", _MISSING),
    (_loc_checkpoint, "seed", "3"),
    (_loc_checkpoint, "class_id", _MISSING),
    (_loc_checkpoint, "class_id", 2.5),
    (_loc_checkpoint, "pooling", _MISSING),
    (_loc_checkpoint, "pooling", "avg"),
    (_seg_checkpoint, "seed", _MISSING),
    (_seg_checkpoint, "seed", True),
    (_seg_checkpoint, "class_ids", _MISSING),
    (_seg_checkpoint, "class_ids", 3),
    (_seg_checkpoint, "class_ids", [0, "2"]),
    (_seg_checkpoint, "global_dim", _MISSING),
    (_seg_checkpoint, "global_dim", 3.0),
] + [
    (make, key, value)
    for make in (_loc_checkpoint, _seg_checkpoint)
    for key in ("in_dim", "hidden", "out_dim")
    for value in (_MISSING, 2.5, 0)
], ids=lambda v: "missing" if v is _MISSING else None)
def test_bad_checkpoint_meta_is_data_error_naming_file_and_key(tmp_path, make, key, value):
    model, save, load = make()
    save(tmp_path / "ck", model)
    meta_path = tmp_path / "ck" / "meta.json"
    meta = json.loads(meta_path.read_text())
    if value is _MISSING:
        del meta[key]
    else:
        meta[key] = value
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(DataError) as err:
        load(tmp_path / "ck")
    assert str(meta_path) in str(err.value)
    assert repr(key) in str(err.value)


def test_output_width_must_fit_the_model_kind(tmp_path):
    """A localizer has two outputs and a head one per class plus background,
    else a DataError names meta.json and out_dim."""
    model = LocalizationModel.initialized(3, 6, 5, 3, class_id=2, pooling="pixel")
    save_loc_checkpoint(tmp_path / "loc", LocTrainResult(model, [0.5], ["x"]))
    model, save, _ = _seg_checkpoint()
    save(tmp_path / "seg", model)
    meta_path = tmp_path / "seg" / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["class_ids"].append(3)
    meta_path.write_text(json.dumps(meta))
    for path, load in ((tmp_path / "loc", load_loc_checkpoint),
                       (tmp_path / "seg", load_seg_checkpoint)):
        with pytest.raises(DataError) as err:
            load(path)
        assert str(path / "meta.json") in str(err.value)
        assert "'out_dim'" in str(err.value)


@pytest.mark.parametrize("make", [_loc_checkpoint, _seg_checkpoint],
                         ids=["localization", "segmentation"])
@pytest.mark.parametrize("shape", ["short", "long", "two-axis"])
def test_params_of_the_wrong_size_are_data_error_naming_the_file(tmp_path, make, shape):
    model, save, load = make()
    save(tmp_path / "ck", model)
    params = tmp_path / "ck" / "params.dstn"
    flat = load_tensor(params)
    edited = {"short": flat[:-1], "long": np.append(flat, 1.0),
              "two-axis": flat.reshape(1, -1)}[shape]
    save_tensor(edited, params)
    with pytest.raises(DataError) as err:
        load(tmp_path / "ck")
    assert str(params) in str(err.value)
