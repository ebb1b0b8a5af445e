"""The per-class localizer training loop, as it was written before the
localizers of one pooling trained in lockstep.

One class at a time, one image per step: a 2-D forward over the image's
float32 locations with the float64 parameters rounded to float32, pooled
BCE on the scores read as float64, the two-row float32 backward, then Adam
in float32 over the gradient arrays concatenated into one vector, its update
subtracted from the float64 parameters concatenated likewise and split
again. Restarts retrain the class from its derived seed. It is kept as the
oracle for `localization.train_class_localizers` and stays structurally
independent of it: plain 2-D products, its own Adam, separate parameter
arrays.
"""

import math

import numpy as np

from divseed import localization
from divseed.errors import DataError
from divseed.localization import new_localization_model
from divseed.nn import bce_loss_and_grad, global_softmax_prob, pixel_softmax_prob
from divseed.rng import Rng, derive_seed


def pooled_probability(pooling, fg, bg):
    """The pooled presence probability and its trace, by pooling mode."""
    if pooling == "pixel":
        return pixel_softmax_prob(fg, bg)
    if pooling == "global":
        return global_softmax_prob(fg, bg)
    raise DataError(f"unknown pooling mode {pooling!r}")


def reference_train_localizer(class_id, records, config, seed):
    """(params, epoch_losses, negative_ids, clamp_events, restarts) of one
    class trained on SupervisionRecords; params are the four arrays hidden
    W, hidden b, out W, out b."""
    run = _train_once(class_id, records, config, seed)
    attempt = 0
    while (run[1][-1] > localization.RESTART_LOSS_THRESHOLD
           and attempt < localization.MAX_RESTARTS):
        attempt += 1
        run = _train_once(class_id, records, config, derive_seed(seed, 0x7E57A47 + attempt))
    return run + (attempt,)


def _train_once(class_id, records, config, seed):
    positives = [r for r in records if class_id in r.tags]
    negative_pool = [r for r in records if class_id not in r.tags]
    if not positives or not negative_pool:
        raise DataError(f"class {class_id}: no positive or no negative images")
    rng = Rng(derive_seed(seed, 0x10C))
    n_pos = len(positives)
    if len(negative_pool) >= n_pos:
        chosen = rng.sample_indices(len(negative_pool), n_pos)
    else:
        chosen = [rng.randint(len(negative_pool)) for _ in range(n_pos)]
    negatives = [negative_pool[i] for i in chosen]

    model = new_localization_model(
        class_id, records[0].features.depth, config, derive_seed(seed, 0x1417)
    )
    params = [p.copy() for p in model.params()]
    batches = [(r.features, 1) for r in positives] + [(r.features, 0) for r in negatives]
    epoch_losses, clamp_events, adam = [], 0, None
    for epochs, lr in config.lr_schedule:
        for _ in range(epochs):
            adam = {"lr": lr, "t": 0, "m": None, "v": None} if adam is None else adam
            adam["lr"] = lr
            order = list(range(len(batches)))
            rng.shuffle(order)
            total = 0.0
            for bi in order:
                f, label = batches[bi]
                x = f.locations()
                loss, clamped, grads = _loss_and_grads(params, config.pooling, x, label)
                params = _adam(params, grads, adam)
                clamp_events += clamped
                total += loss
            epoch_losses.append(total / len(batches))
    return params, epoch_losses, [r.image_id for r in negatives], clamp_events


def _loss_and_grads(params, pooling, x, label):
    w1, b1, w2, b2 = (p.astype(np.float32) for p in params)
    h1 = x @ w1.T
    h1 += b1
    a1 = np.maximum(h1, 0.0)
    y = a1 @ w2.T
    y += b2
    y = y.astype(np.float64)
    p, trace = pooled_probability(pooling, y[:, 0], y[:, 1])
    lv = bce_loss_and_grad(p, label, trace, n_locations=x.shape[0])
    rows = _gradient_rows(trace.fg_loc, trace.bg_loc, x.shape[0])
    dy = np.stack([lv.grads["fg"][rows], lv.grads["bg"][rows]], axis=1).astype(np.float32)
    dw2, db2 = dy.T @ a1[rows], dy.sum(axis=0)
    dh1 = (dy @ w2) * (h1[rows] > 0.0)
    dw1, db1 = dh1.T @ x[rows], dh1.sum(axis=0)
    return lv.loss, lv.clamp_events, [dw1, db1, dw2, db2]


def _gradient_rows(fg_loc, bg_loc, n):
    a, b = sorted((fg_loc, bg_loc))
    if a != b:
        return [a, b]
    if n == 1:
        return [a]
    return [a, a + 1] if a + 1 < n else [a - 1, a]


def _adam(params, grads, state, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam in Kingma & Ba's reordered form: the bias corrections in the
    step size, eps scaled to match; the moments and the update in the
    gradients' float32, the update subtracted from the float64 parameters."""
    p = np.concatenate([a.ravel() for a in params])
    g = np.concatenate([a.ravel() for a in grads])
    if state["m"] is None:
        state["m"], state["v"] = np.zeros_like(g), np.zeros_like(g)
    state["t"] += 1
    t, m, v = state["t"], state["m"], state["v"]
    m *= beta1
    m += (1 - beta1) * g
    v *= beta2
    gg = (1 - beta2) * g
    gg *= g
    v += gg
    root = math.sqrt(1 - beta2 ** t)
    denom = np.sqrt(v)
    denom += eps * root
    step = m * (state["lr"] * (root / (1 - beta1 ** t)))
    step /= denom
    p -= step
    out, start = [], 0
    for a in params:
        out.append(p[start : start + a.size].reshape(a.shape))
        start += a.size
    return out
