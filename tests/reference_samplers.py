"""Naive reference implementations of the greedy samplers.

These transcribe the selection recursions directly: at every step the whole
penalty/objective is recomputed from scratch against all previously selected
points (O(N * k^2 * D) total work), with no incremental running-max state.
They exist purely as oracles for the optimized implementations and must stay
structurally independent of them.

`reference_supervision_set` is the whole-dataset sampler as it was written
before sampling ran in lockstep: a loop over images calling the per-pair
samplers (themselves checked against the naive recursions above) and
building dense labels point by point.
"""

import numpy as np


def naive_diverse_fg(scores, feats, k):
    """Indices and objective values, recomputed per step."""
    s = np.maximum(np.asarray(scores, dtype=np.float64), 0.0)
    z = np.asarray(feats, dtype=np.float64)
    picked = []
    values = []
    for _ in range(k):
        if picked:
            penalty = np.abs(z @ z[picked].T).max(axis=1)  # from scratch
            objective = s * (1.0 - penalty)
        else:
            objective = s.copy()
        objective[picked] = -np.inf
        i = int(np.argmax(objective))  # lowest index on ties
        picked.append(i)
        values.append(float(objective[i]))
    return picked, values


def naive_diverse_bg(fg_locs, feats, k):
    z = np.asarray(feats, dtype=np.float64)
    picked = []
    values = []
    fg_locs = list(fg_locs)
    for _ in range(k):
        anchors = fg_locs + picked
        worst_sim = np.abs(z @ z[anchors].T).max(axis=1)
        worst_sim[fg_locs + picked] = np.inf
        i = int(np.argmin(worst_sim))
        picked.append(i)
        values.append(float(worst_sim[i]))
    return picked, values


def naive_spatial(scores, shape, k, scale):
    s = np.maximum(np.asarray(scores, dtype=np.float64), 0.0)
    h, w = shape
    rows, cols = np.divmod(np.arange(h * w), w)
    picked = []
    values = []
    for _ in range(k):
        if picked:
            pr, pc = rows[picked], cols[picked]
            d2 = (rows[:, None] - pr) ** 2.0 + (cols[:, None] - pc) ** 2.0
            penalty = np.exp(-d2 / (2.0 * scale * scale)).max(axis=1)
            objective = s * (1.0 - penalty)
        else:
            objective = s.copy()
        objective[picked] = -np.inf
        i = int(np.argmax(objective))
        picked.append(i)
        values.append(float(objective[i]))
    return picked, values


def naive_top_k(scores, k):
    s = np.maximum(np.asarray(scores, dtype=np.float64), 0.0)
    order = sorted(range(s.shape[0]), key=lambda i: (-s[i], i))
    picked = order[:k]
    return picked, [float(s[i]) for i in picked]


# ---------------------------------------------------------------------------
# The whole-dataset sampler as a per-image loop: one image at a time, one
# per-pair sampler call per (image, class) pair, dense labels built point by
# point. The lockstep core must give the same points, value for value.


def reference_supervision_set(dataset, models, config, seed):
    from divseed.errors import DataError
    from divseed.sampling import image_stream, score_tagged_classes

    missing = sorted({c for rec in dataset for c in rec.tags.present} - set(models))
    if missing:
        raise DataError(f"no localization model for tagged classes {missing}")
    maps_of = {rec.image_id: score_tagged_classes(rec, models) for rec in dataset}
    calibration = {}
    if config.strategy == "dense":
        calibration = reference_dense_calibration(maps_of)
    points = []
    for index, rec in enumerate(dataset):
        points.extend(
            reference_sample_image(
                rec, maps_of[rec.image_id], config, calibration, image_stream(seed, index)
            )
        )
    return points


def reference_sample_image(rec, maps, config, calibration, rng):
    from divseed.sampling import (
        BACKGROUND,
        SampledPoint,
        sample_diverse_bg,
        sample_diverse_fg,
        sample_spatial,
        sample_top_k,
    )

    h, w = rec.features.height, rec.features.width
    if config.strategy == "dense":
        if not maps:
            labels = np.full((h, w), BACKGROUND, dtype=np.int64)
            values = np.zeros((h, w))
        else:
            labels, values = reference_dense_labels(maps, config.tau, calibration)
        points, counters = [], {}
        for loc, (label, value) in enumerate(zip(labels.ravel(), values.ravel())):
            counters[int(label)] = counters.get(int(label), 0) + 1
            points.append(
                SampledPoint(rec.image_id, loc, int(label), counters[int(label)], float(value))
            )
        return points

    fg_points = []
    for c in sorted(maps):
        sm = maps[c]
        if config.strategy == "diverse":
            fg_points.extend(sample_diverse_fg(sm, rec.features, config.k))
        elif config.strategy == "top_k":
            fg_points.extend(sample_top_k(sm, config.k))
        elif config.strategy == "spatial":
            fg_points.extend(sample_spatial(sm, config.k, config.spatial_scale))
    bg_points = sample_diverse_bg(fg_points, rec.features, config.k, rng=rng)
    if not fg_points:
        bg_points = [
            SampledPoint(rec.image_id, p.loc, p.label, p.rank, p.value, p.flags)
            for p in bg_points
        ]
    return fg_points + bg_points


def reference_dense_calibration(maps_of):
    maxima = {}
    for maps in maps_of.values():
        for c, sm in maps.items():
            maxima.setdefault(c, []).append(float(sm.fg_flat().max()))
    return {c: max(float(np.mean(v)), 1e-6) for c, v in maxima.items()}


def reference_dense_labels(scoremaps, tau, calibration):
    class_ids = sorted(scoremaps)
    stack = np.stack(
        [scoremaps[c].fg.astype(np.float64) / calibration[c] for c in class_ids]
    )
    best = np.argmax(stack, axis=0)
    best_val = np.take_along_axis(stack, best[None], axis=0)[0]
    labels = np.array(class_ids, dtype=np.int64)[best]
    labels[best_val < tau] = -1
    return labels, best_val
