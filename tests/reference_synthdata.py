"""Reference implementation of the feature extractor.

`reference_extract_features` is `synthdata.extract_features` as it was first
written: every scale, 1 included, is average-pooled, and every pooled pixel
is projected before the grid's cells are picked out of the result. It exists
as an oracle for the optimized extractor, which must give the same bits, and
must stay structurally independent of it.
"""

import numpy as np

from divseed.synthdata import GRID_FACTOR
from divseed.tensor import FeatureGrid, Grid


def _nearest_indices(src_size, dst_size):
    return (((np.arange(dst_size) + 0.5) * src_size) // dst_size).astype(np.int64)


def _avg_pool(image, s):
    h, w, c = image.shape
    return image.reshape(h // s, s, w // s, s, c).mean(axis=(1, 3))


def reference_extract_features(scene, spec):
    """Raw (unnormalized) feature grid at 1/4 image resolution."""
    h, w, _ = scene.image.shape
    gh, gw = h // GRID_FACTOR, w // GRID_FACTOR
    parts = []
    img = scene.image.astype(np.float64)
    for s in spec.scales:
        pooled = _avg_pool(img, s)
        p, b = spec.projections[s]
        feat = np.maximum(pooled @ p.T + b, 0.0)
        rows = _nearest_indices(h // s, gh)
        cols = _nearest_indices(w // s, gw)
        parts.append(feat[rows][:, cols])
    stacked = np.concatenate(parts, axis=2).astype(np.float32)
    return FeatureGrid(grid=Grid(stacked))
