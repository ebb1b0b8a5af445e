"""Figure-style outputs: PGM heatmaps, PPM label maps, point overlays.

PGM is binary P5: header "P5\\n<w> <h>\\n255\\n" then w*h bytes, row-major.
PPM is binary P6 with the same header shape and 3 bytes per pixel.

Label maps use the fixed palette below, indexed by class index; background
renders black. Point overlays draw a 3x3 marker at each point's image-space
cell center, in the point's class color (white for background points).
"""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .sampling import BACKGROUND, SampledPoint
from .tensor import _require_finite

#: RGB per class index; background is (0, 0, 0) in label maps and white in
#: point overlays
PALETTE = (
    (230, 25, 75),
    (60, 180, 75),
    (0, 130, 200),
    (255, 225, 25),
    (145, 30, 180),
    (70, 240, 240),
    (245, 130, 48),
    (128, 0, 128),
)
BG_LABEL_COLOR = (0, 0, 0)
BG_POINT_COLOR = (255, 255, 255)


def write_pgm(path, gray: np.ndarray) -> None:
    g = np.asarray(gray)
    if g.ndim != 2:
        raise DataError(f"PGM needs a 2-d array, got shape {g.shape}")
    h, w = g.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(g.astype(np.uint8).tobytes())


def write_ppm(path, rgb: np.ndarray) -> None:
    a = np.asarray(rgb)
    if a.ndim != 3 or a.shape[2] != 3:
        raise DataError(f"PPM needs an (H, W, 3) array, got shape {a.shape}")
    h, w, _ = a.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(a.astype(np.uint8).tobytes())


def heatmap_bytes(values: np.ndarray) -> np.ndarray:
    """Min-max scale a float map to 0..255; a constant map becomes 128.
    NumericError for a non-finite value."""
    v = np.asarray(values, dtype=np.float64)
    _require_finite(v, "heatmap")
    lo, hi = float(v.min()), float(v.max())
    if hi == lo:
        return np.full(v.shape, 128, dtype=np.uint8)
    return np.round((v - lo) / (hi - lo) * 255.0).astype(np.uint8)


def save_heatmap_pgm(values: np.ndarray, path) -> None:
    write_pgm(path, heatmap_bytes(values))


def class_color(index: int) -> tuple[int, int, int]:
    return PALETTE[index % len(PALETTE)]


def label_map_rgb(labels: np.ndarray, background_index: int) -> np.ndarray:
    """Indexed-color render of a label-index grid. NumericError for a
    non-finite value, DataError for another non-integer or out-of-range one."""
    lab = np.asarray(labels)
    _require_finite(lab, "label map")
    if np.any((lab != np.round(lab)) | (np.abs(lab) >= 2**31)):
        raise DataError("cannot render labels that are not integers below 2**31")
    lab = lab.astype(np.int64)
    out = np.zeros(lab.shape + (3,), dtype=np.uint8)
    for idx in np.unique(lab):
        color = BG_LABEL_COLOR if idx == background_index else class_color(int(idx))
        out[lab == idx] = color
    return out


def save_label_ppm(labels: np.ndarray, background_index: int, path) -> None:
    write_ppm(path, label_map_rgb(labels, background_index))


def overlay_points_rgb(
    image: np.ndarray,
    points: list[SampledPoint],
    grid_width: int,
    cell: int,
) -> np.ndarray:
    """Mark each grid point on the full-resolution image.

    Points live on the coarse grid; each is drawn as a 3x3 block centered on
    its cell's center pixel. NumericError for a non-finite image value.
    """
    _require_finite(image, "image")
    img = np.clip(np.asarray(image, dtype=np.float64), 0.0, 1.0)
    out = np.round(img * 255.0).astype(np.uint8)
    h, w, _ = out.shape
    half = cell // 2
    for p in points:
        row, col = divmod(p.loc, grid_width)
        cy, cx = row * cell + half, col * cell + half
        color = BG_POINT_COLOR if p.label == BACKGROUND else class_color(p.label)
        y0, y1 = max(cy - 1, 0), min(cy + 2, h)
        x0, x1 = max(cx - 1, 0), min(cx + 2, w)
        out[y0:y1, x0:x1] = color
    return out


def save_overlay_ppm(
    image: np.ndarray,
    points: list[SampledPoint],
    grid_width: int,
    cell: int,
    path,
) -> None:
    write_ppm(path, overlay_points_rgb(image, points, grid_width, cell))
