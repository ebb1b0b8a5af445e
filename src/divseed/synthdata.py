"""Deterministic synthetic scenes with exact ground truth, and a fixed
multi-scale feature extractor so the whole pipeline is testable end to end.

Scenes are a textured background (smoothed colored noise) plus 0-3 shapes.
Each class owns a shape kind (circle / square / triangle, cycling) and a
two-tone color family: an inner core tone and a rim tone, both jittered per
instance and per pixel. The two tones give every class internal feature
variety, so labeling only a shape's most confident region genuinely loses
information. Background colors overlap the duller class tones enough that a
plain color threshold does not solve localization.

Occlusion follows draw order (later shapes on top; the mask keeps the topmost
class). A scene is regenerated with a fresh derived stream until every class
present covers between 1% and 60% of the pixels, so tags always match the
mask and tiny occluded slivers never appear.

Features: for each pooling factor (1, 4 and 16 pixels by default), the image
is average-pooled, passed through a fixed random per-location projection +
ReLU, resampled (nearest, cell centers) onto the common quarter-resolution
grid, and concatenated channel-wise into a small hypercolumn.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .localization import TagSet
from .rng import Rng, derive_seed
from .tensor import FeatureGrid, Grid

MAX_CLASSES = 8
MAX_SHAPES = 3
GRID_FACTOR = 4  # feature grid is 1/4 of image resolution

SIZE_FRACTION = (0.20, 0.36)  # shape radius relative to min(H, W)
CORE_FRACTION = 0.6  # inner tone region, as a fraction of shape extent
TONE_JITTER = 0.12  # per-instance color shift
PIXEL_NOISE = 0.10  # per-pixel color noise inside shapes
BG_BASE = 0.42
BG_AMPLITUDE = 0.24
BG_FINE_NOISE = 0.04

MIN_CLASS_COVER = 0.01
MAX_CLASS_COVER = 0.60
_MAX_ATTEMPTS = 200

# Core RGB tone per class, plus a subtle per-class rim tint around a common
# bright-gray base. Cores are loud and unmistakable; rims differ between
# classes only faintly, so a localizer keys on the core while the rim is
# still learnable from direct labels (helped by the context scales below).
CLASS_TONES = (
    ((0.90, 0.10, 0.10), (0.78, 0.66, 0.66)),  # red / warm gray
    ((0.10, 0.75, 0.10), (0.66, 0.78, 0.66)),  # green / green gray
    ((0.10, 0.20, 0.90), (0.66, 0.66, 0.78)),  # blue / cool gray
    ((0.95, 0.85, 0.10), (0.78, 0.78, 0.54)),  # yellow / olive gray
    ((0.85, 0.10, 0.85), (0.78, 0.54, 0.78)),  # magenta / mauve gray
    ((0.10, 0.80, 0.80), (0.54, 0.78, 0.78)),  # cyan / teal gray
    ((0.95, 0.50, 0.10), (0.78, 0.70, 0.54)),  # orange / tan gray
    ((0.50, 0.10, 0.80), (0.70, 0.54, 0.78)),  # purple / lilac gray
)


@dataclass(frozen=True)
class SyntheticScene:
    image: np.ndarray  # (H, W, 3) float32 in [0, 1]
    mask: np.ndarray  # (H, W) int64 class ids, background = n_classes
    tags: TagSet
    n_classes: int
    seed: int

    @property
    def background_label(self) -> int:
        return self.n_classes


def _box_blur(a: np.ndarray, radius: int) -> np.ndarray:
    """Separable moving average with edge clamping."""
    for axis in (0, 1):
        pad = [(0, 0)] * a.ndim
        pad[axis] = (radius, radius)
        padded = np.pad(a, pad, mode="edge")
        csum = np.cumsum(padded, axis=axis)
        lead = np.take(csum, range(2 * radius, padded.shape[axis]), axis=axis)
        lag = np.take(csum, range(0, padded.shape[axis] - 2 * radius), axis=axis)
        a = (lead - lag) / (2 * radius)
    return a


def _shape_fraction(kind: int, cy: float, cx: float, radius: float,
                    h: int, w: int) -> np.ndarray:
    """Scaled distance field: <=1 inside the shape, <=CORE_FRACTION in the core."""
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    if kind == 0:  # circle
        return np.hypot(ys - cy, xs - cx) / radius
    if kind == 1:  # square
        return np.maximum(np.abs(ys - cy), np.abs(xs - cx)) / radius
    # triangle, apex up; fraction is the smallest scaling about the centroid
    # that still contains the point
    v = np.array(
        [[cy - radius, cx], [cy + radius, cx - radius], [cy + radius, cx + radius]]
    )
    g = v.mean(axis=0)
    frac = np.full((h, w), -np.inf)
    for e in range(3):
        va, vb = v[e], v[(e + 1) % 3]
        d = vb - va
        n = np.array([d[1], -d[0]])
        if n @ (va - g) < 0:
            n = -n
        denom = n @ (va - g)
        num = (ys - g[0]) * n[0] + (xs - g[1]) * n[1]
        frac = np.maximum(frac, num / denom)
    return frac


def _render_scene(rng: Rng, n_classes: int, h: int, w: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    noise = rng.uniform_array(h * w * 3).reshape(h, w, 3)
    blotches = _box_blur(noise, radius=3)
    image = BG_BASE + BG_AMPLITUDE * (blotches - 0.5) * 4.0
    image += BG_FINE_NOISE * (rng.uniform_array(h * w * 3).reshape(h, w, 3) - 0.5)
    mask = np.full((h, w), n_classes, dtype=np.int64)

    n_shapes = rng.randint(MAX_SHAPES + 1)
    r_lo, r_hi = SIZE_FRACTION[0] * min(h, w), SIZE_FRACTION[1] * min(h, w)
    for _ in range(n_shapes):
        class_id = rng.randint(n_classes)
        radius = rng.uniform(r_lo, r_hi)
        cy = rng.uniform(radius, h - 1 - radius)
        cx = rng.uniform(radius, w - 1 - radius)
        frac = _shape_fraction(class_id % 3, cy, cx, radius, h, w)
        inside = frac <= 1.0
        core = frac <= CORE_FRACTION
        core_tone, rim_tone = CLASS_TONES[class_id]
        core_color = np.array(core_tone) + rng.uniform_array(3, -TONE_JITTER, TONE_JITTER)
        rim_color = np.array(rim_tone) + rng.uniform_array(3, -TONE_JITTER, TONE_JITTER)
        colors = np.where(core[:, :, None], core_color, rim_color)
        n_inside = int(inside.sum())
        texel = rng.uniform_array(n_inside * 3, -PIXEL_NOISE, PIXEL_NOISE).reshape(n_inside, 3)
        image[inside] = colors[inside] + texel
        mask[inside] = class_id
    return np.clip(image, 0.0, 1.0), mask


def _coverage_ok(mask: np.ndarray, n_classes: int) -> bool:
    total = mask.size
    for c in range(n_classes):
        count = int((mask == c).sum())
        if count and not (MIN_CLASS_COVER * total <= count <= MAX_CLASS_COVER * total):
            return False
    return True


def generate_scene(seed: int, index: int, n_classes: int, h: int, w: int,
                   id_prefix: str = "scene") -> SyntheticScene:
    """One scene, a pure function of (seed, index)."""
    scene_seed = derive_seed(seed, index)
    for attempt in range(_MAX_ATTEMPTS):
        rng = Rng(derive_seed(scene_seed, attempt))
        image, mask = _render_scene(rng, n_classes, h, w)
        if _coverage_ok(mask, n_classes):
            break
    else:
        raise DataError(f"scene {index}: no valid layout in {_MAX_ATTEMPTS} attempts")
    present = frozenset(int(c) for c in np.unique(mask) if c < n_classes)
    image_id = f"{id_prefix}_{index:05d}"
    return SyntheticScene(
        image=image.astype(np.float32),
        mask=mask,
        tags=TagSet(image_id=image_id, present=present),
        n_classes=n_classes,
        seed=scene_seed,
    )


def check_dataset_size(n_images: int, n_classes: int, h: int, w: int) -> None:
    """ConfigError unless a dataset of these sizes can be generated and have
    its features extracted: at least one image, 1..MAX_CLASSES classes, and
    dims that fit the shape size range and divide by GRID_FACTOR and by every
    scale of the default extractor."""
    if n_images < 1:
        raise ConfigError(f"need at least one image, got {n_images}")
    if not 1 <= n_classes <= MAX_CLASSES:
        raise ConfigError(f"class count must be 1..{MAX_CLASSES}, got {n_classes}")
    if SIZE_FRACTION[1] * min(h, w) < 2.0:
        raise ConfigError(f"image {h}x{w} too small for the shape size range")
    for factor in (GRID_FACTOR, *ExtractorSpec.scales):
        if h % factor or w % factor:
            raise ConfigError(f"image dims {h}x{w} must be divisible by {factor}")


def generate_dataset(n_images: int, n_classes: int, h: int, w: int, seed: int,
                     id_prefix: str = "scene") -> list[SyntheticScene]:
    check_dataset_size(n_images, n_classes, h, w)
    return [
        generate_scene(seed, i, n_classes, h, w, id_prefix) for i in range(n_images)
    ]


def expected_class_frequency(n_classes: int, max_shapes: int = MAX_SHAPES) -> float:
    """P(a given class appears in a scene), ignoring the coverage retry."""
    miss = 1.0 - 1.0 / n_classes
    return 1.0 - sum(miss ** n for n in range(max_shapes + 1)) / (max_shapes + 1)


# ---------------------------------------------------------------------------
# fixed multi-scale feature extractor


@dataclass(frozen=True)
class ExtractorSpec:
    """Seeded random projections per pooling scale; fixed after construction.

    Scales are pooling block sizes in pixels: 1 samples the cell-center
    pixel, 4 averages exactly one grid cell, 16 averages a 4x4-cell
    neighborhood, giving each location context well beyond its own cell
    (hypercolumn-style small-to-large receptive fields)."""

    seed: int
    scales: tuple[int, ...] = (1, 4, 16)
    dims_per_scale: int = 16

    @property
    def depth(self) -> int:
        return self.dims_per_scale * len(self.scales)

    def projection(self, scale: int) -> tuple[np.ndarray, np.ndarray]:
        rng = Rng(derive_seed(self.seed, scale))
        p = rng.uniform_array(self.dims_per_scale * 3, -2.0, 2.0)
        b = rng.uniform_array(self.dims_per_scale, -1.0, 1.0)
        return p.reshape(self.dims_per_scale, 3), b


def nearest_indices(src_size: int, dst_size: int) -> np.ndarray:
    """Cell-center nearest-neighbor source index for each destination cell."""
    return (((np.arange(dst_size) + 0.5) * src_size) // dst_size).astype(np.int64)


def _avg_pool(image: np.ndarray, s: int) -> np.ndarray:
    h, w, c = image.shape
    return image.reshape(h // s, s, w // s, s, c).mean(axis=(1, 3))


def extract_features(scene: SyntheticScene, spec: ExtractorSpec) -> FeatureGrid:
    """Raw (unnormalized) feature grid at 1/4 image resolution."""
    h, w, _ = scene.image.shape
    if h % GRID_FACTOR or w % GRID_FACTOR:
        raise DataError(f"image dims {h}x{w} not divisible by {GRID_FACTOR}")
    gh, gw = h // GRID_FACTOR, w // GRID_FACTOR
    parts = []
    img = scene.image.astype(np.float64)
    for s in spec.scales:
        if h % s or w % s:
            raise DataError(f"image dims {h}x{w} not divisible by scale {s}")
        pooled = _avg_pool(img, s)
        p, b = spec.projection(s)
        feat = np.maximum(pooled @ p.T + b, 0.0)
        rows = nearest_indices(h // s, gh)
        cols = nearest_indices(w // s, gw)
        parts.append(feat[rows][:, cols])
    stacked = np.concatenate(parts, axis=2).astype(np.float32)
    return FeatureGrid(grid=Grid(stacked))


def downsample_mask(mask: np.ndarray, n_labels: int, factor: int = GRID_FACTOR
                    ) -> np.ndarray:
    """Majority label per factor x factor cell; ties go to the lowest label."""
    h, w = mask.shape
    if h % factor or w % factor:
        raise DataError(f"mask dims {h}x{w} not divisible by {factor}")
    blocks = mask.reshape(h // factor, factor, w // factor, factor)
    counts = np.stack(
        [(blocks == lab).sum(axis=(1, 3)) for lab in range(n_labels)], axis=2
    )
    return counts.argmax(axis=2)
