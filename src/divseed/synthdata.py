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
from functools import cache, cached_property

import numpy as np

from .errors import ConfigError, DataError
from .localization import TagSet
from .rng import Rng, derive_seed
from .tensor import FeatureGrid

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


def _box_blur(a: np.ndarray, radius: int) -> np.ndarray:
    """Separable moving average with edge clamping."""
    for axis in (0, 1):
        n = a.shape[axis]
        # edge padding: index -radius .. n + radius - 1, clamped into the array
        padded = a.take(np.clip(np.arange(-radius, n + radius), 0, n - 1), axis=axis)
        csum = np.cumsum(padded, axis=axis)
        window = [slice(None)] * a.ndim
        window[axis] = slice(2 * radius, None)
        lead = csum[tuple(window)]
        window[axis] = slice(0, n)
        a = lead - csum[tuple(window)]
        a /= 2 * radius
    return a


@cache
def _pixel_grid(h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column coordinates of every pixel, float64, read-only."""
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    ys.flags.writeable = xs.flags.writeable = False
    return ys, xs


def _shape_fraction(kind: int, cy: float, cx: float, radius: float,
                    h: int, w: int) -> np.ndarray:
    """Scaled distance field: <=1 inside the shape, <=CORE_FRACTION in the core."""
    ys, xs = _pixel_grid(h, w)
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
    noise = rng.uniform_array(2 * h * w * 3).reshape(2, h, w, 3)
    image = _box_blur(noise[0], radius=3)  # BG_BASE + BG_AMPLITUDE * (b - 0.5) * 4
    image -= 0.5
    image *= BG_AMPLITUDE
    image *= 4.0
    image += BG_BASE
    fine = noise[1]  # BG_FINE_NOISE * (u - 0.5)
    fine -= 0.5
    fine *= BG_FINE_NOISE
    image += fine
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
        core_tone, rim_tone = CLASS_TONES[class_id]
        core_color = np.array(core_tone) + rng.uniform_array(3, -TONE_JITTER, TONE_JITTER)
        rim_color = np.array(rim_tone) + rng.uniform_array(3, -TONE_JITTER, TONE_JITTER)
        core = frac[inside] <= CORE_FRACTION
        n_inside = len(core)
        texel = rng.uniform_array(n_inside * 3, -PIXEL_NOISE, PIXEL_NOISE).reshape(n_inside, 3)
        texel += np.where(core[:, None], core_color, rim_color)
        image[inside] = texel
        mask[inside] = class_id
    np.clip(image, 0.0, 1.0, out=image)
    return image, mask


def _coverage_ok(counts: np.ndarray, total: int) -> bool:
    """Every class present (count > 0) covers its allowed share of pixels."""
    present = counts[counts > 0]
    return bool(np.all((MIN_CLASS_COVER * total <= present)
                       & (present <= MAX_CLASS_COVER * total)))


def generate_scene(seed: int, index: int, n_classes: int, h: int, w: int,
                   id_prefix: str = "scene") -> SyntheticScene:
    """One scene, a pure function of (seed, index)."""
    scene_seed = derive_seed(seed, index)
    for attempt in range(_MAX_ATTEMPTS):
        rng = Rng(derive_seed(scene_seed, attempt))
        image, mask = _render_scene(rng, n_classes, h, w)
        counts = np.bincount(mask.ravel(), minlength=n_classes + 1)[:n_classes]
        if _coverage_ok(counts, mask.size):
            break
    else:
        raise DataError(f"scene {index}: no valid layout in {_MAX_ATTEMPTS} attempts")
    present = frozenset(np.flatnonzero(counts).tolist())
    image_id = f"{id_prefix}_{index:05d}"
    return SyntheticScene(
        image=image.astype(np.float32),
        mask=mask,
        tags=TagSet(image_id=image_id, present=present),
    )


def check_dataset_size(n_images: int, n_classes: int, h: int, w: int) -> None:
    """ConfigError unless a dataset of these sizes can be generated and have
    its features extracted: at least one image, 1..MAX_CLASSES classes, and
    dims that fit the shape size range and divide by GRID_FACTOR and by every
    scale of the default extractor."""
    if n_images < 1:
        raise ConfigError(f"need at least one image, got {n_images}")
    if not 1 <= n_classes <= MAX_CLASSES:
        raise ConfigError(f"n_classes must be 1..{MAX_CLASSES}, got {n_classes}")
    if min(h, w) < 2.0 / SIZE_FRACTION[1]:  # no float of h, w: they may be any size
        raise ConfigError(f"image_size {h}x{w} too small for the shape size range")
    for factor in (GRID_FACTOR, *ExtractorSpec.scales):
        if h % factor or w % factor:
            raise ConfigError(f"image_size {h}x{w} must be divisible by {factor}")


def generate_dataset(n_images: int, n_classes: int, h: int, w: int, seed: int,
                     id_prefix: str = "scene") -> list[SyntheticScene]:
    check_dataset_size(n_images, n_classes, h, w)
    return [
        generate_scene(seed, i, n_classes, h, w, id_prefix) for i in range(n_images)
    ]


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

    @cached_property
    def projections(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """(P, b) per scale, drawn once per spec; read-only."""
        out = {}
        for scale in self.scales:
            rng = Rng(derive_seed(self.seed, scale))
            p = rng.uniform_array(self.dims_per_scale * 3, -2.0, 2.0)
            b = rng.uniform_array(self.dims_per_scale, -1.0, 1.0)
            p = p.reshape(self.dims_per_scale, 3)
            p.flags.writeable = b.flags.writeable = False
            out[scale] = (p, b)
        return out


@cache
def nearest_indices(src_size: int, dst_size: int) -> np.ndarray:
    """Cell-center nearest-neighbor source index for each destination cell;
    read-only."""
    idx = (((np.arange(dst_size) + 0.5) * src_size) // dst_size).astype(np.int64)
    idx.flags.writeable = False
    return idx


def _avg_pool(image: np.ndarray, s: int) -> np.ndarray:
    """Mean of each s x s block, bit for bit mean(axis=(1, 3)) of the blocks
    view: that adds a block's terms one at a time in row-major order."""
    if s == 1:
        return image  # the mean of one pixel, x / 1
    h, w, c = image.shape
    blocks = image.reshape(h // s, s, w // s, s, c).transpose(0, 2, 4, 1, 3)
    return np.add.accumulate(blocks.reshape(h // s, w // s, c, -1), axis=-1)[..., -1] / (s * s)


def extract_features(scene: SyntheticScene, spec: ExtractorSpec) -> FeatureGrid:
    """Raw (unnormalized) feature grid at 1/4 image resolution, C-ordered."""
    h, w, _ = scene.image.shape
    if h % GRID_FACTOR or w % GRID_FACTOR:
        raise DataError(f"image dims {h}x{w} not divisible by {GRID_FACTOR}")
    gh, gw = h // GRID_FACTOR, w // GRID_FACTOR
    out = np.empty((gh, gw, spec.depth), dtype=np.float32)
    img = scene.image.astype(np.float64)
    for i, s in enumerate(spec.scales):
        if h % s or w % s:
            raise DataError(f"image dims {h}x{w} not divisible by scale {s}")
        rows = nearest_indices(h // s, gh)
        cols = nearest_indices(w // s, gw)
        p, b = spec.projections[s]
        # only the sampled cells are projected: per cell the same products
        # and sums as projecting every pooled cell
        feat = _avg_pool(img, s)[rows][:, cols] @ p.T
        feat += b
        np.maximum(feat, 0.0, out=feat)
        out[:, :, i * spec.dims_per_scale:(i + 1) * spec.dims_per_scale] = feat
    return FeatureGrid(out)


@cache
def _cell_index(h: int, w: int, factor: int) -> np.ndarray:
    """The flat factor x factor cell index of every pixel, read-only."""
    idx = (np.arange(h)[:, None] // factor) * (w // factor) + np.arange(w) // factor
    idx.flags.writeable = False
    return idx


def downsample_mask(mask: np.ndarray, n_labels: int, factor: int = GRID_FACTOR
                    ) -> np.ndarray:
    """Majority label per factor x factor cell; ties go to the lowest label.
    Every label must be in 0..n_labels - 1 (Manifest.masks checks a file's)."""
    h, w = mask.shape
    if h % factor or w % factor:
        raise DataError(f"mask dims {h}x{w} not divisible by {factor}")
    cells = _cell_index(h, w, factor)
    counts = np.bincount((cells * n_labels + mask).ravel(),
                         minlength=mask.size // factor**2 * n_labels)
    return counts.reshape(h // factor, w // factor, n_labels).argmax(axis=2)
