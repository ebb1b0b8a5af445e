"""Dense float grids, two-stage feature normalization, the DSTN file format,
the JSON artifact writer, and the atomic writer behind every tensor, JSON
and points file.

A Grid is an H x W x depth block of float32 values, location-major: the flat
location index of (row, col) is row * width + col, with the channel axis
innermost. All public operations keep values finite.

DSTN tensor file format (bit-exact, no padding, no footer):

    magic  4 bytes  b"DSTN"
    u8     format version, = 1
    u8     dtype code, = 1 (float32)
    u8     ndim, 1..4
    u32 x ndim   little-endian dims
    payload      row-major little-endian float32
"""

from __future__ import annotations

import json
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DataError, NumericError, TensorFormatError

MAGIC = b"DSTN"
_FORMAT_VERSION = 1
_DTYPE_F32 = 1

#: divisor floor for zero-variance feature dimensions
STD_EPSILON = 1e-8


def _require_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values in {what}")


@dataclass(frozen=True)
class Grid:
    """H x W x depth float32 grid; all values finite."""

    values: np.ndarray

    def __post_init__(self):
        v = self.values
        if v.ndim != 3:
            raise DataError(f"Grid needs a 3-d array, got shape {v.shape}")
        if min(v.shape) < 1:
            raise DataError(f"Grid dims must be positive, got {v.shape}")
        if v.dtype != np.float32:
            object.__setattr__(self, "values", v.astype(np.float32))
        _require_finite(self.values, "Grid")

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def depth(self) -> int:
        return self.values.shape[2]

    @property
    def n_locations(self) -> int:
        return self.height * self.width

    def locations(self) -> np.ndarray:
        """(H*W, depth) view in location order."""
        return self.values.reshape(self.n_locations, self.depth)


class NormState(Enum):
    RAW = "raw"
    UNIT = "unit"


@dataclass(frozen=True)
class FeatureGrid:
    """Per-image grid of feature vectors plus its normalization state."""

    grid: Grid
    norm_state: NormState = NormState.RAW


@dataclass(frozen=True)
class NormStats:
    """Per-dimension mean/std over a training set, population convention."""

    mean: np.ndarray  # (D,) float64 holding float32 values
    std: np.ndarray  # (D,) float64 holding float32 values

    @property
    def depth(self) -> int:
        return self.mean.shape[0]

    def divisors(self) -> np.ndarray:
        """std with near-zero entries clamped to STD_EPSILON."""
        return np.maximum(self.std, STD_EPSILON)


def compute_norm_stats(features: list[FeatureGrid] | tuple[FeatureGrid, ...]) -> NormStats:
    """Mean and population std per dimension over all locations of all grids.

    A dimension with std below STD_EPSILON keeps its place, with the divisor
    clamped (divisors), so the feature depth stays stable. Both are rounded
    to float32, the precision stats.dstn stores, so stats used in memory and
    stats read back from disk normalize features identically.
    """
    if len(features) == 0:
        raise DataError("compute_norm_stats: no feature grids given")
    depths = {f.grid.depth for f in features}
    if len(depths) != 1:
        raise DataError(f"compute_norm_stats: mismatched depths {sorted(depths)}")
    stacked = np.concatenate([f.grid.locations() for f in features]).astype(np.float64)
    mean = stacked.mean(axis=0)
    std = np.sqrt(np.mean((stacked - mean) ** 2, axis=0))  # divide-by-N
    mean = mean.astype(np.float32).astype(np.float64)
    std = std.astype(np.float32).astype(np.float64)
    return NormStats(mean=mean, std=std)


def l2_normalize_locations(values: np.ndarray) -> np.ndarray:
    """Scale each location vector to unit norm; exact-zero vectors stay zero."""
    flat = values.reshape(-1, values.shape[-1]).astype(np.float64)
    norms = np.linalg.norm(flat, axis=1)
    zero = norms == 0.0
    safe = np.where(zero, 1.0, norms)
    out = flat / safe[:, None]
    return out.reshape(values.shape)


def normalize_features(f: FeatureGrid, stats: NormStats) -> FeatureGrid:
    """Two-stage normalization: per-dim z-score, then per-location unit norm."""
    if f.norm_state != NormState.RAW:
        raise DataError(f"normalize_features: input already {f.norm_state.value}")
    if stats.depth != f.grid.depth:
        raise DataError(
            f"normalize_features: stats depth {stats.depth} != grid depth {f.grid.depth}"
        )
    z = (f.grid.values.astype(np.float64) - stats.mean) / stats.divisors()
    unit = l2_normalize_locations(z)
    return FeatureGrid(grid=Grid(unit.astype(np.float32)), norm_state=NormState.UNIT)


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Open a temporary file beside path for writing. On a clean exit it
    replaces path in one rename; on an exception it is removed, and a file
    already at path is left as it was."""
    tmp = f"{os.fspath(path)}.tmp{os.getpid()}"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_tensor(array: np.ndarray, path) -> None:
    """Write a 1..4-d float array in the DSTN format described above."""
    arr = np.ascontiguousarray(array, dtype="<f4")
    if not 1 <= arr.ndim <= 4:
        raise TensorFormatError(f"DSTN supports 1..4 dims, got {arr.ndim}")
    if any(d > 0xFFFFFFFF for d in arr.shape):
        raise TensorFormatError(f"dimension overflow in shape {arr.shape}")
    header = MAGIC + struct.pack("<BBB", _FORMAT_VERSION, _DTYPE_F32, arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    with atomic_write(path, "wb") as fh:
        fh.write(header)
        fh.write(arr.data)


def load_tensor(path) -> np.ndarray:
    """Read a DSTN file back into a float32 array (exact round trip)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise TensorFormatError(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < 7:
        raise TensorFormatError(f"{path}: truncated header")
    version, dtype_code, ndim = struct.unpack("<BBB", blob[4:7])
    if version != _FORMAT_VERSION:
        raise TensorFormatError(f"{path}: unsupported version {version}")
    if dtype_code != _DTYPE_F32:
        raise TensorFormatError(f"{path}: unsupported dtype code {dtype_code}")
    if not 1 <= ndim <= 4:
        raise TensorFormatError(f"{path}: bad ndim {ndim}")
    dim_end = 7 + 4 * ndim
    if len(blob) < dim_end:
        raise TensorFormatError(f"{path}: truncated dims")
    dims = struct.unpack(f"<{ndim}I", blob[7:dim_end])
    count = int(np.prod([int(d) for d in dims], dtype=np.int64))
    if len(blob) - dim_end != 4 * count:
        raise TensorFormatError(
            f"{path}: payload is {len(blob) - dim_end} bytes, expected {4 * count}"
        )
    payload = np.frombuffer(blob, dtype="<f4", count=count, offset=dim_end)
    return payload.reshape(dims).astype(np.float32)


def save_json(doc, path) -> None:
    """Write a JSON artifact: 2-space indent, sorted keys, trailing newline."""
    with atomic_write(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
