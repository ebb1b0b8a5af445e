"""Dense float grids and stacks of them, two-stage feature normalization,
the DSTN file format, the JSON artifact writer and document reader, and the
atomic writer behind every tensor, JSON and points file.

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
import math
import os
import struct
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DataError, DivseedError, NumericError, TensorFormatError

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

    Columns are summed in float64 grid by grid, in row order: the additions
    numpy's axis-0 reduce makes on the concatenated locations, without
    building that (N, D) copy.
    """
    if len(features) == 0:
        raise DataError("compute_norm_stats: no feature grids given")
    depths = {f.grid.depth for f in features}
    if len(depths) != 1:
        raise DataError(f"compute_norm_stats: mismatched depths {sorted(depths)}")
    blocks = [f.grid.locations() for f in features]
    if depths == {1}:  # numpy adds a single column pairwise, not row by row
        blocks = [np.concatenate(blocks)]
    n = sum(len(b) for b in blocks)
    mean = _row_order_sum(b.astype(np.float64) for b in blocks) / n
    std = np.sqrt(_row_order_sum(np.square(b - mean) for b in blocks) / n)  # divide-by-N
    mean = mean.astype(np.float32).astype(np.float64)
    std = std.astype(np.float32).astype(np.float64)
    return NormStats(mean=mean, std=std)


def _row_order_sum(blocks) -> np.ndarray:
    """Column sums of the row concatenation of C-ordered (m, D) float64
    blocks, D > 1, with the running total carried as the first row of the
    next block's reduce."""
    total = None
    for b in blocks:
        total = np.add.reduce(b if total is None else np.concatenate([total[None], b]), axis=0)
    return total


def _unit_rows(flat: np.ndarray) -> None:
    """In place: scale each row of a C-ordered (N, D) float64 array to unit
    norm; exact-zero rows stay zero."""
    norms = np.linalg.norm(flat, axis=1)
    norms[norms == 0.0] = 1.0
    flat /= norms[:, None]


def l2_normalize_locations(values: np.ndarray) -> np.ndarray:
    """Scale each location vector to unit norm; exact-zero vectors stay zero."""
    flat = values.reshape(-1, values.shape[-1]).astype(np.float64)
    _unit_rows(flat)
    return flat.reshape(values.shape)


def normalize_features(f: FeatureGrid, stats: NormStats) -> FeatureGrid:
    """Two-stage normalization: per-dim z-score, then per-location unit norm."""
    if f.norm_state != NormState.RAW:
        raise DataError(f"normalize_features: input already {f.norm_state.value}")
    if stats.depth != f.grid.depth:
        raise DataError(
            f"normalize_features: stats depth {stats.depth} != grid depth {f.grid.depth}"
        )
    z = np.array(f.grid.values, dtype=np.float64, order="C")  # edited in place
    z -= stats.mean
    z /= stats.divisors()
    _unit_rows(z.reshape(-1, z.shape[-1]))
    return FeatureGrid(grid=Grid(z.astype(np.float32)), norm_state=NormState.UNIT)


class FeatureStack(Sequence):
    """A sequence of FeatureGrids whose grids are the rows of one C-ordered
    (n, H, W, D) float32 array, `values`, filled one grid at a time."""

    def __init__(self, n: int, shape: tuple[int, int, int]):
        self.values = np.empty((n, *shape), dtype=np.float32)
        self._grids: list[FeatureGrid] = []

    def __len__(self) -> int:
        return len(self._grids)

    def __getitem__(self, i):
        return self._grids[i]

    def _store(self, i: int, f: FeatureGrid) -> FeatureGrid:
        """f copied into row i, as a view of that row."""
        self.values[i] = f.grid.values
        return FeatureGrid(Grid(self.values[i]), f.norm_state)

    def append(self, f: FeatureGrid) -> None:
        """Copy f into the next row."""
        self._grids.append(self._store(len(self._grids), f))

    def normalize(self, stats: NormStats) -> None:
        """normalize_features each grid into its own row, one grid at a time:
        the raw rows are overwritten, so grids taken from the stack before
        are stale."""
        for i, f in enumerate(self._grids):
            self._grids[i] = self._store(i, normalize_features(f, stats))


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


def save_tensor(array, path) -> None:
    """Write a 1..4-d float array in the DSTN format described above."""
    with tensor_rows(path, np.shape(array)) as append:
        append(array)


@contextmanager
def tensor_rows(path, shape):
    """Write a DSTN tensor of shape row by row: yields a function appending
    an array of the next rows as float32. Through atomic_write, the file
    replaces path only once the rows fill the shape."""
    if not 1 <= len(shape) <= 4:
        raise TensorFormatError(f"DSTN supports 1..4 dims, got {len(shape)}")
    if any(d > 0xFFFFFFFF for d in shape):
        raise TensorFormatError(f"dimension overflow in shape {shape}")
    header = MAGIC + struct.pack("<BBB", _FORMAT_VERSION, _DTYPE_F32, len(shape))
    header += struct.pack(f"<{len(shape)}I", *shape)
    with atomic_write(path, "wb") as fh:
        fh.write(header)
        yield lambda rows: fh.write(np.ascontiguousarray(rows, dtype="<f4").data)
        if fh.tell() != len(header) + 4 * math.prod(shape):
            raise TensorFormatError(f"{path}: the rows written do not fill shape {shape}")


def load_tensor(path) -> np.ndarray:
    """Read a DSTN file back into a float32 array (exact round trip). The
    payload is read once, straight into the array."""
    with open(path, "rb") as fh:
        head = fh.read(7)
        if head[:4] != MAGIC:
            raise TensorFormatError(f"{path}: bad magic {head[:4]!r}")
        if len(head) < 7:
            raise TensorFormatError(f"{path}: truncated header")
        version, dtype_code, ndim = struct.unpack("<BBB", head[4:7])
        if version != _FORMAT_VERSION:
            raise TensorFormatError(f"{path}: unsupported version {version}")
        if dtype_code != _DTYPE_F32:
            raise TensorFormatError(f"{path}: unsupported dtype code {dtype_code}")
        if not 1 <= ndim <= 4:
            raise TensorFormatError(f"{path}: bad ndim {ndim}")
        raw_dims = fh.read(4 * ndim)
        if len(raw_dims) < 4 * ndim:
            raise TensorFormatError(f"{path}: truncated dims")
        dims = struct.unpack(f"<{ndim}I", raw_dims)
        count = math.prod(dims)  # a Python int: cannot wrap
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        if payload != 4 * count:
            raise TensorFormatError(
                f"{path}: payload is {payload} bytes, expected {4 * count}"
            )
        flat = np.empty(count, dtype="<f4")
        if fh.readinto(flat.data.cast("B")) != payload:
            raise TensorFormatError(f"{path}: payload shorter than its {payload} bytes")
    return flat.reshape(dims).astype(np.float32, copy=False)


def load_json(path, error: type[DivseedError]) -> dict:
    """The JSON object a UTF-8 file holds; error naming the file for any
    other content."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise error(f"{path}: not valid JSON: {e}")
    if not isinstance(doc, dict):
        raise error(f"{path}: not a JSON object")
    return doc


def save_json(doc, path) -> None:
    """Write a JSON artifact (write_json) through atomic_write."""
    with atomic_write(path) as fh:
        write_json(doc, fh, path)


def write_json(doc, fh, path) -> None:
    """A JSON artifact's text: 2-space indent, sorted keys, trailing newline.
    Strict JSON only: NumericError naming path, with nothing written, for a
    NaN or infinite number in doc."""
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as e:
        raise NumericError(f"{path}: not written, JSON holds no NaN or infinity ({e})") from None
    fh.write(text + "\n")
