import math
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from divseed.errors import DataError, NumericError, TensorFormatError
from divseed.tensor import (
    STD_EPSILON,
    FeatureGrid,
    Grid,
    NormState,
    _row_order_sum,
    atomic_write,
    compute_norm_stats,
    l2_normalize_locations,
    load_tensor,
    normalize_features,
    save_json,
    save_tensor,
    tensor_rows,
)


def fgrid(values, state=NormState.RAW):
    return FeatureGrid(grid=Grid(np.asarray(values, dtype=np.float32)), norm_state=state)


# ---------------------------------------------------------------------------
# Grid basics


def test_grid_shape_and_locations():
    g = Grid(np.arange(24, dtype=np.float32).reshape(2, 3, 4))
    assert (g.height, g.width, g.depth, g.n_locations) == (2, 3, 4, 6)
    # location index i = row * width + col
    assert np.array_equal(g.locations()[1 * 3 + 2], g.values[1, 2])


def test_grid_rejects_nonfinite():
    bad = np.ones((1, 1, 1), dtype=np.float32)
    bad[0, 0, 0] = np.nan
    with pytest.raises(Exception):
        Grid(bad)


# ---------------------------------------------------------------------------
# normalization stats


def test_stats_two_values():
    stats = compute_norm_stats([fgrid([[[1.0], [3.0]]])])
    assert stats.mean[0] == pytest.approx(2.0)
    assert stats.std[0] == pytest.approx(1.0)  # population: sqrt(((1)^2+(1)^2)/2)
    assert stats.divisors()[0] == stats.std[0]  # not clamped


def test_stats_constant_values_flagged():
    stats = compute_norm_stats([fgrid(np.full((2, 2, 3), 5.0))])
    assert np.allclose(stats.mean, 5.0)
    assert np.allclose(stats.std, 0.0)
    assert np.all(stats.divisors() == STD_EPSILON)


def test_stats_two_constant_grids():
    stats = compute_norm_stats([fgrid(np.zeros((1, 2, 1))), fgrid(np.full((1, 2, 1), 2.0))])
    assert stats.mean[0] == pytest.approx(1.0)
    assert stats.std[0] == pytest.approx(1.0)


def test_stats_errors():
    with pytest.raises(DataError):
        compute_norm_stats([])
    with pytest.raises(DataError):
        compute_norm_stats([fgrid(np.zeros((1, 1, 2))), fgrid(np.zeros((1, 1, 3)))])


@given(st.integers(0, 2**32))
def test_stats_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(3, 4, 5)).astype(np.float32)
    grids = [fgrid(vals), fgrid(vals[::-1].copy())]
    a = compute_norm_stats(grids)
    perm = rng.permutation(12)
    shuffled = vals.reshape(12, 5)[perm].reshape(3, 4, 5)
    b = compute_norm_stats([fgrid(shuffled), fgrid(vals[::-1].copy())])
    assert np.allclose(a.mean, b.mean) and np.allclose(a.std, b.std)


def _stacked_norm_stats(features):
    """compute_norm_stats on the concatenated locations: the reference the
    streamed sums must equal bit for bit."""
    stacked = np.concatenate([f.grid.locations() for f in features], dtype=np.float64)
    mean = stacked.mean(axis=0)
    stacked -= mean
    np.square(stacked, out=stacked)
    std = np.sqrt(np.mean(stacked, axis=0))
    return mean.astype(np.float32).astype(np.float64), std.astype(np.float32).astype(np.float64)


def _adversarial_grids(seed, n, depth):
    """n grids of varied sizes, magnitudes from 1e-3 to 1e4 per grid and per
    column, mixed signs, one constant column, one of signed zeros."""
    rng = np.random.default_rng(seed)
    grids = []
    for _ in range(n):
        h, w = rng.integers(1, 6, size=2)
        vals = rng.normal(size=(h, w, depth)) * 10.0 ** rng.uniform(-3, 4)
        vals *= 10.0 ** rng.uniform(-3, 4, size=depth)
        vals += rng.choice([-1e4, 0.0, 1e3]) * rng.integers(0, 2, size=depth)
        if depth > 2:
            vals[..., 1] = 7.25
            vals[..., 2] = -0.0
        grids.append(fgrid(vals))
    return grids


@pytest.mark.parametrize("depth", [1, 2, 5, 48])
def test_streamed_stats_equal_the_stacked_reduce(depth):
    for seed in range(12):
        grids = _adversarial_grids(seed, 40 + seed, depth)
        stats = compute_norm_stats(grids)
        mean, std = _stacked_norm_stats(grids)
        assert stats.mean.tobytes() == mean.tobytes()
        assert stats.std.tobytes() == std.tobytes()


@pytest.mark.parametrize("depth", [2, 5, 48])
def test_row_order_sum_equals_the_axis0_reduce_in_float64(depth):
    """Below the float32 rounding of the stats: the streamed column sums are
    the axis-0 reduce of the concatenation, bit for bit."""
    for seed in range(12):
        blocks = [f.grid.locations().astype(np.float64)
                  for f in _adversarial_grids(seed, 40, depth)]
        want = np.add.reduce(np.concatenate(blocks), axis=0)
        assert _row_order_sum(iter(blocks)).tobytes() == want.tobytes()


def _traced_peak(fn, *args):
    """(result, peak bytes tracemalloc saw allocated during fn(*args))."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_norm_stats_hold_no_copy_of_the_split():
    rng = np.random.default_rng(3)
    grids = [fgrid(rng.normal(size=(8, 8, 48))) for _ in range(200)]
    copy_bytes = 200 * 64 * 48 * 8  # one (N, D) float64 copy
    _, peak = _traced_peak(compute_norm_stats, grids)
    assert peak < copy_bytes / 4


# ---------------------------------------------------------------------------
# two-stage normalization


def test_normalize_two_values():
    stats = compute_norm_stats([fgrid([[[1.0], [3.0]]])])
    out = normalize_features(fgrid([[[1.0], [3.0]]]), stats)
    assert out.norm_state is NormState.UNIT
    flat = out.grid.locations()
    assert flat[0, 0] == pytest.approx(-1.0)
    assert flat[1, 0] == pytest.approx(1.0)


def test_normalize_mean_vector_stays_zero():
    base = np.array([[[1.0, 2.0], [3.0, 4.0]]], dtype=np.float32)
    stats = compute_norm_stats([fgrid(base)])
    exact_mean = np.tile(stats.mean.astype(np.float32), (1, 2, 1))
    out = normalize_features(fgrid(exact_mean), stats)
    assert np.all(out.grid.values == 0.0)  # both locations


def test_normalize_postcondition_norms():
    rng = np.random.default_rng(0)
    vals = rng.normal(size=(6, 7, 9)).astype(np.float32)
    stats = compute_norm_stats([fgrid(vals)])
    out = normalize_features(fgrid(vals), stats)
    norms = np.linalg.norm(out.grid.locations(), axis=1)
    assert np.all((np.abs(norms - 1.0) < 1e-5) | (norms == 0.0))


def test_normalize_rejects_wrong_state_and_depth():
    stats = compute_norm_stats([fgrid(np.ones((1, 2, 3)))])
    unit = normalize_features(fgrid(np.random.default_rng(1).normal(size=(1, 2, 3))), stats)
    with pytest.raises(DataError):
        normalize_features(unit, stats)
    with pytest.raises(DataError):
        normalize_features(fgrid(np.ones((1, 2, 4))), stats)


@given(st.integers(0, 2**32))
@settings(max_examples=30)
def test_unit_stage_idempotent(seed):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(4, 4, 6))
    once = l2_normalize_locations(vals)
    twice = l2_normalize_locations(once.astype(np.float32).astype(np.float64))
    assert np.max(np.abs(twice - once)) < 1e-6


# ---------------------------------------------------------------------------
# DSTN file format


def test_dstn_known_bytes(tmp_path):
    path = tmp_path / "g.dstn"
    save_tensor(np.array([[[1.0], [2.0]], [[3.0], [4.0]]], dtype=np.float32), path)
    blob = path.read_bytes()
    expected = b"DSTN" + bytes([1, 1, 3]) + struct.pack("<3I", 2, 2, 1)
    expected += struct.pack("<4f", 1.0, 2.0, 3.0, 4.0)
    assert blob == expected
    assert len(blob) - len(b"DSTN") - 3 - 12 == 16  # 16 payload bytes


@given(
    arrays(
        dtype=np.float32,
        shape=st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 4)),
        elements=st.floats(-1e6, 1e6, width=32, allow_nan=False),
    )
)
@settings(max_examples=50)
def test_dstn_round_trip_identity(tmp_path_factory, vals):
    path = tmp_path_factory.mktemp("dstn") / "t.dstn"
    save_tensor(vals, path)
    back = load_tensor(path)
    assert back.dtype == np.float32
    assert back.shape == vals.shape
    assert back.tobytes() == vals.tobytes()  # bit-exact, signed zeros included


def test_dstn_round_trip_1d_and_4d(tmp_path):
    for arr in (np.arange(5, dtype=np.float32),
                np.arange(24, dtype=np.float32).reshape(2, 3, 2, 2),
                np.zeros((2, 0, 3), dtype=np.float32)):
        p = tmp_path / "x.dstn"
        save_tensor(arr, p)
        assert np.array_equal(load_tensor(p), arr)


def test_dstn_bad_magic(tmp_path):
    p = tmp_path / "bad.dstn"
    p.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(TensorFormatError):
        load_tensor(p)


def test_dstn_truncated_payload(tmp_path):
    p = tmp_path / "t.dstn"
    save_tensor(np.ones((2, 2, 1), dtype=np.float32), p)
    blob = p.read_bytes()
    p.write_bytes(blob[:-3])
    with pytest.raises(TensorFormatError):
        load_tensor(p)


def test_dstn_rejects_bad_ndim(tmp_path):
    with pytest.raises(TensorFormatError):
        save_tensor(np.zeros((2, 2, 2, 2, 2), dtype=np.float32), tmp_path / "x.dstn")


def test_dstn_rows_write_their_stack(tmp_path):
    rows = [np.arange(6, dtype=np.float32).reshape(2, 3) * i for i in range(4)]
    rows[1] = rows[1].astype(np.int64)  # converted row by row
    with tensor_rows(tmp_path / "rows.dstn", (4, 2, 3)) as append:
        for row in rows:
            append(row)
        assert not (tmp_path / "rows.dstn").exists()  # in place only after the last row
    save_tensor(np.stack(rows).astype(np.float32), tmp_path / "stack.dstn")
    assert (tmp_path / "rows.dstn").read_bytes() == (tmp_path / "stack.dstn").read_bytes()
    # a row of another shape, a row too many, a row missing, five dims
    for shape, bad in (((2, 2, 3), [rows[0], rows[1][:1]]), ((1, 2, 3), rows[:2]),
                       ((3, 2, 3), rows[:2]), ((1, 1, 1, 1, 1), [])):
        with pytest.raises(TensorFormatError):
            with tensor_rows(tmp_path / "bad.dstn", shape) as append:
                for row in bad:
                    append(row)
    assert sorted(os.listdir(tmp_path)) == ["rows.dstn", "stack.dstn"]


def _header(ndim, dims, version=1, dtype_code=1):
    return b"DSTN" + bytes([version, dtype_code, ndim]) + struct.pack(f"<{len(dims)}I", *dims)


#: every malformed DSTN file: its bytes and the error's wording
MALFORMED_DSTN = {
    "bad-magic": (b"NOPE" + bytes(20), "bad magic"),
    "truncated-header": (b"DSTN\x01", "truncated header"),
    "bad-version": (_header(1, [1], version=2) + bytes(4), "unsupported version"),
    "bad-dtype": (_header(1, [1], dtype_code=2) + bytes(4), "unsupported dtype"),
    "bad-ndim": (_header(5, [1] * 5) + bytes(4), "bad ndim"),
    "truncated-dims": (_header(3, [2, 2]), "truncated dims"),
    "short-payload": (_header(2, [2, 2]) + bytes(13), "payload is 13 bytes, expected 16"),
    "trailing-bytes": (_header(1, [2]) + bytes(9), "payload is 9 bytes, expected 8"),
    # 65536**4 wraps to 0 in int64: 23 bytes that once passed as an empty payload
    "wrapped-dims": (_header(4, [65536] * 4), "payload is 0 bytes, expected 73786976294838206464"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_DSTN))
def test_malformed_dstn_is_format_error(tmp_path, case):
    blob, wording = MALFORMED_DSTN[case]
    p = tmp_path / "t.dstn"
    p.write_bytes(blob)
    with pytest.raises(TensorFormatError, match=wording):
        load_tensor(p)


def test_load_reads_the_payload_once(tmp_path):
    arr = np.random.default_rng(0).normal(size=(64, 32, 16)).astype(np.float32)
    save_tensor(arr, tmp_path / "t.dstn")
    back, peak = _traced_peak(load_tensor, tmp_path / "t.dstn")
    assert back.tobytes() == arr.tobytes() and back.flags.writeable
    assert peak < 1.25 * arr.nbytes  # one array, no bytes blob beside it


# ---------------------------------------------------------------------------
# atomic writes


def test_write_raising_partway_keeps_the_old_file(tmp_path):
    path = tmp_path / "t.dstn"
    save_tensor(np.arange(4, dtype=np.float32), path)
    old = path.read_bytes()
    with pytest.raises(RuntimeError):
        with atomic_write(path, "wb") as fh:
            fh.write(b"DSTN\x01")
            raise RuntimeError("crash mid-write")
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["t.dstn"]
    # a JSON document that fails to serialize halfway leaves the old one too
    doc = tmp_path / "d.json"
    save_json({"a": 1}, doc)
    with pytest.raises(TypeError):
        save_json({"a": 2, "b": object()}, doc)
    assert doc.read_text() == '{\n  "a": 1\n}\n'
    assert sorted(os.listdir(tmp_path)) == ["d.json", "t.dstn"]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_json_artifact_refuses_a_non_finite_number(tmp_path, value):
    """NaN and infinity are not JSON: save_json raises NumericError naming
    the file, and an old file at the path stays as it was."""
    doc = tmp_path / "d.json"
    save_json({"a": 1}, doc)
    with pytest.raises(NumericError, match=f"^{doc}: "):
        save_json({"a": [1.0, value]}, doc)
    assert doc.read_text() == '{\n  "a": 1\n}\n'
    assert os.listdir(tmp_path) == ["d.json"]


def test_writers_replace_the_file_only_when_complete(tmp_path, monkeypatch):
    """save_tensor, save_json and save_points all go through atomic_write:
    with the final rename failing, the old file stays and no temporary is
    left."""
    from divseed import tensor
    from divseed.sampling import save_points

    writers = {
        "t.dstn": lambda p: save_tensor(np.ones(3, dtype=np.float32), p),
        "d.json": lambda p: save_json({"a": 2}, p),
        "p.jsonl": lambda p: save_points([], p),
    }
    for name in writers:
        (tmp_path / name).write_bytes(b"old")

    def no_rename(src, dst):
        raise OSError("disk gone")

    monkeypatch.setattr(tensor.os, "replace", no_rename)
    for name, write in writers.items():
        with pytest.raises(OSError):
            write(tmp_path / name)
        assert (tmp_path / name).read_bytes() == b"old"
    assert sorted(os.listdir(tmp_path)) == sorted(writers)
