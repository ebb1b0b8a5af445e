import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from divseed.errors import DataError, TensorFormatError
from divseed.tensor import (
    STD_EPSILON,
    FeatureGrid,
    Grid,
    NormState,
    atomic_write,
    compute_norm_stats,
    l2_normalize_locations,
    load_tensor,
    normalize_features,
    save_json,
    save_tensor,
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
                np.arange(24, dtype=np.float32).reshape(2, 3, 2, 2)):
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
