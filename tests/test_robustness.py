"""Random malformed inputs end in a documented error, never a traceback."""

import json

import numpy as np
from hypothesis import given, settings, strategies as st

from divseed.errors import DataError
from divseed.sampling import FLAGS, load_points

_VALID_POINT = {"flags": [], "image": "im0", "label": 1, "loc": 3, "rank": 1, "value": 0.5}

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                max_size=3),
    max_leaves=6,
)


def _is_int64(v) -> bool:
    return type(v) is int and -(2**63) <= v < 2**63


def _documented(key, v) -> bool:
    """Whether value v of a points field is what README documents."""
    if key == "image":
        return isinstance(v, str)
    if key == "value":
        return type(v) is float or _is_int64(v)
    if key == "flags":
        return (isinstance(v, list) and all(isinstance(f, str) and f in FLAGS for f in v)
                and len(set(v)) == len(v))
    return _is_int64(v)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(key=st.sampled_from(sorted(_VALID_POINT)), value=_json_values)
def test_any_json_in_a_points_field_loads_or_is_data_error(tmp_path_factory, key, value):
    path = tmp_path_factory.mktemp("points") / "points.jsonl"
    path.write_text(json.dumps(_VALID_POINT) + "\n" + json.dumps({**_VALID_POINT, key: value})
                    + "\n")
    try:
        points = load_points(path)
    except DataError as e:
        assert f"{path}:2: malformed point" in str(e)
        assert not _documented(key, value)
        return
    assert _documented(key, value)
    got = points[1]
    want = value if key != "flags" else tuple(value)
    field = {"image": "image_id"}.get(key, key)
    if key == "value":
        assert np.array_equal(getattr(got, field), float(value), equal_nan=True)
    else:
        assert getattr(got, field) == want
