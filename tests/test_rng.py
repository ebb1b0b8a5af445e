import array

import numpy as np
import pytest
from hypothesis import given, strategies as st

from divseed import rng as rng_module
from divseed.rng import Rng, derive_seed, mix64


def test_same_seed_same_stream():
    a = [Rng(123).next_u64() for _ in range(50)]
    b = [Rng(123).next_u64() for _ in range(50)]
    assert a == b


def test_known_splitmix_values():
    # reference values for seed 1234567, computed once from the documented
    # recurrence with python integers
    r = Rng(1234567)
    seen = [r.next_u64() for _ in range(3)]
    state = 1234567
    expect = []
    for _ in range(3):
        state = (state + 0x9E3779B97F4A7C15) % 2**64
        expect.append(mix64(state))
    assert seen == expect


# seeds anywhere, and seeds within 2^20 of 2^64, where the stream wraps at once
SEEDS = st.one_of(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=2**64 - 2**20, max_value=2**64 - 1),
)


@given(SEEDS, st.integers(0, 40), st.lists(st.tuples(st.booleans(), st.integers(1, 500)),
                                            min_size=1, max_size=6))
def test_array_matches_scalar(seed, start, calls):
    """Bulk draws, from any stream position and interleaved with scalar
    draws, equal the scalar stream."""
    scalar = Rng(seed)
    vec = Rng(seed)
    for _ in range(start):
        assert scalar.next_u64() == vec.next_u64()
    for bulk, n in calls:
        a = np.array([scalar.next_u64() for _ in range(n)], dtype=np.uint64)
        b = vec.next_u64_array(n) if bulk else np.array(
            [vec.next_u64() for _ in range(n)], dtype=np.uint64)
        assert np.array_equal(a, b)
    # streams stay aligned afterwards
    assert scalar.next_u64() == vec.next_u64()


@pytest.mark.parametrize("seed", [0xC0FFEE, 2**64 - 2**20])
def test_array_longer_than_any_before_matches_scalar(seed):
    """A draw longer than every earlier one grows the counter-step table; the
    grown table's draws equal the scalar stream."""
    n = len(rng_module._steps) + 7
    scalar, vec = Rng(seed), Rng(seed)
    scalar.next_u64(), vec.next_u64()
    b = vec.next_u64_array(n)
    assert len(rng_module._steps) >= n
    a = np.array([scalar.next_u64() for _ in range(n)], dtype=np.uint64)
    assert np.array_equal(a, b)
    assert scalar.next_u64() == vec.next_u64()


# (low, high) of every bulk uniform draw: the scene renderer's background
# noise, tone jitter and pixel noise, and the extractor's projections
@pytest.mark.parametrize("low,high", [(0.0, 1.0), (-0.12, 0.12), (-0.10, 0.10),
                                      (-2.0, 2.0), (-1.0, 1.0), (-1, 1)])
@pytest.mark.parametrize("seed", [3, 2**64 - 5])
def test_uniform_array_matches_scalar(seed, low, high):
    scalar, vec = Rng(seed), Rng(seed)
    for n in (1, 3, 48, 1000):
        a = np.array([scalar.uniform(low, high) for _ in range(n)])
        b = vec.uniform_array(n, low, high)
        assert a.tobytes() == b.tobytes()


def test_uniform_range():
    r = Rng(9)
    xs = r.uniform_array(10000)
    assert xs.min() >= 0.0 and xs.max() < 1.0
    assert abs(xs.mean() - 0.5) < 0.02


@given(st.integers(min_value=0, max_value=2**32), st.integers(1, 1000))
def test_randint_in_range(seed, n):
    r = Rng(seed)
    for _ in range(20):
        assert 0 <= r.randint(n) < n


def test_randint_rejects_nonpositive():
    with pytest.raises(ValueError):
        Rng(0).randint(0)


@given(st.integers(min_value=0, max_value=2**32), st.integers(0, 60))
def test_shuffle_is_permutation(seed, n):
    items = list(range(n))
    r = Rng(seed)
    r.shuffle(items)
    assert sorted(items) == list(range(n))


def _sequential_shuffle(rng, items):
    """Fisher-Yates with one randint per swap: the reference permutation."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.randint(i + 1)
        items[i], items[j] = items[j], items[i]


@pytest.mark.parametrize("seed", [0, 1, 0xC0FFEE, 2**64 - 1])
def test_shuffle_matches_sequential_fisher_yates(seed):
    for n in list(range(33)) + [1000, 65537, 100_000]:
        bulk, seq = list(range(n)), list(range(n))
        rb, rs = Rng(seed), Rng(seed)
        rb.shuffle(bulk)
        _sequential_shuffle(rs, seq)
        assert bulk == seq, n
        assert rb.next_u64() == rs.next_u64()  # same stream position after


def test_shuffle_of_an_array_equals_that_of_a_list():
    """The head shuffles its point order as an array.array of int64, across
    several blocks of swap targets."""
    n = 3 * 4096 + 5
    items, arr = list(range(n)), array.array("q", range(n))
    Rng(9).shuffle(items)
    Rng(9).shuffle(arr)
    assert arr.tolist() == items


class ScriptedRng(Rng):
    """A stream whose draws are given, in the same counter-based form."""

    def __init__(self, draws):
        super().__init__(0)
        self.draws = draws

    def next_u64(self):
        self._count += 1
        return self.draws[self._count - 1]

    def next_u64_array(self, n):
        out = np.array(self.draws[self._count : self._count + n], dtype=np.uint64)
        self._count += n
        return out


def test_shuffle_with_a_rejected_draw_matches_sequential():
    # for bound 3, randint rejects u >= 2**64 - 1 (2**64 mod 3 == 1); bounds
    # 4 and 2 divide 2**64 and never reject
    draws = [5, 2**64 - 1, 7, 9, 11, 13]
    bulk, seq = list("abcd"), list("abcd")
    rb, rs = ScriptedRng(draws), ScriptedRng(draws)
    rb.shuffle(bulk)
    _sequential_shuffle(rs, seq)
    assert rs._count == 4  # the rejection cost one extra draw
    assert bulk == seq and rb._count == rs._count
    # taking the rejected draw modulo 3 would give another permutation
    assert (2**64 - 1) % 3 != 7 % 3


def test_sample_indices_distinct():
    got = Rng(5).sample_indices(100, 30)
    assert len(set(got)) == 30
    assert all(0 <= i < 100 for i in got)
    with pytest.raises(ValueError):
        Rng(5).sample_indices(3, 4)


def test_derive_seed_decorrelates():
    children = {derive_seed(42, i) for i in range(1000)}
    assert len(children) == 1000
    assert derive_seed(42, 7) == derive_seed(42, 7)
    assert derive_seed(42, 7) != derive_seed(43, 7)
