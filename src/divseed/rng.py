"""Deterministic random number generation (splitmix64).

Every stochastic choice in the package flows through `Rng` so that a run is
reproducible bit-for-bit from its seed on any platform. The generator is
splitmix64, specified exactly:

    state_k   = (seed + (k + 1) * 0x9E3779B97F4A7C15)  mod 2^64
    z         = state_k
    z         = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z         = ((z ^ (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output_k  = z ^ (z >> 31)

i.e. the k-th draw is a pure function of (seed, k), which lets bulk draws be
vectorised while remaining identical to sequential calls. Derived quantities:

  float53:   u64 >> 11, scaled by 2^-53, uniform in [0, 1)
  randint:   rejection sampling on 64-bit draws (exactly uniform)
  shuffle:   Fisher-Yates using randint; all draws are taken in one bulk
             call and checked against their rejection limits, giving the
             same permutation (and stream position) as one randint per
             swap; if any draw would be rejected, the sequential loop runs
  derive:    child seed = mix64(seed XOR mix64(stream)), mix64 = the splitmix
             finaliser above; used to hand independent streams to parallel
             tasks (one stream id per class / image / stage).
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
#: swap targets Rng.shuffle holds as Python ints at once
_SHUFFLE_BLOCK = 4096


def mix64(x: int) -> int:
    """splitmix64 finaliser on a 64-bit integer."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


def derive_seed(seed: int, stream: int) -> int:
    """Child seed for an independent stream (deterministic, order-free)."""
    return mix64((seed & _MASK64) ^ mix64(stream))


# (k * _GOLDEN) mod 2^64 for k = 1, 2, ...: the counter steps of a bulk draw.
# Read-only and a pure function of its length, so every stream in the process
# can share it; next_u64_array grows it on demand, nothing builds it at import.
_steps = np.empty(0, dtype=np.uint64)


def _counter_steps(n: int) -> np.ndarray:
    global _steps
    if n > len(_steps):
        steps = np.arange(1, max(n, 2 * len(_steps)) + 1, dtype=np.uint64)
        steps *= np.uint64(_GOLDEN)  # wraps mod 2^64, as array ops do silently
        steps.flags.writeable = False
        _steps = steps
    return _steps[:n]


class Rng:
    """Counter-based splitmix64 stream."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._count = 0  # draws consumed so far

    def next_u64(self) -> int:
        self._count += 1
        state = (self.seed + self._count * _GOLDEN) & _MASK64
        return mix64(state)

    def next_u64_array(self, n: int) -> np.ndarray:
        """n draws at once; bit-identical to n next_u64() calls."""
        # state_(count+i) = base + i * golden; base in Python ints, so no
        # numpy scalar overflows
        base = (self.seed + self._count * _GOLDEN) & _MASK64
        self._count += n
        z = _counter_steps(n) + np.uint64(base)
        t = z >> np.uint64(30)
        z ^= t
        z *= np.uint64(_MIX1)
        np.right_shift(z, np.uint64(27), out=t)
        z ^= t
        z *= np.uint64(_MIX2)
        np.right_shift(z, np.uint64(31), out=t)
        z ^= t
        return z

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        u = self.next_u64() >> 11
        return low + (high - low) * (u * 2.0 ** -53)

    def uniform_array(self, n: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """n uniform() draws at once, with the same float operations."""
        z = self.next_u64_array(n)
        z >>= np.uint64(11)
        u = z.astype(np.float64)
        u *= 2.0 ** -53
        u *= high - low
        u += low
        return u

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n), exact via rejection sampling."""
        if n <= 0:
            raise ValueError("randint bound must be positive")
        limit = (2 ** 64 // n) * n
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def shuffle(self, items) -> None:
        """In-place Fisher-Yates over a list (or any mutable sequence, such
        as an array.array); swap i takes randint(i + 1), i = n-1 .. 1. The
        swap targets are read as Python ints a block at a time."""
        n = len(items)
        if n < 2:
            return
        start = self._count
        draws = self.next_u64_array(n - 1)
        bounds = np.arange(n, 1, -1, dtype=np.uint64)
        # randint rejects u >= (2**64 // b) * b = 2**64 - r, r = 2**64 mod b
        r = (np.uint64(_MASK64) % bounds + np.uint64(1)) % bounds
        if np.any((r != 0) & (draws > np.uint64(_MASK64) - r)):
            self._count = start
            for i in range(n - 1, 0, -1):
                j = self.randint(i + 1)
                items[i], items[j] = items[j], items[i]
            return
        np.remainder(draws, bounds, out=draws)
        for lo in range(0, n - 1, _SHUFFLE_BLOCK):
            for i, j in zip(range(n - 1 - lo, 0, -1), draws[lo : lo + _SHUFFLE_BLOCK].tolist()):
                items[i], items[j] = items[j], items[i]

    def sample_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), partial Fisher-Yates order."""
        if k > n:
            raise ValueError(f"cannot sample {k} distinct from {n}")
        pool = list(range(n))
        for i in range(k):
            j = i + self.randint(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]
