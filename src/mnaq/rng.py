"""SplitMix64: a tiny, portable, seedable pseudorandom generator.

This is the generator of Steele, Lea and Vigna with 64 bits of state.
Every certificate and fixture in this package is keyed to it, so results
reproduce across platforms and languages that implement the same stream.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z):
    """SplitMix64's output function, on an int or elementwise on a uint64 array."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """64-bit-state generator; next_u64 yields the canonical stream."""

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        return _mix(self.state)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection (unbiased)."""
        if not 1 <= n <= 1 << 64:
            raise ValueError("below() needs n >= 1 and n <= 2^64")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def below_block(self, n: int, m: int) -> np.ndarray:
        """The next n values of below(m) as int64 (uint64 when m > 2^63), leaving the
        state where n calls of below(m) would: the k-th draw is _mix(state + k*gamma)."""
        if not 1 <= m <= 1 << 64:
            raise ValueError("below_block() needs m >= 1 and m <= 2^64")
        top = _MASK - (1 << 64) % m  # the largest draw below() keeps
        out = np.empty(0, dtype=np.uint64)
        while out.size < n:
            z = _mix(np.arange(1, n - out.size + 1, dtype=np.uint64) * _GAMMA + self.state)
            self.state = (self.state + z.size * _GAMMA) & _MASK
            out = np.concatenate([out, z[z <= top]])
        if m > 1 << 63:
            return out % m if m < 1 << 64 else out  # x % 2^64 is x
        return (out % m).astype(np.int64)

    def choice_sign(self) -> int:
        """Uniform value from {-1, +1}."""
        return 1 if self.next_u64() & 1 else -1
