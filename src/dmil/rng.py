"""Deterministic 64-bit random stream used everywhere the package needs randomness.

The generator is a splitmix-style counter RNG: the state advances by a fixed
odd constant and each output is a bijective mix of the new state.  All
arithmetic is modulo 2**64, so streams are byte-identical across platforms.
Uniform doubles use the top 53 bits of one output; standard normals use
Box-Muller with one (cos-branch) sample per pair of uniforms.  Test vectors
live in tests/data/rng_vectors.json.

Because the state is a counter, n streams can be stepped together: Streams
holds one counter per stream, and row i of each of its draws equals the same
draw on SplitMix64 with the i-th seed.  Both classes share one array mix and
one Box-Muller formula.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_U64 = np.uint64
_TWO_NEG53 = 2.0**-53


def mix64(z: int) -> int:
    """Output mixing function: bijective avalanche on 64-bit integers."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def _mix_array(z: np.ndarray) -> np.ndarray:
    """mix64 over a uint64 array (wrapping arithmetic)."""
    z = (z ^ (z >> _U64(30))) * _U64(_MIX1)
    z = (z ^ (z >> _U64(27))) * _U64(_MIX2)
    return z ^ (z >> _U64(31))


def _counter(state, n: int) -> np.ndarray:
    """The next n counter values after each uint64 state, along a new last
    axis."""
    return np.asarray(state, dtype=_U64)[..., None] + _U64(GAMMA) * np.arange(1, n + 1, dtype=_U64)


def _unit(u: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1) from the top 53 bits of each output."""
    return (u >> _U64(11)).astype(np.float64) * _TWO_NEG53


def _box_muller(u: np.ndarray, std: float) -> np.ndarray:
    """One normal of the given std per (even, odd) pair of outputs along the
    last axis, cos branch only."""
    u1 = ((u[..., 0::2] >> _U64(11)) + _U64(1)).astype(np.float64) * _TWO_NEG53  # (0, 1]
    u2 = _unit(u[..., 1::2])  # [0, 1)
    return std * np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def derive_seed(root: int, *branches: int) -> int:
    """Stable sub-stream seed from a root seed and integer branch labels.

    Folding is sequential, so derive_seed(s, a, b) != derive_seed(s, b, a)
    in general; call sites fix their branch order.
    """
    s = mix64(root)
    for b in branches:
        s = mix64((s + GAMMA + (b & MASK64)) & MASK64)
    return s


class SplitMix64:
    """Sequential stream; next_array(n) equals n next_u64() calls exactly."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GAMMA) & MASK64
        return mix64(self.state)

    def next_array(self, n: int) -> np.ndarray:
        """n outputs as a uint64 array (vectorized over the counter)."""
        z = _counter(self.state, n)
        self.state = (self.state + n * GAMMA) & MASK64
        return _mix_array(z)

    # ---- floating point ----

    def uniform_array(self, n: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """n doubles in [low, high), from the top 53 bits of each output."""
        return low + (high - low) * _unit(self.next_array(n))

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        u = (self.next_u64() >> 11) * _TWO_NEG53
        return low + (high - low) * u

    def normal_array(self, n: int, std: float = 1.0) -> np.ndarray:
        """n standard-normal doubles via Box-Muller (cos branch only)."""
        return _box_muller(self.next_array(2 * n), std)

    # ---- integers ----

    def randint(self, n: int) -> int:
        """Integer in [0, n). Modulo reduction; bias is negligible for n << 2**64."""
        return self.next_u64() % n

    def permutation(self, n: int) -> list[int]:
        """Fisher-Yates permutation of range(n), platform-stable."""
        idx = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.randint(i + 1)
            idx[i], idx[j] = idx[j], idx[i]
        return idx


class Streams:
    """n SplitMix64 streams stepped together, one uint64 counter each.  Row i
    of every draw, and the i-th state afterwards, equal the same draw on
    SplitMix64(seeds[i])."""

    __slots__ = ("state",)

    def __init__(self, seeds):
        self.state = np.array([s & MASK64 for s in seeds], dtype=_U64)

    def next_array(self, k: int) -> np.ndarray:
        """(n, k) outputs: row i is next_array(k) of stream i."""
        z = _counter(self.state, k)
        self.state = self.state + _U64(k * GAMMA & MASK64)
        return _mix_array(z)

    def uniform_array(self, k: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """(n, k) doubles: row i is uniform_array(k, low, high) of stream i,
        which equals k uniform(low, high) calls."""
        return low + (high - low) * _unit(self.next_array(k))

    def normal_array(self, k: int, std: float = 1.0) -> np.ndarray:
        """(n, k) normals: row i is normal_array(k, std) of stream i."""
        return _box_muller(self.next_array(2 * k), std)
