"""Counter-based pseudo-random numbers (splitmix64).

The generator is a pure function of (seed, counter), so streams are
bit-identical across platforms and independent of draw order history
once forked. Forks derive child seeds by hashing a label, which makes
per-parameter / per-record streams order-independent.
"""

from __future__ import annotations

import math

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)


def _mix(z):
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _M1
        z = (z ^ (z >> np.uint64(27))) * _M2
        return z ^ (z >> np.uint64(31))


def _fnv1a(text):
    h = int(_FNV_OFFSET)
    for b in text.encode("utf-8"):
        h = ((h ^ b) * int(_FNV_PRIME)) & 0xFFFFFFFFFFFFFFFF
    return np.uint64(h)


class Rng:
    """Splitmix64 stream addressed by an incrementing counter."""

    def __init__(self, seed):
        if not (isinstance(seed, (int, np.integer)) and 0 <= seed < 1 << 64):
            raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
        self.seed = np.uint64(seed)
        self.counter = np.uint64(0)

    def fork(self, label):
        """Independent child stream derived from a string label."""
        return Rng(_mix(self.seed ^ _fnv1a(str(label))))

    def _raw(self, n):
        with np.errstate(over="ignore"):
            ctr = self.counter + np.arange(1, n + 1, dtype=np.uint64)
            self.counter += np.uint64(n)
            return _mix(self.seed + ctr * _GOLDEN)

    def uniform(self, shape=()):
        """Uniform floats in [0, 1) with 53-bit resolution."""
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        u = (self._raw(n) >> np.uint64(11)).astype(np.float64) * (2.0**-53)
        return u.reshape(shape) if shape else float(u[0])

    def normal(self, shape=(), std=1.0):
        """Gaussians via Box-Muller over the uniform stream."""
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        m = (n + 1) // 2
        u1 = (self._raw(m) >> np.uint64(11)).astype(np.float64) * (2.0**-53)
        u2 = (self._raw(m) >> np.uint64(11)).astype(np.float64) * (2.0**-53)
        r = np.sqrt(-2.0 * np.log(1.0 - u1))
        theta = 2.0 * math.pi * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n] * std
        return z.reshape(shape) if shape else float(z[0])

    def randint(self, n):
        """Uniform integer in [0, n) by rejection-free 128-bit scaling."""
        raw = int(self._raw(1)[0])
        return (raw * n) >> 64

    def shuffle(self, items):
        """Fisher-Yates; returns a new list."""
        out = list(items)
        for i in range(len(out) - 1, 0, -1):
            j = self.randint(i + 1)
            out[i], out[j] = out[j], out[i]
        return out
