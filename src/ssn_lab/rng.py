"""Seedable random source with portable, platform-stable output.

Uniform bits come from a PCG64 stream. Normal variates are produced by
applying the inverse normal CDF to 53-bit uniforms offset into the open
interval (0, 1), so a seed determines every draw bit-for-bit on any platform
with IEEE-754 doubles.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

from .errors import ValidationError

_U64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15


class PortableRng:
    """PCG64-backed generator producing inverse-CDF normal variates."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        self._bits = np.random.Generator(np.random.PCG64(self.seed))

    def uniform_open(self, size=None) -> np.ndarray:
        """Uniforms in the open interval (0, 1), each carrying 53 bits."""
        k = self._bits.integers(0, 1 << 53, size=size, dtype=np.int64)
        return (np.asarray(k, dtype=np.float64) + 0.5) * 2.0**-53

    def standard_normal(self, size=None) -> np.ndarray:
        return ndtri(self.uniform_open(size))

    def integers(self, low: int, high: int, size=None):
        return self._bits.integers(low, high, size=size)

    def draw_seed(self) -> int:
        """A fresh 63-bit seed for a child generator."""
        return int(self._bits.integers(0, 1 << 63, dtype=np.int64))


def mix_seed(*parts: int) -> int:
    """Deterministic splitmix64-style combination of integers into a seed.

    Used wherever independent child streams are derived from structured
    coordinates (e.g. one stream per sweep cell). Avoids Python's salted
    ``hash``, which changes between interpreter runs.
    """
    acc = _GOLDEN
    for part in parts:
        acc = (acc ^ (int(part) & _U64)) * 0xBF58476D1CE4E5B9 & _U64
        acc = (acc ^ (acc >> 30)) * 0x94D049BB133111EB & _U64
        acc = acc ^ (acc >> 31)
        acc = (acc + _GOLDEN) & _U64
    return acc & 0x7FFFFFFFFFFFFFFF
