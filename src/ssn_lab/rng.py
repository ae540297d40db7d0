"""Seedable random source with portable, platform-stable output.

Uniform bits come from a PCG64 stream. Normal variates are produced by
applying the inverse normal CDF to 53-bit uniforms offset into the open
interval (0, 1), so a seed determines every draw bit-for-bit on any platform
with IEEE-754 doubles.

Each variate uses exactly one 64-bit PCG64 output: the range 2**53 is a power
of two, so numpy's bounded-integer method never rejects. A large draw can
therefore be split, with the second half drawn from a copy of the stream
advanced past the first (on a one-thread pool, given a second CPU), and
return the same bytes and leave the stream where a serial draw would.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextvars import ContextVar, copy_context

import numpy as np
from scipy.special import ndtri

from .errors import ValidationError, check_count

_U64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_CHUNK = 1 << 15  # variates per chunk: the temporaries stay in cache
_SPLIT_MIN = 1 << 19  # smaller draws stay serial: a split pays only on an idle core
_IN_PASS = ContextVar("in_pass", default=False)  # set inside _side_by_side's passes


class PortableRng:
    """PCG64-backed generator producing inverse-CDF normal variates."""

    def __init__(self, seed: int):
        self.seed = check_seed(seed)
        self._bits = np.random.Generator(np.random.PCG64(self.seed))

    def uniform_open(self, size=None) -> np.ndarray:
        """Uniforms in the open interval (0, 1), each carrying 53 bits."""
        k = self._bits.integers(0, 1 << 53, size=_check_size(size), dtype=np.int64)
        return (np.asarray(k, dtype=np.float64) + 0.5) * 2.0**-53

    def standard_normal(self, size) -> np.ndarray:
        """Inverse-CDF normals, ``ndtri(uniform_open(size))`` bit for bit."""
        if size is None:
            raise ValidationError("size must be given: there is no scalar draw")
        out = _empty(_check_size(size))
        self._bits = _fill(self._bits, out.reshape(-1))
        return out

    def advance(self, count: int) -> None:
        """Move past ``count`` variates: the stream continues exactly as after
        a draw of that many normals."""
        self._bits = _advanced(self._bits, check_count(count, 0, "count"))

    def integers(self, low: int, high: int, size=None):
        return self._bits.integers(low, high, size=_check_size(size))

    def draw_seed(self) -> int:
        """A fresh 63-bit seed for a child generator."""
        return int(self._bits.integers(0, 1 << 63, dtype=np.int64))


def _side_by_side(*passes) -> list:
    """The results of the independent zero-argument ``passes``, in order. With
    a second CPU in this process's affinity (the load is not read), a
    one-thread pool, shut down on return, runs the passes at odd positions in
    copies of the caller's context (numpy's error state), and the calling
    thread runs each even pass once it holds every result before it. A
    failure thus raises what a serial run would: the first in that order.
    Called from inside a pass, it runs its passes serially, so no pool
    starts inside another."""
    if (_IN_PASS.get() or not hasattr(os, "sched_getaffinity")
            or len(os.sched_getaffinity(0)) < 2):
        return [run() for run in passes]
    pool = ThreadPoolExecutor(1)
    token = _IN_PASS.set(True)
    try:
        theirs = [pool.submit(copy_context().run, run) for run in passes[1::2]]
        return [theirs[index // 2].result() if index % 2 else run()
                for index, run in enumerate(passes)]
    finally:
        _IN_PASS.reset(token)
        pool.shutdown(cancel_futures=True)


def _check_size(size):
    """A draw's ``size`` under the integer rule: None (a scalar), a count,
    or a tuple or list of counts."""
    if isinstance(size, (tuple, list)):
        return tuple(check_count(extent, 0, "size") for extent in size)
    return None if size is None else check_count(size, 0, "size")


def _empty(size) -> np.ndarray:
    """``np.empty(size)`` for a draw; a size past numpy's limit, unless
    negative, is a ``MemoryError``, as is one no memory can hold."""
    try:
        return np.empty(size)
    except ValueError as err:
        if np.any(np.asarray(size) < 0):
            raise
        raise MemoryError(f"cannot draw {size} normals: {err}") from err


def _fill(bits: np.random.Generator, flat: np.ndarray) -> np.random.Generator:
    """Fill the 1-d ``flat`` with normals from ``bits``, its two halves side
    by side from ``_SPLIT_MIN`` variates on; returns the stream where a
    serial draw ends."""
    half = flat.size // 2 if flat.size >= _SPLIT_MIN else 0
    if not half:
        _fill_normal(bits, flat)
        return bits
    tail = _advanced(bits, half)
    _side_by_side(lambda: _fill_normal(bits, flat[:half]),
                  lambda: _fill_normal(tail, flat[half:]))
    return tail


def _advanced(bits: np.random.Generator, count: int) -> np.random.Generator:
    """A new generator on the stream of ``bits``, ``count`` 64-bit outputs
    ahead. ``PCG64.advance`` drops the buffered 32-bit output, which a draw
    of normals keeps, so it is carried over; ``bits`` is left as it was."""
    start = bits.bit_generator.state
    ahead = np.random.PCG64()
    ahead.state = start
    ahead.advance(count)
    ahead.state = {**ahead.state, "has_uint32": start["has_uint32"],
                   "uinteger": start["uinteger"]}
    return np.random.Generator(ahead)


def _fill_normal(bits: np.random.Generator, out: np.ndarray) -> None:
    """Fill the flat ``out`` with inverse-CDF normals from ``bits``, chunk by
    chunk and in place; both numpy steps release the GIL."""
    for start in range(0, out.size, _CHUNK):
        part = out[start : start + _CHUNK]
        k = bits.integers(0, 1 << 53, size=part.size, dtype=np.int64)
        np.add(k, 0.5, out=part)
        part *= 2.0**-53
        ndtri(part, out=part)


def check_seed(seed) -> int:
    """``seed`` as an integer in the one seed domain, [0, 2**64)."""
    value = check_count(seed, 0, "seed")
    if value > _U64:
        raise ValidationError(f"seed must be < 2**64, got {value}")
    return value


def mix_seed(*parts: int) -> int:
    """Deterministic splitmix64-style combination of seeds into a seed.

    Used wherever independent child streams are derived from structured
    coordinates (e.g. one stream per sweep cell). Avoids Python's salted
    ``hash``, which changes between interpreter runs. Every part must be in
    the seed domain, so no two parts alias.
    """
    acc = _GOLDEN
    for part in parts:
        acc = (acc ^ check_seed(part)) * 0xBF58476D1CE4E5B9 & _U64
        acc = (acc ^ (acc >> 30)) * 0x94D049BB133111EB & _U64
        acc = acc ^ (acc >> 31)
        acc = (acc + _GOLDEN) & _U64
    return acc & 0x7FFFFFFFFFFFFFFF
