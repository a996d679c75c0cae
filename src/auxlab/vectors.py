"""Flat parameter-vector arithmetic and deterministic pseudo-randomness.

A parameter vector is a plain 1-D float64 ``numpy.ndarray``. Every operation
here is pure, validates finiteness, and sums in a fixed order so that results
are bit-identical across runs and across worker counts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "LengthMismatchError",
    "NonFiniteError",
    "RngStream",
    "linear_combination",
    "linear_combination_into",
    "dot",
]

_MASK64 = (1 << 64) - 1


class LengthMismatchError(ValueError):
    """Vectors that must share a length do not."""


class NonFiniteError(FloatingPointError):
    """A parameter vector or coefficient contains NaN or Inf."""


def linear_combination(coeffs: Sequence[float], vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Return sum_b coeffs[b] * vectors[b].

    Accumulation runs in ascending index order over ``vectors``, which makes
    the result reproducible bit-for-bit regardless of how callers schedule
    work. Inputs must be finite and of equal length.
    """
    if len(coeffs) != len(vectors):
        raise LengthMismatchError(
            f"{len(coeffs)} coefficients for {len(vectors)} vectors"
        )
    if len(vectors) == 0:
        raise LengthMismatchError("empty combination")
    cs = [float(c) for c in coeffs]
    if not all(np.isfinite(c) for c in cs):
        raise NonFiniteError("non-finite coefficient")
    n = len(vectors[0])
    for i, v in enumerate(vectors):
        if len(v) != n:
            raise LengthMismatchError(f"vector {i} has length {len(v)}, expected {n}")
        if not np.all(np.isfinite(v)):
            raise NonFiniteError(f"vector {i} contains NaN or Inf")
    acc = np.empty(n)
    linear_combination_into(acc, cs, vectors, np.empty(n))
    if not np.all(np.isfinite(acc)):
        raise NonFiniteError("combination overflowed to non-finite values")
    return acc


def linear_combination_into(
    out: np.ndarray, coeffs: Sequence[float], vectors: Sequence[np.ndarray],
    scratch: np.ndarray,
) -> None:
    """``out`` ← sum_b coeffs[b] * vectors[b], in place and unchecked.

    The arithmetic of ``linear_combination``, in the same order, for callers
    that own the buffers and check finiteness themselves; ``scratch`` holds
    each product before it is added.
    """
    np.multiply(vectors[0], coeffs[0], out=out)
    for c, v in zip(coeffs[1:], vectors[1:]):
        out += np.multiply(v, c, out=scratch)


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product with a fixed, deterministic summation order.

    Uses numpy's single-threaded pairwise reduction, so the result does not
    depend on BLAS threading or caller-side parallelism.
    """
    if len(a) != len(b):
        raise LengthMismatchError(f"dot of lengths {len(a)} and {len(b)}")
    return float(np.add.reduce(np.asarray(a, dtype=np.float64) * np.asarray(b, dtype=np.float64)))


def _derive_stream_id(parent_id: int, labels: tuple) -> int:
    payload = repr((parent_id, labels)).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")


@dataclass(frozen=True)
class RngStream:
    """A named, splittable random stream.

    Backed by the counter-based Philox generator keyed on ``(seed,
    stream_id)``: equal pairs replay the same sequence, distinct stream ids
    give statistically independent sequences, and derivation via
    :meth:`child` does not depend on the order streams are created in.
    """

    seed: int
    stream_id: int = 0

    def child(self, *labels) -> "RngStream":
        """Derive a sub-stream keyed by hashable labels (ints / strings)."""
        return RngStream(self.seed, _derive_stream_id(self.stream_id, labels))

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        key = ((self.seed & _MASK64) << 64) | (self.stream_id & _MASK64)
        return np.random.Generator(np.random.Philox(key=key))

    def child_integers(self, labels: Iterable[tuple], count: int, high: int,
                       size: int) -> np.ndarray:
        """(count, size) int64 whose row i is, bit for bit, what
        ``self.child(*label_i).generator().integers(0, high, size)`` draws,
        for the first ``count`` of ``labels``.

        The rows are replayed without a generator: Philox4x64-10 words for
        every stream at once (see ``_philox``), cut into 32-bit halves low
        half first and scaled by Lemire's method, as numpy's
        ``Generator.integers`` does for a range below 2**32. A row in which
        that method would reject a word is drawn again by a real generator,
        and so is every row when ``high >= 2**32``. The rows are computed
        for a multiple of ``_PAD`` streams, so every call of up to ``_PAD``
        rows allocates the same.
        """
        if high < 1:
            raise ValueError("high <= 0")
        padded = -(-count // _PAD) * _PAD
        ids = np.fromiter(chain((_derive_stream_id(self.stream_id, labels_i)
                                 for labels_i in labels), repeat(0)),
                          np.uint64, padded)
        words = (size + 1) // 2  # 64-bit words per row
        raw = _philox(self.seed, ids, -(-words // 4))[:, :words]
        halves = np.empty((padded, words, 2), np.uint64)
        np.bitwise_and(raw, _LOW32, out=halves[:, :, 0])
        np.right_shift(raw, _SHIFT32, out=halves[:, :, 1])
        draws = halves.reshape(padded, 2 * words)[:count, :size]
        out = np.empty((padded, size), np.int64)[:count]
        redraw = np.ones(count, bool)
        if high < 2**32:
            draws *= np.uint64(high)
            np.right_shift(draws, _SHIFT32, out=out, casting="unsafe")
            draws &= _LOW32
            np.any(draws < np.uint64(2**32 % high), axis=1, out=redraw)
        for i in np.flatnonzero(redraw):
            out[i] = RngStream(self.seed, int(ids[i])).generator().integers(
                0, high, size=size)
        return out


_PAD = 64
_LOW32, _SHIFT32 = np.uint64(0xFFFFFFFF), np.uint64(32)
_PHILOX_MUL = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_BUMP = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def _philox(seed: int, stream_ids: np.ndarray, blocks: int) -> np.ndarray:
    """(len(stream_ids), 4 * blocks) uint64: the first ``blocks`` Philox4x64-10
    blocks of each stream, in the order numpy's ``Philox`` returns its words.

    Stream i is keyed (stream_ids[i], seed), key word 0 first, and its
    counter runs 1, 2, ..., since numpy's counter starts at 0 and steps
    before each block. A 64-bit product is split into 32-bit halves so that
    uint64 arithmetic gives its high word.
    """
    k, n = len(stream_ids), len(stream_ids) * blocks
    # words 0 and 2 of every block, back to back, with their multipliers;
    # the key is held as [key word 1 | key word 0], the order a round needs
    x = np.zeros(2 * n, np.uint64)
    x[:n] = np.tile(np.arange(1, blocks + 1, dtype=np.uint64), k)
    key = np.empty(2 * n, np.uint64)
    key[:n] = seed & _MASK64
    key[n:] = np.repeat(stream_ids, blocks)
    bump = np.repeat(np.array(_PHILOX_BUMP[::-1], np.uint64), n)
    mul = np.repeat(np.array(_PHILOX_MUL, np.uint64), n)
    mul_lo, mul_hi = mul & _LOW32, mul >> _SHIFT32
    low, last = np.empty_like(x), np.zeros_like(x)
    x_lo, x_hi, t, u, v, high = (np.empty_like(x) for _ in range(6))
    for r in range(10):
        if r:
            key += bump
        np.multiply(x, mul, out=low)
        np.bitwise_and(x, _LOW32, out=x_lo)
        np.right_shift(x, _SHIFT32, out=x_hi)
        # high word of x * mul from the four 32 x 32-bit partial products
        np.multiply(x_lo, mul_lo, out=t)
        t >>= _SHIFT32
        np.multiply(x_hi, mul_lo, out=u)
        u += t
        np.multiply(x_lo, mul_hi, out=v)
        np.bitwise_and(u, _LOW32, out=t)
        v += t
        np.multiply(x_hi, mul_hi, out=high)
        u >>= _SHIFT32
        high += u
        v >>= _SHIFT32
        high += v
        # word 0 <- high(2) ^ word 1 ^ key 0, word 2 <- high(0) ^ word 3 ^ key 1,
        # where words 1 and 3 are the last round's low(2) and low(0)
        high ^= last
        np.bitwise_xor(high[n:], key[n:], out=x[:n])
        np.bitwise_xor(high[:n], key[:n], out=x[n:])
        low, last = last, low
    out = np.empty((k, blocks, 4), np.uint64)
    for j, word in enumerate((x[:n], last[n:], x[n:], last[:n])):
        out[:, :, j] = word.reshape(k, blocks)
    return out.reshape(k, 4 * blocks)
