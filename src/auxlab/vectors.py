"""Flat parameter-vector arithmetic and deterministic pseudo-randomness.

A parameter vector is a plain 1-D float64 ``numpy.ndarray``. Every operation
here is pure, validates finiteness, and sums in a fixed order so that results
are bit-identical across runs and across worker counts.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import Sequence

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

    def reused_generator(self) -> np.random.Generator:
        """This thread's one reused generator, re-keyed to the start of this
        stream: it yields what :meth:`generator` would, without building a
        Philox, whose constructor also reads OS entropy that the key then
        discards. Valid until the thread's next call."""
        # the 128-bit key of generator() as two words, low word first
        return _REUSED.rekeyed((self.stream_id & _MASK64, self.seed & _MASK64))


class _Reused(threading.local):
    """Per thread: one Philox, its generator, and the state that re-keys it
    to a stream's start (zero counter, empty buffer). Built on first use, so
    importing this module does not load ``numpy.random``."""

    generator = None

    def rekeyed(self, key: tuple[int, int]) -> np.random.Generator:
        if self.generator is None:
            self.bit_generator = np.random.Philox(0)  # any seed: each use re-keys it
            self.generator = np.random.Generator(self.bit_generator)
            self.state = self.bit_generator.state
        self.state["state"]["key"] = key
        self.bit_generator.state = self.state
        return self.generator


_REUSED = _Reused()
