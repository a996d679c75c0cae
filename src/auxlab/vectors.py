"""Flat parameter-vector arithmetic and deterministic pseudo-randomness.

A parameter vector is a plain 1-D float64 ``numpy.ndarray``. Every operation
here is pure, validates finiteness, and sums in a fixed order so that results
are bit-identical across runs: whatever branches train alongside, whether a
run is resumed, and however many BLAS threads numpy uses. Settings classes
declare each field's domain with `within`; `check_domains` enforces those
domains and requires every float in a settings object to be finite.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import MISSING, dataclass, field, fields
from typing import Sequence

import numpy as np

__all__ = [
    "LengthMismatchError",
    "NonFiniteError",
    "RngStream",
    "check_domains",
    "linear_combination",
    "linear_combination_into",
    "dot",
    "within",
]

_MASK64 = (1 << 64) - 1


class LengthMismatchError(ValueError):
    """Vectors that must share a length do not."""


class NonFiniteError(FloatingPointError):
    """A parameter vector or coefficient contains NaN or Inf."""


def within(domain: str | tuple[str, ...], default=MISSING):
    """A dataclass field whose value, or each entry of a tuple value, must lie
    in ``domain``: "> b", ">= b", "in [a, b]", "in [a, b)", or a tuple of the
    allowed names. The class's ``__post_init__`` calls `check_domains`."""
    return field(default=default, metadata={"domain": domain})


def _holds(domain: str | tuple[str, ...], x) -> bool:
    if isinstance(domain, tuple):
        return x in domain
    if domain.startswith("in "):
        low, high = map(float, domain[4:-1].split(","))
        return low <= x and (x < high if domain.endswith(")") else x <= high)
    op, bound = domain.split()
    return {">": x > float(bound), ">=": x >= float(bound)}[op]


def _entries(value) -> list:
    """``value`` itself, or the entries of a tuple or list at any depth."""
    if isinstance(value, (tuple, list)):
        return [entry for item in value for entry in _entries(item)]
    return [value]


def check_domains(settings) -> None:
    """Raise ValueError, starting with the field's name, at the first field of
    dataclass ``settings`` that holds a float that is not finite, at any tuple
    depth, or a value outside its `within` domain; None is an unset value."""
    for f in fields(settings):
        value = getattr(settings, f.name)
        entries = _entries(value)
        if any(isinstance(x, float) and not math.isfinite(x) for x in entries):
            raise ValueError(f"{f.name}: {value!r} holds a value that is not finite")
        domain = f.metadata.get("domain")
        if domain and value is not None and not all(_holds(domain, x) for x in entries):
            says = "one of " + ", ".join(domain) if isinstance(domain, tuple) else domain
            raise ValueError(f"{f.name}: must be {says}, got {value!r}")


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

    def child_integers(self, labels: Sequence[tuple], high: int, size: int) -> np.ndarray:
        """(len(labels), size) int64 whose row i is, bit for bit, what
        ``self.child(*labels[i]).generator().integers(0, high, size)`` draws.

        One ``np.random.Philox`` is built per call and re-keyed for each
        stream; its raw 64-bit words are cut into 32-bit halves, low half
        first, and scaled by Lemire's method, as numpy's ``Generator.integers``
        does for a range below 2**32. A row in which that method would reject
        a word is drawn again by a real generator, and so is every row when
        ``high >= 2**32``. The rows are computed for a multiple of ``_PAD``
        streams, so every call of up to ``_PAD`` rows allocates the same.
        """
        if high < 1:
            raise ValueError("high <= 0")
        count = len(labels)
        padded = -(-count // _PAD) * _PAD
        words = (size + 1) // 2  # 64-bit words per row
        raw = np.zeros((padded, words), np.uint64)
        bits = np.random.Philox(0)
        # lists, not arrays: the setter reads them item by item, lists faster
        key = [0, self.seed & _MASK64]
        state = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": key},
                 "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        for i, labels_i in enumerate(labels):
            key[0] = _derive_stream_id(self.stream_id, labels_i)
            bits.state = state
            raw[i] = bits.random_raw(words)
        halves = np.empty((padded, words, 2), np.uint64)
        np.bitwise_and(raw, _LOW32, out=halves[:, :, 0])
        np.right_shift(raw, _SHIFT32, out=halves[:, :, 1])
        draws = halves.reshape(padded, 2 * words)[:, :size]
        out = np.empty((padded, size), np.int64)
        redraw = np.ones(padded, bool)
        if high < 2**32:
            draws *= np.uint64(high)
            np.right_shift(draws, _SHIFT32, out=out, casting="unsafe")
            draws &= _LOW32
            np.any(draws < np.uint64(2**32 % high), axis=1, out=redraw)
        for i in np.flatnonzero(redraw[:count]):
            out[i] = self.child(*labels[i]).generator().integers(0, high, size=size)
        return out[:count]


_PAD = 64
_LOW32, _SHIFT32 = np.uint64(0xFFFFFFFF), np.uint64(32)
