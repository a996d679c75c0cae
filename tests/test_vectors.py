import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auxlab.vectors import (
    LengthMismatchError,
    NonFiniteError,
    RngStream,
    dot,
    linear_combination,
)
from auxlab.vectors import _derive_stream_id, _stream_ids


class TestLinearCombination:
    def test_identity(self):
        v = np.array([1.0, -2.0, 3.5])
        out = linear_combination([1.0], [v])
        np.testing.assert_array_equal(out, v)

    def test_midpoint(self):
        out = linear_combination([0.5, 0.5], [np.array([-1.0]), np.array([-3.0])])
        np.testing.assert_array_equal(out, np.array([-2.0]))

    def test_matches_scalar_loop_exactly(self):
        # Oracle: accumulate coefficient-by-coefficient with python floats.
        rng = np.random.default_rng(7)
        vectors = [rng.normal(size=1000) for _ in range(3)]
        coeffs = [0.3, -1.25, 2.0]
        out = linear_combination(coeffs, vectors)
        expected = np.empty(1000)
        for j in range(1000):
            acc = coeffs[0] * vectors[0][j]
            acc += coeffs[1] * vectors[1][j]
            acc += coeffs[2] * vectors[2][j]
            expected[j] = acc
        np.testing.assert_array_equal(out, expected)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            linear_combination([1.0, 1.0], [np.zeros(3), np.zeros(4)])
        with pytest.raises(LengthMismatchError):
            linear_combination([1.0], [np.zeros(3), np.zeros(3)])
        with pytest.raises(LengthMismatchError):
            linear_combination([], [])

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteError):
            linear_combination([1.0], [np.array([np.nan])])
        with pytest.raises(NonFiniteError):
            linear_combination([np.inf], [np.array([1.0])])

    @given(
        lam=st.floats(min_value=0.0, max_value=1.0),
        n=st.integers(min_value=1, max_value=50),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_endpoints_exact(self, lam, n, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=n), rng.normal(size=n)
        out = linear_combination([1.0 - lam, lam], [a, b])
        if lam == 0.0:
            np.testing.assert_array_equal(out, a)
        if lam == 1.0:
            np.testing.assert_array_equal(out, b)
        lo = np.minimum(a, b) - 1e-12
        hi = np.maximum(a, b) + 1e-12
        assert np.all(out >= lo - np.abs(lo) * 1e-12)
        assert np.all(out <= hi + np.abs(hi) * 1e-12)

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        scale=st.floats(min_value=-8.0, max_value=8.0).filter(lambda c: abs(c) > 1e-6),
    )
    @settings(max_examples=40, deadline=None)
    def test_linear_in_coefficients(self, seed, scale):
        rng = np.random.default_rng(seed)
        vectors = [rng.normal(size=32) for _ in range(3)]
        coeffs = list(rng.uniform(-1, 1, size=3))
        base = linear_combination(coeffs, vectors)
        scaled = linear_combination([scale * c for c in coeffs], vectors)
        np.testing.assert_allclose(scaled, scale * base, rtol=1e-12, atol=1e-12)

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_replay_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        vectors = [rng.normal(size=64) for _ in range(4)]
        coeffs = list(rng.uniform(-1, 1, size=4))
        first = linear_combination(coeffs, vectors)
        second = linear_combination(coeffs, vectors)
        assert np.array_equal(first, second)


class TestDot:
    def test_hand_value(self):
        assert dot(np.array([1.0, 2.0]), np.array([3.0, -1.0])) == 1.0

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=10), rng.normal(size=10)
        acc = 0.0
        for j in range(10):
            acc += a[j] * b[j]
        assert dot(a, b) == pytest.approx(acc, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            dot(np.zeros(2), np.zeros(3))

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        a, b = rng.normal(size=10_000), rng.normal(size=10_000)
        assert dot(a, b) == dot(a, b)


class TestRngStream:
    def test_same_key_same_sequence(self):
        s = RngStream(seed=123, stream_id=9)
        x = s.generator().normal(size=8)
        y = RngStream(seed=123, stream_id=9).generator().normal(size=8)
        assert np.array_equal(x, y)

    def test_different_children_differ(self):
        root = RngStream(seed=0)
        a = root.child("batch", 0, 0).generator().normal(size=16)
        b = root.child("batch", 0, 1).generator().normal(size=16)
        c = root.child("batch", 1, 0).generator().normal(size=16)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_child_is_order_independent(self):
        root = RngStream(seed=42)
        # Deriving other children in between must not perturb a stream.
        first = root.child("init").generator().normal(size=4)
        root.child("noise")
        root.child("batch", 3)
        again = root.child("init").generator().normal(size=4)
        assert np.array_equal(first, again)

    def test_seed_separates_streams(self):
        a = RngStream(seed=1, stream_id=5).generator().normal(size=8)
        b = RngStream(seed=2, stream_id=5).generator().normal(size=8)
        assert not np.array_equal(a, b)

    def test_frozen(self):
        s = RngStream(seed=1)
        with pytest.raises(AttributeError):
            s.seed = 2

    def test_child_integers_row_count_is_the_label_count(self):
        root = RngStream(seed=4)
        labels = [("point", p, 1) for p in range(3)]
        got = root.child_integers(labels, 500, 7)
        assert got.shape == (3, 7)
        for row, label in zip(got, labels):
            np.testing.assert_array_equal(
                row, root.child(*label).generator().integers(0, 500, size=7))

    @pytest.mark.parametrize("labels", [
        [("batch", 3, step) for step in range(37, 101)],
        [("point", p, 2) for p in range(20)],
        [(7,), (8,), ("seven",)],
        [(1,), (True,), (1.0,)],  # equal values, different reprs
        [(0.0, 1), (-0.0, 1)],
        [("batch", -3, 2**70), ("batch", -3, -(2**70)), ("batch", -3, -1)],
        [("it's", 'say "hi"', 1), ("it's", 'say "hi"', 2), ("it's", "a\\'b", 3)],
        [(), ("a",), ("a", 1), ("a", 1, 2), ("a", (1, 2), 3)],
        [("same", 1), ("same", 1)],
        [("only", 5)],
        [],
    ], ids=["steps", "points", "one_item", "equal_values", "signed_zeros", "big_ints",
            "quotes", "lengths", "repeated", "single", "none"])
    def test_stream_ids_equal_derive_stream_id(self, labels):
        for parent in (0, 12345, 2**64 - 1):
            assert list(_stream_ids(parent, labels)) == [
                _derive_stream_id(parent, label) for label in labels]
        root = RngStream(seed=6, stream_id=99)
        got = root.child_integers(labels, 500, 7)
        assert got.shape == (len(labels), 7)
        for row, label in zip(got, labels):
            np.testing.assert_array_equal(
                row, root.child(*label).generator().integers(0, 500, size=7))

    def test_child_integers_allocates_the_same_up_to_64_rows(self):
        # the rows are computed for a multiple of 64 streams; only the labels,
        # built before measuring, grow with the call
        root = RngStream(seed=3)
        labels = [("batch", 0, step) for step in range(64)]
        few = labels[:10]
        root.child_integers(labels, 2000, 64)  # warm-up
        peaks = []
        tracemalloc.start()
        try:
            for rows in (few, labels):
                tracemalloc.reset_peak()
                before, _ = tracemalloc.get_traced_memory()
                root.child_integers(rows, 2000, 64)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 1024
