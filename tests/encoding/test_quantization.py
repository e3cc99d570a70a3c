"""Tests for repro.encoding.quantization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.encoding import grid_resolution, is_on_grid, quantize_simplex, to_grid_integers


class TestToGridIntegers:
    def test_exact_grid_point_unchanged(self):
        x = np.array([0.6, 0.3, 0.1])
        np.testing.assert_array_equal(to_grid_integers(x, 1), [6, 3, 1])

    def test_sum_always_exact(self):
        x = np.array([1 / 3, 1 / 3, 1 / 3])
        assert to_grid_integers(x, 1).sum() == 10

    def test_largest_remainder_assignment(self):
        # thirds: scaled = 3.33.. each; two get floor 3, first gets the extra
        np.testing.assert_array_equal(to_grid_integers(np.full(3, 1 / 3), 1), [4, 3, 3])

    def test_batch(self):
        X = np.array([[0.5, 0.5], [0.21, 0.79]])
        out = to_grid_integers(X, 1)
        assert out.shape == (2, 2)
        np.testing.assert_array_equal(out.sum(axis=1), [10, 10])

    def test_unnormalized_input_normalized_first(self):
        np.testing.assert_array_equal(to_grid_integers(np.array([2.0, 2.0]), 1), [5, 5])

    def test_higher_precision(self):
        out = to_grid_integers(np.array([0.123, 0.877]), 2)
        assert out.sum() == 100
        np.testing.assert_array_equal(out, [12, 88])

    @given(
        hnp.arrays(
            np.float64,
            st.integers(2, 10),
            elements=st.floats(0.001, 100.0),
        ),
        st.integers(1, 3),
    )
    @settings(max_examples=100)
    def test_property_sum_and_nonneg(self, x, q):
        out = to_grid_integers(x, q)
        assert out.sum() == 10**q
        assert (out >= 0).all()


def _loop_grid_integers(x: np.ndarray, q: int) -> np.ndarray:
    """The per-row largest-remainder loop, kept as the reference."""
    from repro.utils.math import normalize_simplex

    scale = 10**q
    arr = normalize_simplex(np.atleast_2d(np.asarray(x, dtype=np.float64)), axis=1)
    scaled = arr * scale
    out = np.floor(scaled).astype(np.int64)
    deficit = scale - out.sum(axis=1)
    order = np.argsort(-(scaled - out), axis=1, kind="stable")
    for i in range(out.shape[0]):
        need = int(deficit[i])
        if need > 0:
            out[i, order[i, :need]] += 1
        elif need < 0:
            out[i, order[i, need:]] -= 1
    return out


class TestVectorizedDeficit:
    """The vectorized deficit hand-out equals the per-row loop bit for bit."""

    @pytest.mark.parametrize("q", [1, 2])
    def test_random_rows(self, q):
        X = np.random.default_rng(q).dirichlet(np.ones(10), size=500)
        np.testing.assert_array_equal(to_grid_integers(X, q), _loop_grid_integers(X, q))

    @pytest.mark.parametrize("q", [1, 2])
    def test_tie_heavy_rows(self, q):
        # equal remainders everywhere: ties resolve by index in both
        rng = np.random.default_rng(10 + q)
        X = rng.integers(1, 4, size=(300, 7)).astype(np.float64)
        X[:50] = 1.0
        np.testing.assert_array_equal(to_grid_integers(X, q), _loop_grid_integers(X, q))

    @pytest.mark.parametrize("q", [1, 2])
    def test_rows_already_on_grid(self, q):
        scale = 10**q
        rng = np.random.default_rng(20 + q)
        counts = rng.multinomial(scale, np.full(6, 1 / 6), size=200)
        X = counts / scale
        out = to_grid_integers(X, q)
        np.testing.assert_array_equal(out, _loop_grid_integers(X, q))
        np.testing.assert_array_equal(out, counts)

    def test_single_vector(self):
        x = np.array([0.15, 0.15, 0.7])
        np.testing.assert_array_equal(to_grid_integers(x, 1), _loop_grid_integers(x, 1)[0])


class TestQuantizeSimplex:
    def test_grid_points(self):
        out = quantize_simplex(np.array([0.61, 0.29, 0.10]), 1)
        np.testing.assert_allclose(out, [0.6, 0.3, 0.1])

    def test_result_is_on_grid(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.dirichlet(np.ones(6))
            assert is_on_grid(quantize_simplex(x, 1), 1)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        x = rng.dirichlet(np.ones(4))
        once = quantize_simplex(x, 1)
        np.testing.assert_array_equal(once, quantize_simplex(once, 1))

    def test_quantization_error_bounded(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = rng.dirichlet(np.ones(5))
            err = np.abs(quantize_simplex(x, 1) - x).max()
            assert err <= 0.1  # one grid step


class TestGridResolution:
    def test_values(self):
        assert grid_resolution(1) == 10
        assert grid_resolution(3) == 1000

    def test_is_on_grid_rejects_off_grid(self):
        assert not is_on_grid(np.array([0.55, 0.45]), 1)
        assert is_on_grid(np.array([0.5, 0.5]), 1)
        assert not is_on_grid(np.array([0.6, 0.6]), 1)  # doesn't sum to 1
