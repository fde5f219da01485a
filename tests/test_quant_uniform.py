"""Tests for the affine uniform quantizer, incl. hypothesis properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.quant.uniform import (
    QuantParams,
    compute_params,
    dequantize,
    quantize,
    quantize_dequantize,
)

weights = arrays(
    np.float64,
    (6, 5),
    elements=st.floats(-10, 10, allow_nan=False, allow_infinity=False),
)


class TestQuantParams:
    def test_bits_validated(self):
        with pytest.raises(ValueError):
            QuantParams(scale=np.ones(1), zero=np.zeros(1), bits=0)
        with pytest.raises(ValueError):
            QuantParams(scale=np.ones(1), zero=np.zeros(1), bits=17)

    def test_n_levels(self):
        params = QuantParams(scale=np.ones(1), zero=np.zeros(1), bits=4)
        assert params.n_levels == 15


class TestComputeParams:
    @given(weights, st.sampled_from([2, 3, 4, 8]))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_error_bounded_by_half_scale(self, w, bits):
        params = compute_params(w, bits)
        error = np.abs(quantize_dequantize(w, params) - w)
        assert np.all(error <= params.scale / 2 + 1e-9)

    @given(weights)
    @settings(max_examples=30, deadline=None)
    def test_codes_within_range(self, w):
        params = compute_params(w, 4)
        codes = quantize(w, params)
        assert codes.min() >= 0
        assert codes.max() <= 15

    def test_extremes_representable(self, rng):
        w = rng.normal(size=(8, 4))
        params = compute_params(w, 4)
        rt = quantize_dequantize(w, params)
        assert rt.min() == pytest.approx(w.min(), abs=params.scale.max() / 2)
        assert rt.max() == pytest.approx(w.max(), abs=params.scale.max() / 2)

    def test_constant_array_exact(self):
        w = np.full((3, 3), 2.5)
        params = compute_params(w, 2)
        assert np.allclose(quantize_dequantize(w, params), 2.5)

    def test_zeros_array(self):
        w = np.zeros((3, 3))
        params = compute_params(w, 4)
        assert np.allclose(quantize_dequantize(w, params), 0.0)

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_subnormal_span_gets_unit_grid(self, symmetric):
        # A span of one subnormal step underflows when divided by the
        # level count; the grid must not divide by the zero step.
        w = np.full((3, 3), 5e-324)
        w[0, 0] = -5e-324
        params = compute_params(w, 4, symmetric=symmetric)
        assert np.all(params.scale == 1.0)
        codes = quantize(w, params)
        assert codes.min() >= 0 and codes.max() <= 15
        assert np.all(np.abs(quantize_dequantize(w, params) - w) <= 0.5)

    def test_per_axis_params_shape(self, rng):
        w = rng.normal(size=(6, 5))
        params = compute_params(w, 4, axis=1)
        assert params.scale.shape == (1, 5)
        params0 = compute_params(w, 4, axis=0)
        assert params0.scale.shape == (6, 1)

    def test_per_axis_tighter_than_per_tensor(self, rng):
        # Columns with very different ranges: per-column grids cut error.
        w = rng.normal(size=(64, 2))
        w[:, 1] *= 100.0
        per_tensor = compute_params(w, 4)
        per_col = compute_params(w, 4, axis=1)
        err_t = ((quantize_dequantize(w, per_tensor) - w) ** 2).mean()
        err_c = ((quantize_dequantize(w, per_col) - w) ** 2).mean()
        assert err_c < err_t

    def test_symmetric_grid_centred(self, rng):
        w = rng.normal(size=(10, 10))
        params = compute_params(w, 4, symmetric=True)
        # Zero must be exactly representable on a symmetric grid.
        zero_rt = dequantize(quantize(np.zeros((1, 1)), params), params)
        assert np.allclose(zero_rt, 0.0, atol=params.scale.max() / 2)

    def test_more_bits_less_error(self, rng):
        w = rng.normal(size=(32, 8))
        errs = []
        for bits in (2, 4, 8):
            params = compute_params(w, bits)
            errs.append(((quantize_dequantize(w, params) - w) ** 2).mean())
        assert errs[0] > errs[1] > errs[2]


class TestQuantizeDequantize:
    def test_idempotent(self, rng):
        w = rng.normal(size=(5, 5))
        params = compute_params(w, 3)
        once = quantize_dequantize(w, params)
        twice = quantize_dequantize(once, params)
        assert np.allclose(once, twice)

    def test_1bit_two_levels(self, rng):
        w = rng.normal(size=(20,))
        params = compute_params(w, 1)
        assert len(np.unique(quantize(w, params))) <= 2
