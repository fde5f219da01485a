"""Tests for the affine uniform quantizer, incl. hypothesis properties.

The grids come from the one min/max fit, ``groupwise.group_params``, taken
over every row (one grid per column).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.quant.groupwise import group_params
from repro.quant.uniform import QuantParams, dequantize, quantize

weights = arrays(
    np.float64,
    (6, 5),
    elements=st.floats(-10, 10, allow_nan=False, allow_infinity=False),
)


def column_params(w: np.ndarray, bits: int) -> QuantParams:
    return group_params(w, slice(None), bits)


def round_trip(w: np.ndarray, params: QuantParams) -> np.ndarray:
    return dequantize(quantize(w, params), params)


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
    """The min/max grid fit (``group_params``)."""

    @given(weights, st.sampled_from([2, 3, 4, 8]))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_error_bounded_by_half_scale(self, w, bits):
        params = column_params(w, bits)
        error = np.abs(round_trip(w, params) - w)
        assert np.all(error <= params.scale / 2 + 1e-9)

    @given(weights)
    @settings(max_examples=30, deadline=None)
    def test_codes_within_range(self, w):
        params = column_params(w, 4)
        codes = quantize(w, params)
        assert codes.min() >= 0
        assert codes.max() <= 15

    def test_extremes_representable(self, rng):
        w = rng.normal(size=(8, 4))
        params = column_params(w, 4)
        rt = round_trip(w, params)
        assert rt.min() == pytest.approx(w.min(), abs=params.scale.max() / 2)
        assert rt.max() == pytest.approx(w.max(), abs=params.scale.max() / 2)

    def test_constant_array_exact(self):
        w = np.full((3, 3), 2.5)
        params = column_params(w, 2)
        assert np.allclose(round_trip(w, params), 2.5)

    def test_zeros_array(self):
        w = np.zeros((3, 3))
        params = column_params(w, 4)
        assert np.allclose(round_trip(w, params), 0.0)

    def test_subnormal_span_gets_unit_grid(self):
        # A span of one subnormal step underflows when divided by the
        # level count; the grid must not divide by the zero step.
        w = np.full((3, 3), 5e-324)
        w[0, 0] = -5e-324
        params = column_params(w, 4)
        assert np.all(params.scale == 1.0)
        codes = quantize(w, params)
        assert codes.min() >= 0 and codes.max() <= 15
        assert np.all(np.abs(round_trip(w, params) - w) <= 0.5)

    def test_more_bits_less_error(self, rng):
        w = rng.normal(size=(32, 8))
        errs = []
        for bits in (2, 4, 8):
            params = column_params(w, bits)
            errs.append(((round_trip(w, params) - w) ** 2).mean())
        assert errs[0] > errs[1] > errs[2]


class TestQuantizeDequantize:
    def test_idempotent(self, rng):
        w = rng.normal(size=(5, 5))
        params = column_params(w, 3)
        once = round_trip(w, params)
        twice = round_trip(once, params)
        assert np.allclose(once, twice)

    def test_1bit_two_levels(self, rng):
        w = rng.normal(size=(20,))
        params = column_params(w, 1)
        assert len(np.unique(quantize(w, params))) <= 2
