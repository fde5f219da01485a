"""Tests for group-wise quantization."""

import numpy as np
import pytest

from repro.quant.groupwise import (
    quantize_groupwise,
    resolve_group_size,
)


class TestResolveGroupSize:
    def test_none_means_whole_dim(self):
        assert resolve_group_size(64, None) == 64

    def test_oversized_clamped(self):
        assert resolve_group_size(64, 128) == 64

    def test_passthrough(self):
        assert resolve_group_size(64, 16) == 16

    def test_invalid(self):
        with pytest.raises(ValueError):
            resolve_group_size(64, 0)


class TestQuantizeGroupwise:
    def test_shapes(self, rng):
        w = rng.normal(size=(64, 10))
        result = quantize_groupwise(w, 4, 16)
        assert result.codes.shape == (64, 10)
        assert result.scales.shape == (4, 10)
        assert result.n_groups == 4

    def test_uneven_group_division(self, rng):
        w = rng.normal(size=(50, 4))
        result = quantize_groupwise(w, 4, 16)
        assert result.n_groups == 4  # 16+16+16+2
        assert np.all(np.isfinite(result.dequantize()))

    def test_dequantize_error_bounded(self, rng):
        w = rng.normal(size=(64, 8))
        result = quantize_groupwise(w, 4, 32)
        err = np.abs(result.dequantize() - w)
        # Per-group scale bound: each group/column has its own grid.
        for g in range(result.n_groups):
            rows = slice(g * 32, (g + 1) * 32)
            assert np.all(err[rows] <= result.scales[g] / 2 + 1e-9)

    def test_smaller_groups_cut_error(self, rng):
        w = rng.normal(size=(128, 4))
        w[::7] *= 20.0  # heavy-tailed rows
        err16 = ((quantize_groupwise(w, 2, 16).dequantize() - w) ** 2).mean()
        err128 = ((quantize_groupwise(w, 2, 128).dequantize() - w) ** 2).mean()
        assert err16 < err128

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            quantize_groupwise(np.zeros(5), 4)

    def test_codes_in_range(self, rng):
        w = rng.normal(size=(40, 6))
        result = quantize_groupwise(w, 2, 8)
        assert result.codes.min() >= 0
        assert result.codes.max() <= 3

    def test_subnormal_group_gets_unit_grid(self):
        # A subnormal span underflows to a zero step when divided by the
        # level count: the group must get a unit grid, not NaN codes.
        w = np.zeros((8, 2))
        w[:4, 0] = 5e-324
        result = quantize_groupwise(w, 4, 4)
        assert result.scales[0, 0] == 1.0
        assert result.codes.min() >= 0 and result.codes.max() <= 15
        assert np.all(np.isfinite(result.dequantize()))
