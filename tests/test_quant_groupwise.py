"""Tests for group-wise quantization."""

import numpy as np
import pytest

from repro.quant.groupwise import (
    GroupQuantResult,
    group_of_row,
    quantize_groupwise,
    resolve_group_size,
)
from repro.quant.solver import quantize_with_hessian
from repro.quant.uniform import QuantParams, dequantize


def dequantize_per_group(result: GroupQuantResult) -> np.ndarray:
    """The former per-group decode loop: the oracle for the vectorised one."""
    d_in, size = result.codes.shape[0], result.group_size
    out = np.empty(result.codes.shape, dtype=np.float64)
    for g in range(result.n_groups):
        rows = slice(g * size, min((g + 1) * size, d_in))
        params = QuantParams(
            scale=result.scales[g], zero=result.zeros[g], bits=result.bits
        )
        out[rows] = dequantize(result.codes[rows], params)
    return out


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


class TestGroupOfRow:
    def test_ragged_last_group_absorbs_the_remainder(self):
        assert group_of_row(10, 4, 3).tolist() == [0] * 4 + [1] * 4 + [2] * 2


class TestDequantizeMatchesLoop:
    """The vectorised decode is bit-identical to the per-group loop."""

    @pytest.mark.parametrize("bits", range(2, 9))
    @pytest.mark.parametrize(
        "d_in,group_size",
        [(64, 16), (50, 16), (37, 8), (13, 5), (40, None), (12, 1), (16, 128)],
    )
    def test_rtn_results(self, rng, bits, d_in, group_size):
        weight = rng.normal(size=(d_in, 7)) * rng.choice([1e-3, 1.0, 50.0])
        result = quantize_groupwise(weight, bits, group_size)
        fast = result.dequantize()
        assert fast.dtype == np.float64
        assert np.array_equal(fast, dequantize_per_group(result))

    @pytest.mark.parametrize("group_size", [8, 12, None])
    def test_solver_results(self, rng, group_size):
        weight = rng.normal(size=(44, 9))
        basis = rng.normal(size=(44, 44))
        hessian = basis @ basis.T / 44 + 0.05 * np.eye(44)
        result = quantize_with_hessian(
            weight, hessian, bits=3, group_size=group_size
        ).group_result
        assert np.array_equal(result.dequantize(), dequantize_per_group(result))

    def test_fp16_grids(self, rng):
        # Narrow grids upcast inside the decode, exactly as in the loop.
        result = quantize_groupwise(rng.normal(size=(30, 5)), 4, 8)
        result.scales = result.scales.astype(np.float16)
        result.zeros = result.zeros.astype(np.float16)
        assert np.array_equal(result.dequantize(), dequantize_per_group(result))
