"""Tests for the greedy OBQ reference implementation."""

import numpy as np
import pytest

from repro.quant.groupwise import quantize_groupwise
from repro.quant.obq import _downdate_inverse, obq_quantize_matrix


class TestDowndate:
    def test_matches_direct_inverse_of_submatrix(self, rng):
        a = rng.normal(size=(6, 6))
        h = a @ a.T + 6 * np.eye(6)
        inv = np.linalg.inv(h)
        for remove in range(6):
            down = _downdate_inverse(inv, remove)
            keep = [i for i in range(6) if i != remove]
            direct = np.linalg.inv(h[np.ix_(keep, keep)])
            assert np.allclose(down, direct, atol=1e-8)


class TestOBQ:
    @pytest.fixture
    def problem(self, rng):
        w = rng.normal(size=(10, 5))
        x = rng.normal(size=(300, 10)) * rng.uniform(0.3, 2.0, size=10)
        return w, x, 2 * x.T @ x / 300

    def test_beats_rtn_on_objective(self, problem, rng):
        w, x, h = problem
        result = obq_quantize_matrix(w, h, bits=3)
        rtn = quantize_groupwise(w, 3, None).dequantize()
        err_obq = ((x @ w - x @ result.quantized_weight) ** 2).mean()
        err_rtn = ((x @ w - x @ rtn) ** 2).mean()
        assert err_obq <= err_rtn

    def test_values_on_per_column_grid(self, problem):
        w, _, h = problem
        result = obq_quantize_matrix(w, h, bits=2)
        for col in range(w.shape[1]):
            assert np.unique(result.quantized_weight[:, col]).size <= 4

    def test_codes_shape_and_range(self, problem):
        w, _, h = problem
        result = obq_quantize_matrix(w, h, bits=3)
        assert result.codes.shape == w.shape
        assert result.codes.min() >= 0
        assert result.codes.max() <= 7

    def test_total_error_nonnegative(self, problem):
        w, _, h = problem
        assert obq_quantize_matrix(w, h, bits=4).total_error >= 0.0

    def test_hessian_shape_validated(self, rng):
        with pytest.raises(ValueError):
            obq_quantize_matrix(rng.normal(size=(4, 2)), np.eye(5), bits=4)
