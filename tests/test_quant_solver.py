"""Tests for the shared second-order quantization solver."""

import numpy as np
import pytest

from repro.quant.groupwise import quantize_groupwise
from repro.quant.solver import (
    inverse_cholesky,
    prepare_hessian,
    quantize_with_hessian,
)


@pytest.fixture
def problem(rng):
    w = rng.normal(size=(32, 12))
    x = rng.normal(size=(400, 32)) * rng.uniform(0.2, 3.0, size=32)
    hessian = 2.0 * x.T @ x / 400
    return w, x, hessian


def reconstruction_error(w, w_hat, x):
    return float(((x @ w - x @ w_hat) ** 2).mean())


class TestPrepareHessian:
    def test_damping_added(self, rng):
        h = np.eye(4) * 2.0
        damped, dead = prepare_hessian(h, percdamp=0.1)
        assert np.allclose(np.diagonal(damped), 2.2)
        assert not dead.any()

    def test_dead_channels_flagged(self):
        h = np.diag([1.0, 0.0, 2.0])
        damped, dead = prepare_hessian(h)
        assert list(dead) == [False, True, False]
        assert damped[1, 1] > 0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            prepare_hessian(np.zeros((2, 3)))

    def test_input_not_mutated(self):
        h = np.eye(3)
        prepare_hessian(h)
        assert np.allclose(h, np.eye(3))


class TestInverseCholesky:
    def test_factor_reconstructs_inverse(self, rng):
        a = rng.normal(size=(8, 8))
        h = a @ a.T + 8 * np.eye(8)
        upper = inverse_cholesky(h)
        assert np.allclose(np.triu(upper), upper)
        assert np.allclose(upper.T @ upper, np.linalg.inv(h))


class TestSolver:
    def test_beats_rtn_on_objective(self, problem):
        w, x, hessian = problem
        rtn = quantize_groupwise(w, 3, 16).dequantize()
        solved = quantize_with_hessian(w, hessian, bits=3, group_size=16)
        assert reconstruction_error(w, solved.quantized_weight, x) < (
            reconstruction_error(w, rtn, x)
        )

    def test_identity_hessian_equals_rtn(self, rng):
        # With H = I there is nothing to compensate: the solver must
        # reproduce plain group-wise rounding exactly.
        w = rng.normal(size=(24, 6))
        solved = quantize_with_hessian(
            w, np.eye(24), bits=4, group_size=8, percdamp=0.0
        )
        rtn = quantize_groupwise(w, 4, 8)
        assert np.allclose(solved.quantized_weight, rtn.dequantize())

    def test_blocksize_invariance(self, problem):
        w, _, hessian = problem
        a = quantize_with_hessian(w, hessian, bits=4, group_size=8, blocksize=8)
        b = quantize_with_hessian(w, hessian, bits=4, group_size=8, blocksize=128)
        assert np.allclose(a.quantized_weight, b.quantized_weight)

    def test_group_result_dequantizes_to_weight(self, problem):
        w, _, hessian = problem
        solved = quantize_with_hessian(w, hessian, bits=4, group_size=16)
        assert np.allclose(
            solved.group_result.dequantize(), solved.quantized_weight
        )

    def test_quantized_values_on_grid(self, problem):
        w, _, hessian = problem
        solved = quantize_with_hessian(w, hessian, bits=2, group_size=16)
        # Each group/column has at most 4 distinct values.
        gr = solved.group_result
        for g in range(gr.n_groups):
            rows = slice(g * 16, (g + 1) * 16)
            for col in range(w.shape[1]):
                values = np.unique(solved.quantized_weight[rows, col])
                assert values.size <= 4

    def test_dead_channels_zeroed(self, rng):
        w = rng.normal(size=(10, 4))
        x = rng.normal(size=(100, 10))
        x[:, 3] = 0.0  # channel 3 never active
        hessian = 2 * x.T @ x / 100
        solved = quantize_with_hessian(w, hessian, bits=4, group_size=None)
        assert np.allclose(solved.quantized_weight[3], 0.0)

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            quantize_with_hessian(rng.normal(size=(4, 4)), np.eye(5), bits=4)
        with pytest.raises(ValueError):
            quantize_with_hessian(rng.normal(size=4), np.eye(4), bits=4)

    def test_more_bits_lower_loss(self, problem):
        w, x, hessian = problem
        errs = [
            reconstruction_error(
                w,
                quantize_with_hessian(w, hessian, bits=b, group_size=16)
                .quantized_weight,
                x,
            )
            for b in (2, 4, 8)
        ]
        assert errs[0] > errs[1] > errs[2]

    def test_compensated_loss_reported(self, problem):
        w, _, hessian = problem
        solved = quantize_with_hessian(w, hessian, bits=4, group_size=16)
        assert solved.compensated_loss > 0.0
        assert solved.mse > 0.0


class TestAgainstOBQ:
    def test_gptq_close_to_obq_reference(self, rng):
        from repro.quant.obq import obq_quantize_matrix

        w = rng.normal(size=(12, 6))
        x = rng.normal(size=(200, 12))
        hessian = 2 * x.T @ x / 200
        gptq = quantize_with_hessian(w, hessian, bits=4, group_size=None)
        obq = obq_quantize_matrix(w, hessian, bits=4)
        err_gptq = ((x @ w - x @ gptq.quantized_weight) ** 2).mean()
        err_obq = ((x @ w - x @ obq.quantized_weight) ** 2).mean()
        # Fixed-order GPTQ loses little vs greedy OBQ (paper's premise).
        assert err_gptq < err_obq * 2.0
