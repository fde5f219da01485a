"""Tests for the finite-difference gradient checker itself."""

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradients, numerical_gradient, ops
from repro.autograd.tensor import parameters_of


class TestNumericalGradient:
    def test_quadratic(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        grad = numerical_gradient(lambda: ops.sum(ops.mul(x, x)), x)
        assert np.allclose(grad, 2 * x.data, atol=1e-6)

    def test_does_not_corrupt_parameter(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        original = x.data.copy()
        numerical_gradient(lambda: ops.sum(x), x)
        assert np.array_equal(x.data, original)

    def test_matrix_parameter(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        grad = numerical_gradient(lambda: ops.sum(ops.mul(x, x)), x)
        assert grad.shape == (2, 3)
        assert np.allclose(grad, 2 * x.data, atol=1e-6)


class TestCheckGradients:
    def test_passes_on_correct_gradients(self):
        x = Tensor(np.array([0.5, -1.5]), requires_grad=True)
        check_gradients(lambda: ops.sum(ops.exp(x)), [x])

    def test_fails_on_wrong_gradients(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)

        def broken(a: Tensor) -> Tensor:
            out = a.data * 3.0

            def backward(grad, sink):
                sink(a, grad * 2.0)  # wrong: claims d/da = 2, truth is 3

            return Tensor.make(out, (a,), backward)

        with pytest.raises(AssertionError, match="mismatch"):
            check_gradients(lambda: ops.sum(broken(x)), [x])

    def test_fails_when_gradient_missing(self):
        x = Tensor(np.ones(2), requires_grad=True)
        y = Tensor(np.ones(2), requires_grad=True)
        # y never participates, so it receives no gradient.
        with pytest.raises(AssertionError, match="no gradient"):
            check_gradients(lambda: ops.sum(x), [x, y])


def _t(values) -> Tensor:
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)


def _op_cases():
    """One finite-difference case per op exported from ``repro.autograd.ops``.

    Inputs avoid non-differentiable points (zeros for relu/abs/sqrt, ties
    for maximum) so the numerical gradient is well defined everywhere.
    """
    a = _t([[0.6, -1.3, 0.8], [1.7, 0.2, -0.9]])
    b = _t([[1.4, 0.5, -0.7], [-0.3, 2.1, 1.2]])
    pos = _t([[0.8, 1.9, 0.4], [2.5, 0.6, 1.3]])
    m = _t([[0.5, -1.1], [0.7, 2.0], [-0.4, 0.9]])
    table = _t(np.linspace(-1.0, 1.0, 12).reshape(4, 3))
    ids = np.array([[0, 2], [1, 3]])
    rows = np.array([0, 1, 1])
    cond = np.array([[True, False, True], [False, True, False]])
    return {
        "add": (lambda: ops.sum(ops.add(a, b)), (a, b)),
        "sub": (lambda: ops.sum(ops.sub(a, b)), (a, b)),
        "mul": (lambda: ops.sum(ops.mul(a, b)), (a, b)),
        "div": (lambda: ops.sum(ops.div(a, b)), (a, b)),
        "neg": (lambda: ops.sum(ops.mul(ops.neg(a), b)), (a, b)),
        "power": (lambda: ops.sum(ops.power(pos, 3.0)), (pos,)),
        "exp": (lambda: ops.sum(ops.exp(a)), (a,)),
        "log": (lambda: ops.sum(ops.log(pos)), (pos,)),
        "sqrt": (lambda: ops.sum(ops.sqrt(pos)), (pos,)),
        "tanh": (lambda: ops.sum(ops.tanh(a)), (a,)),
        "sigmoid": (lambda: ops.sum(ops.sigmoid(a)), (a,)),
        "silu": (lambda: ops.sum(ops.silu(a)), (a,)),
        "relu": (lambda: ops.sum(ops.relu(a)), (a,)),
        "abs": (lambda: ops.sum(ops.abs(a)), (a,)),
        "matmul": (lambda: ops.sum(ops.exp(ops.matmul(a, m))), (a, m)),
        "sum": (
            lambda: ops.sum(ops.sum(ops.mul(a, b), axis=1, keepdims=True)),
            (a, b),
        ),
        "mean": (lambda: ops.sum(ops.mean(ops.mul(a, b), axis=0)), (a, b)),
        "maximum": (lambda: ops.sum(ops.maximum(a, b)), (a, b)),
        "reshape": (
            lambda: ops.sum(ops.exp(ops.reshape(a, (3, 2)))),
            (a,),
        ),
        "transpose": (
            lambda: ops.sum(ops.exp(ops.transpose(a, (1, 0)))),
            (a,),
        ),
        "swapaxes": (lambda: ops.sum(ops.exp(ops.swapaxes(a, 0, 1))), (a,)),
        "getitem": (lambda: ops.sum(ops.exp(ops.getitem(a, rows))), (a,)),
        "concat": (
            lambda: ops.sum(ops.exp(ops.concat([a, b], axis=1))),
            (a, b),
        ),
        "stack": (
            lambda: ops.sum(ops.exp(ops.stack([a, b], axis=0))),
            (a, b),
        ),
        "embedding": (
            lambda: ops.sum(ops.exp(ops.embedding(table, ids))),
            (table,),
        ),
        "softmax": (
            lambda: ops.sum(ops.mul(ops.softmax(a, axis=-1), b)),
            (a, b),
        ),
        "log_softmax": (
            lambda: ops.sum(ops.mul(ops.log_softmax(a, axis=-1), b)),
            (a, b),
        ),
        "gather_nll": (
            lambda: ops.sum(ops.gather_nll(a, np.array([2, 0]))),
            (a,),
        ),
        "where": (lambda: ops.sum(ops.where(cond, a, b)), (a, b)),
    }


class TestEveryExportedOp:
    """Finite-difference coverage of the full public op surface.

    ``test_every_export_has_a_case`` requires one case per
    ``repro.autograd.ops.__all__`` entry, so a new op cannot merge without
    a numerical gradient check, and a backward that drops a parent's
    gradient fails that op's ``test_gradcheck`` case.
    """

    def test_every_export_has_a_case(self):
        assert set(_op_cases()) == set(ops.__all__)

    @pytest.mark.parametrize("name", sorted(ops.__all__))
    def test_gradcheck(self, name):
        func, tensors = _op_cases()[name]
        params = parameters_of(tensors)
        assert params, f"case for ops.{name} has no trainable parameters"
        check_gradients(func, params)
