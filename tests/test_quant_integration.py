"""Cross-module quantization integration: solver output through packing.

The deployment story is solver -> GroupQuantResult -> int FormatLinear
(packed codes + fp16 grids); these tests pin the seams between them.
"""

import numpy as np
import pytest

from repro.quant.formats import FormatLinear, IntFormat
from repro.quant.solver import quantize_with_hessian


@pytest.fixture
def solved(rng):
    w = rng.normal(size=(32, 8))
    x = rng.normal(size=(200, 32))
    hessian = 2.0 * x.T @ x / 200
    return quantize_with_hessian(w, hessian, bits=4, group_size=16)


def pack(solved):
    """The int layer ``pack_model`` stores for one solver result."""
    fmt = IntFormat(solved.group_result.bits)
    return FormatLinear.from_tensor(
        fmt, fmt.from_group_result(solved.group_result)
    )


def stored_codes(layer):
    return layer.format.unpack_payload(layer.arrays, layer.meta).codes


class TestSolverToPacking:
    def test_solver_codes_pack_and_unpack(self, solved):
        packed = pack(solved)
        assert np.array_equal(stored_codes(packed), solved.group_result.codes)

    def test_packed_dequantization_matches_solver_weights(self, solved):
        packed = pack(solved)
        # fp16 grids introduce at most ~1e-3 relative error.
        assert np.allclose(
            packed.dequantize(), solved.quantized_weight, atol=5e-3
        )

    def test_packed_model_size_beats_fp16(self, solved):
        packed = pack(solved)
        assert packed.storage_bytes() < solved.quantized_weight.size * 2

    def test_2bit_solver_output_packs(self, rng):
        w = rng.normal(size=(24, 4))
        x = rng.normal(size=(100, 24))
        hessian = 2.0 * x.T @ x / 100
        solved = quantize_with_hessian(w, hessian, bits=2, group_size=8)
        packed = pack(solved)
        assert stored_codes(packed).max() <= 3
        assert np.allclose(
            packed.dequantize(), solved.quantized_weight, atol=5e-3
        )
