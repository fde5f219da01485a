"""Differential conformance harness for the int-k storage format.

Every width of ``CONFORMANCE_WIDTHS`` is run through the shared
obligations of ``tests/format_conformance.py`` (round trip within the
declared error bound, pack/unpack byte-identity, code-domain safety,
checksummed serialization), plus bit-identity with first-principles
affine dequantization and the quantize -> pack -> deploy -> perplexity
chain.
"""

import numpy as np
import pytest

from format_conformance import (
    CONFORMANCE_WIDTHS,
    assert_tensors_equal,
    run_conformance,
    width_id,
)
from repro.core.aptq import APTQConfig, aptq_quantize_model
from repro.data.calibration import CalibrationSet
from repro.eval.perplexity import perplexity
from repro.nn.transformer import LlamaConfig, LlamaModel
from repro.quant.deploy import PackedModel, pack_model
from repro.quant.formats import FormatLinear, IntFormat
from repro.quant.groupwise import (
    GroupQuantResult,
    group_of_row,
    quantize_groupwise,
)

#: (shape, group_size) geometries: dividing, whole-matrix, single-element
#: groups, and a non-dividing remainder group.
GEOMETRIES = (
    ((32, 8), 8),
    ((24, 6), None),
    ((7, 3), 1),
    ((37, 11), 8),
)

widths = pytest.mark.parametrize("bits", CONFORMANCE_WIDTHS, ids=width_id)


def seeded_weight(shape, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) * scale


# ----------------------------------------------------------------------
# The shared obligations, over the width x geometry grid
# ----------------------------------------------------------------------
class TestConformance:
    @widths
    @pytest.mark.parametrize("shape,group_size", GEOMETRIES)
    def test_obligations(self, bits, shape, group_size, tmp_path):
        fmt = IntFormat(bits)
        run_conformance(fmt, seeded_weight(shape), group_size, tmp_path)

    @widths
    def test_encode_is_deterministic(self, bits):
        fmt = IntFormat(bits)
        weight = seeded_weight((19, 5), seed=3)
        assert_tensors_equal(fmt.encode(weight, 4), fmt.encode(weight, 4))

    @pytest.mark.parametrize(
        "weight",
        [
            np.zeros((8, 3)),
            np.full((9, 2), 1e-8),
            np.full((6, 2), -1e-8),
            # 1e4 is the largest magnitude the fp16 affine grids can
            # represent.
            seeded_weight((12, 4), seed=1, scale=1e4),
            np.where(seeded_weight((16, 4), seed=2) > 0, 5.0, 5.0),
        ],
        ids=["zeros", "tiny", "tiny-negative", "huge", "constant"],
    )
    @widths
    def test_degenerate_weights(self, bits, weight):
        run_conformance(IntFormat(bits), weight, 4)


# ----------------------------------------------------------------------
# Format-specific oracles
# ----------------------------------------------------------------------
class TestIntBitIdentity:
    @pytest.mark.parametrize("bits", [2, 3, 4, 8])
    def test_matches_quantized_linear_exactly(self, bits):
        # Oracle: the packed int layer's arithmetic from first principles —
        # quantize_groupwise codes on fp16-cast grids, decoded as
        # (codes - z[rows]) * s[rows] in float64.
        weight = seeded_weight((37, 11), seed=4)
        fmt = IntFormat(bits)
        tensor = fmt.encode(weight, 8)
        reference = quantize_groupwise(weight, bits, 8)
        scales = reference.scales.astype(np.float16)
        zeros = reference.zeros.astype(np.float16)
        rows = group_of_row(37, 8, reference.n_groups)
        dense = (
            reference.codes.astype(np.float64)
            - zeros.astype(np.float64)[rows]
        ) * scales.astype(np.float64)[rows]
        assert np.array_equal(tensor.codes, reference.codes)
        assert np.array_equal(tensor.scales, scales)
        assert np.array_equal(tensor.zeros, zeros)
        assert np.array_equal(fmt.decode(tensor), dense)
        linear = FormatLinear.from_tensor(fmt, tensor)
        x = seeded_weight((5, 37), seed=5)
        assert np.array_equal(linear.forward_array(x), x @ dense)


# ----------------------------------------------------------------------
# End-to-end: quantize -> deploy -> perplexity at every width
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_setup():
    config = LlamaConfig(
        vocab_size=64,
        d_model=16,
        n_layers=2,
        n_heads=2,
        d_ff=24,
        max_seq_len=16,
    )
    rng = np.random.default_rng(13)
    calibration = CalibrationSet(
        corpus_name="synthetic",
        seed=13,
        segments=rng.integers(0, 64, size=(4, 16)),
    )
    stream = rng.integers(0, 64, size=320)
    return config, calibration, stream


class TestEndToEnd:
    @widths
    def test_pack_deploy_eval_every_format(self, bits, tiny_setup, tmp_path):
        config, _, stream = tiny_setup
        model = LlamaModel(config, seed=13)
        packed = pack_model(model, bits, group_size=8)
        assert all(
            isinstance(layer, FormatLinear) for layer in packed.layers.values()
        )
        assert packed.storage_bytes() > 0
        path = packed.save(tmp_path / "packed.npz")
        loaded = PackedModel.load(path)
        for layer_name, layer in packed.layers.items():
            assert loaded.layers[layer_name].format_name == f"int{bits}"
            assert np.array_equal(
                loaded.layers[layer_name].dequantize(), layer.dequantize()
            )
        ppl = perplexity(loaded.to_model(), stream, seq_len=16)
        assert np.isfinite(ppl) and ppl > 0

    def test_solver_and_rerounded_layers_share_one_artifact(
        self, tiny_setup, tmp_path
    ):
        # Layers with a solver result keep its exact int codes; the rest
        # are re-rounded at their allocated width, in one archive.
        config, calibration, stream = tiny_setup
        model = LlamaModel(config, seed=13)
        result = aptq_quantize_model(
            model,
            calibration,
            APTQConfig(ratio_4bit=0.5, n_probes=2, batch_size=4, group_size=8),
        )
        low_bit = {
            name: solved
            for name, solved in result.layer_results.items()
            if solved.bits == 2
        }
        assert low_bit and set(low_bit) != set(result.layer_results)
        packed = pack_model(
            model, result.allocation, group_size=8, layer_results=low_bit
        )
        linears = model.quantizable_linears()
        for name, layer in packed.layers.items():
            fmt = IntFormat(result.allocation[name])
            if name in low_bit:
                expected = fmt.from_group_result(low_bit[name].group_result)
            else:
                expected = fmt.encode(linears[name].weight.data, 8)
            assert layer.format_name == expected.format
            assert_tensors_equal(
                layer.format.unpack_payload(layer.arrays, layer.meta), expected
            )
        loaded = PackedModel.load(packed.save(tmp_path / "mixed.npz"))
        for name, layer in packed.layers.items():
            assert loaded.layers[name].format_name == layer.format_name
            assert np.array_equal(
                loaded.layers[name].dequantize(), layer.dequantize()
            )
        ppl = perplexity(loaded.to_model(), stream, seq_len=16)
        assert np.isfinite(ppl) and ppl > 0


class TestDeployErrors:
    def test_missing_allocation_entry_names_layer(self, tiny_setup):
        config, _, _ = tiny_setup
        model = LlamaModel(config, seed=13)
        with pytest.raises(ValueError, match="no bit allocation for layer"):
            pack_model(model, {"not.a.layer": 4})


class TestFp16GridRange:
    """Grids are stored fp16: a scale or zero fp16 cannot hold raises,
    naming the largest offender, before anything is packed."""

    def test_scale_beyond_fp16_raises_naming_it(self):
        weight = np.random.default_rng(0).normal(size=(12, 4)) * 1e6
        worst = quantize_groupwise(weight, 4, 4).scales.max()
        assert worst > np.finfo(np.float16).max
        with pytest.raises(ValueError, match="fp16") as excinfo:
            IntFormat(4).encode(weight, 4)
        assert f"scale {worst:g}" in str(excinfo.value)
        with pytest.raises(ValueError, match="fp16"):
            FormatLinear.from_weight(weight, 4, 4)

    def test_zero_beyond_fp16_raises_naming_it(self):
        # A 16-bit grid anchored at its top code: zero 65535 rounds to
        # inf in fp16.
        result = GroupQuantResult(
            codes=np.zeros((4, 2), dtype=np.int64),
            scales=np.ones((1, 2)),
            zeros=np.array([[65535.0, 3.0]]),
            bits=16,
            group_size=4,
        )
        with pytest.raises(ValueError, match="zero 65535"):
            IntFormat(16).from_group_result(result)

