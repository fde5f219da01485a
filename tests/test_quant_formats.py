"""Differential conformance harness for the quant format registry.

Every format registered in :mod:`repro.quant.formats` is run through the
shared obligations of ``tests/format_conformance.py`` (round trip within
the declared error bound, pack/unpack byte-identity, code-domain safety,
checksummed serialization), plus the format-specific oracles: bit-identity
with first-principles affine dequantization for the int family,
dense-equivalence for the 2:4 sparse format, and clip accounting for the
percentile-observed LUT format.  Registering a new format without
conformance coverage is therefore a tier-1 failure, not a review comment.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from format_conformance import (
    assert_tensors_equal,
    run_conformance,
)
from repro.core.aptq import APTQConfig, aptq_quantize_model
from repro.data.calibration import CalibrationSet
from repro.eval.perplexity import perplexity
from repro.nn.transformer import LlamaConfig, LlamaModel
from repro.quant.deploy import PackedModel, pack_model
from repro.quant.formats import (
    NF4_VALUES,
    FormatLinear,
    IntFormat,
    available_formats,
    get_format,
    register_format,
    resolve_format,
)
from repro.quant.groupwise import group_of_row, quantize_groupwise
from repro.quant.observer import PercentileObserver, get_observer

BENCH_ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_quantize.json"

#: Reviewed registry contents.  A new registration must be added here (and
#: thereby consciously enrolled in every check below) to pass.
EXPECTED_FORMATS = (
    "fp4",
    "fp4-p99",
    "int2",
    "int3",
    "int4",
    "int8",
    "mx4",
    "nf4",
    "sparse24",
)

#: (shape, group_size) geometries: dividing, whole-matrix, single-element
#: groups, and a non-dividing remainder group.
GEOMETRIES = (
    ((32, 8), 8),
    ((24, 6), None),
    ((7, 3), 1),
    ((37, 11), 8),
)


def seeded_weight(shape, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) * scale


# ----------------------------------------------------------------------
# The shared obligations, over the full registry x geometry grid
# ----------------------------------------------------------------------
class TestConformance:
    @pytest.mark.parametrize("name", EXPECTED_FORMATS)
    @pytest.mark.parametrize("shape,group_size", GEOMETRIES)
    def test_obligations(self, name, shape, group_size, tmp_path):
        fmt = get_format(name)
        run_conformance(fmt, seeded_weight(shape), group_size, tmp_path)

    @pytest.mark.parametrize("name", EXPECTED_FORMATS)
    def test_encode_is_deterministic(self, name):
        fmt = get_format(name)
        weight = seeded_weight((19, 5), seed=3)
        assert_tensors_equal(fmt.encode(weight, 4), fmt.encode(weight, 4))

    @pytest.mark.parametrize(
        "weight",
        [
            np.zeros((8, 3)),
            np.full((9, 2), 1e-8),
            np.full((6, 2), -1e-8),
            # 1e4 is the largest magnitude the *legacy* fp16 affine grids
            # (which int-k mirrors bit-identically) can represent; the
            # beyond-fp16 regime is LUT-specific, tested below.
            seeded_weight((12, 4), seed=1, scale=1e4),
            np.where(seeded_weight((16, 4), seed=2) > 0, 5.0, 5.0),
        ],
        ids=["zeros", "tiny", "tiny-negative", "huge", "constant"],
    )
    @pytest.mark.parametrize("name", EXPECTED_FORMATS)
    def test_degenerate_weights(self, name, weight):
        run_conformance(get_format(name), weight, 4)

    @pytest.mark.parametrize("name", ["fp4", "fp4-p99", "nf4", "mx4"])
    def test_lut_formats_survive_beyond_fp16_range(self, name):
        # LUT scales clamp into fp16's finite range (mx4 clamps its
        # exponent instead); the unreachable excess must be clip error
        # inside the declared bound, never an inf/nan reconstruction.
        run_conformance(
            get_format(name), seeded_weight((12, 4), seed=1, scale=1e6), 4
        )


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
class TestRegistry:
    def test_registry_matches_reviewed_list(self):
        assert available_formats() == EXPECTED_FORMATS, (
            "registry drifted from the reviewed EXPECTED_FORMATS list; new "
            "formats must be enrolled in the conformance suite explicitly"
        )

    def test_nf4_code_book_is_the_qlora_grid(self):
        # NF4_VALUES is the public code book the nf4 entry is built from:
        # 16 sorted quantiles spanning [-1, 1] with an exact zero, so a
        # zero weight always round-trips exactly.
        assert NF4_VALUES.shape == (16,)
        assert np.all(np.diff(NF4_VALUES) > 0)
        assert NF4_VALUES[0] == -1.0 and NF4_VALUES[-1] == 1.0
        assert 0.0 in NF4_VALUES
        nf4 = get_format("nf4")
        assert np.array_equal(nf4.values, NF4_VALUES)

    def test_unknown_format_names_registry_entries(self):
        with pytest.raises(ValueError) as excinfo:
            get_format("bfloat9")
        message = str(excinfo.value)
        for name in EXPECTED_FORMATS:
            assert name in message

    def test_resolve_rejects_contradictory_bits(self):
        with pytest.raises(ValueError, match="registered formats"):
            resolve_format("nf4", bits=8)

    def test_resolve_int_family_any_width(self):
        fmt = resolve_format("int", bits=5)
        assert fmt.bits == 5 and fmt.name == "int5"
        with pytest.raises(ValueError, match="explicit bits"):
            resolve_format("int")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_format(IntFormat(4))

    def test_every_format_has_a_bench_record(self):
        report = json.loads(BENCH_ARTIFACT.read_text())
        benched = {
            record["params"].get("format")
            for record in report["records"]
            if record["kind"] == "format-forward"
        }
        missing = sorted(set(EXPECTED_FORMATS) - benched)
        assert missing == [], (
            f"formats without a BENCH_quantize.json record: {missing}; "
            "regenerate with `python tools/bench.py`"
        )


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
        fmt = get_format(f"int{bits}")
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


class TestSparse24:
    def test_dense_equivalence_oracle(self):
        # The sparse layer must equal: prune -> int4 group-quantize the
        # masked weight -> dequantize -> re-apply the mask, computed
        # independently from first principles.
        weight = seeded_weight((36, 9), seed=6)
        fmt = get_format("sparse24")
        tensor = fmt.encode(weight, 8)
        mask = tensor.mask
        reference = quantize_groupwise(weight * mask, 4, 8)
        rows = group_of_row(36, 8, reference.n_groups)
        scales = reference.scales.astype(np.float16).astype(np.float64)
        zeros = reference.zeros.astype(np.float16).astype(np.float64)
        dense = (
            (reference.codes.astype(np.float64) - zeros[rows])
            * scales[rows]
            * mask
        )
        assert np.array_equal(fmt.decode(tensor), dense)
        x = seeded_weight((4, 36), seed=7)
        assert np.array_equal(
            FormatLinear.from_tensor(fmt, tensor).forward_array(x), x @ dense
        )

    def test_mask_is_structurally_2_of_4(self):
        weight = seeded_weight((37, 11), seed=8)
        mask = get_format("sparse24").sparsity_mask(weight)
        full = (37 // 4) * 4
        per_block = mask[:full].reshape(-1, 4, 11).sum(axis=1)
        assert np.all(per_block == 2)
        assert mask[full:].all(), "remainder rows must all survive"

    def test_keeps_largest_magnitudes(self):
        weight = np.array(
            [[1.0], [-3.0], [0.5], [2.0], [0.0], [0.0], [4.0], [-4.0]]
        )
        mask = get_format("sparse24").sparsity_mask(weight)
        assert mask[:, 0].tolist() == [
            False, True, False, True, False, False, True, True,
        ]

    def test_pruned_entries_decode_to_exact_zero(self):
        weight = seeded_weight((32, 5), seed=9)
        fmt = get_format("sparse24")
        tensor = fmt.encode(weight, 8)
        decoded = fmt.decode(tensor)
        assert np.all(decoded[~tensor.mask] == 0.0)

    def test_payload_stores_survivors_only(self):
        weight = seeded_weight((64, 8), seed=10)
        fmt = get_format("sparse24")
        tensor = fmt.encode(weight, 16)
        arrays, meta = fmt.pack_payload(tensor)
        assert meta["n_survivors"] == int(tensor.mask.sum())
        # 4-bit codes for half the entries: the codes array must be about
        # half the size of the dense int4 packing.
        dense_words = (64 * 8 * 4 + 31) // 32
        assert arrays["codes"].size <= dense_words // 2 + 1


class TestObservers:
    def test_percentile_clips_but_stays_within_declared_bound(self):
        rng = np.random.default_rng(11)
        weight = rng.standard_normal((64, 4))
        weight[0, :] = 40.0  # gross outlier the percentile should ignore
        absmax = get_format("fp4")
        clipped = get_format("fp4-p99")
        t_absmax = absmax.encode(weight, None)
        t_clipped = clipped.encode(weight, None)
        # The percentile grid must be finer than the outlier-stretched one.
        assert float(t_clipped.scales.max()) < float(t_absmax.scales.max())
        # ... and the clipped outlier is still inside the declared bound.
        error = np.abs(clipped.decode(t_clipped) - weight).max()
        assert error <= clipped.error_bound(t_clipped, weight) * (1 + 1e-9)

    def test_get_observer_round_trip(self):
        assert get_observer("absmax").name == "absmax"
        assert get_observer("p99.5").percentile == 99.5
        with pytest.raises(ValueError, match="unknown observer"):
            get_observer("median")
        with pytest.raises(ValueError, match="percentile"):
            PercentileObserver(0.0)


class TestMx:
    def test_scales_are_powers_of_two(self):
        weight = seeded_weight((40, 6), seed=12, scale=3.7)
        tensor = get_format("mx4").encode(weight, 8)
        exponents = np.log2(tensor.scales)
        assert np.array_equal(exponents, np.round(exponents))

    def test_exponent_payload_is_int16(self):
        tensor = get_format("mx4").encode(seeded_weight((16, 4)), 8)
        arrays, _ = get_format("mx4").pack_payload(tensor)
        assert arrays["exponents"].dtype == np.int16
        assert "scales" not in arrays


# ----------------------------------------------------------------------
# End-to-end: quantize -> deploy -> perplexity for every format
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
    @pytest.mark.parametrize("name", EXPECTED_FORMATS)
    def test_pack_deploy_eval_every_format(self, name, tiny_setup, tmp_path):
        config, _, stream = tiny_setup
        model = LlamaModel(config, seed=13)
        packed = pack_model(model, 4, group_size=8, format=name)
        assert all(
            isinstance(layer, FormatLinear) for layer in packed.layers.values()
        )
        assert packed.storage_bytes() > 0
        path = packed.save(tmp_path / "packed.npz")
        loaded = PackedModel.load(path)
        for layer_name, layer in packed.layers.items():
            assert loaded.layers[layer_name].format_name == name
            assert np.array_equal(
                loaded.layers[layer_name].dequantize(), layer.dequantize()
            )
        ppl = perplexity(loaded.to_model(), stream, seq_len=16)
        assert np.isfinite(ppl) and ppl > 0

    def test_solver_int_and_nf4_layers_share_one_artifact(
        self, tiny_setup, tmp_path
    ):
        # Layers with a solver result keep its exact int codes; the rest
        # are encoded with the requested format, in one archive.
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
            model,
            result.allocation,
            group_size=8,
            layer_results=low_bit,
            format="nf4",
        )
        nf4 = get_format("nf4")
        linears = model.quantizable_linears()
        for name, layer in packed.layers.items():
            if name in low_bit:
                expected = IntFormat(2).from_group_result(
                    low_bit[name].group_result
                )
            else:
                expected = nf4.encode(linears[name].weight.data, 8)
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
    def test_unknown_format_lists_registry(self, tiny_setup):
        config, _, _ = tiny_setup
        model = LlamaModel(config, seed=13)
        with pytest.raises(ValueError) as excinfo:
            pack_model(model, 4, format="bogus")
        assert "registered formats" in str(excinfo.value)
        assert "nf4" in str(excinfo.value)

    def test_missing_allocation_entry_names_layer(self, tiny_setup):
        config, _, _ = tiny_setup
        model = LlamaModel(config, seed=13)
        with pytest.raises(ValueError, match="no bit allocation for layer"):
            pack_model(model, {"not.a.layer": 4})
