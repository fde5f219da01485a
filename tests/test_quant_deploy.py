"""Tests for the packed deployment artifact."""

import numpy as np
import pytest

from repro.core.aptq import APTQConfig, aptq_quantize_model
from repro.eval.perplexity import perplexity
from repro.nn.serialize import load_arrays, save_arrays
from repro.quant.deploy import PackedModel, pack_model
from repro.quant.formats import FormatLinear
from repro.runtime.errors import CheckpointError
from tests.conftest import clone


@pytest.fixture(scope="module")
def packed_setup(trained_micro_model, calibration):
    model = clone(trained_micro_model)
    result = aptq_quantize_model(
        model, calibration,
        APTQConfig(ratio_4bit=0.75, group_size=8, n_probes=2),
    )
    packed = pack_model(
        model, result.allocation, group_size=8,
        layer_results=result.layer_results,
    )
    return model, result, packed


class TestPackModel:
    def test_all_quantizable_layers_packed(self, packed_setup):
        model, _, packed = packed_setup
        assert set(packed.layers) == set(model.quantizable_linears())
        assert all(
            isinstance(layer, FormatLinear)
            for layer in packed.layers.values()
        )

    def test_allocation_bits_preserved(self, packed_setup):
        _, result, packed = packed_setup
        for name, q in packed.layers.items():
            assert q.bits == result.allocation[name]

    def test_average_bits_matches_allocation(self, packed_setup):
        _, result, packed = packed_setup
        assert packed.average_bits() == pytest.approx(
            result.average_bits, abs=1e-9
        )

    def test_norms_and_embeddings_kept(self, packed_setup):
        _, _, packed = packed_setup
        assert "embed.weight" in packed.full_precision
        assert "final_norm.gain" in packed.full_precision

    def test_smaller_than_fp16(self, packed_setup):
        model, _, packed = packed_setup
        fp16_bytes = 2 * model.num_parameters()
        assert packed.storage_bytes() < fp16_bytes


class TestRoundTrip:
    def test_to_model_reproduces_quantized_weights(self, packed_setup):
        model, _, packed = packed_setup
        rebuilt = packed.to_model()
        for name, linear in model.quantizable_linears().items():
            rebuilt_linear = rebuilt.quantizable_linears()[name]
            # fp16 grids: small reconstruction tolerance.
            assert np.allclose(
                rebuilt_linear.weight.data, linear.weight.data, atol=5e-3
            )

    def test_save_load_round_trip(self, packed_setup, tmp_path):
        _, _, packed = packed_setup
        path = packed.save(tmp_path / "model.npz")
        loaded = PackedModel.load(path)
        assert loaded.config == packed.config
        for name, q in packed.layers.items():
            layer = loaded.layers[name]
            assert layer.meta == q.meta
            assert set(layer.arrays) == {"codes", "scales", "zeros"}
            for key, array in q.arrays.items():
                assert layer.arrays[key].dtype == array.dtype
                assert np.array_equal(layer.arrays[key], array)
            assert layer.format_name == f"int{q.bits}"

    @pytest.mark.parametrize("bits", [5, 6, 7])
    def test_unregistered_int_widths_round_trip(
        self, bits, packed_setup, tmp_path
    ):
        # int5/6/7 have no golden pin or bench record; their archives
        # must still load, to the exact same weights.
        _, _, base = packed_setup
        layers = {
            name: FormatLinear.from_weight(layer.dequantize(), bits, 8)
            for name, layer in base.layers.items()
        }
        packed = PackedModel(base.config, layers, base.full_precision)
        loaded = PackedModel.load(packed.save(tmp_path / f"int{bits}.npz"))
        for name, layer in packed.layers.items():
            assert loaded.layers[name].format_name == f"int{bits}"
            assert np.array_equal(
                loaded.layers[name].dequantize(), layer.dequantize()
            )

    def test_int_archive_without_format_key_loads(self, packed_setup, tmp_path):
        # Archives from before int layers named their format carry int
        # headers with only bits/group_size/shape, over the same arrays.
        _, _, packed = packed_setup
        payload = {}
        layers_meta = {}
        for name, layer in packed.layers.items():
            for key in ("codes", "scales", "zeros"):
                payload[f"packed/{name}/{key}"] = layer.arrays[key]
            layers_meta[name] = {
                "bits": layer.bits,
                "group_size": layer.group_size,
                "shape": list(layer.shape),
            }
        for name, array in packed.full_precision.items():
            payload[f"fp/{name}"] = array.astype(np.float16)
        header = {"config": packed.config.to_dict(), "layers": layers_meta}
        path = save_arrays(tmp_path / "legacy.npz", payload, header)
        loaded = PackedModel.load(path)
        for name, layer in packed.layers.items():
            assert loaded.layers[name].format_name == f"int{layer.bits}"
            assert np.array_equal(
                loaded.layers[name].dequantize(), layer.dequantize()
            )

    def test_loaded_model_evaluates_close(
        self, packed_setup, tmp_path, corpus_splits
    ):
        model, _, packed = packed_setup
        path = packed.save(tmp_path / "model.npz")
        rebuilt = PackedModel.load(path).to_model()
        stream = corpus_splits.validation[:1500]
        original = perplexity(model, stream, seq_len=32)
        reloaded = perplexity(rebuilt, stream, seq_len=32)
        # fp16 storage of norms/embeddings/grids perturbs ppl only slightly.
        assert reloaded == pytest.approx(original, rel=0.02)

    def test_uniform_bits_shortcut(self, trained_micro_model):
        packed = pack_model(clone(trained_micro_model), bits=4, group_size=8)
        assert packed.average_bits() == pytest.approx(4.0)

    def test_archive_is_checksummed_and_detects_corruption(
        self, packed_setup, tmp_path
    ):
        # PackedModel.save now routes through nn.serialize.save_arrays:
        # the artifact carries a SHA-256 sidecar, and a bit-flip fails
        # loudly instead of deserializing garbage.
        _, _, packed = packed_setup
        path = packed.save(tmp_path / "model.npz")
        assert path.with_name(path.name + ".sha256").exists()
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            PackedModel.load(path)

    def test_non_int_layer_header_rejected(self, packed_setup, tmp_path):
        # An archive is outside input: a layer header naming any format
        # but int<bits> is refused before anything is decoded.
        _, _, packed = packed_setup
        name, layer = next(iter(packed.layers.items()))
        payload = {
            f"packed/{name}/{key}": array for key, array in layer.arrays.items()
        }
        header = {
            "config": packed.config.to_dict(),
            "layers": {name: {**layer.meta, "format": "nf4"}},
        }
        path = save_arrays(tmp_path / "nf4.npz", payload, header)
        with pytest.raises(ValueError, match="only int<k> layers") as excinfo:
            PackedModel.load(path)
        assert name in str(excinfo.value) and "'nf4'" in str(excinfo.value)

    @pytest.mark.parametrize("field", ["config", "layers"])
    def test_header_missing_field_raises(self, field, packed_setup, tmp_path):
        _, _, packed = packed_setup
        path = packed.save(tmp_path / "model.npz")
        raw, header = load_arrays(path)
        del header[field]
        save_arrays(path, raw, header)
        with pytest.raises(ValueError, match=f"lacks '{field}'"):
            PackedModel.load(path)

    @pytest.mark.parametrize("case", ["empty", "one-missing", "foreign"])
    def test_layers_must_name_the_configs_quantizable_layers(
        self, case, packed_setup, tmp_path
    ):
        # Without the check an archive with no packed layers loads, and
        # its to_model() is a random init.
        _, _, packed = packed_setup
        path = packed.save(tmp_path / "model.npz")
        raw, header = load_arrays(path)
        if case == "empty":
            raw, header = {}, {"config": {"vocab_size": 8}, "layers": {}}
        elif case == "one-missing":
            header["layers"].pop("blocks.0.mlp.up_proj")
        else:
            header["layers"]["blocks.9.mlp.up_proj"] = header["layers"][
                "blocks.0.mlp.up_proj"
            ]
        save_arrays(path, raw, header)
        with pytest.raises(ValueError, match="'layers' must name exactly"):
            PackedModel.load(path)

    @pytest.mark.parametrize("grid", ["scales", "zeros"])
    def test_non_finite_grid_raises(self, grid, packed_setup, tmp_path):
        _, _, packed = packed_setup
        path = packed.save(tmp_path / "model.npz")
        raw, header = load_arrays(path)
        key = f"packed/blocks.1.self_attn.k_proj/{grid}"
        raw[key] = raw[key].copy()
        raw[key][0, 0] = np.inf
        save_arrays(path, raw, header)
        with pytest.raises(ValueError, match=f"non-finite {grid}") as excinfo:
            PackedModel.load(path)
        assert "blocks.1.self_attn.k_proj" in str(excinfo.value)

    def test_non_object_header_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(
            path, __meta_json__=np.frombuffer(b"[1, 2]", dtype=np.uint8)
        )
        with pytest.raises(CheckpointError, match="corrupt metadata"):
            PackedModel.load(path)

    def test_missing_allocation_error_names_layer_and_coverage(
        self, trained_micro_model
    ):
        model = clone(trained_micro_model)
        some_layer = next(iter(model.quantizable_linears()))
        with pytest.raises(ValueError, match="no bit allocation for layer"):
            pack_model(model, {some_layer: 4})

    def test_rerounding_path_bounded_by_grid_step(
        self, trained_micro_model, calibration
    ):
        # Without layer_results, packing re-rounds onto fresh grids: the
        # error is bounded by half a quantization step per group.
        model = clone(trained_micro_model)
        aptq_quantize_model(
            model, calibration,
            APTQConfig(ratio_4bit=1.0, group_size=8, n_probes=2),
        )
        packed = pack_model(model, bits=4, group_size=8)
        for name, linear in model.quantizable_linears().items():
            q = packed.layers[name]
            error = np.abs(q.dequantize() - linear.weight.data)
            scales = q.arrays["scales"].astype(np.float64)
            group_of_row = np.minimum(
                np.arange(q.shape[0]) // q.group_size, scales.shape[0] - 1
            )
            assert np.all(error <= scales[group_of_row] / 2 + 1e-3)
