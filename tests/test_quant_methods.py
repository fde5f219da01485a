"""Tests for the model-level quantization methods (RTN, GPTQ, SmoothQuant,
OWQ, PB-LLM, FPQ, LLM-QAT) and the calibration hook machinery."""

import dataclasses

import numpy as np
import pytest

from repro.nn.transformer import LlamaModel
from repro.quant.calibration_hooks import (
    InputCollector,
    collect_input_stats,
    sequential_input_stats,
)
from repro.quant.fpq import FP4_VALUES, fpq_quantize_model
from repro.quant.gptq import gptq_quantize_model
from repro.quant.llmqat import LLMQATConfig, generate_self_data, llmqat_train
from repro.quant.owq import owq_quantize_model, select_outlier_channels
from repro.quant.pbllm import pbllm_average_bits, pbllm_quantize_model
from repro.quant.rtn import rtn_quantize_model
from repro.quant.smoothquant import smooth_scales, smoothquant_quantize_model
from tests.conftest import MICRO_CONFIG, clone


class TestCalibrationHooks:
    def test_hessian_matches_direct_computation(self, micro_model, calibration):
        stats = collect_input_stats(
            micro_model,
            calibration.segments[:4],
            layer_names=["blocks.0.self_attn.q_proj"],
        )
        record = stats["blocks.0.self_attn.q_proj"]
        assert record.n_samples == 4 * calibration.seq_len
        h = record.normalised_hessian()
        assert h.shape == (16, 16)
        assert np.allclose(h, h.T)
        assert np.all(np.linalg.eigvalsh(h) > -1e-10)

    def test_hooks_removed_after_collection(self, micro_model, calibration):
        collect_input_stats(micro_model, calibration.segments[:2])
        for linear in micro_model.quantizable_linears().values():
            assert linear.input_hooks == []

    def test_abs_max_recorded(self, micro_model, calibration):
        stats = collect_input_stats(
            micro_model, calibration.segments[:2],
            layer_names=["blocks.0.mlp.gate_proj"],
        )
        assert np.all(stats["blocks.0.mlp.gate_proj"].abs_max > 0)

    def test_collector_scopes_hooks_to_the_with_block(self, micro_model, calibration):
        layers = {
            name: linear
            for name, linear in micro_model.quantizable_linears().items()
            if name == "blocks.0.self_attn.q_proj"
        }
        with InputCollector(layers) as collector:
            (linear,) = layers.values()
            assert len(linear.input_hooks) == 1
            micro_model.forward_array(calibration.segments[:2])
        assert linear.input_hooks == []
        record = collector.stats["blocks.0.self_attn.q_proj"]
        assert record.n_samples == 2 * calibration.seq_len
        assert np.all(record.second_moment >= 0)


class TestLayerGrouping:
    def test_groups_ordered_by_depth(self, calibration):
        # Sequential calibration yields one group per block in depth order,
        # each in quantizable_linears() order, then the untied lm_head.
        config = dataclasses.replace(MICRO_CONFIG, tie_embeddings=False)
        model = LlamaModel(config, seed=0)
        names = list(model.quantizable_linears())
        groups = [
            group
            for group, _ in sequential_input_stats(
                model, calibration.segments[:4]
            )
        ]
        assert groups == [names[:7], names[7:14], ["lm_head"]]
        assert all(name.startswith("blocks.0.") for name in groups[0])
        assert all(name.startswith("blocks.1.") for name in groups[1])


class TestRTN:
    def test_all_layers_quantized(self, trained_micro_model):
        model = clone(trained_micro_model)
        results = rtn_quantize_model(model, bits=4, group_size=8)
        assert set(results) == set(model.quantizable_linears())
        for name, linear in model.quantizable_linears().items():
            assert np.allclose(linear.weight.data, results[name].dequantize())

    def test_per_layer_bits_dict(self, trained_micro_model):
        model = clone(trained_micro_model)
        bits = {name: 2 for name in model.quantizable_linears()}
        bits["blocks.0.self_attn.q_proj"] = 8
        results = rtn_quantize_model(model, bits=bits, group_size=8)
        assert results["blocks.0.self_attn.q_proj"].bits == 8
        assert results["blocks.0.mlp.up_proj"].bits == 2

    def test_weights_actually_change(self, trained_micro_model):
        model = clone(trained_micro_model)
        before = model.blocks[0].mlp.up_proj.weight.data.copy()
        rtn_quantize_model(model, bits=2, group_size=8)
        assert not np.allclose(before, model.blocks[0].mlp.up_proj.weight.data)


class TestGPTQ:
    def test_better_than_rtn_at_low_bits(
        self, trained_micro_model, calibration, corpus_splits
    ):
        from repro.eval import perplexity

        rtn_model = clone(trained_micro_model)
        rtn_quantize_model(rtn_model, bits=2, group_size=8)
        gptq_model = clone(trained_micro_model)
        gptq_quantize_model(
            gptq_model, calibration, bits=2, group_size=8
        )
        stream = corpus_splits.validation[:2000]
        assert perplexity(gptq_model, stream, seq_len=32) < perplexity(
            rtn_model, stream, seq_len=32
        )

    def test_results_cover_all_layers(self, trained_micro_model, calibration):
        model = clone(trained_micro_model)
        results = gptq_quantize_model(model, calibration, bits=4, group_size=8)
        assert set(results) == set(model.quantizable_linears())

    def test_mixed_bits_dict(self, trained_micro_model, calibration):
        model = clone(trained_micro_model)
        bits = {name: 2 for name in model.quantizable_linears()}
        bits["blocks.1.mlp.down_proj"] = 4
        results = gptq_quantize_model(
            model, calibration, bits=bits, group_size=8
        )
        assert results["blocks.1.mlp.down_proj"].bits == 4


class TestSmoothQuant:
    def test_scales_positive_and_activation_aligned(self, rng):
        weight = rng.normal(size=(8, 4))
        act = np.array([10.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.1])
        scales = smooth_scales(act, weight, alpha=0.5)
        assert np.all(scales > 0)
        assert scales[0] > scales[7]  # louder channel -> more migration

    def test_alpha_validated(self, rng):
        with pytest.raises(ValueError):
            smooth_scales(np.ones(4), rng.normal(size=(4, 2)), alpha=1.5)

    def test_model_quantized_and_finite(self, trained_micro_model, calibration):
        model = clone(trained_micro_model)
        results = smoothquant_quantize_model(
            model, calibration, bits=4, group_size=8
        )
        assert len(results) == 14
        for linear in model.quantizable_linears().values():
            assert np.all(np.isfinite(linear.weight.data))


class TestOWQ:
    def test_outlier_channels_kept_fp16(self, trained_micro_model, calibration):
        model = clone(trained_micro_model)
        original = {
            name: lin.weight.data.copy()
            for name, lin in model.quantizable_linears().items()
        }
        results = owq_quantize_model(
            model, calibration, bits=4, group_size=8, outlier_fraction=0.1
        )
        for name, linear in model.quantizable_linears().items():
            outliers = results[name].outlier_channels
            assert outliers.size > 0
            assert np.allclose(
                linear.weight.data[outliers], original[name][outliers]
            )

    def test_average_bits_above_base(self, trained_micro_model, calibration):
        model = clone(trained_micro_model)
        results = owq_quantize_model(
            model, calibration, bits=4, group_size=8, outlier_fraction=0.05
        )
        for result in results.values():
            assert result.average_bits > 4.0

    def test_selection_ranks_by_sensitivity(self, rng):
        weight = np.ones((6, 3))
        hessian = np.diag([1.0, 10.0, 2.0, 8.0, 0.5, 3.0])
        picked = select_outlier_channels(hessian, weight, fraction=0.34)
        assert set(picked) == {1, 3}

    def test_fraction_validated(self, rng):
        with pytest.raises(ValueError):
            select_outlier_channels(np.eye(4), np.ones((4, 2)), fraction=1.0)


class TestPBLLM:
    def test_average_bits_formula(self):
        assert pbllm_average_bits(0.2) == pytest.approx(4.0)
        assert pbllm_average_bits(0.1) == pytest.approx(2.5)
        assert pbllm_average_bits(0.0) == pytest.approx(1.0)

    def test_salient_weights_preserved(self, trained_micro_model, calibration):
        model = clone(trained_micro_model)
        original = {
            name: lin.weight.data.copy()
            for name, lin in model.quantizable_linears().items()
        }
        results = pbllm_quantize_model(
            model, calibration, salient_fraction=0.2, group_size=8
        )
        for name, linear in model.quantizable_linears().items():
            mask = results[name].salient_mask
            assert mask.any()
            assert np.allclose(
                linear.weight.data[mask], original[name][mask]
            )

    def test_non_salient_binarized(self, trained_micro_model, calibration):
        model = clone(trained_micro_model)
        results = pbllm_quantize_model(
            model, calibration, salient_fraction=0.1, group_size=8
        )
        linear = model.quantizable_linears()["blocks.0.mlp.up_proj"]
        mask = results["blocks.0.mlp.up_proj"].salient_mask
        binary = np.abs(linear.weight.data[~mask])
        # Binarized entries take at most one magnitude per group/column.
        assert np.unique(np.round(binary, 12)).size <= (
            results["blocks.0.mlp.up_proj"].group_magnitudes.size
        )

    def test_fraction_validated(self, trained_micro_model, calibration):
        with pytest.raises(ValueError):
            pbllm_quantize_model(
                clone(trained_micro_model), calibration, salient_fraction=1.0
            )

    @pytest.mark.parametrize("group_size", [0, -1])
    def test_nonpositive_group_size_rejected(
        self, micro_model, calibration, group_size
    ):
        # As for every other method: no silent per-column run for 0, no
        # numpy shape error for -1, and no layer rewritten.
        before = micro_model.state_dict()
        with pytest.raises(ValueError, match="group_size must be positive"):
            pbllm_quantize_model(
                micro_model, calibration, group_size=group_size
            )
        for name, array in micro_model.state_dict().items():
            assert np.array_equal(array, before[name]), name


class TestFPQ:
    def test_values_on_fp4_grid(self, trained_micro_model):
        model = clone(trained_micro_model)
        results = fpq_quantize_model(model, group_size=8)
        linear = model.quantizable_linears()["blocks.0.self_attn.q_proj"]
        result = results["blocks.0.self_attn.q_proj"]
        for g in range(result.scales.shape[0]):
            rows = slice(g * 8, (g + 1) * 8)
            block = linear.weight.data[rows]
            normalised = block / result.scales[g]
            distances = np.abs(normalised[..., None] - FP4_VALUES).min(axis=-1)
            assert np.all(distances < 1e-9)

    def test_error_bounded(self, trained_micro_model):
        model = clone(trained_micro_model)
        before = model.blocks[0].mlp.up_proj.weight.data.copy()
        fpq_quantize_model(model, group_size=8)
        after = model.blocks[0].mlp.up_proj.weight.data
        assert np.abs(after - before).max() < np.abs(before).max()


class TestLLMQAT:
    def test_self_data_in_vocab(self, trained_micro_model):
        data = generate_self_data(trained_micro_model, 4, 12, seed=1)
        assert data.shape == (4, 12)
        assert data.min() >= 0
        assert data.max() < trained_micro_model.config.vocab_size

    def test_self_data_is_pinned(self, trained_micro_model):
        # The LLM-QAT table rows train on these sampled tokens; any change
        # to the cached decode path must leave them bit-for-bit unchanged.
        data = generate_self_data(trained_micro_model, 4, 12, seed=1)
        assert data.dtype == np.int64
        assert data.tolist() == [
            [121, 19, 241, 216, 59, 68, 125, 143, 117, 158, 158, 174],
            [131, 243, 105, 174, 127, 80, 247, 104, 54, 227, 18, 83],
            [193, 89, 163, 112, 47, 193, 241, 72, 138, 18, 176, 192],
            [243, 117, 15, 190, 112, 106, 143, 243, 192, 152, 218, 117],
        ]

    def test_training_runs_and_quantizes(self, trained_micro_model):
        model = clone(trained_micro_model)
        history = llmqat_train(
            model,
            LLMQATConfig(bits=4, group_size=8, steps=4, batch_size=2,
                         seq_len=12),
        )
        assert len(history) == 4
        assert all(np.isfinite(h) for h in history)
        # Final weights must sit on a 4-bit group grid.
        linear = model.quantizable_linears()["blocks.0.mlp.up_proj"]
        for col in range(0, linear.d_out, 7):
            values = np.unique(linear.weight.data[:8, col])
            assert values.size <= 16
