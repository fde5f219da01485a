"""End-to-end tests for the APTQ pipeline (Algorithm 1)."""

import weakref

import numpy as np
import pytest

import repro.core.aptq as aptq_module
from repro.core.aptq import APTQConfig, aptq_quantize_model
from repro.core.allocation import manual_blockwise_allocation
from repro.eval import perplexity
from tests.conftest import clone


@pytest.fixture
def no_sensitivity_pass(monkeypatch):
    """Fail the test if the run reaches the sensitivity pass."""

    def sensitivity_pass(*args, **kwargs):
        raise AssertionError("the sensitivity pass ran")

    monkeypatch.setattr(aptq_module, "compute_sensitivities", sensitivity_pass)


def assert_weights_unchanged(model, reference):
    for name, array in reference.state_dict().items():
        np.testing.assert_array_equal(
            model.state_dict()[name], array, err_msg=name
        )


@pytest.fixture(scope="module")
def aptq_result_and_model(trained_micro_model, calibration):
    model = clone(trained_micro_model)
    result = aptq_quantize_model(
        model,
        calibration,
        APTQConfig(ratio_4bit=0.75, group_size=8, n_probes=4, seed=0),
    )
    return result, model


class TestAPTQRun:
    def test_every_layer_quantized(self, aptq_result_and_model):
        result, model = aptq_result_and_model
        assert set(result.layer_results) == set(model.quantizable_linears())

    def test_average_bits_near_target(self, aptq_result_and_model):
        result, _ = aptq_result_and_model
        target = 4 * 0.75 + 2 * 0.25
        assert abs(result.average_bits - target) < 0.35

    def test_allocation_contains_both_widths(self, aptq_result_and_model):
        result, _ = aptq_result_and_model
        assert set(result.allocation.values()) == {2, 4}

    def test_solver_bits_match_allocation(self, aptq_result_and_model):
        result, _ = aptq_result_and_model
        for name, solver_result in result.layer_results.items():
            assert solver_result.bits == result.allocation[name]

    def test_weights_changed(self, aptq_result_and_model, trained_micro_model):
        _, model = aptq_result_and_model
        for name, linear in model.quantizable_linears().items():
            reference = trained_micro_model.quantizable_linears()[name]
            assert not np.allclose(linear.weight.data, reference.weight.data)

    def test_model_still_functions(self, aptq_result_and_model, calibration):
        _, model = aptq_result_and_model
        logits = model.forward_array(calibration.segments[:2])
        assert np.all(np.isfinite(logits))


@pytest.fixture
def forward_counts(monkeypatch):
    """Count full-model forwards and streamed block captures."""
    from repro.core.hessian import CalibrationCaptureStream
    from repro.nn.transformer import LlamaModel

    counts = {"forward": 0, "captures": 0}
    forward = LlamaModel.forward_array
    block_captures = CalibrationCaptureStream.block_captures

    def spy_forward(self, ids):
        counts["forward"] += 1
        return forward(self, ids)

    def spy_captures(self, block_index):
        counts["captures"] += 1
        return block_captures(self, block_index)

    monkeypatch.setattr(LlamaModel, "forward_array", spy_forward)
    monkeypatch.setattr(
        CalibrationCaptureStream, "block_captures", spy_captures
    )
    return counts


class TestForwardCounts:
    """The block loop forwards single blocks, never the whole model."""

    def test_one_full_model_forward_and_streamed_captures(
        self, micro_model, calibration, forward_counts
    ):
        # 16 calibration segments at the default batch size: one batch.
        aptq_quantize_model(
            micro_model,
            calibration,
            APTQConfig(ratio_4bit=0.5, group_size=8, n_probes=2),
        )
        n_blocks = len(micro_model.blocks)
        # The sensitivity pass's FFN statistics, and nothing per block.
        assert forward_counts["forward"] == 1
        # Every block once for the sensitivity pass; the sequential pass
        # reuses block 0's Hessians and captures the rest.
        assert forward_counts["captures"] == 2 * n_blocks - 1

    @pytest.mark.parametrize("hessian_mode", ["probed", "kron"])
    def test_override_run_skips_the_sensitivity_pass(
        self, micro_model, calibration, forward_counts, no_sensitivity_pass,
        hessian_mode,
    ):
        # A fixed allocation needs no Hessian traces: every block is
        # captured once, by the block loop, and the model is never
        # forwarded whole.
        result = aptq_quantize_model(
            micro_model,
            calibration,
            APTQConfig(
                group_size=8,
                n_probes=2,
                hessian_mode=hessian_mode,
                allocation_override=manual_blockwise_allocation(
                    micro_model, 0.5
                ),
            ),
        )
        assert forward_counts["forward"] == 0
        assert forward_counts["captures"] == len(micro_model.blocks)
        assert result.sensitivities == {}
        assert set(result.layer_results) == set(
            micro_model.quantizable_linears()
        )


class TestAPTQConfigs:
    def test_ratio_one_uniform_4bit(self, trained_micro_model, calibration):
        model = clone(trained_micro_model)
        result = aptq_quantize_model(
            model, calibration,
            APTQConfig(ratio_4bit=1.0, group_size=8, n_probes=2),
        )
        assert result.average_bits == pytest.approx(4.0)

    def test_allocation_override(self, trained_micro_model, calibration):
        model = clone(trained_micro_model)
        override = manual_blockwise_allocation(model, 0.5)
        result = aptq_quantize_model(
            model, calibration,
            APTQConfig(group_size=8, n_probes=2, allocation_override=override),
        )
        assert result.allocation == override

    @pytest.mark.parametrize("hessian_mode", ["probed", "kron"])
    def test_override_of_the_chosen_allocation_reproduces_the_run(
        self, trained_micro_model, calibration, hessian_mode
    ):
        config = APTQConfig(
            ratio_4bit=0.75, group_size=8, n_probes=2,
            hessian_mode=hessian_mode,
        )
        ranked_model = clone(trained_micro_model)
        ranked = aptq_quantize_model(ranked_model, calibration, config)
        fixed_model = clone(trained_micro_model)
        fixed = aptq_quantize_model(
            fixed_model, calibration, config,
            allocation_override=ranked.allocation,
        )
        assert ranked.sensitivities and fixed.sensitivities == {}
        assert fixed.allocation == ranked.allocation
        assert fixed.average_bits == ranked.average_bits
        state = fixed_model.state_dict()
        for name, array in ranked_model.state_dict().items():
            assert state[name].tobytes() == array.tobytes(), name
        assert list(fixed.layer_results) == list(ranked.layer_results)
        for name, want in ranked.layer_results.items():
            got = fixed.layer_results[name]
            for field in ("codes", "scales", "zeros"):
                assert np.array_equal(
                    getattr(got.group_result, field),
                    getattr(want.group_result, field),
                ), (name, field)
            assert got.quantized_weight.tobytes() == (
                want.quantized_weight.tobytes()
            ), name
            assert got.compensated_loss == want.compensated_loss, name
            assert got.mse == want.mse, name

    def test_incomplete_override_rejected(self, trained_micro_model, calibration):
        model = clone(trained_micro_model)
        with pytest.raises(KeyError):
            aptq_quantize_model(
                model, calibration,
                APTQConfig(allocation_override={"blocks.0.mlp.up_proj": 4}),
            )

    def test_unknown_override_layer_rejected_before_any_work(
        self, trained_micro_model, calibration, no_sensitivity_pass
    ):
        model = clone(trained_micro_model)
        override = manual_blockwise_allocation(model, 0.5)
        override["blocks.9.mlp.up_proj"] = 4
        with pytest.raises(KeyError, match="blocks.9.mlp.up_proj"):
            aptq_quantize_model(
                model, calibration,
                APTQConfig(group_size=8, n_probes=2,
                           allocation_override=override),
            )
        assert_weights_unchanged(model, trained_micro_model)

    @pytest.mark.parametrize("width", [0, 17, 4.0, True])
    def test_override_width_rejected_before_any_work(
        self, trained_micro_model, calibration, no_sensitivity_pass, width
    ):
        model = clone(trained_micro_model)
        override = manual_blockwise_allocation(model, 0.5)
        last = list(model.quantizable_linears())[-1]
        override[last] = width
        with pytest.raises(ValueError, match=last):
            aptq_quantize_model(
                model, calibration,
                APTQConfig(group_size=8, n_probes=2,
                           allocation_override=override),
            )
        assert_weights_unchanged(model, trained_micro_model)

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("high_bits", 0),
            ("high_bits", 17),
            ("high_bits", 4.0),
            ("low_bits", 0),
            ("low_bits", 17),
            ("low_bits", True),
            ("ratio_4bit", -0.1),
            ("ratio_4bit", 1.5),
            ("ratio_4bit", float("nan")),
        ],
    )
    def test_invalid_width_or_ratio_rejected_before_any_work(
        self, trained_micro_model, calibration, no_sensitivity_pass, knob,
        value,
    ):
        # Checked before the sensitivity pass, as allocation_override is:
        # a bad width used to raise only once block 0 had been rewritten.
        model = clone(trained_micro_model)
        with pytest.raises(ValueError, match=knob):
            aptq_quantize_model(
                model, calibration,
                APTQConfig(group_size=8, n_probes=2, **{knob: value}),
            )
        assert_weights_unchanged(model, trained_micro_model)

    @pytest.mark.parametrize("hessian_mode", ["probed", "kron"])
    def test_only_block0_pass_hessians_outlive_the_pass(
        self, trained_micro_model, calibration, monkeypatch, hessian_mode
    ):
        # Block 0 reuses its sensitivity-pass Hessians; every later block
        # is recaptured on the partially quantized model, so the pass's
        # Hessians of those blocks must be gone before that happens.
        later_blocks = []
        sensitivity_pass = aptq_module.compute_sensitivities

        def spy_pass(*args, **kwargs):
            result = sensitivity_pass(*args, **kwargs)
            later_blocks.extend(
                weakref.ref(hessians)
                for block, hessians in kwargs["attention_cache"].items()
                if block > 0
            )
            return result

        alive = []
        block_captures = aptq_module.CalibrationCaptureStream.block_captures

        def spy_captures(stream, block_index):
            if not stream.frozen:
                alive.append([ref() is not None for ref in later_blocks])
            return block_captures(stream, block_index)

        monkeypatch.setattr(aptq_module, "compute_sensitivities", spy_pass)
        monkeypatch.setattr(
            aptq_module.CalibrationCaptureStream, "block_captures",
            spy_captures,
        )
        aptq_quantize_model(
            clone(trained_micro_model), calibration,
            APTQConfig(group_size=8, n_probes=2, hessian_mode=hessian_mode),
        )
        assert len(later_blocks) == len(trained_micro_model.blocks) - 1
        assert alive == [[False]]

    def test_negative_workers_rejected_before_any_work(
        self, trained_micro_model, calibration, no_sensitivity_pass
    ):
        with pytest.raises(ValueError, match="workers"):
            aptq_quantize_model(
                clone(trained_micro_model), calibration, APTQConfig(workers=-1)
            )

    def test_kwarg_overrides(self, trained_micro_model, calibration):
        model = clone(trained_micro_model)
        result = aptq_quantize_model(
            model, calibration, ratio_4bit=0.0, group_size=8, n_probes=2,
        )
        assert result.average_bits == pytest.approx(2.0)


class TestAPTQQuality:
    def test_mixed_precision_beats_uniform_2bit(
        self, trained_micro_model, calibration, corpus_splits
    ):
        stream = corpus_splits.validation[:2000]
        uniform2 = clone(trained_micro_model)
        aptq_quantize_model(
            uniform2, calibration,
            APTQConfig(ratio_4bit=0.0, group_size=8, n_probes=2),
        )
        mixed = clone(trained_micro_model)
        aptq_quantize_model(
            mixed, calibration,
            APTQConfig(ratio_4bit=0.75, group_size=8, n_probes=2),
        )
        assert perplexity(mixed, stream, seq_len=32) < perplexity(
            uniform2, stream, seq_len=32
        )

    def test_4bit_close_to_fp(self, trained_micro_model, calibration,
                              corpus_splits):
        stream = corpus_splits.validation[:2000]
        quantized = clone(trained_micro_model)
        aptq_quantize_model(
            quantized, calibration,
            APTQConfig(ratio_4bit=1.0, group_size=8, n_probes=2),
        )
        fp = perplexity(trained_micro_model, stream, seq_len=32)
        q = perplexity(quantized, stream, seq_len=32)
        assert q < fp * 1.25
