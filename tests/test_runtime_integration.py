"""Acceptance test of the fault-tolerant runtime.

The contract proven here: an APTQ run that takes an injected Cholesky
failure at block 0 and a simulated process crash at block 1 can be resumed
from its on-disk checkpoint and produce **identical final quantized
weights** to an uninterrupted run, with the RunHealth report listing the
exact retry/fallback/resume events.  It holds for both q/k Hessian
engines (``hessian_mode`` "probed" and "kron").
"""

import numpy as np
import pytest

from repro.core.aptq import APTQConfig, APTQResult, aptq_quantize_model
from repro.report import format_run_health
from repro.nn.config import LlamaConfig
from repro.nn.transformer import LlamaModel
from repro.runtime import (
    CalibrationError,
    CheckpointError,
    FaultInjector,
    InjectedFault,
    save_checkpoint,
)
from tests.conftest import clone

CONFIG_KWARGS = dict(ratio_4bit=0.75, group_size=8, n_probes=2, seed=0)


@pytest.fixture(scope="class")
def clean_run(trained_micro_model, calibration, hessian_mode):
    """Uninterrupted reference run (no checkpointing, no faults)."""
    model = clone(trained_micro_model)
    result = aptq_quantize_model(
        model,
        calibration,
        APTQConfig(hessian_mode=hessian_mode, **CONFIG_KWARGS),
    )
    return result, model


@pytest.fixture(scope="class")
def faulted_resumed_run(
    trained_micro_model, calibration, hessian_mode, tmp_path_factory
):
    """Fault-injected run (LinAlgError at block 0, crash at block 1) + resume."""
    checkpoint = tmp_path_factory.mktemp("runtime") / "aptq-run.npz"
    config = APTQConfig(
        checkpoint_path=checkpoint,
        resume=True,
        hessian_mode=hessian_mode,
        **CONFIG_KWARGS,
    )
    model = clone(trained_micro_model)
    injector = (
        FaultInjector()
        .force_linalg_error("blocks.0.*", times=1)
        .crash_at_block(1)
    )
    with injector:
        with pytest.raises(InjectedFault, match="block 1"):
            aptq_quantize_model(model, calibration, config)
    assert checkpoint.exists()
    result = aptq_quantize_model(model, calibration, config)
    return result, model, injector


class TestFaultedResumeMatchesCleanRun:
    """The contract with the probed q/k Hessians (the default engine)."""

    @pytest.fixture(scope="class")
    def hessian_mode(self):
        return "probed"

    def test_identical_quantized_weights_per_layer(
        self, clean_run, faulted_resumed_run
    ):
        clean_result, _ = clean_run
        resumed_result, _, _ = faulted_resumed_run
        assert set(resumed_result.layer_results) == set(
            clean_result.layer_results
        )
        for name, reference in clean_result.layer_results.items():
            np.testing.assert_array_equal(
                resumed_result.layer_results[name].quantized_weight,
                reference.quantized_weight,
                err_msg=name,
            )

    def test_identical_final_model_state(self, clean_run, faulted_resumed_run):
        _, clean_model = clean_run
        _, resumed_model, _ = faulted_resumed_run
        for name, array in clean_model.state_dict().items():
            np.testing.assert_array_equal(
                resumed_model.state_dict()[name], array, err_msg=name
            )

    def test_identical_allocation_and_average_bits(
        self, clean_run, faulted_resumed_run
    ):
        clean_result, _ = clean_run
        resumed_result, _, _ = faulted_resumed_run
        assert resumed_result.allocation == clean_result.allocation
        assert resumed_result.average_bits == clean_result.average_bits

    def test_health_lists_exact_fault_events(self, faulted_resumed_run):
        result, _, injector = faulted_resumed_run
        health = result.health
        retries = health.by_category("retry")
        assert len(retries) == 1
        assert retries[0].layer.startswith("blocks.0.self_attn.q_proj")
        resumes = health.by_category("resume")
        assert len(resumes) == 1
        assert resumes[0].detail["next_block"] == 1
        assert health.counts()["checkpoint"] >= 1
        assert health.status == "degraded"
        assert health.degraded_layers == (retries[0].layer,)
        # The injector's own log agrees: one cholesky hit, one block crash.
        assert ("block-start", "1") in injector.fired

    def test_clean_run_health_is_clean(self, clean_run):
        result, _ = clean_run
        assert result.health.status == "clean"
        assert result.health.events == ()

    def test_health_renders(self, faulted_resumed_run, clean_run):
        resumed_result, _, _ = faulted_resumed_run
        clean_result, _ = clean_run
        degraded = format_run_health(resumed_result.health)
        assert "degraded" in degraded
        assert "retry" in degraded
        clean = format_run_health(clean_result.health)
        assert "clean (no events)" in clean


class TestFaultedResumeMatchesCleanRunKron(TestFaultedResumeMatchesCleanRun):
    """The same contract and events with KronQ's q/k Hessians."""

    @pytest.fixture(scope="class")
    def hessian_mode(self):
        return "kron"


class TestResumeGuards:
    def test_fingerprint_mismatch_rejected(self, trained_micro_model,
                                           calibration, tmp_path):
        checkpoint = tmp_path / "foreign.npz"
        save_checkpoint(
            checkpoint,
            {"model/embed.weight": np.zeros(1)},
            {"kind": "aptq-run", "fingerprint": "0" * 64, "next_block": 1,
             "allocation": {}, "layers": {}, "sensitivities": {},
             "events": []},
        )
        model = clone(trained_micro_model)
        with pytest.raises(CheckpointError, match="incompatible"):
            aptq_quantize_model(
                model, calibration,
                APTQConfig(checkpoint_path=checkpoint, resume=True,
                           **CONFIG_KWARGS),
            )

    def test_corrupt_checkpoint_restarts_fresh_with_warning_event(
        self, trained_micro_model, calibration, tmp_path
    ):
        checkpoint = tmp_path / "garbage.npz"
        checkpoint.write_bytes(b"this is not an npz archive")
        model = clone(trained_micro_model)
        result = aptq_quantize_model(
            model, calibration,
            APTQConfig(checkpoint_path=checkpoint, resume=True,
                       ratio_4bit=1.0, group_size=8, n_probes=2, seed=0),
        )
        warnings_ = result.health.by_category("warning")
        assert len(warnings_) == 1
        assert "corrupt checkpoint" in warnings_[0].message
        # The fresh run overwrote the garbage with a loadable checkpoint.
        assert result.health.by_category("resume") == ()
        assert len(result.layer_results) == 14

    def test_non_object_metadata_restarts_fresh_with_warning_event(
        self, trained_micro_model, calibration, tmp_path
    ):
        checkpoint = tmp_path / "foreign.npz"
        np.savez(
            checkpoint,
            __checkpoint_json__=np.frombuffer(b"[1, 2]", dtype=np.uint8),
        )
        model = clone(trained_micro_model)
        result = aptq_quantize_model(
            model, calibration,
            APTQConfig(checkpoint_path=checkpoint, resume=True,
                       ratio_4bit=1.0, group_size=8, n_probes=2, seed=0),
        )
        warnings_ = result.health.by_category("warning")
        assert len(warnings_) == 1
        assert "corrupt metadata" in warnings_[0].message
        assert result.health.by_category("resume") == ()
        assert len(result.layer_results) == 14

    def test_resumed_run_screens_calibration_batches(self, calibration,
                                                     tmp_path):
        # A resumed run skips the sensitivity pass, so the capture stream
        # is the first to embed the calibration batches; it must still
        # screen them.
        model = LlamaModel(
            LlamaConfig(vocab_size=256, d_model=16, n_layers=3, n_heads=2,
                        d_ff=24, max_seq_len=32),
            seed=0,
        )
        config = APTQConfig(checkpoint_path=tmp_path / "run.npz",
                            resume=True, **CONFIG_KWARGS)
        with FaultInjector().crash_at_block(2):
            with pytest.raises(InjectedFault, match="block 2"):
                aptq_quantize_model(model, calibration, config)
        with FaultInjector().poison_batch(0):
            with pytest.raises(CalibrationError, match="calibration batch 0"):
                aptq_quantize_model(model, calibration, config)

    def test_default_health_field(self):
        result = APTQResult(
            allocation={}, sensitivities={}, layer_results={}, average_bits=0.0
        )
        assert result.health.status == "clean"
