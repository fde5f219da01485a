"""CalibrationCaptureStream: bit-identity with the per-block protocol.

The stream replaces ``capture_attention``'s O(L²) per-(block, batch)
re-forwards with one cached forward per batch.  Its contract is *bitwise*
equality with the legacy protocol in both regimes: frozen (sensitivity
pass, immutable model) and deferred (sequential APTQ, where each block is
quantized between its capture and the next block's request).
"""

import dataclasses

import numpy as np
import pytest

from repro.core.hessian import (
    CalibrationCaptureStream,
    attention_hessians,
    attention_hessians_from_captures,
    capture_attention,
)
from repro.nn.config import LlamaConfig
from repro.nn.transformer import LlamaModel
from repro.quant.calibration_hooks import collect_input_stats
from repro.runtime import CalibrationError, FaultInjector

CONFIG = LlamaConfig(
    vocab_size=64,
    d_model=16,
    n_layers=3,
    n_heads=2,
    d_ff=24,
    max_seq_len=32,
)


def make_model(seed=0):
    return LlamaModel(CONFIG, seed=seed)


def make_segments(n_segments=6, seq_len=12, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, CONFIG.vocab_size, size=(n_segments, seq_len))


def batches_of(segments, batch_size):
    return [
        segments[start : start + batch_size]
        for start in range(0, segments.shape[0], batch_size)
    ]


def captures_equal(a, b):
    """Exact equality across every captured intermediate."""
    for field in dataclasses.fields(a):
        if not np.array_equal(
            getattr(a, field.name), getattr(b, field.name)
        ):
            return False
    return True


def round_block_weights(model, block_index, decimals=1, part=None):
    """A stand-in for quantization: visibly mutate one block's weights.

    ``part`` limits the mutation to the ``"attn"`` or ``"mlp"`` half.
    """
    block = model.blocks[block_index]
    halves = {"attn": block.self_attn.q_proj, "mlp": block.mlp.gate_proj}
    for name, layer in halves.items():
        if part in (None, name):
            layer.weight.data[:] = np.round(layer.weight.data, decimals)


def block_layers(model, block_index, mlp_only=False):
    prefix = f"blocks.{block_index}." + ("mlp." if mlp_only else "")
    return {
        name: linear
        for name, linear in model.quantizable_linears().items()
        if name.startswith(prefix)
    }


def assert_stats_equal(streamed, legacy):
    assert streamed.keys() == legacy.keys()
    for name in legacy:
        for field in dataclasses.fields(legacy[name]):
            assert np.array_equal(
                getattr(streamed[name], field.name),
                getattr(legacy[name], field.name),
            ), (name, field.name)


class TestFrozenStream:
    def test_matches_capture_attention_per_block(self):
        model = make_model()
        segments = make_segments()
        stream = CalibrationCaptureStream(
            model, segments, batch_size=2, frozen=True
        )
        for block_index in range(CONFIG.n_layers):
            streamed = stream.block_captures(block_index)
            legacy = [
                capture_attention(model, batch, block_index)
                for batch in batches_of(segments, 2)
            ]
            assert len(streamed) == len(legacy)
            for s, l in zip(streamed, legacy):
                assert captures_equal(s, l)

    def test_ragged_final_batch(self):
        model = make_model()
        segments = make_segments(n_segments=7)
        stream = CalibrationCaptureStream(
            model, segments, batch_size=3, frozen=True
        )
        assert stream.n_batches == 3
        streamed = stream.block_captures(1)
        legacy = [
            capture_attention(model, batch, 1)
            for batch in batches_of(segments, 3)
        ]
        assert [c.x.shape[0] for c in streamed] == [3, 3, 1]
        for s, l in zip(streamed, legacy):
            assert captures_equal(s, l)

    def test_hessians_from_stream_match_reference_entry_point(self):
        model = make_model()
        segments = make_segments()
        stream = CalibrationCaptureStream(
            model, segments, batch_size=2, frozen=True
        )
        for block_index in range(CONFIG.n_layers):
            streamed = attention_hessians_from_captures(
                model.blocks[block_index].self_attn,
                stream.block_captures(block_index),
                n_probes=3,
                seed=11 + block_index,
            )
            legacy = attention_hessians(
                model,
                block_index,
                segments,
                n_probes=3,
                batch_size=2,
                seed=11 + block_index,
            )
            for s, l in zip(streamed.q, legacy.q):
                assert np.array_equal(s, l)
            for s, l in zip(streamed.k, legacy.k):
                assert np.array_equal(s, l)
            for s, l in zip(streamed.v, legacy.v):
                assert np.array_equal(s, l)
            assert np.array_equal(streamed.o, legacy.o)


class TestDeferredStream:
    def test_matches_legacy_under_mid_run_quantization(self):
        # The sequential APTQ pattern: capture block i, mutate block i's
        # weights, then move to block i+1.  The deferred stream must
        # re-forward block i with the *mutated* weights, exactly as the
        # legacy embedding-restart protocol would.
        segments = make_segments(n_segments=7)
        legacy_model = make_model()
        stream_model = make_model()
        stream = CalibrationCaptureStream(stream_model, segments, batch_size=3)
        for block_index in range(CONFIG.n_layers):
            streamed = stream.block_captures(block_index)
            legacy = [
                capture_attention(legacy_model, batch, block_index)
                for batch in batches_of(segments, 3)
            ]
            for s, l in zip(streamed, legacy):
                assert captures_equal(s, l)
            round_block_weights(legacy_model, block_index)
            round_block_weights(stream_model, block_index)

    def test_skip_ahead_forwards_unrequested_blocks(self):
        model = make_model()
        segments = make_segments()
        stream = CalibrationCaptureStream(model, segments, batch_size=2)
        streamed = stream.block_captures(2)
        legacy = [
            capture_attention(model, batch, 2)
            for batch in batches_of(segments, 2)
        ]
        for s, l in zip(streamed, legacy):
            assert captures_equal(s, l)


class TestBlockInputStats:
    """Per-block statistics match a full-model collect_input_stats."""

    @pytest.mark.parametrize("frozen", [True, False])
    def test_matches_collect_input_stats(self, frozen):
        model = make_model()
        segments = make_segments(n_segments=7)
        stream = CalibrationCaptureStream(
            model, segments, batch_size=3, frozen=frozen
        )
        for block_index in range(CONFIG.n_layers):
            layers = block_layers(model, block_index)
            assert_stats_equal(
                stream.block_input_stats(block_index, layers),
                collect_input_stats(
                    model, segments, layer_names=list(layers), batch_size=3
                ),
            )

    @pytest.mark.parametrize("frozen", [True, False])
    def test_statistics_may_follow_captures(self, frozen):
        model = make_model()
        segments = make_segments(n_segments=7)
        stream = CalibrationCaptureStream(
            model, segments, batch_size=3, frozen=frozen
        )
        for block_index in range(CONFIG.n_layers):
            streamed = stream.block_captures(block_index)
            legacy = [
                capture_attention(model, batch, block_index)
                for batch in batches_of(segments, 3)
            ]
            for s, l in zip(streamed, legacy):
                assert captures_equal(s, l)
            layers = block_layers(model, block_index, mlp_only=True)
            assert_stats_equal(
                stream.block_input_stats(block_index, layers),
                collect_input_stats(
                    model, segments, layer_names=list(layers), batch_size=3
                ),
            )

    def test_matches_legacy_under_mid_block_quantization(self):
        # The APTQ block loop: capture block i, quantize its attention,
        # collect its MLP statistics, quantize the MLP, then block i+1.
        segments = make_segments(n_segments=7)
        legacy_model = make_model()
        stream_model = make_model()
        stream = CalibrationCaptureStream(stream_model, segments, batch_size=3)
        for block_index in range(CONFIG.n_layers):
            if block_index:
                stream.block_captures(block_index)
            for model in (legacy_model, stream_model):
                round_block_weights(model, block_index, part="attn")
            layers = block_layers(stream_model, block_index, mlp_only=True)
            assert_stats_equal(
                stream.block_input_stats(block_index, layers),
                collect_input_stats(
                    legacy_model,
                    segments,
                    layer_names=list(layers),
                    batch_size=3,
                ),
            )
            for model in (legacy_model, stream_model):
                round_block_weights(model, block_index, part="mlp")

    def test_request_rules(self):
        model = make_model()
        stream = CalibrationCaptureStream(model, make_segments())
        stream.block_input_stats(0, block_layers(model, 0))
        with pytest.raises(ValueError, match="forward-only"):
            stream.block_input_stats(0, block_layers(model, 0))
        with pytest.raises(ValueError, match="forward-only"):
            stream.block_captures(0)
        stream.block_captures(1)
        with pytest.raises(ValueError, match="forward-only"):
            stream.block_captures(1)
        stream.block_input_stats(1, block_layers(model, 1))
        with pytest.raises(ValueError, match="forward-only"):
            stream.block_input_stats(1, block_layers(model, 1))
        with pytest.raises(IndexError):
            stream.block_input_stats(CONFIG.n_layers, {})
        stream.block_input_stats(2, block_layers(model, 2))


class TestCalibrationScreening:
    @pytest.mark.parametrize("frozen", [True, False])
    def test_poisoned_batch_rejected_where_embedded(self, frozen):
        stream = CalibrationCaptureStream(
            make_model(), make_segments(), batch_size=2, frozen=frozen
        )
        with FaultInjector().poison_batch(1, mode="inf"):
            with pytest.raises(CalibrationError, match="calibration batch 1"):
                stream.block_captures(0)


class TestStreamContract:
    def test_requests_must_be_strictly_increasing(self):
        model = make_model()
        stream = CalibrationCaptureStream(model, make_segments())
        stream.block_captures(1)
        with pytest.raises(ValueError, match="forward-only"):
            stream.block_captures(1)
        with pytest.raises(ValueError, match="forward-only"):
            stream.block_captures(0)
        stream.block_captures(2)

    def test_block_index_out_of_range(self):
        stream = CalibrationCaptureStream(make_model(), make_segments())
        with pytest.raises(IndexError):
            stream.block_captures(CONFIG.n_layers)
        with pytest.raises(IndexError):
            stream.block_captures(-1)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="batch_size"):
            CalibrationCaptureStream(
                make_model(), make_segments(), batch_size=0
            )
        with pytest.raises(ValueError, match="segments"):
            CalibrationCaptureStream(
                make_model(), np.zeros((0, 8), dtype=int)
            )

    def test_n_batches(self):
        stream = CalibrationCaptureStream(
            make_model(), make_segments(n_segments=7), batch_size=3
        )
        assert stream.n_batches == 3
