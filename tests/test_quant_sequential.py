"""GPTQ, OWQ and PB-LLM calibrate from one deferred capture stream.

The oracle is the former per-block loop: one full-model
``collect_input_stats`` forward per block group, each group quantized
before the next is measured.  :func:`sequential_input_stats` must give
every method the same weights and results bit for bit, with at most
``2·L − 1`` block forwards per calibration batch on a tied model and
``2·L`` on an untied one, whose ``lm_head`` input comes from the stream.
"""

import dataclasses

import numpy as np
import pytest

import repro.quant.gptq as gptq
import repro.quant.owq as owq
import repro.quant.pbllm as pbllm
from repro.data.calibration import CalibrationSet
from repro.nn.config import LlamaConfig
from repro.nn.transformer import LlamaModel, TransformerBlock
from repro.quant.calibration_hooks import (
    collect_input_stats,
    sequential_input_stats,
)
from repro.runtime.errors import CalibrationError
from repro.runtime.faults import FaultInjector

TIED = LlamaConfig(
    vocab_size=64, d_model=16, n_layers=3, n_heads=2, d_ff=24, max_seq_len=32
)
UNTIED = dataclasses.replace(TIED, tie_embeddings=False)
MODELS = {"tied": TIED, "untied": UNTIED}

#: 7 segments in batches of 3: the last batch is ragged.
N_SEGMENTS = 7
BATCH_SIZE = 3
N_BATCHES = 3


def per_block_input_stats(model, segments, batch_size=16):
    """The former loop: a full-model forward per block group, lm_head last."""
    groups: dict = {}
    for name in model.quantizable_linears():
        parts = name.split(".")
        block = int(parts[1]) if parts[0] == "blocks" else None
        groups.setdefault(block, []).append(name)
    order = sorted(key for key in groups if key is not None)
    if None in groups:
        order.append(None)
    for key in order:
        yield groups[key], collect_input_stats(
            model, segments, layer_names=groups[key], batch_size=batch_size
        )


def run_gptq(model, calibration, group_size):
    return gptq.gptq_quantize_model(
        model, calibration, bits=3, group_size=group_size,
        batch_size=BATCH_SIZE,
    )


def run_owq(model, calibration, group_size):
    return owq.owq_quantize_model(
        model, calibration, bits=3, group_size=group_size,
        outlier_fraction=0.1, batch_size=BATCH_SIZE,
    )


def run_pbllm(model, calibration, group_size):
    return pbllm.pbllm_quantize_model(
        model, calibration, salient_fraction=0.2, group_size=group_size,
        batch_size=BATCH_SIZE,
    )


METHODS = {
    "gptq": (gptq, run_gptq),
    "owq": (owq, run_owq),
    "pbllm": (pbllm, run_pbllm),
}


@pytest.fixture(scope="module")
def calibration():
    rng = np.random.default_rng(11)
    return CalibrationSet(
        segments=rng.integers(0, TIED.vocab_size, size=(N_SEGMENTS, 12)),
        corpus_name="synthetic",
        seed=11,
    )


def assert_identical(a, b, where="result"):
    """Field-by-field exact equality of (nested) result dataclasses."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b), where
        for field in dataclasses.fields(a):
            assert_identical(
                getattr(a, field.name),
                getattr(b, field.name),
                f"{where}.{field.name}",
            )
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype, where
        assert np.array_equal(a, b), where
    else:
        assert a == b, where


def assert_same_state(a: LlamaModel, b: LlamaModel) -> None:
    state_a, state_b = a.state_dict(), b.state_dict()
    assert list(state_a) == list(state_b)
    for name, array in state_a.items():
        assert np.array_equal(array, state_b[name]), name


class TestMatchesPerBlockOracle:
    @pytest.mark.parametrize("group_size", [8, None], ids=str)
    @pytest.mark.parametrize("kind", sorted(MODELS))
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_weights_and_results_bitwise(
        self, monkeypatch, calibration, method, kind, group_size
    ):
        module, run = METHODS[method]
        streamed = LlamaModel(MODELS[kind], seed=0)
        oracle = LlamaModel(MODELS[kind], seed=0)
        got = run(streamed, calibration, group_size)
        with monkeypatch.context() as patch:
            patch.setattr(module, "sequential_input_stats", per_block_input_stats)
            want = run(oracle, calibration, group_size)
        assert list(got) == list(want)
        assert list(got) == list(streamed.quantizable_linears())
        for name in want:
            assert_identical(got[name], want[name], name)
        assert_same_state(streamed, oracle)

    def test_groups_measured_on_the_model_as_left(self, calibration):
        # Between groups the caller rewrites the group it was handed; the
        # next group's statistics must see those weights, as the oracle's
        # fresh full-model forward does.
        streamed = LlamaModel(UNTIED, seed=0)
        oracle = LlamaModel(UNTIED, seed=0)
        pairs = zip(
            sequential_input_stats(streamed, calibration.segments, BATCH_SIZE),
            per_block_input_stats(oracle, calibration.segments, BATCH_SIZE),
        )
        for (group, stats), (want_group, want_stats) in pairs:
            assert group == want_group
            for name in group:
                for field in dataclasses.fields(stats[name]):
                    assert_identical(
                        getattr(stats[name], field.name),
                        getattr(want_stats[name], field.name),
                        f"{name}.{field.name}",
                    )
            for model in (streamed, oracle):
                for name in group:
                    linear = model.quantizable_linears()[name]
                    linear.weight.data = np.round(linear.weight.data, 1)


def count_forwards(monkeypatch) -> dict[str, int]:
    """Count block and full-model forwards from here on."""
    counts = {"block": 0, "model": 0}
    block_forward = TransformerBlock.forward_array
    model_forward = LlamaModel.forward_array

    def spy_block(self, *args, **kwargs):
        counts["block"] += 1
        return block_forward(self, *args, **kwargs)

    def spy_model(self, *args, **kwargs):
        counts["model"] += 1
        return model_forward(self, *args, **kwargs)

    monkeypatch.setattr(TransformerBlock, "forward_array", spy_block)
    monkeypatch.setattr(LlamaModel, "forward_array", spy_model)
    return counts


class TestForwardCount:
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_tied_model_runs_each_block_at_most_twice(
        self, monkeypatch, calibration, method
    ):
        counts = count_forwards(monkeypatch)
        METHODS[method][1](LlamaModel(TIED, seed=0), calibration, 8)
        # Block i is measured once and re-run once with its quantized
        # weights to feed block i+1; the last block is never re-run.
        n_blocks = TIED.n_layers
        assert counts["block"] <= (2 * n_blocks - 1) * N_BATCHES
        assert counts["model"] == 0

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_untied_head_is_measured_from_the_stream(
        self, monkeypatch, calibration, method
    ):
        counts = count_forwards(monkeypatch)
        METHODS[method][1](LlamaModel(UNTIED, seed=0), calibration, 8)
        # The head's input is the last block's output: one more block
        # forward per batch, and no full-model re-forward from the
        # embedding.
        assert counts["block"] == 2 * UNTIED.n_layers * N_BATCHES
        assert counts["model"] == 0


class TestPoisonedBatch:
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_raises_before_any_weight_changes(self, calibration, method):
        model = LlamaModel(UNTIED, seed=0)
        before = LlamaModel(UNTIED, seed=0)
        with FaultInjector().poison_batch(1, mode="nan"):
            with pytest.raises(CalibrationError, match="calibration batch 1"):
                METHODS[method][1](model, calibration, 8)
        assert_same_state(model, before)
