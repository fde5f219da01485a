"""The pipeline's working set: nothing held that nothing reads.

APTQ's calibration working set (probe stacks, attention captures, input
statistics), not the model, bounds how large a run fits in memory.  Each
test measures one stage with ``tracemalloc`` (numpy reports its buffers
to it) and pins that the stage's traced peak, or what it leaves behind,
stays flat in the dimension that must not matter: the number of probes,
heads or blocks, or the artifact that was materialised.  Every
measurement is taken after a warm-up call, on fixed shapes and seeds.
"""

from __future__ import annotations

import contextlib
import gc
import tracemalloc

import numpy as np
import pytest

import repro.quant.calibration_hooks as calibration_hooks
from repro.core import attention_grads
from repro.core.attention_grads import (
    attention_preactivation_gradients_batched,
)
from repro.core.hessian import (
    AttentionHessianAccumulator,
    add_closed_forms,
    capture_attention,
)
from repro.core.kron import KronHessianAccumulator
from repro.nn.attention import MultiHeadAttention
from repro.nn.config import LlamaConfig
from repro.nn.transformer import LlamaModel
from repro.quant.calibration_hooks import collect_input_stats
from repro.quant.deploy import PackedModel, pack_model


@contextlib.contextmanager
def traced():
    """Trace allocations inside the block; yields a live reading."""
    tracemalloc.start()
    try:
        yield tracemalloc.get_traced_memory
    finally:
        tracemalloc.stop()


def traced_peak(call) -> int:
    """Bytes ``call()`` allocates at its peak above what was live before."""
    with traced() as reading:
        base, _ = reading()
        call()
        return reading()[1] - base


def model_config(n_layers: int, n_heads: int = 4) -> LlamaConfig:
    return LlamaConfig(
        vocab_size=64,
        d_model=32,
        n_layers=n_layers,
        n_heads=n_heads,
        d_ff=64,
        max_seq_len=64,
    )


@pytest.fixture(scope="module")
def block_capture():
    """Block 0 of a 4-head model on 4 sequences of 48 tokens."""
    model = LlamaModel(model_config(1), seed=0)
    ids = np.random.default_rng(1).integers(0, 64, size=(4, 48))
    return model.blocks[0].self_attn, capture_attention(model, ids, 0)


ACCUMULATORS = {
    "probed": lambda attn, n: AttentionHessianAccumulator(
        attn, n_probes=n, seed=3
    ),
    "kron": lambda attn, n: KronHessianAccumulator(attn, n_probes=n, seed=3),
}


@pytest.mark.parametrize("engine", sorted(ACCUMULATORS))
def test_accumulator_add_peak_does_not_grow_with_probes(
    block_capture, monkeypatch, engine
):
    # One probe per chunk: each chunk draws its own probes as it runs, so
    # sixteen probes need no more memory than two.  Drawing the whole
    # (n_probes, b, s, D) stack up front adds 14 probes' worth (672 KiB).
    monkeypatch.setattr(attention_grads, "PROBE_CHUNK_BYTES", 1)
    attn, capture = block_capture
    make = ACCUMULATORS[engine]
    make(attn, 2).add(capture)  # warm-up
    peaks = {}
    for n_probes in (2, 16):
        accumulator = make(attn, n_probes)
        peaks[n_probes] = traced_peak(lambda: accumulator.add(capture))
    probe_bytes = capture.x.nbytes
    assert peaks[16] - peaks[2] < probe_bytes // 2, peaks


def test_capture_holds_only_what_the_estimators_read(block_capture):
    # x, q, k, v, P and the head outputs; not the pre-softmax scores N_h
    # (as large as P) nor the block output (the forward returns it).
    attn, capture = block_capture
    x = capture.x
    attn.forward_array(x, capture=True)  # warm-up
    with traced() as reading:
        base, _ = reading()
        out, kept = attn.forward_array(x, capture=True)
        retained = reading()[0] - base
    read = sum(
        a.nbytes for a in (kept.q, kept.k, kept.v, kept.probs, kept.heads)
    )
    assert retained - out.nbytes - read < kept.probs.nbytes // 4, retained


def test_closed_forms_peak_does_not_grow_with_heads():
    # A_h = P_h X is formed one head at a time: one (b, s, D) input alive,
    # not the (h, b, s, D) stack of every head.
    ids = np.random.default_rng(2).integers(0, 64, size=(4, 48))
    peaks = {}
    for n_heads in (2, 8):
        model = LlamaModel(model_config(1, n_heads=n_heads), seed=0)
        capture = capture_attention(model, ids, 0)
        d_model = capture.x.shape[-1]
        gains = np.ones(n_heads)

        def add():
            h_v = [np.zeros((d_model, d_model)) for _ in range(n_heads)]
            h_o = np.zeros((d_model, d_model))
            add_closed_forms(capture, gains, h_v, h_o)

        add()  # warm-up
        peaks[n_heads] = traced_peak(add) - n_heads * d_model * d_model * 8
    assert peaks[8] - peaks[2] < capture.x.nbytes // 2, peaks


def test_softmax_adjoint_runs_in_the_upstream_buffer():
    # With seeds of one probe, the only score-sized buffers are the fresh
    # upstream dP (overwritten by the adjoint) and the transient U ⊙ P of
    # its row sums: two, where a separate difference and product made three.
    attn = MultiHeadAttention(32, 4, 64, rng=np.random.default_rng(4))
    x = np.random.default_rng(5).normal(size=(4, 64, 32))
    _, capture = attn.forward_array(x, capture=True)
    seeds = np.random.default_rng(6).choice([-1.0, 1.0], size=(1, 4, 64, 32))
    attention_preactivation_gradients_batched(attn, capture, seeds)
    peak = traced_peak(
        lambda: attention_preactivation_gradients_batched(attn, capture, seeds)
    )
    score_bytes = capture.probs.nbytes
    assert peak < 2 * score_bytes + score_bytes // 2, peak


class _UnboundedGramCache(calibration_hooks.SharedGramCache):
    """The former cache: every keyed activation pinned until reset."""

    instances: list = []

    def __init__(self) -> None:
        super().__init__()
        self.entries: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.instances.append(self)

    def gram(self, source, flat):
        entry = self.entries.get(id(source))
        if entry is not None and entry[0] is source:
            self.hits += 1
            return entry[1]
        self.misses += 1
        value = flat.T @ flat
        value.setflags(write=False)
        self.entries[id(source)] = (source, value)
        return value

    def reset(self) -> None:
        self.entries.clear()


class _CountedGramCache(calibration_hooks.SharedGramCache):
    instances: list = []

    def __init__(self) -> None:
        super().__init__()
        self.instances.append(self)


def test_collect_input_stats_peak_does_not_grow_with_depth(monkeypatch):
    # The Gram cache keeps the latest activation only, so a full-model
    # calibration forward holds one block's activations at a time; pinning
    # every keyed one adds about 1.3 MiB per block here.
    segments = np.random.default_rng(7).integers(0, 64, size=(16, 64))
    transient = {}
    for n_layers in (2, 4):
        model = LlamaModel(model_config(n_layers), seed=0)
        counts = {}
        stats = {}
        for cache in (_UnboundedGramCache, _CountedGramCache):
            monkeypatch.setattr(calibration_hooks, "SharedGramCache", cache)
            collect_input_stats(model, segments)  # warm-up
            cache.instances.clear()
            with traced() as reading:
                stats[cache] = collect_input_stats(model, segments)
                after, peak = reading()
            (instance,) = cache.instances
            counts[cache] = (instance.hits, instance.misses)
        # Hits, misses and statistics are the unbounded cache's.
        assert counts[_CountedGramCache] == counts[_UnboundedGramCache]
        for name, record in stats[_CountedGramCache].items():
            assert np.array_equal(
                record.hessian, stats[_UnboundedGramCache][name].hessian
            )
        # What stays after the call is the statistics (which grow with
        # depth); the rest of the peak is the forward's working set.
        transient[n_layers] = peak - after
    activation_bytes = 16 * 64 * 32 * 8
    assert transient[4] - transient[2] < activation_bytes // 2, transient


def test_loaded_artifact_keeps_no_dense_copy(tmp_path):
    # to_model() dequantizes every layer once; the loaded artifact must not
    # keep a float64 copy of all its weights behind (the memo is filled by
    # forward_array only).
    model = LlamaModel(model_config(2), seed=0)
    path = pack_model(model, 4, group_size=8).save(tmp_path / "artifact.npz")
    PackedModel.load(path).to_model()  # warm-up
    loaded = PackedModel.load(path)
    dense_bytes = sum(
        8 * np.prod(layer.shape) for layer in loaded.layers.values()
    )
    with traced() as reading:
        base, _ = reading()
        loaded.to_model()
        gc.collect()
        retained = reading()[0] - base
    assert retained < dense_bytes // 8, (retained, dense_bytes)
    state = loaded.to_model().state_dict()
    for name, layer in loaded.layers.items():
        fresh = layer.dequantize()
        assert np.array_equal(fresh, layer._dense_weight())
        assert np.array_equal(state[f"{name}.weight"], fresh)
