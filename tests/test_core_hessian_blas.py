"""The Hessian accumulators' hot path runs on BLAS matmuls, never einsum.

``np.einsum`` evaluates these contractions in numpy's own loops without
BLAS, which made it most of the calibration time.  Both accumulators must
keep every contraction on ``np.matmul``; patching ``np.einsum`` to raise
catches any that come back.
"""

import numpy as np
import pytest

from repro.core import attention_grads, kron
from repro.core.hessian import (
    PROBE_MODES,
    AttentionHessianAccumulator,
    capture_attention,
)
from repro.core.kron import KronHessianAccumulator
from repro.models.configs import model_config
from repro.nn.transformer import LlamaModel


@pytest.fixture(scope="module")
def llama_test_capture():
    model = LlamaModel(model_config("llama-test"), seed=0)
    ids = np.random.default_rng(0).integers(
        0, model.config.vocab_size, size=(2, 16)
    )
    return model.blocks[0].self_attn, capture_attention(model, ids, 0)


@pytest.fixture
def no_einsum(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("np.einsum called in the Hessian hot path")

    monkeypatch.setattr(np, "einsum", forbidden)


@pytest.mark.parametrize("probe_mode", PROBE_MODES)
def test_probed_accumulator_avoids_einsum(
    llama_test_capture, no_einsum, probe_mode
):
    attn, capture = llama_test_capture
    accumulator = AttentionHessianAccumulator(
        attn, n_probes=2, probe_mode=probe_mode
    )
    accumulator.add(capture)
    assert np.all(np.isfinite(accumulator.finalize().o))


def test_kron_accumulator_avoids_einsum(llama_test_capture, no_einsum):
    attn, capture = llama_test_capture
    accumulator = KronHessianAccumulator(attn, n_probes=2)
    accumulator.add(capture)
    assert np.all(np.isfinite(accumulator.finalize().q.gains))


@pytest.mark.parametrize("chunk_bytes", [1, 2 << 20])
def test_probe_chunking_keeps_batched_equal_to_reference(
    llama_test_capture, monkeypatch, chunk_bytes
):
    # One probe per chunk (the regime of large captures) and one chunk
    # for all probes must both reproduce the per-probe loop bit for bit.
    monkeypatch.setattr(attention_grads, "PROBE_CHUNK_BYTES", chunk_bytes)
    attn, capture = llama_test_capture
    results = {}
    for mode in PROBE_MODES:
        accumulator = AttentionHessianAccumulator(
            attn, n_probes=3, seed=4, probe_mode=mode
        )
        accumulator.add(capture)
        results[mode] = accumulator.finalize()
    for projection in ("q", "k"):
        for a, b in zip(
            getattr(results["batched"], projection),
            getattr(results["reference"], projection),
        ):
            assert np.array_equal(a, b)

    # KronQ has no per-probe loop, and its output-side factor sums a whole
    # chunk's rows in one GEMM, so its factors move with the chunking in
    # the last bits.  What the chunking must not move are the per-probe
    # pre-activation gradients, and so the probes drawn chunk by chunk:
    # compare them against one chunk holding every probe.
    original = kron.attention_preactivation_gradients_batched
    gradients = []
    for budget in (chunk_bytes, 1 << 40):
        calls = []

        def spy(*args, calls=calls):
            calls.append(original(*args))
            return calls[-1]

        monkeypatch.setattr(attention_grads, "PROBE_CHUNK_BYTES", budget)
        monkeypatch.setattr(
            kron, "attention_preactivation_gradients_batched", spy
        )
        KronHessianAccumulator(attn, n_probes=3, seed=4).add(capture)
        gradients.append([np.concatenate(pair) for pair in zip(*calls)])
    (chunked_q, chunked_k), (whole_q, whole_k) = gradients
    assert chunked_q.shape[0] == 3
    assert np.array_equal(chunked_q, whole_q)
    assert np.array_equal(chunked_k, whole_k)
