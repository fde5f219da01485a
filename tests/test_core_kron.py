"""KronQ: the Kronecker-factored q/k Hessian engine and its solver plumbing.

``hessian_mode="kron"`` collapses every head's q/k Hessian onto one shared
input Gram scaled by a per-head gain, so the solver factorizes once per
block and rescales the inverse Cholesky factor per head.  These tests pin
the factor algebra, the scaled-factorization identity the solver relies
on, the factor-cache reuse pattern, and the end-to-end pipeline quality of
the approximation tier.
"""

import numpy as np
import pytest

from repro.core.aptq import APTQConfig, aptq_quantize_model
from repro.core.hessian import (
    CalibrationCaptureStream,
    attention_hessians_from_captures,
)
from repro.core.kron import (
    HESSIAN_MODES,
    KronFactor,
    KronHessianAccumulator,
    kron_attention_hessians_from_captures,
)
from repro.core.sensitivity import compute_sensitivities
from repro.eval import perplexity
from repro.nn.attention import MultiHeadAttention
from repro.quant.solver import (
    HessianFactorCache,
    factorize_hessian,
    quantize_with_hessian,
)
from tests.conftest import clone


def hessian_arrays(hessians) -> list[np.ndarray]:
    """Every array of one block's attention Hessians, probed or kron."""
    arrays = []
    for family in (hessians.q, hessians.k, hessians.v, hessians.o):
        if isinstance(family, KronFactor):
            arrays += [family.input_gram, family.gains, family.output_factors]
        else:
            arrays.append(np.asarray(family))
    return arrays


@pytest.fixture(scope="module")
def kron_setup():
    rng = np.random.default_rng(13)
    attn = MultiHeadAttention(8, 2, 8, rng=rng)
    captures = []
    for batch, seq in ((2, 4), (1, 6)):
        x = rng.normal(size=(batch, seq, 8))
        _, capture = attn.forward_array(x, capture=True)
        captures.append(capture)
    hessians = kron_attention_hessians_from_captures(
        attn, captures, n_probes=4, seed=5
    )
    probed = attention_hessians_from_captures(
        attn, captures, n_probes=4, seed=5
    )
    return attn, captures, hessians, probed


class TestKronFactor:
    def test_dense_is_gain_times_shared_gram(self, kron_setup):
        _, _, hessians, _ = kron_setup
        for factor in (hessians.q, hessians.k):
            assert isinstance(factor, KronFactor)
            for head in range(factor.n_heads):
                assert np.array_equal(
                    factor.dense(head),
                    factor.gains[head] * factor.input_gram,
                )
            # One shared array object: the solver's content-keyed factor
            # cache sees a single Hessian for the whole head family.
            assert hessians.q.input_gram is hessians.k.input_gram

    def test_input_gram_symmetric_psd(self, kron_setup):
        _, _, hessians, _ = kron_setup
        gram = hessians.q.input_gram
        assert np.allclose(gram, gram.T)
        assert np.all(np.linalg.eigvalsh(gram) > -1e-10)
        assert np.all(hessians.q.gains > 0)
        assert np.all(hessians.k.gains > 0)

    def test_full_matrix_and_mean_trace(self, kron_setup):
        _, _, hessians, _ = kron_setup
        for projection in ("q_proj", "k_proj"):
            full = hessians.full_matrix(projection)
            assert hessians.mean_trace(projection) == pytest.approx(
                float(np.trace(full) / full.shape[0])
            )
        for projection in ("v_proj", "o_proj"):
            full = hessians.full_matrix(projection)
            assert hessians.mean_trace(projection) == pytest.approx(
                float(np.trace(full) / full.shape[0])
            )

    def test_v_and_o_keep_exact_closed_forms(self, kron_setup):
        _, _, hessians, probed = kron_setup
        for a, b in zip(hessians.v, probed.v):
            assert np.array_equal(a, b)
        assert np.array_equal(hessians.o, probed.o)

    def test_zero_signal_head_gains_clamped_positive(self):
        rng = np.random.default_rng(0)
        attn = MultiHeadAttention(8, 2, 8, rng=rng)
        accumulator = KronHessianAccumulator(attn, n_probes=2)
        x = rng.normal(size=(1, 4, 8))
        _, capture = attn.forward_array(x, capture=True)
        accumulator.add(capture)
        accumulator.b_q[:] = 0.0
        hessians = accumulator.finalize()
        assert np.all(hessians.q.gains > 0.0)
        assert np.all(hessians.q.gains <= np.finfo(np.float64).tiny)


class TestScaledFactorization:
    @pytest.fixture(scope="class")
    def hessian(self):
        rng = np.random.default_rng(21)
        basis = rng.standard_normal((16, 16))
        return basis @ basis.T / 16 + 0.05 * np.eye(16)

    @pytest.mark.parametrize("scale", [0.25, 1.0, 3.5])
    def test_scale_kwarg_matches_materialised_scaling(self, hessian, scale):
        direct = factorize_hessian(hessian * scale, percdamp=0.01)
        scaled = factorize_hessian(hessian, percdamp=0.01, scale=scale)
        assert np.allclose(scaled.inv_upper, direct.inv_upper)
        assert np.array_equal(scaled.dead, direct.dead)

    def test_rejects_nonpositive_scale(self, hessian):
        with pytest.raises(ValueError, match="scale"):
            factorize_hessian(hessian, scale=0.0)
        with pytest.raises(ValueError, match="scale"):
            factorize_hessian(hessian, scale=-1.0)

    def test_cache_factorizes_base_once_per_head_family(self, hessian):
        cache = HessianFactorCache()
        gains = [0.5, 1.7, 2.2]
        for gain in gains:
            cache.scaled_factor(hessian, gain, percdamp=0.01)
        # One O(D^3) base factorization; every head is an O(D^2) rescale.
        assert cache.misses == 1
        # A repeated scale is a pure hit.
        before = cache.hits
        cache.scaled_factor(hessian, gains[0], percdamp=0.01)
        assert cache.hits == before + 1

    def test_scaled_factor_unit_scale_delegates(self, hessian):
        cache = HessianFactorCache()
        base = cache.factor(hessian, percdamp=0.01)
        assert (
            cache.scaled_factor(hessian, 1.0, percdamp=0.01) is base
        )

    @pytest.mark.parametrize("scale", [0.3, 4.0])
    def test_quantize_with_hessian_scale_equivalent(self, hessian, scale):
        rng = np.random.default_rng(3)
        weight = rng.standard_normal((16, 8))
        via_scale = quantize_with_hessian(
            weight, hessian, bits=4, group_size=8, hessian_scale=scale
        )
        materialised = quantize_with_hessian(
            weight, hessian * scale, bits=4, group_size=8
        )
        # The GPTQ sweep is mathematically scale-invariant (err · row =
        # (· sqrt(s)) (/ sqrt(s))); quantization decisions must agree.
        assert np.array_equal(
            via_scale.group_result.codes, materialised.group_result.codes
        )
        assert np.allclose(
            via_scale.quantized_weight, materialised.quantized_weight
        )

    def test_quantize_with_cache_matches_no_cache(self, hessian):
        rng = np.random.default_rng(6)
        weight = rng.standard_normal((16, 8))
        cache = HessianFactorCache()
        cached = quantize_with_hessian(
            weight,
            hessian,
            bits=4,
            group_size=8,
            cache=cache,
            hessian_scale=2.5,
        )
        uncached = quantize_with_hessian(
            weight, hessian, bits=4, group_size=8, hessian_scale=2.5
        )
        assert np.array_equal(
            cached.quantized_weight, uncached.quantized_weight
        )


class TestKronPipeline:
    def test_hessian_modes_registry(self):
        assert HESSIAN_MODES == ("probed", "kron")

    def test_rejects_unknown_mode(self, trained_micro_model, calibration):
        model = clone(trained_micro_model)
        with pytest.raises(ValueError, match="hessian_mode"):
            aptq_quantize_model(
                model, calibration, APTQConfig(hessian_mode="exact")
            )
        with pytest.raises(ValueError, match="hessian_mode"):
            compute_sensitivities(model, calibration, hessian_mode="exact")

    def test_kron_end_to_end(self, trained_micro_model, calibration):
        model = clone(trained_micro_model)
        result = aptq_quantize_model(
            model,
            calibration,
            APTQConfig(
                ratio_4bit=0.75, group_size=8, n_probes=2,
                hessian_mode="kron",
            ),
        )
        assert set(result.layer_results) == set(model.quantizable_linears())
        logits = model.forward_array(calibration.segments[:2])
        assert np.all(np.isfinite(logits))

    def test_kron_perplexity_close_to_probed(
        self, trained_micro_model, calibration, corpus_splits
    ):
        stream = corpus_splits.validation[:2000]
        runs = {}
        for mode in HESSIAN_MODES:
            model = clone(trained_micro_model)
            aptq_quantize_model(
                model,
                calibration,
                APTQConfig(
                    ratio_4bit=0.75, group_size=8, n_probes=2,
                    hessian_mode=mode,
                ),
            )
            runs[mode] = perplexity(model, stream, seq_len=32)
        # The approximation tier's bench-declared end-to-end bound is 5%;
        # 10% here keeps the tier-1 check robust to fixture drift.
        delta = abs(runs["kron"] - runs["probed"]) / runs["probed"]
        assert delta < 0.10

    def test_kron_sensitivities_parallel_bit_identical(
        self, trained_micro_model, calibration, forced_fork
    ):
        # Covers both engines: the forked pass is the pipeline's only fork.
        for mode in HESSIAN_MODES:
            runs = []
            for workers in (0, 2):
                cache = {}
                traces = compute_sensitivities(
                    trained_micro_model, calibration, n_probes=2,
                    attention_cache=cache, hessian_mode=mode,
                    workers=workers,
                )
                runs.append((traces, cache))
            (serial, serial_cache), (parallel, parallel_cache) = runs
            assert set(serial) == set(parallel)
            for name in serial:
                assert np.array_equal(
                    serial[name].mean_trace, parallel[name].mean_trace
                ), (mode, name)
            assert set(serial_cache) == set(parallel_cache)
            for block in serial_cache:
                expected = hessian_arrays(serial_cache[block])
                actual = hessian_arrays(parallel_cache[block])
                assert len(expected) == len(actual)
                for a, b in zip(expected, actual):
                    assert np.array_equal(a, b), (mode, block)
        assert forced_fork == ["fork"] * len(HESSIAN_MODES)

    def test_kron_reconstruction_tracks_probed_shape(self, kron_setup):
        # Not bit-identical — but the Kronecker sketch must point the
        # same way as the probed estimate (positive relative alignment).
        _, _, hessians, probed = kron_setup
        for projection, factor in (("q", hessians.q), ("k", hessians.k)):
            exact_heads = getattr(probed, projection)
            for head, exact in enumerate(exact_heads):
                approx = factor.dense(head)
                alignment = float(
                    np.sum(approx * exact)
                    / (np.linalg.norm(approx) * np.linalg.norm(exact))
                )
                assert alignment > 0.3


class TestStreamKronInterop:
    def test_kron_from_frozen_stream_matches_direct_captures(self):
        from repro.nn.config import LlamaConfig
        from repro.nn.transformer import LlamaModel

        config = LlamaConfig(
            vocab_size=64, d_model=16, n_layers=2, n_heads=2,
            d_ff=24, max_seq_len=32,
        )
        model = LlamaModel(config, seed=0)
        rng = np.random.default_rng(1)
        segments = rng.integers(0, 64, size=(5, 10))
        stream = CalibrationCaptureStream(
            model, segments, batch_size=2, frozen=True
        )
        for block_index in range(config.n_layers):
            captures = stream.block_captures(block_index)
            direct = kron_attention_hessians_from_captures(
                model.blocks[block_index].self_attn, captures,
                n_probes=3, seed=block_index,
            )
            again = kron_attention_hessians_from_captures(
                model.blocks[block_index].self_attn, captures,
                n_probes=3, seed=block_index,
            )
            assert np.array_equal(direct.q.input_gram, again.q.input_gram)
            assert np.array_equal(direct.q.gains, again.q.gains)
            assert np.array_equal(direct.k.gains, again.k.gains)
