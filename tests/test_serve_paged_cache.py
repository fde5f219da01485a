"""Paged KV cache: bit-identity over ragged batches and pool edge cases.

The serving layer's correctness rests on one claim: decoding a ragged
batch over the block-pooled :class:`~repro.nn.attention.PagedKVCache`
produces, per sequence, exactly the tokens a serial
:meth:`~repro.nn.transformer.LlamaModel.generate_cached` run produces.
These tests pin that claim directly (including as a Hypothesis property
over random ragged workloads and block geometries) plus the allocator's
exhaustion/reclaim behaviour — reservation is all-or-nothing and
pre-compute, so :class:`~repro.runtime.errors.CacheExhausted` can never
leave a half-written step behind.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.attention import PagedKVCache
from repro.nn.config import LlamaConfig
from repro.nn.transformer import LlamaModel
from repro.runtime.errors import CacheExhausted
from repro.serve.engine import InProcessWorker

CONFIG = LlamaConfig(
    vocab_size=61,
    d_model=16,
    n_layers=2,
    n_heads=2,
    d_ff=24,
    max_seq_len=48,
)


@pytest.fixture(scope="module")
def model():
    return LlamaModel(CONFIG, seed=0)


def decode_ragged_batch(model, prompts, budgets, block_size, num_blocks):
    """Greedy continuous-batch decode of all prompts via the paged worker."""
    worker = InProcessWorker(
        model, block_size=block_size, num_blocks=num_blocks
    )
    live = []
    outputs = {}
    for index, (prompt, budget) in enumerate(zip(prompts, budgets)):
        seq_id = f"s{index}"
        logits = worker.prefill(seq_id, prompt)
        tokens = [int(np.argmax(logits))]
        if len(tokens) >= budget:
            worker.release(seq_id)
            outputs[seq_id] = np.concatenate(
                [prompt, np.asarray(tokens, dtype=np.int64)]
            )
        else:
            live.append([seq_id, prompt, tokens, budget])
    while live:
        entries = [
            (seq_id, tokens[-1], prompt.size + len(tokens) - 1)
            for seq_id, prompt, tokens, _ in live
        ]
        logits, _ = worker.decode(entries)
        for row, item in enumerate(list(live)):
            seq_id, prompt, tokens, budget = item
            tokens.append(int(np.argmax(logits[row])))
            if len(tokens) >= budget:
                live.remove(item)
                worker.release(seq_id)
                outputs[seq_id] = np.concatenate(
                    [prompt, np.asarray(tokens, dtype=np.int64)]
                )
    return outputs


class TestRaggedBitIdentity:
    def test_ragged_batch_matches_serial_generate_cached(self, model):
        rng = np.random.default_rng(1)
        prompts = [
            rng.integers(0, CONFIG.vocab_size, size=n)
            for n in (3, 7, 5, 11, 2)
        ]
        budgets = [6, 3, 8, 4, 7]
        outputs = decode_ragged_batch(
            model, prompts, budgets, block_size=4, num_blocks=64
        )
        for index, (prompt, budget) in enumerate(zip(prompts, budgets)):
            reference = model.generate_cached(
                prompt, budget, temperature=0.0
            )
            np.testing.assert_array_equal(outputs[f"s{index}"], reference)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        block_size=st.integers(1, 9),
        n_seqs=st.integers(1, 5),
    )
    def test_property_any_ragged_workload_is_bit_identical(
        self, seed, block_size, n_seqs
    ):
        model = LlamaModel(CONFIG, seed=0)
        rng = np.random.default_rng(seed)
        prompts = [
            rng.integers(0, CONFIG.vocab_size, size=int(rng.integers(1, 12)))
            for _ in range(n_seqs)
        ]
        budgets = [int(rng.integers(1, 8)) for _ in range(n_seqs)]
        outputs = decode_ragged_batch(
            model, prompts, budgets, block_size=block_size, num_blocks=128
        )
        for index, (prompt, budget) in enumerate(zip(prompts, budgets)):
            reference = model.generate_cached(prompt, budget, temperature=0.0)
            np.testing.assert_array_equal(outputs[f"s{index}"], reference)


class TestBlockPool:
    def _filled_cache(self, tokens=5):
        cache = PagedKVCache(n_layers=1, block_size=2, num_blocks=4)
        cache.allocate("a")
        k = np.arange(2 * tokens * 4, dtype=np.float64).reshape(
            1, 2, tokens, 4
        )
        cache.append(0, "a", k, k + 0.5)
        return cache, k

    def test_append_and_gather_roundtrip_exact(self):
        cache, k = self._filled_cache()
        keys, values = cache.gather(0, "a")
        np.testing.assert_array_equal(keys, k)
        np.testing.assert_array_equal(values, k + 0.5)

    def test_gathered_history_is_read_only(self):
        cache, _ = self._filled_cache()
        keys, values = cache.gather(0, "a")
        for array in (keys, values):
            with pytest.raises(ValueError):
                array[0, 0, 0, 0] = 99.0

    def test_read_before_first_write_is_a_clear_error(self):
        cache = PagedKVCache(1)
        cache.allocate("a")
        with pytest.raises(ValueError, match="nothing has been written"):
            cache.gather(0, "a")
        with pytest.raises(ValueError, match="nothing has been written"):
            cache.read(0, np.zeros((1, 0), dtype=np.intp))

    def test_empty_sequence_gathers_an_empty_history(self):
        cache, k = self._filled_cache()
        cache.allocate("b")
        keys, values = cache.gather(0, "b")
        assert keys.shape == values.shape == (1, k.shape[1], 0, k.shape[3])

    def test_exhaustion_is_typed_and_pre_write(self):
        cache = PagedKVCache(n_layers=1, block_size=2, num_blocks=2)
        cache.allocate("a")
        cache.allocate("b")
        cache.reserve("a", 4)  # both blocks
        before = cache.free_blocks
        with pytest.raises(CacheExhausted):
            cache.reserve("b", 1)
        assert cache.free_blocks == before
        assert cache.length("b") == 0  # nothing written

    def test_free_reclaims_blocks_for_reuse(self):
        cache = PagedKVCache(n_layers=1, block_size=2, num_blocks=2)
        cache.allocate("a")
        cache.reserve("a", 4)
        assert cache.free_blocks == 0
        assert cache.free("a") == 2
        assert cache.free_blocks == 2
        cache.allocate("b")
        cache.reserve("b", 4)  # reclaimed blocks are usable immediately
        assert cache.free_blocks == 0

    def test_can_reserve_predicts_reserve(self):
        cache = PagedKVCache(n_layers=1, block_size=2, num_blocks=3)
        cache.allocate("a")
        assert cache.can_reserve("a", 6)
        assert not cache.can_reserve("a", 7)
        cache.reserve("a", 6)
        # Already-held blocks do not count against a re-reservation.
        assert cache.can_reserve("a", 6)

    def test_double_allocate_rejected(self):
        cache = PagedKVCache(n_layers=1, block_size=2, num_blocks=2)
        cache.allocate("a")
        with pytest.raises(ValueError, match="already allocated"):
            cache.allocate("a")

    def test_worker_prefill_frees_partial_state_on_exhaustion(self, model):
        worker = InProcessWorker(model, block_size=2, num_blocks=2)
        rng = np.random.default_rng(0)
        with pytest.raises(CacheExhausted):
            worker.prefill("big", rng.integers(0, 61, size=12))
        # The failed sequence left nothing behind: a fitting one succeeds.
        worker.prefill("small", rng.integers(0, 61, size=4))
        assert worker.stats()["sequences"] == 1
