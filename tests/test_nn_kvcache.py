"""KV-cache incremental decoding must match the full forward pass exactly."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.attention import PagedKVCache
from repro.nn.transformer import LlamaModel
from repro.runtime.errors import CacheExhausted


def one_sequence_cache(block_size=2, num_blocks=4):
    cache = PagedKVCache(n_layers=1, block_size=block_size,
                         num_blocks=num_blocks)
    cache.allocate("a")
    return cache


class TestKVCache:
    def test_append_grows(self, rng):
        cache = one_sequence_cache()
        assert cache.length("a") == 0
        k = rng.normal(size=(1, 2, 1, 4))
        v = rng.normal(size=(1, 2, 1, 4))
        keys, values = cache.append(0, "a", k, v)
        assert cache.length("a") == 1
        assert keys.shape == values.shape == (1, 2, 1, 4)
        cache.append(0, "a", k, v)
        assert cache.length("a") == 2

    def test_empty_cache_exposes_none(self):
        # A freshly allocated sequence holds no tokens and no blocks.
        cache = one_sequence_cache()
        assert cache.length("a") == 0
        assert cache.used_blocks == 0
        assert cache.seq_ids() == ("a",)

    def test_negative_capacity_rejected(self):
        for kwargs in (
            {"n_layers": 0},
            {"n_layers": 1, "block_size": 0},
            {"n_layers": 1, "num_blocks": 0},
            {"n_layers": 1, "num_blocks": -1},
        ):
            with pytest.raises(ValueError):
                PagedKVCache(**kwargs)

    def test_views_match_concatenation(self, rng):
        # Token-by-token appends across block boundaries must gather
        # element-for-element the arrays concatenation would produce.
        cache = one_sequence_cache()
        expected_k, expected_v = [], []
        for _ in range(5):
            k = rng.normal(size=(1, 3, 1, 4))
            v = rng.normal(size=(1, 3, 1, 4))
            expected_k.append(k)
            expected_v.append(v)
            keys, values = cache.append(0, "a", k, v)
        assert np.array_equal(keys, np.concatenate(expected_k, axis=2))
        assert np.array_equal(values, np.concatenate(expected_v, axis=2))

    def test_preallocated_never_reallocates(self, rng):
        # The pools are allocated once, at the first append; filling every
        # block writes into that buffer, and one token more is refused.
        cache = one_sequence_cache(block_size=2, num_blocks=3)
        k = rng.normal(size=(1, 2, 1, 4))
        cache.append(0, "a", k, k)
        buffer_id = id(cache._keys)
        for _ in range(5):
            cache.append(0, "a", k, k)
        assert cache.length("a") == 6
        assert cache.free_blocks == 0
        assert id(cache._keys) == buffer_id
        with pytest.raises(CacheExhausted):
            cache.append(0, "a", k, k)
        assert cache.length("a") == 6

    def test_exposed_views_are_read_only(self, rng):
        # The cache owns its pools: writing through the histories it hands
        # out would corrupt every later decode step, so they escape
        # read-only.
        cache = one_sequence_cache(block_size=4)
        k = rng.normal(size=(1, 2, 3, 4))
        keys, values = cache.append(0, "a", k, k)
        for view in (keys, values, *cache.gather(0, "a")):
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[...] = 0.0

    def test_append_still_writes_after_read_only_views(self, rng):
        # Handing out read-only histories must not freeze the pools the
        # cache itself appends into.
        cache = one_sequence_cache()
        k1 = rng.normal(size=(1, 1, 1, 2))
        k2 = rng.normal(size=(1, 1, 1, 2))
        cache.append(0, "a", k1, k1)
        cache.gather(0, "a")
        keys, _ = cache.append(0, "a", k2, k2)
        assert np.array_equal(keys, np.concatenate([k1, k2], axis=2))

    def test_multi_token_append(self, rng):
        cache = one_sequence_cache(block_size=3)
        chunk = rng.normal(size=(1, 2, 4, 3))
        single = rng.normal(size=(1, 2, 1, 3))
        cache.append(0, "a", chunk, chunk)
        assert cache.length("a") == 4
        keys, values = cache.append(0, "a", single, single)
        assert cache.length("a") == 5
        assert np.array_equal(
            keys, np.concatenate([chunk, single], axis=2)
        )


class TestDecodeStep:
    def test_matches_full_forward(self, trained_micro_model, rng):
        model = trained_micro_model
        ids = rng.integers(4, 256, size=12)
        full = model.forward_array(ids[None, :])[0]
        cache = model.new_cache()
        stepped = [
            model.forward_cached(np.array([[token]]), cache, [0])[0]
            for token in ids
        ]
        for position in range(ids.size):
            assert np.allclose(full[position], stepped[position], atol=1e-10)

    def test_batched_decoding(self, trained_micro_model, rng):
        model = trained_micro_model
        ids = rng.integers(4, 256, size=(3, 6))
        full = model.forward_array(ids)
        cache = model.new_cache(3)
        for position in range(6):
            logits = model.forward_cached(
                ids[:, position : position + 1], cache, [0, 1, 2]
            )
        assert np.allclose(full[:, -1, :], logits, atol=1e-10)

    def test_cache_overflow_rejected(self, trained_micro_model, rng):
        model = trained_micro_model
        cache = model.new_cache()
        for _ in range(model.config.max_seq_len):
            model.forward_cached(np.array([[5]]), cache, [0])
        with pytest.raises(ValueError):
            model.forward_cached(np.array([[5]]), cache, [0])


class TestPrefill:
    def test_matches_forward_array_on_fresh_cache(
        self, trained_micro_model, rng
    ):
        # On an empty cache the prefill is the same arithmetic as the full
        # forward pass: identical rope rows, mask values, and reductions.
        model = trained_micro_model
        ids = rng.integers(4, 256, size=(2, 9))
        full = model.forward_array(ids)[:, -1, :]
        cache = model.new_cache(2)
        prefilled = model.forward_cached(ids, cache, [0, 1])
        assert np.array_equal(full, prefilled)
        assert cache.length(0) == cache.length(1) == 9

    def test_matches_single_token_steps(self, trained_micro_model, rng):
        model = trained_micro_model
        ids = rng.integers(4, 256, size=8)
        step_cache = model.new_cache()
        for token in ids:
            stepped = model.forward_cached(np.array([[token]]), step_cache, [0])
        cache = model.new_cache()
        prefilled = model.forward_cached(ids[None, :], cache, [0])
        assert np.allclose(stepped, prefilled, atol=1e-10)
        for layer in range(len(model.blocks)):
            for a, b in zip(step_cache.gather(layer, 0), cache.gather(layer, 0)):
                assert np.allclose(a, b, atol=1e-12)

    def test_warm_cache_continuation(self, trained_micro_model, rng):
        # Prefill on a warm cache (positions offset by the prefix) must
        # agree with the full forward pass over the whole sequence.
        model = trained_micro_model
        ids = rng.integers(4, 256, size=(1, 10))
        cache = model.new_cache()
        model.forward_cached(ids[:, :4], cache, [0])
        logits = model.forward_cached(ids[:, 4:], cache, [0])
        full = model.forward_array(ids)[:, -1, :]
        assert np.allclose(full, logits, atol=1e-10)
        assert cache.length(0) == 10

    def test_fill_to_exact_max_seq_len(self, trained_micro_model, rng):
        # Exactly filling the window is legal; one more token is not.
        model = trained_micro_model
        max_len = model.config.max_seq_len
        ids = rng.integers(4, 256, size=(1, max_len))
        cache = model.new_cache()
        model.forward_cached(ids, cache, [0])
        assert cache.length(0) == max_len
        with pytest.raises(ValueError):
            model.forward_cached(np.array([[5]]), cache, [0])
        with pytest.raises(ValueError):
            model.forward_cached(np.array([[5, 6]]), cache, [0])
        assert cache.length(0) == max_len

    def test_empty_prompt_rejected(self, trained_micro_model):
        model = trained_micro_model
        with pytest.raises(ValueError):
            model.forward_cached(
                np.empty((1, 0), dtype=int), model.new_cache(), [0]
            )


def generate_rows(model, prompts, max_new_tokens, rngs=None):
    """Decode several prompts as one batch: a prefill per prompt, then one
    :meth:`forward_cached` per token over every row at once (rows sit at
    different lengths when the prompts differ).  Greedy without ``rngs``."""
    cache = model.new_cache(len(prompts))
    rows = list(range(len(prompts)))
    logits = np.concatenate([
        model.forward_cached(np.asarray(prompt)[None, :], cache, [row])
        for row, prompt in zip(rows, prompts)
    ])
    sequences = [list(prompt) for prompt in prompts]
    for step in range(max_new_tokens):
        if step:
            last = np.array([[sequence[-1]] for sequence in sequences])
            logits = model.forward_cached(last, cache, rows)
        for row in rows:
            if rngs is None:
                token = int(np.argmax(logits[row]))
            else:
                probs = F.softmax(logits[row])
                token = int(rngs[row].choice(probs.size, p=probs))
            sequences[row].append(token)
    return sequences


class TestGenerateBatch:
    """One cached forward per step over many sequences matches serial
    :meth:`generate_cached` row for row: every layer is row-independent."""

    def test_rows_match_generate_cached(self, trained_micro_model, rng):
        model = trained_micro_model
        prompts = [rng.integers(4, 256, size=n) for n in (5, 3, 8)]
        batched = generate_rows(model, prompts, 8)
        for prompt, row in zip(prompts, batched):
            single = model.generate_cached(prompt, 8, temperature=0.0)
            assert np.array_equal(row, single)

    def test_sampling_rows_match_with_same_rngs(
        self, trained_micro_model, rng
    ):
        model = trained_micro_model
        prompts = [rng.integers(4, 256, size=n) for n in (4, 6)]
        batched = generate_rows(
            model,
            prompts,
            6,
            rngs=[np.random.default_rng(3), np.random.default_rng(4)],
        )
        for prompt, row, seed in zip(prompts, batched, [3, 4]):
            single = model.generate_cached(
                prompt, 6, temperature=1.0, rng=np.random.default_rng(seed)
            )
            assert np.array_equal(row, single)

    def test_single_token_prompt(self, trained_micro_model):
        model = trained_micro_model
        out = generate_rows(model, [np.array([7]), np.array([9])], 4)
        assert [len(row) for row in out] == [5, 5]
        assert out[0][0] == 7 and out[1][0] == 9

    def test_validation(self, trained_micro_model):
        model = trained_micro_model
        max_len = model.config.max_seq_len
        cache = model.new_cache(2)
        with pytest.raises(ValueError, match="one sequence per row"):
            model.forward_cached(np.array([[1], [2]]), cache, [0])
        with pytest.raises(ValueError):
            model.forward_cached(np.empty((2, 0), dtype=int), cache, [0, 1])
        model.forward_cached(np.full((1, max_len), 5), cache, [1])
        # The longest row bounds the step: row 1 is full, row 0 is not.
        with pytest.raises(ValueError, match="max_seq_len"):
            model.forward_cached(np.array([[1], [2]]), cache, [0, 1])
        assert cache.length(0) == 0


class TestGenerateCached:
    def test_greedy_matches_uncached(self, trained_micro_model, rng):
        prompt = rng.integers(4, 256, size=6)
        a = trained_micro_model.generate(prompt, 10, temperature=0.0)
        b = trained_micro_model.generate_cached(prompt, 10, temperature=0.0)
        assert np.array_equal(a, b)

    def test_sampling_matches_uncached_with_same_rng(
        self, trained_micro_model, rng
    ):
        prompt = rng.integers(4, 256, size=4)
        a = trained_micro_model.generate(
            prompt, 8, temperature=0.9, rng=np.random.default_rng(5)
        )
        b = trained_micro_model.generate_cached(
            prompt, 8, temperature=0.9, rng=np.random.default_rng(5)
        )
        assert np.array_equal(a, b)

    def test_one_forward_per_token_no_wasted_step(
        self, trained_micro_model, rng, monkeypatch
    ):
        # One prefill, then one single-token forward per sampled token
        # except the last: logits after the final token are never needed.
        calls = []
        forward_cached = LlamaModel.forward_cached

        def counting(self, ids, cache, seq_ids):
            calls.append(np.asarray(ids).shape[1])
            return forward_cached(self, ids, cache, seq_ids)

        monkeypatch.setattr(LlamaModel, "forward_cached", counting)
        prompt = rng.integers(4, 256, size=5)
        out = trained_micro_model.generate_cached(prompt, 6, temperature=0.0)
        assert out.size == 11
        assert calls == [5] + [1] * 5
        calls.clear()
        trained_micro_model.generate_cached(prompt, 0)
        assert calls == []

    def test_context_overflow_rejected(self, trained_micro_model, rng):
        max_len = trained_micro_model.config.max_seq_len
        prompt = rng.integers(4, 256, size=max_len)
        with pytest.raises(ValueError):
            trained_micro_model.generate_cached(prompt, 1)

    def test_validation(self, trained_micro_model):
        with pytest.raises(ValueError):
            trained_micro_model.generate_cached(np.array([1]), -1)
        with pytest.raises(ValueError):
            trained_micro_model.generate_cached(np.array([], dtype=int), 2)
