"""KV-cache incremental decoding must match the full forward pass exactly."""

import numpy as np
import pytest

from repro.models.configs import model_config
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


# ---------------------------------------------------------------------------
# The batched decode step against the per-row loop it replaced
# ---------------------------------------------------------------------------


def per_row_attention(attn, x, cache, layer, seq_ids):
    """The former cached attention: one ``append``, one gather, one softmax
    and two matmuls per row, each row over exactly its own history."""
    batch, seq, _ = x.shape
    starts = np.asarray([cache.length(s, layer) for s in seq_ids])
    positions = starts[:, None] + np.arange(seq)
    cos = attn.rope.cos[positions][:, None]
    sin = attn.rope.sin[positions][:, None]

    def split(a):
        return a.reshape(batch, seq, attn.n_heads, attn.d_head).transpose(
            0, 2, 1, 3
        )

    q = F.apply_rope(split(attn.q_proj.forward_array(x)), cos, sin)
    k = F.apply_rope(split(attn.k_proj.forward_array(x)), cos, sin)
    v = split(attn.v_proj.forward_array(x))
    rows = []
    for row, seq_id in enumerate(seq_ids):
        keys, values = cache.append(
            layer, seq_id, k[row : row + 1], v[row : row + 1]
        )
        scores = q[row : row + 1] @ np.swapaxes(keys, -1, -2)
        scores /= np.sqrt(attn.d_head)
        if seq > 1:
            start = int(starts[row])
            scores += attn.causal_mask[start : start + seq, : keys.shape[2]]
        context = F.softmax(scores, axis=-1) @ values
        rows.append(
            context.transpose(0, 2, 1, 3).reshape(1, seq, attn.d_model)
        )
    return attn.o_proj.forward_array(np.concatenate(rows))


def per_row_forward_cached(model, ids, cache, seq_ids):
    """Oracle for :meth:`LlamaModel.forward_cached` built on the per-row
    attention loop."""
    ids = np.atleast_2d(np.asarray(ids))
    x = model.embed.weight.data[ids]
    for layer, block in enumerate(model.blocks):
        normed = block.input_norm.forward_array(x)
        x = x + per_row_attention(
            block.self_attn, normed, cache, layer, seq_ids
        )
        x = x + block.mlp.forward_array(block.post_attn_norm.forward_array(x))
    x = model.final_norm.forward_array(x)
    if model.lm_head is not None:
        return model.lm_head.forward_array(x)[:, -1, :]
    return (x @ model.embed.weight.data.T)[:, -1, :]


def paged_cache(model, block_size, seq_ids):
    """A cache holding every row at full context, rows allocated."""
    capacity = -(-model.config.max_seq_len // block_size) * len(seq_ids)
    cache = PagedKVCache(
        len(model.blocks), block_size=block_size, num_blocks=capacity
    )
    for seq_id in seq_ids:
        cache.allocate(seq_id)
    return cache


def greedy_decode(forward, model, cache, prompts, steps):
    """Prefill each prompt alone, then decode every row together greedily;
    returns the per-step logits ``(steps, rows, vocab)`` and the tokens."""
    rows = list(range(len(prompts)))
    logits = np.concatenate([
        forward(model, np.asarray(prompt)[None, :], cache, [row])
        for row, prompt in zip(rows, prompts)
    ])
    tokens, history = [], []
    for _ in range(steps):
        last = logits.argmax(axis=-1)
        tokens.append(last)
        logits = forward(model, last[:, None], cache, rows)
        history.append(logits)
    return np.stack(history), np.stack(tokens)


def batched(model, ids, cache, seq_ids):
    return model.forward_cached(ids, cache, seq_ids)


class TestBatchedDecodeMatchesPerRowOracle:
    """One stacked attention per layer over the full context, against the
    former loop over exact-length rows: the only difference is exact zeros
    in the softmax sum and ``probs @ V``, an ulp-level move."""

    @pytest.mark.parametrize("model_name", ["llama-test", "trained-micro"])
    def test_ragged_batches_within_1e12(
        self, model_name, trained_micro_model, rng
    ):
        if model_name == "llama-test":
            model = LlamaModel(model_config("llama-test"), seed=0)
        else:
            model = trained_micro_model
        vocab = model.config.vocab_size
        context = model.config.max_seq_len
        prompts = [
            rng.integers(4, vocab, size=n) for n in (1, 7, 3, 12, 5)
        ]
        steps = context - 12
        for block_size in (4, context):
            fast, fast_tokens = greedy_decode(
                batched, model,
                paged_cache(model, block_size, range(5)), prompts, steps,
            )
            slow, slow_tokens = greedy_decode(
                per_row_forward_cached, model,
                paged_cache(model, block_size, range(5)), prompts, steps,
            )
            np.testing.assert_array_equal(fast_tokens, slow_tokens)
            assert np.max(np.abs(fast - slow)) <= 1e-12
            assert np.isfinite(fast).all()

    def test_prefill_is_the_per_row_arithmetic(self, trained_micro_model, rng):
        # Prefill keeps exact-length attention, ragged offsets included.
        model = trained_micro_model
        ids = rng.integers(4, 256, size=(3, 5))
        fast_cache = paged_cache(model, 4, range(3))
        slow_cache = paged_cache(model, 4, range(3))
        for row, n in enumerate((2, 0, 6)):
            if n:
                warm = rng.integers(4, 256, size=(1, n))
                model.forward_cached(warm, fast_cache, [row])
                per_row_forward_cached(model, warm, slow_cache, [row])
        np.testing.assert_array_equal(
            model.forward_cached(ids, fast_cache, [0, 1, 2]),
            per_row_forward_cached(model, ids, slow_cache, [0, 1, 2]),
        )


class TestDecodeInvariance:
    """A row's logits depend only on its own history: not on the rows that
    share its step, their order, or the cache's block geometry."""

    def decode_row(self, model, block_size, order, prompts, steps):
        cache = paged_cache(model, block_size, order)
        for seq_id in order:
            model.forward_cached(prompts[seq_id][None, :], cache, [seq_id])
        feed = np.random.default_rng(7).integers(
            4, model.config.vocab_size, size=(steps, len(prompts))
        )
        history = []
        for step in range(steps):
            ids = np.asarray([[feed[step, seq_id]] for seq_id in order])
            logits = model.forward_cached(ids, cache, order)
            history.append(logits[order.index(0)])
        return np.stack(history)

    def test_company_order_and_geometry_bitwise(
        self, trained_micro_model, rng
    ):
        model = trained_micro_model
        context = model.config.max_seq_len
        prompts = [rng.integers(4, 256, size=n) for n in (6, 2, 11, 4)]
        steps = context - 11
        alone = self.decode_row(model, context, [0], prompts, steps)
        for block_size, order in [
            (context, [0, 1]),
            (4, [2, 0, 3]),
            (3, [3, 2, 1, 0]),
            (1, [1, 3, 0, 2]),
            (16, [0]),
        ]:
            np.testing.assert_array_equal(
                self.decode_row(model, block_size, order, prompts, steps),
                alone,
            )


class TestStaleBlockIsolation:
    """Freed blocks come back zeroed: a poisoned sequence's NaN/inf K/V
    never reaches the masked (padded) slots of a row that reuses them."""

    @pytest.mark.parametrize("block_size", [3, 5, 16, "context"])
    def test_recycled_poisoned_blocks(
        self, block_size, trained_micro_model, rng
    ):
        model = trained_micro_model
        context = model.config.max_seq_len
        block_size = context if block_size == "context" else block_size
        heads = model.config.n_heads
        d_head = model.config.d_model // heads
        num_blocks = 3 * -(-context // block_size)
        cache = PagedKVCache(len(model.blocks), block_size, num_blocks)
        # Poison every slot of the whole pool through one sequence.
        cache.allocate("poison")
        poison = np.full((1, heads, num_blocks * block_size, d_head), np.nan)
        poison[..., ::2, :] = np.inf
        for layer in range(len(model.blocks)):
            cache.append(layer, "poison", poison, -poison)
        assert cache.free_blocks == 0
        cache.free("poison")
        prompts = {"a": rng.integers(4, 256, size=2),
                   "b": rng.integers(4, 256, size=5),
                   "c": rng.integers(4, 256, size=1)}
        rows = list(prompts)
        for seq_id in rows:
            cache.allocate(seq_id)
            model.forward_cached(prompts[seq_id][None, :], cache, [seq_id])
        alone = {seq_id: model.new_cache() for seq_id in rows}
        for seq_id in rows:
            model.forward_cached(prompts[seq_id][None, :], alone[seq_id], [0])
        feed = rng.integers(4, 256, size=(context - 5, len(rows)))
        for tokens in feed:
            logits = model.forward_cached(tokens[:, None], cache, rows)
            assert np.isfinite(logits).all()
            for row, seq_id in enumerate(rows):
                single = model.forward_cached(
                    tokens[row : row + 1, None], alone[seq_id], [0]
                )
                np.testing.assert_array_equal(logits[row], single[0])


class TestAllOrNothing:
    """A multi-row call that cannot reserve every row's blocks raises before
    writing anything: lengths, free blocks and histories stay as they were."""

    @pytest.fixture
    def setup(self, micro_model, rng):
        model = micro_model
        cache = PagedKVCache(len(model.blocks), block_size=4, num_blocks=4)
        for seq_id in "abc":
            cache.allocate(seq_id)
            model.forward_cached(
                rng.integers(4, 256, size=(1, 4)), cache, [seq_id]
            )
        return model, cache

    def snapshot(self, cache, model):
        return (
            {s: [cache.length(s, layer) for layer in range(len(model.blocks))]
             for s in cache.seq_ids()},
            cache.free_blocks,
            {s: [cache.gather(layer, s) for layer in range(len(model.blocks))]
             for s in cache.seq_ids() if cache.length(s)},
        )

    def assert_unchanged(self, before, after):
        assert after[0] == before[0]
        assert after[1] == before[1]
        for seq_id, layers in before[2].items():
            for (k0, v0), (k1, v1) in zip(layers, after[2][seq_id]):
                np.testing.assert_array_equal(k0, k1)
                np.testing.assert_array_equal(v0, v1)

    def test_decode_exhaustion_leaves_cache_untouched(self, setup):
        model, cache = setup
        before = self.snapshot(cache, model)
        assert cache.free_blocks == 1  # a and b both need a new block
        with pytest.raises(CacheExhausted):
            model.forward_cached(np.array([[5], [6]]), cache, ["a", "b"])
        self.assert_unchanged(before, self.snapshot(cache, model))
        cache.free("c")
        logits = model.forward_cached(np.array([[5], [6]]), cache, ["a", "b"])
        assert logits.shape == (2, model.config.vocab_size)
        assert cache.length("a", 1) == cache.length("b", 1) == 5

    def test_prefill_exhaustion_leaves_cache_untouched(self, setup, rng):
        model, cache = setup
        cache.free("c")
        cache.allocate("d")
        cache.allocate("e")
        before = self.snapshot(cache, model)
        ids = rng.integers(4, 256, size=(2, 5))  # two blocks per row
        assert cache.free_blocks == 2
        with pytest.raises(CacheExhausted):
            model.forward_cached(ids, cache, ["d", "e"])
        self.assert_unchanged(before, self.snapshot(cache, model))
        cache.free("a")
        cache.free("b")
        model.forward_cached(ids, cache, ["d", "e"])
        assert cache.length("d", 1) == cache.length("e", 1) == 5

    def test_repeated_sequence_rejected(self, setup):
        model, cache = setup
        before = self.snapshot(cache, model)
        with pytest.raises(ValueError, match="repeat"):
            model.forward_cached(np.array([[5], [6]]), cache, ["a", "a"])
        self.assert_unchanged(before, self.snapshot(cache, model))
