"""One engine call per serving step: prefills ride in the decode batch.

:meth:`~repro.nn.transformer.LlamaModel.forward_cached` takes ragged rows
— running sequences decoding one token next to prompts prefilling many —
and every row must come out bit for bit as the separate calls it replaces
(one prefill per prompt, one batched decode) would give it: logits, cached
keys/values and lengths.  :meth:`ContinuousBatchScheduler.step` makes one
such call per step, and under a tight KV pool its admissions yield first
without any request failing.
"""

import asyncio

import numpy as np
import pytest

from repro.models.configs import model_config
from repro.nn.attention import PagedKVCache
from repro.nn.config import LlamaConfig
from repro.nn.transformer import LlamaModel
from repro.runtime.errors import CacheExhausted
from repro.runtime.faults import FaultInjector
from repro.serve import ContinuousBatchScheduler, ManualClock, ServeConfig

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


def cache_with_history(model, histories, block_size):
    """A cache holding ``histories`` (seq id → prefix), each fed alone."""
    cache = PagedKVCache(len(model.blocks), block_size=block_size,
                         num_blocks=64)
    for seq_id, prefix in histories.items():
        cache.allocate(seq_id)
        model.forward_cached(prefix[None, :], cache, [seq_id])
    return cache


class TestRaggedCall:
    """A ragged call equals the separate calls it replaces, bit for bit."""

    @pytest.mark.parametrize("model_name", ["small", "llama-test"])
    @pytest.mark.parametrize("block_size", [4, 48])
    def test_matches_separate_prefill_and_decode_calls(
        self, model, model_name, block_size
    ):
        if model_name == "llama-test":
            model = LlamaModel(model_config("llama-test"), seed=0)
        vocab = model.config.vocab_size
        rng = np.random.default_rng(3)
        histories = {
            name: rng.integers(0, vocab, size=n)
            for name, n in (("d0", 5), ("d1", 1), ("d2", 17), ("w", 4))
        }
        prompts = {
            "p0": rng.integers(0, vocab, size=7),
            "p1": rng.integers(0, vocab, size=1),
            "p2": rng.integers(0, vocab, size=12),
        }
        feed = {
            name: rng.integers(0, vocab, size=1) for name in ("d0", "d1", "d2")
        }
        warm = rng.integers(0, vocab, size=5)
        # Rows interleaved; the one-token rows in the order the separate
        # calls reserve blocks (the decode step, then the 1-token prompt).
        order = ["d0", "p0", "d1", "w", "d2", "p1", "p2"]
        tokens = {**feed, **prompts, "w": warm}

        ragged = cache_with_history(model, histories, block_size)
        for seq_id in prompts:
            ragged.allocate(seq_id)
        logits = model.forward_cached(
            [tokens[seq_id] for seq_id in order], ragged, order
        )

        separate = cache_with_history(model, histories, block_size)
        expected = {}
        step = model.forward_cached(
            np.stack([feed[s] for s in ("d0", "d1", "d2")]),
            separate,
            ["d0", "d1", "d2"],
        )
        expected.update(zip(("d0", "d1", "d2"), step))
        for seq_id in ("p1", "p0", "w", "p2"):
            if seq_id != "w":
                separate.allocate(seq_id)
            expected[seq_id] = model.forward_cached(
                tokens[seq_id][None, :], separate, [seq_id]
            )[0]

        assert logits.shape == (len(order), vocab)
        for row, seq_id in enumerate(order):
            np.testing.assert_array_equal(logits[row], expected[seq_id])
        np.testing.assert_array_equal(ragged._keys, separate._keys)
        np.testing.assert_array_equal(ragged._values, separate._values)
        assert ragged.free_blocks == separate.free_blocks
        for seq_id in order:
            for layer in range(len(model.blocks)):
                assert ragged.length(seq_id, layer) == separate.length(
                    seq_id, layer
                )
        # A fresh prompt row is the full forward pass's last row.
        for seq_id, prompt in prompts.items():
            np.testing.assert_array_equal(
                logits[order.index(seq_id)],
                model.forward_array(prompt[None, :])[0, -1],
            )

    def test_company_and_order_do_not_move_a_row(self, model):
        rng = np.random.default_rng(5)
        prompt = rng.integers(0, CONFIG.vocab_size, size=9)

        def run(rows, seq_ids):
            cache = PagedKVCache(len(model.blocks), block_size=4,
                                 num_blocks=64)
            for seq_id in seq_ids:
                cache.allocate(seq_id)
            return model.forward_cached(rows, cache, seq_ids)

        alone = run([prompt], ["x"])[0]
        for lengths in ([3], [1, 1, 2], [11, 1]):
            others = [rng.integers(0, CONFIG.vocab_size, size=n)
                      for n in lengths]
            names = [f"o{index}" for index in range(len(others))]
            for position in range(len(others) + 1):
                logits = run(
                    others[:position] + [prompt] + others[position:],
                    names[:position] + ["x"] + names[position:],
                )
                np.testing.assert_array_equal(logits[position], alone)

    def test_validation(self, model):
        cache = PagedKVCache(len(model.blocks), block_size=4, num_blocks=64)
        cache.allocate("a")
        cache.allocate("b")
        with pytest.raises(ValueError, match="at least one token"):
            model.forward_cached([np.array([1]), np.array([], int)], cache,
                                 ["a", "b"])
        with pytest.raises(ValueError, match="at least one token"):
            model.forward_cached([], cache, [])
        with pytest.raises(ValueError, match="one sequence per row"):
            model.forward_cached([np.array([1, 2])], cache, ["a", "b"])
        assert cache.length("a") == cache.length("b") == 0

    def test_exhaustion_is_all_or_nothing(self, model):
        cache = PagedKVCache(len(model.blocks), block_size=4, num_blocks=3)
        cache.allocate("run")
        model.forward_cached(np.arange(4)[None, :], cache, ["run"])
        cache.allocate("new")
        before = (cache.free_blocks, cache.length("run"), cache.length("new"))
        # The decode row needs one block and the prompt two: three > two.
        with pytest.raises(CacheExhausted):
            model.forward_cached(
                [np.array([5]), np.arange(6)], cache, ["run", "new"]
            )
        assert (
            cache.free_blocks, cache.length("run"), cache.length("new")
        ) == before


def spy_forward_calls(monkeypatch):
    """Record the row lengths of every ``LlamaModel.forward_cached`` call."""
    calls = []
    forward_cached = LlamaModel.forward_cached

    def spy(self, ids, cache, seq_ids):
        if isinstance(ids, np.ndarray):
            lengths = [np.atleast_2d(ids).shape[1]] * len(seq_ids)
        else:
            lengths = [np.asarray(row).size for row in ids]
        calls.append(sorted(lengths))
        return forward_cached(self, ids, cache, seq_ids)

    monkeypatch.setattr(LlamaModel, "forward_cached", spy)
    return calls


def make_scheduler(model, **overrides):
    config = dict(block_size=4, num_blocks=64, max_batch=4, max_queue=8)
    config.update(overrides)
    return ContinuousBatchScheduler(
        model, ServeConfig(**config), clock=ManualClock()
    )


def reference(model, prompt, max_new_tokens):
    return model.generate_cached(prompt, max_new_tokens, temperature=0.0)


class TestOneCallPerStep:
    def test_each_step_with_work_makes_one_engine_call(
        self, model, monkeypatch
    ):
        rng = np.random.default_rng(11)
        first = [rng.integers(0, CONFIG.vocab_size, size=n) for n in (6, 3, 9)]
        late = rng.integers(0, CONFIG.vocab_size, size=5)

        async def main():
            scheduler = make_scheduler(model)
            handles = [scheduler.submit(p, max_new_tokens=6) for p in first]
            calls = spy_forward_calls(monkeypatch)
            per_step = []
            for step in range(40):
                if step == 2:
                    handles.append(scheduler.submit(late, max_new_tokens=4))
                before = len(calls)
                await scheduler.step()
                per_step.append(calls[before:])
                if not scheduler.busy:
                    break
            outputs = [await handle.result() for handle in handles]
            scheduler.close()
            return per_step, outputs

        per_step, outputs = asyncio.run(main())
        assert all(len(step) == 1 for step in per_step), per_step
        # Step 1 prefills the three prompts together; step 2 decodes
        # them; step 3 decodes them with the late prompt in the same call.
        assert per_step[0] == [[3, 6, 9]]
        assert per_step[1] == [[1, 1, 1]]
        assert per_step[2] == [[1, 1, 1, 5]]
        for prompt, sequence in zip(first + [late], outputs):
            budget = sequence.size - prompt.size
            np.testing.assert_array_equal(
                sequence, reference(model, prompt, budget)
            )

    def test_second_token_lands_one_step_after_admission(self, model):
        async def main():
            scheduler = make_scheduler(model)
            handle = scheduler.submit(np.array([4, 8, 15]), max_new_tokens=3)
            counts = []
            while scheduler.busy:
                await scheduler.step()
                counts.append(len(handle.tokens))
            scheduler.close()
            return counts

        assert asyncio.run(main()) == [1, 2, 3]

    def test_crash_requeues_every_row_of_the_call(self, model):
        rng = np.random.default_rng(2)
        prompts = [rng.integers(0, CONFIG.vocab_size, size=n) for n in (5, 8)]

        async def main():
            scheduler = make_scheduler(model, backoff_base=0.01)
            running = scheduler.submit(prompts[0], max_new_tokens=5,
                                       request_id="run")
            await scheduler.step()  # "run" prefilled, one token
            joining = scheduler.submit(prompts[1], max_new_tokens=5,
                                       request_id="join")
            with FaultInjector().crash_worker("prefill:join") as injector:
                await scheduler.step()  # decode "run" + prefill "join"
                fired = list(injector.fired)
                after_crash = (
                    scheduler.active_count,
                    scheduler.queue_depth,
                    len(running.tokens),
                )
            await scheduler.run_until_idle()
            outputs = [await running.result(), await joining.result()]
            health = scheduler.journal.health()
            categories = [event.category for event in health.events]
            scheduler.close()
            return fired, after_crash, outputs, categories

        fired, after_crash, outputs, categories = asyncio.run(main())
        assert fired == [("worker-crash", "prefill:join")]
        # The running row made no progress and the admission went back to
        # the queue; both finish bit-identical after a replay.
        assert after_crash == (1, 1, 1)
        assert "rebuild" in categories
        for prompt, sequence in zip(prompts, outputs):
            np.testing.assert_array_equal(
                sequence, reference(model, prompt, 5)
            )


class TestTightPool:
    def test_admissions_yield_and_every_completion_is_exact(self, model):
        rng = np.random.default_rng(7)
        specs = [
            (rng.integers(0, CONFIG.vocab_size, size=int(n)), int(m))
            for n, m in zip(rng.integers(6, 11, size=8),
                            rng.integers(3, 9, size=8))
        ]

        async def main():
            # 10 blocks of 4 slots: four 10-token prompts need 12.
            scheduler = make_scheduler(model, num_blocks=10, max_queue=8)
            exhausted = []
            step = scheduler.supervisor.step

            def counting(prefills, decodes):
                try:
                    return step(prefills, decodes)
                except CacheExhausted:
                    exhausted.append((len(prefills), len(decodes)))
                    raise

            scheduler.supervisor.step = counting
            handles = [
                scheduler.submit(prompt, max_new_tokens=budget)
                for prompt, budget in specs
            ]
            await scheduler.step()
            first_step = (scheduler.active_count, scheduler.queue_depth)
            await scheduler.run_until_idle()
            outputs = []
            for handle in handles:
                outputs.append(await handle.result())
            health = scheduler.journal.health()
            scheduler.close()
            return first_step, exhausted, outputs, handles, health

        first_step, exhausted, outputs, handles, health = asyncio.run(main())
        assert exhausted, "the pool never ran short"
        active, queued = first_step
        assert active < 4 and active + queued == len(specs)
        assert all(handle.state == "completed" for handle in handles)
        categories = [event.category for event in health.events]
        assert "failed" not in categories
        assert "preempt" in categories and "rebuild" in categories
        for (prompt, budget), sequence in zip(specs, outputs):
            np.testing.assert_array_equal(
                sequence, reference(model, prompt, budget)
            )

    def test_worst_row_yields_when_nothing_ranks_below_the_call(self, model):
        # Two one-block prompts in a three-block pool: their second tokens
        # both need a new block.  No cached sequence ranks below the call,
        # so its worst row is evicted for a later replay.
        prompts = [np.array([5, 9, 2, 7]), np.array([3, 3, 8, 1])]

        async def main():
            scheduler = make_scheduler(model, num_blocks=3)
            handles = [
                scheduler.submit(prompt, max_new_tokens=4, request_id=name)
                for prompt, name in zip(prompts, ("first", "second"))
            ]
            await scheduler.run_until_idle()
            outputs = [await handle.result() for handle in handles]
            events = scheduler.journal.health().events
            scheduler.close()
            return outputs, events

        outputs, events = asyncio.run(main())
        preempts = [e for e in events if e.category == "preempt"]
        assert preempts and all(
            e.request_id == "second" and e.detail["beneficiary"] == "first"
            for e in preempts
        )
        for prompt, sequence in zip(prompts, outputs):
            np.testing.assert_array_equal(
                sequence, reference(model, prompt, 4)
            )
