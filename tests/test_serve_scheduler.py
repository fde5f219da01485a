"""Scheduler semantics: deadlines, backpressure, degradation, journaling.

Driven on a :class:`~repro.serve.session.ManualClock` so every timing
assertion is exact.  The continuous-batching bit-identity contract itself
is covered by ``test_serve_paged_cache.py`` and the chaos suite; these
tests pin the control-plane behaviours one by one.
"""

import asyncio

import numpy as np
import pytest

from repro.nn.config import LlamaConfig
from repro.nn.transformer import LlamaModel
from repro.report.health import format_request_timeline
from repro.runtime.errors import (
    AdmissionError,
    DeadlineExceeded,
    RequestCancelled,
    RequestShed,
    ServeError,
)
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


def make_scheduler(model, **overrides):
    defaults = dict(
        block_size=4, num_blocks=64, max_batch=4, max_queue=4
    )
    defaults.update(overrides)
    return ContinuousBatchScheduler(
        model, ServeConfig(**defaults), clock=ManualClock()
    )


def run(coro):
    return asyncio.run(coro)


class TestHappyPath:
    def test_single_request_completes_bit_identical(self, model):
        async def main():
            scheduler = make_scheduler(model)
            prompt = np.array([3, 1, 4, 1, 5])
            handle = scheduler.submit(prompt, max_new_tokens=6)
            await scheduler.run_until_idle()
            sequence = await handle.result()
            scheduler.close()
            return sequence

        sequence = run(main())
        reference = model.generate_cached(
            np.array([3, 1, 4, 1, 5]), 6, temperature=0.0
        )
        np.testing.assert_array_equal(sequence, reference)

    def test_sampled_request_matches_generate_cached_stream(self, model):
        async def main():
            scheduler = make_scheduler(model)
            prompt = np.array([7, 8, 9])
            handle = scheduler.submit(
                prompt, max_new_tokens=8, temperature=0.8, seed=123
            )
            await scheduler.run_until_idle()
            sequence = await handle.result()
            scheduler.close()
            return sequence

        sequence = run(main())
        reference = model.generate_cached(
            np.array([7, 8, 9]),
            8,
            temperature=0.8,
            rng=np.random.default_rng(123),
        )
        np.testing.assert_array_equal(sequence, reference)

    def test_tokens_stream_incrementally(self, model):
        async def main():
            scheduler = make_scheduler(model)
            handle = scheduler.submit(np.array([1, 2, 3]), max_new_tokens=5)
            streamed = []

            async def consume():
                async for token in handle.stream():
                    streamed.append(token)

            consumer = asyncio.ensure_future(consume())
            await scheduler.run_until_idle()
            await consumer
            scheduler.close()
            return streamed, handle.tokens

        streamed, tokens = run(main())
        assert streamed == tokens
        assert len(streamed) == 5


class TestBackpressure:
    def test_full_queue_rejects_with_retry_after(self, model):
        async def main():
            scheduler = make_scheduler(model, max_queue=2)
            for index in range(2):
                scheduler.submit(np.array([1, 2]), max_new_tokens=2,
                                 request_id=f"q{index}")
            with pytest.raises(AdmissionError) as excinfo:
                scheduler.submit(np.array([1, 2]), max_new_tokens=2)
            assert excinfo.value.retry_after > 0
            health = scheduler.journal.health()
            await scheduler.run_until_idle()
            scheduler.close()
            return health

        health = run(main())
        assert any(e.category == "reject" for e in health.events)

    def test_unservable_request_rejected_up_front(self, model):
        async def main():
            scheduler = make_scheduler(model)
            with pytest.raises(ValueError, match="context window"):
                scheduler.submit(
                    np.arange(40) % CONFIG.vocab_size, max_new_tokens=20
                )
            scheduler.close()

        run(main())

    def test_closed_scheduler_rejects_submission(self, model):
        async def main():
            scheduler = make_scheduler(model)
            scheduler.close()
            with pytest.raises(ServeError, match="closed"):
                scheduler.submit(np.array([1]), max_new_tokens=1)

        run(main())


class TestDeadlinesAndCancellation:
    def test_deadline_exceeded_is_typed_and_fast(self, model):
        async def main():
            scheduler = make_scheduler(model)
            handle = scheduler.submit(
                np.array([1, 2, 3]), max_new_tokens=8, deadline=0.5
            )
            scheduler.clock.advance(1.0)
            await scheduler.step()
            with pytest.raises(DeadlineExceeded):
                await handle.result()
            scheduler.close()
            return handle

        handle = run(main())
        assert handle.state == "failed"

    def test_cancel_is_cooperative_and_keeps_streamed_tokens(self, model):
        async def main():
            scheduler = make_scheduler(model)
            handle = scheduler.submit(np.array([1, 2, 3]), max_new_tokens=8)
            await scheduler.step()  # prefill + first token
            handle.cancel()
            await scheduler.step()
            with pytest.raises(RequestCancelled):
                await handle.result()
            scheduler.close()
            return handle

        handle = run(main())
        assert handle.tokens  # the pre-cancel progress survives


class TestOverloadControl:
    def test_deadline_misses_degrade_then_recover(self, model):
        async def main():
            scheduler = make_scheduler(
                model, degrade_after_misses=2, recover_after_steps=2
            )
            for index in range(2):
                scheduler.submit(
                    np.array([1, 2]),
                    max_new_tokens=8,
                    deadline=0.1,
                    request_id=f"d{index}",
                )
            scheduler.clock.advance(1.0)  # both miss before any step
            await scheduler.step()
            degraded = scheduler.effective_max_batch
            # Clean traffic grows the batch back.
            scheduler.submit(np.array([1, 2, 3]), max_new_tokens=8)
            await scheduler.run_until_idle()
            scheduler.close()
            return degraded, scheduler.effective_max_batch, scheduler.journal

        degraded, recovered, journal = run(main())
        assert degraded < 4
        assert recovered > degraded
        categories = [e.category for e in journal.health().events]
        assert "degrade" in categories
        assert "recover" in categories

    def test_shed_drops_lowest_priority_with_typed_error(self, model):
        async def main():
            scheduler = make_scheduler(
                model,
                max_queue=4,
                degrade_after_misses=1,
                shed_queue_fraction=0.25,
            )
            missed = scheduler.submit(
                np.array([1, 2]), max_new_tokens=4, deadline=0.1,
                request_id="missed",
            )
            low = scheduler.submit(
                np.array([1, 2]), max_new_tokens=4, priority=-5,
                request_id="low",
            )
            high = scheduler.submit(
                np.array([1, 2]), max_new_tokens=4, priority=5,
                request_id="high",
            )
            scheduler.clock.advance(1.0)
            await scheduler.step()
            shed_error = None
            try:
                await low.result()
            except RequestShed as err:
                shed_error = err
            await scheduler.run_until_idle()
            high_sequence = await high.result()
            scheduler.close()
            return missed, shed_error, high_sequence

        missed, shed_error, high_sequence = run(main())
        assert missed.state == "failed"
        assert shed_error is not None and shed_error.retry_after > 0
        assert high_sequence.size == 2 + 4  # high priority survived


class TestServeConfigValidation:
    @pytest.mark.parametrize(
        "field", ["degrade_after_misses", "recover_after_steps"]
    )
    @pytest.mark.parametrize("value", [0, -1])
    def test_non_positive_threshold_rejected(self, field, value):
        # A threshold of 0 is met on every step: with no deadline missed
        # the batch would still degrade and shed queued work.
        with pytest.raises(ValueError, match=field):
            ServeConfig(**{field: value})

    def test_threshold_of_one_accepted(self):
        config = ServeConfig(degrade_after_misses=1, recover_after_steps=1)
        assert config.degrade_after_misses == config.recover_after_steps == 1


class TestJournalScoping:
    def test_per_request_timeline_reconstructs_lifecycle(self, model):
        async def main():
            scheduler = make_scheduler(model)
            scheduler.submit(
                np.array([1, 2, 3]), max_new_tokens=3, request_id="traced"
            )
            await scheduler.run_until_idle()
            scheduler.close()
            return scheduler.journal.health()

        health = run(main())
        categories = [
            event.category for event in health.for_request("traced")
        ]
        assert categories[0] == "admit"
        assert "prefill" in categories
        assert categories[-1] == "complete"
        assert "traced" in health.request_ids()
        rendered = format_request_timeline(health, "traced")
        assert "admit" in rendered and "complete" in rendered
        assert format_request_timeline(health, "ghost").endswith(
            "no journaled events"
        )

    def test_events_without_request_id_stay_unscoped(self, model):
        async def main():
            scheduler = make_scheduler(model)
            scheduler.submit(np.array([1, 2]), max_new_tokens=2,
                             request_id="only")
            await scheduler.run_until_idle()
            scheduler.close()
            return scheduler.journal.health()

        health = run(main())
        assert health.request_ids() == ("only",)
