"""Continuous-batching scheduler with deadlines, backpressure and replay.

:class:`ContinuousBatchScheduler` drives one supervised decode worker
(:mod:`repro.serve.supervisor`) over a stream of generation requests.
Requests of any length join and leave the running batch between steps
(continuous batching over the paged KV cache); one call to :meth:`step`
advances the whole system by at most one engine call, in which replays,
admitted prompts and running sequences share one batched forward.

Robustness contract (asserted end-to-end by the chaos suite):

* **Bounded admission.**  :meth:`submit` on a full queue fails fast with
  :class:`~repro.runtime.errors.AdmissionError` carrying a
  ``retry_after`` hint — callers are never silently buffered.
* **Deadlines.**  A request past its deadline fails with
  :class:`~repro.runtime.errors.DeadlineExceeded` at the next step,
  whether queued or mid-decode; cooperative cancellation
  (:meth:`~repro.serve.session.RequestHandle.cancel`) works the same way.
* **Graceful degradation.**  Repeated deadline misses halve the effective
  batch size (journaled ``degrade`` events) and shed the lowest-priority
  queued work with :class:`~repro.runtime.errors.RequestShed`; sustained
  clean steps grow the batch back (``recover``).
* **Crash recovery.**  When the supervisor reports a crashed or stalled
  worker, every in-flight sequence is requeued for *replay*: its prompt
  plus already-generated tokens are re-prefilled on the fresh worker and
  decoding resumes from the exact same state.  Sampling state lives in
  the scheduler (workers return logits), so a replayed request's output
  is bit-identical to an unfaulted run.  Requests whose replay budget
  (``max_request_retries``) is exhausted fail with
  :class:`~repro.runtime.errors.WorkerFailure`.
* **Preemption, never corruption.**  KV-pool exhaustion surfaces as
  :class:`~repro.runtime.errors.CacheExhausted` *before* any cache write;
  the step's admissions yield first (back to the queue front), then the
  scheduler evicts a strictly lower-priority victim (to be replayed
  later) and retries.  ``CacheExhausted`` is never a request failure.

Every lifecycle event is journaled with the owning ``request_id``
(:mod:`repro.runtime.journal`), so a per-request timeline can be
reconstructed after the fact (:func:`repro.report.health.format_request_timeline`).
"""

from __future__ import annotations

import asyncio
import dataclasses
from typing import Callable, Optional

import numpy as np

from repro.nn.transformer import sample_token
from repro.runtime.errors import (
    AdmissionError,
    CacheExhausted,
    DeadlineExceeded,
    RequestCancelled,
    RequestShed,
    ServeError,
    WorkerCrashed,
    WorkerFailure,
    WorkerStalled,
)
from repro.runtime.journal import RunJournal
from repro.serve.engine import InProcessWorker
from repro.serve.session import GenerationRequest, RequestHandle, WallClock
from repro.serve.supervisor import WorkerSupervisor

__all__ = ["ContinuousBatchScheduler", "ServeConfig"]


@dataclasses.dataclass(frozen=True)
class ServeConfig:
    """Scheduler tuning knobs; the defaults suit the test-scale models."""

    max_queue: int = 32
    max_batch: int = 8
    min_batch: int = 1
    block_size: int = 16
    num_blocks: int = 64
    max_request_retries: int = 3
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    degrade_after_misses: int = 2
    recover_after_steps: int = 8
    shed_queue_fraction: float = 0.5
    retry_after: float = 0.5

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ValueError("max_queue must be positive")
        if not 1 <= self.min_batch <= self.max_batch:
            raise ValueError("need 1 <= min_batch <= max_batch")
        if self.max_request_retries < 0:
            raise ValueError("max_request_retries must be non-negative")
        if not 0.0 <= self.shed_queue_fraction <= 1.0:
            raise ValueError("shed_queue_fraction must be in [0, 1]")
        # A threshold of 0 is met on every step: the batch would degrade
        # (and shed queued work) or grow back without a single event.
        if self.degrade_after_misses < 1:
            raise ValueError("degrade_after_misses must be positive")
        if self.recover_after_steps < 1:
            raise ValueError("recover_after_steps must be positive")


class _Tracked:
    """Scheduler-internal state of one live request."""

    def __init__(self, handle: RequestHandle, order: int) -> None:
        self.handle = handle
        self.order = order
        self.rng: Optional[np.random.Generator] = None
        if handle.request.temperature > 0.0:
            self.rng = np.random.default_rng(handle.request.seed)
        self.position = 0  # worker-cached length once prefetched
        self.in_cache = False
        self.retries = 0

    @property
    def request(self) -> GenerationRequest:
        """The underlying immutable request."""
        return self.handle.request

    @property
    def seq_id(self) -> str:
        """Worker-side sequence id (the request id)."""
        return self.handle.request_id

    def rank(self) -> tuple[int, int]:
        """Sort key: higher wins scheduling, loses eviction."""
        return (self.request.priority, -self.order)


class ContinuousBatchScheduler:
    """Serve generation requests over one supervised paged-KV worker."""

    def __init__(
        self,
        model,
        config: Optional[ServeConfig] = None,
        worker_factory: Optional[Callable[[], object]] = None,
        clock=None,
        journal: Optional[RunJournal] = None,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        self.clock = clock if clock is not None else WallClock()
        self.journal = journal if journal is not None else RunJournal()
        self._model = model
        if worker_factory is None:
            cfg = self.config

            def worker_factory() -> InProcessWorker:
                return InProcessWorker(
                    model,
                    block_size=cfg.block_size,
                    num_blocks=cfg.num_blocks,
                )

        self.supervisor = WorkerSupervisor(
            worker_factory,
            journal=self.journal,
            clock=self.clock,
            backoff_base=self.config.backoff_base,
            backoff_cap=self.config.backoff_cap,
        )
        self._queue: list[_Tracked] = []
        self._active: list[_Tracked] = []
        self._order = 0
        self._steps = 0
        self._clean_steps = 0
        self._deadline_misses = 0
        self._closed = False
        self.effective_max_batch = self.config.max_batch

    # -- introspection ----------------------------------------------------
    @property
    def busy(self) -> bool:
        """Whether any request is queued or in flight."""
        return bool(self._queue or self._active)

    @property
    def queue_depth(self) -> int:
        """Requests waiting for admission to the batch."""
        return len(self._queue)

    @property
    def active_count(self) -> int:
        """Requests currently decoding (including awaiting replay)."""
        return len(self._active)

    # -- submission --------------------------------------------------------
    def submit(
        self,
        prompt: np.ndarray,
        max_new_tokens: int,
        temperature: float = 0.0,
        seed: int = 0,
        priority: int = 0,
        deadline: Optional[float] = None,
        request_id: Optional[str] = None,
    ) -> RequestHandle:
        """Queue one generation request; fails fast when overloaded.

        ``deadline`` is *relative* seconds from now.  Raises
        :class:`AdmissionError` (with ``retry_after``) on a full queue and
        ``ValueError`` for requests that could never be served (context
        window or KV pool too small).
        """
        if self._closed:
            raise ServeError("scheduler is closed")
        now = self.clock.now()
        if request_id is None:
            request_id = f"req-{self._order}"
        prompt = np.asarray(prompt, dtype=np.int64).reshape(-1)
        total = prompt.size + max_new_tokens
        if total > self._model.config.max_seq_len:
            raise ValueError(
                f"request {request_id!r}: prompt plus continuation "
                f"({total} tokens) exceeds the context window"
            )
        pool_tokens = self.config.block_size * self.config.num_blocks
        if total > pool_tokens:
            raise ValueError(
                f"request {request_id!r}: {total} tokens can never fit the "
                f"KV pool ({pool_tokens} token slots)"
            )
        if len(self._queue) >= self.config.max_queue:
            self.journal.record(
                "reject",
                message=(
                    f"admission queue full "
                    f"({len(self._queue)}/{self.config.max_queue})"
                ),
                request_id=request_id,
                queue_depth=len(self._queue),
            )
            raise AdmissionError(
                f"admission queue full ({self.config.max_queue} waiting); "
                f"retry after {self.config.retry_after}s",
                retry_after=self.config.retry_after,
            )
        request = GenerationRequest(
            request_id=request_id,
            prompt=prompt,
            max_new_tokens=max_new_tokens,
            temperature=temperature,
            seed=seed,
            priority=priority,
            deadline=None if deadline is None else now + deadline,
        )
        handle = RequestHandle(request)
        handle.submitted_at = now
        tracked = _Tracked(handle, self._order)
        self._order += 1
        self._queue.append(tracked)
        self.journal.record(
            "admit",
            message=f"queued (depth {len(self._queue)})",
            request_id=request_id,
            queue_depth=len(self._queue),
            priority=priority,
        )
        return handle

    # -- lifecycle helpers -------------------------------------------------
    def _fail(
        self, tracked: _Tracked, error: BaseException, category: str
    ) -> None:
        """Move a request to a failed terminal state and free its cache."""
        if tracked in self._queue:
            self._queue.remove(tracked)
        if tracked in self._active:
            self._active.remove(tracked)
            if tracked.in_cache:
                self.supervisor.release(tracked.seq_id)
        now = self.clock.now()
        tracked.handle._finish("failed", now, error)
        self.journal.record(
            category,
            message=str(error),
            request_id=tracked.seq_id,
            error=type(error).__name__,
        )

    def _complete(self, tracked: _Tracked) -> None:
        """Move a request to the completed terminal state."""
        self._active.remove(tracked)
        if tracked.in_cache:
            self.supervisor.release(tracked.seq_id)
        now = self.clock.now()
        tracked.handle._finish("completed", now)
        self.journal.record(
            "complete",
            message=(
                f"{len(tracked.handle.tokens)} tokens in "
                f"{tracked.handle.latency:.3f}s"
            ),
            request_id=tracked.seq_id,
            tokens=len(tracked.handle.tokens),
            latency=round(tracked.handle.latency, 6),
        )

    def _reap_finished(self) -> None:
        """Fail cancelled and deadline-expired requests (queued or active)."""
        now = self.clock.now()
        for tracked in list(self._queue) + list(self._active):
            if tracked.handle.cancel_requested:
                self._fail(
                    tracked,
                    RequestCancelled(
                        f"request {tracked.seq_id!r} cancelled by caller"
                    ),
                    "cancel",
                )
            elif (
                tracked.request.deadline is not None
                and now > tracked.request.deadline
            ):
                self._deadline_misses += 1
                self._clean_steps = 0
                self._fail(
                    tracked,
                    DeadlineExceeded(
                        f"request {tracked.seq_id!r} missed its deadline "
                        f"(now {now:.3f}s > {tracked.request.deadline:.3f}s)"
                    ),
                    "deadline",
                )

    def _overload_control(self) -> None:
        """Shrink the batch and shed work under pressure; recover when calm."""
        cfg = self.config
        if (
            self._deadline_misses >= cfg.degrade_after_misses
            and self.effective_max_batch > cfg.min_batch
        ):
            self.effective_max_batch = max(
                cfg.min_batch, self.effective_max_batch // 2
            )
            self._deadline_misses = 0
            self.journal.record(
                "degrade",
                message=(
                    "deadline misses: effective batch shrunk to "
                    f"{self.effective_max_batch}"
                ),
                effective_max_batch=self.effective_max_batch,
            )
            keep = int(cfg.max_queue * cfg.shed_queue_fraction)
            while len(self._queue) > keep:
                victim = min(self._queue, key=_Tracked.rank)
                self._fail(
                    victim,
                    RequestShed(
                        f"request {victim.seq_id!r} shed under overload; "
                        f"retry after {cfg.retry_after}s",
                        retry_after=cfg.retry_after,
                    ),
                    "shed",
                )
        elif (
            self._clean_steps >= cfg.recover_after_steps
            and self.effective_max_batch < cfg.max_batch
        ):
            self.effective_max_batch += 1
            self._clean_steps = 0
            self.journal.record(
                "recover",
                message=(
                    "sustained clean steps: effective batch grown to "
                    f"{self.effective_max_batch}"
                ),
                effective_max_batch=self.effective_max_batch,
            )

    def _preempt_victim(self, beneficiary: _Tracked) -> bool:
        """Evict the worst strictly-lower-ranked cached sequence.

        Returns False when no sequence outranked by ``beneficiary`` holds
        cache — the beneficiary must then wait instead of starving others.
        """
        candidates = [
            t
            for t in self._active
            if t.in_cache and t is not beneficiary
            and t.rank() < beneficiary.rank()
        ]
        if not candidates:
            return False
        self._evict(min(candidates, key=_Tracked.rank), beneficiary)
        return True

    def _evict(self, victim: _Tracked, beneficiary: _Tracked) -> None:
        """Free a cached sequence's blocks; it replays at a later step."""
        self.supervisor.release(victim.seq_id)
        victim.in_cache = False
        self.journal.record(
            "preempt",
            message=(
                f"evicted for {beneficiary.seq_id!r}; will replay from "
                f"token {len(victim.handle.tokens)}"
            ),
            request_id=victim.seq_id,
            beneficiary=beneficiary.seq_id,
        )

    def _on_worker_loss(self, in_flight: list[_Tracked]) -> None:
        """Handle a crashed/stalled worker: requeue everything for replay."""
        for tracked in self._active:
            tracked.in_cache = False
        for tracked in list(in_flight):
            tracked.retries += 1
            if tracked.retries > self.config.max_request_retries:
                self._fail(
                    tracked,
                    WorkerFailure(
                        f"request {tracked.seq_id!r} exhausted its replay "
                        f"budget ({self.config.max_request_retries} retries)"
                    ),
                    "failed",
                )

    def _requeue(self, tracked: _Tracked) -> None:
        """Undo an admission: back to the front of the queue."""
        self._active.remove(tracked)
        self._queue.insert(0, tracked)

    # -- the engine loop ---------------------------------------------------
    async def step(self) -> bool:
        """Advance the system by at most one engine call.

        Returns True when any state changed (admissions, tokens, terminal
        transitions); False when there was nothing to do.
        """
        await asyncio.sleep(0)  # let handle consumers drain streams
        if self._closed:
            return False
        before = (
            self._order,
            len(self._queue),
            len(self._active),
            self._steps,
        )
        self._reap_finished()
        self._overload_control()
        worked = self._forward_once()
        self._reap_finished()
        after = (
            self._order,
            len(self._queue),
            len(self._active),
            self._steps,
        )
        return worked or before != after

    def _forward_once(self) -> bool:
        """One engine call over replays, admissions and running sequences.

        The call holds at most ``effective_max_batch`` rows: the
        best-ranked active requests — a cached one decodes its next token,
        an evicted or crashed one replays its prompt plus all tokens but
        the last (logits discarded; it decodes from the next step) — then
        queued requests while the batch has room, each prefilling its
        prompt and sampling its first token.  A just-admitted request
        therefore gets its next token one step later.
        """
        rows = sorted(self._active, key=_Tracked.rank, reverse=True)
        rows = rows[: self.effective_max_batch]
        admitted = []
        while self._queue and len(self._active) < self.effective_max_batch:
            tracked = max(self._queue, key=_Tracked.rank)
            self._queue.remove(tracked)
            self._active.append(tracked)
            admitted.append(tracked)
        worked = bool(rows or admitted)
        while rows or admitted:
            replays = [t for t in rows if not t.in_cache]
            running = [t for t in rows if t.in_cache]
            replayed = [
                np.concatenate(
                    [t.request.prompt, t.handle.tokens[:-1]]
                ).astype(np.int64)
                for t in replays
            ]
            prefills = [(t.seq_id, ids) for t, ids in zip(replays, replayed)]
            prefills += [(t.seq_id, t.request.prompt) for t in admitted]
            decodes = [
                (t.seq_id, t.handle.tokens[-1], t.position) for t in running
            ]
            try:
                logits, delay = self.supervisor.step(prefills, decodes)
            except CacheExhausted:
                if admitted:
                    # The worst-ranked admission yields first.
                    self._requeue(admitted.pop())
                elif not self._preempt_victim(rows[-1]):
                    # Nothing cached ranks below the call: its worst row
                    # waits for a later step.
                    dropped = rows.pop()
                    if dropped.in_cache and rows:
                        self._evict(dropped, rows[0])
                continue
            except (WorkerCrashed, WorkerStalled):
                # Not admitted after all: back to the queue's front rank.
                for tracked in reversed(admitted):
                    self._requeue(tracked)
                self._on_worker_loss(rows + admitted)
                return True
            self._commit(replays, replayed, admitted, running, logits, delay)
            break
        return worked

    def _commit(
        self,
        replays: list[_Tracked],
        replayed: list[np.ndarray],
        admitted: list[_Tracked],
        running: list[_Tracked],
        logits: np.ndarray,
        delay: float,
    ) -> None:
        """Apply one engine call's logits: prefill rows first, then decode."""
        self._steps += 1
        self._clean_steps += 1
        if delay > 0:
            self.clock.advance(delay)
            self.journal.record(
                "slow-step",
                message=f"decode step delayed {delay:.3f}s (injected)",
                delay=delay,
            )
        for tracked, ids in zip(replays, replayed):
            tracked.in_cache = True
            tracked.position = ids.size
            tracked.handle.state = "running"
            self.journal.record(
                "rebuild",
                message=(
                    f"replayed {ids.size} tokens onto fresh cache "
                    f"(attempt {tracked.retries})"
                ),
                request_id=tracked.seq_id,
                replayed_tokens=int(ids.size),
            )
        first_decode = len(replays) + len(admitted)
        for tracked, row in zip(admitted, logits[len(replays) : first_decode]):
            tracked.in_cache = True
            tracked.position = tracked.request.prompt.size
            tracked.handle.state = "running"
            self.journal.record(
                "prefill",
                message=f"prefilled {tracked.request.prompt.size} tokens",
                request_id=tracked.seq_id,
                prompt_tokens=int(tracked.request.prompt.size),
            )
            self._emit(tracked, row)
        for tracked, row in zip(running, logits[first_decode:]):
            tracked.position += 1
            self._emit(tracked, row)

    def _emit(self, tracked: _Tracked, row: np.ndarray) -> None:
        """Sample and stream one token; complete the request when done."""
        tracked.handle._push_token(
            sample_token(row, tracked.request.temperature, tracked.rng)
        )
        if len(tracked.handle.tokens) >= tracked.request.max_new_tokens:
            self._complete(tracked)

    # -- driving -----------------------------------------------------------
    async def run_until_idle(self, max_steps: int = 100000) -> int:
        """Step until no request is queued or in flight; returns steps run.

        ``max_steps`` is a livelock backstop: exceeding it raises
        :class:`ServeError` rather than spinning forever.
        """
        steps = 0
        while self.busy:
            await self.step()
            steps += 1
            if steps > max_steps:
                raise ServeError(
                    f"scheduler failed to drain within {max_steps} steps"
                )
        return steps

    def close(self) -> None:
        """Fail all outstanding requests and shut the worker down."""
        if self._closed:
            return
        for tracked in list(self._queue) + list(self._active):
            self._fail(
                tracked,
                ServeError(
                    f"request {tracked.seq_id!r} aborted: scheduler closed"
                ),
                "aborted",
            )
        self.supervisor.close()
        self._closed = True
