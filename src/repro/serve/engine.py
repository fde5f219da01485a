"""Decode workers: the compute half of the serving layer.

A worker owns a model plus a :class:`~repro.nn.attention.PagedKVCache`
and exposes four operations — ``prefill``, ``decode``, ``release``,
``stats`` — all returning plain values (logits arrays, dicts), never
mutating scheduler state.  Sampling deliberately does *not* happen here:
workers return logits and the scheduler samples, so all random state
survives a worker crash and replay is deterministic.

Two implementations share that surface:

* :class:`InProcessWorker` runs in the scheduler's process.  It wires the
  serving fault sites (``"worker-crash"``, ``"worker-stall"``,
  ``"slow-decode-step"`` — see :mod:`repro.runtime.faults`) so the chaos
  suite can kill, hang or slow it at exact, seeded points.  A crash or
  stall poisons the worker: the cache is treated as lost and every further
  call fails, exactly like a dead process.
* :class:`ForkedEngineWorker` hosts an :class:`InProcessWorker` inside a
  forked child via :class:`~repro.runtime.parallel.ForkedWorker`; a
  genuine process death surfaces as
  :class:`~repro.runtime.errors.WorkerCrashed` and a hang past the call
  timeout as :class:`~repro.runtime.errors.WorkerStalled`.

The supervisor (:mod:`repro.serve.supervisor`) treats both identically.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.attention import PagedKVCache
from repro.runtime import faults
from repro.runtime.errors import WorkerCrashed, WorkerStalled
from repro.runtime.parallel import ForkedWorker

__all__ = ["ForkedEngineWorker", "InProcessWorker"]


class InProcessWorker:
    """Model + paged KV cache living in the caller's process.

    ``decode(entries)`` takes ``(seq_id, token, position)`` triples — one
    per running sequence — and runs one batched ragged decode step, whose
    plan reserves every row's KV blocks, all or nothing, *before* any
    compute (so :class:`~repro.runtime.errors.CacheExhausted` can never
    leave a half-written step or a partial reservation).
    It returns ``(logits, injected_delay)``; the delay is the value read
    from the ``"slow-decode-step"`` fault site, which the scheduler applies
    to its own clock.
    """

    def __init__(
        self, model, block_size: int = 16, num_blocks: int = 64
    ) -> None:
        self._model = model
        self._cache = PagedKVCache(
            n_layers=len(model.blocks),
            block_size=block_size,
            num_blocks=num_blocks,
        )
        self._steps = 0
        self._alive = True

    # -- liveness ---------------------------------------------------------
    def alive(self) -> bool:
        """Whether the worker can still serve calls."""
        return self._alive

    def _guard(self) -> None:
        """Reject calls on a poisoned worker (simulated dead process)."""
        if not self._alive:
            raise WorkerCrashed("worker is dead (previous crash or stall)")

    def _fault_gate(self, key: str) -> None:
        """Fire crash/stall fault sites; a hit poisons the worker."""
        try:
            faults.maybe_fault("worker-crash", key)
            faults.maybe_fault("worker-stall", key)
        except (WorkerCrashed, WorkerStalled):
            self._alive = False
            raise

    # -- operations -------------------------------------------------------
    def prefill(self, seq_id: str, tokens: np.ndarray) -> np.ndarray:
        """Prefill a new sequence; returns next-token logits ``(vocab,)``.

        All-or-nothing: on any failure the sequence's blocks are freed, so
        a retried prefill starts from a clean cache.
        """
        self._guard()
        self._fault_gate(f"prefill:{seq_id}")
        tokens = np.asarray(tokens, dtype=np.int64).reshape(-1)
        self._cache.allocate(seq_id)
        try:
            logits = self._model.forward_cached(
                tokens[None, :], self._cache, [seq_id]
            )
        except BaseException:
            self._cache.free(seq_id)
            raise
        return logits[0]

    def decode(
        self, entries: list[tuple[str, int, int]]
    ) -> tuple[np.ndarray, float]:
        """One batched ragged decode step over running sequences.

        ``entries`` rows are ``(seq_id, last_token, position)`` where
        ``position`` is the sequence's current cached length.  Returns
        ``(logits, injected_delay)`` with logits ``(batch, vocab)``.
        """
        self._guard()
        self._steps += 1
        key = f"decode:{self._steps}"
        self._fault_gate(key)
        delay = faults.fault_value("slow-decode-step", key)
        seq_ids = [seq_id for seq_id, _, _ in entries]
        ids = np.asarray([[token] for _, token, _ in entries], dtype=np.int64)
        logits = self._model.forward_cached(ids, self._cache, seq_ids)
        return logits, delay

    def release(self, seq_id: str) -> int:
        """Free a finished/evicted sequence; returns blocks reclaimed."""
        return self._cache.free(seq_id)

    def stats(self) -> dict:
        """Pool occupancy for admission control."""
        return {
            "free_blocks": self._cache.free_blocks,
            "used_blocks": self._cache.used_blocks,
            "block_size": self._cache.block_size,
            "num_blocks": self._cache.num_blocks,
            "sequences": len(self._cache.seq_ids()),
            "decode_steps": self._steps,
        }

    def close(self) -> None:
        """Drop all cache state and refuse further calls."""
        self._cache.free_all()
        self._alive = False


def _engine_handler(worker: InProcessWorker):
    """Child-side dispatch loop body for :class:`ForkedEngineWorker`."""

    def handle(message):
        """Dispatch one ``(op, *args)`` message to the worker."""
        op = message[0]
        if op == "prefill":
            return worker.prefill(message[1], message[2])
        if op == "decode":
            return worker.decode(message[1])
        if op == "release":
            return worker.release(message[1])
        if op == "stats":
            return worker.stats()
        raise ValueError(f"unknown engine op {op!r}")

    return handle


class ForkedEngineWorker:
    """An :class:`InProcessWorker` isolated in a forked child process.

    The model and KV cache live only in the child (inherited by fork, so
    nothing large crosses the pipe); calls ship ``(op, args...)`` tuples
    and small arrays.  ``timeout`` bounds every call — a child that blows
    past it is reported as :class:`~repro.runtime.errors.WorkerStalled`
    and must be discarded, since the pipe may hold a late reply.
    """

    def __init__(
        self,
        model,
        block_size: int = 16,
        num_blocks: int = 64,
        timeout: Optional[float] = 30.0,
    ) -> None:
        self._timeout = timeout
        inner = InProcessWorker(
            model, block_size=block_size, num_blocks=num_blocks
        )
        self._worker = ForkedWorker(
            _engine_handler(inner), name="serve-engine"
        )

    def alive(self) -> bool:
        """Whether the child process is still running."""
        return self._worker.alive()

    def prefill(self, seq_id: str, tokens: np.ndarray) -> np.ndarray:
        """Remote :meth:`InProcessWorker.prefill`."""
        return self._worker.call(
            ("prefill", seq_id, np.asarray(tokens)), timeout=self._timeout
        )

    def decode(
        self, entries: list[tuple[str, int, int]]
    ) -> tuple[np.ndarray, float]:
        """Remote :meth:`InProcessWorker.decode`."""
        return self._worker.call(("decode", entries), timeout=self._timeout)

    def release(self, seq_id: str) -> int:
        """Remote :meth:`InProcessWorker.release`."""
        return self._worker.call(("release", seq_id), timeout=self._timeout)

    def stats(self) -> dict:
        """Remote :meth:`InProcessWorker.stats`."""
        return self._worker.call(("stats",), timeout=self._timeout)

    def kill(self) -> None:
        """Hard-kill the child (crash simulation for integration tests)."""
        self._worker.kill()

    def close(self) -> None:
        """Shut the child down cleanly."""
        self._worker.close()
