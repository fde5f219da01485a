"""Decode workers: the compute half of the serving layer.

A worker owns a model plus a :class:`~repro.nn.attention.PagedKVCache`
and exposes three operations — ``step``, ``release``, ``stats`` — all
returning plain values (logits arrays, dicts), never mutating scheduler
state.  ``step`` is one engine call: it prefills new sequences and
decodes running ones in a single
:meth:`~repro.nn.transformer.LlamaModel.forward_cached`; ``prefill`` and
``decode`` are its one-kind shorthands.  Sampling deliberately does *not*
happen here: workers return logits and the scheduler samples, so all
random state survives a worker crash and replay is deterministic.

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

    :meth:`step` runs one engine call over new and running sequences;
    its plan reserves every row's KV blocks, all or nothing, *before* any
    compute (so :class:`~repro.runtime.errors.CacheExhausted` can never
    leave a half-written call or a partial reservation).  It returns
    ``(logits, injected_delay)``; the delay is the value read from the
    ``"slow-decode-step"`` fault site, which the scheduler applies to its
    own clock.
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
    def step(
        self,
        prefills: list[tuple[str, np.ndarray]],
        decodes: list[tuple[str, int, int]],
    ) -> tuple[np.ndarray, float]:
        """One engine call: prefill new sequences, decode running ones.

        ``prefills`` rows are ``(seq_id, tokens)`` for sequences new to the
        cache; ``decodes`` rows are ``(seq_id, last_token, position)``
        where ``position`` is the sequence's current cached length.  All
        rows run as one
        :meth:`~repro.nn.transformer.LlamaModel.forward_cached`, each
        bit-identical to the same row fed alone.  Returns
        ``(logits, injected_delay)`` with logits
        ``(len(prefills) + len(decodes), vocab)``, prefill rows first.

        Fault sites fire before any compute: crash/stall on
        ``prefill:<seq_id>`` for every prefill row, then on ``decode:<n>``
        for the ``n``-th call that carries decode rows, whose
        ``"slow-decode-step"`` value is the delay.  All-or-nothing: on any
        failure every sequence this call allocated is freed, so a retried
        call starts from a clean cache.
        """
        self._guard()
        for seq_id, _ in prefills:
            self._fault_gate(f"prefill:{seq_id}")
        delay = 0.0
        if decodes:
            self._steps += 1
            key = f"decode:{self._steps}"
            self._fault_gate(key)
            delay = faults.fault_value("slow-decode-step", key)
        # A decode step's rows are one (rows, 1) array; prefills make the
        # rows ragged.
        ids = np.array([[token] for _, token, _ in decodes], dtype=np.int64)
        if prefills:
            ids = [
                np.asarray(tokens, dtype=np.int64).reshape(-1)
                for _, tokens in prefills
            ] + list(ids)
        seq_ids = [seq_id for seq_id, _ in prefills]
        seq_ids += [seq_id for seq_id, _, _ in decodes]
        allocated = []
        try:
            for seq_id, _ in prefills:
                self._cache.allocate(seq_id)
                allocated.append(seq_id)
            logits = self._model.forward_cached(ids, self._cache, seq_ids)
        except BaseException:
            for seq_id in allocated:
                self._cache.free(seq_id)
            raise
        return logits, delay

    def prefill(self, seq_id: str, tokens: np.ndarray) -> np.ndarray:
        """:meth:`step` of one new sequence; its logits ``(vocab,)``."""
        return self.step([(seq_id, tokens)], [])[0][0]

    def decode(
        self, entries: list[tuple[str, int, int]]
    ) -> tuple[np.ndarray, float]:
        """:meth:`step` of running sequences only (one decode step)."""
        return self.step([], entries)

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
        if op == "step":
            return worker.step(message[1], message[2])
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

    def step(
        self,
        prefills: list[tuple[str, np.ndarray]],
        decodes: list[tuple[str, int, int]],
    ) -> tuple[np.ndarray, float]:
        """Remote :meth:`InProcessWorker.step`."""
        return self._worker.call(
            ("step", prefills, decodes), timeout=self._timeout
        )

    def prefill(self, seq_id: str, tokens: np.ndarray) -> np.ndarray:
        """Remote :meth:`InProcessWorker.prefill`."""
        return self.step([(seq_id, tokens)], [])[0][0]

    def decode(
        self, entries: list[tuple[str, int, int]]
    ) -> tuple[np.ndarray, float]:
        """Remote :meth:`InProcessWorker.decode`."""
        return self.step([], entries)

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
