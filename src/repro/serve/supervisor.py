"""Worker supervision: crash/stall detection and backoff restarts.

The scheduler never talks to a worker directly; every operation goes
through a :class:`WorkerSupervisor`, which owns the worker's lifecycle.
When a call raises :class:`~repro.runtime.errors.WorkerCrashed` or
:class:`~repro.runtime.errors.WorkerStalled` the supervisor journals the
failure, discards the worker (a stalled worker's pipe may hold a late
reply, so it is never reused), waits out an exponential backoff on the
injected clock, builds a fresh worker from the factory, and re-raises the
typed error so the scheduler can requeue the in-flight sequences for
deterministic replay.

Consecutive failures double the backoff (capped); any successful call
resets the streak.  Both timing and restart count are observable through
the run journal, which the chaos suite asserts against.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.runtime.errors import WorkerCrashed, WorkerStalled
from repro.runtime.journal import RunJournal
from repro.serve.session import WallClock

__all__ = ["WorkerSupervisor"]


class WorkerSupervisor:
    """Owns the decode worker; restarts it with exponential backoff."""

    def __init__(
        self,
        factory: Callable[[], object],
        journal: Optional[RunJournal] = None,
        clock=None,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
    ) -> None:
        if backoff_base <= 0:
            raise ValueError("backoff_base must be positive")
        self._factory = factory
        self._journal = journal if journal is not None else RunJournal()
        self._clock = clock if clock is not None else WallClock()
        self._backoff_base = float(backoff_base)
        self._backoff_cap = float(backoff_cap)
        self._worker = factory()
        self._failure_streak = 0
        self.restarts = 0

    @property
    def worker(self) -> object:
        """The live worker (tests only; production goes through ops)."""
        return self._worker

    # -- supervised operations -------------------------------------------
    def step(
        self,
        prefills: list[tuple[str, np.ndarray]],
        decodes: list[tuple[str, int, int]],
    ) -> tuple[np.ndarray, float]:
        """Supervised worker ``step`` (one engine call)."""
        return self._call("step", lambda w: w.step(prefills, decodes))

    def release(self, seq_id: str) -> int:
        """Free a sequence; tolerates a dead worker (cache died with it)."""
        try:
            return self._worker.release(seq_id)
        except (WorkerCrashed, WorkerStalled):
            return 0

    def stats(self) -> dict:
        """Supervised worker ``stats``."""
        return self._call("stats", lambda w: w.stats())

    def close(self) -> None:
        """Shut the current worker down."""
        closer = getattr(self._worker, "close", None)
        if closer is not None:
            closer()

    # -- failure handling -------------------------------------------------
    def _call(self, op: str, thunk: Callable[[object], object]):
        """Run one worker operation, restarting on crash/stall."""
        try:
            result = thunk(self._worker)
        except WorkerCrashed as err:
            self._handle_failure("worker-crash", op, err)
            raise
        except WorkerStalled as err:
            self._handle_failure("worker-stall", op, err)
            raise
        self._failure_streak = 0
        return result

    def _handle_failure(
        self, category: str, op: str, err: BaseException
    ) -> None:
        """Journal the failure and bring up a replacement worker."""
        self._failure_streak += 1
        backoff = min(
            self._backoff_base * (2 ** (self._failure_streak - 1)),
            self._backoff_cap,
        )
        self._journal.record(
            category,
            message=f"worker {op} failed: {err}",
            op=op,
            streak=self._failure_streak,
        )
        self.close()
        self._clock.advance(backoff)
        self._worker = self._factory()
        self.restarts += 1
        self._journal.record(
            "worker-restart",
            message=(
                f"worker restarted after {category} "
                f"(backoff {backoff:.3f}s, restart #{self.restarts})"
            ),
            backoff=backoff,
            restarts=self.restarts,
        )
