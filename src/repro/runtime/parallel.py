"""Order-preserving fork fan-out and persistent forked workers.

Both primitives fork (the only start method that inherits the parent's
in-memory models for free):

* :func:`run_parallel_map` — an order-preserving ``map`` over a
  transient pool.  It fans out the per-block Hessian accumulation of the
  APTQ sensitivity pass (:mod:`repro.core.sensitivity`, the only fork
  between quantize and eval) and the per-module passes of
  ``repro-lint --jobs``.  For a pure ``fn``, ``workers=N`` returns exactly
  the serial result list.
* :class:`ForkedWorker` — one persistent child with crash and hang
  detection, the isolation boundary of the serving supervisor.

APTQ's solver stages run serially
(:func:`repro.runtime.recovery.run_solver_tasks`): the block-by-block
protocol leaves only one block's stage to split, and the largest zoo
stage (``llama-13b-sim``'s MLP, ~3e7 solver FLOPs) costs less than a fork.
"""

from __future__ import annotations

import builtins
import multiprocessing
from typing import Optional

from repro.runtime import errors as _errors
from repro.runtime.errors import WorkerCrashed, WorkerStalled
from repro.runtime.journal import RunJournal

__all__ = ["ForkedWorker", "run_parallel_map"]


# Callable shared with pool workers by fork inheritance (never pickled):
# the parent publishes it right before creating the pool, workers inherit
# the binding, and ``pool.map`` only ships the (small) items.
_FORK_FN = None


def _invoke_fork_fn(item):
    """Trampoline run inside pool workers; dispatches to the shared fn."""
    return _FORK_FN(item)


def run_parallel_map(
    fn,
    items,
    *,
    workers: int = 0,
    cost: float | None = None,
    min_cost: float = 0.0,
    journal: Optional[RunJournal] = None,
    label: str = "tasks",
) -> list:
    """Order-preserving ``map(fn, items)`` over a forked worker pool.

    Results come back in item order regardless of worker scheduling, so a
    pure ``fn`` makes ``workers=N`` produce exactly the serial result list.
    Three ways the call degrades to the serial loop, none of them fatal:

    * ``workers=0`` or fewer than two items — nothing to fan out;
    * ``cost`` provided and below ``min_cost`` — the auto-serial heuristic
      (fork overhead would dominate); records a ``scheduler`` event;
    * the pool cannot be created — records a ``warning`` event.

    ``fn`` reaches workers via fork inheritance, so closures over live
    models are fine; only ``items`` and results cross process boundaries.
    """
    if workers < 0:
        raise ValueError("workers must be non-negative")
    items = list(items)
    if workers > 0 and len(items) > 1 and cost is not None and cost < min_cost:
        if journal is not None:
            journal.record(
                "scheduler",
                message=f"auto-serial: estimated cost {cost:.3g} of "
                f"{len(items)} {label} below the parallel threshold "
                f"{min_cost:.3g}; running serially",
                workers=workers,
                cost=cost,
                threshold=min_cost,
            )
        workers = 0
    if workers > 0 and len(items) > 1:
        global _FORK_FN
        previous = _FORK_FN
        _FORK_FN = fn
        try:
            context = multiprocessing.get_context("fork")
            with context.Pool(processes=min(workers, len(items))) as pool:
                return pool.map(_invoke_fork_fn, items)
        except (OSError, ValueError) as error:
            if journal is not None:
                journal.record(
                    "warning",
                    message=f"worker pool unavailable ({error}); running "
                    f"{len(items)} {label} serially",
                    workers=workers,
                )
        finally:
            _FORK_FN = previous
    return [fn(item) for item in items]


def _forked_worker_loop(conn, handler) -> None:
    """Child-process loop of :class:`ForkedWorker`.

    Reads payloads off the pipe, applies the fork-inherited ``handler``,
    and ships ``(True, result)`` / ``(False, (type_name, message))`` back.
    A ``None`` payload (or a closed pipe) shuts the loop down cleanly.
    """
    while True:
        try:
            payload = conn.recv()
        except (EOFError, OSError):
            break
        if payload is None:
            break
        try:
            result = handler(payload)
        except Exception as error:
            conn.send((False, (type(error).__name__, str(error))))
        else:
            conn.send((True, result))
    conn.close()


class ForkedWorker:
    """A persistent forked worker process with crash and hang detection.

    Unlike the transient pools of :func:`run_parallel_map`, a
    ``ForkedWorker`` stays alive across calls and may hold mutable state
    (a serving worker's paged KV cache) in the child.  The handler and its
    closed-over objects (live models included) reach the child by fork
    inheritance at construction time — nothing is pickled except the
    per-call payloads and results.

    The failure surface is fully typed for the serving supervisor:

    * a dead child (crash, ``kill()``, OOM) raises
      :class:`~repro.runtime.errors.WorkerCrashed`;
    * a child that does not answer within ``timeout`` raises
      :class:`~repro.runtime.errors.WorkerStalled` — the worker must then
      be discarded (a late answer would desynchronize the pipe protocol);
    * a handler exception in the child is re-raised in the parent as the
      matching :mod:`repro.runtime.errors` type when the name resolves to
      one, else as :class:`~repro.runtime.errors.ReproRuntimeError`.
    """

    def __init__(self, handler, name: str = "forked-worker") -> None:
        context = multiprocessing.get_context("fork")
        self._conn, child_conn = context.Pipe()
        self._process = context.Process(
            target=_forked_worker_loop,
            args=(child_conn, handler),
            daemon=True,
            name=name,
        )
        self._process.start()
        child_conn.close()

    @property
    def pid(self) -> int | None:
        """Child process id (``None`` once closed)."""
        return self._process.pid

    def alive(self) -> bool:
        """Whether the child process is still running."""
        return self._process.is_alive()

    def call(self, payload, timeout: float | None = None):
        """Execute ``handler(payload)`` in the child and return its result.

        ``timeout`` (seconds) bounds the wait for an answer; ``None``
        waits forever (only sensible in tests).  Raises the typed errors
        documented on the class.
        """
        if not self._process.is_alive():
            raise WorkerCrashed(
                f"worker {self._process.name!r} is dead "
                f"(exitcode {self._process.exitcode})"
            )
        try:
            self._conn.send(payload)
        except (BrokenPipeError, OSError) as error:
            raise WorkerCrashed(
                f"worker {self._process.name!r} pipe is broken: {error}"
            ) from error
        if timeout is not None and not self._conn.poll(timeout):
            if self._process.is_alive():
                raise WorkerStalled(
                    f"worker {self._process.name!r} gave no answer within "
                    f"{timeout:g}s"
                )
            raise WorkerCrashed(
                f"worker {self._process.name!r} died mid-call "
                f"(exitcode {self._process.exitcode})"
            )
        try:
            ok, value = self._conn.recv()
        except (EOFError, OSError) as error:
            raise WorkerCrashed(
                f"worker {self._process.name!r} died mid-call: {error}"
            ) from error
        if ok:
            return value
        type_name, message = value
        error_type = getattr(_errors, type_name, None)
        if error_type is None:
            error_type = getattr(builtins, type_name, None)
        if isinstance(error_type, type) and issubclass(error_type, Exception):
            raise error_type(message)
        raise _errors.ReproRuntimeError(f"{type_name}: {message}")

    def kill(self) -> None:
        """SIGKILL the child (crash simulation for supervisor tests)."""
        if self._process.is_alive():
            self._process.kill()
        self._process.join(timeout=5.0)

    def close(self) -> None:
        """Shut the child down cleanly (falls back to terminate)."""
        if self._process.is_alive():
            try:
                self._conn.send(None)
            except (BrokenPipeError, OSError):
                pass
            self._process.join(timeout=1.0)
            if self._process.is_alive():
                self._process.terminate()
                self._process.join(timeout=5.0)
        self._conn.close()
