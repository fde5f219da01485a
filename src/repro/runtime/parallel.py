"""Deterministic parallel execution of independent solver tasks.

The GPTQ/APTQ calibration protocol is inherently sequential *across*
transformer blocks — every block's calibration inputs are computed on the
partially quantized model, so block ``b`` cannot start before block
``b-1`` finished.  Within one protocol stage, however, the solver calls
are independent: all attention-projection (and per-head) Hessians of a
block are computed before any of its weights change, and all MLP Hessians
of a block come from a single calibration pass.  This module fans those
independent tasks out over a ``multiprocessing`` pool.

Determinism contract (pinned by ``tests/test_quant_differential.py``):
``workers=N`` is **bit-identical** to ``workers=0`` for every ``N``.

* each :class:`SolverTask` is a pure function of its own arrays — tasks
  never observe each other's output;
* ``Pool.map`` returns results in submission order regardless of worker
  scheduling;
* every task records recovery-ladder events into its *own* child journal,
  and the parent journal merges the children in task order in **both**
  execution modes — so the solver event stream is order-identical.
  (Scheduling notices — ``scheduler`` auto-serial events and pool-failure
  ``warning`` events — describe the execution mode, not the numerics, and
  only appear when ``workers > 0`` was requested.)

Workers are forked (the only start method that inherits the parent's
in-memory model for free); when a pool cannot be created at all the
executor degrades to serial execution and records a ``warning`` event
rather than failing the run.

Two fan-outs share this machinery: :func:`run_solver_tasks` (quantization
solver stages) and the generic :func:`run_parallel_map` used by the
evaluation harness (perplexity window batches, zero-shot suites).  Both
apply a minimum-work auto-serial heuristic so tiny workloads — micro
models in tests, short streams — never pay fork overhead: the recorded
``aptq-micro-workers2`` slowdown in the pre-PR-5 ``BENCH_quantize.json``
was exactly this cost, ~70 ms of forking for ~30 ms of solver work.
"""

from __future__ import annotations

import builtins
import dataclasses
import multiprocessing
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.runtime import errors as _errors
from repro.runtime.errors import WorkerCrashed, WorkerStalled
from repro.runtime.journal import DegradationEvent, RunJournal
from repro.runtime.recovery import RecoveryPolicy, robust_quantize_layer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.quant.solver import HessianFactorCache, SolverResult

__all__ = [
    "SolverTask",
    "ForkedWorker",
    "run_solver_tasks",
    "run_parallel_map",
    "solver_task_cost",
    "MIN_PARALLEL_COST",
    "EVAL_AUTO_SERIAL_MIN_TOKENS",
]

#: Estimated solver FLOPs below which a worker pool costs more than it
#: saves.  Fork + pickle overhead is ~50-100 ms; at ~1 GFLOP/s of useful
#: numpy throughput that is ~5e7 floating-point operations, so stages whose
#: total estimated cost sits below this bound run serially (with a
#: ``scheduler`` journal event) even when ``workers > 0`` was requested.
#: A single 512x512 layer (~2.7e8) clears the bound; the micro models used
#: in tests and the pipeline bench (~1e5 per stage) never fork.
MIN_PARALLEL_COST = 5e7

#: Total evaluation tokens below which the eval fan-out stays serial (the
#: same fork-overhead argument at typical per-token forward cost).
EVAL_AUTO_SERIAL_MIN_TOKENS = 20_000.0


def solver_task_cost(task: "SolverTask") -> float:
    """Estimated FLOPs of one solver task (factorization + sweep GEMMs).

    The Cholesky factorization is ``O(d_in^3)`` and the blocked sweep
    streams the ``(d_in, d_out)`` working matrix ``d_in`` rows at a time —
    ``d_in^2 * (d_in + d_out)`` captures both terms up to a constant.
    """
    d_in, d_out = task.weight.shape
    return float(d_in) * d_in * (d_in + d_out)


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


@dataclasses.dataclass
class SolverTask:
    """One independent layer (or head-slice) quantization problem.

    ``key`` names the task in journals (layer name, optionally with a
    ``[head h]`` suffix); the remaining fields are the arguments of
    :func:`repro.runtime.recovery.robust_quantize_layer`.
    """

    key: str
    weight: np.ndarray
    hessian: np.ndarray
    bits: int
    group_size: int | None = None
    blocksize: int = 128
    percdamp: float = 0.01
    actorder: bool = False
    # Quantize against ``hessian_scale · hessian`` (KronQ per-head scale);
    # 1.0 is the plain path.
    hessian_scale: float = 1.0


def _execute_task(
    payload: tuple[SolverTask, RecoveryPolicy],
    cache: Optional["HessianFactorCache"] = None,
) -> tuple["SolverResult", tuple[DegradationEvent, ...]]:
    """Run one task against a fresh child journal; return (result, events).

    Module-level (not a closure) so it pickles into pool workers; the
    ``cache`` keyword exists only on the serial path — worker processes do
    not share a factor cache, which is safe because cache hits are
    bit-identical to recomputation by construction.
    """
    task, policy = payload
    child = RunJournal()
    result = robust_quantize_layer(
        task.weight,
        task.hessian,
        bits=task.bits,
        group_size=task.group_size,
        blocksize=task.blocksize,
        percdamp=task.percdamp,
        actorder=task.actorder,
        policy=policy,
        journal=child,
        layer=task.key,
        cache=cache,
        hessian_scale=task.hessian_scale,
    )
    return result, tuple(child.events)


def run_solver_tasks(
    tasks: Sequence[SolverTask],
    workers: int = 0,
    policy: Optional[RecoveryPolicy] = None,
    journal: Optional[RunJournal] = None,
    cache: Optional["HessianFactorCache"] = None,
    min_parallel_cost: float = MIN_PARALLEL_COST,
) -> list["SolverResult"]:
    """Execute ``tasks`` and return their results in task order.

    ``workers=0`` (the default) runs serially in-process, reusing
    Cholesky factors via ``cache``; ``workers>0`` forks a pool of at most
    that many processes.  Both paths produce bit-identical results and
    solver journal event streams (see the module docstring); scheduling
    notices (``scheduler`` / ``warning`` events) describe the execution
    mode, not the numerics.  Stages whose total estimated cost (see
    :func:`solver_task_cost`) falls below ``min_parallel_cost`` run
    serially even when ``workers > 0`` — fork overhead would dominate —
    recording a ``scheduler`` event; pass ``min_parallel_cost=0`` to force
    the pool.  If the pool cannot be created the executor records a
    ``warning`` in ``journal`` and runs serially.
    """
    if workers < 0:
        raise ValueError("workers must be non-negative")
    policy = policy or RecoveryPolicy()
    journal = journal if journal is not None else RunJournal()
    payloads = [(task, policy) for task in tasks]

    outcomes = None
    if workers > 0 and len(tasks) > 1:
        from repro.runtime import faults

        total_cost = sum(solver_task_cost(task) for task in tasks)
        if faults.active_injector() is not None:
            journal.record(
                "scheduler",
                message="fault injector active: fault budgets and fired "
                "records live in parent-process state that forked workers "
                f"cannot update; running {len(tasks)} solver tasks serially",
                workers=workers,
            )
        elif total_cost < min_parallel_cost:
            journal.record(
                "scheduler",
                message=f"auto-serial: estimated solver cost "
                f"{total_cost:.3g} of {len(tasks)} tasks below the "
                f"parallel threshold {min_parallel_cost:.3g}; running "
                f"serially",
                workers=workers,
                cost=total_cost,
                threshold=min_parallel_cost,
            )
        else:
            try:
                context = multiprocessing.get_context("fork")
                with context.Pool(processes=min(workers, len(tasks))) as pool:
                    # _execute_task's only global effect is fault-injector
                    # bookkeeping (FaultInjector.check), and an active
                    # injector takes the serial branch above; with no
                    # injector maybe_fault is a no-op read of _ACTIVE.
                    outcomes = pool.map(  # lint: disable=wp-fork-unsafe-effect
                        _execute_task, payloads
                    )
            except (OSError, ValueError) as error:
                journal.record(
                    "warning",
                    message=f"worker pool unavailable ({error}); running "
                    f"{len(tasks)} solver tasks serially",
                    workers=workers,
                )
                outcomes = None
    if outcomes is None:
        outcomes = [_execute_task(payload, cache=cache) for payload in payloads]

    results: list["SolverResult"] = []
    for result, events in outcomes:
        journal.extend(events)
        results.append(result)
    return results
