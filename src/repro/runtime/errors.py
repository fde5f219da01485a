"""Exception hierarchy of the fault-tolerant runtime.

Every failure the runtime can recover from (or deliberately inject) gets a
typed exception so callers can distinguish "the checkpoint on disk is bad"
from "the numerics degraded past the recovery ladder" from "a fault-injection
plan fired".  All of them derive from :class:`ReproRuntimeError` so a caller
that only wants "something runtime-level went wrong" has one type to catch.
"""

from __future__ import annotations

__all__ = [
    "ReproRuntimeError",
    "CheckpointError",
    "CalibrationError",
    "NumericalRecoveryError",
    "InjectedFault",
    "ServeError",
    "AdmissionError",
    "RequestShed",
    "DeadlineExceeded",
    "RequestCancelled",
    "CacheExhausted",
    "WorkerCrashed",
    "WorkerStalled",
    "WorkerFailure",
]


class ReproRuntimeError(Exception):
    """Base class of every error raised by :mod:`repro.runtime`."""


class CheckpointError(ReproRuntimeError):
    """A checkpoint file is missing pieces, corrupt, or incompatible.

    Raised by checksum-verified loads (truncated/bit-flipped archives), by
    :func:`repro.nn.serialize.load_state_dict` when the ``__config_json__``
    entry is absent, and by APTQ resume when the on-disk checkpoint was
    written by an incompatible run configuration.
    """


class CalibrationError(ReproRuntimeError, ValueError):
    """Calibration data carries NaN/Inf or otherwise unusable values.

    Subclasses :class:`ValueError` so pre-existing callers that guard
    calibration plumbing with ``except ValueError`` keep working.
    """


class NumericalRecoveryError(ReproRuntimeError):
    """The numerical recovery ladder ran out of rungs.

    Only reachable when the terminal RTN rung is disabled by policy —
    with the full ladder enabled every layer quantizes eventually.
    """


class InjectedFault(ReproRuntimeError):
    """A deliberate fault fired by :mod:`repro.runtime.faults`.

    Used by the fault-injection harness to simulate process crashes at
    precise points (e.g. "die when block 2 starts"); never raised outside
    an active :class:`~repro.runtime.faults.FaultInjector` context.
    """


class ServeError(ReproRuntimeError):
    """Base class of every error raised by the :mod:`repro.serve` layer.

    The serving robustness contract promises that a request either
    completes or fails *fast* with one of these subclasses — never a bare
    ``Exception``, never a silent hang.
    """


class AdmissionError(ServeError):
    """The admission queue is full; the request was rejected at submit.

    Carries ``retry_after`` (seconds) — the server's estimate of when
    capacity frees up — so clients back off instead of hammering a loaded
    server.  Explicit rejection *is* the backpressure mechanism: the queue
    is bounded and never grows silently.
    """

    def __init__(self, message: str, retry_after: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


class RequestShed(ServeError):
    """A queued request was shed to relieve overload.

    Raised into the request's handle (not at submit) when the scheduler
    degrades under sustained deadline pressure and drops the
    lowest-priority queued work; carries ``retry_after`` like
    :class:`AdmissionError`.
    """

    def __init__(self, message: str, retry_after: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


class DeadlineExceeded(ServeError):
    """A request missed its deadline and was cancelled cooperatively."""


class RequestCancelled(ServeError):
    """The client cancelled the request before completion."""


class CacheExhausted(ServeError):
    """The paged KV block pool has no free block for a reservation.

    The scheduler treats this as a preemption signal (evict and replay the
    lowest-priority running sequence), never as a request failure.
    """


class WorkerCrashed(ServeError):
    """A decode worker died mid-operation (process exit or injected crash).

    In-flight KV state living in the worker is lost; the supervisor
    restarts the worker and the scheduler replays affected sequences from
    their last completed token.
    """


class WorkerStalled(ServeError):
    """A decode worker failed to respond within its hang-detection timeout."""


class WorkerFailure(ServeError):
    """A request exhausted its worker-failure retry budget.

    Terminal, typed, and raised before the deadline — the fail-fast half
    of the serving contract when crashes/stalls persist past
    exponential-backoff restarts.
    """
