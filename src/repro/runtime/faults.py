"""Deterministic fault injection for the quantization runtime.

A :class:`FaultInjector` holds a plan of faults keyed by *site* (a string
naming a hook point in the runtime) and a glob *pattern* over the site's key
(a layer name, a block index, a calibration batch index).  Production code
calls the module-level hooks :func:`maybe_fault` / :func:`transform_batch`
at its hook points; with no injector active these are no-ops, so the hooks
cost one attribute load on the hot path.

Sites wired into the runtime:

* ``"cholesky"`` — key is the task's layer name; fires a
  ``np.linalg.LinAlgError`` before each factorization attempt of the
  recovery ladder (:func:`repro.runtime.recovery.run_solver_tasks`).
* ``"block-start"`` — key is the block index (as a string); fires an
  :class:`~repro.runtime.errors.InjectedFault` when
  ``aptq_quantize_model`` starts that block, simulating a process crash
  after the previous block's checkpoint landed on disk.
* ``"calibration-batch"`` — transforms (poisons) the matching calibration
  batch in :func:`repro.quant.calibration_hooks.collect_input_stats` and
  where :class:`repro.quant.calibration_hooks.CalibrationCaptureStream`
  embeds it.

Serving fault sites (wired into :mod:`repro.serve`):

* ``"worker-crash"`` — key is ``"prefill:<seq>"`` / ``"decode:<step>"``;
  raises :class:`~repro.runtime.errors.WorkerCrashed` inside the decode
  worker, simulating a dead worker process whose KV state is lost.
* ``"worker-stall"`` — same keys; raises
  :class:`~repro.runtime.errors.WorkerStalled`, simulating a hang caught
  by the supervisor's poll timeout.
* ``"slow-decode-step"`` — *value* plan (see :meth:`FaultInjector.delay_at`);
  the matching decode step takes the given extra seconds, advancing the
  scheduler's clock so deadline enforcement can be tested deterministically.
* ``"admission-burst"`` — value plan consumed by the load generator: the
  matching arrival tick submits that many extra requests at once, driving
  the bounded admission queue into backpressure.

File-corruption helpers (:func:`truncate_file`, :func:`flip_bit`) act on
checkpoint files directly; they need no active injector.
"""

from __future__ import annotations

import dataclasses
import fnmatch
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from repro.runtime.errors import InjectedFault, WorkerCrashed, WorkerStalled

__all__ = [
    "FaultInjector",
    "maybe_fault",
    "fault_value",
    "transform_batch",
    "active_injector",
    "truncate_file",
    "flip_bit",
]


@dataclasses.dataclass
class _PlannedFault:
    """One fault plan: fire ``action`` up to ``times`` at matching sites."""

    site: str
    pattern: str
    times: int
    action: Callable[[str], None]
    fired: int = 0

    def matches(self, site: str, key: str) -> bool:
        """Whether this plan applies to the hook point and has shots left."""
        return (
            self.site == site
            and self.fired < self.times
            and fnmatch.fnmatchcase(key, self.pattern)
        )


class FaultInjector:
    """A deterministic plan of faults, activated as a context manager.

    Plans fire in registration order; each plan fires at most ``times``
    times, so e.g. ``force_linalg_error("blocks.0.*", times=1)`` fails
    exactly the first solver attempt touching block 0 and lets the
    recovery ladder's retry succeed.
    """

    def __init__(self) -> None:
        self._plans: list[_PlannedFault] = []
        self._batch_plans: list[tuple[int, str, int, list]] = []
        self._value_plans: list[list] = []
        self.fired: list[tuple[str, str]] = []

    # -- plan builders --------------------------------------------------
    def force_linalg_error(self, pattern: str = "*", times: int = 1) -> "FaultInjector":
        """Raise ``np.linalg.LinAlgError`` at matching ``"cholesky"`` sites."""

        def action(key: str) -> None:
            raise np.linalg.LinAlgError(
                f"injected Cholesky failure at layer {key!r}"
            )

        self._plans.append(_PlannedFault("cholesky", pattern, times, action))
        return self

    def crash_at_block(self, block_index: int, times: int = 1) -> "FaultInjector":
        """Raise :class:`InjectedFault` when the given block starts."""

        def action(key: str) -> None:
            raise InjectedFault(
                f"injected process crash at start of block {key}"
            )

        self._plans.append(
            _PlannedFault("block-start", str(block_index), times, action)
        )
        return self

    def fail_at(
        self, site: str, pattern: str, exception: Exception, times: int = 1
    ) -> "FaultInjector":
        """Raise an arbitrary exception at a custom site (extension point)."""

        def action(key: str) -> None:
            raise exception

        self._plans.append(_PlannedFault(site, pattern, times, action))
        return self

    def crash_worker(self, pattern: str = "*", times: int = 1) -> "FaultInjector":
        """Raise :class:`WorkerCrashed` at matching ``"worker-crash"`` sites.

        Keys are ``"prefill:<seq>"`` for prefill operations and
        ``"decode:<step>"`` for decode steps (step is the worker's global
        decode-step counter), so e.g. ``crash_worker("decode:3")`` kills
        the worker exactly when it executes its fourth decode step.
        """

        def action(key: str) -> None:
            raise WorkerCrashed(f"injected worker crash at {key!r}")

        self._plans.append(_PlannedFault("worker-crash", pattern, times, action))
        return self

    def stall_worker(self, pattern: str = "*", times: int = 1) -> "FaultInjector":
        """Raise :class:`WorkerStalled` at matching ``"worker-stall"`` sites."""

        def action(key: str) -> None:
            raise WorkerStalled(f"injected worker stall at {key!r}")

        self._plans.append(_PlannedFault("worker-stall", pattern, times, action))
        return self

    def delay_at(
        self, site: str, pattern: str, seconds: float, times: int = 1
    ) -> "FaultInjector":
        """Register a *value* plan: matching hook points read ``seconds``.

        Unlike exception plans these do not raise — production code polls
        :func:`fault_value` and interprets the number (extra seconds for
        ``"slow-decode-step"``, extra arrivals for ``"admission-burst"``).
        """
        if seconds < 0:
            raise ValueError("injected delay must be non-negative")
        self._value_plans.append([site, pattern, float(seconds), times, [0]])
        return self

    def slow_decode(
        self, pattern: str = "*", seconds: float = 1.0, times: int = 1
    ) -> "FaultInjector":
        """Make matching ``"slow-decode-step"`` sites take ``seconds`` extra."""
        return self.delay_at("slow-decode-step", pattern, seconds, times)

    def admission_burst(
        self, pattern: str = "*", extra: int = 8, times: int = 1
    ) -> "FaultInjector":
        """Inject ``extra`` simultaneous arrivals at matching load-gen ticks."""
        return self.delay_at("admission-burst", pattern, float(extra), times)

    def poison_batch(
        self, batch_index: int, mode: str = "nan", times: int = 1
    ) -> "FaultInjector":
        """Inject non-finite values into the given calibration batch.

        ``mode`` is ``"nan"`` or ``"inf"``; the poisoned batch is a float64
        copy with its first element replaced, which the calibration
        screening then rejects with a :class:`CalibrationError`.
        """
        if mode not in ("nan", "inf"):
            raise ValueError(f"unknown poison mode {mode!r}")
        self._batch_plans.append([batch_index, mode, times, [0]])
        return self

    # -- hook-point machinery -------------------------------------------
    def check(self, site: str, key: str) -> None:
        """Fire the first matching plan for this hook point (if any)."""
        for plan in self._plans:
            if plan.matches(site, key):
                plan.fired += 1
                self.fired.append((site, key))
                plan.action(key)
                return

    def value(self, site: str, key: str) -> float:
        """Sum of matching value plans at this hook point (0.0 when none)."""
        total = 0.0
        for plan in self._value_plans:
            plan_site, pattern, seconds, times, fired = plan
            if (
                plan_site == site
                and fired[0] < times
                and fnmatch.fnmatchcase(key, pattern)
            ):
                fired[0] += 1
                self.fired.append((site, key))
                total += seconds
        return total

    def transform(self, batch_index: int, batch: np.ndarray) -> np.ndarray:
        """Return ``batch``, poisoned if a batch plan matches its index."""
        for plan in self._batch_plans:
            index, mode, times, fired = plan
            if index == batch_index and fired[0] < times:
                fired[0] += 1
                self.fired.append(("calibration-batch", str(batch_index)))
                poisoned = np.asarray(batch, dtype=np.float64).copy()
                flat = poisoned.reshape(-1)
                flat[0] = np.nan if mode == "nan" else np.inf
                return poisoned
        return batch

    # -- activation ------------------------------------------------------
    def __enter__(self) -> "FaultInjector":
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("another FaultInjector is already active")
        _ACTIVE = self
        return self

    def __exit__(self, *exc_info) -> None:
        global _ACTIVE
        _ACTIVE = None


_ACTIVE: Optional[FaultInjector] = None


def active_injector() -> Optional[FaultInjector]:
    """The currently active injector, or None outside any ``with`` block."""
    return _ACTIVE


def maybe_fault(site: str, key: str) -> None:
    """Hook point: fire any active fault plan matching ``(site, key)``."""
    if _ACTIVE is not None:
        _ACTIVE.check(site, key)


def fault_value(site: str, key: str) -> float:
    """Hook point: value injected by the active injector (0.0 when none)."""
    if _ACTIVE is not None:
        return _ACTIVE.value(site, key)
    return 0.0


def transform_batch(batch_index: int, batch: np.ndarray) -> np.ndarray:
    """Hook point: let the active injector poison a calibration batch."""
    if _ACTIVE is not None:
        return _ACTIVE.transform(batch_index, batch)
    return batch


def truncate_file(path: str | Path, keep_bytes: int) -> None:
    """Truncate a file to its first ``keep_bytes`` bytes (crash simulation)."""
    path = Path(path)
    data = path.read_bytes()[:keep_bytes]
    path.write_bytes(data)


def flip_bit(path: str | Path, byte_offset: int = -1, bit: int = 0) -> None:
    """Flip one bit of a file in place (silent-corruption simulation).

    ``byte_offset`` indexes from the start (negative: from the end).
    """
    path = Path(path)
    data = bytearray(path.read_bytes())
    if not data:
        raise ValueError(f"cannot flip a bit of empty file {path}")
    data[byte_offset] ^= 1 << bit
    path.write_bytes(bytes(data))
