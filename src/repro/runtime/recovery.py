"""Numerical recovery ladder around the second-order quantization solver.

The solver's hot path — Cholesky of the damped attention Hessian (paper
Eq. (7) via GPTQ's ``inverse_cholesky`` reformulation) — fails with
``np.linalg.LinAlgError`` whenever calibration produced a Hessian that is
not positive definite after damping.  HAWQ-V2 and ADMM-Q both observe that
such conditioning failures are *the* dominant failure mode of second-order
PTQ; a production run must degrade a single layer gracefully instead of
throwing away every block already quantized.

:func:`robust_quantize_layer` therefore escalates through a fixed ladder,
recording a structured :class:`~repro.runtime.journal.DegradationEvent` at
every rung:

1. **retry** — re-attempt at the same damping (absorbs transient and
   injected faults with zero numerical impact);
2. **damp-escalation** — grow ``percdamp`` geometrically (×10 by default)
   up to a cap;
3. **eigenvalue-clip** — eigendecompose the Hessian and floor its spectrum
   at a small positive fraction of the largest eigenvalue;
4. **rtn-fallback** — quantize the layer with plain round-to-nearest,
   which needs no Hessian at all.

With the terminal rung enabled (the default) every layer quantizes
eventually; a disabled terminal rung turns exhaustion into
:class:`~repro.runtime.errors.NumericalRecoveryError`.

A protocol stage of the APTQ pipeline (one block's attention
projections and heads, its MLP, the tail layers) is a list of
:class:`SolverTask` records.  Only the factorization can fail, so
:func:`run_solver_tasks` first settles every task's factor behind the
ladder, in task order, then sweeps each group of same-shaped tasks as
one stack; results and ladder events come back in task order.

This module and :mod:`repro.quant.solver` are the only places allowed to
call ``np.linalg.cholesky`` / ``np.linalg.inv`` directly — the
``runtime-raw-linalg`` lint rule enforces that everything else routes
through the ladder.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, MutableMapping, Optional, Sequence

import numpy as np

from repro.runtime import faults
from repro.runtime.errors import NumericalRecoveryError
from repro.runtime.journal import RunJournal

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.quant.solver import (
        HessianFactor,
        HessianFactorCache,
        SolverResult,
    )

__all__ = [
    "LADDER_RUNGS",
    "RecoveryPolicy",
    "clip_hessian_eigenvalues",
    "robust_quantize_layer",
    "SolverTask",
    "run_solver_tasks",
    "hessian_inverse",
]

#: Ladder rung names, in escalation order (used by tests and reports).
LADDER_RUNGS = ("retry", "damp-escalation", "eigenvalue-clip", "rtn-fallback")


@dataclasses.dataclass(frozen=True)
class RecoveryPolicy:
    """Knobs of the recovery ladder.

    ``retries`` plain re-attempts run first; then ``percdamp`` is grown by
    ``damp_factor`` per step (starting from at least ``damp_floor`` so a
    zero initial damping still escalates) until it would exceed
    ``damp_cap``; then the eigenvalue-clip rung floors the spectrum at
    ``eig_floor_scale`` times the largest eigenvalue; finally, unless
    ``allow_rtn_fallback`` is off, the layer falls back to RTN.
    """

    retries: int = 1
    damp_factor: float = 10.0
    damp_floor: float = 1e-4
    damp_cap: float = 1.0
    eig_floor_scale: float = 1e-8
    allow_rtn_fallback: bool = True

    def escalation_schedule(self, percdamp: float) -> list[float]:
        """Damping values the escalation rung will try, in order."""
        schedule: list[float] = []
        value = max(percdamp, self.damp_floor)
        while value * self.damp_factor <= self.damp_cap:
            value *= self.damp_factor
            schedule.append(value)
        return schedule


def clip_hessian_eigenvalues(
    hessian: np.ndarray, floor_scale: float = 1e-8
) -> np.ndarray:
    """Floor the spectrum of a symmetric matrix at ``floor_scale * max_eig``.

    Returns a symmetric positive-definite reconstruction; the floor falls
    back to ``floor_scale`` itself when the matrix is (numerically) zero.
    """
    hessian = np.asarray(hessian, dtype=np.float64)
    eigenvalues, eigenvectors = np.linalg.eigh((hessian + hessian.T) / 2.0)
    top = float(np.abs(eigenvalues).max()) if eigenvalues.size else 0.0
    floor = floor_scale * top if top > 0 else floor_scale
    clipped = np.maximum(eigenvalues, floor)
    rebuilt = (eigenvectors * clipped) @ eigenvectors.T
    return (rebuilt + rebuilt.T) / 2.0


def _rtn_solver_result(
    weight: np.ndarray, bits: int, group_size: int | None
) -> "SolverResult":
    """A :class:`SolverResult`-shaped record for the RTN terminal rung.

    ``compensated_loss`` is 0.0 by construction — RTN performs no error
    compensation, so the solver's loss accumulator has nothing to count.
    """
    # Imported here (not at module top) to keep repro.runtime importable
    # from leaf modules such as repro.data.calibration without dragging in
    # the whole repro.quant package (top-level import cycle otherwise).
    from repro.quant.groupwise import quantize_groupwise
    from repro.quant.solver import SolverResult

    weight = np.asarray(weight, dtype=np.float64)
    group_result = quantize_groupwise(weight, bits, group_size)
    quantized = group_result.dequantize()
    return SolverResult(
        quantized_weight=quantized,
        group_result=group_result,
        compensated_loss=0.0,
        mse=float(((weight - quantized) ** 2).mean()),
    )


def robust_quantize_layer(
    weight: np.ndarray,
    hessian: np.ndarray,
    bits: int,
    group_size: int | None = None,
    percdamp: float = 0.01,
    policy: Optional[RecoveryPolicy] = None,
    journal: Optional[RunJournal] = None,
    layer: str = "",
    cache: Optional["HessianFactorCache"] = None,
    hessian_scale: float = 1.0,
) -> "SolverResult":
    """:func:`quantize_with_hessian` behind the numerical recovery ladder.

    On the happy path this returns the solver's result unchanged.  Every
    ``np.linalg.LinAlgError`` escalates one rung (see the module
    docstring) and records an event in ``journal``; the ladder's output
    is always a usable :class:`SolverResult` unless the terminal RTN rung
    is disabled.  ``cache`` memoizes Cholesky factors across calls
    sharing a Hessian.  This is the one-task stage of
    :func:`run_solver_tasks`.
    """
    task = SolverTask(
        key=layer,
        weight=weight,
        hessian=hessian,
        bits=bits,
        group_size=group_size,
        percdamp=percdamp,
        hessian_scale=hessian_scale,
    )
    (result,) = run_solver_tasks(
        [task], policy=policy, journal=journal, cache=cache
    )
    return result


@dataclasses.dataclass
class SolverTask:
    """One layer (or head-slice) quantization problem of a protocol stage.

    ``key`` names the task in journals (layer name, optionally with a
    ``[head h]`` suffix); the remaining fields are the arguments of
    :func:`robust_quantize_layer`.
    """

    key: str
    weight: np.ndarray
    hessian: np.ndarray
    bits: int
    group_size: int | None = None
    percdamp: float = 0.01
    # Quantize against ``hessian_scale · hessian`` (KronQ per-head scale);
    # 1.0 is the plain path.
    hessian_scale: float = 1.0


def _settle_factor(
    task: SolverTask,
    policy: RecoveryPolicy,
    journal: RunJournal,
    cache: "HessianFactorCache",
) -> "HessianFactor | None":
    """Climb the ladder until the task's Hessian factorizes.

    Only the factorization raises ``LinAlgError``, so every rung is an
    attempt at the factor; the sweep runs afterwards, once.  Returns the
    factor, or ``None`` when the task falls to the RTN rung.
    """

    def attempt(matrix: np.ndarray, damp: float) -> "HessianFactor":
        faults.maybe_fault("cholesky", task.key)
        return cache.scaled_factor(matrix, task.hessian_scale, damp)

    percdamp = task.percdamp
    last_error: Exception | None = None

    # Rung 1: plain retries at the requested damping.
    for attempt_index in range(1 + policy.retries):
        try:
            return attempt(task.hessian, percdamp)
        except np.linalg.LinAlgError as error:
            last_error = error
            if attempt_index < policy.retries:
                journal.record(
                    "retry",
                    layer=task.key,
                    message=f"Cholesky failed ({error}); retrying at "
                    f"percdamp={percdamp:g}",
                    attempt=attempt_index + 1,
                    percdamp=percdamp,
                )

    # Rung 2: geometric damping escalation up to the cap.
    for damp in policy.escalation_schedule(percdamp):
        journal.record(
            "damp-escalation",
            layer=task.key,
            message=f"Cholesky failed ({last_error}); escalating damping to "
            f"percdamp={damp:g}",
            percdamp=damp,
        )
        try:
            return attempt(task.hessian, damp)
        except np.linalg.LinAlgError as error:
            last_error = error

    # Rung 3: eigenvalue clipping.
    journal.record(
        "eigenvalue-clip",
        layer=task.key,
        message=f"damping exhausted ({last_error}); clipping Hessian "
        f"spectrum at {policy.eig_floor_scale:g} of the top eigenvalue",
        eig_floor_scale=policy.eig_floor_scale,
    )
    try:
        return attempt(
            clip_hessian_eigenvalues(task.hessian, policy.eig_floor_scale),
            percdamp,
        )
    except np.linalg.LinAlgError as error:
        last_error = error

    # Rung 4: Hessian-free RTN.
    if not policy.allow_rtn_fallback:
        raise NumericalRecoveryError(
            f"recovery ladder exhausted for layer {task.key or '<unnamed>'}: "
            f"{last_error}"
        ) from last_error
    journal.record(
        "rtn-fallback",
        layer=task.key,
        message=f"eigenvalue clip failed ({last_error}); quantizing with "
        "plain RTN (no error compensation)",
        bits=task.bits,
    )
    return None


def run_solver_tasks(
    tasks: Sequence[SolverTask],
    *,
    policy: Optional[RecoveryPolicy] = None,
    journal: Optional[RunJournal] = None,
    cache: Optional["HessianFactorCache"] = None,
) -> list["SolverResult"]:
    """Solve ``tasks`` behind the ladder; results in task order.

    First every task's factor is settled through the ladder, in task
    order, so ladder events land in ``journal`` in task order; ``cache``
    (a stage-local one when ``None``) reuses Cholesky factors across
    tasks that share a Hessian.  Then the tasks that kept a factor are
    swept with one :func:`~repro.quant.solver.quantize_with_hessian` call
    per ``(d_in, d_out, group_size)`` group, and the rest fall back to
    RTN.  Each result is bitwise what the task's own
    :func:`robust_quantize_layer` call returns.
    """
    # Lazy for the same import-cycle reason as in _rtn_solver_result; the
    # solver entry point is looked up at call time, so a wrapper installed
    # on the module sees every sweep.
    from repro.quant import solver

    policy = policy or RecoveryPolicy()
    journal = journal if journal is not None else RunJournal()
    cache = cache if cache is not None else solver.HessianFactorCache()
    factors = [_settle_factor(task, policy, journal, cache) for task in tasks]

    results: list = [None] * len(tasks)
    groups: dict[tuple, list[int]] = {}
    for index, (task, factor) in enumerate(zip(tasks, factors)):
        if factor is None:
            results[index] = _rtn_solver_result(
                task.weight, task.bits, task.group_size
            )
        else:
            key = (*np.shape(task.weight), task.group_size)
            groups.setdefault(key, []).append(index)
    for indices in groups.values():
        stacked = solver.quantize_with_hessian(
            np.stack([tasks[i].weight for i in indices]),
            [factors[i] for i in indices],
            bits=[tasks[i].bits for i in indices],
            group_size=tasks[indices[0]].group_size,
        )
        for index, result in zip(indices, stacked):
            results[index] = result
    return results


def hessian_inverse(
    hessian: np.ndarray,
    journal: Optional[RunJournal] = None,
    layer: str = "",
    cache: Optional[MutableMapping[str, np.ndarray]] = None,
) -> np.ndarray:
    """Dense Hessian inverse with a pseudo-inverse fallback.

    The sanctioned route for code that needs ``H^{-1}`` explicitly (OBQ's
    Eq. (4) downdating): a singular Hessian degrades to the Moore-Penrose
    pseudo-inverse and records a ``pinv-fallback`` event instead of
    raising.  With ``cache`` (any mapping) the inverse is memoized by
    content fingerprint; cached arrays are returned read-only, so pass a
    cache only when callers copy before mutating.
    """
    if cache is not None:
        # Lazy for the same import-cycle reason as in _rtn_solver_result.
        from repro.quant.solver import hessian_fingerprint

        key = hessian_fingerprint(hessian)
        hit = cache.get(key)
        if hit is not None:
            return hit
    try:
        inverse = np.linalg.inv(hessian)
    except np.linalg.LinAlgError as error:
        if journal is not None:
            journal.record(
                "pinv-fallback",
                layer=layer,
                message=f"dense inverse failed ({error}); using the "
                "Moore-Penrose pseudo-inverse",
            )
        inverse = np.linalg.pinv(np.asarray(hessian, dtype=np.float64),
                                 hermitian=True)
    if cache is not None:
        inverse.setflags(write=False)
        cache[key] = inverse
    return inverse
