"""Second-order error-compensated quantization solver.

This is the shared inner loop of OBQ/GPTQ/APTQ (paper Eqs. (2), (3), (16),
(17)): quantize one input channel at a time and update the not-yet-quantized
channels to compensate, using the inverse Hessian.  Following GPTQ, channels
are processed in a fixed order with a Cholesky reformulation: with
``U = chol(H^{-1})`` (upper), the optimal update for channel ``j`` is

    err = (w_j - quant(w_j)) / U_jj
    W[j+1:] -= U[j, j+1:]^T err          (paper Eq. (17))

The solver is Hessian-agnostic: GPTQ passes ``H = 2 X X^T`` while APTQ
passes the attention-aware Levenberg-Marquardt Hessian ``2 F'(W) F'(W)^T``
(paper Eq. (7)); everything downstream of the Hessian is identical, which is
what isolates APTQ's contribution in the ablations.

Weights here are ``(d_in, d_out)`` so "channels" are rows; this corresponds
one-to-one to the column sweep in the papers' ``(d_out, d_in)`` convention.

Sweep schedules
---------------
Two sweep schedules implement the *same* arithmetic (see
``docs/PERFORMANCE.md`` and ``tests/test_quant_differential.py``, which
pin every output array — codes, scales, zero-points, dequantized weights —
bit-for-bit equal over a seeded problem matrix; the scalar
``compensated_loss`` diagnostic matches to machine precision, not bitwise,
because it sums error vectors whose trailing ulps depend on the schedule):

* :func:`quantize_with_hessian_reference` — the textbook column-at-a-time
  sweep: every channel's error immediately compensates the entire trailing
  matrix with a rank-1 update.  Obviously correct, memory-bound (the
  trailing matrix streams through cache once per channel); it is the
  oracle the tests and the ``solver-512x512`` bench record compare against.
* :func:`quantize_with_hessian` — GPTQ's lazy-batch schedule, two-level:
  rank-1 updates stay inside a ``MICRO_BLOCKSIZE`` tile, each tile flushes
  into the rest of its ``blocksize`` block with one small matrix product,
  and each block flushes into the trailing matrix with one rank-``B``
  product (a single BLAS GEMM instead of ``B`` full-width rank-1 passes).
  It sweeps a stack of same-shaped tasks at once (a leading task axis,
  one Hessian factor, width, damping and scale per task — a block's
  per-head Q/K/V slices, say): each row step runs once for the stack, and
  every task's arithmetic is elementwise, reduced along its own rows, or
  one BLAS product of its own, so each task's output is bitwise that of
  its own 2-D call.

Both schedules quantize against **static group grids**: every group's
scale/zero-point is fitted up front on the dead-channel-zeroed original
weights, exactly like GPTQ's ``--static-groups`` option.  Static grids are
what make the schedules bit-identical — a grid fitted on *compensated*
weights would inherit the schedule's floating-point summation order
through the group min/max.

Repeated factorization of one Hessian (Q/K/V share their input Gram
matrix; the recovery ladder re-attempts layers) is avoided by passing a
:class:`HessianFactorCache`, which memoizes the damped Cholesky factor by
content fingerprint.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from repro.quant.groupwise import (
    GroupQuantResult,
    group_params,
    resolve_group_size,
)
from repro.quant.uniform import QuantParams, dequantize, quantize

__all__ = [
    "MICRO_BLOCKSIZE",
    "SolverResult",
    "HessianFactor",
    "HessianFactorCache",
    "prepare_hessian",
    "inverse_cholesky",
    "hessian_fingerprint",
    "factorize_hessian",
    "quantize_with_hessian",
    "quantize_with_hessian_reference",
]

#: Width of the eager rank-1 tile inside a lazy block (see module docstring).
MICRO_BLOCKSIZE = 16

@dataclasses.dataclass
class SolverResult:
    """Output of one layer's quantization."""

    quantized_weight: np.ndarray
    group_result: GroupQuantResult
    compensated_loss: float
    mse: float

    @property
    def bits(self) -> int:
        """Bit-width the layer was quantized to."""
        return self.group_result.bits


def prepare_hessian(
    hessian: np.ndarray, percdamp: float = 0.01
) -> tuple[np.ndarray, np.ndarray]:
    """Damp ``H`` and return ``(H_damped, dead_channel_mask)``.

    Dead channels (zero diagonal — inputs never active during calibration)
    get a unit diagonal so the Cholesky succeeds; their weights carry no
    signal and are zeroed by the solver.
    """
    hessian = np.array(hessian, dtype=np.float64, copy=True)
    if hessian.ndim != 2 or hessian.shape[0] != hessian.shape[1]:
        raise ValueError("hessian must be square")
    diagonal = np.diagonal(hessian).copy()
    dead = diagonal <= 0
    if dead.any():
        hessian[dead, :] = 0.0
        hessian[:, dead] = 0.0
        hessian[dead, dead] = 1.0
        diagonal = np.diagonal(hessian).copy()
    damp = percdamp * float(diagonal.mean())
    hessian[np.diag_indices_from(hessian)] += damp
    return hessian, dead


def inverse_cholesky(hessian: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor of ``H^{-1}`` (the GPTQ reformulation)."""
    identity = np.eye(hessian.shape[0])
    lower = np.linalg.cholesky(hessian)
    inv = np.linalg.solve(lower.T, np.linalg.solve(lower, identity))
    # np.linalg.cholesky returns the lower factor of ``inv``; we need the
    # upper factor U with inv = U^T U ... equivalently chol(inv).T.
    return np.linalg.cholesky(inv).T


def hessian_fingerprint(hessian: np.ndarray) -> str:
    """Content digest of a Hessian, the key of :class:`HessianFactorCache`.

    Hashes dtype, shape, and raw bytes — two Hessians share a fingerprint
    iff they are bit-identical arrays, so a cache hit returns exactly the
    factor a fresh factorization would produce.
    """
    array = np.ascontiguousarray(np.asarray(hessian, dtype=np.float64))
    digest = hashlib.blake2b(digest_size=20)
    digest.update(str(array.shape).encode())
    digest.update(array.tobytes())
    return digest.hexdigest()


@dataclasses.dataclass(frozen=True)
class HessianFactor:
    """Everything :func:`quantize_with_hessian` derives from the Hessian.

    ``inv_upper`` is the upper Cholesky factor of the damped ``H^{-1}``,
    ``dead`` flags zero-diagonal channels.  Arrays are frozen read-only so
    one factor can be shared safely across layers and cache hits.
    """

    inv_upper: np.ndarray
    dead: np.ndarray


def factorize_hessian(
    hessian: np.ndarray,
    percdamp: float = 0.01,
    scale: float = 1.0,
) -> HessianFactor:
    """Damp and Cholesky-factorize one Hessian.

    ``scale`` factorizes ``scale · H`` without materialising it: the
    damping is *relative* (``percdamp · mean(diag)``), so it commutes with
    a positive scale; dead-channel detection is scale-invariant; and
    ``chol((s·H_damped)^{-1}) = chol(H_damped^{-1}) / sqrt(s)``.  This
    is what lets a Kronecker-factored Hessian family ``{g_h · A}`` share a
    single O(D³) factorization of ``A`` across heads (KronQ).

    This is the solver's only expensive Hessian-side computation; callers
    quantizing several weight matrices against one Hessian (Q/K/V, retry
    rungs) should route through :class:`HessianFactorCache` instead of
    calling this directly — the ``perf-raw-factorization`` lint rule
    enforces exactly that outside this module.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    damped, dead = prepare_hessian(hessian, percdamp)
    inv_upper = inverse_cholesky(damped)
    if scale != 1.0:
        inv_upper = inv_upper / np.sqrt(scale)
    inv_upper.setflags(write=False)
    dead.setflags(write=False)
    return HessianFactor(inv_upper=inv_upper, dead=dead)


class HessianFactorCache:
    """Memoizes :func:`factorize_hessian` by Hessian content fingerprint.

    Keys are ``(fingerprint, percdamp)``; entries are evicted
    FIFO beyond ``max_entries`` (factors are ``(d_in, d_in)`` float64, so
    the cache bounds its own memory).  A hit is bit-identical to a fresh
    factorization — toggling the cache can never change solver output.
    """

    def __init__(self, max_entries: int = 16) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._entries: dict[tuple[str, float], HessianFactor] = {}
        self._derived: dict[tuple[str, float, float], HessianFactor] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def factor(self, hessian: np.ndarray, percdamp: float) -> HessianFactor:
        """Cached equivalent of ``factorize_hessian(hessian, percdamp)``."""
        key = (hessian_fingerprint(hessian), float(percdamp))
        cached = self._entries.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        factor = factorize_hessian(hessian, percdamp)
        if len(self._entries) >= self.max_entries:
            self._entries.pop(next(iter(self._entries)))
        self._entries[key] = factor
        return factor

    def scaled_factor(
        self, hessian: np.ndarray, scale: float, percdamp: float
    ) -> HessianFactor:
        """Factor of ``scale · hessian``, derived from the cached base.

        The Kronecker-aware entry: the O(D³) factorization of ``hessian``
        happens (at most) once via :meth:`factor`; each distinct scale
        costs only an O(D²) rescale of the inverse Cholesky factor.  The
        derived entry matches ``factorize_hessian(hessian, ..., scale=s)``
        exactly (same base factor, same rescale).
        """
        scale = float(scale)
        if scale <= 0:
            raise ValueError("scale must be positive")
        if scale == 1.0:
            return self.factor(hessian, percdamp)
        key = (hessian_fingerprint(hessian), scale, float(percdamp))
        cached = self._derived.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        base = self.factor(hessian, percdamp)
        inv_upper = base.inv_upper / np.sqrt(scale)
        inv_upper.setflags(write=False)
        derived = HessianFactor(inv_upper=inv_upper, dead=base.dead)
        if len(self._derived) >= self.max_entries:
            self._derived.pop(next(iter(self._derived)))
        self._derived[key] = derived
        return derived


def _static_group_grids(
    working: np.ndarray, group_size: int, bits: int
) -> tuple[list[QuantParams], np.ndarray, np.ndarray]:
    """Fit every group's grid up front on the pre-compensation weights.

    Bits:
        group_size: i64[1, *]
        bits: i64[1, 32]
        return: any
    """
    d_in, d_out = working.shape
    n_groups = (d_in + group_size - 1) // group_size
    grids: list[QuantParams] = []
    scales = np.empty((n_groups, d_out))
    zeros = np.empty((n_groups, d_out))
    for group in range(n_groups):
        rows = slice(group * group_size, min((group + 1) * group_size, d_in))
        params = group_params(working, rows, bits)
        grids.append(params)
        scales[group] = params.scale
        zeros[group] = params.zero
    return grids, scales, zeros


def _sweep_reference(
    working: np.ndarray,
    inv_upper: np.ndarray,
    grids: list[QuantParams],
    group_size: int,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Column-at-a-time sweep: eager rank-1 updates over the full trailing
    matrix (the executable specification the blocked schedule is tested
    against).

    Bits:
        working: f64
        inv_upper: f64
        group_size: i64[1, *]
        return: any
    """
    d_in, d_out = working.shape
    quantized = np.empty_like(working)
    codes = np.empty((d_in, d_out), dtype=np.int64)
    loss = 0.0
    for row in range(d_in):
        params = grids[row // group_size]
        row_codes = quantize(working[row], params)
        row_quant = dequantize(row_codes, params)
        codes[row] = row_codes
        quantized[row] = row_quant
        err = (working[row] - row_quant) / inv_upper[row, row]
        loss += 0.5 * float((err**2).sum())
        # Compensate every remaining channel immediately (Eq. (17)).
        if row + 1 < d_in:
            working[row + 1 :] -= np.outer(inv_upper[row, row + 1 :], err)
    return quantized, codes, loss


def _sweep_blocked(
    working: np.ndarray,
    inv_upper: np.ndarray,
    scales: np.ndarray,
    zeros: np.ndarray,
    n_levels: np.ndarray,
    group_size: int,
    blocksize: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-level lazy-batch sweep of a task stack (see module docstring).

    ``working`` is ``(T, d_in, d_out)`` and ``inv_upper`` ``(T, d_in,
    d_in)``; ``scales``/``zeros`` are the tasks' static grids ``(T,
    n_groups, d_out)`` and ``n_levels`` their largest codes ``(T, 1)``.
    Rank-1 updates touch at most ``MICRO_BLOCKSIZE`` rows; each tile then
    flushes its accumulated errors into the rest of the block, and each
    block flushes into the trailing matrix, with single matrix products.
    Every operation is elementwise per task, a reduction along one task's
    row, or one ``matmul`` per task slice, so each task's arithmetic is
    that of its own one-task sweep.  Returns the dequantized stack, the
    codes and each task's ``compensated_loss``.

    Bits:
        working: f64
        inv_upper: f64
        group_size: i64[1, *]
        blocksize: i64[1, *]
        return: any
    """
    n_tasks, d_in, d_out = working.shape
    quantized = np.empty_like(working)
    codes = np.empty(working.shape, dtype=np.int64)
    diagonal = np.diagonal(inv_upper, axis1=1, axis2=2)[:, :, None]
    # Row-wise squared errors, summed in row order at the end exactly as a
    # running ``loss += 0.5 * err_sq`` would.
    half_sq = np.empty((d_in, n_tasks))
    for block_start in range(0, d_in, blocksize):
        block_end = min(block_start + blocksize, d_in)
        count = block_end - block_start
        block_weight = working[:, block_start:block_end].copy()
        block_errors = np.empty_like(block_weight)
        block_inv = inv_upper[:, block_start:block_end, block_start:block_end]
        for micro_start in range(0, count, MICRO_BLOCKSIZE):
            micro_end = min(micro_start + MICRO_BLOCKSIZE, count)
            for local in range(micro_start, micro_end):
                row = block_start + local
                scale = scales[:, row // group_size]
                zero = zeros[:, row // group_size]
                row_weight = block_weight[:, local]
                # repro.quant.uniform.quantize / dequantize, per task grid.
                row_codes = np.clip(
                    np.round(row_weight / scale + zero), 0, n_levels
                ).astype(np.int64)
                row_quant = (row_codes - zero) * scale
                codes[:, row] = row_codes
                quantized[:, row] = row_quant
                err = (row_weight - row_quant) / diagonal[:, row]
                # Tile flushes run in the fixed row/tile/block order the
                # sweep defines; bit-identity against _sweep_reference is
                # pinned by tests/test_quant_differential.py.
                half_sq[row] = 0.5 * (err**2).sum(axis=1)
                if local + 1 < micro_end:
                    block_weight[:, local + 1 : micro_end] -= (
                        block_inv[:, local, local + 1 : micro_end, None]
                        * err[:, None, :]
                    )
                block_errors[:, local] = err
            # Flush the tile's errors into the rest of the block.
            if micro_end < count:
                block_weight[:, micro_end:] -= np.matmul(
                    block_inv[:, micro_start:micro_end, micro_end:].transpose(
                        0, 2, 1
                    ),
                    block_errors[:, micro_start:micro_end],
                )
        # Lazy-batched rank-B compensation of all rows after the block.
        if block_end < d_in:
            working[:, block_end:] -= np.matmul(
                inv_upper[:, block_start:block_end, block_end:].transpose(
                    0, 2, 1
                ),
                block_errors,
            )
    return quantized, codes, np.cumsum(half_sq, axis=0)[-1]


def _task_factor(
    hessian: np.ndarray | HessianFactor,
    d_in: int,
    percdamp: float,
    cache: HessianFactorCache | None,
    hessian_scale: float,
) -> HessianFactor:
    """The factor one task sweeps with: a settled factor as given, else
    the (cached) factorization of ``hessian_scale · hessian``."""
    settled = isinstance(hessian, HessianFactor)
    shape = hessian.inv_upper.shape if settled else np.shape(hessian)
    if shape != (d_in, d_in):
        raise ValueError(f"hessian shape {shape} does not match d_in={d_in}")
    if settled:
        return hessian
    if cache is not None:
        return cache.scaled_factor(hessian, hessian_scale, percdamp)
    return factorize_hessian(hessian, percdamp, scale=hessian_scale)


def _per_task(value, n_tasks: int, name: str) -> list:
    """One entry per task: a scalar repeats, a sequence must match."""
    if np.ndim(value) == 0:
        return [value] * n_tasks
    values = list(value)
    if len(values) != n_tasks:
        raise ValueError(
            f"{name} holds {len(values)} entries for {n_tasks} tasks"
        )
    return values


def _prepare(
    weight: np.ndarray,
    hessian,
    bits,
    group_size: int | None,
    percdamp,
    cache: HessianFactorCache | None,
    hessian_scale,
) -> tuple:
    """Validate, factorize, and fit the static grids of a task stack.

    ``weight`` is ``(T, d_in, d_out)``; ``hessian`` holds one Hessian (or
    settled :class:`HessianFactor`) per task, and ``bits``, ``percdamp``
    and ``hessian_scale`` a scalar or one value per task.  Returns the
    float64 weights, the working copy a sweep compensates in place (dead
    channels zeroed), the stacked inverse Cholesky factors, the resolved
    group size, each task's width, and each task's static grids with
    their scale/zero arrays.
    """
    weight = np.asarray(weight, dtype=np.float64)
    if weight.ndim != 3:
        raise ValueError(
            "expected a 2-D weight matrix or a (tasks, d_in, d_out) stack"
        )
    n_tasks, d_in, _ = weight.shape
    if len(hessian) != n_tasks:
        raise ValueError(
            f"{len(hessian)} Hessians given for {n_tasks} weight matrices"
        )
    bits = _per_task(bits, n_tasks, "bits")
    percdamp = _per_task(percdamp, n_tasks, "percdamp")
    hessian_scale = _per_task(hessian_scale, n_tasks, "hessian_scale")
    group_size = resolve_group_size(d_in, group_size)

    working = weight.copy()
    inv_upper = np.empty((n_tasks, d_in, d_in))
    grids = []
    for task in range(n_tasks):
        factor = _task_factor(
            hessian[task], d_in, percdamp[task], cache, hessian_scale[task]
        )
        inv_upper[task] = factor.inv_upper
        working[task, factor.dead] = 0.0
        grids.append(_static_group_grids(working[task], group_size, bits[task]))
    return weight, working, inv_upper, group_size, bits, grids


def _solver_results(
    weight: np.ndarray,
    group_size: int,
    bits: list[int],
    grids: list[tuple[list[QuantParams], np.ndarray, np.ndarray]],
    swept: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> list[SolverResult]:
    """Assemble a stacked sweep's output into one result per task."""
    quantized, codes, losses = swept
    results = []
    for task, (_, scales, zeros) in enumerate(grids):
        group_result = GroupQuantResult(
            codes=codes[task],
            scales=scales,
            zeros=zeros,
            bits=bits[task],
            group_size=group_size,
        )
        mse = float(((weight[task] - quantized[task]) ** 2).mean())
        results.append(
            SolverResult(
                quantized_weight=quantized[task],
                group_result=group_result,
                compensated_loss=float(losses[task]),
                mse=mse,
            )
        )
    return results


def quantize_with_hessian(
    weight: np.ndarray,
    hessian,
    bits,
    group_size: int | None = None,
    blocksize: int = 128,
    percdamp=0.01,
    cache: HessianFactorCache | None = None,
    hessian_scale=1.0,
) -> SolverResult | list[SolverResult]:
    """Quantize ``weight`` with error compensation driven by ``hessian``.

    Parameters mirror GPTQ: ``group_size`` for the quantization grid
    granularity, ``blocksize`` for the lazy-batched update, ``percdamp`` for
    diagonal damping.  Channels are swept in their natural order, so the
    result's codes are row-aligned with ``weight``.  The sweep is the
    lazy-batch blocked schedule, bit-identical to
    :func:`quantize_with_hessian_reference` (see module docstring);
    ``cache`` reuses Cholesky factors across calls sharing a Hessian.
    ``hessian_scale`` quantizes against ``hessian_scale · hessian``
    without materialising the product (the KronQ per-head Hessians are
    positive multiples of one shared input Gram, so all heads reuse a
    single cached factorization).

    A ``(T, d_in, d_out)`` ``weight`` is a stack of ``T`` tasks swept
    together: ``hessian`` then holds one ``(d_in, d_in)`` Hessian per
    task, and ``bits``, ``percdamp`` and ``hessian_scale`` a scalar or one
    value per task.  A task's Hessian may also be the
    :class:`HessianFactor` already settled for it (the recovery ladder
    passes its own), which is swept with as given.  The call returns one
    :class:`SolverResult` per task, each bitwise the result of that task's
    own 2-D call; a 2-D call is the one-task case and returns its result.

    Bits:
        group_size: i64[1, *]
        blocksize: i64[1, *]
        return: any
    """
    if blocksize <= 0:
        raise ValueError("blocksize must be positive")
    single = np.ndim(weight) == 2
    if single:
        weight = np.asarray(weight)[None]
        hessian = [hessian]
        bits, percdamp, hessian_scale = [bits], [percdamp], [hessian_scale]
    weight, working, inv_upper, group_size, bits, grids = _prepare(
        weight, hessian, bits, group_size, percdamp, cache, hessian_scale
    )
    swept = _sweep_blocked(
        working,
        inv_upper,
        np.stack([scales for _, scales, _ in grids]),
        np.stack([zeros for _, _, zeros in grids]),
        np.array([[(1 << b) - 1] for b in bits]),
        group_size,
        blocksize,
    )
    results = _solver_results(weight, group_size, bits, grids, swept)
    return results[0] if single else results


def quantize_with_hessian_reference(
    weight: np.ndarray,
    hessian: np.ndarray,
    bits: int,
    group_size: int | None = None,
    percdamp: float = 0.01,
    cache: HessianFactorCache | None = None,
) -> SolverResult:
    """Column-at-a-time solver: the slow, obviously-correct specification."""
    weight, working, inv_upper, group_size, bits, grids = _prepare(
        np.asarray(weight)[None], [hessian], bits, group_size, percdamp,
        cache, 1.0,
    )
    quantized, codes, loss = _sweep_reference(
        working[0], inv_upper[0], grids[0][0], group_size
    )
    swept = (quantized[None], codes[None], [loss])
    return _solver_results(weight, group_size, bits, grids, swept)[0]
