"""Attention-aware Levenberg-Marquardt Hessians (paper Eq. (7)).

For each attention projection, the Hessian used by the solver is the
Gauss-Newton matrix of the block-output reconstruction objective
``||F(W) - F(Ŵ)||²`` (paper Eq. (5)), restricted to the input dimension:

* ``o_proj`` — ``F`` is linear in W^O with input ``C = Concat(heads)``, so
  the Hessian is exact and closed-form: ``H = (2·D/n) C^T C`` (this reduces
  to the GPTQ Hessian of the layer, as Eq. (9) implies).
* ``v_proj`` — per head, ``F`` is linear in W_h^V with effective input
  ``A_h = P_h X`` and output-side factor W_h^O (Eq. (10)); collapsing the
  output side to its mean gain gives the per-head closed form
  ``H_h = (2·g_h/n) A_h^T A_h`` with ``g_h = ||W_h^O||_F² / d``.
* ``q_proj`` / ``k_proj`` — ``F`` is *nonlinear* (softmax) in these, so the
  Gauss-Newton matrix is estimated with Rademacher probes: for seeds S with
  iid ±1 entries, ``E[G_S G_S^T] = Σ_{t,o} J_{t,o} J_{t,o}^T`` where
  ``G_S = ∂<F,S>/∂W`` comes from the analytic Eqs. (12)/(13)
  (:func:`repro.core.attention_grads.attention_seeded_gradients`).

All Hessians are normalised per token so their traces are comparable
across layers — the quantity Algorithm 1 (line 12) ranks.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from repro.core.attention_grads import (
    attention_preactivation_gradients_batched,
    attention_seeded_gradients,
    contract_block_input,
    probe_chunks,
)
from repro.nn.attention import AttentionCapture, MultiHeadAttention
from repro.nn.transformer import LlamaModel
from repro.quant.calibration_hooks import (
    CalibrationCaptureStream,
    SharedGramCache,
)

__all__ = [
    "AttentionHessians",
    "AttentionHessianAccumulator",
    "CalibrationCaptureStream",
    "SharedGramCache",
    "PROBE_MODES",
    "add_closed_forms",
    "capture_attention",
    "attention_hessians",
    "attention_hessians_from_captures",
    "exact_gauss_newton",
    "head_column_slices",
]

#: Probe-loop strategies for the q/k Gauss-Newton estimator.  ``batched``
#: draws each probe chunk's Rademacher seeds at once and runs the probe
#: and head loops as stacked matmuls; ``reference`` is the original
#: per-probe Python loop.  Both consume the *same* rng element stream (a
#: ``(chunk, b, s, D)`` draw fills row-major, so probe ``p``'s slice equals
#: the ``p``-th sequential draw) and accumulate per-probe terms in the same
#: order, so they are bitwise interchangeable — pinned by the differential
#: tests.
PROBE_MODES = ("batched", "reference")


@dataclasses.dataclass
class AttentionHessians:
    """Per-projection Hessians for one attention block.

    ``q``, ``k``, ``v`` hold one ``(D, D)`` matrix per head (each head's
    column slice of the weight is quantized against its own Hessian);
    ``o`` is a single ``(D, D)`` matrix.
    """

    q: list[np.ndarray]
    k: list[np.ndarray]
    v: list[np.ndarray]
    o: np.ndarray
    _full_cache: dict[str, np.ndarray] = dataclasses.field(
        default_factory=dict, repr=False, compare=False
    )

    def _per_head(self, projection: str) -> list[np.ndarray]:
        return {"q_proj": self.q, "k_proj": self.k, "v_proj": self.v}[
            projection
        ]

    def full_matrix(self, projection: str) -> np.ndarray:
        """Head-averaged Hessian, memoized per projection.

        The sensitivity sweep asks for the same projection's matrix under
        several bit-widths; the head mean is computed once and cached.
        """
        if projection == "o_proj":
            return self.o
        cached = self._full_cache.get(projection)
        if cached is None:
            cached = np.mean(self._per_head(projection), axis=0)
            self._full_cache[projection] = cached
        return cached

    def mean_trace(self, projection: str) -> float:
        """Average Hessian trace (trace / dimension) of a projection.

        Reduces the per-head *diagonals* directly — no ``(D, D)``
        head-averaged temporary.  The element-wise head mean and the
        diagonal sum run in the same order as
        ``np.trace(full_matrix(projection))``, so the value is bitwise
        unchanged.
        """
        if projection == "o_proj":
            return float(np.trace(self.o) / self.o.shape[0])
        diagonals = [np.diagonal(m) for m in self._per_head(projection)]
        diag_mean = np.mean(diagonals, axis=0)
        return float(diag_mean.sum() / diag_mean.shape[0])


def capture_attention(
    model: LlamaModel, ids: np.ndarray, block_index: int
) -> AttentionCapture:
    """Forward ``ids`` and capture block ``block_index``'s intermediates."""
    if not 0 <= block_index < len(model.blocks):
        raise IndexError(f"block index {block_index} out of range")
    ids = np.atleast_2d(np.asarray(ids))
    x = model.embed.weight.data[ids]
    for index, block in enumerate(model.blocks):
        if index == block_index:
            _, capture = block.forward_array(x, capture=True)
            return capture
        x = block.forward_array(x)
    raise AssertionError("unreachable")


def add_closed_forms(
    capture: AttentionCapture,
    head_gain: np.ndarray,
    h_v: list[np.ndarray],
    h_o: np.ndarray,
) -> None:
    """Add one batch's exact o_proj and per-head v_proj Hessian sums.

    ``h_o += D · C^T C`` and ``h_v[h] += g_h · A_h^T A_h`` with
    ``A_h = P_h X``, the effective per-head input of W_h^V.  Each head's
    ``A_h`` is formed inside the head loop, one ``(s, s) @ (s, D)`` matmul
    per sequence, so only one head's ``(b, s, D)`` input is alive at a
    time.  Both Hessian engines share these closed forms.

    Shapes:
        capture: any
        head_gain: (h,) f64
        h_v: any
        h_o: (D, D) f64
    """
    b, s, d_model = capture.x.shape
    heads_flat = capture.heads.reshape(b * s, d_model)
    h_o += d_model * (heads_flat.T @ heads_flat)
    for h, gain in enumerate(head_gain):
        a_flat = np.matmul(capture.probs[:, h], capture.x).reshape(
            b * s, d_model
        )
        # Accumulation is per-block-local: parallel fan-out is per block,
        # so one worker owns this accumulator end to end.
        h_v[h] += gain * (a_flat.T @ a_flat)  # lint: disable=wp-order-dependent-reduction


class AttentionHessianAccumulator:
    """Streaming accumulator for one block's four projection Hessians.

    Feed one :class:`AttentionCapture` per calibration batch via
    :meth:`add`, then :meth:`finalize` applies the per-token
    normalisation.  Both probe modes (see :data:`PROBE_MODES`) produce
    bitwise-identical sums: the batched path draws each probe chunk's
    seeds in one rng call as the chunk runs (same element stream as
    sequential draws, and never more than a chunk of probes alive),
    computes every probe's q/k gradient through stacked matmuls whose
    per-probe slices run the same GEMMs as the unbatched chain, and adds
    the per-probe outer products in the original probe-ascending order per
    head (the per-head sequences are independent, so hoisting the head
    loop is order-preserving).
    """

    def __init__(
        self,
        attn: MultiHeadAttention,
        n_probes: int = 8,
        seed: int = 0,
        probe_mode: str = "batched",
    ) -> None:
        if n_probes <= 0:
            raise ValueError("n_probes must be positive")
        if probe_mode not in PROBE_MODES:
            raise ValueError(
                f"unknown probe_mode {probe_mode!r}; expected one of "
                f"{PROBE_MODES}"
            )
        self.attn = attn
        self.n_probes = n_probes
        self.probe_mode = probe_mode
        self.rng = np.random.default_rng(seed)
        d_model = attn.d_model
        n_heads = attn.n_heads
        d_head = attn.d_head
        self.h_q = [np.zeros((d_model, d_model)) for _ in range(n_heads)]
        self.h_k = [np.zeros((d_model, d_model)) for _ in range(n_heads)]
        self.h_v = [np.zeros((d_model, d_model)) for _ in range(n_heads)]
        self.h_o = np.zeros((d_model, d_model))
        self.n_tokens = 0
        w_o = attn.o_proj.weight.data
        self.head_gain = np.array(
            [
                (w_o[h * d_head : (h + 1) * d_head] ** 2).sum() / d_head
                for h in range(n_heads)
            ]
        )

    def add(self, capture: AttentionCapture) -> None:
        """Accumulate one calibration batch's contribution."""
        attn = self.attn
        d_model = attn.d_model
        n_heads = attn.n_heads
        d_head = attn.d_head
        b, s, _ = capture.x.shape
        self.n_tokens += b * s
        add_closed_forms(capture, self.head_gain, self.h_v, self.h_o)

        # Probed Gauss-Newton for q/k (softmax nonlinearity).
        if self.probe_mode == "batched":
            # Only q/k are estimated here; they do not depend on the v/o
            # gradients, so those are never formed.  Chunks run in probe
            # order, so each head still adds its outer products ascending.
            for chunk in probe_chunks(capture, self.n_probes):
                probes = self.rng.choice(
                    [-1.0, 1.0], size=(chunk.stop - chunk.start, b, s, d_model)
                )
                gq_pre, gk_pre = attention_preactivation_gradients_batched(
                    attn, capture, probes
                )
                grads_q = contract_block_input(capture.x, gq_pre)
                grads_k = contract_block_input(capture.x, gk_pre)
                for h in range(n_heads):
                    cols = slice(h * d_head, (h + 1) * d_head)
                    gq = grads_q[:, :, cols]  # (chunk, D, d)
                    gk = grads_k[:, :, cols]
                    outer_q = (
                        np.matmul(gq, gq.transpose(0, 2, 1)) / self.n_probes
                    )
                    outer_k = (
                        np.matmul(gk, gk.transpose(0, 2, 1)) / self.n_probes
                    )
                    for p in range(outer_q.shape[0]):
                        self.h_q[h] += outer_q[p]  # lint: disable=wp-order-dependent-reduction
                        self.h_k[h] += outer_k[p]  # lint: disable=wp-order-dependent-reduction
        else:
            for _ in range(self.n_probes):
                probe = self.rng.choice([-1.0, 1.0], size=(b, s, d_model))
                grads = attention_seeded_gradients(attn, capture, probe)
                for h in range(n_heads):
                    cols = slice(h * d_head, (h + 1) * d_head)
                    gq = grads.q[:, cols]
                    gk = grads.k[:, cols]
                    self.h_q[h] += gq @ gq.T / self.n_probes  # lint: disable=wp-order-dependent-reduction
                    self.h_k[h] += gk @ gk.T / self.n_probes  # lint: disable=wp-order-dependent-reduction

    def finalize(self) -> AttentionHessians:
        """Per-token-normalised Hessians for everything accumulated."""
        if self.n_tokens == 0:
            raise ValueError("no calibration tokens")
        norm = 2.0 / self.n_tokens
        return AttentionHessians(
            q=[norm * m for m in self.h_q],
            k=[norm * m for m in self.h_k],
            v=[norm * m for m in self.h_v],
            o=norm * self.h_o,
        )


def attention_hessians_from_captures(
    attn: MultiHeadAttention,
    captures: Sequence[AttentionCapture],
    n_probes: int = 8,
    seed: int = 0,
    probe_mode: str = "batched",
) -> AttentionHessians:
    """Accumulate one block's Hessians from pre-computed captures.

    The capture-producing forward (see :class:`CalibrationCaptureStream`)
    is decoupled from the estimator so the calibration loop forwards each
    batch once per block instead of once per ``(block, batch)`` pair.
    """
    accumulator = AttentionHessianAccumulator(
        attn, n_probes=n_probes, seed=seed, probe_mode=probe_mode
    )
    for capture in captures:
        accumulator.add(capture)
    return accumulator.finalize()


def attention_hessians(
    model: LlamaModel,
    block_index: int,
    segments: np.ndarray,
    n_probes: int = 8,
    batch_size: int = 16,
    seed: int = 0,
    probe_mode: str = "batched",
) -> AttentionHessians:
    """Accumulate the four projection Hessians over calibration segments.

    Reference entry point: re-forwards the model per batch via
    :func:`capture_attention`.  The production pipeline streams captures
    instead (:class:`CalibrationCaptureStream`), which is bitwise
    identical per block; this form remains the ground truth the stream is
    certified against.
    """
    accumulator = AttentionHessianAccumulator(
        model.blocks[block_index].self_attn,
        n_probes=n_probes,
        seed=seed,
        probe_mode=probe_mode,
    )
    segments = np.atleast_2d(np.asarray(segments))
    for start in range(0, segments.shape[0], batch_size):
        batch = segments[start : start + batch_size]
        accumulator.add(capture_attention(model, batch, block_index))
    return accumulator.finalize()


def exact_gauss_newton(
    attn: MultiHeadAttention,
    capture,
    projection: str,
    head: int,
) -> np.ndarray:
    """Exact input-dim Gauss-Newton matrix by basis-seed enumeration.

    Sums ``J_{t,o} J_{t,o}^T`` over *every* output coordinate ``(t, o)`` by
    seeding the analytic gradients with each standard basis matrix.  Cost is
    ``O(batch·seq·D)`` backward passes — viable only on micro models; used
    by the test-suite to certify that the Rademacher probe estimator in
    :func:`attention_hessians` is unbiased.

    Shapes:
        capture: any
        projection: scalar
        head: scalar
        return: (D, D) f64
    """
    if projection not in ("q_proj", "k_proj"):
        raise ValueError("exact enumeration provided for q/k projections")
    b, s, d_model = capture.x.shape
    d_head = attn.d_head
    cols = slice(head * d_head, (head + 1) * d_head)
    total = np.zeros((d_model, d_model))
    for batch_index in range(b):
        for t in range(s):
            for o in range(d_model):
                seed = np.zeros((b, s, d_model))
                seed[batch_index, t, o] = 1.0
                grads = attention_seeded_gradients(attn, capture, seed)
                g = (grads.q if projection == "q_proj" else grads.k)[:, cols]
                total += g @ g.T
    return total


def head_column_slices(d_model: int, n_heads: int) -> Sequence[slice]:
    """Column slice of each head inside a ``(D, D)`` projection weight.

    Shapes:
        d_model: D
        n_heads: scalar
        return: any
    """
    d_head = d_model // n_heads
    return [slice(h * d_head, (h + 1) * d_head) for h in range(n_heads)]
