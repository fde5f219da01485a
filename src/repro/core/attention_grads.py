"""Analytic gradients of the attention output w.r.t. Q/K/V/O weights.

These implement the paper's Eqs. (9), (10), (12), (13): the derivative of
the attention block output ``F = MultiHead(Q, K, V) = Concat(head_h) W^O``
with respect to each projection matrix, propagated *through the softmax and
both matmuls* — the part GPTQ ignores.

Because ``F`` is matrix-valued, derivatives are taken of the scalar
``<F, S>`` for a seed matrix ``S`` (the paper's ``∂F/∂X`` factor).  With
Rademacher seeds, ``E[G_S G_S^T]`` equals the Gauss-Newton/Levenberg-
Marquardt Hessian of Eq. (7) summed over all output coordinates, which is
how :mod:`repro.core.hessian` assembles ``H``.

Our attention applies rotary position embeddings to Q and K; RoPE is a
position-wise linear map, so it enters the chain rule as its adjoint
(``rope_adjoint``), a detail absent from the paper (LLaMA has RoPE; the
paper's formulas elide it) but required for the gradients to be exact —
the test-suite verifies every formula against autograd to ~1e-10.

Shapes: batch ``b``, heads ``h``, sequence ``s``, head dim ``d``,
model dim ``D = h·d``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.nn.attention import AttentionCapture, MultiHeadAttention

__all__ = [
    "AttentionWeights",
    "rope_adjoint",
    "softmax_vjp",
    "attention_seeded_gradients",
    "attention_seeded_gradients_batched",
    "attention_preactivation_gradients_batched",
    "contract_block_input",
    "probe_chunks",
]

#: Size budget of one probe chunk's ``(p, b, h, s, s)`` score-shaped
#: temporaries.  The softmax and RoPE adjoints are memory-bound; a chunk
#: that stays in a core's L2 cache runs them about 1.4x faster than the
#: whole probe stack at ``llama-7b-sim`` scale.
PROBE_CHUNK_BYTES = 2 << 20


@dataclasses.dataclass
class AttentionWeights:
    """Seeded gradient of the attention output for all four projections.

    Every array matches its weight's ``(d_in, d_out)`` shape: ``(D, D)``.
    """

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    o: np.ndarray

    def by_name(self) -> dict[str, np.ndarray]:
        """The four gradient arrays keyed by projection layer name."""
        return {
            "q_proj": self.q,
            "k_proj": self.k,
            "v_proj": self.v,
            "o_proj": self.o,
        }


def rope_adjoint(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Adjoint of the rotary map ``R(x) = x·cos + rotate_half(x)·sin``.

    ``rotate_half`` is the linear map ``J`` with ``J^T = -J``, hence
    ``R^T(x) = x·cos - rotate_half(x)·sin``.
    """
    half = x.shape[-1] // 2
    rotated = np.concatenate([-x[..., half:], x[..., :half]], axis=-1)
    return x * cos - rotated * sin


def softmax_vjp(
    probs: np.ndarray, upstream: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Vector-Jacobian product of row-softmax: ``P ⊙ (U - rowsum(U ⊙ P))``.

    The difference and the product run in one buffer, ``out`` when given
    (it may be ``upstream`` itself); the product commutes, so the result
    is the same IEEE operations as ``probs * (upstream - inner)``.
    """
    inner = (upstream * probs).sum(axis=-1, keepdims=True)
    out = np.subtract(upstream, inner, out=out)
    out *= probs
    return out


def probe_chunks(capture: AttentionCapture, n_probes: int) -> list[slice]:
    """Consecutive probe ranges whose score temporaries fit the budget.

    The probe axis is only a stacking axis of the batched kernels, so any
    split of it gives the same bits per probe.  The accumulators draw each
    chunk's probes as it runs, so the probe stack never exceeds a chunk.
    """
    size = max(1, PROBE_CHUNK_BYTES // capture.probs.nbytes)
    return [
        slice(start, min(start + size, n_probes))
        for start in range(0, n_probes, size)
    ]


def attention_seeded_gradients(
    attn: MultiHeadAttention,
    capture: AttentionCapture,
    seed: np.ndarray,
) -> AttentionWeights:
    """``∂<F, seed>/∂W`` for W ∈ {W^Q, W^K, W^V, W^O} (Eqs. (9)-(13)).

    ``capture`` holds the forward intermediates of the block on some batch
    (see :class:`repro.nn.attention.AttentionCapture`); ``seed`` is the
    ``(b, s, D)`` seed matrix S.  This is the one-probe slice of
    :func:`attention_seeded_gradients_batched`: running the same stacked
    GEMMs keeps every probe of a batched call bitwise equal to this one.
    """
    grads = attention_seeded_gradients_batched(attn, capture, seed[None])
    return AttentionWeights(
        q=grads.q[0], k=grads.k[0], v=grads.v[0], o=grads.o[0]
    )


def _batched_upstream_context(
    attn: MultiHeadAttention, seeds: np.ndarray
) -> np.ndarray:
    """Per-head upstream of the context for a stack of seeds.

    ``S (W_h^O)^T`` with a leading probe axis: ``(p, b, s, D) -> (p, b, h,
    s, d)``.  One ``(b·s, D) @ (D, D)`` GEMM per probe; the row block
    ``h·d..(h+1)·d`` of ``W^O`` lands in head ``h``'s columns, so the head
    split is a reshape.
    """
    n_probes, b, s, d_model = seeds.shape
    w_o = attn.o_proj.weight.data
    context = np.matmul(seeds.reshape(n_probes, b * s, d_model), w_o.T)
    return context.reshape(
        n_probes, b, s, attn.n_heads, attn.d_head
    ).transpose(0, 1, 3, 2, 4)


def contract_block_input(x: np.ndarray, per_head: np.ndarray) -> np.ndarray:
    """Weight gradients ``X^T G`` from per-head gradients of a projection.

    ``per_head`` is the ``(p, b, h, s, d)`` gradient w.r.t. a projection's
    output and ``x`` the ``(b, s, D)`` block input; the result is the
    ``(p, D, h·d)`` weight gradient, heads interleaved along columns as in
    the weight itself.  One ``(D, b·s) @ (b·s, h·d)`` GEMM per probe.

    Shapes:
        x: (b, s, D) f64
        per_head: (p, b, h, s, d) f64
        return: any
    """
    n_probes, b, n_heads, s, d_head = per_head.shape
    tokens = per_head.transpose(0, 1, 3, 2, 4).reshape(
        n_probes, b * s, n_heads * d_head
    )
    return np.matmul(x.reshape(b * s, -1).T, tokens)


def attention_preactivation_gradients_batched(
    attn: MultiHeadAttention,
    capture: AttentionCapture,
    seeds: np.ndarray,
    upstream_context: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Pre-RoPE-input q/k gradients for a stack of seeds at once.

    Runs the softmax-adjoint chain of Eqs. (12)/(13) for all ``p`` seeds as
    stacked per-head matmuls, stopping *before* the final contraction with
    the block input X.  Returns ``(grad_q_pre, grad_k_pre)``, each ``(p, b,
    h, s, d)``.  Every probe slice runs the same GEMMs as a one-probe call,
    so slicing the output equals calling with that probe alone, bit for
    bit.  The KronQ output-side factors consume these directly (the X
    contraction is what the Kronecker structure factors away).

    Shapes:
        attn: any
        capture: any
        seeds: (p, b, s, D) f64
        upstream_context: (p, b, h, s, d) f64
        return: any
    """
    s = capture.x.shape[1]
    scale = 1.0 / np.sqrt(attn.d_head)
    cos, sin = attn.rope.tables(s)
    if upstream_context is None:
        upstream_context = _batched_upstream_context(attn, seeds)
    # d<F,S>/dP_h = upstream_context_h V_h^T, shape (p, b, h, s, s); the
    # softmax adjoint overwrites this fresh buffer.
    upstream_probs = np.matmul(
        upstream_context, np.swapaxes(capture.v, -1, -2)
    )
    omega = softmax_vjp(capture.probs, upstream_probs, out=upstream_probs)
    # Through N = R(XW^Q) R(XW^K)^T / sqrt(d):
    # d<F,S>/dQ_rot = Omega K_rot / sqrt(d);  d<F,S>/dK_rot = Omega^T Q_rot.
    grad_q_rot = scale * np.matmul(omega, capture.k)
    grad_k_rot = scale * np.matmul(np.swapaxes(omega, -1, -2), capture.q)
    return rope_adjoint(grad_q_rot, cos, sin), rope_adjoint(
        grad_k_rot, cos, sin
    )


def attention_seeded_gradients_batched(
    attn: MultiHeadAttention,
    capture: AttentionCapture,
    seeds: np.ndarray,
) -> AttentionWeights:
    """All four projection gradients for a stack of seeds at once.

    Stacks ``attention_seeded_gradients(attn, capture, seeds[p])`` over
    ``p`` — *bitwise*, because every contraction is a stacked matmul whose
    probe slices run the same GEMM as the one-probe call.  Returns an
    :class:`AttentionWeights` whose arrays carry a leading probe axis:
    ``(p, D, D)``.

    Shapes:
        attn: any
        capture: any
        seeds: (p, b, s, D) f64
        return: any
    """
    x = capture.x
    b, s, d_model = x.shape
    n_probes = seeds.shape[0]

    # Eq. (9): ∂F/∂W^O = Concat(heads)^T S, one GEMM per probe.
    heads_flat = capture.heads.reshape(b * s, d_model)
    grad_o = heads_flat.T @ seeds.reshape(n_probes, b * s, d_model)

    # Eq. (10): ∂F/∂W^V = X^T P^T (S W^O,T): d<F,S>/dV_h = P_h^T U_h.
    upstream_context = _batched_upstream_context(attn, seeds)
    grad_v_heads = np.matmul(
        np.swapaxes(capture.probs, -1, -2), upstream_context
    )

    # Eqs. (12)/(13) through the softmax.
    grad_q_pre, grad_k_pre = attention_preactivation_gradients_batched(
        attn, capture, seeds, upstream_context=upstream_context
    )
    return AttentionWeights(
        q=contract_block_input(x, grad_q_pre),
        k=contract_block_input(x, grad_k_pre),
        v=contract_block_input(x, grad_v_heads),
        o=grad_o,
    )
