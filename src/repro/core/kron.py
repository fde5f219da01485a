"""KronQ: Kronecker-factored q/k attention Hessians (error-bounded tier).

The probed Gauss-Newton estimator of :mod:`repro.core.hessian` builds each
head's ``(D, D)`` q/k Hessian from full seeded-gradient outer products —
accurate, but every probe pays a block-input contraction and a ``(D, D)``
outer product per head.  Both estimators share the softmax-adjoint chain,
which costs the most, so skipping those two saves only about 15% of the
estimator's time at ``llama-7b-sim`` scale.  Following the Kronecker
factorization of KronQ (arxiv 2607.07964), the exact per-head
matrix

    H_h = (2/n) (1/P) Σ_p  X^T ĝ_{p,h} ĝ_{p,h}^T X

(``X`` the ``(n, D)`` block input, ``ĝ_{p,h}`` the ``(n, d)`` pre-RoPE-input
gradient of probe ``p`` at head ``h``) is approximated by decoupling the
token-side factor from the input Gram: treating ``ĝ ĝ^T`` as isotropic over
tokens, ``H_h ≈ A ⊗ B_h`` collapses on the input dimension to

    H_h ≈ g_h · A,    A = (2/n) X^T X,    g_h = tr(B_h),
    B_h = (1/(P·n)) Σ_p ĝ_{p,h}^T ĝ_{p,h}    (the (d, d) output-side factor).

Every head's Hessian is a positive multiple of one shared matrix, so the
solver factorizes ``A`` once per block and rescales the inverse Cholesky
factor per head (``HessianFactorCache.scaled_factor`` — the "Cholesky of a
Kronecker product factorizes per-factor" identity specialised to the
input-dimension marginal the solver consumes).  ``v_proj``/``o_proj`` keep
their exact closed forms; only the softmax-nonlinear q/k pair is
approximated.

This path is *error-bounded*, not bit-identical: the approximation error
and its downstream perplexity effect are measured by
:func:`repro.report.bench.calibration_bench_records` and committed as the
``calibration-kron`` bench record with declared bounds.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from repro.core.attention_grads import (
    attention_preactivation_gradients_batched,
    probe_chunks,
)
from repro.core.hessian import SharedGramCache, add_closed_forms
from repro.nn.attention import AttentionCapture, MultiHeadAttention

__all__ = [
    "HESSIAN_MODES",
    "KronFactor",
    "KronAttentionHessians",
    "KronHessianAccumulator",
    "kron_attention_hessians_from_captures",
]

#: Recognised attention Hessian engines: ``probed`` is the bit-exact
#: Rademacher Gauss-Newton estimator (:mod:`repro.core.hessian`); ``kron``
#: is this module's Kronecker-factored approximation.
HESSIAN_MODES = ("probed", "kron")


@dataclasses.dataclass(frozen=True)
class KronFactor:
    """Kronecker-factored per-head Hessian family ``{g_h · A}``.

    ``input_gram`` is the shared ``(D, D)`` input-side factor ``A`` (one
    array object for every head, so the solver's content-keyed factor
    cache sees a single Hessian); ``gains`` holds the per-head scalars
    ``g_h = tr(B_h)``; ``output_factors`` keeps the raw ``(h, d, d)``
    output-side factors ``B_h`` for diagnostics.
    """

    input_gram: np.ndarray
    gains: np.ndarray
    output_factors: np.ndarray

    @property
    def n_heads(self) -> int:
        """Number of heads in the family."""
        return int(self.gains.shape[0])

    def dense(self, head: int) -> np.ndarray:
        """Materialised ``(D, D)`` Hessian of one head: ``g_h · A``."""
        return self.gains[head] * self.input_gram


@dataclasses.dataclass
class KronAttentionHessians:
    """Per-projection Hessians of one block under ``hessian_mode="kron"``.

    Duck-compatible with :class:`repro.core.hessian.AttentionHessians`
    where the pipeline needs it (``full_matrix`` / ``mean_trace`` for the
    sensitivity ranking); ``q``/``k`` are :class:`KronFactor` families
    while ``v``/``o`` keep the exact closed forms.
    """

    q: KronFactor
    k: KronFactor
    v: list[np.ndarray]
    o: np.ndarray

    def full_matrix(self, projection: str) -> np.ndarray:
        """Head-averaged Hessian of a projection."""
        if projection == "o_proj":
            return self.o
        if projection == "v_proj":
            return np.mean(self.v, axis=0)
        factor = {"q_proj": self.q, "k_proj": self.k}[projection]
        return float(np.mean(factor.gains)) * factor.input_gram

    def mean_trace(self, projection: str) -> float:
        """Average Hessian trace (trace / dimension) of a projection.

        For q/k this is matrix-free: ``mean(gains) · tr(A) / D``.
        """
        if projection == "o_proj":
            return float(np.trace(self.o) / self.o.shape[0])
        if projection == "v_proj":
            diagonals = [np.diagonal(m) for m in self.v]
            diag_mean = np.mean(diagonals, axis=0)
            return float(diag_mean.sum() / diag_mean.shape[0])
        factor = {"q_proj": self.q, "k_proj": self.k}[projection]
        gram = factor.input_gram
        return float(
            np.mean(factor.gains) * np.trace(gram) / gram.shape[0]
        )


def _output_factor(grad_pre: np.ndarray) -> np.ndarray:
    """Per-head ``Σ_{p,b,s} ĝ^T ĝ`` of ``(p, b, h, s, d)`` gradients.

    One ``(d, p·b·s) @ (p·b·s, d)`` GEMM per head; returns ``(h, d, d)``.
    """
    n_heads, d_head = grad_pre.shape[2], grad_pre.shape[4]
    rows = np.moveaxis(grad_pre, 2, 0).reshape(n_heads, -1, d_head)
    return np.matmul(rows.transpose(0, 2, 1), rows)


class KronHessianAccumulator:
    """Streaming accumulator for one block's Kronecker-factored Hessians.

    Mirrors :class:`repro.core.hessian.AttentionHessianAccumulator` batch
    for batch — identical rng consumption (one ``(chunk, b, s, D)``
    Rademacher draw per probe chunk, as the chunk runs, so the batch's
    element stream is that of one ``(p, b, s, D)`` draw) and identical
    exact closed forms for ``v``/``o`` — but replaces the q/k outer-product
    GEMMs with the input Gram (deduplicated through a
    :class:`~repro.quant.calibration_hooks.SharedGramCache`) and the small
    ``(d, d)`` output-side factors.
    """

    def __init__(
        self,
        attn: MultiHeadAttention,
        n_probes: int = 8,
        seed: int = 0,
        gram_cache: SharedGramCache | None = None,
    ) -> None:
        if n_probes <= 0:
            raise ValueError("n_probes must be positive")
        self.attn = attn
        self.n_probes = n_probes
        self.rng = np.random.default_rng(seed)
        self.gram_cache = gram_cache if gram_cache is not None else SharedGramCache()
        d_model = attn.d_model
        n_heads = attn.n_heads
        d_head = attn.d_head
        self.input_gram = np.zeros((d_model, d_model))
        self.b_q = np.zeros((n_heads, d_head, d_head))
        self.b_k = np.zeros((n_heads, d_head, d_head))
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
        b, s, _ = capture.x.shape
        self.n_tokens += b * s

        # Shared input-side factor A (one Gram per distinct activation).
        self.gram_cache.reset()
        flat = capture.x.reshape(b * s, d_model)
        self.input_gram += self.gram_cache.gram(capture.x, flat)

        # Exact closed forms for o_proj and v_proj, as in the probed path.
        add_closed_forms(capture, self.head_gain, self.h_v, self.h_o)

        # Output-side factors B_h from the pre-input probe gradients —
        # the X contraction the Kronecker structure factors away.
        for chunk in probe_chunks(capture, self.n_probes):
            probes = self.rng.choice(
                [-1.0, 1.0], size=(chunk.stop - chunk.start, b, s, d_model)
            )
            gq_pre, gk_pre = attention_preactivation_gradients_batched(
                attn, capture, probes
            )
            # Per-block-local accumulation (one worker per block).
            self.b_q += _output_factor(gq_pre)  # lint: disable=wp-order-dependent-reduction
            self.b_k += _output_factor(gk_pre)  # lint: disable=wp-order-dependent-reduction

    def finalize(self) -> KronAttentionHessians:
        """Per-token-normalised Kronecker Hessians for all batches seen."""
        if self.n_tokens == 0:
            raise ValueError("no calibration tokens")
        norm = 2.0 / self.n_tokens
        input_gram = norm * self.input_gram
        input_gram.setflags(write=False)

        def factor(b_raw: np.ndarray) -> KronFactor:
            """Normalise one projection's output-side factors into gains."""
            b_norm = b_raw / (self.n_probes * self.n_tokens)
            gains = np.trace(b_norm, axis1=1, axis2=2)
            # A head with no gradient signal still needs a positive scale
            # for the shared factorization; tiny keeps H ≈ 0 semantics.
            gains = np.maximum(gains, np.finfo(np.float64).tiny)
            return KronFactor(
                input_gram=input_gram, gains=gains, output_factors=b_norm
            )

        return KronAttentionHessians(
            q=factor(self.b_q),
            k=factor(self.b_k),
            v=[norm * m for m in self.h_v],
            o=norm * self.h_o,
        )


def kron_attention_hessians_from_captures(
    attn: MultiHeadAttention,
    captures: Sequence[AttentionCapture],
    n_probes: int = 8,
    seed: int = 0,
    gram_cache: SharedGramCache | None = None,
) -> KronAttentionHessians:
    """Kronecker-factored block Hessians from pre-computed captures.

    Drop-in sibling of
    :func:`repro.core.hessian.attention_hessians_from_captures` for
    ``APTQConfig.hessian_mode="kron"``.
    """
    accumulator = KronHessianAccumulator(
        attn, n_probes=n_probes, seed=seed, gram_cache=gram_cache
    )
    for capture in captures:
        accumulator.add(capture)
    return accumulator.finalize()
