"""Pure-numpy functional ops shared by inference paths and the quantizers.

These mirror the autograd ops in ``repro.autograd.ops`` but operate on raw
arrays; they are used where no gradients are needed (fast perplexity
evaluation, Hessian assembly, reference computations in tests).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "softmax",
    "log_softmax",
    "sigmoid",
    "silu",
    "rms_norm",
    "rotate_half",
    "apply_rope",
    "causal_mask",
    "gather_nll",
    "gather_nll_reference",
    "cross_entropy",
    "attention",
]


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax.

    ``exp(x - max) / sum`` with the shift, exponential and normalisation
    in one buffer: the same IEEE operations, one temporary.
    """
    out = x - x.max(axis=axis, keepdims=True)
    # Integer input exponentiates into a fresh float array, as np.exp does.
    out = np.exp(out, out=out if out.dtype.kind == "f" else None)
    out /= out.sum(axis=axis, keepdims=True)
    return out


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax (max-shifted)."""
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function.

    The naive ``1/(1+exp(-x))`` overflows for large negative ``x``; the
    sign-split form only ever exponentiates ``-|x|``: ``1/(1+z)`` where
    ``x >= 0`` and ``z/(1+z)`` elsewhere, as one divide of the selected
    numerator.  With ``z`` in ``[0, 1]``, ``maximum(z, x >= 0)`` selects
    ``1`` or ``z`` exactly as ``where(x >= 0, 1, z)`` does (NaN
    propagates), without ``np.where``'s generic scalar loop.  A float
    array's ``abs``, negation and exponential share one buffer: the same
    IEEE operations, one temporary where there were three.
    """
    # Integer input and scalars take fresh results, as np.exp gives them.
    buffer = (
        np.empty_like(x)
        if isinstance(x, np.ndarray) and x.dtype.kind == "f"
        else None
    )
    z = np.exp(np.negative(np.abs(x, out=buffer), out=buffer), out=buffer)
    out = np.maximum(z, x >= 0.0)
    z += 1.0
    out /= z
    return out


def silu(x: np.ndarray) -> np.ndarray:
    """SiLU/Swish activation ``x * sigmoid(x)`` (the LLaMA MLP gate)."""
    out = sigmoid(x)
    out *= x
    return out


def rms_norm(x: np.ndarray, gain: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Root-mean-square layer norm (the LLaMA normalisation).

    ``x / sqrt(mean(x²) + eps) * gain``, with ``np.mean``'s sum-then-divide
    spelled out in place: the same IEEE operations without the wrapper.
    """
    # np.mean accumulates integer input in float64.
    dtype = np.float64 if x.dtype.kind in "biu" else None
    scale = (x * x).sum(axis=-1, keepdims=True, dtype=dtype)
    scale /= x.shape[-1]
    scale += eps
    np.sqrt(scale, out=scale)
    out = x / scale
    out *= gain
    return out


def rotate_half(x: np.ndarray) -> np.ndarray:
    """Rotate pairs ``(x1, x2) -> (-x2, x1)`` along the last axis."""
    half = x.shape[-1] // 2
    return np.concatenate([-x[..., half:], x[..., :half]], axis=-1)


def rope_tables(
    seq_len: int, d_head: int, base: float = 10000.0
) -> tuple[np.ndarray, np.ndarray]:
    """Cos/sin tables of shape ``(seq_len, d_head)`` for rotary embeddings.

    Shapes:
        seq_len: T
        d_head: Dh
        base: scalar
        return: any
    """
    if d_head % 2 != 0:
        raise ValueError("d_head must be even for rotary embeddings")
    inv_freq = 1.0 / (base ** (np.arange(0, d_head, 2, dtype=np.float64) / d_head))
    positions = np.arange(seq_len, dtype=np.float64)
    angles = np.outer(positions, inv_freq)
    angles = np.concatenate([angles, angles], axis=-1)
    return np.cos(angles), np.sin(angles)


def apply_rope(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Apply rotary position embedding to ``x`` shaped ``(..., seq, d_head)``."""
    return x * cos + rotate_half(x) * sin


def causal_mask(seq_len: int) -> np.ndarray:
    """Additive mask: 0 on/below diagonal, ``-inf`` above.

    Shapes:
        seq_len: T
        return: (T, T) f64
    """
    mask = np.zeros((seq_len, seq_len))
    mask[np.triu_indices(seq_len, k=1)] = -np.inf
    return mask


def gather_nll(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-token negative log-likelihood, fused (no log-prob tensor).

    Computes ``logsumexp(logits) - logits[target]`` over the last axis
    without materialising the full ``(..., vocab)`` log-probability tensor
    that ``log_softmax``-then-gather would allocate.  Uses the same max
    shift and the same reduction order as :func:`log_softmax`, so the
    result is **bit-identical** to :func:`gather_nll_reference` (pinned by
    ``tests/test_eval_perplexity.py``): IEEE-754 rounding commutes with
    negation, hence ``-(shifted[t] - log_norm) == log_norm - shifted[t]``
    exactly.

    ``logits`` has shape ``(..., vocab)``; ``targets`` matches the leading
    shape with integer class ids; returns NLL in the leading shape.
    """
    logits = np.asarray(logits)
    targets = np.asarray(targets)
    peak = logits.max(axis=-1, keepdims=True)
    target_logit = (
        np.take_along_axis(logits, targets[..., None], axis=-1)
        - peak
    )[..., 0]
    # One full-vocab temporary, reused in place for the exponentials.  The
    # argument IS max-shifted (``peak`` is the row max above); the shift
    # detector only sees inline ``x - x.max()`` forms, hence the waiver.
    buffer = logits - peak
    np.exp(buffer, out=buffer)  # lint: disable=numeric-raw-exp
    # The buffer holds exponentials: the sum is >= exp(0) = 1 by the shift.
    log_norm = np.log(buffer.sum(axis=-1))  # lint: disable=numeric-raw-log
    return log_norm - target_logit


def gather_nll_reference(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Unfused reference for :func:`gather_nll`: log-softmax, then gather.

    Materialises the full ``(..., vocab)`` log-probability tensor; kept as
    the differential-test oracle and the bench baseline.
    """
    logits = np.asarray(logits)
    targets = np.asarray(targets)
    log_probs = log_softmax(logits, axis=-1)
    picked = np.take_along_axis(log_probs, targets[..., None], axis=-1)
    return -picked[..., 0]


def cross_entropy(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean negative log-likelihood of ``targets`` under ``logits``.

    ``logits`` has shape ``(..., vocab)``; ``targets`` matches the leading
    shape with integer class ids.
    """
    logits = np.asarray(logits)
    targets = np.asarray(targets)
    flat = logits.reshape(-1, logits.shape[-1])
    return float(gather_nll(flat, targets.reshape(-1)).mean())


def attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Scaled dot-product attention over ``(..., seq, d_head)`` arrays."""
    d_head = q.shape[-1]
    scores = q @ np.swapaxes(k, -1, -2) / np.sqrt(d_head)
    if mask is not None:
        scores = scores + mask
    return softmax(scores, axis=-1) @ v
