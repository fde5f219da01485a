"""Corpus perplexity evaluation (the paper's Table 1 metric).

The hot path is fused: per-token NLL goes through
:func:`repro.nn.functional.gather_nll`, so no ``(batch, seq, vocab)``
log-prob tensor is ever materialised.  Each batch runs through the model
in chunks of :data:`CHUNK_WINDOWS` windows, small enough that the
forward's activations (attention scores, MLP hidden states, logits) stay
in the L2 cache.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.transformer import LlamaModel

__all__ = ["CHUNK_WINDOWS", "token_nll", "perplexity"]

#: Windows per forward call.  Every window's forward and NLL are
#: row-independent, so the chunk size never changes a bit of the result.
CHUNK_WINDOWS = 4


def token_nll(
    model: LlamaModel,
    tokens: np.ndarray,
    seq_len: int | None = None,
    batch_size: int = 16,
) -> float:
    """Mean next-token negative log-likelihood over ``tokens``.

    The stream is cut into non-overlapping ``seq_len``-token windows (the
    standard strided perplexity protocol); a trailing remainder shorter than
    two tokens is dropped.  NLLs are summed per ``batch_size`` windows.
    """
    tokens = np.asarray(tokens)
    seq_len = seq_len or model.config.max_seq_len
    if seq_len < 2:
        raise ValueError("seq_len must be at least 2")
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    n_windows = tokens.size // seq_len
    if n_windows == 0:
        raise ValueError(
            f"stream of {tokens.size} tokens shorter than one window ({seq_len})"
        )
    windows = tokens[: n_windows * seq_len].reshape(n_windows, seq_len)
    total_nll = 0.0
    total_count = 0
    for start in range(0, n_windows, batch_size):
        batch = windows[start : start + batch_size]
        chunks = [
            batch[first : first + CHUNK_WINDOWS]
            for first in range(0, len(batch), CHUNK_WINDOWS)
        ]
        # Chunk NLLs are concatenated before the sum, so the summation
        # order is the unchunked one.
        nll = np.concatenate(
            [
                F.gather_nll(model.forward_array(c[:, :-1]), c[:, 1:])
                for c in chunks
            ]
        )
        total_nll += float(nll.sum())
        total_count += nll.size
    return total_nll / total_count


def perplexity(
    model: LlamaModel,
    tokens: np.ndarray,
    seq_len: int | None = None,
    batch_size: int = 16,
) -> float:
    """``exp(mean NLL)`` of ``tokens`` under ``model``.

    The mean NLL is capped at 700 nats before exponentiation so a
    catastrophically bad model reports a huge finite perplexity (~1e304)
    instead of ``inf``, which would poison downstream table averages.
    """
    nll = token_nll(model, tokens, seq_len, batch_size)
    return float(np.exp(np.minimum(nll, 700.0)))
