"""Corpus perplexity evaluation (the paper's Table 1 metric).

The hot path is fused: per-token NLL goes through
:func:`repro.nn.functional.gather_nll`, so no ``(batch, seq, vocab)``
log-prob tensor is ever materialised.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.transformer import LlamaModel

__all__ = ["token_nll", "perplexity"]


def token_nll(
    model: LlamaModel,
    tokens: np.ndarray,
    seq_len: int | None = None,
    batch_size: int = 16,
) -> float:
    """Mean next-token negative log-likelihood over ``tokens``.

    The stream is cut into non-overlapping ``seq_len``-token windows (the
    standard strided perplexity protocol); a trailing remainder shorter than
    two tokens is dropped.
    """
    tokens = np.asarray(tokens)
    seq_len = seq_len or model.config.max_seq_len
    if seq_len < 2:
        raise ValueError("seq_len must be at least 2")
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
        logits = model.forward_array(batch[:, :-1])
        nll = F.gather_nll(logits, batch[:, 1:])
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
