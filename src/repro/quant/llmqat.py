"""LLM-QAT (Liu et al., 2023): data-free quantization-aware training.

Two ingredients of the original, both reproduced here at small scale:

1. **Data-free**: training sequences are *generated by the full-precision
   model itself* (sampled autoregressively), so no external data is used.
2. **QAT with a straight-through estimator**: each step runs the forward
   and backward pass with group-quantized weights, but applies the gradient
   to the retained full-precision shadow weights.

The paper's tables show LLM-QAT at 4 bits losing to the strong PTQ methods
— a short QAT schedule over self-generated data cannot match calibrated
second-order PTQ, which is exactly the regime reproduced here.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.nn import functional as F
from repro.nn.transformer import LlamaModel
from repro.quant.groupwise import quantize_groupwise
from repro.training.optim import AdamW, clip_grad_norm

__all__ = ["LLMQATConfig", "generate_self_data", "llmqat_train"]


@dataclasses.dataclass
class LLMQATConfig:
    """Hyper-parameters of the QAT fine-tune."""

    bits: int = 4
    group_size: int | None = 32
    steps: int = 60
    batch_size: int = 8
    seq_len: int = 48
    lr: float = 1e-4
    temperature: float = 1.0
    grad_clip: float = 1.0
    seed: int = 0


def generate_self_data(
    model: LlamaModel,
    n_sequences: int,
    seq_len: int,
    temperature: float = 1.0,
    seed: int = 0,
) -> np.ndarray:
    """Sample sequences autoregressively from ``model`` (data-free corpus).

    Uses batched KV-cached decoding (one
    :meth:`~repro.nn.transformer.LlamaModel.forward_cached` per position),
    so cost is linear in ``seq_len``.
    """
    if seq_len > model.config.max_seq_len:
        raise ValueError("seq_len exceeds the model's context window")
    rng = np.random.default_rng(seed)
    vocab = model.config.vocab_size
    sequences = np.empty((n_sequences, seq_len), dtype=np.int64)
    sequences[:, 0] = rng.integers(vocab, size=n_sequences)
    cache = model.new_cache(n_sequences)
    rows = list(range(n_sequences))
    logits = model.forward_cached(sequences[:, :1], cache, rows)
    for position in range(1, seq_len):
        probs = F.softmax(logits / temperature, axis=-1)
        cumulative = np.cumsum(probs, axis=-1)
        draws = rng.random((n_sequences, 1))
        sequences[:, position] = np.minimum(
            (cumulative < draws).sum(axis=-1), vocab - 1
        )
        if position + 1 < seq_len:
            logits = model.forward_cached(
                sequences[:, position : position + 1], cache, rows
            )
    return sequences


def llmqat_train(
    model: LlamaModel,
    config: LLMQATConfig | None = None,
    **overrides,
) -> list[float]:
    """Fine-tune ``model`` in place with STE QAT; returns the loss history.

    On return the model's linear weights hold their final *quantized*
    values (deployment form).
    """
    config = dataclasses.replace(config or LLMQATConfig(), **overrides)
    # Clamp the QAT window to the model's context.
    seq_len = min(config.seq_len, model.config.max_seq_len - 1)
    rng = np.random.default_rng(config.seed)
    corpus = generate_self_data(
        model,
        n_sequences=max(config.batch_size * 4, 32),
        seq_len=seq_len + 1,
        temperature=config.temperature,
        seed=config.seed,
    )
    linears = model.quantizable_linears()
    shadow = {name: lin.weight.data.copy() for name, lin in linears.items()}
    optimizer = AdamW(model.parameters(), lr=config.lr, weight_decay=0.0)
    history: list[float] = []

    def write_quantized() -> None:
        for name, linear in linears.items():
            result = quantize_groupwise(
                shadow[name], config.bits, config.group_size
            )
            linear.weight.data = result.dequantize()

    for _ in range(config.steps):
        rows = rng.integers(corpus.shape[0], size=config.batch_size)
        batch = corpus[rows]
        write_quantized()
        optimizer.zero_grad()
        loss = model.loss(batch[:, :-1], batch[:, 1:])
        loss.backward()
        clip_grad_norm(model.parameters(), config.grad_clip)
        # Straight-through: step the shadow weights with the gradients
        # computed at the quantized point.
        for name, linear in linears.items():
            linear.weight.data = shadow[name]
        optimizer.step()
        for name, linear in linears.items():
            shadow[name] = linear.weight.data.copy()
        history.append(loss.item())

    write_quantized()
    return history
