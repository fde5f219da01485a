"""Transformer block and the LLaMA-style causal language model."""

from __future__ import annotations

from typing import Hashable, Optional, Sequence

import numpy as np

from repro.autograd import Tensor, ops
from repro.nn import functional as F
from repro.nn.attention import (
    AttentionCapture,
    CachePlan,
    MultiHeadAttention,
    PagedKVCache,
)
from repro.nn.config import LlamaConfig
from repro.nn.modules import Embedding, Linear, Module, RMSNorm

__all__ = [
    "sample_token",
    "quantizable_layer_names",
    "SwiGLU",
    "TransformerBlock",
    "LlamaModel",
]


def sample_token(
    logits: np.ndarray, temperature: float, rng: np.random.Generator
) -> int:
    """Next token from a ``(vocab,)`` logit row; greedy at temperature 0.

    The one sampler of generation and serving: the scheduler calls it so
    served tokens equal ``generate_cached``'s.
    """
    if temperature <= 0.0:
        return int(np.argmax(logits))
    probs = F.softmax(logits / temperature)
    return int(rng.choice(probs.size, p=probs))


#: The seven matrices per block that the paper quantizes, in forward order.
_BLOCK_PROJECTIONS = (
    "self_attn.q_proj",
    "self_attn.k_proj",
    "self_attn.v_proj",
    "self_attn.o_proj",
    "mlp.gate_proj",
    "mlp.up_proj",
    "mlp.down_proj",
)


def quantizable_layer_names(config: LlamaConfig) -> list[str]:
    """Dotted names of the weight matrices a model of ``config`` quantizes.

    Embeddings and norms stay full precision (as in GPTQ/APTQ); every
    block contributes its q/k/v/o projections and its three SwiGLU
    projections, and an untied ``lm_head`` comes last.
    """
    names = [
        f"blocks.{index}.{projection}"
        for index in range(config.n_layers)
        for projection in _BLOCK_PROJECTIONS
    ]
    if not config.tie_embeddings:
        names.append("lm_head")
    return names


class SwiGLU(Module):
    """LLaMA feed-forward block ``down( silu(gate(x)) * up(x) )``."""

    def __init__(
        self, d_model: int, d_ff: int, rng: Optional[np.random.Generator] = None
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.gate_proj = Linear(d_model, d_ff, rng=rng)
        self.up_proj = Linear(d_model, d_ff, rng=rng)
        self.down_proj = Linear(d_ff, d_model, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        """Gated feed-forward transform (autograd path)."""
        gate = ops.silu(self.gate_proj(x))
        return self.down_proj(ops.mul(gate, self.up_proj(x)))

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        """Gated feed-forward transform (numpy path)."""
        gate = F.silu(self.gate_proj.forward_array(x))
        gate *= self.up_proj.forward_array(x)
        return self.down_proj.forward_array(gate)

    def forward_cached(self, x: np.ndarray, plan: CachePlan) -> np.ndarray:
        """:meth:`forward_array` over a cached call's packed tokens.

        Each projection runs per row group (:meth:`CachePlan.rowwise`), as
        each row's own call would run it; the gating runs once over all
        tokens.
        """
        gate = F.silu(plan.rowwise(self.gate_proj.forward_array, x))
        gate *= plan.rowwise(self.up_proj.forward_array, x)
        return plan.rowwise(self.down_proj.forward_array, gate)


class TransformerBlock(Module):
    """Pre-norm block: attention and SwiGLU with residual connections."""

    def __init__(
        self, config: LlamaConfig, rng: Optional[np.random.Generator] = None
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.input_norm = RMSNorm(config.d_model, eps=config.rmsnorm_eps)
        self.self_attn = MultiHeadAttention(
            config.d_model,
            config.n_heads,
            config.max_seq_len,
            rope_base=config.rope_base,
            rng=rng,
        )
        self.post_attn_norm = RMSNorm(config.d_model, eps=config.rmsnorm_eps)
        self.mlp = SwiGLU(config.d_model, config.d_ff, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        """Attention + MLP with residuals (autograd path)."""
        x = ops.add(x, self.self_attn(self.input_norm(x)))
        return ops.add(x, self.mlp(self.post_attn_norm(x)))

    def forward_array(
        self, x: np.ndarray, capture: bool = False
    ) -> np.ndarray | tuple[np.ndarray, AttentionCapture]:
        """Attention + MLP with residuals (numpy path, optional capture)."""
        normed = self.input_norm.forward_array(x)
        if capture:
            attn_out, captured = self.self_attn.forward_array(normed, capture=True)
        else:
            attn_out = self.self_attn.forward_array(normed)
        x = x + attn_out
        x = x + self.mlp.forward_array(self.post_attn_norm.forward_array(x))
        if capture:
            return x, captured
        return x


class LlamaModel(Module):
    """Causal language model with tied (optional) output embeddings.

    Two execution paths: :meth:`forward` builds the autograd graph (used by
    the trainer and LLM-QAT); :meth:`forward_array` is a numpy fast path used
    by the evaluation harness and the calibration sweeps.
    """

    def __init__(self, config: LlamaConfig, seed: int = 0) -> None:
        super().__init__()
        self.config = config
        rng = np.random.default_rng(seed)
        self.embed = Embedding(config.vocab_size, config.d_model, rng=rng)
        self.blocks: list[TransformerBlock] = []
        for index in range(config.n_layers):
            block = TransformerBlock(config, rng=rng)
            self.register_module(f"blocks.{index}", block)
            self.blocks.append(block)
        self.final_norm = RMSNorm(config.d_model, eps=config.rmsnorm_eps)
        if config.tie_embeddings:
            self.lm_head: Optional[Linear] = None
        else:
            self.lm_head = Linear(config.d_model, config.vocab_size, rng=rng)

    # ------------------------------------------------------------------
    def forward(self, ids: np.ndarray) -> Tensor:
        """Return logits of shape ``(batch, seq, vocab)`` (autograd path)."""
        ids = np.atleast_2d(np.asarray(ids))
        x = self.embed(ids)
        for block in self.blocks:
            x = block(x)
        x = self.final_norm(x)
        if self.lm_head is not None:
            return self.lm_head(x)
        return ops.matmul(x, ops.transpose(self.embed.weight))

    def forward_array(self, ids: np.ndarray) -> np.ndarray:
        """Return logits of shape ``(batch, seq, vocab)`` (numpy path)."""
        ids = np.atleast_2d(np.asarray(ids))
        x = self.embed.weight.data[ids]
        for block in self.blocks:
            x = block.forward_array(x)
        return self._head(self.final_norm.forward_array(x))

    # ------------------------------------------------------------------
    def hidden_states(self, ids: np.ndarray) -> list[np.ndarray]:
        """Residual-stream input of every block plus the final state."""
        ids = np.atleast_2d(np.asarray(ids))
        x = self.embed.weight.data[ids]
        states = [x]
        for block in self.blocks:
            x = block.forward_array(x)
            states.append(x)
        return states

    def loss(self, ids: np.ndarray, targets: np.ndarray) -> Tensor:
        """Mean next-token cross-entropy (autograd scalar).

        Routed through the fused :func:`repro.autograd.ops.gather_nll`, so
        no ``(batch, seq, vocab)`` log-prob tensor is materialised; the
        value is bit-identical to the unfused log-softmax-then-gather form.
        """
        logits = self.forward(ids)
        targets = np.atleast_2d(np.asarray(targets))
        return ops.mean(ops.gather_nll(logits, targets))

    # ------------------------------------------------------------------
    # Incremental decoding
    # ------------------------------------------------------------------
    def new_cache(self, n_seqs: int = 1) -> PagedKVCache:
        """A KV cache holding ``n_seqs`` sequences of ``max_seq_len`` tokens.

        Sequences ``0 .. n_seqs - 1`` are allocated and empty.
        """
        cache = PagedKVCache(
            len(self.blocks),
            block_size=self.config.max_seq_len,
            num_blocks=n_seqs,
        )
        for seq_id in range(n_seqs):
            cache.allocate(seq_id)
        return cache

    def forward_cached(
        self,
        ids: np.ndarray | Sequence[np.ndarray],
        cache: PagedKVCache,
        seq_ids: Sequence[Hashable],
    ) -> np.ndarray:
        """Feed new tokens through the KV cache; next-token logits per row.

        ``ids`` is a ``(batch, seq)`` array or one 1-D token array per
        row, rows of any lengths.  Row ``b`` extends sequence
        ``seq_ids[b]`` of ``cache`` from its committed length; rows may sit
        at different lengths.  Returns ``(rows, vocab)`` logits, the last
        new token's of each row, and leaves every row's tokens cached.

        One call serves prompt prefills (rows of several tokens) and decode
        steps (rows of one token) together.  It is planned once
        (:meth:`PagedKVCache.plan`): every row's blocks are reserved before
        the first write, all or nothing, and each layer then runs one K/V
        write for all rows.  Token-wise work (embedding, RMSNorm, RoPE,
        residuals, the SwiGLU gating) runs once over all new tokens packed
        together.  Each matrix product runs as the row's own call would run
        it: one ``(n, 1, d)`` product over the ``n`` one-token rows and one
        ``(L, d)`` product per longer row, the LM head included (full
        length for a prefill row).  The one-token rows attend as one
        stacked decode over the full ``max_seq_len`` context, each masked
        to its own length (O(``max_seq_len``) per decoded token); every
        longer row attends over exactly its own keys.

        So row ``b``'s logits and cached keys/values are bit-identical to
        the same row fed alone — whatever its company, the order of rows
        or the packing — the property the serving layer's
        replay-after-crash determinism rests on; on a fresh cache a
        prefill's arithmetic is identical to :meth:`forward_array`.
        Feeding past ``max_seq_len`` total tokens is rejected
        (sliding-window decoding is :meth:`generate`).
        """
        if isinstance(ids, np.ndarray):
            ids = np.atleast_2d(ids)
            rows, steps = None, [ids.shape[1]] * ids.shape[0]
        else:
            rows = [np.asarray(row).reshape(-1) for row in ids]
            steps = [row.size for row in rows]
        if not steps or min(steps) == 0:
            raise ValueError("ids must contain at least one token per row")
        if len(seq_ids) != len(steps):
            raise ValueError("seq_ids must provide one sequence per row")
        order = None
        if rows is None:
            tokens = ids.reshape(-1)  # rows of one length: in plan order
        else:
            # One-token rows lead, in order: the plan decodes them as one
            # stack.
            order = sorted(range(len(rows)), key=lambda b: steps[b] > 1)
            steps = [steps[b] for b in order]
            seq_ids = [seq_ids[b] for b in order]
            tokens = np.concatenate([rows[b] for b in order])
        plan = cache.plan(
            seq_ids, steps, self.blocks[0].self_attn.causal_mask
        )
        # Packed new tokens, each a row of one: (tokens, 1, d_model).
        x = self.embed.weight.data[tokens[:, None]]
        for layer, block in enumerate(self.blocks):
            normed = block.input_norm.forward_array(x)
            x += block.self_attn.forward_cached(normed, cache, layer, plan)
            x += block.mlp.forward_cached(
                block.post_attn_norm.forward_array(x), plan
            )
        x = self.final_norm.forward_array(x)
        # The head runs per row group too; each row keeps its last token.
        heads = [self._head(x[view])[:, -1] for view in plan.views]
        logits = heads[0] if len(heads) == 1 else np.concatenate(heads)
        return logits if order is None else logits[np.argsort(order)]

    def _head(self, x: np.ndarray) -> np.ndarray:
        """Output projection: ``lm_head`` or the tied embedding."""
        if self.lm_head is not None:
            return self.lm_head.forward_array(x)
        return x @ self.embed.weight.data.T

    def generate_cached(
        self,
        prompt: np.ndarray,
        max_new_tokens: int,
        temperature: float = 1.0,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """KV-cached equivalent of :meth:`generate` (O(n) per token).

        One :meth:`forward_cached` prefills the prompt, then one per
        sampled token except the last.  Prompt + continuation must fit in
        ``config.max_seq_len``; use :meth:`generate` for sliding-window
        decoding beyond the context.
        """
        if max_new_tokens < 0:
            raise ValueError("max_new_tokens must be non-negative")
        rng = rng or np.random.default_rng(0)
        prompt = np.asarray(prompt).reshape(-1)
        if prompt.size == 0:
            raise ValueError("prompt must contain at least one token")
        if prompt.size + max_new_tokens > self.config.max_seq_len:
            raise ValueError(
                "prompt plus continuation exceeds the context window"
            )
        cache = self.new_cache()
        sequence = list(prompt)
        ids = prompt[None, :]
        for _ in range(max_new_tokens):
            logits = self.forward_cached(ids, cache, [0])[0]
            token = sample_token(logits, temperature, rng)
            sequence.append(token)
            ids = np.array([[token]])
        return np.asarray(sequence, dtype=np.int64)

    def generate(
        self,
        prompt: np.ndarray,
        max_new_tokens: int,
        temperature: float = 1.0,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Sample a continuation of ``prompt`` autoregressively.

        ``prompt`` is a 1-D token-id array; returns prompt + continuation.
        ``temperature=0`` decodes greedily.  The context window slides when
        the sequence exceeds ``config.max_seq_len``.
        """
        if max_new_tokens < 0:
            raise ValueError("max_new_tokens must be non-negative")
        rng = rng or np.random.default_rng(0)
        sequence = list(np.asarray(prompt).reshape(-1))
        if not sequence:
            raise ValueError("prompt must contain at least one token")
        for _ in range(max_new_tokens):
            window = np.asarray(sequence[-self.config.max_seq_len:])
            logits = self.forward_array(window[None, :])[0, -1]
            sequence.append(sample_token(logits, temperature, rng))
        return np.asarray(sequence, dtype=np.int64)

    def quantizable_linears(self) -> dict[str, Linear]:
        """All weight matrices the paper quantizes, keyed by dotted name
        (:func:`quantizable_layer_names`, in that order)."""
        modules = dict(self.named_modules())
        return {name: modules[name] for name in quantizable_layer_names(self.config)}
