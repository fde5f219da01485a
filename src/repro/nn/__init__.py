"""Numpy LLaMA-style transformer substrate.

Implements the model family the paper quantizes: RMSNorm, rotary position
embeddings, multi-head self-attention, SwiGLU feed-forward blocks and the
causal language model wrapper.  All modules run on :class:`repro.autograd.Tensor`
so the same code path serves training (model zoo, LLM-QAT) and inference
(perplexity / zero-shot evaluation).
"""

from repro.nn.config import LlamaConfig
from repro.nn.modules import Module, Linear, Embedding, RMSNorm
from repro.nn.attention import MultiHeadAttention, PagedKVCache, RotaryEmbedding
from repro.nn.transformer import SwiGLU, TransformerBlock, LlamaModel
from repro.nn import functional
from repro.nn.serialize import save_state_dict, load_state_dict

__all__ = [
    "LlamaConfig",
    "Module",
    "Linear",
    "Embedding",
    "RMSNorm",
    "MultiHeadAttention",
    "PagedKVCache",
    "RotaryEmbedding",
    "SwiGLU",
    "TransformerBlock",
    "LlamaModel",
    "functional",
    "save_state_dict",
    "load_state_dict",
]
