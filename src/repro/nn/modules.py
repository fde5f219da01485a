"""Core neural-network modules: Module base class, Linear, Embedding, RMSNorm.

Conventions
-----------
Linear weights are stored in ``(d_in, d_out)`` layout so the forward pass is
``y = x @ W``.  The quantizers in ``repro.quant`` therefore operate on the
*rows* of ``W`` (the input dimension), which corresponds to the column-wise
sweep over ``(d_out, d_in)`` weights described in GPTQ/APTQ.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

import numpy as np

from repro.autograd import Tensor, ops
from repro.nn import functional as F

__all__ = [
    "Module",
    "Linear",
    "Embedding",
    "RMSNorm",
]


class Module:
    """Minimal module base with parameter/submodule discovery and hooks."""

    def __init__(self) -> None:
        self._parameters: dict[str, Tensor] = {}
        self._modules: dict[str, "Module"] = {}
        # Input hooks receive the raw numpy input of each forward call; the
        # calibration machinery uses them to collect layer inputs.
        self.input_hooks: list[Callable[[np.ndarray], None]] = []

    # ------------------------------------------------------------------
    def register_parameter(self, name: str, tensor: Tensor) -> Tensor:
        """Adopt ``tensor`` as a trainable parameter named ``name``."""
        tensor.requires_grad = True
        tensor.name = name
        self._parameters[name] = tensor
        return tensor

    def register_module(self, name: str, module: "Module") -> "Module":
        """Attach a child module under ``name`` for recursive traversal."""
        self._modules[name] = module
        return module

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Module) and name != "_modules":
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    def parameters(self) -> Iterator[Tensor]:
        """Yield every parameter tensor, depth first."""
        for _, parameter in self.named_parameters():
            yield parameter

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        """Yield ``(dotted_name, parameter)`` pairs, depth first."""
        for name, parameter in self._parameters.items():
            yield (f"{prefix}{name}", parameter)
        for module_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{module_name}.")

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        """Yield ``(dotted_name, module)`` pairs including ``self``."""
        yield (prefix.rstrip("."), self)
        for module_name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{module_name}.")

    def zero_grad(self) -> None:
        """Clear the gradients of every parameter."""
        for parameter in self.parameters():
            parameter.zero_grad()

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter array keyed by dotted name."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter arrays in place; shapes must match exactly."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, parameter in own.items():
            array = np.asarray(state[name], dtype=np.float64)
            if array.shape != parameter.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{array.shape} != {parameter.data.shape}"
                )
            # Checkpoint loading replaces parameter payloads by design.
            parameter.data = array.copy()  # lint: disable=autograd-inplace-data

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        """Compute the module output (overridden by subclasses)."""
        raise NotImplementedError


class Linear(Module):
    """Bias-free linear layer ``y = x @ W`` with ``W`` of shape (d_in, d_out).

    LLaMA uses no biases anywhere, so neither do we; this also keeps the
    quantization problem exactly the one the paper formulates (weights only).
    """

    def __init__(
        self,
        d_in: int,
        d_out: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.d_in = d_in
        self.d_out = d_out
        rng = rng or np.random.default_rng(0)
        scale = 1.0 / np.sqrt(d_in)
        weight = rng.normal(0.0, scale, size=(d_in, d_out))
        self.weight = self.register_parameter("weight", Tensor(weight))

    def forward(self, x: Tensor) -> Tensor:
        """Apply ``x @ W`` (autograd path), feeding any input hooks."""
        if self.input_hooks:
            for hook in self.input_hooks:
                hook(np.asarray(x.data))
        return ops.matmul(x, self.weight)

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        """Gradient-free numpy forward, used on hot evaluation paths."""
        if self.input_hooks:
            for hook in self.input_hooks:
                hook(np.asarray(x))
        return x @ self.weight.data


class Embedding(Module):
    """Token embedding table with scatter-add backward."""

    def __init__(
        self,
        vocab_size: int,
        d_model: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.vocab_size = vocab_size
        self.d_model = d_model
        rng = rng or np.random.default_rng(0)
        weight = rng.normal(0.0, 0.02, size=(vocab_size, d_model))
        self.weight = self.register_parameter("weight", Tensor(weight))

    def forward(self, ids: np.ndarray) -> Tensor:
        """Look up embedding rows for integer ``ids``."""
        ids = np.asarray(ids)
        if ids.size and (ids.min() < 0 or ids.max() >= self.vocab_size):
            raise IndexError("token id out of range")
        return ops.embedding(self.weight, ids)


class RMSNorm(Module):
    """Root-mean-square normalisation with a learned gain vector."""

    def __init__(self, d_model: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.eps = eps
        self.gain = self.register_parameter("gain", Tensor(np.ones(d_model)))

    def forward(self, x: Tensor) -> Tensor:
        """Normalise ``x`` by its RMS and apply the gain (autograd path)."""
        mean_square = ops.mean(ops.mul(x, x), axis=-1, keepdims=True)
        scale = ops.power(mean_square + Tensor(self.eps), -0.5)
        return ops.mul(ops.mul(x, scale), self.gain)

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        """Numpy fast path of :meth:`forward`."""
        return F.rms_norm(x, self.gain.data, eps=self.eps)
