"""Input-statistics collection for calibration-driven quantizers.

GPTQ, SmoothQuant and OWQ all need per-layer input statistics: the input
Hessian ``H = (2/n) Σ X^T X`` and/or per-channel activation ranges.  This
module gathers them by hooking the model's Linear layers and streaming the
calibration segments through the numpy forward path.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Sequence

import numpy as np

from repro.data.calibration import screen_finite
from repro.nn.modules import Linear
from repro.nn.transformer import LlamaModel
from repro.runtime import faults

__all__ = ["InputStats", "InputCollector", "collect_input_stats"]


@dataclasses.dataclass
class InputStats:
    """Accumulated input statistics for one linear layer."""

    hessian: np.ndarray
    abs_max: np.ndarray
    second_moment: np.ndarray
    n_samples: int

    def normalised_hessian(self) -> np.ndarray:
        """``(2/n) Σ x x^T`` — the GPTQ layer Hessian."""
        if self.n_samples == 0:
            raise RuntimeError("no calibration samples were collected")
        return self.hessian * (2.0 / self.n_samples)


class InputCollector:
    """Hooks a set of Linears and accumulates their input statistics."""

    def __init__(self, layers: dict[str, Linear]) -> None:
        self.layers = layers
        #: Index of the calibration batch currently streaming through the
        #: model; lets activation screening name the offending batch.
        self.current_batch: int | None = None
        # Imported here (not at module top): repro.core.hessian imports
        # this module, so a top-level import of it would be circular.
        from repro.core.hessian import SharedGramCache

        #: Gram matrices are shared across layers fed by the same
        #: activation tensor (Q/K/V, gate/up) — see
        #: :class:`repro.core.hessian.SharedGramCache`.
        self.gram_cache = SharedGramCache()
        self.stats: dict[str, InputStats] = {
            name: InputStats(
                hessian=np.zeros((linear.d_in, linear.d_in)),
                abs_max=np.zeros(linear.d_in),
                second_moment=np.zeros(linear.d_in),
                n_samples=0,
            )
            for name, linear in layers.items()
        }
        self._hooks: list[tuple[Linear, object]] = []

    def __enter__(self) -> "InputCollector":
        for name, linear in self.layers.items():
            stats = self.stats[name]

            def hook(
                x: np.ndarray, stats: InputStats = stats, name: str = name
            ) -> None:
                flat = x.reshape(-1, x.shape[-1])
                screen_finite(
                    flat,
                    f"activations entering layer {name!r} (calibration "
                    f"batch {self.current_batch})",
                )
                stats.hessian += self.gram_cache.gram(x, flat)
                stats.abs_max = np.maximum(
                    stats.abs_max, np.abs(flat).max(axis=0)
                )
                stats.second_moment += (flat**2).sum(axis=0)
                stats.n_samples += flat.shape[0]

            linear.input_hooks.append(hook)
            self._hooks.append((linear, hook))
        return self

    def __exit__(self, *exc_info) -> None:
        for linear, hook in self._hooks:
            linear.input_hooks.remove(hook)
        self._hooks.clear()


def collect_input_stats(
    model: LlamaModel,
    segments: np.ndarray | Iterable[np.ndarray],
    layer_names: Sequence[str] | None = None,
    batch_size: int = 16,
) -> dict[str, InputStats]:
    """Run calibration ``segments`` through ``model`` and collect stats.

    ``segments`` is a ``(n, seq_len)`` array (or iterable of batches);
    ``layer_names`` restricts collection (default: every quantizable layer).

    Every batch is screened for NaN/Inf before it reaches the model (an
    active :class:`~repro.runtime.faults.FaultInjector` may poison batches
    first); a poisoned batch raises
    :class:`~repro.runtime.errors.CalibrationError` naming its index.
    """
    all_layers = model.quantizable_linears()
    if layer_names is None:
        layers = all_layers
    else:
        layers = {name: all_layers[name] for name in layer_names}
    if isinstance(segments, np.ndarray):
        batches = [
            segments[start : start + batch_size]
            for start in range(0, segments.shape[0], batch_size)
        ]
    else:
        batches = list(segments)
    with InputCollector(layers) as collector:
        for index, batch in enumerate(batches):
            batch = faults.transform_batch(index, batch)
            screen_finite(batch, f"calibration batch {index}")
            collector.current_batch = index
            model.forward_array(batch)
            # Activation arrays are batch-local: release the one the Gram
            # cache pins, so it does not outlive its batch.
            collector.gram_cache.reset()
        collector.current_batch = None
    return collector.stats
