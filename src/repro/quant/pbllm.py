"""PB-LLM (Shang et al., 2023): partially binarized LLMs.

PB-LLM keeps a salient fraction of weights in fp16 (chosen by Hessian-
weighted magnitude) and *binarizes* the rest: each non-salient weight
becomes ``sign(w) · mu`` with one fp16 magnitude ``mu`` per group/column.
The paper's Table 1/2 rows "PB-LLM-x%" denote the fp16 fraction.

Average bits follow the same accounting as the paper:
``16·f + 1·(1-f)`` over the weight entries (grid parameters excluded, as in
the paper's Eq. (18) accounting).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.data.calibration import CalibrationSet
from repro.nn.transformer import LlamaModel
from repro.quant.calibration_hooks import sequential_input_stats
from repro.quant.groupwise import resolve_group_size

__all__ = ["PBLLMResult", "pbllm_average_bits", "pbllm_quantize_model"]


@dataclasses.dataclass
class PBLLMResult:
    """Salient-weight mask and group magnitudes of one PB-LLM layer."""

    salient_mask: np.ndarray
    group_magnitudes: np.ndarray
    salient_fraction: float

    @property
    def average_bits(self) -> float:
        """Effective bits per weight at this salient fraction."""
        return 16.0 * self.salient_fraction + 1.0 * (1.0 - self.salient_fraction)


def pbllm_average_bits(salient_fraction: float) -> float:
    """Average bit-width of a PB-LLM model at the given fp16 fraction."""
    return 16.0 * salient_fraction + 1.0 * (1.0 - salient_fraction)


def pbllm_quantize_model(
    model: LlamaModel,
    calibration: CalibrationSet,
    salient_fraction: float = 0.2,
    group_size: int | None = 32,
    batch_size: int = 16,
) -> dict[str, PBLLMResult]:
    """Partially binarize every linear layer in place.

    Salience is Hessian-diagonal-weighted squared magnitude
    (``H_jj · w_ij²``), the criterion PB-LLM's GPTQ-variant uses.
    """
    if not 0.0 <= salient_fraction < 1.0:
        raise ValueError("salient_fraction must be in [0, 1)")
    results: dict[str, PBLLMResult] = {}
    layers = model.quantizable_linears()
    for group, stats in sequential_input_stats(
        model, calibration.segments, batch_size
    ):
        for name in group:
            linear = layers[name]
            weight = linear.weight.data
            d_in, d_out = weight.shape
            diag = np.diagonal(stats[name].normalised_hessian())
            salience = (weight**2) * diag[:, None]
            count = int(round(salient_fraction * weight.size))
            mask = np.zeros(weight.shape, dtype=bool)
            if count:
                flat_order = np.argsort(-salience, axis=None, kind="stable")
                mask.reshape(-1)[flat_order[:count]] = True

            gsize = resolve_group_size(d_in, group_size)
            n_groups = (d_in + gsize - 1) // gsize
            magnitudes = np.zeros((n_groups, d_out))
            quantized = weight.copy()
            for g in range(n_groups):
                rows = slice(g * gsize, min((g + 1) * gsize, d_in))
                block = weight[rows]
                block_mask = mask[rows]
                binary_part = ~block_mask
                # Per-column mean magnitude of the binarized entries.
                counts = binary_part.sum(axis=0)
                sums = np.where(binary_part, np.abs(block), 0.0).sum(axis=0)
                mu = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
                magnitudes[g] = mu
                signs = np.where(block >= 0, 1.0, -1.0)
                quantized[rows] = np.where(block_mask, block, signs * mu)
            linear.weight.data = quantized
            results[name] = PBLLMResult(
                salient_mask=mask,
                group_magnitudes=magnitudes,
                salient_fraction=salient_fraction,
            )
    return results
