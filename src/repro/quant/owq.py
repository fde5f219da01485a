"""OWQ (Lee et al., 2023): outlier-aware weight quantization.

OWQ observes that a few "weak" input channels — those with extreme
activation magnitudes — dominate the quantization error, keeps the weight
columns attached to those channels in fp16, and GPTQ-quantizes the rest.
Channel sensitivity follows the OWQ criterion ``lambda_j = H_jj ·
||W_j||²``-style ranking using the calibration Hessian diagonal.

The paper's Table 1 lists OWQ at an average of 4.01 bits: the tiny fraction
of fp16 columns raises the average just above 4.  We compute the true
average from the kept-column count.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.data.calibration import CalibrationSet
from repro.nn.transformer import LlamaModel
from repro.quant.calibration_hooks import sequential_input_stats
from repro.quant.solver import SolverResult, quantize_with_hessian

__all__ = ["OWQResult", "select_outlier_channels", "owq_quantize_model"]


@dataclasses.dataclass
class OWQResult:
    """Solver output plus the fp16-kept outlier channel indices."""

    solver_result: SolverResult
    outlier_channels: np.ndarray

    @property
    def average_bits(self) -> float:
        """Effective bits per weight with outlier channels kept at fp16."""
        d_in = self.solver_result.quantized_weight.shape[0]
        kept = self.outlier_channels.size
        low = self.solver_result.bits
        return (kept * 16.0 + (d_in - kept) * low) / d_in


def select_outlier_channels(
    hessian: np.ndarray, weight: np.ndarray, fraction: float
) -> np.ndarray:
    """Indices of the most sensitive input channels (kept in fp16)."""
    if not 0.0 <= fraction < 1.0:
        raise ValueError("fraction must be in [0, 1)")
    if fraction == 0.0:
        return np.empty(0, dtype=np.int64)
    # Keep at least one channel: OWQ always retains a few weak columns even
    # when the rounded count underflows on narrow layers.
    count = max(1, int(round(fraction * weight.shape[0])))
    sensitivity = np.diagonal(hessian) * (weight**2).sum(axis=1)
    return np.argsort(-sensitivity, kind="stable")[:count]


def owq_quantize_model(
    model: LlamaModel,
    calibration: CalibrationSet,
    bits: int = 4,
    group_size: int | None = 32,
    outlier_fraction: float = 0.01,
    percdamp: float = 0.01,
    batch_size: int = 16,
) -> dict[str, OWQResult]:
    """Quantize in place, keeping ``outlier_fraction`` of channels fp16."""
    results: dict[str, OWQResult] = {}
    layers = model.quantizable_linears()
    for group, stats in sequential_input_stats(
        model, calibration.segments, batch_size
    ):
        for name in group:
            linear = layers[name]
            hessian = stats[name].normalised_hessian()
            weight = linear.weight.data
            outliers = select_outlier_channels(hessian, weight, outlier_fraction)
            kept_rows = weight[outliers].copy()
            # Zero the outlier channels out of the quantization problem so
            # the solver neither quantizes them nor compensates into them.
            masked_hessian = hessian.copy()
            masked_hessian[outliers, :] = 0.0
            masked_hessian[:, outliers] = 0.0
            masked_weight = weight.copy()
            masked_weight[outliers, :] = 0.0
            result = quantize_with_hessian(
                masked_weight,
                masked_hessian,
                bits=bits,
                group_size=group_size,
                percdamp=percdamp,
            )
            final = result.quantized_weight
            final[outliers] = kept_rows
            linear.weight.data = final
            results[name] = OWQResult(
                solver_result=result, outlier_channels=outliers
            )
    return results
