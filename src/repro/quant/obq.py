"""Optimal Brain Quantization (Frantar & Alistarh, NeurIPS 2022).

The greedy per-weight reference method GPTQ/APTQ accelerate: each output
neuron is an independent problem; weights are quantized one at a time in the
order of least induced error (paper Eq. (2)), the survivors updated via
Eq. (3), and the inverse Hessian downdated via Eq. (4).  Cubic cost — used
on small matrices in tests/ablations to validate that the fast fixed-order
solver loses little.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.quant.groupwise import group_params
from repro.quant.solver import prepare_hessian
from repro.quant.uniform import QuantParams, dequantize, quantize
from repro.runtime.recovery import hessian_inverse

__all__ = ["OBQResult", "obq_quantize_matrix"]


@dataclasses.dataclass
class OBQResult:
    """Quantized weights, codes, and accumulated error of one OBQ run."""

    quantized_weight: np.ndarray
    codes: np.ndarray
    params: QuantParams
    total_error: float


def _downdate_inverse(inv: np.ndarray, index: int) -> np.ndarray:
    """Remove row/column ``index`` from an inverse matrix (paper Eq. (4))."""
    column = inv[:, index]
    adjusted = inv - np.outer(column, inv[index, :]) / inv[index, index]
    keep = np.arange(inv.shape[0]) != index
    return adjusted[np.ix_(keep, keep)]


def obq_quantize_matrix(
    weight: np.ndarray,
    hessian: np.ndarray,
    bits: int,
    percdamp: float = 0.01,
) -> OBQResult:
    """Greedy OBQ over a ``(d_in, d_out)`` matrix with shared input Hessian."""
    weight = np.asarray(weight, dtype=np.float64)
    d_in, d_out = weight.shape
    if hessian.shape != (d_in, d_in):
        raise ValueError("hessian shape mismatch")
    hessian, dead = prepare_hessian(hessian, percdamp)
    base_inv = hessian_inverse(hessian)
    params = group_params(weight, slice(None), bits)

    quantized = np.empty_like(weight)
    codes = np.empty((d_in, d_out), dtype=np.int64)
    total_error = 0.0

    for col in range(d_out):
        w = weight[:, col].copy()
        w[dead] = 0.0
        inv = base_inv.copy()
        active = np.arange(d_in)
        col_params = QuantParams(
            scale=params.scale[col], zero=params.zero[col], bits=bits
        )
        while active.size:
            w_active = w[active]
            q_codes = quantize(w_active, col_params)
            q_vals = dequantize(q_codes, col_params)
            diag = np.diagonal(inv)
            scores = (q_vals - w_active) ** 2 / diag
            pick = int(np.argmin(scores))
            row = active[pick]
            quantized[row, col] = q_vals[pick]
            codes[row, col] = q_codes[pick]
            err = (w_active[pick] - q_vals[pick]) / diag[pick]
            total_error += 0.5 * float(err * (w_active[pick] - q_vals[pick]))
            # Update survivors (paper Eq. (3)).
            w[active] -= err * inv[:, pick]
            w[row] = quantized[row, col]
            inv = _downdate_inverse(inv, pick)
            active = np.delete(active, pick)
    return OBQResult(
        quantized_weight=quantized,
        codes=codes,
        params=params,
        total_error=total_error,
    )
