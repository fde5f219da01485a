"""Affine uniform quantization: the ``quant(w)`` primitive of the paper.

Weights are mapped to integer codes in ``[0, 2^bits - 1]`` via a scale and
zero-point chosen from the tensor's min/max range (asymmetric, the GPTQ
default), or symmetrically around zero on request.
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = [
    "QuantParams",
    "compute_params",
    "quantize",
    "dequantize",
    "quantize_dequantize",
]


@dataclasses.dataclass
class QuantParams:
    """Scale/zero-point pair(s) for a quantization grid.

    ``scale`` and ``zero`` broadcast against the array being quantized, so a
    single :class:`QuantParams` can describe per-tensor, per-column or
    per-group grids.
    """

    scale: np.ndarray
    zero: np.ndarray
    bits: int

    def __post_init__(self) -> None:
        if not 1 <= self.bits <= 16:
            raise ValueError("bits must be in [1, 16]")
        self.scale = np.asarray(self.scale, dtype=np.float64)
        self.zero = np.asarray(self.zero, dtype=np.float64)

    @property
    def n_levels(self) -> int:
        """Largest code value of the grid (``2**bits - 1``)."""
        return (1 << self.bits) - 1


def compute_params(
    values: np.ndarray,
    bits: int,
    axis: int | None = None,
    symmetric: bool = False,
) -> QuantParams:
    """Min/max-calibrated quantization grid for ``values``.

    ``axis=None`` gives per-tensor parameters; an integer axis gives one
    scale per slice along that axis (keepdims, so the result broadcasts).
    """
    values = np.asarray(values, dtype=np.float64)
    if axis is None:
        lo = values.min(keepdims=True)
        hi = values.max(keepdims=True)
        # Match dims so broadcasting works uniformly.
        lo = lo.reshape((1,) * values.ndim)
        hi = hi.reshape((1,) * values.ndim)
    else:
        reduce_axes = tuple(i for i in range(values.ndim) if i != axis % values.ndim)
        lo = values.min(axis=reduce_axes, keepdims=True)
        hi = values.max(axis=reduce_axes, keepdims=True)
    # Anchor the grid at zero (standard GPTQ quantizer behaviour): zero is
    # always exactly representable, and constant slices round-trip exactly.
    lo = np.minimum(lo, 0.0)
    hi = np.maximum(hi, 0.0)
    n_levels = (1 << bits) - 1
    # The grid step is tested after the divide: a span of a few subnormal
    # steps underflows to a zero step, which would turn codes into NaN.
    # Like a constant slice, it gets a unit grid (within half a step).
    if symmetric:
        bound = np.maximum(np.abs(lo), np.abs(hi))
        scale = 2.0 * bound / n_levels
        scale = np.where(scale > 0, scale, 1.0)
        zero = np.full_like(scale, (n_levels + 1) / 2.0 - 0.5)
        # Symmetric grid centres zero on the mid code.
        zero = np.round(zero)
    else:
        scale = (hi - lo) / n_levels
        scale = np.where(scale > 0, scale, 1.0)
        zero = np.clip(np.round(-lo / scale), 0, n_levels)
    return QuantParams(scale=scale, zero=zero, bits=bits)


def quantize(values: np.ndarray, params: QuantParams) -> np.ndarray:
    """Map floats to integer codes on the grid."""
    codes = np.round(values / params.scale + params.zero)
    return np.clip(codes, 0, params.n_levels).astype(np.int64)


def dequantize(codes: np.ndarray, params: QuantParams) -> np.ndarray:
    """Map integer codes back to floats."""
    return (np.asarray(codes, dtype=np.float64) - params.zero) * params.scale


def quantize_dequantize(values: np.ndarray, params: QuantParams) -> np.ndarray:
    """Round-trip: the nearest representable value of each entry."""
    return dequantize(quantize(values, params), params)
