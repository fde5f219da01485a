"""Affine uniform quantization: the ``quant(w)`` primitive of the paper.

Weights are mapped to integer codes in ``[0, 2^bits - 1]`` via a scale and
zero-point.  The min/max fit of that grid is
:func:`repro.quant.groupwise.group_params`, one grid per output column of
a row group (asymmetric and anchored at zero, the GPTQ default).
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = ["QuantParams", "quantize", "dequantize"]


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


def quantize(values: np.ndarray, params: QuantParams) -> np.ndarray:
    """Map floats to integer codes on the grid."""
    codes = np.round(values / params.scale + params.zero)
    return np.clip(codes, 0, params.n_levels).astype(np.int64)


def dequantize(codes: np.ndarray, params: QuantParams) -> np.ndarray:
    """Map integer codes back to floats."""
    return (np.asarray(codes, dtype=np.float64) - params.zero) * params.scale
