"""Group-wise quantization over input channels.

The paper (like GPTQ) uses a group size of 128: each group of 128 input
channels of each output column gets its own scale/zero-point.  Weights here
are stored ``(d_in, d_out)`` (see :mod:`repro.nn.modules`), so groups are
blocks of *rows* and parameters have one entry per ``(group, column)``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.quant.uniform import QuantParams, quantize

__all__ = [
    "resolve_group_size",
    "group_of_row",
    "dequantize_groups",
    "GroupQuantResult",
    "group_params",
    "quantize_groupwise",
]


def resolve_group_size(d_in: int, group_size: int | None) -> int:
    """Clamp the requested group size to the layer's input dimension.

    ``None`` or anything >= ``d_in`` means one group per column
    (per-column quantization).
    """
    if group_size is None or group_size >= d_in:
        return d_in
    if group_size <= 0:
        raise ValueError("group_size must be positive")
    return group_size


def group_of_row(d_in: int, group_size: int, n_groups: int) -> np.ndarray:
    """Group index of every input row (the last group absorbs the remainder).

    Bits:
        d_in: i64[0, *]
        group_size: i64[1, *]
        n_groups: i64[1, *]
        return: i64[0, *]
    """
    return np.minimum(np.arange(d_in) // group_size, n_groups - 1)


def dequantize_groups(
    codes: np.ndarray, scales: np.ndarray, zeros: np.ndarray, group_size: int
) -> np.ndarray:
    """``(code - zero) * scale`` with each row's group grid, in float64.

    ``scales``/``zeros`` have shape ``(n_groups, d_out)``; narrower float
    grids upcast exactly inside the arithmetic.
    """
    rows = group_of_row(codes.shape[0], group_size, scales.shape[0])
    return (np.asarray(codes, dtype=np.float64) - zeros[rows]) * scales[rows]


@dataclasses.dataclass
class GroupQuantResult:
    """Codes plus per-group grids for one weight matrix.

    ``codes`` has the weight's shape; ``scales``/``zeros`` have shape
    ``(n_groups, d_out)``.
    """

    codes: np.ndarray
    scales: np.ndarray
    zeros: np.ndarray
    bits: int
    group_size: int

    @property
    def n_groups(self) -> int:
        """Number of quantization groups along the input dimension."""
        return self.scales.shape[0]

    def dequantize(self) -> np.ndarray:
        """Reconstruct the dense float weight."""
        return dequantize_groups(
            self.codes, self.scales, self.zeros, self.group_size
        )


def group_params(
    weight: np.ndarray, rows: slice, bits: int
) -> QuantParams:
    """Min/max grid for one row-group, per output column.

    The range is widened to include zero (the GPTQ quantizer's
    convention), so zero is exactly representable and a constant column
    round-trips exactly.
    """
    block = weight[rows]
    lo = np.minimum(block.min(axis=0), 0.0)
    hi = np.maximum(block.max(axis=0), 0.0)
    n_levels = (1 << bits) - 1
    scale = (hi - lo) / n_levels
    # Zero span, or a subnormal one that underflows: a unit grid.
    scale = np.where(scale > 0, scale, 1.0)
    zero = np.clip(np.round(-lo / scale), 0, n_levels)
    return QuantParams(scale=scale, zero=zero, bits=bits)


def quantize_groupwise(
    weight: np.ndarray, bits: int, group_size: int | None = None
) -> GroupQuantResult:
    """Round-to-nearest group-wise quantization of a ``(d_in, d_out)`` matrix."""
    weight = np.asarray(weight, dtype=np.float64)
    if weight.ndim != 2:
        raise ValueError("expected a 2-D weight matrix")
    d_in, d_out = weight.shape
    group_size = resolve_group_size(d_in, group_size)
    n_groups = (d_in + group_size - 1) // group_size
    codes = np.empty_like(weight, dtype=np.int64)
    scales = np.empty((n_groups, d_out))
    zeros = np.empty((n_groups, d_out))
    for g in range(n_groups):
        rows = slice(g * group_size, min((g + 1) * group_size, d_in))
        params = group_params(weight, rows, bits)
        codes[rows] = quantize(weight[rows], params)
        scales[g] = params.scale
        zeros[g] = params.zero
    return GroupQuantResult(
        codes=codes, scales=scales, zeros=zeros, bits=bits, group_size=group_size
    )
