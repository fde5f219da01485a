"""GPTQ (Frantar et al., ICLR 2023): layer-wise second-order quantization.

For each linear layer, the Hessian of the layer reconstruction objective
``||WX - ŴX||²`` is ``H = 2 X X^T`` over the calibration inputs; the shared
solver (:mod:`repro.quant.solver`) then runs the Cholesky-reformulated OBQ
sweep.  Layers are processed transformer-block by transformer-block, each
block's calibration inputs computed with all *previous* blocks already
quantized (:func:`~repro.quant.calibration_hooks.sequential_input_stats`),
matching the official implementation.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.data.calibration import CalibrationSet
from repro.nn.modules import Linear
from repro.nn.transformer import LlamaModel
from repro.quant.calibration_hooks import sequential_input_stats
from repro.quant.solver import (
    HessianFactorCache,
    SolverResult,
    quantize_with_hessian,
)

__all__ = ["gptq_quantize_layer", "GPTQConfig", "gptq_quantize_model"]


def gptq_quantize_layer(
    linear: Linear,
    hessian: np.ndarray,
    bits: int,
    group_size: int | None = None,
    percdamp: float = 0.01,
    cache: HessianFactorCache | None = None,
) -> SolverResult:
    """Quantize one layer in place with the GPTQ solver.

    ``cache`` memoizes Cholesky factors across layers sharing a Hessian
    (Q/K/V and gate/up do, via the shared-Gram calibration dedup).

    Shapes:
        hessian: (d_in, d_in) f64
        bits: scalar
        return: any

    Bits:
        bits: i64[1, 32]
        group_size: i64[1, *]
        return: any
    """
    result = quantize_with_hessian(
        linear.weight.data,
        hessian,
        bits=bits,
        group_size=group_size,
        percdamp=percdamp,
        cache=cache,
    )
    linear.weight.data = result.quantized_weight
    return result


@dataclasses.dataclass
class GPTQConfig:
    """Knobs of a GPTQ run (defaults follow the paper's setup)."""

    bits: int | dict[str, int] = 4
    group_size: int | None = 32
    percdamp: float = 0.01
    batch_size: int = 16


def gptq_quantize_model(
    model: LlamaModel,
    calibration: CalibrationSet,
    config: GPTQConfig | None = None,
    **overrides,
) -> dict[str, SolverResult]:
    """Quantize every linear layer of ``model`` in place, block by block.

    ``config.bits`` may be an int or a per-layer mapping (mixed precision).
    Returns the per-layer solver results keyed by layer name.
    """
    config = dataclasses.replace(config or GPTQConfig(), **overrides)
    layers = model.quantizable_linears()
    results: dict[str, SolverResult] = {}
    factor_cache = HessianFactorCache()
    for group, stats in sequential_input_stats(
        model, calibration.segments, config.batch_size
    ):
        for name in group:
            layer_bits = (
                config.bits[name]
                if isinstance(config.bits, dict)
                else config.bits
            )
            results[name] = gptq_quantize_layer(
                layers[name],
                stats[name].normalised_hessian(),
                bits=layer_bits,
                group_size=config.group_size,
                percdamp=config.percdamp,
                cache=factor_cache,
            )
    return results
