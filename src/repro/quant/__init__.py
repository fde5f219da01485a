"""Quantization substrate and the full baseline family of the paper.

Building blocks
---------------
* :mod:`repro.quant.uniform` — affine uniform quantizer (scale/zero-point).
* :mod:`repro.quant.groupwise` — group-wise quantization over input channels
  and the min/max grid fit (``group_params``).
* :mod:`repro.quant.packing` — dense bit-packing of integer codes.
* :mod:`repro.quant.formats` — the int-k storage format (``IntFormat``:
  encode/decode, byte-exact pack/unpack, a declared error bound) and
  ``FormatLinear``, the packed layer every deployed layer is stored as.
* :mod:`repro.quant.deploy` — the packed-model artifact (``pack_model``,
  ``PackedModel``).
* :mod:`repro.quant.solver` — the shared second-order error-compensation
  solver (GPTQ Cholesky inner loop; APTQ reuses it with its own Hessians).

Methods compared in the paper's tables
--------------------------------------
* :mod:`repro.quant.rtn` — round-to-nearest.
* :mod:`repro.quant.gptq` — GPTQ (Frantar et al., ICLR 2023).
* :mod:`repro.quant.obq` — Optimal Brain Quantization (reference).
* :mod:`repro.quant.smoothquant` — SmoothQuant difficulty migration.
* :mod:`repro.quant.owq` — outlier-aware weight quantization.
* :mod:`repro.quant.pbllm` — PB-LLM partial binarization.
* :mod:`repro.quant.fpq` — FPQ / LLM-FP4-style fp4 format.
* :mod:`repro.quant.llmqat` — LLM-QAT data-free quantization-aware training.
"""

from repro.quant.uniform import QuantParams, dequantize, quantize
from repro.quant.groupwise import GroupQuantResult, quantize_groupwise
from repro.quant.packing import pack_codes, unpack_codes
from repro.quant.formats import FormatLinear, IntFormat, QuantizedTensor
from repro.quant.deploy import PackedModel, pack_model
from repro.quant.solver import (
    HessianFactor,
    HessianFactorCache,
    SolverResult,
    hessian_fingerprint,
    quantize_with_hessian,
    quantize_with_hessian_reference,
)
from repro.quant.rtn import rtn_quantize_layer, rtn_quantize_model
from repro.quant.gptq import gptq_quantize_layer, gptq_quantize_model
from repro.quant.obq import obq_quantize_matrix
from repro.quant.smoothquant import smoothquant_quantize_model
from repro.quant.owq import owq_quantize_model
from repro.quant.pbllm import pbllm_quantize_model
from repro.quant.fpq import fpq_quantize_model
from repro.quant.llmqat import llmqat_train

__all__ = [
    "QuantParams",
    "quantize",
    "dequantize",
    "GroupQuantResult",
    "quantize_groupwise",
    "pack_codes",
    "unpack_codes",
    "QuantizedTensor",
    "IntFormat",
    "FormatLinear",
    "PackedModel",
    "pack_model",
    "SolverResult",
    "HessianFactor",
    "HessianFactorCache",
    "hessian_fingerprint",
    "quantize_with_hessian",
    "quantize_with_hessian_reference",
    "rtn_quantize_layer",
    "rtn_quantize_model",
    "gptq_quantize_layer",
    "gptq_quantize_model",
    "obq_quantize_matrix",
    "smoothquant_quantize_model",
    "owq_quantize_model",
    "pbllm_quantize_model",
    "fpq_quantize_model",
    "llmqat_train",
]
