"""Registry of the quantization methods compared in the paper's tables.

``apply_method(name, model, calibration)`` mutates ``model`` in place and
returns an :class:`AppliedMethod` with the achieved average bit-width
(paper Eq. (18) accounting: bits per weight entry, grids excluded).

Names accepted (case-insensitive):

==================  ====================================================
``fp16``            no-op reference
``rtn``             round-to-nearest, uniform 4-bit
``smoothquant``     difficulty-migrated RTN, 4-bit
``fpq``             fp4 (E2M1) format, 4-bit
``gptq``            GPTQ, uniform 4-bit
``owq``             outlier-aware GPTQ, ~4.01 bits
``llm-qat``         STE QAT at 4 bits on self-generated data
``pb-llm-<P>``      partial binarization, P% of weights fp16
``aptq-<R>``        APTQ mixed 2/4-bit, R% of weights at 4 bits
``manual-<R>``      manual block-wise 2/4-bit ablation at R%
==================  ====================================================
"""

from __future__ import annotations

import dataclasses
import re

from repro.core.allocation import manual_blockwise_allocation
from repro.core.aptq import APTQConfig, aptq_quantize_model
from repro.data.calibration import CalibrationSet
from repro.nn.transformer import LlamaModel
from repro.quant.fpq import fpq_quantize_model
from repro.quant.gptq import gptq_quantize_model
from repro.quant.llmqat import LLMQATConfig, llmqat_train
from repro.quant.owq import owq_quantize_model
from repro.quant.pbllm import pbllm_average_bits, pbllm_quantize_model
from repro.quant.rtn import rtn_quantize_model
from repro.quant.smoothquant import smoothquant_quantize_model

__all__ = ["AppliedMethod", "available_methods", "apply_method"]

_RATIO_PATTERN = re.compile(r"^(aptq|manual|pb-llm)-(\d+)$")


@dataclasses.dataclass
class AppliedMethod:
    """Outcome of applying one method to one model."""

    name: str
    average_bits: float
    details: object = None


def available_methods() -> list[str]:
    """Representative method names (parameterised families use <pct>)."""
    return [
        "fp16",
        "rtn",
        "smoothquant",
        "fpq",
        "gptq",
        "owq",
        "llm-qat",
        "pb-llm-<pct>",
        "aptq-<pct>",
        "manual-<pct>",
    ]


def apply_method(
    name: str,
    model: LlamaModel,
    calibration: CalibrationSet,
    group_size: int | None = 32,
    bits: int = 4,
    seed: int = 0,
    n_probes: int = 8,
    qat_steps: int = 60,
) -> AppliedMethod:
    """Apply the named method to ``model`` in place."""
    key = name.lower()
    if key == "fp16":
        return AppliedMethod(name=name, average_bits=16.0)
    if key == "rtn":
        details = rtn_quantize_model(model, bits=bits, group_size=group_size)
        return AppliedMethod(name=name, average_bits=float(bits), details=details)
    if key == "smoothquant":
        details = smoothquant_quantize_model(
            model, calibration, bits=bits, group_size=group_size
        )
        return AppliedMethod(name=name, average_bits=float(bits), details=details)
    if key == "fpq":
        details = fpq_quantize_model(model, group_size=group_size)
        return AppliedMethod(name=name, average_bits=4.0, details=details)
    if key == "gptq":
        details = gptq_quantize_model(
            model,
            calibration,
            bits=bits,
            group_size=group_size,
        )
        return AppliedMethod(name=name, average_bits=float(bits), details=details)
    if key == "owq":
        details = owq_quantize_model(
            model, calibration, bits=bits, group_size=group_size
        )
        avg = float(
            sum(r.average_bits for r in details.values()) / len(details)
        )
        return AppliedMethod(name=name, average_bits=avg, details=details)
    if key in ("llm-qat", "llmqat"):
        history = llmqat_train(
            model,
            LLMQATConfig(
                bits=bits, group_size=group_size, steps=qat_steps, seed=seed
            ),
        )
        return AppliedMethod(name=name, average_bits=float(bits), details=history)

    match = _RATIO_PATTERN.match(key)
    if match:
        family, pct_text = match.groups()
        pct = int(pct_text)
        if not 0 <= pct <= 100:
            raise ValueError(f"percentage out of range in {name!r}")
        fraction = pct / 100.0
        if family == "pb-llm":
            details = pbllm_quantize_model(
                model,
                calibration,
                salient_fraction=fraction,
                group_size=group_size,
            )
            return AppliedMethod(
                name=name,
                average_bits=pbllm_average_bits(fraction),
                details=details,
            )
        if family == "aptq":
            result = aptq_quantize_model(
                model,
                calibration,
                APTQConfig(
                    ratio_4bit=fraction,
                    group_size=group_size,
                    seed=seed,
                    n_probes=n_probes,
                ),
            )
            return AppliedMethod(
                name=name, average_bits=result.average_bits, details=result
            )
        if family == "manual":
            allocation = manual_blockwise_allocation(model, fraction)
            result = aptq_quantize_model(
                model,
                calibration,
                APTQConfig(
                    group_size=group_size,
                    seed=seed,
                    n_probes=n_probes,
                    allocation_override=allocation,
                ),
            )
            return AppliedMethod(
                name=name, average_bits=result.average_bits, details=result
            )
    raise ValueError(f"unknown method {name!r}; see available_methods()")
