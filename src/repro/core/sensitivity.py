"""Layer sensitivity via average Hessian trace (Algorithm 1, line 12/17).

For attention projections, the trace comes from the attention-aware
Hessians of :mod:`repro.core.hessian`; for feed-forward projections it
comes from the GPTQ input Hessian ``2 X X^T / n`` — exactly the split the
paper describes ("the Hessian matrix form in the GPTQ method" for FFN
layers, the attention-output form for Q/K/V/O).

Traces are normalised per weight dimension (mean of the Hessian diagonal)
so layers of different widths are comparable.

The sensitivity pass runs on the *frozen* full-precision model, so the
attention captures stream through a single forward per calibration batch
(:class:`~repro.quant.calibration_hooks.CalibrationCaptureStream` with
``frozen=True``) instead of one forward per ``(block, batch)`` pair, and
the per-block Hessian accumulation can fan out over forked worker
processes (``workers > 0``) — each block's estimator is independent and
deterministic, so parallel results are bit-identical to serial.  This
fan-out is the only fork between quantize and eval; solver stages and
evaluation run serially.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.hessian import (
    AttentionHessians,
    CalibrationCaptureStream,
    attention_hessians_from_captures,
)
from repro.core.kron import (
    HESSIAN_MODES,
    KronAttentionHessians,
    kron_attention_hessians_from_captures,
)
from repro.data.calibration import CalibrationSet
from repro.nn.transformer import LlamaModel
from repro.quant.calibration_hooks import collect_input_stats
from repro.runtime.parallel import run_parallel_map

__all__ = ["LayerSensitivity", "compute_sensitivities"]

#: Estimated accumulation FLOPs below which the per-block fan-out costs
#: more than it saves.  Fork + pickle overhead is ~50-100 ms; at ~1 GFLOP/s
#: of useful numpy throughput that is ~5e7 floating-point operations, so
#: a pass whose estimated cost sits below this bound runs serially even
#: when ``workers > 0`` was requested.
MIN_PARALLEL_COST = 5e7

_ATTENTION_PROJECTIONS = ("q_proj", "k_proj", "v_proj", "o_proj")


@dataclasses.dataclass
class LayerSensitivity:
    """Sensitivity record of one quantizable layer."""

    name: str
    mean_trace: float
    n_weights: int
    is_attention: bool


def compute_sensitivities(
    model: LlamaModel,
    calibration: CalibrationSet,
    n_probes: int = 8,
    batch_size: int = 16,
    seed: int = 0,
    attention_cache: dict[int, AttentionHessians | KronAttentionHessians]
    | None = None,
    hessian_mode: str = "probed",
    workers: int = 0,
) -> dict[str, LayerSensitivity]:
    """Average Hessian trace of every quantizable layer.

    ``attention_cache``, if given, is filled with the per-block attention
    Hessians so a caller can reuse them instead of recomputing; without
    it, the serial pass keeps no block's Hessians past that block.
    ``hessian_mode`` selects the q/k engine (``"probed"`` — exact
    estimator — or ``"kron"``, see :mod:`repro.core.kron`); ``workers >
    0`` accumulates block Hessians in forked worker processes
    (bit-identical to serial).
    """
    if hessian_mode not in HESSIAN_MODES:
        raise ValueError(
            f"unknown hessian_mode {hessian_mode!r}; expected one of "
            f"{HESSIAN_MODES}"
        )
    if workers < 0:
        raise ValueError(f"workers must be non-negative, got {workers}")
    layers = model.quantizable_linears()
    sensitivities: dict[str, LayerSensitivity] = {}

    ffn_names = [
        name
        for name in layers
        if not name.split(".")[-1] in _ATTENTION_PROJECTIONS
    ]
    if ffn_names:
        stats = collect_input_stats(
            model, calibration.segments, layer_names=ffn_names,
            batch_size=batch_size,
        )
        for name in ffn_names:
            hessian = stats[name].normalised_hessian()
            sensitivities[name] = LayerSensitivity(
                name=name,
                mean_trace=float(np.trace(hessian) / hessian.shape[0]),
                n_weights=layers[name].weight.size,
                is_attention=False,
            )

    stream = CalibrationCaptureStream(
        model, calibration.segments, batch_size=batch_size, frozen=True
    )

    def block_hessians(block_index: int, captures):
        """One block's Hessians from its streamed captures."""
        attn = model.blocks[block_index].self_attn
        if hessian_mode == "kron":
            return kron_attention_hessians_from_captures(
                attn, captures, n_probes=n_probes, seed=seed + block_index
            )
        return attention_hessians_from_captures(
            attn, captures, n_probes=n_probes, seed=seed + block_index
        )

    def record(block_index: int, hessians) -> None:
        """Cache one block's Hessians if asked, and rank its projections."""
        if attention_cache is not None:
            attention_cache[block_index] = hessians
        for projection in _ATTENTION_PROJECTIONS:
            name = f"blocks.{block_index}.self_attn.{projection}"
            sensitivities[name] = LayerSensitivity(
                name=name,
                mean_trace=hessians.mean_trace(projection),
                n_weights=layers[name].weight.size,
                is_attention=True,
            )

    n_blocks = len(model.blocks)
    if workers > 0 and n_blocks > 1:
        # Fan out per block: captures are drained first (the stream is
        # inherently serial), then each worker accumulates one block.
        all_captures = [stream.block_captures(i) for i in range(n_blocks)]
        d_model = model.config.d_model
        total_tokens = int(np.atleast_2d(calibration.segments).size)
        cost = float(n_blocks) * total_tokens * n_probes * d_model * d_model
        per_block = run_parallel_map(
            lambda i: block_hessians(i, all_captures[i]),
            range(n_blocks),
            workers=workers,
            cost=cost,
            min_cost=MIN_PARALLEL_COST,
            label="block Hessians",
        )
        for block_index, hessians in enumerate(per_block):
            record(block_index, hessians)
    else:
        # Serial path streams block by block: captures of block ``i`` are
        # released before block ``i+1``'s are materialised, and so are its
        # Hessians unless the caller caches them.
        for block_index in range(n_blocks):
            record(
                block_index,
                block_hessians(block_index, stream.block_captures(block_index)),
            )
    return sensitivities
