"""End-to-end APTQ: Algorithm 1 of the paper, on a fault-tolerant runtime.

Step 1 — Hessian-attention-based quantization: every attention projection
is quantized with the error-compensated solver driven by the attention-
aware Hessians (Eqs. (7), (9)-(17)); feed-forward projections use the GPTQ
input Hessian.  Q/K/V are quantized head-by-head, each head's column slice
against its own Hessian.

Step 2 — Hessian-trace-based mixed precision: layers are ranked by average
Hessian trace (computed on the full-precision model) and the top fraction
R of weights is kept at 4 bits, the rest dropped to 2 bits (Eq. (18)).

Quantization proceeds block-by-block with calibration inputs recomputed on
the partially quantized model, as in GPTQ, and every layer goes through the
error-compensated int solver.

Fault tolerance (see ``docs/ROBUSTNESS.md``): every solver call runs behind
the numerical recovery ladder of :mod:`repro.runtime.recovery`, so a
non-positive-definite Hessian degrades one layer instead of killing the
run; with ``checkpoint_path`` set, an atomic checksum-verified checkpoint
of the partially quantized model and all allocation state lands after
every block, and ``resume=True`` picks the run up at the first incomplete
block.  Every retry, fallback, checkpoint, and resume is recorded in the
:class:`~repro.runtime.journal.RunHealth` report on the result.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

from repro.core.allocation import (
    allocate_bits_by_sensitivity,
    average_bits,
)
from repro.core.hessian import (
    AttentionHessians,
    CalibrationCaptureStream,
    attention_hessians_from_captures,
    head_column_slices,
)
from repro.core.kron import (
    HESSIAN_MODES,
    KronAttentionHessians,
    KronFactor,
    kron_attention_hessians_from_captures,
)
from repro.core.sensitivity import LayerSensitivity, compute_sensitivities
from repro.data.calibration import CalibrationSet
from repro.nn.transformer import LlamaModel
from repro.quant.calibration_hooks import collect_input_stats
from repro.quant.groupwise import GroupQuantResult
from repro.quant.solver import HessianFactorCache, SolverResult
from repro.runtime import faults
from repro.runtime.checkpoint import load_checkpoint, save_checkpoint
from repro.runtime.errors import CheckpointError
from repro.runtime.journal import DegradationEvent, RunHealth, RunJournal
from repro.runtime.recovery import RecoveryPolicy, SolverTask, run_solver_tasks

__all__ = ["APTQConfig", "APTQResult", "aptq_quantize_model"]

_ATTENTION_PROJECTIONS = ("q_proj", "k_proj", "v_proj", "o_proj")

#: On-disk schema version of APTQ run checkpoints.
_CHECKPOINT_VERSION = 1


@dataclasses.dataclass
class APTQConfig:
    """Knobs of an APTQ run (defaults follow the paper's setup)."""

    ratio_4bit: float = 1.0
    high_bits: int = 4
    low_bits: int = 2
    group_size: int | None = 32
    percdamp: float = 0.01
    n_probes: int = 8
    batch_size: int = 16
    seed: int = 0
    # Attention q/k Hessian engine: "probed" is the exact Rademacher
    # Gauss-Newton estimator (the default, byte-identical to the original
    # pipeline); "kron" is the Kronecker-factored KronQ approximation
    # (repro.core.kron) — all heads share one input-Gram factorization,
    # trading a measured, bench-bounded accuracy delta for speed.
    hessian_mode: str = "probed"
    # Override the sensitivity-driven allocation with an explicit per-layer
    # bit map (used by the manual block-wise ablation of Table 3): one int
    # width in [1, 16] for every quantizable layer, and no other key.  The
    # Hessian traces only choose the allocation, so an overridden run skips
    # the sensitivity pass (its result's ``sensitivities`` is empty); the
    # quantized weights are those of a run that chose the same allocation.
    allocation_override: dict[str, int] | None = None
    # Fault tolerance: write an atomic per-block checkpoint here, and with
    # resume=True continue an interrupted run from its first incomplete block.
    checkpoint_path: str | Path | None = None
    resume: bool = False
    # Recovery-ladder policy applied to every solver call.
    recovery: RecoveryPolicy = dataclasses.field(default_factory=RecoveryPolicy)
    # Fan the sensitivity pass's per-block Hessian accumulation out over
    # this many forked worker processes; 0 runs serially.  Solver stages
    # always run serially.  Results are bit-identical for every value.
    workers: int = 0


@dataclasses.dataclass
class APTQResult:
    """Everything a run produces, for analysis and reporting.

    ``sensitivities`` holds every layer's Hessian-trace record, or is
    empty when ``allocation_override`` fixed the allocation (no
    sensitivity pass ran).
    """

    allocation: dict[str, int]
    sensitivities: dict[str, LayerSensitivity]
    layer_results: dict[str, SolverResult]
    average_bits: float
    health: RunHealth = dataclasses.field(
        default_factory=lambda: RunHealth(events=())
    )


def _run_fingerprint(
    config: APTQConfig, model: LlamaModel, calibration: CalibrationSet
) -> str:
    """Digest of everything that determines a run's numerical trajectory.

    A checkpoint is only resumable by a run with the same fingerprint;
    runtime-only knobs (``checkpoint_path``, ``resume``, ``workers`` —
    the forked sensitivity pass is bit-identical to the serial one) are
    excluded so toggling them never invalidates a checkpoint.
    """
    record = {
        "config": {
            key: value
            for key, value in dataclasses.asdict(config).items()
            if key not in ("checkpoint_path", "resume", "workers")
        },
        "model": model.config.to_dict(),
        "calibration": [
            calibration.corpus_name,
            calibration.seed,
            list(calibration.segments.shape),
        ],
    }
    payload = json.dumps(record, sort_keys=True, default=str).encode()
    return hashlib.sha256(payload).hexdigest()


def _save_run_checkpoint(
    path: Path,
    fingerprint: str,
    model: LlamaModel,
    next_block: int,
    allocation: dict[str, int],
    sensitivities: dict[str, LayerSensitivity],
    layer_results: dict[str, SolverResult],
    journal: RunJournal,
) -> None:
    """Atomically write the full resumable state of a run (one ``.npz``)."""
    arrays: dict[str, np.ndarray] = {}
    for name, array in model.state_dict().items():
        arrays[f"model/{name}"] = array
    layer_meta: dict[str, dict] = {}
    for name, result in layer_results.items():
        prefix = f"layer/{name}/"
        arrays[prefix + "quantized"] = result.quantized_weight
        arrays[prefix + "codes"] = result.group_result.codes
        arrays[prefix + "scales"] = result.group_result.scales
        arrays[prefix + "zeros"] = result.group_result.zeros
        layer_meta[name] = {
            "bits": result.group_result.bits,
            "group_size": result.group_result.group_size,
            "compensated_loss": result.compensated_loss,
            "mse": result.mse,
        }
    meta = {
        "version": _CHECKPOINT_VERSION,
        "kind": "aptq-run",
        "fingerprint": fingerprint,
        "next_block": next_block,
        "allocation": allocation,
        "layers": layer_meta,
        "sensitivities": {
            name: dataclasses.asdict(record)
            for name, record in sensitivities.items()
        },
        "events": [event.to_json() for event in journal.events],
    }
    save_checkpoint(path, arrays, meta)


def _unpack_run_checkpoint(
    arrays: dict[str, np.ndarray], meta: dict
) -> tuple[dict[str, np.ndarray], dict, int]:
    """Split a loaded run checkpoint into (model state, run state, next block)."""
    model_state = {
        name[len("model/"):]: array
        for name, array in arrays.items()
        if name.startswith("model/")
    }
    layer_results: dict[str, SolverResult] = {}
    for name, record in meta["layers"].items():
        prefix = f"layer/{name}/"
        group = GroupQuantResult(
            codes=arrays[prefix + "codes"],
            scales=arrays[prefix + "scales"],
            zeros=arrays[prefix + "zeros"],
            bits=int(record["bits"]),
            group_size=int(record["group_size"]),
        )
        layer_results[name] = SolverResult(
            quantized_weight=arrays[prefix + "quantized"],
            group_result=group,
            compensated_loss=float(record["compensated_loss"]),
            mse=float(record["mse"]),
        )
    run_state = {
        "allocation": {k: int(v) for k, v in meta["allocation"].items()},
        "sensitivities": {
            name: LayerSensitivity(**record)
            for name, record in meta["sensitivities"].items()
        },
        "layer_results": layer_results,
        "events": meta.get("events", []),
    }
    return model_state, run_state, int(meta["next_block"])


def _projection_tasks(
    name: str,
    weight: np.ndarray,
    hessians: list[np.ndarray] | np.ndarray | KronFactor,
    bits: int,
    config: APTQConfig,
) -> list[SolverTask]:
    """Solver tasks of one projection; one per head for per-head Hessians."""
    if isinstance(hessians, np.ndarray):
        return [
            SolverTask(
                key=name,
                weight=weight,
                hessian=hessians,
                bits=bits,
                group_size=config.group_size,
                percdamp=config.percdamp,
            )
        ]
    if isinstance(hessians, KronFactor):
        # Every head shares the input-Gram array object, so the factor
        # cache computes one Cholesky per block and rescales per head.
        d_model = weight.shape[0]
        return [
            SolverTask(
                key=f"{name}[head {head}]",
                weight=weight[:, cols],
                hessian=hessians.input_gram,
                bits=bits,
                group_size=config.group_size,
                percdamp=config.percdamp,
                hessian_scale=float(hessians.gains[head]),
            )
            for head, cols in enumerate(
                head_column_slices(d_model, hessians.n_heads)
            )
        ]
    d_model = weight.shape[0]
    return [
        SolverTask(
            key=f"{name}[head {head}]",
            weight=weight[:, cols],
            hessian=hessians[head],
            bits=bits,
            group_size=config.group_size,
            percdamp=config.percdamp,
        )
        for head, cols in enumerate(head_column_slices(d_model, len(hessians)))
    ]


def _merge_head_results(
    weight: np.ndarray, head_results: list[SolverResult], bits: int
) -> SolverResult:
    """Stitch per-head solver results into one layer-wide record.

    Heads share d_in and group boundaries, so the per-head grids
    concatenate along the output dimension into one layer-wide record.
    """
    quantized = np.empty_like(weight)
    slices = head_column_slices(weight.shape[0], len(head_results))
    for cols, result in zip(slices, head_results):
        quantized[:, cols] = result.quantized_weight
    merged_group = GroupQuantResult(
        codes=np.hstack([r.group_result.codes for r in head_results]),
        scales=np.hstack([r.group_result.scales for r in head_results]),
        zeros=np.hstack([r.group_result.zeros for r in head_results]),
        bits=bits,
        group_size=head_results[0].group_result.group_size,
    )
    return SolverResult(
        quantized_weight=quantized,
        group_result=merged_group,
        compensated_loss=sum(r.compensated_loss for r in head_results),
        mse=float(np.mean([r.mse for r in head_results])),
    )


def _try_resume(
    checkpoint_file: Path, fingerprint: str, journal: RunJournal
) -> tuple[dict[str, np.ndarray], dict, int] | None:
    """Load resumable state, or None when the checkpoint is unusable.

    A corrupt checkpoint (truncated, bit-flipped, unreadable) is survivable:
    it is recorded as a warning and the run restarts from scratch.  A
    *fingerprint mismatch* is a caller error — the checkpoint belongs to a
    different run configuration — and raises :class:`CheckpointError`.
    """
    try:
        arrays, meta = load_checkpoint(checkpoint_file)
    except FileNotFoundError:
        return None
    except CheckpointError as error:
        journal.record(
            "warning",
            message=f"ignoring corrupt checkpoint {checkpoint_file}: {error}",
            path=str(checkpoint_file),
        )
        return None
    if meta.get("kind") != "aptq-run" or meta.get("fingerprint") != fingerprint:
        raise CheckpointError(
            f"checkpoint {checkpoint_file} was written by an incompatible "
            "run (different model/config/calibration); delete it or point "
            "checkpoint_path elsewhere"
        )
    return _unpack_run_checkpoint(arrays, meta)


def _is_width(bits: object) -> bool:
    """Whether ``bits`` is a bit-width: an int in [1, 16], not a bool."""
    return (
        not isinstance(bits, bool)
        and isinstance(bits, (int, np.integer))
        and 1 <= bits <= 16
    )


def _check_config(config: APTQConfig) -> None:
    """Reject invalid knobs before any work, so no weight has changed."""
    if config.hessian_mode not in HESSIAN_MODES:
        raise ValueError(
            f"unknown hessian_mode {config.hessian_mode!r}; expected one "
            f"of {HESSIAN_MODES}"
        )
    if config.workers < 0:
        raise ValueError(f"workers must be non-negative, got {config.workers}")
    for knob in ("high_bits", "low_bits"):
        bits = getattr(config, knob)
        if not _is_width(bits):
            raise ValueError(f"{knob} must be an int in [1, 16], got {bits!r}")
    if not 0.0 <= config.ratio_4bit <= 1.0:
        raise ValueError(
            f"ratio_4bit must be in [0, 1], got {config.ratio_4bit!r}"
        )


def _check_allocation_override(
    override: dict[str, int], layer_names: set[str]
) -> None:
    """Reject an override that names other layers or an invalid width.

    Runs before any work, so a bad map never leaves a half-quantized
    model behind.
    """
    missing = sorted(layer_names - set(override))
    unknown = sorted(set(override) - layer_names)
    if missing or unknown:
        raise KeyError(
            "allocation override must name exactly the quantizable "
            f"layers; missing {missing}, unknown {unknown}"
        )
    invalid = {
        name: bits for name, bits in override.items() if not _is_width(bits)
    }
    if invalid:
        raise ValueError(
            f"allocation override widths must be ints in [1, 16]: {invalid}"
        )


def aptq_quantize_model(
    model: LlamaModel,
    calibration: CalibrationSet,
    config: APTQConfig | None = None,
    **overrides,
) -> APTQResult:
    """Quantize ``model`` in place with APTQ; returns the full run record.

    Every layer goes through the error-compensated int solver, block by
    block on the partially quantized model.  An invalid ``hessian_mode``,
    ``workers``, ``high_bits``, ``low_bits``, ``ratio_4bit`` or
    ``allocation_override`` raises before any weight changes.
    """
    config = dataclasses.replace(config or APTQConfig(), **overrides)
    _check_config(config)
    layers = model.quantizable_linears()
    if config.allocation_override is not None:
        _check_allocation_override(config.allocation_override, set(layers))
    journal = RunJournal()
    # Q/K/V (and gate/up) Hessians are bit-identical after the shared-Gram
    # dedup, so their damped Cholesky factors are computed once per block.
    factor_cache = HessianFactorCache()
    checkpoint_file = (
        Path(config.checkpoint_path) if config.checkpoint_path else None
    )
    fingerprint = _run_fingerprint(config, model, calibration)

    resumed = None
    if checkpoint_file is not None and config.resume:
        resumed = _try_resume(checkpoint_file, fingerprint, journal)

    # ------------------------------------------------------------------
    # Step 2's sensitivity metric is computed first, on the full-precision
    # model (Algorithm 1 computes traces during the 4-bit pass, before any
    # requantization decisions are applied).  A resumed run restores the
    # sensitivities, allocation, and partially quantized weights instead;
    # a run with ``allocation_override`` computes no sensitivities.
    # ------------------------------------------------------------------
    layer_results: dict[str, SolverResult]
    fp_hessian_cache: dict[int, AttentionHessians | KronAttentionHessians] = {}
    if resumed is not None:
        model_state, run_state, start_block = resumed
        model.load_state_dict(model_state)
        allocation = run_state["allocation"]
        sensitivities = run_state["sensitivities"]
        layer_results = run_state["layer_results"]
        journal.extend(
            DegradationEvent.from_json(event) for event in run_state["events"]
        )
        journal.record(
            "resume",
            message=f"resumed from {checkpoint_file} at block {start_block} "
            f"({len(layer_results)} layers already quantized)",
            next_block=start_block,
            path=str(checkpoint_file),
        )
    else:
        start_block = 0
        layer_results = {}
        if config.allocation_override is not None:
            # The traces only choose the allocation (Eq. (18)); a fixed
            # one needs none of them, so the pass is skipped and block 0
            # is captured by the loop below, as on a resumed run.
            sensitivities = {}
            allocation = dict(config.allocation_override)
        else:
            sensitivities = compute_sensitivities(
                model,
                calibration,
                n_probes=config.n_probes,
                batch_size=config.batch_size,
                seed=config.seed,
                attention_cache=fp_hessian_cache,
                hessian_mode=config.hessian_mode,
                workers=config.workers,
            )
            allocation = allocate_bits_by_sensitivity(
                sensitivities,
                config.ratio_4bit,
                high_bits=config.high_bits,
                low_bits=config.low_bits,
            )

    # Only block 0 reuses its sensitivity-pass Hessians (below): every
    # later block is recaptured on the partially quantized model, so the
    # rest are dropped here instead of living through the whole run.
    block0_hessians = fp_hessian_cache.pop(0, None)
    fp_hessian_cache.clear()

    # ------------------------------------------------------------------
    # Step 1: sequential Hessian-attention-based quantization.  One
    # deferred capture stream serves every block's attention captures and
    # MLP input statistics: it caches each batch's running hidden state
    # and re-runs only the just-quantized block when the next one is
    # requested — bitwise identical to re-forwarding the model from the
    # embedding (each cached state is computed with exactly the weights
    # the full re-forward would have seen, since APTQ finishes a block
    # before moving on).
    # ------------------------------------------------------------------
    stream = CalibrationCaptureStream(
        model, calibration.segments, batch_size=config.batch_size
    )
    for block_index in range(start_block, len(model.blocks)):
        faults.maybe_fault("block-start", str(block_index))
        prefix = f"blocks.{block_index}."
        attention_names = [
            f"{prefix}self_attn.{proj}" for proj in _ATTENTION_PROJECTIONS
        ]
        mlp_names = [
            name
            for name in layers
            if name.startswith(prefix) and name not in attention_names
        ]

        # Block 0 reuses the sensitivity pass's Hessians: before it is
        # quantized the model is the pass's model, with the same batches
        # and seed, so they are bit-identical to a fresh capture.  A
        # resumed or overridden run skipped the pass and has none.
        if block_index == 0 and block0_hessians is not None:
            hessians, block0_hessians = block0_hessians, None
        else:
            captures = stream.block_captures(block_index)
            attn = model.blocks[block_index].self_attn
            if config.hessian_mode == "kron":
                hessians = kron_attention_hessians_from_captures(
                    attn,
                    captures,
                    n_probes=config.n_probes,
                    seed=config.seed + block_index,
                )
            else:
                hessians = attention_hessians_from_captures(
                    attn,
                    captures,
                    n_probes=config.n_probes,
                    seed=config.seed + block_index,
                )
            del captures

        per_projection: dict[
            str, list[np.ndarray] | np.ndarray | KronFactor
        ] = {
            "q_proj": hessians.q,
            "k_proj": hessians.k,
            "v_proj": hessians.v,
            "o_proj": hessians.o,
        }
        # All four projection Hessians were computed above, before any of
        # the block's weights change, so the per-projection (and per-head)
        # solves are independent: one solver stage.
        stage_tasks: list[SolverTask] = []
        spans: list[tuple[str, slice, bool]] = []
        for projection in _ATTENTION_PROJECTIONS:
            name = f"{prefix}self_attn.{projection}"
            tasks = _projection_tasks(
                name,
                layers[name].weight.data,
                per_projection[projection],
                allocation[name],
                config,
            )
            spans.append(
                (
                    name,
                    slice(len(stage_tasks), len(stage_tasks) + len(tasks)),
                    not isinstance(per_projection[projection], np.ndarray),
                )
            )
            stage_tasks.extend(tasks)
        stage_results = run_solver_tasks(
            stage_tasks,
            policy=config.recovery,
            journal=journal,
            cache=factor_cache,
        )
        for name, span, per_head in spans:
            linear = layers[name]
            if per_head:
                result = _merge_head_results(
                    linear.weight.data, stage_results[span], allocation[name]
                )
            else:
                (result,) = stage_results[span]
            # The APTQ core is a quantizer: weight rewrites are its output.
            linear.weight.data = result.quantized_weight  # lint: disable=autograd-inplace-data
            layer_results[name] = result

        if mlp_names:
            stats = stream.block_input_stats(
                block_index, {name: layers[name] for name in mlp_names}
            )
            mlp_tasks = [
                SolverTask(
                    key=name,
                    weight=layers[name].weight.data,
                    hessian=stats[name].normalised_hessian(),
                    bits=allocation[name],
                    group_size=config.group_size,
                    percdamp=config.percdamp,
                )
                for name in mlp_names
            ]
            mlp_results = run_solver_tasks(
                mlp_tasks,
                policy=config.recovery,
                journal=journal,
                cache=factor_cache,
            )
            for name, result in zip(mlp_names, mlp_results):
                layers[name].weight.data = result.quantized_weight  # lint: disable=autograd-inplace-data
                layer_results[name] = result

        if checkpoint_file is not None:
            journal.record(
                "checkpoint",
                message=f"block {block_index} complete; checkpoint written",
                block=block_index,
                path=str(checkpoint_file),
            )
            _save_run_checkpoint(
                checkpoint_file,
                fingerprint,
                model,
                block_index + 1,
                allocation,
                sensitivities,
                layer_results,
                journal,
            )

    # Any non-block layer (untied lm_head) quantizes with the GPTQ Hessian.
    remaining = [name for name in layers if name not in layer_results]
    if remaining:
        stats = collect_input_stats(
            model,
            calibration.segments,
            layer_names=remaining,
            batch_size=config.batch_size,
        )
        tail_tasks = [
            SolverTask(
                key=name,
                weight=layers[name].weight.data,
                hessian=stats[name].normalised_hessian(),
                bits=allocation[name],
                group_size=config.group_size,
                percdamp=config.percdamp,
            )
            for name in remaining
        ]
        tail_results = run_solver_tasks(
            tail_tasks,
            policy=config.recovery,
            journal=journal,
            cache=factor_cache,
        )
        for name, result in zip(remaining, tail_results):
            layers[name].weight.data = result.quantized_weight  # lint: disable=autograd-inplace-data
            layer_results[name] = result
        if checkpoint_file is not None:
            journal.record(
                "checkpoint",
                message="tail layers complete; final checkpoint written",
                block=len(model.blocks),
                path=str(checkpoint_file),
            )
            _save_run_checkpoint(
                checkpoint_file,
                fingerprint,
                model,
                len(model.blocks),
                allocation,
                sensitivities,
                layer_results,
                journal,
            )

    counts = {name: layers[name].weight.size for name in layers}
    return APTQResult(
        allocation=allocation,
        sensitivities=sensitivities,
        layer_results=layer_results,
        average_bits=average_bits(allocation, counts),
        health=journal.health(),
    )
