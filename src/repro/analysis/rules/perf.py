"""Performance rules for the inference/evaluation hot paths.

The evaluation harness scores every token of every window, so its cost is
dominated by what happens per ``(batch, seq, vocab)`` logit block.  The
fused :func:`repro.nn.functional.gather_nll` computes per-token NLL
without materialising the full-vocab log-probability tensor; a stray
``log_softmax``-then-gather in pipeline code silently reintroduces that
allocation (3 vocab-sized temporaries per batch) and the memory traffic
that goes with it.  The ``perf-full-logsoftmax`` rule pins full-vocab
``log_softmax`` calls to the two modules that define the primitives —
everything else should route through ``gather_nll``/``cross_entropy``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis import astutil
from repro.analysis.core import Diagnostic, ModuleContext, Rule, rule

__all__ = ["FULL_LOGSOFTMAX_ALLOWED", "CALIBRATION_REFORWARD_ALLOWED"]

#: Modules allowed to call ``log_softmax`` directly (dotted, no ``.py``):
#: the numpy and autograd primitive definitions, whose reference
#: compositions (``gather_nll_reference``) exist to differentially test
#: the fused path.
FULL_LOGSOFTMAX_ALLOWED = (
    "repro.nn.functional",
    "repro.autograd.ops",
)


@rule(
    "perf-full-logsoftmax",
    "full-vocab log_softmax outside the primitive modules; use gather_nll",
)
def _full_logsoftmax(self: Rule, module: ModuleContext) -> Iterator[Diagnostic]:
    if module.in_package(*FULL_LOGSOFTMAX_ALLOWED):
        return
    for node in astutil.walk_calls(module.tree):
        name = astutil.call_name(node)
        if name is None:
            continue
        if name.split(".")[-1] == "log_softmax":
            yield self.diagnostic(
                module,
                node,
                "log_softmax materialises the full (..., vocab) log-prob "
                "tensor; for per-token NLL route through the fused "
                "repro.nn.functional.gather_nll (or ops.gather_nll on the "
                "autograd path), which is bit-identical and allocation-free",
            )


#: Modules allowed to re-forward the model per (block, batch) pair: the
#: reference calibration path (``capture_attention`` and the legacy
#: ``attention_hessians`` entry point) that the streaming fast path is
#: certified against lives in ``repro.core.hessian``.
CALIBRATION_REFORWARD_ALLOWED = ("repro.core.hessian",)


@rule(
    "perf-calibration-reforward",
    "per-block model re-forward in a calibration loop; stream captures",
)
def _calibration_reforward(
    self: Rule, module: ModuleContext
) -> Iterator[Diagnostic]:
    if module.in_package(*CALIBRATION_REFORWARD_ALLOWED):
        return
    reported: set[int] = set()
    for loop in ast.walk(module.tree):
        if not isinstance(loop, (ast.For, ast.While)):
            continue
        # A loop over blocks names them in its iterable: ``model.blocks``,
        # ``range(start_block, n)``, ``layers_by_block(names)``.
        block_loop = isinstance(loop, ast.For) and "block" in ast.unparse(
            loop.iter
        )
        for node in astutil.walk_calls(loop):
            if id(node) in reported:
                continue
            name = astutil.call_name(node)
            if name is None:
                continue
            parts = name.split(".")
            if parts[-1] == "capture_attention":
                reported.add(id(node))
                yield self.diagnostic(
                    module,
                    node,
                    "capture_attention restarts at the embedding for every "
                    "(block, batch) pair — O(L^2) block forwards over a "
                    "calibration run; stream per-block captures through "
                    "repro.quant.calibration_hooks.CalibrationCaptureStream "
                    "instead "
                    "(bit-identical, one block forward per batch)",
                )
            elif (
                block_loop
                and parts[-1] in ("forward", "forward_array")
                and any("model" in part for part in parts[:-1])
            ):
                reported.add(id(node))
                yield self.diagnostic(
                    module,
                    node,
                    "full-model forward inside a loop over blocks re-runs "
                    "the whole quantized prefix per block; cache the "
                    "running hidden states via "
                    "repro.quant.calibration_hooks.CalibrationCaptureStream",
                )
            elif block_loop and parts[-1] == "collect_input_stats":
                # The same full-model forward, hidden behind the call.
                reported.add(id(node))
                yield self.diagnostic(
                    module,
                    node,
                    "collect_input_stats forwards the whole model per "
                    "call, so inside a loop over blocks it re-runs the "
                    "quantized prefix per block; collect each block's "
                    "input statistics via repro.quant.calibration_hooks."
                    "sequential_input_stats (or CalibrationCaptureStream."
                    "block_input_stats)",
                )
