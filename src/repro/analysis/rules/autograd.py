"""Autograd-contract and dtype-drift rules.

The engine in :mod:`repro.autograd` has three load-bearing conventions that
nothing at runtime enforces: backward closures credit parents exclusively
through ``sink`` (which applies ``_unbroadcast``), ``Tensor.data`` is only
mutated by the quantizers and the optimizers, and everything autograd sees
stays float64.  These rules make the conventions machine-checked.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis import astutil
from repro.analysis.core import Diagnostic, ModuleContext, Rule, rule

__all__ = ["DATA_MUTATION_ALLOWED", "DTYPE_NARROWING_ALLOWED"]

#: Packages/modules allowed to assign ``<tensor>.data`` (dotted, no ``.py``).
DATA_MUTATION_ALLOWED = (
    "repro.quant",
    "repro.training",
    "repro.autograd.tensor",
)

#: Storage/serialization modules where sub-float64 dtypes are the point.
DTYPE_NARROWING_ALLOWED = (
    "repro.quant.packing",
    "repro.quant.formats",
    "repro.quant.deploy",
    "repro.nn.serialize",
    "repro.report",
)

_NARROW_DTYPES = {"float32", "float16", "half", "single"}


def _attribute_is_data(node: ast.AST) -> bool:
    """Whether ``node`` is an ``<expr>.data`` attribute or an index into one."""
    if isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr == "data"


def _mutation_targets(node: ast.AST) -> list[ast.AST]:
    if isinstance(node, ast.Assign):
        return list(node.targets)
    if isinstance(node, ast.AugAssign):
        return [node.target]
    if isinstance(node, ast.AnnAssign) and node.value is not None:
        return [node.target]
    return []


@rule(
    "autograd-inplace-data",
    "Tensor.data mutated outside repro.quant / repro.training",
)
def _inplace_data(self: Rule, module: ModuleContext) -> Iterator[Diagnostic]:
    if module.in_package(*DATA_MUTATION_ALLOWED):
        return
    for node in ast.walk(module.tree):
        for target in _mutation_targets(node):
            if _attribute_is_data(target):
                yield self.diagnostic(
                    module,
                    node,
                    "in-place mutation of .data outside repro.quant/"
                    "repro.training breaks recorded graphs; go through a "
                    "quantizer or optimizer API",
                )


@rule(
    "autograd-backward-contract",
    "backward closures must take (grad, sink) and credit parents via sink",
)
def _backward_contract(self: Rule, module: ModuleContext) -> Iterator[Diagnostic]:
    functions = [
        n for n in ast.walk(module.tree)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    nested = {
        child
        for parent in functions
        for child in ast.walk(parent)
        if child is not parent
        and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    for node in nested:
        if node.name != "backward":
            continue
        params = [a.arg for a in node.args.args]
        if len(params) != 2:
            yield self.diagnostic(
                module,
                node,
                f"backward closure takes {params!r}; the contract is "
                "(grad, sink)",
            )
            continue
        sink_name = params[1]
        calls_sink = any(
            isinstance(call.func, ast.Name) and call.func.id == sink_name
            for call in astutil.walk_calls(node)
        )
        if not calls_sink:
            yield self.diagnostic(
                module,
                node,
                f"backward closure never calls {sink_name}(); parent "
                "gradients must flow through sink so _unbroadcast runs",
            )
        for child in ast.walk(node):
            for target in _mutation_targets(child):
                inner = target.value if isinstance(target, ast.Subscript) else target
                if isinstance(inner, ast.Attribute) and inner.attr in {"grad", "data"}:
                    yield self.diagnostic(
                        module,
                        child,
                        "backward closure mutates .grad/.data directly; "
                        "accumulate via sink(parent, grad) instead",
                    )


def _is_no_grad_with(node: ast.With) -> bool:
    for item in node.items:
        expr = item.context_expr
        if isinstance(expr, ast.Call):
            name = astutil.dotted_name(expr.func)
            if name is not None and name.split(".")[-1] == "no_grad":
                return True
    return False


_GRAPH_BUILDING_ATTRS = {"forward", "loss"}
_GENERATION_PREFIXES = ("generate", "decode", "sample")


@rule(
    "autograd-eval-no-grad",
    "eval/generation code calling graph-building forward()/loss() outside no_grad()",
)
def _eval_no_grad(self: Rule, module: ModuleContext) -> Iterator[Diagnostic]:
    in_eval_package = module.in_package("repro.eval")

    def scan(node: ast.AST, guarded: bool, active: bool):
        for child in ast.iter_child_nodes(node):
            child_guarded = guarded or (
                isinstance(child, ast.With) and _is_no_grad_with(child)
            )
            child_active = active
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                child_active = in_eval_package or child.name.startswith(
                    _GENERATION_PREFIXES
                )
                # A closure may escape the enclosing with-block, so a new
                # function never inherits the guard.
                child_guarded = False
            if (
                child_active
                and not child_guarded
                and isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in _GRAPH_BUILDING_ATTRS
            ):
                yield self.diagnostic(
                    module,
                    child,
                    f"call to .{child.func.attr}() builds an autograd graph "
                    "inside an eval/generation path; wrap it in "
                    "`with no_grad():` or use the forward_array path",
                )
            yield from scan(child, child_guarded, child_active)

    yield from scan(module.tree, guarded=False, active=False)


def _narrow_dtype_name(node: ast.AST) -> str | None:
    name = astutil.dotted_name(node)
    if name is not None:
        tail = name.split(".")[-1]
        if tail in _NARROW_DTYPES:
            return tail
    if isinstance(node, ast.Constant) and node.value in _NARROW_DTYPES:
        return str(node.value)
    return None


@rule(
    "dtype-drift",
    "float32/float16 narrowing inside autograd-visible code",
)
def _dtype_drift(self: Rule, module: ModuleContext) -> Iterator[Diagnostic]:
    if module.in_package(*DTYPE_NARROWING_ALLOWED):
        return
    for node in astutil.walk_calls(module.tree):
        narrowed = None
        if isinstance(node.func, ast.Attribute) and node.func.attr == "astype":
            if node.args:
                narrowed = _narrow_dtype_name(node.args[0])
        if narrowed is None and astutil.numpy_call_name(node) in _NARROW_DTYPES:
            narrowed = astutil.numpy_call_name(node)
        if narrowed is None:
            for keyword in node.keywords:
                if keyword.arg == "dtype":
                    narrowed = _narrow_dtype_name(keyword.value)
                    if narrowed:
                        break
        if narrowed is not None:
            yield self.diagnostic(
                module,
                node,
                f"narrowing to {narrowed} in autograd-visible code; the "
                "engine differentiates float64 only (storage formats belong "
                "in repro.quant.packing/formats/deploy or "
                "repro.nn.serialize)",
            )
