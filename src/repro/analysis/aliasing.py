"""Array-aliasing / escape analysis for cache-owned numpy buffers.

The bit-identity contracts of the quantization runtime ("cache hit ==
recomputation", "KV-cache view == fresh forward") only hold while nobody
writes through an array that a cache handed out.  This pass tracks, per
class, numpy views of attribute-stored buffers — slices, ``.T``,
``.reshape``-family calls, dict-entry lookups — and records every method
return through which such a buffer *escapes*, together with whether the
escaping value was made read-only first (``setflags(write=False)`` /
``flags.writeable = False``, applied to the escaping value or to the
attribute's stored values).

The records are summary-level (serialized on
:class:`~repro.analysis.project.ModuleSummary`), and the whole-program
rule ``wp-cache-writable-escape`` flags records that are all three of:
owned by a cache-like class or attribute (name contains ``cache`` — the
``PagedKVCache``/``SharedGramCache``/``HessianFactorCache`` convention),
backed by known array storage (a numpy constructor / matmul reached the
attribute), and escaping writable.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Iterable, Optional

from repro.analysis.astutil import dotted_name
from repro.analysis.core import Diagnostic, wprule

__all__ = ["EscapeRecord", "collect_escapes"]

#: numpy constructors whose results are definitely arrays.
_ARRAY_CALLS = frozenset(
    {
        "array",
        "asarray",
        "ascontiguousarray",
        "empty",
        "zeros",
        "ones",
        "full",
        "empty_like",
        "zeros_like",
        "ones_like",
        "full_like",
        "arange",
        "linspace",
        "concatenate",
        "stack",
        "outer",
        "matmul",
        "dot",
        "einsum",
        "copy",
    }
)

#: ndarray methods returning a *view* of the receiver (plus dict ``get``,
#: which hands back a stored entry).
_VIEW_METHODS = frozenset(
    {"reshape", "ravel", "view", "swapaxes", "transpose", "diagonal",
     "squeeze", "get"}
)

#: Methods that break aliasing (the result owns fresh memory).
_COPY_METHODS = frozenset({"copy", "astype", "tolist", "item"})

_NUMPY_ALIASES = frozenset({"np", "numpy"})


@dataclasses.dataclass
class EscapeRecord:
    """One method return through which an attribute-owned value escapes.

    ``via`` is how the escaping value aliases the attribute: ``direct``
    (the attribute itself), ``slice``, ``transpose``, ``view`` (a
    view-method result), or ``stored`` (a local that was stored into the
    attribute and then returned).
    """

    qualname: str
    line: int
    attr: str
    via: str
    readonly: bool
    evidence: bool
    cache_like: bool

    def to_json(self) -> dict:
        """Serializable form (cache storage)."""
        return dataclasses.asdict(self)

    @staticmethod
    def from_json(record: dict) -> "EscapeRecord":
        """Rebuild from :meth:`to_json` output."""
        return EscapeRecord(**record)


def _iter_local(stmts: Iterable[ast.AST]):
    queue = list(stmts)
    cursor = 0
    while cursor < len(queue):
        node = queue[cursor]
        cursor += 1
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            continue
        queue.extend(ast.iter_child_nodes(node))


def _assign_pairs(node: ast.Assign):
    """Yield ``(target, value)`` pairs, unpacking tuple-to-tuple assigns."""
    for target in node.targets:
        if (
            isinstance(target, ast.Tuple)
            and isinstance(node.value, ast.Tuple)
            and len(target.elts) == len(node.value.elts)
        ):
            yield from zip(target.elts, node.value.elts)
        else:
            yield target, node.value


def _self_attr(node: ast.AST) -> Optional[str]:
    """``ATTR`` when ``node`` is exactly ``self.ATTR``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _is_array_expr(node: ast.AST, evidenced: set) -> bool:
    if isinstance(node, ast.Name):
        return node.id in evidenced
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
        return True
    if isinstance(node, ast.Call):
        dotted = dotted_name(node.func)
        if dotted is None:
            return False
        head, _, rest = dotted.partition(".")
        if head in _NUMPY_ALIASES and rest.split(".")[-1] in _ARRAY_CALLS:
            return True
        if dotted.split(".")[-1] == "astype":
            return True
    return False


def _view_of(node: ast.AST, taint: dict) -> Optional[tuple]:
    """``(via, attr)`` when ``node`` aliases a ``self`` attribute."""
    if isinstance(node, ast.Name):
        return taint.get(node.id)
    attr = _self_attr(node)
    if attr is not None:
        return "direct", attr
    if isinstance(node, ast.Attribute):
        if node.attr == "T":
            base = _view_of(node.value, taint)
            if base is not None:
                return "transpose", base[1]
        return None
    if isinstance(node, ast.Subscript):
        base = _view_of(node.value, taint)
        if base is not None:
            return "slice", base[1]
        return None
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in _COPY_METHODS:
            return None
        if node.func.attr in _VIEW_METHODS:
            base = _view_of(node.func.value, taint)
            if base is not None:
                return "view", base[1]
    return None


def _sanitize_targets(method: ast.FunctionDef) -> tuple[set, set]:
    """Names and ``self`` attributes made read-only anywhere in ``method``."""
    local_names: set = set()
    attrs: set = set()
    for node in _iter_local(method.body):
        if isinstance(node, ast.Call):
            dotted = dotted_name(node.func)
            if dotted is None or not dotted.endswith(".setflags"):
                continue
            receiver = dotted[: -len(".setflags")]
            if receiver.startswith("self."):
                attrs.add(receiver[5:].split(".")[0])
            elif "." not in receiver:
                local_names.add(receiver)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                dotted = dotted_name(target)
                if dotted is None or not dotted.endswith(".flags.writeable"):
                    continue
                receiver = dotted[: -len(".flags.writeable")]
                if receiver.startswith("self."):
                    attrs.add(receiver[5:].split(".")[0])
                elif "." not in receiver:
                    local_names.add(receiver)
    return local_names, attrs


def _class_attr_facts(cls: ast.ClassDef) -> tuple[set, set]:
    """Class-wide attribute facts: array evidence and store-time sanitizing."""
    evidence: set = set()
    sanitized: set = set()
    for method in cls.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        evidenced_locals: set = set()
        sanitized_locals, sanitized_attrs = _sanitize_targets(method)
        sanitized |= sanitized_attrs
        for node in _iter_local(method.body):
            if not isinstance(node, ast.Assign):
                continue
            for target, value in _assign_pairs(node):
                value_names = (
                    list(value.elts) if isinstance(value, ast.Tuple) else [value]
                )
                is_array = any(
                    _is_array_expr(item, evidenced_locals)
                    for item in value_names
                )
                if isinstance(target, ast.Name):
                    if is_array:
                        evidenced_locals.add(target.id)
                    continue
                attr = _self_attr(target)
                if attr is None and isinstance(target, ast.Subscript):
                    attr = _self_attr(target.value)
                if attr is None:
                    continue
                if is_array:
                    evidence.add(attr)
                stored_sanitized = any(
                    isinstance(item, ast.Name) and item.id in sanitized_locals
                    for item in value_names
                )
                if stored_sanitized:
                    sanitized.add(attr)
    return evidence, sanitized


def _method_escapes(
    cls_name: str,
    qualname: str,
    method: ast.FunctionDef,
    attr_evidence: set,
    attr_sanitized: set,
) -> list:
    taint: dict = {}
    stored: dict = {}
    evidenced_locals: set = set()
    sanitized_locals, _ = _sanitize_targets(method)
    for node in _iter_local(method.body):
        if not isinstance(node, ast.Assign):
            continue
        for target, value in _assign_pairs(node):
            view = _view_of(value, taint)
            is_array = _is_array_expr(value, evidenced_locals)
            if isinstance(target, ast.Name):
                if view is not None:
                    taint[target.id] = view
                if is_array:
                    evidenced_locals.add(target.id)
            elif isinstance(target, ast.Tuple) and view is not None:
                for element in target.elts:
                    if isinstance(element, ast.Name):
                        taint[element.id] = ("slice", view[1])
            attr = _self_attr(target)
            if attr is None and isinstance(target, ast.Subscript):
                attr = _self_attr(target.value)
            if attr is not None:
                values = (
                    value.elts if isinstance(value, ast.Tuple) else [value]
                )
                for item in values:
                    if isinstance(item, ast.Name):
                        stored[item.id] = attr

    records: list = []
    for node in _iter_local(method.body):
        if not isinstance(node, ast.Return) or node.value is None:
            continue
        parts = (
            node.value.elts
            if isinstance(node.value, ast.Tuple)
            else [node.value]
        )
        for part in parts:
            view = _view_of(part, taint)
            attr = via = None
            if view is not None:
                via, attr = view
            elif isinstance(part, ast.Name) and part.id in stored:
                via, attr = "stored", stored[part.id]
            if attr is None:
                continue
            readonly = attr in attr_sanitized or (
                isinstance(part, ast.Name) and part.id in sanitized_locals
            )
            evidence = attr in attr_evidence or (
                isinstance(part, ast.Name) and part.id in evidenced_locals
            )
            records.append(
                EscapeRecord(
                    qualname=qualname,
                    line=node.lineno,
                    attr=attr,
                    via=via,
                    readonly=readonly,
                    evidence=evidence,
                    cache_like="cache" in cls_name.lower()
                    or "cache" in attr.lower(),
                )
            )
    return records


def collect_escapes(tree: ast.Module) -> list:
    """Every :class:`EscapeRecord` of every class in ``tree``."""
    records: list = []

    def visit(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                cls_name = node.name
                evidence, sanitized = _class_attr_facts(node)
                for method in node.body:
                    if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        records.extend(
                            _method_escapes(
                                cls_name,
                                f"{prefix}{cls_name}.{method.name}",
                                method,
                                evidence,
                                sanitized,
                            )
                        )
                visit(node.body, f"{prefix}{cls_name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(node.body, f"{prefix}{node.name}.")

    visit(tree.body, "")
    return records


@wprule(
    "wp-cache-writable-escape",
    "cache-owned numpy arrays must escape read-only "
    "(flags.writeable = False)",
)
def _wp_cache_writable_escape(self, project):
    """Flag writable escapes of array-backed cache attributes."""
    for summary in project.summaries(include_consumers=False):
        for record in getattr(summary, "escapes", []):
            if not (record.cache_like and record.evidence):
                continue
            if record.readonly:
                continue
            yield Diagnostic(
                self.id,
                summary.path,
                record.line,
                0,
                f"'{record.qualname}' returns a writable alias "
                f"(via {record.via}) of cache-owned array attribute "
                f"'{record.attr}'; call setflags(write=False) / set "
                "flags.writeable = False before the buffer escapes, or "
                "return a copy",
            )
