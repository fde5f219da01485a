"""Whole-program model: module summaries, the project loader, and driver.

A :class:`Project` owns one :class:`ModuleSummary` per python file reachable
from its roots.  Summaries are small, serializable extracts of everything
the whole-program passes need — exports, imports, dotted references,
suppression pragmas, effect and escape records, and ``Bits:`` contracts —
so that a warm run can skip parsing unchanged files entirely (see
:mod:`repro.analysis.cache`).

Two kinds of paths feed a project:

* **roots** (``src/repro``) — modules that are analyzed and reported on;
* **consumers** (``tests``, ``examples``, ``benchmarks``, ``tools``) —
  modules whose *references* count as API usage (so a symbol imported only
  by a test is not a dead export) but which are never linted themselves.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro.analysis import astutil
from repro.analysis.aliasing import EscapeRecord, collect_escapes
from repro.analysis.core import (
    Diagnostic,
    ModuleContext,
    all_rules,
    all_wp_rules,
    iter_python_files,
    unused_suppression_diagnostics,
)
from repro.analysis.effects import (
    FunctionRecord,
    collect_function_records,
    infer_effects,
)
from repro.analysis.ranges import BitsFunctionSpec, collect_bits_specs

__all__ = [
    "ImportRecord",
    "ModuleSummary",
    "ModuleRecord",
    "Project",
    "build_summary",
    "ANALYSIS_JOBS_MIN_FILES",
]

#: Below this many files needing analysis, ``--jobs`` stays serial — the
#: same fork-overhead argument as the runtime's auto-serial heuristic.
ANALYSIS_JOBS_MIN_FILES = 4


@dataclasses.dataclass(frozen=True)
class ImportRecord:
    """One import binding: ``alias`` names ``module``(.``name``) locally."""

    module: str
    name: Optional[str]
    alias: str
    line: int
    toplevel: bool

    def target(self) -> str:
        """The dotted object the alias is bound to."""
        return f"{self.module}.{self.name}" if self.name else self.module

    def to_json(self) -> list:
        """Serializable form (cache storage)."""
        return [self.module, self.name, self.alias, self.line, self.toplevel]

    @staticmethod
    def from_json(record: list) -> "ImportRecord":
        """Rebuild from :meth:`to_json` output."""
        return ImportRecord(*record)


@dataclasses.dataclass
class ModuleSummary:
    """Everything the whole-program passes need to know about one module."""

    module: str
    path: str
    is_consumer: bool
    exports: list  # [name, line] pairs from __all__
    definitions: list  # top-level bound names
    imports: list  # of ImportRecord
    references: list  # raw dotted reference strings
    suppressions: dict  # line -> [rule ids]
    annotations: dict = dataclasses.field(default_factory=dict)
    # name -> identifiers in its annotations/bases (liveness propagation)
    functions: list = dataclasses.field(default_factory=list)
    # of FunctionRecord (effect inference; empty for consumers)
    escapes: list = dataclasses.field(default_factory=list)
    # of EscapeRecord (aliasing pass; empty for consumers)
    bit_specs: dict = dataclasses.field(default_factory=dict)
    # qualname -> BitsFunctionSpec (range/bit-width pass)
    bit_errors: list = dataclasses.field(default_factory=list)
    # [line, message] pairs from malformed Bits: sections

    def to_json(self) -> dict:
        """Serializable form (cache storage)."""
        return {
            "module": self.module,
            "path": self.path,
            "is_consumer": self.is_consumer,
            "exports": self.exports,
            "definitions": self.definitions,
            "imports": [record.to_json() for record in self.imports],
            "references": self.references,
            "suppressions": {str(k): v for k, v in self.suppressions.items()},
            "annotations": self.annotations,
            "functions": [record.to_json() for record in self.functions],
            "escapes": [record.to_json() for record in self.escapes],
            "bit_specs": {k: v.to_json() for k, v in self.bit_specs.items()},
            "bit_errors": self.bit_errors,
        }

    @staticmethod
    def from_json(record: dict) -> "ModuleSummary":
        """Rebuild from :meth:`to_json` output."""
        return ModuleSummary(
            module=record["module"],
            path=record["path"],
            is_consumer=record["is_consumer"],
            exports=[list(entry) for entry in record["exports"]],
            definitions=list(record["definitions"]),
            imports=[ImportRecord.from_json(r) for r in record["imports"]],
            references=list(record["references"]),
            suppressions={
                int(k): list(v) for k, v in record["suppressions"].items()
            },
            annotations={
                k: list(v) for k, v in record.get("annotations", {}).items()
            },
            functions=[
                FunctionRecord.from_json(r) for r in record.get("functions", [])
            ],
            escapes=[
                EscapeRecord.from_json(r) for r in record.get("escapes", [])
            ],
            bit_specs={
                k: BitsFunctionSpec.from_json(v)
                for k, v in record.get("bit_specs", {}).items()
            },
            bit_errors=[
                list(entry) for entry in record.get("bit_errors", [])
            ],
        )

    def resolved_uses(self) -> set:
        """Dotted names of *other-module* objects this module touches.

        Every from-import target counts as a use; every reference through
        an import alias is rewritten to its fully-dotted form, and all
        prefixes longer than the module path are included so that
        ``gq.gptq_quantize_model()`` marks both the function and any
        deeper attribute chain as used.
        """
        uses: set = set()
        by_alias = sorted(self.imports, key=lambda r: -len(r.alias))
        for record in self.imports:
            uses.add(record.module)
            if record.name and record.name != "*":
                uses.add(record.target())
            if record.name == "*":
                uses.add(record.module + ".*")
        for reference in self.references:
            for record in by_alias:
                alias = record.alias
                if reference == alias:
                    uses.add(record.target())
                    break
                if reference.startswith(alias + "."):
                    resolved = record.target() + reference[len(alias):]
                    parts = resolved.split(".")
                    base = len(record.target().split("."))
                    for depth in range(base, len(parts) + 1):
                        uses.add(".".join(parts[:depth]))
                    break
        return uses


# ----------------------------------------------------------------------
# Summary construction
# ----------------------------------------------------------------------
def _collect_exports(tree: ast.Module) -> list:
    exports: list = []
    for node in tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                value = node.value
                if isinstance(value, (ast.List, ast.Tuple)):
                    for element in value.elts:
                        if isinstance(element, ast.Constant) and isinstance(
                            element.value, str
                        ):
                            exports.append([element.value, element.lineno])
    return exports


def _collect_definitions(tree: ast.Module) -> list:
    names: set = set()
    for node in tree.body:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
                elif isinstance(target, (ast.Tuple, ast.List)):
                    for element in target.elts:
                        if isinstance(element, ast.Name):
                            names.add(element.id)
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name):
                names.add(node.target.id)
        elif isinstance(node, ast.Import):
            for item in node.names:
                names.add((item.asname or item.name).split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for item in node.names:
                names.add(item.asname or item.name)
    return sorted(names)


def _collect_imports(tree: ast.Module, module: str) -> list:
    toplevel = set(tree.body)
    records: list = []
    for node in ast.walk(tree):
        direct = node in toplevel
        if isinstance(node, ast.Import):
            for item in node.names:
                records.append(
                    ImportRecord(
                        item.name,
                        None,
                        item.asname or item.name,
                        node.lineno,
                        direct,
                    )
                )
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = module.split(".")
                base = base[: len(base) - node.level + 1]
                target = ".".join(base + ([node.module] if node.module else []))
            else:
                target = node.module or ""
            for item in node.names:
                records.append(
                    ImportRecord(
                        target,
                        item.name,
                        item.asname or item.name,
                        node.lineno,
                        direct,
                    )
                )
    return records


def _collect_references(tree: ast.Module) -> list:
    references: set = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            references.add(node.id)
        elif isinstance(node, ast.Attribute):
            dotted = astutil.dotted_name(node)
            if dotted:
                references.add(dotted)
    return sorted(references)


def _collect_annotations(tree: ast.Module) -> dict:
    """Identifiers named by each top-level def/class's annotations and bases.

    Feeds dead-export liveness: a result dataclass that only ever appears as
    ``-> OWQResult`` on a used function, or a base class only named in
    ``class Adam(Optimizer)``, is still reachable API.
    """

    def identifiers(nodes) -> list:
        names: set = set()
        for node in nodes:
            if node is None:
                continue
            for child in ast.walk(node):
                if isinstance(child, ast.Name):
                    names.add(child.id)
        return sorted(names)

    def function_annotations(node) -> list:
        found = [node.returns]
        args = node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            found.append(arg.annotation)
        for arg in (args.vararg, args.kwarg):
            if arg is not None:
                found.append(arg.annotation)
        return found

    annotations: dict = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = identifiers(function_annotations(node))
        elif isinstance(node, ast.ClassDef):
            nodes = list(node.bases)
            for child in node.body:
                if isinstance(child, ast.AnnAssign):
                    nodes.append(child.annotation)
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    nodes.extend(function_annotations(child))
            names = identifiers(nodes)
        else:
            continue
        if names:
            annotations[node.name] = names
    return annotations


def build_summary(context: ModuleContext, is_consumer: bool) -> ModuleSummary:
    """Extract the whole-program summary of one parsed module."""
    tree = context.tree
    module = context.module_name
    bit_specs, bit_errors = collect_bits_specs(tree)
    return ModuleSummary(
        module=module,
        path=context.path,
        is_consumer=is_consumer,
        exports=_collect_exports(tree),
        definitions=_collect_definitions(tree),
        imports=_collect_imports(tree, module),
        references=_collect_references(tree),
        suppressions={
            line: sorted(names)
            for line, names in context._parse_suppressions(context.lines).items()
        },
        annotations=_collect_annotations(tree),
        functions=[] if is_consumer else collect_function_records(tree),
        escapes=[] if is_consumer else collect_escapes(tree),
        bit_specs=bit_specs,
        bit_errors=bit_errors,
    )


# ----------------------------------------------------------------------
# Project
# ----------------------------------------------------------------------
@dataclasses.dataclass
class ModuleRecord:
    """Per-file state inside a loaded project."""

    summary: ModuleSummary
    context: Optional[ModuleContext]
    digest: Optional[str]
    analyzed: bool  # parsed during this run (cache miss)
    module_diags: Optional[list] = None  # cached per-module diagnostics
    used_suppressions: Optional[set] = None
    ranges_diags: Optional[list] = None  # cached range-pass diagnostics
    ranges_used: Optional[set] = None
    ranges_key: Optional[str] = None  # spec fingerprint the cache is valid for
    syntax_error: Optional[Diagnostic] = None

    def ensure_context(self) -> Optional[ModuleContext]:
        """Parse the module on demand (cache hits skip parsing up front)."""
        if self.context is None and self.syntax_error is None:
            self.context = ModuleContext(
                self.summary.path, Path(self.summary.path).read_text()
            )
        return self.context


class Project:
    """A set of parsed-or-cached modules plus the whole-program driver."""

    def __init__(self) -> None:
        self.records: dict[str, ModuleRecord] = {}  # keyed by display path
        self.by_module: dict[str, ModuleSummary] = {}
        self.stats = {"analyzed": 0, "cached": 0}
        self._cache = None
        self._uses_index: Optional[dict] = None
        self._effects: Optional[dict] = None

    # ------------------------------------------------------------------
    @staticmethod
    def load(
        roots: Sequence,
        consumers: Sequence = (),
        cache=None,
    ) -> "Project":
        """Build a project from root and consumer paths.

        ``cache`` is an optional :class:`repro.analysis.cache.AnalysisCache`;
        files whose content hash matches a cache entry are summarized from
        the cache without parsing.
        """
        project = Project()
        project._cache = cache
        seen: set = set()
        for group, is_consumer in ((roots, False), (consumers, True)):
            for path in iter_python_files(group):
                key = str(path)
                if key in seen:
                    continue
                seen.add(key)
                project._load_file(path, is_consumer)
        for record in project.records.values():
            project.by_module[record.summary.module] = record.summary
        return project

    def _load_file(self, path: Path, is_consumer: bool) -> None:
        key = str(path)
        entry = digest = None
        if self._cache is not None:
            entry, digest = self._cache.lookup(key)
        if entry is not None:
            summary = ModuleSummary.from_json(entry["summary"])
            record = ModuleRecord(summary, None, digest, analyzed=False)
            if entry.get("module_diags") is not None:
                record.module_diags = [
                    Diagnostic.from_json(d) for d in entry["module_diags"]
                ]
                record.used_suppressions = {
                    (line, rule) for line, rule in entry.get("used_suppr", [])
                }
            if entry.get("ranges") is not None and entry["ranges"].get("key"):
                record.ranges_diags = [
                    Diagnostic.from_json(d) for d in entry["ranges"]["diags"]
                ]
                record.ranges_used = {
                    (line, rule)
                    for line, rule in entry["ranges"].get("used_suppr", [])
                }
                record.ranges_key = entry["ranges"]["key"]
            self.stats["cached"] += 1
            self.records[key] = record
            return
        try:
            context = ModuleContext(key, path.read_text())
        except SyntaxError as error:
            summary = ModuleSummary(
                module=key,
                path=key,
                is_consumer=is_consumer,
                exports=[],
                definitions=[],
                imports=[],
                references=[],
                suppressions={},
            )
            record = ModuleRecord(summary, None, digest, analyzed=True)
            record.syntax_error = Diagnostic(
                "syntax-error",
                key,
                error.lineno or 1,
                (error.offset or 1) - 1,
                f"could not parse: {error.msg}",
            )
            self.stats["analyzed"] += 1
            self.records[key] = record
            return
        summary = build_summary(context, is_consumer)
        self.stats["analyzed"] += 1
        self.records[key] = ModuleRecord(summary, context, digest, analyzed=True)

    # ------------------------------------------------------------------
    # Lookups used by the whole-program passes
    # ------------------------------------------------------------------
    def summaries(self, include_consumers: bool = True):
        """Iterate module summaries (optionally skipping consumers)."""
        for record in self.records.values():
            if include_consumers or not record.summary.is_consumer:
                yield record.summary

    def module(self, name: str) -> Optional[ModuleSummary]:
        """Summary of the module with dotted name ``name``, if loaded."""
        return self.by_module.get(name)

    def resolve_function(self, module: str, dotted: str):
        """Resolve ``dotted`` (as written in ``module``) to a BitsFunctionSpec.

        Returns ``(defining_module, qualname, spec)`` or None.  Handles
        same-module calls, from-imported names, and aliased module access
        (``packing.pack_codes``); package re-exports are chased one level
        through the package ``__init__`` imports.
        """
        summary = self.by_module.get(module)
        if summary is None:
            return None
        if dotted in summary.bit_specs:
            return module, dotted, summary.bit_specs[dotted]
        head, _, tail = dotted.partition(".")
        for record in summary.imports:
            if record.alias == head:
                target = record.target()
                full = target + ("." + tail if tail else "")
                return self._lookup_function(full)
            if record.alias == dotted and record.name:
                return self._lookup_function(record.target())
        if "." in dotted:
            return self._lookup_function(dotted)
        return None

    def _lookup_function(self, dotted: str):
        module_name, _, func = dotted.rpartition(".")
        summary = self.by_module.get(module_name)
        if summary is not None and func in summary.bit_specs:
            return module_name, func, summary.bit_specs[func]
        # Chase one level of package re-export: repro.quant.packing.pack_codes
        # written as repro.quant.pack_codes via the package __init__.
        if summary is not None:
            for record in summary.imports:
                if record.alias == func and record.name:
                    return self._lookup_function(record.target())
        return None

    def effect_summaries(self) -> dict:
        """Memoized interprocedural effect verdicts (see :mod:`effects`)."""
        if self._effects is None:
            self._effects = infer_effects(self)
        return self._effects

    def usage_index(self) -> dict:
        """Map of dotted object name -> list of consuming module names."""
        if self._uses_index is None:
            index: dict = {}
            for summary in self.summaries():
                for use in summary.resolved_uses():
                    index.setdefault(use, []).append(summary.module)
            self._uses_index = index
        return self._uses_index

    def spec_fingerprint(self) -> str:
        """Stable digest of every ``Bits:`` spec in the project.

        Cached range results are only valid while this is unchanged — a
        spec edit anywhere can change the verdict at any call site.
        """
        import hashlib
        import json

        payload = {
            summary.module: {
                k: v.to_json() for k, v in sorted(summary.bit_specs.items())
            }
            for summary in self.summaries()
            if summary.bit_specs
        }
        blob = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------
    def _module_pass(self, key: str, spec_fp: str) -> tuple:
        """Compute whatever per-module results ``key`` is missing.

        Returns ``(key, module_part, ranges_part)`` where each part is a
        ``(diagnostics, sorted_used_suppressions)`` pair or None when the
        cached result is still valid.  Deliberately read-only on
        ``self`` (results are merged by the caller) so that ``--jobs`` can
        run it inside forked workers without breaking the fork-safety
        contract this very analyzer enforces.
        """
        from repro.analysis.ranges import analyze_module_ranges

        record = self.records[key]
        summary = record.summary
        module_part = None
        if record.module_diags is None:
            context = record.ensure_context()
            found: list = []
            for checker in all_rules():
                for diagnostic in checker.check(context):
                    if not context.is_suppressed(
                        diagnostic.rule_id, diagnostic.line
                    ):
                        found.append(diagnostic)
            module_part = (found, sorted(context.used_suppressions()))
        ranges_part = None
        if summary.bit_specs and (
            record.ranges_diags is None or record.ranges_key != spec_fp
        ):
            context = record.ensure_context()
            range_diags, range_used = analyze_module_ranges(
                self, summary, context
            )
            ranges_part = (range_diags, sorted(range_used))
        return key, module_part, ranges_part

    def analyze(
        self, select: Optional[Iterable[str]] = None, jobs: int = 0
    ) -> list:
        """Run per-module rules, the range pass, and whole-program passes.

        Returns the surviving diagnostics sorted by location.  ``select``
        filters the report to the given rule ids (all passes still run so
        that suppression accounting stays correct).  ``jobs > 0`` fans the
        per-module passes out over that many forked workers via
        :func:`repro.runtime.parallel.run_parallel_map` — bit-identical to
        the serial run because workers only *compute* results and the
        parent merges them in file order; fewer than
        :data:`ANALYSIS_JOBS_MIN_FILES` pending files auto-serialize.
        """
        diagnostics: list = []
        spec_fp = self.spec_fingerprint()
        used: dict[str, set] = {}

        pending = [
            key
            for key, record in self.records.items()
            if record.syntax_error is None
            and not record.summary.is_consumer
            and (
                record.module_diags is None
                or (
                    record.summary.bit_specs
                    and (
                        record.ranges_diags is None
                        or record.ranges_key != spec_fp
                    )
                )
            )
        ]
        parallel = jobs > 0 and len(pending) >= ANALYSIS_JOBS_MIN_FILES
        if jobs > 0:
            self.stats["jobs_mode"] = "parallel" if parallel else "auto-serial"
        if parallel:
            from repro.runtime.parallel import run_parallel_map

            def analyze_one(key):
                return self._module_pass(key, spec_fp)

            outcomes = run_parallel_map(analyze_one, pending, workers=jobs)
        else:
            outcomes = [self._module_pass(key, spec_fp) for key in pending]
        for key, module_part, ranges_part in outcomes:
            record = self.records[key]
            if module_part is not None:
                record.module_diags = module_part[0]
                record.used_suppressions = {
                    tuple(item) for item in module_part[1]
                }
            if ranges_part is not None:
                record.ranges_diags = ranges_part[0]
                record.ranges_used = {tuple(item) for item in ranges_part[1]}
                record.ranges_key = spec_fp

        for key, record in self.records.items():
            summary = record.summary
            if record.syntax_error is not None:
                diagnostics.append(record.syntax_error)
                continue
            if summary.is_consumer:
                continue
            diagnostics.extend(record.module_diags)
            used.setdefault(key, set()).update(record.used_suppressions or set())
            if summary.bit_specs:
                diagnostics.extend(record.ranges_diags or [])
                used.setdefault(key, set()).update(record.ranges_used or set())

        # Whole-program passes always run; they are summary-driven and cheap.
        for checker in all_wp_rules():
            for diagnostic in checker.check(self):
                owner = self.records.get(diagnostic.path)
                pragmas = owner.summary.suppressions if owner else {}
                if diagnostic.rule_id in pragmas.get(diagnostic.line, []):
                    used.setdefault(diagnostic.path, set()).add(
                        (diagnostic.line, diagnostic.rule_id)
                    )
                    continue
                diagnostics.append(diagnostic)

        if select is None:
            ran = {r.id for r in all_rules()} | {r.id for r in all_wp_rules()}
            diagnostics.extend(self._unused_suppressions(used, ran))
        else:
            wanted = set(select)
            diagnostics = [d for d in diagnostics if d.rule_id in wanted]
            # A pragma is only "unused" when its rule is in the selection:
            # pragmas for rules excluded by the glob are left alone.
            diagnostics.extend(self._unused_suppressions(used, wanted))

        self._write_cache(spec_fp)
        diagnostics.sort(key=lambda d: (d.path, d.line, d.col, d.rule_id))
        return diagnostics

    def _unused_suppressions(self, used: dict, ran: set) -> list:
        warnings: list = []
        for key, record in self.records.items():
            summary = record.summary
            if summary.is_consumer or record.syntax_error is not None:
                continue
            module_used = used.get(key, set())
            context = ModuleContext.__new__(ModuleContext)
            context.path = summary.path
            context._suppressions = {
                line: set(names) for line, names in summary.suppressions.items()
            }
            context._used_suppressions = set(module_used)
            warnings.extend(unused_suppression_diagnostics(context, ran))
        return warnings

    def _write_cache(self, spec_fp: str) -> None:
        if self._cache is None:
            return
        for key, record in self.records.items():
            if record.syntax_error is not None:
                continue
            entry = {
                "summary": record.summary.to_json(),
                "module_diags": (
                    [d.to_json() for d in record.module_diags]
                    if record.module_diags is not None
                    else None
                ),
                "used_suppr": sorted(record.used_suppressions or set()),
                "ranges": (
                    {
                        "key": spec_fp,
                        "diags": [d.to_json() for d in record.ranges_diags],
                        "used_suppr": sorted(record.ranges_used or set()),
                    }
                    if record.ranges_diags is not None
                    else None
                ),
            }
            self._cache.store(key, record.digest, entry)
        self._cache.save()
