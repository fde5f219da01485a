"""Repo-specific static analysis for the APTQ reproduction.

An AST-based lint framework with rules that encode the repo's numeric and
autograd invariants (stabilized ``exp``/``log``, ``sink``-routed backward
closures, float64-only differentiation) plus general API hygiene, and a
whole-program layer (``--whole-program``) that builds a cross-module
project model to check import cycles, dead exports, fork safety, cache
escapes, and integer ranges.  See ``docs/ANALYSIS.md`` for the rule
catalogue, suppression syntax, and the ``Bits:`` annotation convention.

Usage::

    python -m repro.analysis src/repro            # lint the library
    repro-lint --whole-program --strict src/repro # full pre-merge gate
    repro-lint --format sarif src/repro           # code-scanning upload
"""

from repro.analysis.core import (
    Diagnostic,
    ModuleContext,
    Rule,
    WholeProgramRule,
    all_rule_ids,
    all_rules,
    all_wp_rules,
    analyze_file,
    analyze_paths,
    analyze_source,
    get_rule,
    iter_python_files,
    rule,
    wprule,
)
from repro.analysis.reporters import render_json, render_sarif, render_text

__all__ = [
    "Diagnostic",
    "ModuleContext",
    "Rule",
    "WholeProgramRule",
    "all_rule_ids",
    "all_rules",
    "all_wp_rules",
    "analyze_file",
    "analyze_paths",
    "analyze_source",
    "get_rule",
    "iter_python_files",
    "rule",
    "wprule",
    "render_json",
    "render_sarif",
    "render_text",
]
