"""Command-line driver: ``python -m repro.analysis`` / ``repro-lint``.

Exit status is 0 when the tree is clean, 1 when violations were found, and
2 on usage errors — so CI can gate on it directly.  Warnings (e.g. stale
suppression pragmas) are reported but only fail the run under ``--strict``.

Two analysis modes:

* per-module (default) — each file is linted in isolation;
* ``--whole-program`` — files are loaded into a project, enabling the
  cross-module passes (import cycles, dead exports, effects and fork
  safety, cache-owned array escapes, integer ranges) plus an incremental
  cache keyed by content hash, so warm runs re-analyze only modified
  files.
"""

from __future__ import annotations

import argparse
import fnmatch
import pathlib
import sys
from typing import Optional, Sequence

from repro.analysis.core import (
    all_rule_ids,
    all_rules,
    all_wp_rules,
    analyze_paths,
)
from repro.analysis.reporters import (
    render_json,
    render_sarif,
    render_text,
    severity_counts,
)

__all__ = ["build_parser", "main", "DEFAULT_CONSUMERS", "DEFAULT_CACHE_PATH"]

#: Trees whose references count as API usage but which are never linted.
DEFAULT_CONSUMERS = ("tests", "examples", "benchmarks", "tools")

#: Default location of the incremental whole-program cache.
DEFAULT_CACHE_PATH = ".repro-lint-cache.json"

_SYNTHETIC_DOCS = {
    "syntax-error": "file does not parse; reported instead of aborting",
    "lint-unused-suppression": (
        "stale # lint: disable= pragma that suppressed nothing (warning)"
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-lint`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Repo-specific static analysis (numeric-safety, "
        "autograd-contract, API-hygiene, and whole-program rules).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        default=None,
        help="comma-separated rule ids to report; glob patterns such as "
        "'wp-*' expand against the registered ids (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every registered rule id with its one-line doc and exit",
    )
    parser.add_argument(
        "--whole-program",
        action="store_true",
        help="enable the cross-module passes (import graph, effects, "
        "escapes, integer ranges) and the incremental cache",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings (e.g. stale suppressions) as failures",
    )
    parser.add_argument(
        "--effects",
        action="store_true",
        help="print the inferred per-function effect table instead of "
        "diagnostics (whole-program mode)",
    )
    parser.add_argument(
        "--ranges",
        action="store_true",
        help="print the declared/inferred integer-range table instead of "
        "diagnostics (whole-program mode)",
    )
    parser.add_argument(
        "--list-specs",
        action="store_true",
        help="list every Bits: annotated function with coverage counts "
        "and exit",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=0,
        metavar="N",
        help="fan the per-module passes out over N forked workers "
        "(whole-program mode; bit-identical to serial, small runs "
        "auto-serialize)",
    )
    parser.add_argument(
        "--consumers",
        metavar="PATHS",
        default=",".join(DEFAULT_CONSUMERS),
        help="comma-separated trees whose references count as API usage "
        "but are never linted (whole-program mode; nonexistent entries "
        f"are skipped; default: {','.join(DEFAULT_CONSUMERS)})",
    )
    parser.add_argument(
        "--cache",
        metavar="FILE",
        default=DEFAULT_CACHE_PATH,
        help="incremental cache file for whole-program runs "
        f"(default: {DEFAULT_CACHE_PATH})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the incremental cache",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print analyzed/cached file counts to stderr "
        "(whole-program mode)",
    )
    return parser


def _list_rules() -> None:
    for registered in all_rules():
        print(f"{registered.id:28s} {registered.summary}")
    for registered in all_wp_rules():
        print(f"{registered.id:28s} [whole-program] {registered.summary}")
    for rule_id, doc in sorted(_SYNTHETIC_DOCS.items()):
        print(f"{rule_id:28s} [synthetic] {doc}")


def _list_specs(paths) -> None:
    """Enumerate every ``Bits:``-annotated function."""
    from repro.analysis.project import Project

    project = Project.load(paths, ())
    rows: list = []
    modules: set = set()
    for summary in project.summaries(include_consumers=False):
        for qualname, spec in summary.bit_specs.items():
            modules.add(summary.module)
            rows.append(
                (
                    summary.path,
                    spec.line,
                    f"{summary.path}:{spec.line}: "
                    f"{summary.module}.{qualname} [bits]",
                )
            )
    for _, _, text in sorted(rows):
        print(text)
    print(f"{len(rows)} annotated functions across {len(modules)} modules")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the analyzer; returns the process exit status."""
    parser = build_parser()
    options = parser.parse_args(argv)

    if options.list_rules:
        _list_rules()
        return 0

    missing = [p for p in options.paths if not pathlib.Path(p).exists()]
    if missing:
        print(f"repro-lint: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    if options.list_specs:
        _list_specs(options.paths)
        return 0

    if (
        options.effects or options.ranges or options.jobs
    ) and not options.whole_program:
        if options.effects:
            flag = "--effects"
        elif options.ranges:
            flag = "--ranges"
        else:
            flag = "--jobs"
        print(f"repro-lint: {flag} requires --whole-program", file=sys.stderr)
        return 2
    if options.jobs < 0:
        print("repro-lint: --jobs must be non-negative", file=sys.stderr)
        return 2

    select = None
    if options.select is not None:
        requested = [
            name.strip() for name in options.select.split(",") if name.strip()
        ]
        known = all_rule_ids(whole_program=options.whole_program)
        expanded: list = []
        unknown: list = []
        for name in requested:
            if any(char in name for char in "*?["):
                matches = fnmatch.filter(sorted(known), name)
                if matches:
                    expanded.extend(matches)
                else:
                    unknown.append(name)
            elif name in known:
                expanded.append(name)
            else:
                unknown.append(name)
        if unknown:
            print(
                f"repro-lint: unknown rule ids: {sorted(unknown)} "
                "(see --list-rules)",
                file=sys.stderr,
            )
            return 2
        select = sorted(set(expanded))

    if options.whole_program:
        from repro.analysis.cache import AnalysisCache
        from repro.analysis.project import Project

        cache = None
        if not options.no_cache:
            cache = AnalysisCache(options.cache)
        consumers = [
            entry.strip()
            for entry in options.consumers.split(",")
            if entry.strip() and pathlib.Path(entry.strip()).exists()
        ]
        project = Project.load(options.paths, consumers, cache=cache)
        if options.effects:
            from repro.analysis.effects import render_effects

            print(render_effects(project.effect_summaries()))
            return 0
        if options.ranges:
            from repro.analysis.ranges import render_ranges

            print(render_ranges(project))
            return 0
        diagnostics = project.analyze(select=select, jobs=options.jobs)
        if options.stats:
            line = (
                "repro-lint: analyzed {analyzed} files "
                "({cached} from cache)".format(**project.stats)
            )
            if "jobs_mode" in project.stats:
                line += (
                    f"; jobs={options.jobs} ({project.stats['jobs_mode']})"
                )
            print(line, file=sys.stderr)
    else:
        try:
            diagnostics = analyze_paths(options.paths, select=select)
        except KeyError as error:
            print(f"repro-lint: {error.args[0]}", file=sys.stderr)
            return 2

    renderer = {
        "json": render_json,
        "sarif": render_sarif,
        "text": render_text,
    }[options.format]
    print(renderer(diagnostics))
    errors, warnings = severity_counts(diagnostics)
    if errors or (options.strict and warnings):
        return 1
    return 0
