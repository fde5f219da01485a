"""Compare a fresh bench run against its committed ``BENCH_<suite>.json``.

Usage:  python tools/bench_compare.py [--suite quantize|serve]
                                      [--baseline PATH] [--tolerance F]
                                      [--repeats N] [--quick]

Re-runs the selected perf suite, prints one line per fresh record, and
fails (exit 1) when any baseline record regresses: a record missing from
the fresh run, a record that lost ``bit_identical`` (or, for
error-bounded records, whose fresh ``equivalence`` block fell outside its
declared bounds), or a speedup more than ``--tolerance`` (default 10%)
below the committed number.  Extra fresh records are reported as
informational "new benchmark" lines — never failures — so new benches
can land before their baseline is refreshed.  ``--quick`` runs the
shrunk suite: baseline records it does not produce are skipped, not
failed, and shrunk records whose params differ from the baseline are
skipped as not comparable.

``compare_reports`` is a pure function over the two report dicts so tests
can exercise the gate without timing anything.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.report.bench import (  # noqa: E402
    BENCH_SUITES,
    build_report,
    format_record,
)

#: Fresh speedups may sit this fraction below the baseline before failing.
DEFAULT_TOLERANCE = 0.10

#: Harness knobs that change measurement stability, not the workload:
#: a speedup is a ratio of best-of-N timings, comparable across N, so a
#: differing repeat count must not disqualify the comparison.
HARNESS_PARAMS = frozenset({"repeats"})


def _workload_params(record: dict) -> dict:
    params = record.get("params")
    if not isinstance(params, dict):
        return {"params": params}
    return {k: v for k, v in params.items() if k not in HARNESS_PARAMS}


def compare_reports(
    baseline: dict,
    fresh: dict,
    tolerance: float = DEFAULT_TOLERANCE,
    allow_missing: bool = False,
) -> tuple[list[str], list[str]]:
    """Compare two bench reports; returns ``(summary_lines, problems)``.

    Every baseline record is checked against the fresh record of the same
    name: it must exist (unless ``allow_missing``), keep
    ``bit_identical``, and keep its speedup within ``tolerance`` of the
    committed value.  Fresh records with no baseline counterpart get an
    informational summary line and never count as a problem.
    """
    fresh_by_name = {
        record.get("name"): record for record in fresh.get("records", [])
    }
    baseline_names = {
        record.get("name") for record in baseline.get("records", [])
    }
    lines: list[str] = []
    problems: list[str] = []
    for record in fresh.get("records", []):
        name = record.get("name")
        if name not in baseline_names:
            lines.append(f"{name}: new benchmark (no baseline yet)")
    for record in baseline.get("records", []):
        name = record.get("name")
        other = fresh_by_name.get(name)
        if other is None:
            if allow_missing:
                lines.append(f"{name}: skipped (not in fresh run)")
            else:
                problems.append(f"record '{name}' missing from fresh run")
            continue
        if _workload_params(record) != _workload_params(other):
            # Different measurement (e.g. the quick suite's shrunk eval
            # benches): speedups are not comparable.
            lines.append(f"{name}: skipped (params differ)")
            continue
        baseline_equivalence = record.get("equivalence")
        if (
            isinstance(baseline_equivalence, dict)
            and baseline_equivalence.get("kind") == "error-bounded"
        ):
            # Error-bounded records (e.g. calibration-kron) never claim
            # bit-identity; the equivalence contract is that a *fresh*
            # run re-measures its error metrics inside the declared
            # bounds.
            fresh_equivalence = other.get("equivalence")
            if not (
                isinstance(fresh_equivalence, dict)
                and fresh_equivalence.get("within_bounds") is True
            ):
                problems.append(
                    f"record '{name}' fell outside its declared error "
                    "bounds"
                )
                continue
        elif not other.get("bit_identical"):
            problems.append(f"record '{name}' lost bit-identity")
            continue
        base_speedup = record.get("speedup")
        fresh_speedup = other.get("speedup")
        if not isinstance(base_speedup, (int, float)) or not isinstance(
            fresh_speedup, (int, float)
        ):
            problems.append(f"record '{name}' has a non-numeric speedup")
            continue
        floor = base_speedup * (1.0 - tolerance)
        delta = (fresh_speedup - base_speedup) / base_speedup * 100.0
        verdict = "ok" if fresh_speedup >= floor else "REGRESSED"
        lines.append(
            f"{name}: baseline={base_speedup:.2f}x "
            f"fresh={fresh_speedup:.2f}x ({delta:+.1f}%) {verdict}"
        )
        if fresh_speedup < floor:
            problems.append(
                f"record '{name}' regressed: {fresh_speedup:.2f}x is more "
                f"than {tolerance:.0%} below the baseline "
                f"{base_speedup:.2f}x"
            )
    return lines, problems


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--suite",
        choices=BENCH_SUITES,
        default="quantize",
        help="bench suite to re-run (default: quantize)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="committed baseline report (default: BENCH_<suite>.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed fractional speedup regression (default: 0.10)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="best-of-N timing repeats"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="quick suite only; baseline records it does not produce are "
        "skipped instead of failed",
    )
    args = parser.parse_args(argv)

    if not (0.0 <= args.tolerance < 1.0):
        print("bench-compare: --tolerance must be in [0, 1)", file=sys.stderr)
        return 2
    baseline_path = args.baseline or ROOT / f"BENCH_{args.suite}.json"
    try:
        baseline = json.loads(baseline_path.read_text())
    except (OSError, ValueError) as error:
        print(
            f"bench-compare: cannot read baseline {baseline_path}: {error}",
            file=sys.stderr,
        )
        return 2

    fresh = build_report(args.suite, args.repeats, args.quick)
    for record in fresh["records"]:
        print(format_record(record))
    lines, problems = compare_reports(
        baseline, fresh, tolerance=args.tolerance, allow_missing=args.quick
    )
    for line in lines:
        print(line)
    if problems:
        for problem in problems:
            print(f"bench-compare: {problem}", file=sys.stderr)
        return 1
    print(f"bench-compare: {len(lines)} records within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
