"""Run a perf bench suite and write its ``BENCH_<suite>.json`` artifact.

Usage:  python tools/bench.py [--suite quantize|serve] [--out PATH]
                              [--quick] [--repeats N] [--append]

Thin loop over the suite table of :mod:`repro.report.bench` that puts
``src/`` on the path first.  The default suite is ``quantize`` (solver,
eval, format and calibration benches, artifact
``BENCH_quantize.json``); ``--suite serve`` runs the serving benches
(paged decode + continuous batching with latency percentiles, artifact
``BENCH_serve.json``).  One line per record shows its timings, speedup
and equivalence verdict; the report is written only when every record
kept its bit-identity or stayed inside its declared error bounds
(exit 1 otherwise).  The committed artifacts are validated by
``tests/test_bench_schema.py``.  ``--quick`` shrinks every record
group.  ``--append`` additionally appends a per-commit line to
``BENCH_history.jsonl`` and regenerates the markdown trend table at
``report/BENCH_trend.md``.
"""

from __future__ import annotations

import argparse
import sys
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.report.bench import (  # noqa: E402
    BENCH_SUITES,
    append_bench_history,
    build_report,
    format_record,
    load_bench_history,
    render_bench_trend,
    write_bench_report,
)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--suite",
        choices=BENCH_SUITES,
        default="quantize",
        help="bench suite to run (default: quantize)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="output path (default: BENCH_<suite>.json at the repo root)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shrunk record groups (smaller problems, one repeat)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="best-of-N timing repeats"
    )
    parser.add_argument(
        "--append",
        action="store_true",
        help="also append a per-commit line to the bench history and "
        "regenerate the markdown trend table",
    )
    parser.add_argument(
        "--history",
        type=Path,
        default=ROOT / "BENCH_history.jsonl",
        help="per-commit history file used by --append "
        "(default: BENCH_history.jsonl at the repo root)",
    )
    parser.add_argument(
        "--trend",
        type=Path,
        default=ROOT / "report" / "BENCH_trend.md",
        help="markdown trend table regenerated by --append "
        "(default: report/BENCH_trend.md)",
    )
    args = parser.parse_args(argv)

    timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    report = build_report(args.suite, args.repeats, args.quick, timestamp)
    for record in report["records"]:
        print(format_record(record))
    out = args.out or ROOT / f"BENCH_{args.suite}.json"
    try:
        path = write_bench_report(out, report)
    except ValueError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 1
    print(f"wrote {path}")
    if args.append:
        entry = append_bench_history(args.history, report)
        args.trend.parent.mkdir(parents=True, exist_ok=True)
        args.trend.write_text(render_bench_trend(load_bench_history(args.history)))
        print(f"appended {entry['commit']} to {args.history}")
        print(f"wrote {args.trend}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
