"""Reporting: tables, ASCII figures, CSV export, run health, perf benches."""

from repro.report.tables import format_table, format_markdown_table
from repro.report.figures import ascii_line_chart
from repro.report.export import rows_to_csv, write_csv
from repro.report.health import format_run_health
from repro.report.bench import (
    BENCH_SCHEMA_VERSION,
    best_of,
    build_report,
    eval_bench_records,
    format_record,
    solver_bench_records,
    validate_bench_report,
    write_bench_report,
)

__all__ = [
    "format_table",
    "format_markdown_table",
    "ascii_line_chart",
    "rows_to_csv",
    "write_csv",
    "format_run_health",
    "BENCH_SCHEMA_VERSION",
    "best_of",
    "build_report",
    "eval_bench_records",
    "format_record",
    "solver_bench_records",
    "validate_bench_report",
    "write_bench_report",
]
