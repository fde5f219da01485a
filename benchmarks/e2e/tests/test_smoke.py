"""Smoke tests of ``run.py``: the command line the benchmark is run by.

Run from the repository root with
``PYTHONPATH=src python -m pytest benchmarks/e2e/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_smoke_runs_every_workload_with_every_metric_in_30s():
    started = time.perf_counter()
    proc = run("--smoke")
    assert time.perf_counter() - started < 30
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record["correct"] and record["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    for workload in WORKLOADS:
        reported = {
            name.split(".", 1)[1]: metric["unit"]
            for name, metric in record["metrics"].items()
            if name.startswith(workload + ".")
        }
        assert reported == expected, workload
    for name, metric in record["metrics"].items():
        assert metric["value"] > 0, name


def test_traced_smoke_reports_every_per_layer_metric():
    proc = run("--smoke", "--workload", "quant-kron-w2", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {n: m["unit"] for n, m in record["metrics"].items()} == expected
    trace = json.loads(
        (HERE / "out" / "trace-quant-kron-w2-seed0.json").read_text()
    )
    assert trace["traceEvents"]


def test_workload_timeout_is_reported_not_raised(monkeypatch, capsys):
    sys.path.insert(0, str(HERE))
    import run as runner

    def hang(*args, timeout=None):
        raise subprocess.TimeoutExpired("workloads.py", timeout)

    monkeypatch.setattr(runner, "child", hang)
    assert runner.run_child(WORKLOADS[0], None, 0) is None
    assert f"{WORKLOADS[0]} (seed 0) timed out" in capsys.readouterr().err


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(
            ROOT / path,
            tmp_path / path,
            ignore=shutil.ignore_patterns("out", "__pycache__"),
        )
    proc = run("--workload", WORKLOADS[0], "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
