"""End-to-end APTQ benchmark: checkpoint → quantize → artifact → serve.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --prepare           # train the zoo model once
    python3 benchmarks/e2e/run.py                     # all four workloads
    python3 benchmarks/e2e/run.py --workload serve-decode --seed 3
    python3 benchmarks/e2e/run.py --workload quant-probed --trace 1
    python3 benchmarks/e2e/run.py --repeat 5          # median and IQR per metric
    python3 benchmarks/e2e/run.py --smoke             # tiny sizes, seconds

Each workload runs in its own child process (``workloads.py``) with BLAS
pinned to one thread.  The script prints every metric with its unit,
then, as the last line of standard output, one JSON record
``{"correct", "attempted", "failed", "metrics"}``; ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones and writes a
Chrome trace under ``benchmarks/e2e/out/``.  The exit code is 0 when
every correctness check passed, 1 when one failed or a workload timed
out, and 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
WORKLOADS = [
    workload["name"]
    for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
]
#: A workload run takes 11-23 s.  The prepare child has no limit: it may
#: train the zoo checkpoint (about nine minutes, single-threaded).
WORKLOAD_TIMEOUT_S = 170


def child_env() -> dict[str, str]:
    """Environment of a workload process: one BLAS thread, local caches."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    env["REPRO_CACHE_DIR"] = str(OUT / "zoo")
    return env


def child(
    workload: str,
    args: argparse.Namespace,
    seed: int,
    *extra: str,
    timeout: float | None = None,
):
    """Run ``workloads.py`` in a fresh process; returns the finished process."""
    command = [
        sys.executable,
        str(HERE / "workloads.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--trace",
        str(args.trace),
        "--out-dir",
        str(OUT),
        *extra,
    ]
    if args.smoke:
        command.append("--smoke")
    return subprocess.run(
        command,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
        check=False,
    )


def run_child(workload: str, args: argparse.Namespace, seed: int) -> dict | None:
    """Run one workload in a fresh process; returns its JSON record, or
    None (after saying why on stderr) when it timed out or printed none."""
    try:
        completed = child(workload, args, seed, timeout=WORKLOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(
            f"workload {workload} (seed {seed}) timed out after "
            f"{WORKLOAD_TIMEOUT_S} s",
            file=sys.stderr,
        )
        return None
    lines = completed.stdout.strip().splitlines()
    if not lines:
        print(
            f"workload {workload} (seed {seed}) exited "
            f"{completed.returncode} without a result",
            file=sys.stderr,
        )
        return None
    return json.loads(lines[-1])


def print_record(workload: str, seed: int, record: dict) -> None:
    """Human-readable metric table of one workload run."""
    print(
        f"== {workload} (seed {seed}): correct={record['correct']} "
        f"attempted={record['attempted']} failed={record['failed']}"
    )
    for name, metric in record["metrics"].items():
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")


def quartile_spread(values: list[float]) -> tuple[float, float]:
    """(median, IQR / median) as ``statistics.quantiles(n=4)`` gives them."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def main(argv: list[str] | None = None) -> int:
    """Run the selected workloads and print their metrics."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", action="append", choices=WORKLOADS, help="repeatable"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=10.0,
        help="unused; accepted because runners of BENCHMARK.json pass "
        "run_seconds.  The sizes are fixed: a run takes 11-18 s",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: per-layer metrics and a Chrome trace in benchmarks/e2e/out/",
    )
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="runs per workload on seeds seed..seed+N-1; prints median, IQR",
    )
    parser.add_argument("--prepare", action="store_true",
                        help="train the zoo checkpoint if missing, then exit")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny random-init model and sizes")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"program not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.repeat < 1:
        parser.error("--repeat must be positive")
    workloads = args.workload or list(WORKLOADS)
    # Load (on first use: train) the checkpoint in a process of its own,
    # so no workload's timing or peak RSS includes the training.
    prepared = child(workloads[0], args, args.seed, "--prepare")
    if args.prepare or prepared.returncode:
        return prepared.returncode

    records: dict[str, list[dict]] = {}
    for workload in workloads:
        for seed in range(args.seed, args.seed + args.repeat):
            record = run_child(workload, args, seed)
            if record is None:
                return 1
            print_record(workload, seed, record)
            records.setdefault(workload, []).append(record)

    if args.repeat > 1:
        print("== over seeds: median, IQR/median")
    # One workload reports plain metric names, several prefix the workload;
    # with --repeat every value is the median over the seeds.
    metrics = {}
    for workload, runs in records.items():
        for name, metric in runs[0]["metrics"].items():
            median, spread = quartile_spread(
                [run["metrics"][name]["value"] for run in runs]
            )
            key = name if len(records) == 1 else f"{workload}.{name}"
            metrics[key] = {"value": median, "unit": metric["unit"]}
            if args.repeat > 1:
                print(
                    f"  {workload:<14} {name:<40} {median:>14.6g} "
                    f"{metric['unit']:<6} {spread:8.2%}"
                )
    every = [run for runs in records.values() for run in runs]
    correct = all(run["correct"] for run in every)
    summary = {
        "correct": correct,
        "attempted": sum(run["attempted"] for run in every),
        "failed": sum(run["failed"] for run in every),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
