"""Perf-trajectory artifact checks: schema and the solver speedup bar.

``BENCH_quantize.json`` at the repo root is a committed artifact (written
by ``tools/bench.py``); this suite validates it against the schema and
pins the acceptance bar — the lazy-batch blocked solver shows a >=2x
speedup over the reference column loop on the 512x512 smoke case.  A
*live* smoke run re-measures the same case with a deliberately generous
threshold so the test stays flake-free on loaded machines while still
catching a de-optimized solver.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.report.bench as bench
from repro.nn import functional as F
from repro.report.bench import (
    BENCH_SCHEMA_VERSION,
    BENCH_SUITES,
    FORMAT_BENCH_BITS,
    _best_of_pair,
    append_bench_history,
    best_of,
    build_report,
    calibration_bench_records,
    format_bench_records,
    load_bench_history,
    render_bench_trend,
    serve_bench_records,
    solver_bench_records,
    validate_bench_report,
    write_bench_report,
)

ROOT = Path(__file__).resolve().parents[1]
ARTIFACT = ROOT / "BENCH_quantize.json"
SERVE_ARTIFACT = ROOT / "BENCH_serve.json"

_spec = importlib.util.spec_from_file_location(
    "bench_tool", ROOT / "tools" / "bench.py"
)
bench_tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_tool)


def eval_records_on_one_blas_thread(**kwargs) -> list[dict]:
    """Run :func:`eval_bench_records` in a child process pinned to one
    OpenBLAS thread, the way the committed records are made.

    Two-thread OpenBLAS on a 2-vCPU host has phases in which every
    mid-size GEMM runs ~16 ms; both sides of a record then time the same
    slow GEMM and the ratio says nothing about the fast path.
    """
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="1",
        PYTHONPATH=src + os.pathsep + path if path else src,
    )
    script = (
        "import json, sys\n"
        "from repro.report import bench\n"
        "records = bench.eval_bench_records(**json.loads(sys.argv[1]))\n"
        "print(json.dumps(records))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(kwargs)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestCommittedArtifact:
    def test_artifact_exists_and_validates(self):
        assert ARTIFACT.exists(), (
            "BENCH_quantize.json missing at the repo root; regenerate with "
            "`python tools/bench.py`"
        )
        report = json.loads(ARTIFACT.read_text())
        assert validate_bench_report(report) == []
        assert report["schema_version"] == BENCH_SCHEMA_VERSION

    def test_committed_solver_speedup_meets_bar(self):
        report = json.loads(ARTIFACT.read_text())
        smoke = [
            record
            for record in report["records"]
            if record["kind"] == "solver"
            and record["params"]["d_in"] == 512
            and record["params"]["d_out"] == 512
        ]
        assert smoke, "no 512x512 solver record in BENCH_quantize.json"
        for record in smoke:
            assert record["speedup"] >= 2.0, record
            assert record["bit_identical"] is True

    def test_committed_eval_fast_paths_meet_bar(self):
        # PR-5 acceptance: the inference fast paths show >=2x on at least
        # two of {eval-perplexity, kvcache-generate, packed-forward}, with
        # every equivalence flag true.
        report = json.loads(ARTIFACT.read_text())
        fast_paths = [
            record
            for record in report["records"]
            if record["kind"] in {"eval", "generate", "packed-forward"}
        ]
        assert {r["kind"] for r in fast_paths} == {
            "eval",
            "generate",
            "packed-forward",
        }, "missing inference fast-path records; rerun `python tools/bench.py`"
        for record in fast_paths:
            assert record["bit_identical"] is True, record
            assert record["speedup"] > 1.0, record
        at_bar = [r for r in fast_paths if r["speedup"] >= 2.0]
        assert len(at_bar) >= 2, fast_paths

    def test_committed_format_records_cover_int_widths(self):
        # Every int width the bench times carries a dequant/forward
        # record, bit-identical, with the memoised path never a slowdown.
        report = json.loads(ARTIFACT.read_text())
        by_format = {
            record["params"]["format"]: record
            for record in report["records"]
            if record["kind"] == "format-forward"
        }
        assert set(by_format) == {f"int{b}" for b in FORMAT_BENCH_BITS}, (
            "format-forward records out of sync with FORMAT_BENCH_BITS; "
            "regenerate with `python tools/bench.py`"
        )
        for record in by_format.values():
            assert record["bit_identical"] is True, record
            assert record["speedup"] > 1.0, record

    def test_committed_calibration_records_meet_bar(self):
        # Calibration fast-path acceptance: the streamed+batched capture
        # path shows >=2x over the legacy per-block protocol and stays
        # bit-identical; the kron engine's error-bounded equivalence is
        # certified within its declared bounds.
        report = json.loads(ARTIFACT.read_text())
        by_name = {
            record["name"]: record
            for record in report["records"]
            if record["kind"] == "calibration"
        }
        assert set(by_name) == {
            "calibration-capture",
            "calibration-kron",
            "calibration-trace-hutchinson",
        }, "missing calibration records; rerun `python tools/bench.py`"
        capture = by_name["calibration-capture"]
        assert capture["bit_identical"] is True, capture
        assert capture["speedup"] >= 2.0, capture
        kron = by_name["calibration-kron"]
        equivalence = kron["equivalence"]
        assert equivalence["kind"] == "error-bounded"
        assert equivalence["within_bounds"] is True, equivalence
        assert set(equivalence["metrics"]) == {
            "reconstruction_rel_error",
            "ppl_rel_delta",
        }
        assert set(equivalence["metrics"]) == set(equivalence["bounds"])
        trace = by_name["calibration-trace-hutchinson"]
        assert trace["equivalence"]["within_bounds"] is True, trace
        assert trace["speedup"] > 1.0, trace


class TestServeArtifact:
    def test_artifact_exists_and_validates(self):
        assert SERVE_ARTIFACT.exists(), (
            "BENCH_serve.json missing at the repo root; regenerate with "
            "`python tools/bench.py --suite serve`"
        )
        report = json.loads(SERVE_ARTIFACT.read_text())
        assert validate_bench_report(report, suite="serve") == []
        assert report["suite"] in BENCH_SUITES

    def test_committed_serve_records_meet_bar(self):
        report = json.loads(SERVE_ARTIFACT.read_text())
        by_name = {record["name"]: record for record in report["records"]}
        assert set(by_name) == {
            "serve-paged-decode",
            "serve-continuous-batching",
        }, "missing serve records; rerun `python tools/bench.py --suite serve`"
        for record in by_name.values():
            # The whole serving layer is built on the bit-identity contract.
            assert record["bit_identical"] is True, record
        # Continuous batching must beat serial request-at-a-time decoding.
        assert by_name["serve-paged-decode"]["speedup"] > 1.0
        assert by_name["serve-continuous-batching"]["speedup"] > 1.0
        metrics = by_name["serve-continuous-batching"]["metrics"]
        for key in ("p50_latency", "p99_latency", "throughput_rps"):
            assert key in metrics, metrics
        assert metrics["p99_latency"] >= metrics["p50_latency"]
        assert metrics["failed"] == 0 and metrics["rejected"] == 0

    def test_quick_serve_report_validates_live(self):
        report = build_report("serve", repeats=1, quick=True)
        assert validate_bench_report(report, suite="serve") == []
        for record in report["records"]:
            assert record["bit_identical"] is True, record

    def test_serve_records_reject_bad_repeats(self):
        with pytest.raises(ValueError):
            serve_bench_records(repeats=0)


class TestLiveSmoke:
    def test_blocked_beats_reference_on_512(self):
        records = solver_bench_records(repeats=2)
        solver = next(r for r in records if r["kind"] == "solver")
        # Generous bar (committed artifact shows ~2.5x): catches a
        # de-optimized solver without flaking under machine load.
        assert solver["speedup"] >= 1.5, solver
        assert solver["bit_identical"] is True
        cache = next(r for r in records if r["kind"] == "factor-cache")
        assert cache["speedup"] > 1.0, cache
        assert cache["bit_identical"] is True

    def test_factor_cache_compares_cold_and_cached_factors(
        self, monkeypatch
    ):
        # A cold factorization that drifts from the cached factor (here:
        # the factor of 2H) must show up as lost bit-identity.
        factorize = bench.factorize_hessian
        monkeypatch.setattr(
            bench, "factorize_hessian", lambda hessian: factorize(2 * hessian)
        )
        records = solver_bench_records(repeats=1)
        by_kind = {r["kind"]: r for r in records}
        assert by_kind["factor-cache"]["bit_identical"] is False
        assert by_kind["solver"]["bit_identical"] is True

    def test_format_forward_live_smoke(self):
        # Shrunk size, loose bar: catches a lost bit-identity or a
        # de-memoised FormatLinear without re-proving committed numbers.
        # Best of 3, as the committed records are timed: one reading can
        # fall below the bar on a busy host.
        records = format_bench_records(repeats=3, size=96)
        assert len(records) == len(
            {r["params"]["format"] for r in records}
        ), "duplicate format records"
        for record in records:
            assert record["kind"] == "format-forward"
            assert record["bit_identical"] is True, record
            assert record["speedup"] > 0.5, record

    def test_eval_fast_paths_live_smoke(self):
        # Shrunk problem sizes with deliberately loose bars: the point is
        # catching a de-optimized fast path or lost bit-identity, not
        # re-proving the committed speedups under CI load.  Best of 3,
        # with the generate sides alternated, so one slow moment of the
        # host cannot sink a single side; one BLAS thread, as recorded.
        records = eval_records_on_one_blas_thread(
            repeats=3, vocab=512, generate_tokens=48, packed_size=128
        )
        by_kind = {r["kind"]: r for r in records}
        assert set(by_kind) == {"eval", "generate", "packed-forward"}
        for record in records:
            assert record["bit_identical"] is True, record
        # Fused NLL at small vocab has little memory-traffic advantage;
        # just require it not be a slowdown.
        assert by_kind["eval"]["speedup"] > 0.8, by_kind["eval"]
        assert by_kind["generate"]["speedup"] > 1.5, by_kind["generate"]
        assert by_kind["packed-forward"]["speedup"] > 1.5, by_kind[
            "packed-forward"
        ]

    def test_calibration_live_smoke(self):
        # Shrunk bench model, no speedup bar on the capture record (a
        # 4-layer model barely amortises the O(L^2) term): the point is
        # the bit-identity and error-bound flags re-measured live.
        records = calibration_bench_records(
            repeats=1, n_layers=4, n_segments=2
        )
        by_name = {r["name"]: r for r in records}
        assert set(by_name) == {
            "calibration-capture",
            "calibration-kron",
            "calibration-trace-hutchinson",
        }
        assert by_name["calibration-capture"]["bit_identical"] is True
        for name in ("calibration-kron", "calibration-trace-hutchinson"):
            record = by_name[name]
            assert record["bit_identical"] is False
            assert record["equivalence"]["within_bounds"] is True, record


class TestBenchTool:
    def test_quick_run_writes_valid_report(self, tmp_path):
        out = tmp_path / "bench.json"
        assert bench_tool.main(["--quick", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert validate_bench_report(report, suite="quantize") == []

    def test_perturbed_fast_path_fails_the_run(
        self, tmp_path, monkeypatch, capsys
    ):
        # The exit-code contract of a smoke gate: a fast path that drifts
        # from its reference fails the run and writes no report.
        fused = F.gather_nll
        monkeypatch.setattr(
            F, "gather_nll", lambda logits, targets: fused(logits, targets) * 2
        )
        out = tmp_path / "bench.json"
        assert bench_tool.main(["--quick", "--out", str(out)]) == 1
        assert not out.exists()
        assert "bit_identical=False" in capsys.readouterr().out


class TestSchemaValidation:
    def test_quick_report_validates(self):
        report = build_report("quantize", repeats=1, quick=True)
        assert validate_bench_report(report) == []

    def test_validator_rejects_malformed_reports(self):
        good = {
            "schema_version": BENCH_SCHEMA_VERSION,
            "suite": "quantize",
            "records": [
                {
                    "name": "x",
                    "kind": "solver",
                    "params": {},
                    "timings": {"a": 1.0, "b": 2.0},
                    "speedup": 2.0,
                    "bit_identical": True,
                }
            ],
        }
        assert validate_bench_report(good) == []
        assert validate_bench_report({"schema_version": 99})
        bad_version = dict(good, schema_version=99)
        assert any(
            "schema_version" in p for p in validate_bench_report(bad_version)
        )
        bad_records = dict(good, records=[])
        assert any("records" in p for p in validate_bench_report(bad_records))
        drifted = dict(
            good, records=[dict(good["records"][0], bit_identical=False)]
        )
        assert any(
            "bit_identical" in p for p in validate_bench_report(drifted)
        )
        negative = dict(
            good, records=[dict(good["records"][0], timings={"a": -1.0})]
        )
        assert any("timings" in p for p in validate_bench_report(negative))
        bad_metrics = dict(
            good,
            records=[dict(good["records"][0], metrics={"p50": float("nan")})],
        )
        assert any("metrics" in p for p in validate_bench_report(bad_metrics))
        wrong_suite = dict(good, suite="serve")
        assert validate_bench_report(wrong_suite, suite="quantize")

    def test_validator_error_bounded_equivalence(self):
        def bounded_report(**overrides):
            equivalence = {
                "kind": "error-bounded",
                "metrics": {"err": 0.1},
                "bounds": {"err": 0.5},
                "within_bounds": True,
            }
            equivalence.update(overrides)
            return {
                "schema_version": BENCH_SCHEMA_VERSION,
                "suite": "quantize",
                "records": [
                    {
                        "name": "kron",
                        "kind": "calibration",
                        "params": {},
                        "timings": {"a": 1.0, "b": 2.0},
                        "speedup": 2.0,
                        "bit_identical": False,
                        "equivalence": equivalence,
                    }
                ],
            }

        # A valid equivalence block lets a record opt out of bit-identity.
        assert validate_bench_report(bounded_report()) == []
        # ... but each departure from the contract is a problem.
        assert any(
            "exceed" in p
            for p in validate_bench_report(
                bounded_report(metrics={"err": 0.9})
            )
        )
        assert any(
            "within_bounds" in p
            for p in validate_bench_report(
                bounded_report(within_bounds=False)
            )
        )
        assert any(
            "share keys" in p
            for p in validate_bench_report(
                bounded_report(bounds={"other": 0.5})
            )
        )
        assert any(
            "kind" in p
            for p in validate_bench_report(bounded_report(kind="exact"))
        )
        assert any(
            "metrics" in p
            for p in validate_bench_report(
                bounded_report(metrics={"err": float("nan")})
            )
        )

    def test_writer_refuses_invalid_report(self, tmp_path):
        with pytest.raises(ValueError, match="invalid bench report"):
            write_bench_report(tmp_path / "out.json", {"schema_version": 0})

    def test_writer_roundtrip(self, tmp_path):
        report = build_report("quantize", repeats=1, quick=True)
        path = write_bench_report(tmp_path / "bench.json", report)
        assert validate_bench_report(json.loads(path.read_text())) == []

    def test_best_of_validates_repeats(self):
        with pytest.raises(ValueError):
            best_of(lambda: None, repeats=0)
        assert best_of(lambda: None, repeats=2) >= 0.0

    def test_best_of_pair_alternates_calls(self):
        calls = []
        first, second = _best_of_pair(
            lambda: calls.append("a"), lambda: calls.append("b"), repeats=3
        )
        assert calls == ["a", "b"] * 3
        assert first >= 0.0 and second >= 0.0
        with pytest.raises(ValueError):
            _best_of_pair(lambda: None, lambda: None, repeats=0)


class TestHistoryAndTrend:
    @staticmethod
    def _report(timestamp, *records):
        return {"timestamp": timestamp, "records": list(records)}

    @staticmethod
    def _record(name, speedup, bit_identical=True):
        return {
            "name": name,
            "speedup": speedup,
            "bit_identical": bit_identical,
        }

    def test_append_and_load_round_trip(self, tmp_path):
        history = tmp_path / "BENCH_history.jsonl"
        entry = append_bench_history(
            history,
            self._report("t0", self._record("solver", 3.0)),
            commit="abc1234",
        )
        assert entry["commit"] == "abc1234"
        append_bench_history(
            history,
            self._report("t1", self._record("solver", 3.1)),
            commit="def5678",
        )
        entries = load_bench_history(history)
        assert [e["commit"] for e in entries] == ["abc1234", "def5678"]
        assert entries[0]["records"] == [
            {"name": "solver", "speedup": 3.0, "bit_identical": True}
        ]

    def test_commit_resolved_from_git_when_not_supplied(self, tmp_path):
        # tmp_path is outside any checkout only if pytest's tmp dir is;
        # either way the resolver must return a non-empty token.
        entry = append_bench_history(
            tmp_path / "h.jsonl", self._report("t0", self._record("s", 1.0))
        )
        assert isinstance(entry["commit"], str) and entry["commit"]

    def test_corrupt_lines_are_skipped(self, tmp_path):
        history = tmp_path / "h.jsonl"
        append_bench_history(
            history, self._report("t0", self._record("s", 2.0)), commit="aaa"
        )
        with history.open("a") as handle:
            handle.write("{torn json\n")
        append_bench_history(
            history, self._report("t1", self._record("s", 2.1)), commit="bbb"
        )
        assert [e["commit"] for e in load_bench_history(history)] == [
            "aaa",
            "bbb",
        ]

    def test_missing_history_is_empty(self, tmp_path):
        assert load_bench_history(tmp_path / "absent.jsonl") == []

    def test_trend_table_layout(self, tmp_path):
        history = [
            {
                "commit": "aaa",
                "timestamp": "t0",
                "records": [self._record("solver", 3.0)],
            },
            {
                "commit": "bbb",
                "timestamp": "t1",
                "records": [
                    self._record("solver", 3.25),
                    self._record("eval", 2.0, bit_identical=False),
                ],
            },
        ]
        table = render_bench_trend(history)
        assert "| commit | timestamp | solver | eval |" in table
        # The first entry predates the eval bench: placeholder, not a crash.
        assert "| aaa | t0 | 3.00x | — |" in table
        # Lost bit-identity is flagged inline.
        assert "| bbb | t1 | 3.25x | 2.00x ! |" in table

    def test_trend_table_empty_history(self):
        assert "(no history recorded yet)" in render_bench_trend([])
