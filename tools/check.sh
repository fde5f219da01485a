#!/usr/bin/env sh
# Repo gate: whole-program lint (strict), then the tier-1 test suite.
# Run from the repo root: ./tools/check.sh
set -eu

cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== repro-lint --whole-program --strict =="
python -m repro.analysis --whole-program --strict --stats src/repro

echo "== fault matrix (runtime robustness) =="
python -m pytest -x -q tests/test_runtime_recovery.py \
    tests/test_runtime_faults.py tests/test_runtime_checkpoint.py \
    tests/test_runtime_integration.py

# test_data_streams.py pins the seeded corpus, calibration and task
# streams every golden is computed from; test_quant_sequential.py pins
# the GPTQ-family stream against the per-block full-model forward;
# test_quant_stacked_solver.py pins each stacked solver task against its
# own one-task solve.
echo "== differential + bench smoke (perf engine bit-identity) =="
python -m pytest -x -q tests/test_quant_differential.py \
    tests/test_quant_golden.py tests/test_bench_schema.py \
    tests/test_data_streams.py tests/test_core_working_set.py \
    tests/test_quant_sequential.py tests/test_quant_stacked_solver.py

echo "== format conformance (int-k storage: round trip, pack, goldens) =="
python -m pytest -x -q tests/test_quant_formats.py \
    tests/test_quant_format_properties.py tests/test_quant_format_golden.py \
    tests/test_quant_qlinear.py tests/test_quant_deploy.py

# test_nn_kvcache.py holds the decode-step contracts replay rests on:
# fresh-cache prefill identity, company/geometry invariance, stale-block
# isolation and all-or-nothing reservation; test_serve_engine_call.py
# pins the one mixed prefill/decode call per scheduler step.
echo "== serve chaos smoke (continuous batching under injected faults) =="
python -m pytest -x -q tests/test_serve_chaos.py \
    tests/test_serve_scheduler.py tests/test_serve_supervisor.py \
    tests/test_serve_paged_cache.py tests/test_nn_kvcache.py \
    tests/test_serve_engine_call.py

# Single-core VM timings swing up to ~20% run-to-run; 25% still catches a
# genuinely de-optimized fast path (the gated records sit at 2-12x).
echo "== bench regression gate (vs committed BENCH_quantize.json) =="
python tools/bench_compare.py --repeats 5 --tolerance 0.25

echo "== serve bench gate (vs committed BENCH_serve.json) =="
python tools/bench_compare.py --suite serve --repeats 3 --tolerance 0.25

# The e2e tracer patches module-level names in repro.core.aptq and
# repro.core.sensitivity; these tests fail when one of them goes missing.
echo "== e2e bench harness (tracer patch targets, run.py smoke) =="
python -m pytest -x -q benchmarks/e2e/tests

echo "== tier-1 tests =="
python -m pytest -x -q tests
