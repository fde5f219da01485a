"""Benchmark harness for the quantization hot paths.

Produces the ``BENCH_<suite>.json`` perf-trajectory artifacts at the repo
root (via ``tools/bench.py``): schema-versioned reports comparing the
lazy-batch blocked solver against the column-at-a-time reference sweep,
the Cholesky factor cache against cold factorization, the inference fast
paths (fused NLL, KV-cached decoding, memoised packed forward) against
their unfused/uncached twins, the calibration fast path (streamed
captures, batched probes, the Kronecker-factored Hessian engine) against
the legacy per-block protocol, and the serving layer against serial
decoding.

Every record goes through one measure protocol, :func:`_measure`: run the
reference and the fast side once, compare their outputs, then time both.
A bit-identical pair carries ``bit_identical: true``, so a speedup bought
by numeric drift would be visible right in the report.  Approximation
tiers that are close-by-design rather than identical (the kron engine,
fp-summation-order changes) instead carry an ``equivalence`` block:
measured error metrics certified against declared bounds, re-checked
every time the report is rebuilt.  :func:`build_report` runs the record
groups of one suite from a single suite table.

Timing methodology: ``best_of`` takes the *minimum* of ``repeats`` runs of
a zero-argument callable under ``time.perf_counter`` — the standard way to
suppress scheduler noise for CPU-bound kernels (the minimum is the run
with the least interference).  Thresholds asserted in tier-1
(``tests/test_bench_schema.py``) are deliberately generous so the suite
stays flake-free on loaded machines.
"""

from __future__ import annotations

import json
import platform
import subprocess
import time
from pathlib import Path
from typing import Callable

import numpy as np

from repro.quant.solver import (
    MICRO_BLOCKSIZE,
    HessianFactorCache,
    factorize_hessian,
    quantize_with_hessian,
    quantize_with_hessian_reference,
)

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BENCH_SUITES",
    "best_of",
    "solver_bench_records",
    "eval_bench_records",
    "FORMAT_BENCH_BITS",
    "format_bench_records",
    "calibration_bench_records",
    "serve_bench_records",
    "build_report",
    "format_record",
    "validate_bench_report",
    "write_bench_report",
    "append_bench_history",
    "load_bench_history",
    "render_bench_trend",
]

#: Version of the ``BENCH_<suite>.json`` schema (bump on shape changes).
BENCH_SCHEMA_VERSION = 1

#: Seed of every bench workload (recorded in each record's ``params``).
SEED = 0

#: Int widths timed by :func:`format_bench_records`; the format goldens
#: pin the same widths.
FORMAT_BENCH_BITS = (2, 3, 4, 8)

#: Keys every record must carry (checked by :func:`validate_bench_report`).
_RECORD_KEYS = ("name", "kind", "params", "timings", "speedup", "bit_identical")


def best_of(fn: Callable[[], object], repeats: int = 3) -> float:
    """Minimum wall-clock seconds of ``repeats`` calls to ``fn``."""
    return _fastest(fn, repeats)[0]


def _fastest(fn: Callable[[], object], repeats: int) -> tuple[float, object]:
    """:func:`best_of` that also returns the fastest call's output."""
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    fastest: tuple[float, object] = (float("inf"), None)
    for _ in range(repeats):
        start = time.perf_counter()
        output = fn()
        elapsed = time.perf_counter() - start
        if elapsed < fastest[0]:
            fastest = (elapsed, output)
    return fastest


def _best_of_pair(
    first: Callable[[], object],
    second: Callable[[], object],
    repeats: int = 3,
) -> tuple[float, float]:
    """Minimum wall-clock seconds of each of two functions, called in turn.

    Two best-of-N timings taken one after the other drift apart with the
    host's speed; alternating the calls exposes both to the same drift, so
    their ratio holds still when the two sides cost about the same.
    """
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    timings: tuple[list[float], list[float]] = ([], [])
    for _ in range(repeats):
        for fn, bucket in zip((first, second), timings):
            start = time.perf_counter()
            fn()
            bucket.append(time.perf_counter() - start)
    return min(timings[0]), min(timings[1])


def _error_bounded(metrics: dict, bounds: dict) -> dict:
    """An ``equivalence`` block for a record that is close, not identical.

    ``within_bounds`` is computed fresh at build time (never copied from a
    previous run), so a regenerated report re-certifies the approximation
    against its declared bounds.
    """
    if set(metrics) != set(bounds):
        raise ValueError("metrics and bounds must share keys")
    return {
        "kind": "error-bounded",
        "metrics": {k: float(v) for k, v in metrics.items()},
        "bounds": {k: float(v) for k, v in bounds.items()},
        "within_bounds": all(
            float(metrics[key]) <= float(bounds[key]) for key in bounds
        ),
    }


def _measure(
    name: str,
    kind: str,
    params: dict,
    reference: tuple[str, Callable[[], object]],
    fast: tuple[str, Callable[[], object]],
    repeats: int,
    check: Callable[[object, object], object],
    bounds: dict | None = None,
    alternate: bool = False,
    metrics: Callable[[object], dict] | None = None,
) -> dict:
    """Run, check and time one labelled reference/fast pair; returns its
    record.

    Each side runs once untimed (which also warms any cache the fast side
    memoises) and ``check(reference_output, fast_output)`` compares the
    two: it returns the ``bit_identical`` flag or, when ``bounds`` are
    declared, the error metrics certified against them in an
    ``equivalence`` block.  Both sides are then timed best-of-``repeats``,
    one after the other, or alternately (``alternate``) for pairs whose
    costs are close enough that host-speed drift would move their ratio.
    ``metrics`` maps the output of the fastest timed fast-side run to the
    record's run-varying ``metrics``.
    """
    (reference_label, reference_fn), (fast_label, fast_fn) = reference, fast
    verdict = check(reference_fn(), fast_fn())
    fastest = None
    if alternate:
        reference_seconds, fast_seconds = _best_of_pair(
            reference_fn, fast_fn, repeats
        )
    else:
        reference_seconds = best_of(reference_fn, repeats)
        fast_seconds, fastest = _fastest(fast_fn, repeats)
    record = {
        "name": name,
        "kind": kind,
        "params": params,
        "timings": {
            reference_label: reference_seconds,
            fast_label: fast_seconds,
        },
        "speedup": reference_seconds / fast_seconds,
        "bit_identical": bounds is None and bool(verdict),
    }
    if bounds is not None:
        record["equivalence"] = _error_bounded(verdict, bounds)
    if metrics is not None:
        record["metrics"] = metrics(fastest)
    return record


def _results_bit_identical(a, b) -> bool:
    """Whether two solver results agree exactly (codes, grids, weights)."""
    return (
        np.array_equal(a.quantized_weight, b.quantized_weight)
        and np.array_equal(a.group_result.codes, b.group_result.codes)
        and np.array_equal(a.group_result.scales, b.group_result.scales)
        and np.array_equal(a.group_result.zeros, b.group_result.zeros)
    )


def _arrays_equal(first: dict, second: dict) -> bool:
    """Whether two mappings hold the same keys and exactly equal arrays."""
    return first.keys() == second.keys() and all(
        np.array_equal(first[key], second[key]) for key in first
    )


def solver_bench_records(repeats: int = 3) -> list[dict]:
    """Time blocked-vs-reference sweeps and warm-vs-cold factorization.

    Returns two records: ``solver-512x512`` (the smoke case the
    acceptance bar reads) and ``factor-cache-512`` (the shared-Hessian
    reuse wired through Q/K/V), whose cached factor must equal the cold
    one.
    """
    size, bits, group_size, blocksize = 512, 4, 32, 128
    # A random weight and a well-conditioned PSD Hessian.
    rng = np.random.default_rng(SEED)
    weight = rng.standard_normal((size, size))
    basis = rng.standard_normal((size, size))
    hessian = basis @ basis.T / size + 0.1 * np.eye(size)
    solver = _measure(
        f"solver-{size}x{size}",
        "solver",
        {
            "d_in": size,
            "d_out": size,
            "bits": bits,
            "group_size": group_size,
            "blocksize": blocksize,
            "micro_blocksize": MICRO_BLOCKSIZE,
            "repeats": repeats,
            "seed": SEED,
        },
        (
            "reference",
            lambda: quantize_with_hessian_reference(
                weight, hessian, bits=bits, group_size=group_size
            ),
        ),
        (
            "blocked",
            lambda: quantize_with_hessian(
                weight,
                hessian,
                bits=bits,
                group_size=group_size,
                blocksize=blocksize,
            ),
        ),
        repeats,
        _results_bit_identical,
    )

    # Factor-cache effect: cold factorization per call vs one shared factor
    # (the Q/K/V pattern after the shared-Gram dedup).  The direct call is
    # the point of the measurement, hence the suppression.
    cache = HessianFactorCache()
    factor_cache = _measure(
        f"factor-cache-{size}",
        "factor-cache",
        {"d_in": size, "repeats": repeats, "seed": SEED},
        ("cold", lambda: factorize_hessian(hessian)),  # lint: disable=perf-raw-factorization
        ("warm", lambda: cache.factor(hessian, 0.01)),
        repeats,
        lambda cold, warm: np.array_equal(cold.inv_upper, warm.inv_upper),
    )
    return [solver, factor_cache]


def eval_bench_records(
    repeats: int = 3,
    vocab: int = 4096,
    generate_tokens: int = 192,
    packed_size: int = 512,
) -> list[dict]:
    """Time the inference/evaluation fast paths against their slow twins.

    Three bit-identical records:

    * ``eval-perplexity`` — fused :func:`repro.nn.functional.gather_nll`
      vs the unfused log-softmax-then-gather reference on a
      ``(8, 128, vocab)`` logit block (bit-identical by the shared max
      shift and reduction order);
    * ``kvcache-generate`` — sliding-window :meth:`generate` vs the
      paged-KV-cache :meth:`generate_cached` decode (one prefill, then one
      :meth:`forward_cached` per token; token-for-token equal), the two
      sides timed alternately;
    * ``packed-forward-<N>x<N>`` — per-call unpack-decode-then-matmul vs
      the memoised dense weight of an int4
      :class:`~repro.quant.formats.FormatLinear`.
    """
    from repro.nn import functional as F
    from repro.nn.transformer import LlamaConfig, LlamaModel
    from repro.quant.formats import FormatLinear

    rng = np.random.default_rng(SEED)
    logits = rng.standard_normal((8, 128, vocab))
    targets = rng.integers(0, vocab, size=(8, 128))
    config = LlamaConfig(
        vocab_size=128,
        d_model=64,
        n_layers=2,
        n_heads=4,
        d_ff=96,
        max_seq_len=generate_tokens + 16,
    )
    model = LlamaModel(config, seed=SEED)
    prompt = rng.integers(0, config.vocab_size, size=8)
    weight = rng.standard_normal((packed_size, packed_size))
    layer = FormatLinear.from_weight(weight, 4, group_size=32)
    x = rng.standard_normal((64, packed_size))

    def decode_per_call():
        tensor = layer.format.unpack_payload(layer.arrays, layer.meta)
        return x @ layer.format.decode(tensor)

    return [
        # Fused NLL: the whole perplexity/zero-shot hot path per token.
        _measure(
            "eval-perplexity",
            "eval",
            {
                "batch": 8,
                "seq": 128,
                "vocab": vocab,
                "repeats": repeats,
                "seed": SEED,
            },
            ("unfused", lambda: F.gather_nll_reference(logits, targets)),
            ("fused", lambda: F.gather_nll(logits, targets)),
            repeats,
            np.array_equal,
        ),
        # KV-cached decoding: O(n) per token vs O(window) re-forwarding.
        _measure(
            "kvcache-generate",
            "generate",
            {
                "d_model": config.d_model,
                "n_layers": config.n_layers,
                "prompt_len": int(prompt.size),
                "new_tokens": generate_tokens,
                "repeats": repeats,
                "seed": SEED,
            },
            (
                "sliding",
                lambda: model.generate(
                    prompt, generate_tokens, temperature=0.0
                ),
            ),
            (
                "cached",
                lambda: model.generate_cached(
                    prompt, generate_tokens, temperature=0.0
                ),
            ),
            repeats,
            np.array_equal,
            alternate=True,
        ),
        # Packed forward: decode-per-call vs the memoised dense weight.
        _measure(
            f"packed-forward-{packed_size}x{packed_size}",
            "packed-forward",
            {
                "d_in": packed_size,
                "d_out": packed_size,
                "bits": 4,
                "group_size": 32,
                "batch": 64,
                "repeats": repeats,
                "seed": SEED,
            },
            ("per_call", decode_per_call),
            ("memoised", lambda: layer.forward_array(x)),
            repeats,
            np.array_equal,
        ),
    ]


def format_bench_records(repeats: int = 3, size: int = 512) -> list[dict]:
    """Dequant/forward timing of packed int layers at each stored width.

    One ``format-forward-int<k>-<N>x<N>`` record per width of
    :data:`FORMAT_BENCH_BITS`: decode-then-matmul per call vs the
    memoised dense reconstruction of
    :class:`~repro.quant.formats.FormatLinear`, with the bit-identity of
    the two paths re-checked at measure time.  A completeness test
    (``tests/test_bench_schema.py``) requires a record per width in the
    committed artifact.
    """
    from repro.quant.formats import FormatLinear, IntFormat

    rng = np.random.default_rng(SEED)
    weight = rng.standard_normal((size, size))
    x = rng.standard_normal((64, size))
    records = []
    for bits in FORMAT_BENCH_BITS:
        fmt = IntFormat(bits)
        tensor = fmt.encode(weight, 32)
        linear = FormatLinear.from_tensor(fmt, tensor)
        records.append(
            _measure(
                f"format-forward-{fmt.name}-{size}x{size}",
                "format-forward",
                {
                    "format": fmt.name,
                    "d_in": size,
                    "d_out": size,
                    "bits": fmt.bits,
                    "group_size": 32,
                    "batch": 64,
                    "repeats": repeats,
                    "seed": SEED,
                },
                ("per_call", lambda: x @ fmt.decode(tensor)),
                ("memoised", lambda: linear.forward_array(x)),
                repeats,
                np.array_equal,
            )
        )
    return records


def calibration_bench_records(
    repeats: int = 3, n_layers: int = 12, n_segments: int = 4
) -> list[dict]:
    """Time the calibration fast path against the legacy per-block protocol.

    Three records, each timing its two sides alternately:

    * ``calibration-capture`` — the legacy per-block protocol (one
      ``capture_attention`` restart from the embedding per (block, batch)
      pair, ``probe_mode="reference"`` per-probe gradient loops) against a
      frozen
      :class:`~repro.quant.calibration_hooks.CalibrationCaptureStream`
      feeding the batched-probe
      :func:`~repro.core.hessian.attention_hessians_from_captures`.  The
      fast path is bit-identical by construction; the flag is re-checked
      here by exact array comparison of every block's q/k/v/o Hessians.
    * ``calibration-kron`` — batched-probe vs Kronecker-factored
      (``hessian_mode="kron"``) Hessian estimation over identical
      captures.  *Error-bounded*, not bit-identical: the record carries an
      ``equivalence`` block with the measured q/k reconstruction error and
      the end-to-end perplexity delta of a kron-mode APTQ run, certified
      against declared bounds at build time.
    * ``calibration-trace-hutchinson`` — the vectorised explicit-matrix
      Hutchinson trace against the per-probe loop (identical rng element
      stream), error-bounded at machine precision.
    """
    # Imported here: repro.report is a leaf package that the core imports
    # for health rendering (top-level import cycle otherwise).
    from repro.core.aptq import APTQConfig, aptq_quantize_model
    from repro.core.hessian import (
        CalibrationCaptureStream,
        attention_hessians,
        attention_hessians_from_captures,
    )
    from repro.core.kron import kron_attention_hessians_from_captures
    from repro.core.trace import hutchinson_trace
    from repro.data.calibration import CalibrationSet
    from repro.eval.perplexity import perplexity
    from repro.nn.transformer import LlamaConfig, LlamaModel

    seq_len, n_probes, batch_size = 32, 2, 4
    # Deep-and-narrow on purpose: the legacy protocol's cost is quadratic
    # in depth (sum of block-prefix re-forwards), so a 12-layer model with
    # a heavyish FFN puts the measurement in the forward-dominated regime
    # the fast path actually targets.
    config = LlamaConfig(
        vocab_size=64,
        d_model=32,
        n_layers=n_layers,
        n_heads=2,
        d_ff=256,
        max_seq_len=seq_len,
    )
    rng = np.random.default_rng(SEED)
    segments = rng.integers(0, config.vocab_size, size=(n_segments, seq_len))
    model = LlamaModel(config, seed=SEED)
    params = {
        "n_layers": n_layers,
        "d_model": config.d_model,
        "n_heads": config.n_heads,
        "d_ff": config.d_ff,
        "n_segments": n_segments,
        "seq_len": seq_len,
        "n_probes": n_probes,
        "batch_size": batch_size,
        "repeats": repeats,
        "seed": SEED,
    }
    blocks = range(n_layers)

    def legacy() -> list:
        # O(L^2) block forwards: every attention_hessians call restarts
        # capture_attention at the embedding for its block prefix.
        return [
            attention_hessians(
                model,
                block,
                segments,
                n_probes=n_probes,
                batch_size=batch_size,
                seed=SEED + block,
                probe_mode="reference",
            )
            for block in blocks
        ]

    def estimate(estimator: Callable, captures: list) -> list:
        return [
            estimator(
                model.blocks[block].self_attn,
                captures[block],
                n_probes=n_probes,
                seed=SEED + block,
            )
            for block in blocks
        ]

    def streamed() -> list:
        stream = CalibrationCaptureStream(
            model, segments, batch_size=batch_size, frozen=True
        )
        captures = [stream.block_captures(block) for block in blocks]
        return estimate(attention_hessians_from_captures, captures)

    def same_hessians(first: list, second: list) -> bool:
        return all(
            np.array_equal(a, b)
            for one, other in zip(first, second)
            for a, b in zip(
                (*one.q, *one.k, *one.v, one.o),
                (*other.q, *other.k, *other.v, other.o),
            )
        )

    # calibration-kron: estimator cost over identical captures.
    stream = CalibrationCaptureStream(
        model, segments, batch_size=batch_size, frozen=True
    )
    captures = [stream.block_captures(block) for block in blocks]

    micro = LlamaConfig(
        vocab_size=64,
        d_model=16,
        n_layers=2,
        n_heads=2,
        d_ff=24,
        max_seq_len=32,
    )
    calibration = CalibrationSet(
        segments=rng.integers(0, micro.vocab_size, size=(6, 12)),
        corpus_name="synthetic",
        seed=SEED,
    )
    eval_stream = rng.integers(0, micro.vocab_size, size=256)

    def quantized_perplexity(mode: str) -> float:
        quantized = LlamaModel(micro, seed=SEED)
        aptq_quantize_model(
            quantized,
            calibration,
            APTQConfig(ratio_4bit=0.5, hessian_mode=mode),
        )
        return perplexity(quantized, eval_stream, seq_len=16)

    def kron_errors(probed_hessians: list, kron_hessians: list) -> dict:
        reconstruction_errors = []
        for probed_block, kron_block in zip(probed_hessians, kron_hessians):
            for projection in ("q", "k"):
                exact_heads = getattr(probed_block, projection)
                factor = getattr(kron_block, projection)
                for head, exact in enumerate(exact_heads):
                    denom = float(np.linalg.norm(exact))
                    if denom == 0.0:
                        continue
                    reconstruction_errors.append(
                        float(np.linalg.norm(factor.dense(head) - exact))
                        / denom
                    )
        ppl_probed = quantized_perplexity("probed")
        ppl_kron = quantized_perplexity("kron")
        return {
            # Mean relative Frobenius error of g_h * A against the probed
            # per-head q/k Hessians (v/o keep their exact closed forms).
            "reconstruction_rel_error": float(np.mean(reconstruction_errors)),
            "ppl_rel_delta": abs(ppl_kron - ppl_probed) / ppl_probed,
        }

    # calibration-trace-hutchinson: vectorised quadratic forms.
    dim, trace_probes = 192, 96
    basis = rng.standard_normal((dim, dim))
    matrix = basis @ basis.T / dim

    def trace_loop() -> float:
        # The callable branch keeps the per-probe loop; same rng stream.
        return hutchinson_trace(
            lambda z: matrix @ z, dim=dim, n_probes=trace_probes, seed=SEED
        )

    return [
        _measure(
            "calibration-capture",
            "calibration",
            params,
            ("per_block", legacy),
            ("streamed", streamed),
            repeats,
            same_hessians,
            alternate=True,
        ),
        # Declared bounds of the approximation tier; commitments, not
        # observations — a regenerated report that drifts past them fails
        # validation (and the bench_compare gate) instead of re-declaring.
        # The isotropic token-side collapse is a coarse curvature sketch
        # (~0.8 relative Frobenius error on q/k for a random model), which
        # is exactly why the binding bound is the end-to-end perplexity
        # delta.
        _measure(
            "calibration-kron",
            "calibration",
            params,
            (
                "probed",
                lambda: estimate(attention_hessians_from_captures, captures),
            ),
            (
                "kron",
                lambda: estimate(
                    kron_attention_hessians_from_captures, captures
                ),
            ),
            repeats,
            kron_errors,
            bounds={"reconstruction_rel_error": 0.9, "ppl_rel_delta": 0.05},
            alternate=True,
        ),
        _measure(
            "calibration-trace-hutchinson",
            "calibration",
            {
                "dim": dim,
                "n_probes": trace_probes,
                "repeats": repeats,
                "seed": SEED,
            },
            ("loop", trace_loop),
            (
                "vectorised",
                lambda: hutchinson_trace(
                    matrix, n_probes=trace_probes, seed=SEED
                ),
            ),
            repeats,
            lambda loop, vectorised: {
                "trace_rel_error": abs(vectorised - loop) / abs(loop)
            },
            bounds={"trace_rel_error": 1e-9},
            alternate=True,
        ),
    ]


def serve_bench_records(
    repeats: int = 3, n_requests: int = 24, max_new: int = 16
) -> list[dict]:
    """Time the serving layer against serial per-request decoding.

    Two records, both re-checking bit-identity at measure time:

    * ``serve-paged-decode`` — B ragged sequences decoded as one
      continuous batch over the :class:`~repro.nn.attention.PagedKVCache`
      (via :class:`~repro.serve.engine.InProcessWorker`) vs a serial
      :meth:`generate_cached` loop (one sequence on the same cache type);
    * ``serve-continuous-batching`` — the full async
      :class:`~repro.serve.scheduler.ContinuousBatchScheduler` over a
      seeded open-loop workload vs the same serial loop, with the fastest
      served run's latency percentiles and throughput under ``metrics``
      (run-varying numbers live there, not in ``params``, so the
      regression gate still pairs records across runs).
    """
    import asyncio

    from repro.nn.transformer import LlamaConfig, LlamaModel
    from repro.serve.engine import InProcessWorker
    from repro.serve.loadgen import build_workload, run_open_loop
    from repro.serve.scheduler import ContinuousBatchScheduler, ServeConfig

    config = LlamaConfig(
        vocab_size=96,
        d_model=48,
        n_layers=3,
        n_heads=2,
        d_ff=64,
        max_seq_len=64,
    )
    model = LlamaModel(config, seed=SEED)
    workload = build_workload(
        n_requests,
        vocab_size=config.vocab_size,
        seed=SEED,
        min_prompt=2,
        max_prompt=12,
        min_new=max(2, max_new // 2),
        max_new=max_new,
        arrival_rate=1e6,  # all arrivals at ~t=0: a standing backlog
    )
    params = {
        "d_model": config.d_model,
        "n_layers": config.n_layers,
        "n_requests": n_requests,
        "max_new": max_new,
        "repeats": repeats,
        "seed": SEED,
    }

    def serial() -> dict[str, np.ndarray]:
        return {
            spec["request_id"]: model.generate_cached(
                spec["prompt"], spec["max_new_tokens"], temperature=0.0
            )
            for spec in workload
        }

    def paged() -> dict[str, np.ndarray]:
        worker = InProcessWorker(model, block_size=8, num_blocks=128)
        live = []
        for spec in workload:
            logits = worker.prefill(spec["request_id"], spec["prompt"])
            tokens = [int(np.argmax(logits))]
            live.append([spec, tokens, int(spec["prompt"].size)])
        outputs: dict[str, np.ndarray] = {}
        while live:
            entries = [
                (spec["request_id"], tokens[-1], position)
                for spec, tokens, position in live
            ]
            logits, _ = worker.decode(entries)
            done = []
            for row, item in enumerate(live):
                spec, tokens, _ = item
                tokens.append(int(np.argmax(logits[row])))
                item[2] += 1
                if len(tokens) >= spec["max_new_tokens"]:
                    done.append(item)
            for item in done:
                spec, tokens, _ = item
                live.remove(item)
                worker.release(spec["request_id"])
                outputs[spec["request_id"]] = np.concatenate(
                    [spec["prompt"], np.asarray(tokens, dtype=np.int64)]
                )
        return outputs

    def served():
        async def run():
            scheduler = ContinuousBatchScheduler(
                model,
                ServeConfig(
                    block_size=8,
                    num_blocks=128,
                    max_batch=8,
                    max_queue=n_requests + 1,
                ),
            )
            result = await run_open_loop(scheduler, workload)
            scheduler.close()
            return result

        return asyncio.run(run())

    return [
        _measure(
            "serve-paged-decode",
            "serve",
            params,
            ("serial", serial),
            ("paged", paged),
            repeats,
            _arrays_equal,
        ),
        _measure(
            "serve-continuous-batching",
            "serve",
            params,
            ("serial", serial),
            ("served", served),
            repeats,
            lambda outputs, load: _arrays_equal(outputs, load.completed),
            metrics=lambda load: {
                "p50_latency": load.p50,
                "p99_latency": load.p99,
                "throughput_rps": load.throughput,
                "completed": len(load.completed),
                "failed": len(load.failed),
                "rejected": len(load.rejected),
            },
        ),
    ]


#: Record groups of each suite, with the keyword arguments that shrink a
#: group for ``quick`` runs.
_SUITES: dict[str, list[tuple[Callable[..., list[dict]], dict]]] = {
    "quantize": [
        (solver_bench_records, {}),
        (
            eval_bench_records,
            {
                "repeats": 1,
                "vocab": 512,
                "generate_tokens": 48,
                "packed_size": 128,
            },
        ),
        (format_bench_records, {"repeats": 1, "size": 64}),
        (
            calibration_bench_records,
            {"repeats": 1, "n_layers": 4, "n_segments": 2},
        ),
    ],
    "serve": [
        (serve_bench_records, {"repeats": 1, "n_requests": 6, "max_new": 6})
    ],
}

#: Suites a bench report may declare (one JSON artifact per suite).
BENCH_SUITES = tuple(_SUITES)


def build_report(
    suite: str = "quantize",
    repeats: int = 3,
    quick: bool = False,
    timestamp: str | None = None,
) -> dict:
    """Run every record group of ``suite`` into one bench report.

    The full run backs the committed ``BENCH_<suite>.json`` that
    ``tools/bench_compare.py`` gates against.  ``quick`` runs each group
    with its shrunk arguments from the suite table (smaller problems, one
    timing repeat), for tier-1 smoke use.
    """
    records: list[dict] = []
    for records_fn, quick_kwargs in _SUITES[suite]:
        records.extend(
            records_fn(**{"repeats": repeats, **(quick_kwargs if quick else {})})
        )
    report = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "suite": suite,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "records": records,
    }
    if timestamp is not None:
        report["timestamp"] = timestamp
    return report


def format_record(record: dict) -> str:
    """One summary line: timings, speedup, and the equivalence verdict."""
    timings = ", ".join(
        f"{label}={seconds:.4f}s"
        for label, seconds in sorted(record["timings"].items())
    )
    equivalence = record.get("equivalence")
    if equivalence is None:
        verdict = f"bit_identical={record['bit_identical']}"
    else:
        measured = ", ".join(
            f"{key}={value:.3g} (bound {equivalence['bounds'][key]:g})"
            for key, value in sorted(equivalence["metrics"].items())
        )
        verdict = f"within_bounds={equivalence['within_bounds']}  [{measured}]"
    return (
        f"{record['name']}: {timings}  "
        f"speedup={record['speedup']:.2f}x  {verdict}"
    )


def _validate_numbers(where: str, mapping: object) -> list[str]:
    """Problems of a field that must be a non-empty dict of finite
    non-negative numbers."""
    if not isinstance(mapping, dict) or not mapping:
        return [f"{where} must be a non-empty object"]
    if any(
        not isinstance(v, (int, float))
        or isinstance(v, bool)
        or not np.isfinite(v)
        or v < 0
        for v in mapping.values()
    ):
        return [f"{where} values must be finite non-negative numbers"]
    return []


def _validate_equivalence(where: str, equivalence: object) -> list[str]:
    """Check one record's error-bounded ``equivalence`` block."""
    if not isinstance(equivalence, dict):
        return [f"{where}.equivalence must be an object"]
    problems: list[str] = []
    if equivalence.get("kind") != "error-bounded":
        problems.append(f"{where}.equivalence.kind must be 'error-bounded'")
    metrics = equivalence.get("metrics")
    bounds = equivalence.get("bounds")
    number_problems = _validate_numbers(
        f"{where}.equivalence.metrics", metrics
    ) + _validate_numbers(f"{where}.equivalence.bounds", bounds)
    problems.extend(number_problems)
    if not number_problems:
        if set(metrics) != set(bounds):
            problems.append(
                f"{where}.equivalence metrics and bounds must share keys"
            )
        else:
            exceeded = sorted(k for k in bounds if metrics[k] > bounds[k])
            if exceeded:
                problems.append(
                    f"{where}.equivalence metrics exceed declared bounds: "
                    + ", ".join(exceeded)
                )
    if equivalence.get("within_bounds") is not True:
        problems.append(f"{where}.equivalence.within_bounds must be true")
    return problems


def validate_bench_report(report: dict, suite: str | None = None) -> list[str]:
    """Schema check; returns a list of problems (empty when valid).

    ``suite`` pins the expected suite name; ``None`` accepts any name in
    :data:`BENCH_SUITES`.
    """
    problems: list[str] = []
    if not isinstance(report, dict):
        return ["report must be a JSON object"]
    if report.get("schema_version") != BENCH_SCHEMA_VERSION:
        problems.append(
            f"schema_version must be {BENCH_SCHEMA_VERSION}, "
            f"got {report.get('schema_version')!r}"
        )
    allowed = BENCH_SUITES if suite is None else (suite,)
    if report.get("suite") not in allowed:
        problems.append(
            f"suite must be one of {allowed}, got {report.get('suite')!r}"
        )
    records = report.get("records")
    if not isinstance(records, list) or not records:
        return problems + ["records must be a non-empty list"]
    for index, record in enumerate(records):
        where = f"records[{index}]"
        if not isinstance(record, dict):
            problems.append(f"{where} must be an object")
            continue
        for key in _RECORD_KEYS:
            if key not in record:
                problems.append(f"{where} misses key {key!r}")
        timings = record.get("timings", {})
        if not isinstance(timings, dict) or not timings:
            problems.append(f"{where}.timings must be a non-empty object")
        elif any(
            not isinstance(v, (int, float)) or v <= 0 for v in timings.values()
        ):
            problems.append(f"{where}.timings values must be positive numbers")
        speedup = record.get("speedup")
        if not isinstance(speedup, (int, float)) or speedup <= 0:
            problems.append(f"{where}.speedup must be a positive number")
        equivalence = record.get("equivalence")
        if equivalence is not None:
            problems.extend(_validate_equivalence(where, equivalence))
        if record.get("bit_identical") is not True and equivalence is None:
            problems.append(
                f"{where}.bit_identical must be true (only records with a "
                "valid error-bounded equivalence block may opt out)"
            )
        if record.get("metrics") is not None:
            problems.extend(
                _validate_numbers(f"{where}.metrics", record["metrics"])
            )
    return problems


def write_bench_report(path: str | Path, report: dict) -> Path:
    """Validate and write a report as pretty-printed JSON; returns the path."""
    problems = validate_bench_report(report)
    if problems:
        raise ValueError("invalid bench report: " + "; ".join(problems))
    path = Path(path)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def _git_commit(cwd: str | Path | None = None) -> str:
    """Short hash of HEAD, or ``"unknown"`` outside a git checkout."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
            cwd=cwd,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return completed.stdout.strip() or "unknown"


def append_bench_history(
    path: str | Path, report: dict, commit: str | None = None
) -> dict:
    """Append one per-commit line to the JSONL bench history at ``path``.

    The line keeps only what a trend needs — commit (short hash, resolved
    from git when not supplied), timestamp, and each record's speedup and
    bit-identity — not the full timing payloads.  Returns the entry.
    """
    entry = {
        "commit": commit if commit is not None else _git_commit(Path(path).parent),
        "timestamp": report.get("timestamp"),
        "records": [
            {
                "name": record.get("name"),
                "speedup": record.get("speedup"),
                "bit_identical": record.get("bit_identical"),
            }
            for record in report.get("records", [])
        ],
    }
    path = Path(path)
    with path.open("a") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def load_bench_history(path: str | Path) -> list[dict]:
    """Parse a JSONL bench history, oldest first; corrupt lines are skipped
    (a torn append must not take the whole trend down)."""
    path = Path(path)
    if not path.exists():
        return []
    entries: list[dict] = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except ValueError:
            continue
        if isinstance(entry, dict):
            entries.append(entry)
    return entries


def render_bench_trend(history: list[dict]) -> str:
    """Markdown speedup-trend table over a bench history, oldest first.

    One row per history entry, one column per benchmark name (in first
    appearance order); a record that lost bit-identity is marked with
    ``!``, and benches absent from an entry show ``—``.
    """
    names: list[str] = []
    for entry in history:
        for record in entry.get("records", []):
            name = record.get("name")
            if name and name not in names:
                names.append(name)
    lines = [
        "# Bench speedup trend",
        "",
        "Per-commit speedups appended by `tools/bench.py --append` "
        "(`!` marks a record that lost bit-identity).",
        "",
    ]
    if not names:
        lines.append("(no history recorded yet)")
        return "\n".join(lines) + "\n"
    header = ["commit", "timestamp"] + names
    lines.append("| " + " | ".join(header) + " |")
    lines.append("| " + " | ".join("---" for _ in header) + " |")
    for entry in history:
        by_name = {
            record.get("name"): record for record in entry.get("records", [])
        }
        cells = [str(entry.get("commit", "?")), str(entry.get("timestamp", "?"))]
        for name in names:
            record = by_name.get(name)
            speedup = record.get("speedup") if record else None
            if not isinstance(speedup, (int, float)):
                cells.append("—")
                continue
            flag = "" if record.get("bit_identical") else " !"
            cells.append(f"{speedup:.2f}x{flag}")
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"
