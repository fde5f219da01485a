"""In-memory span tracer for the end-to-end benchmark.

:class:`Tracer` records spans (name, start, end, parent) in memory and
exports them as Chrome trace-event JSON, which Perfetto and
``chrome://tracing`` open directly.  :func:`instrument` wraps the
program's public call sites in place — module attributes and class
methods — so that no file of the program changes; leaving the tracer's
``with`` block (normally or by an exception) restores every patched
attribute.

A layer's self time is its spans' duration minus the time covered by
their child spans.  :func:`layer_metrics` folds self times and call
counts into the per-layer metrics that ``BENCHMARK.json`` declares.
Spans recorded inside forked worker processes stay in those processes;
the parent's span around the fan-out covers their time.

A disabled tracer records nothing, so the untraced run times the same
code with one flag test per benchmark-side span.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import functools
import inspect
import json
import time
from pathlib import Path
from typing import Callable, Optional

__all__ = [
    "Span",
    "Tracer",
    "instrument",
    "layer_metrics",
    "span_cost",
    "SPAN_METRICS",
]


@dataclasses.dataclass
class Span:
    """One timed call: ``parent`` indexes :attr:`Tracer.spans`, -1 at a root."""

    name: str
    start: float
    end: float
    parent: int


class Tracer:
    """Records nested spans and counters; patches call sites reversibly."""

    def __init__(
        self,
        enabled: bool = True,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: collections.Counter = collections.Counter()
        self.samples: dict[str, list[float]] = collections.defaultdict(list)
        #: Start of each served request's first prefill, by request id.
        self.first_prefill: dict[str, float] = {}
        self.enabled = enabled
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span (no-op when disabled)."""
        if not self.enabled:
            yield None
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, self.clock(), 0.0, parent)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = self.clock()
            self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` (no-op when disabled)."""
        if self.enabled:
            self.counts[name] += value

    def sample(self, name: str, value: float) -> None:
        """Append one observation to series ``name``."""
        self.samples[name].append(float(value))

    # -- patching ------------------------------------------------------------
    def patch(self, owner: object, attr: str, replacement: object) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`restore`.

        ``attr`` must be defined on ``owner`` itself (a module global or a
        class's own attribute), so restoring puts back the exact object.
        """
        namespace = vars(owner)
        if attr not in namespace:
            raise AttributeError(f"{owner!r} does not define {attr!r} itself")
        self._patches.append((owner, attr, namespace[attr]))
        setattr(owner, attr, replacement)

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        on_call: Optional[Callable[..., None]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper that records span ``name``.

        ``on_call(tracer, span, args, kwargs, result)`` runs after each
        traced call, outside the span, to update counters.  Coroutine
        functions get a coroutine wrapper, so an ``async`` method stays
        awaitable.
        """
        original = vars(owner)[attr]
        tracer = self

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                with tracer.span(name) as span:
                    result = await original(*args, **kwargs)
                if on_call is not None:
                    on_call(tracer, span, args, kwargs, result)
                return result

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                with tracer.span(name) as span:
                    result = original(*args, **kwargs)
                if on_call is not None:
                    on_call(tracer, span, args, kwargs, result)
                return result

        self.patch(owner, attr, wrapper)

    def restore(self) -> None:
        """Put back every patched attribute, most recent first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    # -- analysis ------------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Seconds per span name, excluding time covered by child spans.

        Children nest inside their parent and run one after another, so
        the covered time is the sum of the children's durations.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        totals: dict[str, float] = collections.defaultdict(float)
        for index, span in enumerate(self.spans):
            totals[span.name] += span.end - span.start - child_time[index]
        return dict(totals)

    def chrome_trace(self) -> dict:
        """The spans as Chrome trace-event JSON (complete ``X`` events)."""
        origin = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": span.name,
                "cat": span.name.rsplit(".", 1)[0],
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": (span.end - span.start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": index, "parent": span.parent},
            }
            for index, span in enumerate(self.spans)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str | Path) -> Path:
        """Write :meth:`chrome_trace` to ``path``; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.chrome_trace()))
        return path


def span_cost(calls: int = 20000) -> float:
    """Seconds tracing adds to one wrapped call, measured on a no-op."""

    class Probe:
        @staticmethod
        def noop() -> None:
            pass

    def seconds() -> float:
        start = time.perf_counter()
        for _ in range(calls):
            Probe.noop()
        return time.perf_counter() - start

    bare = seconds()
    with Tracer() as tracer:
        tracer.wrap(Probe, "noop", "probe")
        traced = seconds()
    return max(traced - bare, 0.0) / calls


# ---------------------------------------------------------------------------
# Instrumentation of the program's public call sites
# ---------------------------------------------------------------------------


def _count_captures(tracer: Tracer, span, args, kwargs, result) -> None:
    tracer.count("core.hessian.accumulate_calls")
    captures = args[1] if len(args) > 1 else kwargs["captures"]
    tracer.count(
        "core.hessian.accumulate_tokens",
        sum(c.x.shape[0] * c.x.shape[1] for c in captures),
    )


def _count_solver_stage(tracer: Tracer, span, args, kwargs, result) -> None:
    tracer.count("runtime.parallel.solve_stages")
    tracer.count("runtime.parallel.tasks", len(result))
    # The stage ran in this process iff a solver span nests inside it; a
    # forked pool leaves no child spans here.
    for later in reversed(tracer.spans):
        if later is span:
            return
        if later.name == "quant.solver.quantize":
            tracer.count("runtime.parallel.serial_stages")
            return


def _count_prefill(tracer: Tracer, span, args, kwargs, result) -> None:
    tracer.count("serve.engine.prefill_calls")
    tracer.count("serve.engine.prefill_tokens", len(args[2]))
    # Replays after a preemption re-prefill; the queue wait ends at the first.
    tracer.first_prefill.setdefault(args[1], span.start)


def _count_decode(tracer: Tracer, span, args, kwargs, result) -> None:
    tracer.count("serve.engine.decode_calls")
    tracer.count("serve.engine.decode_rows", len(args[1]))


def _sample_scheduler(tracer: Tracer, span, args, kwargs, result) -> None:
    scheduler = args[0]
    tracer.count("serve.scheduler.steps")
    tracer.sample("serve.scheduler.queue_depth", scheduler.queue_depth)
    stats = scheduler.supervisor.stats()
    tracer.sample("serve.paged_cache.used_blocks", stats["used_blocks"])


def _counter(name: str):
    def on_call(tracer: Tracer, span, args, kwargs, result) -> None:
        tracer.count(name)

    return on_call


def instrument(tracer: Tracer) -> list:
    """Wrap the program's layer boundaries; returns the factor-cache list.

    Every patch is undone by ``tracer.restore()`` (or leaving the tracer's
    ``with`` block).  The returned list collects each
    ``HessianFactorCache`` the APTQ pipeline creates, so their hit and
    miss counters can be read after the run.
    """
    import repro.core.aptq as aptq
    import repro.core.hessian as hessian
    import repro.core.sensitivity as sensitivity
    import repro.quant.solver as solver
    from repro.serve.engine import InProcessWorker
    from repro.serve.scheduler import ContinuousBatchScheduler

    for module in (aptq, sensitivity):
        tracer.wrap(
            module,
            "attention_hessians_from_captures",
            "core.hessian.accumulate",
            _count_captures,
        )
        tracer.wrap(
            module,
            "kron_attention_hessians_from_captures",
            "core.kron.accumulate",
            _count_captures,
        )
        tracer.wrap(
            module,
            "collect_input_stats",
            "quant.calibration_hooks.collect",
            _counter("quant.calibration_hooks.collect_calls"),
        )
    tracer.wrap(
        aptq, "run_solver_tasks", "runtime.parallel.solve", _count_solver_stage
    )
    tracer.wrap(sensitivity, "run_parallel_map", "runtime.parallel.map")
    tracer.wrap(aptq, "compute_sensitivities", "core.sensitivity")
    tracer.wrap(
        hessian.CalibrationCaptureStream,
        "block_captures",
        "core.hessian.capture",
        _counter("core.hessian.capture_calls"),
    )
    # The recovery ladder imports the solver entry point at call time, so
    # patching the module attribute reaches every solve.
    tracer.wrap(
        solver,
        "quantize_with_hessian",
        "quant.solver.quantize",
        _counter("quant.solver.quantize_calls"),
    )
    tracer.wrap(
        InProcessWorker, "prefill", "serve.engine.prefill", _count_prefill
    )
    tracer.wrap(InProcessWorker, "decode", "serve.engine.decode", _count_decode)
    tracer.wrap(
        ContinuousBatchScheduler,
        "step",
        "serve.scheduler.step",
        _sample_scheduler,
    )

    caches: list = []
    base = aptq.HessianFactorCache

    class CountingFactorCache(base):
        """``HessianFactorCache`` that registers itself for hit counting."""

        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            caches.append(self)

    tracer.patch(aptq, "HessianFactorCache", CountingFactorCache)
    return caches


#: Span name → per-layer self-time metric.  Several spans may feed one
#: metric: both attention-Hessian engines feed ``core.hessian.accumulate_s``
#: and both fan-outs feed ``runtime.parallel.self_s``; the trace file keeps
#: them apart.
SPAN_METRICS = {
    "bench.setup": "bench.setup.self_s",
    "bench.pipeline": "bench.pipeline.self_s",
    "bench.serve": "loadgen.self_s",
    "models.zoo.load": "models.zoo.load_s",
    "data.corpus": "data.corpus_s",
    "data.calibration": "data.calibration_s",
    "core.aptq": "core.aptq.self_s",
    "core.sensitivity": "core.sensitivity.self_s",
    "core.hessian.capture": "core.hessian.capture_s",
    "core.hessian.accumulate": "core.hessian.accumulate_s",
    "core.kron.accumulate": "core.hessian.accumulate_s",
    "quant.calibration_hooks.collect": "quant.calibration_hooks.collect_s",
    "quant.solver.quantize": "quant.solver.quantize_s",
    "runtime.parallel.solve": "runtime.parallel.self_s",
    "runtime.parallel.map": "runtime.parallel.self_s",
    "quant.deploy.pack": "quant.deploy.pack_s",
    "quant.deploy.save": "quant.deploy.save_s",
    "quant.deploy.load": "quant.deploy.load_s",
    "quant.deploy.to_model": "quant.deploy.to_model_s",
    "eval.perplexity": "eval.perplexity_s",
    "serve.scheduler.step": "serve.scheduler.step_self_s",
    "serve.engine.prefill": "serve.engine.prefill_s",
    "serve.engine.decode": "serve.engine.decode_s",
}

#: Counters reported as they are.
COUNT_METRICS = (
    "core.hessian.capture_calls",
    "core.hessian.accumulate_calls",
    "core.hessian.accumulate_tokens",
    "quant.calibration_hooks.collect_calls",
    "quant.solver.quantize_calls",
    "runtime.parallel.tasks",
    "eval.perplexity_tokens",
    "serve.engine.prefill_calls",
    "serve.engine.prefill_tokens",
    "serve.engine.decode_calls",
    "serve.engine.decode_rows",
    "serve.scheduler.steps",
)


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tracer: Tracer, caches: list, extra: dict) -> dict:
    """Per-layer metric values from a traced run.

    ``extra`` carries the values the benchmark measures itself (recovery
    counts, artifact drift, queue waits, generator lag, overhead).
    """
    values: dict[str, float] = {name: 0.0 for name in SPAN_METRICS.values()}
    for name, seconds in tracer.self_times().items():
        values[SPAN_METRICS[name]] += seconds
    for name in COUNT_METRICS:
        values[name] = float(tracer.counts.get(name, 0))
    hits = sum(cache.hits for cache in caches)
    misses = sum(cache.misses for cache in caches)
    values["quant.solver.factor_cache_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0
    )
    stages = tracer.counts.get("runtime.parallel.solve_stages", 0)
    values["runtime.parallel.serial_stage_ratio"] = (
        tracer.counts.get("runtime.parallel.serial_stages", 0) / stages
        if stages
        else 0.0
    )
    values["serve.scheduler.queue_depth_mean"] = _mean(
        tracer.samples.get("serve.scheduler.queue_depth", [])
    )
    used = tracer.samples.get("serve.paged_cache.used_blocks", [])
    values["serve.paged_cache.used_blocks_mean"] = _mean(used)
    values["serve.paged_cache.used_blocks_max"] = max(used, default=0.0)
    values.update(extra)
    return values
