"""Tracing tests: patch hygiene, observation only, self-time accounting.

Run from the repository root with
``PYTHONPATH=src python -m pytest benchmarks/e2e/tests``.  A random-init
``llama-test`` model stands in for the zoo checkpoint, so nothing trains.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.core import aptq, hessian, sensitivity  # noqa: E402
from repro.models.configs import model_config  # noqa: E402
from repro.nn.transformer import LlamaModel  # noqa: E402
from repro.quant import solver  # noqa: E402
from repro.serve.engine import InProcessWorker  # noqa: E402
from repro.serve.scheduler import ContinuousBatchScheduler  # noqa: E402

PATCHED_NAMESPACES = (
    aptq,
    sensitivity,
    solver,
    hessian.CalibrationCaptureStream,
    InProcessWorker,
    ContinuousBatchScheduler,
)


def tiny_model() -> LlamaModel:
    return LlamaModel(model_config("llama-test"), seed=0)


def snapshot() -> list[dict]:
    return [dict(vars(namespace)) for namespace in PATCHED_NAMESPACES]


def test_instrument_restores_every_attribute_even_on_exception():
    before = snapshot()
    with pytest.raises(RuntimeError, match="boom"):
        with tracing.Tracer() as tracer:
            tracing.instrument(tracer)
            changed = [
                name
                for old, namespace in zip(before, PATCHED_NAMESPACES)
                for name, value in vars(namespace).items()
                if old.get(name) is not value
            ]
            assert len(changed) >= 12
            raise RuntimeError("boom")
    after = snapshot()
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        for name in old:
            assert old[name] is new[name], name


def test_wrapped_call_that_raises_closes_its_span():
    class Namespace:
        @staticmethod
        def fail():
            raise ValueError("inside")

    tracer = tracing.Tracer()
    with tracer:
        tracer.wrap(Namespace, "fail", "layer.fail")
        with pytest.raises(ValueError, match="inside"):
            Namespace.fail()
        with tracer.span("after"):
            pass
    assert [s.name for s in tracer.spans] == ["layer.fail", "after"]
    assert all(s.parent == -1 and s.end >= s.start for s in tracer.spans)
    assert isinstance(vars(Namespace)["fail"], staticmethod)


@pytest.mark.parametrize("name", ["quant-probed", "quant-kron-w2"])
def test_traced_run_computes_the_same_artifact(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    sizes = workloads.Sizes.for_run(workload, smoke=True)

    def artifact(trace: bool):
        with tracing.Tracer(enabled=trace) as tracer:
            if trace:
                tracing.instrument(tracer)
            inputs = workloads.setup(workload, sizes, 0, tiny_model, tracer)
            built = workloads.build_artifact(
                workload, inputs, tmp_path / f"{trace}.npz", tracer
            )
        return built, tracer

    plain, _ = artifact(trace=False)
    traced, tracer = artifact(trace=True)
    assert traced.perplexity == plain.perplexity
    assert traced.loaded.average_bits() == plain.loaded.average_bits()
    assert traced.bytes == plain.bytes
    assert tracer.counts["quant.solver.quantize_calls"] > 0


def test_layer_self_times_sum_to_traced_wall_time(tmp_path):
    record = workloads.run_workload(
        workloads.WORKLOADS["serve-decode"],
        seed=0,
        trace=True,
        smoke=True,
        out_dir=tmp_path,
        load_model=tiny_model,
    )
    assert record["correct"]
    metrics = {name: m["value"] for name, m in record["metrics"].items()}
    self_time = sum(metrics[name] for name in set(tracing.SPAN_METRICS.values()))
    wall = metrics["trace.wall_s"]
    assert abs(self_time - wall) <= 0.05 * wall
    assert (tmp_path / "trace-serve-decode-seed0.json").is_file()


def test_chrome_trace_nests_children_inside_parents():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    assert tracer.self_times() == {"outer": 3.0, "inner": 2.0}
    events = tracer.chrome_trace()["traceEvents"]
    outer, first, second = events
    assert outer["ph"] == first["ph"] == "X"
    assert first["args"]["parent"] == outer["args"]["id"] == 0
    assert outer["ts"] <= first["ts"] < second["ts"]
    assert second["ts"] + second["dur"] <= outer["ts"] + outer["dur"]
