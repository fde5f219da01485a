"""Fault-tolerant quantized inference serving.

Continuous batching over the paged KV cache
(:class:`~repro.nn.attention.PagedKVCache`: sequences of any length join
and leave a running batch), driven by a
:class:`~repro.serve.scheduler.ContinuousBatchScheduler` that enforces
per-request deadlines, bounded admission with explicit backpressure,
graceful degradation under overload, and deterministic replay of
in-flight requests after worker crashes detected by the
:class:`~repro.serve.supervisor.WorkerSupervisor`.  See
``docs/SERVING.md`` for the design and the chaos-test contract.
"""

from repro.serve.engine import ForkedEngineWorker, InProcessWorker
from repro.serve.loadgen import LoadResult, build_workload, run_open_loop
from repro.serve.scheduler import ContinuousBatchScheduler, ServeConfig
from repro.serve.session import (
    GenerationRequest,
    ManualClock,
    RequestHandle,
    WallClock,
)
from repro.serve.supervisor import WorkerSupervisor

__all__ = [
    "ContinuousBatchScheduler",
    "ServeConfig",
    "GenerationRequest",
    "RequestHandle",
    "ManualClock",
    "WallClock",
    "InProcessWorker",
    "ForkedEngineWorker",
    "WorkerSupervisor",
    "LoadResult",
    "build_workload",
    "run_open_loop",
]
