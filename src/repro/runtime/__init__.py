"""Fault-tolerant quantization runtime.

Makes every long quantization run survivable and auditable: a numerical
recovery ladder around the second-order solver (:mod:`~repro.runtime.recovery`),
atomic checksum-verified checkpoints with resume (:mod:`~repro.runtime.checkpoint`),
a structured run journal (:mod:`~repro.runtime.journal`), a typed error
hierarchy (:mod:`~repro.runtime.errors`), and a deterministic fault-injection
harness (:mod:`~repro.runtime.faults`) that the tier-1 fault-matrix suite
drives.  See ``docs/ROBUSTNESS.md`` for the full design.
"""

from repro.runtime.checkpoint import (
    atomic_save_npz,
    atomic_write_bytes,
    checksum_path,
    load_checkpoint,
    save_checkpoint,
    sha256_of_file,
    verify_checksum,
    write_checksum,
)
from repro.runtime.errors import (
    AdmissionError,
    CacheExhausted,
    CalibrationError,
    CheckpointError,
    DeadlineExceeded,
    InjectedFault,
    NumericalRecoveryError,
    ReproRuntimeError,
    RequestCancelled,
    RequestShed,
    ServeError,
    WorkerCrashed,
    WorkerFailure,
    WorkerStalled,
)
from repro.runtime.faults import (
    FaultInjector,
    active_injector,
    fault_value,
    flip_bit,
    maybe_fault,
    transform_batch,
    truncate_file,
)
from repro.runtime.journal import DegradationEvent, RunHealth, RunJournal
from repro.runtime.parallel import ForkedWorker, run_parallel_map
from repro.runtime.recovery import (
    LADDER_RUNGS,
    RecoveryPolicy,
    SolverTask,
    clip_hessian_eigenvalues,
    hessian_inverse,
    robust_quantize_layer,
    run_solver_tasks,
)

__all__ = [
    "ReproRuntimeError",
    "CheckpointError",
    "CalibrationError",
    "NumericalRecoveryError",
    "InjectedFault",
    "ServeError",
    "AdmissionError",
    "RequestShed",
    "DeadlineExceeded",
    "RequestCancelled",
    "CacheExhausted",
    "WorkerCrashed",
    "WorkerStalled",
    "WorkerFailure",
    "ForkedWorker",
    "DegradationEvent",
    "RunJournal",
    "RunHealth",
    "LADDER_RUNGS",
    "RecoveryPolicy",
    "clip_hessian_eigenvalues",
    "robust_quantize_layer",
    "hessian_inverse",
    "SolverTask",
    "run_solver_tasks",
    "run_parallel_map",
    "atomic_write_bytes",
    "atomic_save_npz",
    "sha256_of_file",
    "checksum_path",
    "write_checksum",
    "verify_checksum",
    "save_checkpoint",
    "load_checkpoint",
    "FaultInjector",
    "active_injector",
    "maybe_fault",
    "fault_value",
    "transform_batch",
    "truncate_file",
    "flip_bit",
]
