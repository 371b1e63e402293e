"""Execution engine: columnar tables, physical operators, instrumentation.

Execution is organized around pluggable backends (see
:mod:`repro.engine.backend`) that share one plan-walking core and one
compiled engine: the columnar and streaming backends are two profiles of
it (whole-column batches with table-level taps, row chunks with additive
taps), and the ``"oracle"`` backend runs the columnar interpreter that
differential tests check them against.  ``get_backend(name)`` resolves
one by name; :class:`BackendExecutor` runs it, optionally scheduling
independent blocks in parallel.
"""

from repro.engine.backend import (
    BackendExecutor,
    ExecutionBackend,
    RunContext,
    WorkflowRun,
    available_backends,
    get_backend,
    register_backend,
)
from repro.engine.executor import (
    ColumnarBackend,
    Executor,
    OracleBackend,
    execute_workflow,
)
from repro.engine.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    PermanentFault,
    TransientFault,
)
from repro.engine.ground_truth import ground_truth_cardinalities
from repro.engine.instrumentation import InstrumentationError, TapSet
from repro.engine.scheduler import (
    ParallelScheduler,
    RetryPolicy,
    RunFailure,
    ScheduleResult,
    SchedulerError,
    classify_error,
    topological_waves,
)
from repro.engine.streaming import StreamingBackend, StreamingTaps
from repro.engine.table import Table, TableError

__all__ = [
    "available_backends", "BackendExecutor", "classify_error",
    "ColumnarBackend", "execute_workflow", "ExecutionBackend", "Executor",
    "FaultInjector", "FaultPlan", "FaultSpec", "get_backend",
    "ground_truth_cardinalities", "InstrumentationError", "OracleBackend",
    "ParallelScheduler", "PermanentFault", "register_backend", "RetryPolicy",
    "RunContext", "RunFailure", "ScheduleResult", "SchedulerError",
    "StreamingBackend", "StreamingTaps", "Table", "TableError", "TapSet",
    "topological_waves", "TransientFault", "WorkflowRun",
]
