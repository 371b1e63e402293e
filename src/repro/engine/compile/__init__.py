"""Plan compilation: lowering, fusion, and caching of physical plans.

Every built-in single-process backend executes through this package (only
the ``"oracle"`` backend re-walks the logical DAG with the columnar
interpreter).  It compiles each optimizable block once -- lowering the
algebra to a physical-operator IR, fusing unary-operator chains into
whole-column kernels on a numba -> numpy -> pure-Python fallback ladder
-- and caches the result keyed by :class:`~repro.catalog.signatures.
WorkflowSigner` signatures, so warm runs skip compilation entirely.
Schema-drift events and contract changes invalidate affected entries.
"""

from __future__ import annotations

from repro.engine.compile.accel import accel_backend, make_engine
from repro.engine.compile.cache import PlanCache
from repro.engine.compile.ir import (
    BlockProgram,
    ChainIR,
    CompiledPlan,
    CompiledProfile,
    FusedStep,
    JoinIR,
)
from repro.engine.compile.lower import (
    CompileError,
    block_source_deps,
    compile_blocks,
    lower_block,
)
from repro.engine.compile.runtime import (
    CompiledBlockRunner,
    ObservationBuffer,
    execute_compiled_block,
)

__all__ = [
    "BlockProgram",
    "ChainIR",
    "CompileError",
    "CompiledBlockRunner",
    "CompiledPlan",
    "CompiledProfile",
    "FusedStep",
    "JoinIR",
    "ObservationBuffer",
    "PlanCache",
    "accel_backend",
    "block_source_deps",
    "compile_blocks",
    "execute_compiled_block",
    "lower_block",
    "make_engine",
]
