"""The physical-operator IR compiled plans execute.

Lowering (:mod:`repro.engine.compile.lower`) turns one optimizable block's
algebra -- stage chains, a join tree, floating operators, post-steps --
into a small tree of IR nodes whose operator payloads are *pre-resolved*:
predicate and UDF callables are looked up once at compile time, attribute
tuples are frozen, and every observation point the interpreter would
fire (``ctx.note`` per plan point) is recorded on the node that produces
it.  The runtime (:mod:`repro.engine.compile.runtime`) then walks this IR
over column batches with zero per-row plan interpretation.

The IR is deliberately tiny:

- :class:`FusedStep` -- one unary operator inside a fused segment
  (an anchored chain, a join's floating tail, or the block's post-steps);
- :class:`ChainIR` -- a block input's whole stage chain, fused;
- :class:`JoinIR` -- one hash join plus the floating operators the
  columnar interpreter would apply at that node;
- :class:`BlockProgram` -- one block's executable program plus the
  metadata the cache needs (transitive source dependencies);
- :class:`CompiledPlan` -- the per-run bundle of block programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from repro.algebra.expressions import RejectSE, SubExpression


@dataclass(frozen=True)
class FusedStep:
    """One unary operator inside a fused segment.

    ``se`` is the observation point *after* this step fires (a stage SE
    for chain/post steps), or ``None`` for floating operators, which the
    interpreter never observes individually.
    """

    kind: str  # "filter" | "transform" | "project"
    fn: Optional[Callable]
    attrs: tuple[str, ...]
    out_attr: Optional[str]  # transform output column
    se: Optional[SubExpression]


@dataclass(frozen=True)
class ChainIR:
    """A block input's anchored stage chain, fused into one segment."""

    input_name: str
    base_name: str
    raw_se: SubExpression
    steps: tuple[FusedStep, ...]


@dataclass(frozen=True)
class JoinIR:
    """One equi-join node plus its floating-operator tail."""

    left: "PlanIR"
    right: "PlanIR"
    key: tuple[str, ...]
    se: SubExpression
    rej_left: RejectSE
    rej_right: RejectSE
    floating: tuple[FusedStep, ...]


PlanIR = Union[ChainIR, JoinIR]


@dataclass(frozen=True)
class BlockProgram:
    """One optimizable block, lowered and ready to execute."""

    block_name: str
    output_name: str
    root: PlanIR
    root_se: SubExpression
    post: tuple[FusedStep, ...]
    #: every observation point the program fires, in execution order
    obs_ses: tuple[SubExpression, ...]
    #: raw feed SEs (claim-guarded under additive taps, like streaming)
    raw_ses: tuple[SubExpression, ...]
    #: transitive *raw source* names feeding this block -- the plan
    #: cache invalidates on schema drift against any of these
    sources: frozenset[str]
    #: operators fused into segments (chains + floating + post)
    fused_ops: int


@dataclass
class CompiledPlan:
    """Everything one run needs to execute every block compiled."""

    backend: str
    chunk_rows: Optional[int]
    programs: dict[str, BlockProgram] = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def fused_ops(self) -> int:
        return sum(p.fused_ops for p in self.programs.values())

    def get(self, block_name: str) -> Optional[BlockProgram]:
        return self.programs.get(block_name)


@dataclass(frozen=True)
class CompiledProfile:
    """How a backend wants its compiled plans executed.

    ``chunk_rows`` turns whole-column execution into batched execution
    over row chunks (the streaming backend's mode); ``gather`` picks the
    gather engine rung (``"auto"`` climbs the numba -> numpy -> Python
    ladder, ``"python"`` pins the reference rung).
    """

    chunk_rows: Optional[int] = None
    gather: str = "auto"  # "auto" | "python"


__all__ = [
    "BlockProgram",
    "ChainIR",
    "CompiledPlan",
    "CompiledProfile",
    "FusedStep",
    "JoinIR",
    "PlanIR",
]
