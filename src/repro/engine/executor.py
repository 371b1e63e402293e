"""Columnar workflow execution: runs blocks (optionally re-ordered) over tables.

The executor is the "run instrumented plan" step of the framework
(Section 3.2.6).  It executes each optimizable block with either its
initial join tree or a caller-supplied re-ordering, applies boundary
operators between blocks, produces the target record-sets, and fires the
:class:`~repro.engine.instrumentation.TapSet` at every plan point.

Every point's row count is recorded in ``se_sizes`` regardless of taps --
this is the passive monitoring signal (the LEO-style baseline) and the
previous-run SE sizes the CPU cost metric needs (Section 5.4).

The plan-walking core (scheduling blocks and boundaries over the analysis
DAG) lives in :class:`~repro.engine.backend.BackendExecutor`.
:class:`ColumnarBackend` runs every block compiled as whole-column
batches; its :meth:`~ColumnarBackend.execute_block` is the engine's one
interpreter, a materialized block walk over the reference kernels of
:mod:`repro.engine.physical`.  :class:`OracleBackend` (``"oracle"``)
always takes that interpreter, which makes it the differential-test
oracle for every compiled profile.
"""

from __future__ import annotations

from repro.algebra.blocks import Block
from repro.algebra.expressions import RejectSE, SubExpression
from repro.algebra.plans import Leaf, PlanTree, leaves as _tree_leaves
from repro.core.statistics import StatisticsStore
from repro.engine import physical
from repro.engine.backend import (
    BackendExecutor,
    ExecutionBackend,
    RunContext,
    WorkflowRun,
)
from repro.engine.instrumentation import TapSet
from repro.engine.table import Table, TableError

__all__ = [
    "ColumnarBackend",
    "Executor",
    "OracleBackend",
    "WorkflowRun",
    "execute_workflow",
]


class ColumnarBackend(ExecutionBackend):
    """Materialized column-at-a-time execution with table-level taps."""

    name = "columnar"

    def make_taps(self, stats=()):
        return TapSet(stats)

    def collect(self, taps: TapSet) -> StatisticsStore:
        return taps.store

    def compiled_profile(self):
        from repro.engine.compile import CompiledProfile

        # whole-column batches on the best available gather rung; the
        # pure-Python rung remains for hosts without numpy
        return CompiledProfile(chunk_rows=None, gather="auto")

    # ------------------------------------------------------------------
    def execute_block(self, block: Block, tree: PlanTree, ctx: RunContext) -> Table:
        if {leaf.name for leaf in _tree_leaves(tree)} != set(block.inputs):
            raise TableError(
                f"plan tree for {block.name} does not cover its inputs"
            )
        run, taps = ctx.run, ctx.taps
        inputs: dict[str, Table] = {}
        for name, inp in sorted(block.inputs.items()):
            table = run.env[inp.base_name]
            stage_names = inp.stage_names()
            ctx.note(SubExpression.of(stage_names[0]), table)
            for step, stage in zip(inp.steps, stage_names[1:]):
                table = physical.apply_step(table, step)
                ctx.note(SubExpression.of(stage), table)
            inputs[name] = table

        wanted_rejects = taps.reject_requests() | set(block.materialized_rejects)
        applied_floating: set[int] = set()

        def exec_tree(node: PlanTree) -> Table:
            if isinstance(node, Leaf):
                return inputs[node.name]
            left = exec_tree(node.left)
            right = exec_tree(node.right)
            key = tuple(node.key)
            rej_key = key[0] if len(key) == 1 else key
            rej_left = RejectSE(node.left.se, rej_key, node.right.se)
            rej_right = RejectSE(node.right.se, rej_key, node.left.se)
            want_l = rej_left in wanted_rejects
            want_r = rej_right in wanted_rejects
            result, reject_l, reject_r = physical.hash_join(
                left, right, key, want_l, want_r
            )
            if want_l:
                ctx.note_reject(rej_left, reject_l)
            if want_r:
                ctx.note_reject(rej_right, reject_r)
            result = self._apply_floating(
                block, node.se, result, applied_floating, ctx
            )
            ctx.note(node.se, result)
            return result

        table = exec_tree(tree)
        for step, stage in zip(block.post_steps, block.post_stage_ses()):
            table = physical.apply_step(table, step)
            ctx.note(stage, table)
        return table

    def _apply_floating(
        self,
        block: Block,
        se: SubExpression,
        table: Table,
        applied: set[int],
        ctx: RunContext,
    ) -> Table:
        for idx, op in enumerate(block.floating):
            if idx in applied or not (op.anchor <= se.relations):
                continue
            table = physical.apply_step(table, op.step)
            applied.add(idx)
        return table


class OracleBackend(ColumnarBackend):
    """The columnar interpreter, never compiled: the differential oracle."""

    name = "oracle"

    def compiled_profile(self):
        return None


class Executor(BackendExecutor):
    """Executes an analyzed workflow over source tables (columnar)."""

    def __init__(self, analysis, workers: int = 1):
        super().__init__(analysis, ColumnarBackend(), workers=workers)


def execute_workflow(
    analysis,
    sources: dict[str, Table],
    trees: dict[str, PlanTree] | None = None,
    taps: TapSet | None = None,
) -> WorkflowRun:
    """Convenience wrapper over :class:`Executor`."""
    return Executor(analysis).run(sources, trees=trees, taps=taps)
