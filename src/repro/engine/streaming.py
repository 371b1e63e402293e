"""A streaming (per-tuple) backend: the paper's instrumentation model.

Section 3.2.5: *"Many commercial ETL engines provide a mechanism to plug in
user defined handlers at any point in the flow.  These handlers are invoked
for every tuple that passes through that point."*  The columnar
:class:`~repro.engine.executor.Executor` observes materialized tables; this
module executes the same plans as generator pipelines where **each row**
flows through the operators one at a time and statistics are updated
per tuple:

- counters increment row by row;
- histogram buckets increment as values stream past;
- only hash-join build sides, blocking boundaries and materialized outputs
  buffer rows.

All backends are interchangeable: given the same plan and sources they
produce identical targets, SE sizes and observed statistics (the
cross-backend equivalence suite asserts it).  The streaming one exists
because it exercises the *actual* code path an ETL engine would use --
per-tuple observation with bounded instrumentation state.  It plugs into
the shared plan-walking core as :class:`StreamingBackend`.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Iterable, Iterator

from repro.algebra.blocks import Block, Step
from repro.algebra.expressions import AnySE, RejectSE, SubExpression
from repro.algebra.plans import JoinNode, Leaf, PlanTree
from repro.core.histogram import Histogram
from repro.core.statistics import StatKind, Statistic, StatisticsStore
from repro.engine.backend import (
    BackendExecutor,
    ExecutionBackend,
    RunContext,
    WorkflowRun,
)
from repro.engine.instrumentation import (
    InstrumentationError,
    make_distinct_accumulator,
)
from repro.engine.table import Table, TableError

__all__ = [
    "StreamExecutor",
    "StreamingBackend",
    "StreamingTaps",
    "WorkflowRun",
]

Row = dict


class StreamingTaps:
    """Per-tuple statistic accumulators, grouped by observation point."""

    #: accumulators increment; compiled plans may feed the same point in
    #: several column batches and counts/buckets simply add up
    additive = True

    def __init__(self, stats: Iterable[Statistic] = ()):
        self._by_se: dict[AnySE, list[Statistic]] = {}
        self._counters: dict[Statistic, int] = {}
        self._hists: dict[Statistic, Counter] = {}
        #: stat -> accumulator (exact set or HLL sketch, per the factory)
        self._distinct: dict[Statistic, object] = {}
        self._streamed: set[AnySE] = set()
        for stat in stats:
            self.request(stat)

    def request(self, stat: Statistic) -> None:
        from repro.algebra.expressions import RejectJoinSE

        if isinstance(stat.se, RejectJoinSE):
            raise InstrumentationError(
                f"{stat!r} is never observable in a streaming plan"
            )
        self._by_se.setdefault(stat.se, []).append(stat)
        if stat.kind is StatKind.CARDINALITY:
            self._counters[stat] = 0
        elif stat.kind is StatKind.HISTOGRAM:
            self._hists[stat] = Counter()
        else:
            self._distinct[stat] = make_distinct_accumulator()

    # ------------------------------------------------------------------
    def wants(self, se: AnySE) -> bool:
        return se in self._by_se

    def reject_requests(self) -> set[RejectSE]:
        return {se for se in self._by_se if isinstance(se, RejectSE)}

    def mark_streamed(self, se: AnySE) -> None:
        """Record that this observation point's stream actually ran.

        Accumulators start at zero, so :meth:`collect` must distinguish
        "streamed and saw nothing" from "the producing block never ran"
        (a failed block's requested statistics have to read as *missing*,
        not as zeros, or a degraded run would silently optimize from
        wrong cardinalities instead of falling back).
        """
        self._streamed.add(se)

    def observe_row(self, se: AnySE, row: Row) -> None:
        """The per-tuple handler: O(#stats at this point) per row."""
        for stat in self._by_se.get(se, ()):
            if stat.kind is StatKind.CARDINALITY:
                self._counters[stat] += 1
            else:
                try:
                    value = tuple(row[a] for a in stat.attrs)
                except KeyError as exc:
                    raise InstrumentationError(
                        f"cannot observe {stat!r}: attribute {exc} is not "
                        f"live at {se!r}"
                    ) from exc
                if stat.kind is StatKind.HISTOGRAM:
                    self._hists[stat][value] += 1
                else:
                    self._distinct[stat].add(value)

    def value_attrs(self, se: AnySE) -> tuple[str, ...]:
        """Attributes whose values (not just counts) are tapped at ``se``."""
        attrs: set[str] = set()
        for stat in self._by_se.get(se, ()):
            if stat.kind is not StatKind.CARDINALITY:
                attrs.update(stat.attrs)
        return tuple(sorted(attrs))

    def observe_columns(
        self,
        se: AnySE,
        num_rows: int,
        columns: dict[str, list] | None = None,
    ) -> None:
        """Column-batch handler: one call per batch, accumulators add up.

        Equivalent to :meth:`observe_row` over each of the batch's rows;
        compiled plans use it to keep per-tuple semantics (partial counts
        on failure, accumulation across chunks) at whole-column speed.
        """
        columns = columns or {}
        for stat in self._by_se.get(se, ()):
            if stat.kind is StatKind.CARDINALITY:
                self._counters[stat] += num_rows
                continue
            missing = [a for a in stat.attrs if a not in columns]
            if missing:
                raise InstrumentationError(
                    f"cannot observe {stat!r}: attribute {missing[0]!r} is "
                    f"not live at {se!r}"
                )
            rows = zip(*(columns[a] for a in stat.attrs))
            if stat.kind is StatKind.HISTOGRAM:
                # Counter.update counts an iterable in C; like the per-row
                # += it keeps the first-seen key of equal values
                self._hists[stat].update(rows)
            else:
                self._distinct[stat].update(rows)

    def collect(self) -> StatisticsStore:
        store = StatisticsStore()
        for stat, count in self._counters.items():
            if stat.se in self._streamed:
                store.put(stat, count)
        for stat, buckets in self._hists.items():
            if stat.se in self._streamed:
                store.put(stat, Histogram.wrap(stat.attrs, dict(buckets)))
        for stat, values in self._distinct.items():
            if stat.se in self._streamed:
                store.put(stat, values.result())
        return store

    def merge(self, other: "StreamingTaps") -> None:
        """Fold another tap set's accumulators into this one.

        The operands must have streamed **disjoint row shards** of the
        same logical points; counters and histogram buckets add, distinct
        values merge through the :class:`DistinctAccumulator` combiner,
        and a point counts as streamed if either side streamed it.
        """
        for se, bucket in other._by_se.items():
            mine = self._by_se.setdefault(se, [])
            for stat in bucket:
                if stat not in mine:
                    mine.append(stat)
        for stat, count in other._counters.items():
            self._counters[stat] = self._counters.get(stat, 0) + count
        for stat, buckets in other._hists.items():
            self._hists.setdefault(stat, Counter()).update(buckets)
        for stat, acc in other._distinct.items():
            mine_acc = self._distinct.get(stat)
            if mine_acc is None:
                # a factory-fresh accumulator + merge (never a copy of the
                # other side's internals): the factory decides exact vs
                # sketch, and merge() rejects mixed implementations
                mine_acc = self._distinct[stat] = make_distinct_accumulator()
            mine_acc.merge(acc)
        self._streamed |= other._streamed

    def distinct_bytes(self) -> int:
        """Bytes of distinct-accumulator state held by these taps."""
        return sum(acc.size_bytes() for acc in self._distinct.values())

    @property
    def requested(self) -> list[Statistic]:
        return [s for bucket in self._by_se.values() for s in bucket]


def _table_rows(table: Table) -> Iterator[Row]:
    attrs = table.attrs
    for values in table.rows():
        yield dict(zip(attrs, values))


def _rows_table(rows: list[Row], attrs: tuple[str, ...]) -> Table:
    if not rows:
        return Table.empty(attrs)
    return Table.wrap({a: [r[a] for r in rows] for a in attrs})


class StreamingBackend(ExecutionBackend):
    """Pipelined block execution with per-tuple taps."""

    name = "streaming"

    def make_taps(self, stats=()):
        return StreamingTaps(stats)

    def collect(self, taps: StreamingTaps) -> StatisticsStore:
        return taps.collect()

    def observe_boundary(self, ctx: RunContext, se, table) -> None:
        # no tap here: the downstream block's raw-stage stream observes this
        # SE; tapping both points would double-count in streaming mode
        return None

    def compiled_profile(self):
        from repro.engine.compile import CompiledProfile

        # bounded batches over row chunks (the compiled counterpart of
        # per-tuple pipelining), canonical streaming column order
        return CompiledProfile(
            chunk_rows=2048, gather="auto", canonical_output=True
        )

    # ------------------------------------------------------------------
    def _claim_point(self, ctx: RunContext, se: AnySE) -> bool:
        """Claim a shared observation point exactly once per run.

        A shared feed (source or boundary output consumed by several
        blocks) must be observed exactly once -- streaming counters are
        cumulative, unlike the columnar executor's idempotent puts.
        """
        with ctx.lock:
            claimed = ctx.state.setdefault("claimed_points", set())
            if se in claimed:
                return False
            claimed.add(se)
            return True

    def execute_block(self, block: Block, tree: PlanTree, ctx: RunContext) -> Table:
        run, taps = ctx.run, ctx.taps
        wanted_rejects = taps.reject_requests() | set(block.materialized_rejects)
        counts: dict[AnySE, int] = defaultdict(int)

        # each floating op fires at the lowest tree node containing its
        # anchor (same placement as the columnar executor)
        ops_at: dict[AnySE, list] = defaultdict(list)
        placed: set[int] = set()

        def place_ops(node: PlanTree) -> None:
            if isinstance(node, JoinNode):
                place_ops(node.left)
                place_ops(node.right)
            for idx, op in enumerate(block.floating):
                if idx not in placed and op.anchor <= node.se.relations:
                    ops_at[node.se].append(op)
                    placed.add(idx)

        place_ops(tree)

        def tap_stream(se: AnySE, rows: Iterator[Row]) -> Iterator[Row]:
            counts[se] += 0  # register the point even if no row passes
            for row in rows:
                counts[se] += 1
                taps.observe_row(se, row)
                yield row
            # marked only on exhaustion: a block that dies mid-stream must
            # report the point as unobserved, not as a partial accumulation
            taps.mark_streamed(se)

        def input_stream(name: str) -> Iterator[Row]:
            inp = block.inputs[name]
            rows: Iterator[Row] = _table_rows(run.env[inp.base_name])
            stage_names = inp.stage_names()
            raw_se = SubExpression.of(stage_names[0])
            if self._claim_point(ctx, raw_se):
                rows = tap_stream(raw_se, rows)
            # else: size and stats already captured by the first consumer
            for step, stage in zip(inp.steps, stage_names[1:]):
                rows = _apply_step_stream(rows, step)
                rows = tap_stream(SubExpression.of(stage), rows)
            return rows

        def exec_tree(node: PlanTree) -> Iterator[Row]:
            if isinstance(node, Leaf):
                return input_stream(node.name)
            return join_stream(node)

        def join_stream(node: JoinNode) -> Iterator[Row]:
            key = tuple(node.key)
            rej_key = key[0] if len(key) == 1 else key
            rej_left = RejectSE(node.left.se, rej_key, node.right.se)
            rej_right = RejectSE(node.right.se, rej_key, node.left.se)
            want_left = rej_left in wanted_rejects
            want_right = rej_right in wanted_rejects

            # build the right side (materialized), stream the left
            build: dict[tuple, list[Row]] = defaultdict(list)
            build_rows: list[Row] = []
            for row in exec_tree(node.right):
                build[tuple(row[a] for a in key)].append(row)
                build_rows.append(row)
            matched_keys: set[tuple] = set()

            def generate() -> Iterator[Row]:
                reject_left_rows: list[Row] = []
                for row in exec_tree(node.left):
                    kv = tuple(row[a] for a in key)
                    matches = build.get(kv)
                    if not matches:
                        if want_left:
                            reject_left_rows.append(row)
                        continue
                    if want_right:
                        matched_keys.add(kv)
                    for other in matches:
                        merged = dict(other)
                        merged.update(row)
                        for op in ops_at.get(node.se, ()):
                            merged = _apply_step_row(merged, op.step)
                        yield merged
                # probe exhausted: emit reject links
                if want_left:
                    self._note_reject(
                        ctx, rej_left, reject_left_rows, block, node.left.se
                    )
                if want_right:
                    rejected = [
                        r
                        for r in build_rows
                        if tuple(r[a] for a in key) not in matched_keys
                    ]
                    self._note_reject(
                        ctx, rej_right, rejected, block, node.right.se
                    )

            return tap_stream(node.se, generate())

        # floating ops fire once their anchor is joined; handled per row
        final_rows = list(exec_tree(tree))

        out_attrs = block.se_attrs(tree.se)
        table = _rows_table(final_rows, tuple(out_attrs))

        post_sizes: dict[AnySE, int] = {}
        for step, stage in zip(block.post_steps, block.post_stage_ses()):
            rows = _apply_step_stream(_table_rows(table), step)
            collected = list(tap_stream(stage, rows))
            table = _rows_table(collected, tuple(step.out_attrs))
            post_sizes[stage] = table.num_rows
        with ctx.lock:
            run.se_sizes.update(post_sizes)
            run.se_sizes.update(counts)
        ctx.trace_sizes({**counts, **post_sizes})
        return table

    def _note_reject(
        self,
        ctx: RunContext,
        rej: RejectSE,
        rows: list[Row],
        block: Block,
        src_se,
    ) -> None:
        attrs = tuple(block.se_attrs(src_se))
        table = _rows_table(rows, attrs)
        with ctx.lock:
            ctx.run.rejects[rej] = table
            ctx.run.se_sizes[rej] = table.num_rows
        ctx.taps.mark_streamed(rej)  # the join completed; zero rejects is real
        for row in rows:
            ctx.taps.observe_row(rej, row)
        if ctx.tracer is not None and ctx.tracer.enabled:
            ctx.trace_point(rej, table.num_rows, reject=True)


class StreamExecutor(BackendExecutor):
    """Pipelined workflow execution with per-tuple taps."""

    def __init__(self, analysis, workers: int = 1):
        super().__init__(analysis, StreamingBackend(), workers=workers)


def _apply_step_row(row: Row, step: Step) -> Row | None:
    node = step.node
    if step.kind == "filter":
        return row if node.predicate.fn(row[step.attrs[0]]) else None
    if step.kind == "transform":
        out_attr = step.result_attr if step.result_attr else step.attrs[0]
        new = dict(row)
        if len(step.attrs) == 1:
            new[out_attr] = node.udf.fn(row[step.attrs[0]])
        else:
            new[out_attr] = node.udf.fn(tuple(row[a] for a in step.attrs))
        return new
    if step.kind == "project":
        return {a: row[a] for a in step.attrs}
    raise TableError(f"unknown step kind {step.kind!r}")


def _apply_step_stream(rows: Iterator[Row], step: Step) -> Iterator[Row]:
    for row in rows:
        out = _apply_step_row(row, step)
        if out is not None:
            yield out
