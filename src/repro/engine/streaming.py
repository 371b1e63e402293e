"""The streaming backend: chunked execution with additive per-point taps.

Section 3.2.5: *"Many commercial ETL engines provide a mechanism to plug in
user defined handlers at any point in the flow.  These handlers are invoked
for every tuple that passes through that point."*  The columnar backend
observes materialized tables once per plan point; this backend executes
the same compiled plans over bounded row chunks and feeds every chunk to
:class:`StreamingTaps`, whose accumulators add up batch by batch:

- counters add the rows each chunk carries;
- histogram buckets and distinct accumulators absorb values as they pass;
- only hash-join build sides, blocking boundaries and materialized outputs
  hold whole tables.

Given the same plan and sources it produces the same targets, SE sizes and
observed statistics as every other backend (the cross-backend
equivalence suite checks it against the ``"oracle"`` interpreter).
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from repro.algebra.expressions import AnySE, RejectSE
from repro.core.histogram import Histogram
from repro.core.statistics import StatKind, Statistic, StatisticsStore
from repro.engine.backend import ExecutionBackend, RunContext
from repro.engine.instrumentation import (
    InstrumentationError,
    make_distinct_accumulator,
)

__all__ = [
    "StreamingBackend",
    "StreamingTaps",
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


class StreamingBackend(ExecutionBackend):
    """Compiled block execution over row chunks with additive taps."""

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

        # bounded batches over row chunks
        return CompiledProfile(chunk_rows=2048, gather="auto")
