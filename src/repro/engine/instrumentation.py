"""Plan instrumentation: taps that observe statistics during a run.

Section 3.2.5: *"Many commercial ETL engines provide a mechanism to plug in
user defined handlers at any point in the flow ... invoked for every tuple
that passes through that point."*  Our equivalent is the :class:`TapSet`:
it is handed the set of statistics the selection step chose, groups them by
observation point (an SE of the plan, or a reject link), and the executor
calls :meth:`TapSet.observe` whenever a tuple stream materializes at such a
point.

- cardinality  -> a counter (one integer);
- histogram    -> an exact frequency histogram on the tapped attributes,
  counted whole-column by :meth:`Histogram.from_rows` (one C pass);
- distinct     -> a distinct-value counter.

Reject-link statistics are observable because the engine can always add an
instrumentation-only reject output to a join of the initial plan
(Section 4.1.2); :meth:`TapSet.reject_requests` tells the executor which
ones to produce.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable

from repro.algebra.expressions import AnySE, RejectJoinSE, RejectSE
from repro.core.histogram import Histogram
from repro.core.statistics import StatKind, Statistic, StatisticsStore
from repro.engine.table import Table


class InstrumentationError(ValueError):
    """Raised when asked to observe something no plan point can provide."""


class DistinctAccumulator:
    """Exact mergeable distinct-value state for one statistic.

    Counts and histogram buckets merge additively across disjoint row
    shards, but a distinct count does not: merging needs the underlying
    value sets (or a mergeable sketch of them).  This class is that seam.
    This is the exact implementation of the four-method accumulator
    interface -- ``add`` / ``update`` / ``merge`` / ``result`` -- whose
    sketch counterpart is :class:`~repro.estimation.sketches.HllSketch`;
    :func:`make_distinct_accumulator` picks between them from the active
    :class:`~repro.estimation.sketches.SketchSpec` without touching any
    tap or backend code.
    """

    __slots__ = ("values",)

    def __init__(self, values: Iterable[tuple] = ()):
        self.values: set[tuple] = set(values)

    def add(self, value: tuple) -> None:
        self.values.add(value)

    def update(self, values: Iterable[tuple]) -> None:
        self.values.update(values)

    def merge(self, other: "DistinctAccumulator") -> None:
        """Fold another shard's accumulator into this one (set union)."""
        if not isinstance(other, DistinctAccumulator):
            raise InstrumentationError(
                f"cannot merge a {type(other).__name__} into a "
                "DistinctAccumulator: mixed distinct-accumulator "
                "implementations would silently corrupt the count (was "
                "one tap set built under a different sketch_scope?)"
            )
        self.values |= other.values

    def result(self) -> int:
        """The distinct count over everything accumulated so far."""
        return len(self.values)

    def size_bytes(self) -> int:
        """Approximate in-memory footprint of the retained value set."""
        return sys.getsizeof(self.values) + sum(
            sys.getsizeof(value) for value in self.values
        )

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DistinctAccumulator):
            return NotImplemented
        return self.values == other.values


def make_distinct_accumulator(values: Iterable[tuple] = ()):
    """Factory for the distinct combiner every tap implementation uses.

    This is the single seam behind every backend's distinct taps:
    under the default spec it returns the exact
    :class:`DistinctAccumulator`; inside a ``mode="hll"``
    :func:`~repro.estimation.sketches.sketch_scope` it returns a
    mergeable :class:`~repro.estimation.sketches.HllSketch`, so shard
    merges become register-max instead of set union and shipped
    observation state drops from O(distinct values) to O(2^p).
    """
    from repro.estimation.sketches import active_sketch_spec, make_sketch

    spec = active_sketch_spec()
    if spec.mode == "hll":
        return make_sketch(spec, values)
    return DistinctAccumulator(values)


class TapSet:
    """Groups requested statistics by observation point and collects them."""

    #: whether :meth:`observe_columns` *accumulates* across calls for the
    #: same point (streaming taps) or *replaces* (table-level taps) --
    #: compiled plans batch their observations accordingly
    additive = False

    def __init__(
        self, stats: Iterable[Statistic] = (), *, mergeable: bool = False
    ):
        self._by_se: dict[AnySE, list[Statistic]] = {}
        self.store = StatisticsStore()
        #: mergeable tap sets retain distinct *value* accumulators (not
        #: just the counts) so disjoint row shards can be folded together
        #: with :meth:`merge`; plain tap sets skip that memory cost
        self.mergeable = mergeable
        #: stat -> accumulator (exact set or HLL sketch, per the factory)
        self._distinct_values: dict[Statistic, object] = {}
        #: stat -> bytes of the last transient accumulator a non-mergeable
        #: observe built (replace semantics, mirrors the stored count)
        self._sketch_bytes: dict[Statistic, int] = {}
        for stat in stats:
            self.request(stat)

    def request(self, stat: Statistic) -> None:
        if isinstance(stat.se, RejectJoinSE):
            raise InstrumentationError(
                f"{stat!r} is never observable: the reject side-join is not "
                "executed by any plan"
            )
        self._by_se.setdefault(stat.se, []).append(stat)

    # ------------------------------------------------------------------
    @property
    def requested(self) -> list[Statistic]:
        return [s for bucket in self._by_se.values() for s in bucket]

    def wants(self, se: AnySE) -> bool:
        return se in self._by_se

    def reject_requests(self) -> set[RejectSE]:
        """Reject links the executor must produce (even instrumentation-only)."""
        return {se for se in self._by_se if isinstance(se, RejectSE)}

    # ------------------------------------------------------------------
    def observe(self, se: AnySE, table: Table) -> None:
        """Collect every statistic requested at this point."""
        for stat in self._by_se.get(se, []):
            if stat.kind is StatKind.CARDINALITY:
                self.store.put(stat, table.num_rows)
            elif stat.kind is StatKind.HISTOGRAM:
                missing = [a for a in stat.attrs if not table.has_column(a)]
                if missing:
                    raise InstrumentationError(
                        f"cannot observe {stat!r}: attributes {missing} are "
                        f"not live at {se!r} (have {table.attrs})"
                    )
                self.store.put(stat, table.histogram(stat.attrs))
            elif self.mergeable:
                acc = self._distinct_values.setdefault(
                    stat, make_distinct_accumulator()
                )
                acc.update(table.rows(stat.attrs))
                self.store.put(stat, acc.result())
            else:
                # non-mergeable taps replace: a fresh factory accumulator
                # per call keeps replace semantics while still flowing
                # through the exact/sketch seam
                acc = make_distinct_accumulator(table.rows(stat.attrs))
                self._sketch_bytes[stat] = acc.size_bytes()
                self.store.put(stat, acc.result())

    def value_attrs(self, se: AnySE) -> tuple[str, ...]:
        """Attributes whose *values* (not just counts) are tapped at ``se``.

        Compiled plans use this to materialize only the columns a
        histogram/distinct tap actually reads, instead of whole tables.
        """
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
        """Column-batch counterpart of :meth:`observe`.

        ``columns`` needs to carry (at least) :meth:`value_attrs`; it may
        be ``None`` when only cardinalities are tapped at this point.
        Semantics are identical to observing the materialized table.
        """
        columns = columns or {}
        for stat in self._by_se.get(se, []):
            if stat.kind is StatKind.CARDINALITY:
                self.store.put(stat, num_rows)
                continue
            missing = [a for a in stat.attrs if a not in columns]
            if missing:
                raise InstrumentationError(
                    f"cannot observe {stat!r}: attributes {missing} are "
                    f"not live at {se!r} (have {tuple(columns)})"
                )
            if stat.kind is StatKind.HISTOGRAM:
                self.store.put(stat, Histogram.from_rows(stat.attrs, columns))
                continue
            rows = zip(*(columns[a] for a in stat.attrs))
            if self.mergeable:
                acc = self._distinct_values.setdefault(
                    stat, make_distinct_accumulator()
                )
                acc.update(rows)
                self.store.put(stat, acc.result())
            else:
                acc = make_distinct_accumulator(rows)
                self._sketch_bytes[stat] = acc.size_bytes()
                self.store.put(stat, acc.result())

    # ------------------------------------------------------------------
    # mergeable-observation protocol (sharded execution)
    # ------------------------------------------------------------------
    def merge(self, other: "TapSet") -> None:
        """Fold another tap set's observations into this one.

        Both operands must be :attr:`mergeable` and must have observed
        **disjoint row shards** of the same logical points; under that
        contract the merge is exact:

        - cardinalities add;
        - histogram buckets add (:meth:`Histogram.add`, Equation 1's
          union of disjoint row sets);
        - distinct values merge through the
          :class:`DistinctAccumulator` combiner (set union today, a
          sketch later).
        """
        if not (self.mergeable and other.mergeable):
            raise InstrumentationError(
                "merge() requires both tap sets to be constructed with "
                "mergeable=True (distinct counts cannot be merged without "
                "their value accumulators)"
            )
        for se, bucket in other._by_se.items():
            mine = self._by_se.setdefault(se, [])
            for stat in bucket:
                if stat not in mine:
                    mine.append(stat)
        for stat, value in other.store.items():
            if stat.kind is StatKind.CARDINALITY:
                self.store.put(stat, self.store.maybe(stat, 0) + value)
            elif stat.kind is StatKind.HISTOGRAM:
                base = self.store.maybe(stat)
                self.store.put(stat, value if base is None else base.add(value))
            else:
                acc = self._distinct_values.setdefault(
                    stat, make_distinct_accumulator()
                )
                theirs = other._distinct_values.get(stat)
                if theirs is None:
                    raise InstrumentationError(
                        f"cannot merge {stat!r}: the other tap set has no "
                        "distinct-value accumulator for it"
                    )
                acc.merge(theirs)
                self.store.put(stat, acc.result())

    def discard_points(self, ses: Iterable[AnySE]) -> None:
        """Drop every observation (and request) at the given points.

        Shard workers use this to strip the points they are not
        responsible for (broadcast-replicated inputs, reject links the
        parent re-observes from merged tables) before shipping their tap
        set back, so the parent-side merge stays purely additive.
        """
        drop = set(ses)
        if not drop:
            return
        kept = StatisticsStore()
        for stat, value in self.store.items():
            if stat.se not in drop:
                kept.put(stat, value)
        self.store = kept
        for se in drop:
            self._by_se.pop(se, None)
        self._distinct_values = {
            stat: acc
            for stat, acc in self._distinct_values.items()
            if stat.se not in drop
        }
        self._sketch_bytes = {
            stat: n
            for stat, n in self._sketch_bytes.items()
            if stat.se not in drop
        }

    def distinct_bytes(self) -> int:
        """Bytes of distinct-accumulator state behind this tap set.

        Mergeable tap sets report their retained accumulators (what a
        shard actually ships to the parent); plain tap sets report the
        footprint of the last transient accumulator per statistic.  The
        ``etl_sketch_bytes`` gauge and the sketch-ablation bench read
        this to compare exact sets against HLL registers.
        """
        total = sum(
            acc.size_bytes() for acc in self._distinct_values.values()
        )
        for stat, n in self._sketch_bytes.items():
            if stat not in self._distinct_values:
                total += n
        return total

    def missing(self) -> list[Statistic]:
        """Requested statistics that no observation reached (plan bug)."""
        return [s for s in self.requested if s not in self.store]
