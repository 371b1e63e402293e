"""Outside-in span recording for the traced benchmark run.

The recorder wraps public callables of the program *as bound where they
are called* (a module attribute for functions, the class attribute for
methods), so the program itself carries no benchmark code.  Spans stay in
memory while the run lasts and are written out once at the end.

A span is ``(name, start, end, parent, op, rows)``: ``parent`` is the
index of the enclosing span (``-1`` for the operation root), ``op`` the
id of the benchmark operation that caused it, and ``rows`` the row count
a tap call was handed (``None`` elsewhere).
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass
from typing import Callable, Iterable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    rows: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _tap_rows(args, kwargs) -> int:
    """Rows a tap call observes: ``observe(se, table)``,
    ``observe_columns(se, num_rows, columns)`` or ``observe_row(se, row)``."""
    value = args[2] if len(args) > 2 else kwargs.get("table", kwargs.get("num_rows"))
    if isinstance(value, int):
        return value
    num_rows = getattr(value, "num_rows", None)
    return num_rows if isinstance(num_rows, int) else 1


def targets(bench_module) -> list[tuple[object, str, str, Callable | None]]:
    """``(owner, attribute, span name, row counter)`` for every wrapped callable.

    ``bench_module`` is the benchmark's own workload module: the identify
    workload calls ``analyze`` .. ``solve_ilp`` through its bindings, the
    way ``repro-etl identify`` does through the CLI's.
    """
    import repro.catalog.drift as drift
    import repro.engine.compile as compile_pkg
    import repro.framework.pipeline as pipeline
    from repro.catalog.store import StatisticsCatalog
    from repro.core.histogram import Histogram
    from repro.engine.backend import BackendExecutor
    from repro.engine.instrumentation import TapSet
    from repro.engine.streaming import StreamingTaps
    from repro.estimation.estimator import CardinalityEstimator
    from repro.estimation.optimizer import PlanOptimizer
    from repro.framework.pipeline import StatisticsPipeline

    found = []
    for module in (bench_module, pipeline):
        for attr, name in (
            ("analyze", "algebra.analyze"),
            ("with_plans", "algebra.with_plans"),
            ("generate_css", "core.generate_css"),
            ("build_problem", "core.build_problem"),
            ("solve_ilp", "core.solve_ilp"),
            ("solve_greedy", "core.solve_greedy"),
        ):
            if hasattr(module, attr):
                found.append((module, attr, name, None))
    found += [
        (Histogram, "from_rows", "core.histogram_build", None),
        (BackendExecutor, "run", "engine.execute", None),
        (compile_pkg, "compile_blocks", "engine.lower", None),
        (TapSet, "observe", "engine.tap", _tap_rows),
        (TapSet, "observe_columns", "engine.tap", _tap_rows),
        (StreamingTaps, "observe_columns", "engine.tap", _tap_rows),
        (StreamingTaps, "observe_row", "engine.tap", _tap_rows),
        (CardinalityEstimator, "__init__", "estimation.estimate", None),
        (PlanOptimizer, "optimize", "estimation.optimize", None),
        (PlanOptimizer, "optimize_or_fallback", "estimation.optimize", None),
        (StatisticsCatalog, "lookup", "catalog.lookup", None),
        (drift, "reconcile_run", "catalog.reconcile", None),
        (StatisticsPipeline, "run_once", "framework.run_once", None),
    ]
    return found


class Recorder:
    """Collects spans for the operations run while it is installed."""

    def __init__(self, targets, clock: Callable[[], float] = time.perf_counter):
        self.targets = list(targets)
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.op = 0

    # -- patching ------------------------------------------------------------
    def install(self) -> None:
        if self._saved:
            return
        for owner, attr, name, rows in self.targets:
            raw = vars(owner)[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, rows, shift=1))
            else:
                wrapped = self._wrap(raw, name, rows)
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _wrap(self, fn, name: str, rows, shift: int = 0):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack
            index = len(recorder.spans)
            parent = stack[-1] if stack else -1
            recorder.spans.append(None)  # placeholder keeps parents ordered
            stack.append(index)
            start = recorder.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = recorder.clock()
                stack.pop()
                counted = rows(args[shift:], kwargs) if rows is not None else None
                recorder.spans[index] = Span(
                    name, start, end, parent, recorder.op, counted
                )

        return traced

    # -- operations ----------------------------------------------------------
    def begin(self, op: int) -> None:
        """Attribute the spans that follow to benchmark operation ``op``."""
        self.op = op

    # -- analysis ------------------------------------------------------------
    def inclusive(self, names: Iterable[str], op: int | None = None) -> float:
        """Seconds inside ``names``, not counting a span nested in another."""
        names = set(names)
        spans = self.spans
        total = 0.0
        for span in spans:
            if span.name not in names or (op is not None and span.op != op):
                continue
            parent = span.parent
            while parent >= 0 and spans[parent].name not in names:
                parent = spans[parent].parent
            if parent < 0:
                total += span.duration
        return total

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its direct children cover."""
        covered: list[list[tuple[float, float]]] = [[] for _ in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent].append((span.start, span.end))
        result = []
        for span, children in zip(self.spans, covered):
            busy = 0.0
            edge = float("-inf")
            for start, end in sorted(children):
                start = max(start, edge)
                if end > start:
                    busy += end - start
                    edge = end
            result.append(span.duration - busy)
        return result

    def self_time(self, name: str) -> float:
        return sum(
            own
            for span, own in zip(self.spans, self.self_times())
            if span.name == name
        )

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span.name == name)

    def rows(self, name: str) -> int:
        return sum(span.rows or 0 for span in self.spans if span.name == name)

    def write(self, path) -> None:
        """Dump every span with its self time as JSON lines."""
        own = self.self_times()
        with open(path, "w") as out:
            for span, self_s in zip(self.spans, own):
                doc = {
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "op": span.op,
                    "self_s": self_s,
                }
                if span.rows is not None:
                    doc["rows"] = span.rows
                out.write(json.dumps(doc) + "\n")
