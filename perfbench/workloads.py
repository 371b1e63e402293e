"""The benchmark's three workloads, driven through the program's public API.

Each workload builds its inputs from the seed in :meth:`setup`, then runs
*passes*: a pass is the workload's natural cycle (every suite workflow
once; one rotation over the nightly datasets; one round over the fleet).
An operation is one workflow identified or one night run.  ``run.py``
times :meth:`execute` alone; preparing an operation, checking its result
and probing it happen outside the timed region.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.algebra.blocks import analyze
from repro.catalog.store import StatisticsCatalog
from repro.core.costs import CostModel
from repro.core.generator import GeneratorOptions, generate_css
from repro.core.ilp import solve_ilp
from repro.core.selection import build_problem
from repro.core.statistics import StatKind
from repro.engine.backend import BackendExecutor
from repro.engine.compile import PlanCache
from repro.framework.pipeline import StatisticsPipeline
from repro.framework.session import EtlSession
from repro.workloads import case, suite

#: source scale of the nightly workloads (wf21 at 30 is ~154k source rows)
NIGHT_SCALE = 30


@dataclass
class Op:
    """One operation of a pass: ``key`` names it in the fingerprint."""

    key: str
    payload: object


class Identify:
    """All 30 suite workflows identified as ``repro-etl identify`` does."""

    executes = False

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.cases = suite()

    def setup(self) -> list:
        # the warm-up pass pays HiGHS's and the generator's first-call costs
        return [
            self.fingerprint(op, self.execute(self.prepare(op))) for op in self.ops()
        ]

    def ops(self) -> list[Op]:
        order = list(self.cases)
        self.rng.shuffle(order)
        return [Op(f"wf{c.number:02d}", c) for c in order]

    def prepare(self, op: Op):
        # a fresh workflow object per identification, as the CLI loads one
        return op.payload.build()

    def execute(self, workflow):
        analysis = analyze(workflow)
        catalog = generate_css(analysis, GeneratorOptions())
        problem = build_problem(catalog, CostModel(workflow.catalog))
        return catalog, solve_ilp(problem)

    def check(self, op: Op, result) -> list[str]:
        _, selection = result
        if not selection.is_valid:
            return [f"{op.key}: the chosen statistics do not cover every cardinality"]
        return []

    def fingerprint(self, op: Op, result) -> list:
        catalog, selection = result
        counts = catalog.counts()
        return [
            op.key,
            counts["statistics"],
            counts["css"],
            len(selection.observed_indexes),
            selection.total_cost,
        ]

    def work(self, op: Op, result) -> float:
        return float(result[0].counts()["statistics"])

    def cost(self, op: Op, result) -> float:
        return result[1].total_cost

    def counts(self, op: Op, result) -> dict[str, int]:
        catalog, selection = result
        counts = catalog.counts()
        return {
            "statistics": counts["statistics"],
            "css": counts["css"],
            "chosen": len(selection.observed_indexes),
        }


class Nights:
    """Nightly ``EtlSession`` runs: observe, re-optimize, adopt, repeat.

    ``plan`` lists ``(workflow number, dataset seeds)``; a pass runs every
    workflow once per dataset slot, round-robin, so with one workflow and
    three datasets the sources rotate and with three workflows and one
    dataset each the fleet sees the same sources every night.  ``warmup``
    is the number of nights set-up runs before measuring.
    """

    executes = True

    def __init__(self, plan, backend: str, shared_catalog: bool, warmup: int):
        self.plan = plan
        self.backend = backend
        self.shared_catalog = shared_catalog
        self.warmup = warmup

    def setup(self) -> list:
        catalog = StatisticsCatalog() if self.shared_catalog else None
        self.sessions = {}
        self.datasets = {}
        for number, seeds in self.plan:
            wfcase = case(number)
            pipeline = StatisticsPipeline(
                wfcase.build(), solver="greedy", backend=self.backend
            )
            self.sessions[number] = EtlSession(pipeline, stats_catalog=catalog)
            self.datasets[number] = [
                wfcase.tables(scale=NIGHT_SCALE, seed=s) for s in seeds
            ]
        self.probe_cache = PlanCache()
        # the first nights adopt a plan and lower it; time the steady state
        warm = []
        for op in (self.ops() * self.warmup)[: self.warmup]:
            session, sources = self.prepare(op)
            warm.append(self.fingerprint(op, session.run(sources)))
        return warm

    def ops(self) -> list[Op]:
        slots = max(len(seeds) for _, seeds in self.plan)
        return [
            Op(f"wf{number:02d}/d{slot}", (number, slot))
            for slot in range(slots)
            for number, seeds in self.plan
            if slot < len(seeds)
        ]

    def prepare(self, op: Op):
        number, slot = op.payload
        return self.sessions[number], self.datasets[number][slot]

    def execute(self, prepared):
        session, sources = prepared
        record = session.run(sources)
        # EtlSession.history keeps every night's full report, tables
        # included, so a long session grows and its collections slow down
        # night after night.  Measured nights keep none of it, which makes
        # the session stationary; the warm-up nights' retention stays in
        # peak_rss_mb.
        session.history.clear()
        return record

    def check(self, op: Op, record) -> list[str]:
        report = record.report
        if not report.ok:
            return [f"{op.key}: night degraded: {sorted(report.failures)}"]
        errors = []
        for se, size in report.run.se_sizes.items():
            estimate = report.estimator.cardinality(se)
            if estimate != size:
                errors.append(f"{op.key}: |{se!r}| estimated {estimate} but was {size}")
        return errors

    def fingerprint(self, op: Op, record) -> list:
        report = record.report
        buckets = sum(
            len(value.counts)
            for stat, value in report.run.observations.items()
            if stat.kind is StatKind.HISTOGRAM
        )
        return [
            op.key,
            len(report.tapped),
            buckets,
            report.catalog_hits,
            report.plan_cache_hits,
            report.plan_cache_misses,
        ]

    def work(self, op: Op, record) -> float:
        number, slot = op.payload
        return float(sum(t.num_rows for t in self.datasets[number][slot].values()))

    def cost(self, op: Op, record) -> float:
        return record.report.total_estimated_cost

    def counts(self, op: Op, record) -> dict[str, int]:
        report = record.report
        counts = report.catalog.counts()
        return {
            "statistics": counts["statistics"],
            "css": counts["css"],
            "chosen": len(report.selection.observed_indexes),
            "catalog_hits": report.catalog_hits,
            "selected": len(report.selection.observed),
            "plan_cache_hits": report.plan_cache_hits,
            "plan_cache_misses": report.plan_cache_misses,
        }

    def probe(self, op: Op, record, clock) -> tuple[float, float]:
        """Untapped execution of the night's trees and of the initial plan,
        on the night's sources: ``(adopted seconds, initial seconds)``."""
        session, sources = self.prepare(op)
        pipeline = session.pipeline
        timed = []
        for analysis, trees in (
            (record.report.analysis, record.executed_trees),
            (pipeline.analysis, None),
        ):
            executor = BackendExecutor(
                analysis, pipeline.backend, plan_cache=self.probe_cache
            )
            start = clock()
            executor.run(sources, trees)
            timed.append(clock() - start)
        return timed[0], timed[1]


def make(name: str, seed: int):
    """The workload called ``name``, with inputs drawn from ``seed``."""
    if name == "identify":
        return Identify(seed)
    if name == "nights-wf21":
        return Nights(
            [(21, [seed * 100 + k for k in range(3)])],
            backend="columnar",
            shared_catalog=False,
            # night one adopts the re-optimized plan, night two lowers it
            warmup=2,
        )
    if name == "nights-fleet":
        return Nights(
            [(n, [seed * 100 + n]) for n in (13, 25, 29)],
            backend="streaming",
            shared_catalog=True,
            # round one fills the catalog, round two lowers the adopted plans
            warmup=6,
        )
    raise KeyError(name)


WORKLOADS = ("identify", "nights-wf21", "nights-fleet")
