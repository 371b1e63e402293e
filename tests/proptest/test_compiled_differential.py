"""Differential fuzz: compiled plans agree with the oracle interpreter.

The plan-compilation layer promises bit-for-bit observational equivalence
with the ``"oracle"`` columnar interpreter on every profile: same
targets, same observation-point sizes, same tapped statistics, same
reject rows.  The hand-written suite pins that on 30 workflows; this file
extends it to seeded random workflows (operator mixes the suite never
produces), to dirty extracts (quarantine victims and schema-drift
resolutions must be identical), and to the optimizer itself (the chosen
plans cannot depend on whether the executor compiled).

Seeds derive from ``REPRO_PROPERTY_SEED`` (default 0), so the CI sample
is fixed and failures replay locally with the same environment variable.
"""

import os

import pytest

from repro.algebra.blocks import analyze
from repro.core.costs import CostModel
from repro.core.generator import generate_css
from repro.core.greedy import solve_greedy
from repro.core.selection import build_problem
from repro.engine.backend import BackendExecutor, get_backend
from repro.engine.faults import FaultPlan, FaultSpec
from repro.quality import ContractSet, QualityGate
from repro.workloads import case
from repro.workloads.randomgen import random_workflow

pytestmark = pytest.mark.property

BASE_SEED = int(os.environ.get("REPRO_PROPERTY_SEED", "0"))
SEEDS = [BASE_SEED * 1000 + i for i in range(8)]
BACKENDS = ("columnar", "streaming")


@pytest.fixture(scope="module")
def reference():
    """Per-seed (analysis, selection, tables, oracle run), cached."""
    cache = {}

    def get(seed):
        if seed not in cache:
            workflow, tables = random_workflow(seed)
            analysis = analyze(workflow)
            catalog = generate_css(analysis)
            selection = solve_greedy(
                build_problem(catalog, CostModel(workflow.catalog))
            )
            oracle = get_backend("oracle")
            run = BackendExecutor(analysis, oracle).run(
                tables, taps=oracle.make_taps(selection.observed)
            )
            cache[seed] = (analysis, selection, tables, run)
        return cache[seed]

    return get


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_compiled_matches_interpreter_on_random_workflow(
    seed, backend_name, reference
):
    analysis, selection, tables, ref = reference(seed)
    backend = get_backend(backend_name)
    run = BackendExecutor(analysis, backend).run(
        tables, taps=backend.make_taps(selection.observed)
    )

    # identical targets under a canonical (sorted) attribute + row order
    assert set(run.targets) == set(ref.targets)
    for name, table in ref.targets.items():
        other = run.targets[name]
        attrs = sorted(table.attrs)
        assert sorted(other.attrs) == attrs, (seed, name)
        assert sorted(other.rows(attrs)) == sorted(table.rows(attrs)), (
            seed,
            name,
        )

    # identical observation-point sizes (the statistics the optimizer eats)
    assert run.se_sizes == ref.se_sizes, seed

    # identical tapped statistics -- the fused kernels feed the same
    # rows the interpreter feeds table-at-once
    for stat in selection.observed:
        assert run.observations.maybe(stat) == ref.observations.get(stat), (
            seed,
            stat,
        )

    # identical reject-link victims, row for row
    assert set(run.rejects) == set(ref.rejects), seed
    for rej, table in ref.rejects.items():
        other = run.rejects[rej]
        attrs = sorted(table.attrs)
        assert sorted(other.attrs) == attrs, (seed, rej)
        assert sorted(other.rows(attrs)) == sorted(table.rows(attrs)), (
            seed,
            rej,
        )


# ---------------------------------------------------------------------------
# dirty extracts: quarantine victims must not depend on compilation
# ---------------------------------------------------------------------------
DIRTY = FaultPlan(
    (
        FaultSpec(target="Trade", kind="corrupt-row", fraction=0.02),
        FaultSpec(target="DimAccount", kind="null-burst", rows=3),
        FaultSpec(target="DimSecurity", kind="type-flip", fraction=0.01),
        FaultSpec(
            target="DimDate", kind="column-rename",
            column="month_id", rename_to="month",
        ),
    ),
    seed=1337,
)


def _quality_fingerprint(run):
    return {
        "quarantined": {
            name: list(table.rows())
            for name, table in run.quarantined.items()
        },
        "violations": [
            (v.source, v.row, v.column, v.code) for v in run.violations
        ],
        "drift": [
            (e.source, e.kind, e.column, e.resolution)
            for e in run.schema_drift
        ],
        "targets": {
            name: sorted(table.rows(sorted(table.attrs)), key=repr)
            for name, table in run.targets.items()
        },
        "se_sizes": {repr(se): size for se, size in run.se_sizes.items()},
    }


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_quarantine_victims_identical_compiled_vs_interpreted(backend_name):
    wfcase = case(25)
    analysis = analyze(wfcase.build())
    fingerprints = {}
    for name in ("oracle", backend_name):
        sources = wfcase.tables(scale=0.05, seed=7)
        gate = QualityGate(contracts=ContractSet.infer(sources))
        run = BackendExecutor(analysis, get_backend(name)).run(
            sources, faults=DIRTY.injector(), quality=gate
        )
        fingerprints[name] = _quality_fingerprint(run)
    assert fingerprints[backend_name]["quarantined"]  # the injection bit
    assert fingerprints[backend_name]["drift"]
    assert fingerprints[backend_name] == fingerprints["oracle"], backend_name


# ---------------------------------------------------------------------------
# the optimizer: chosen plans must not depend on compilation
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS[:4])
def test_chosen_plans_identical_compiled_vs_interpreted(seed):
    from repro.framework.pipeline import StatisticsPipeline

    workflow, tables = random_workflow(seed)
    chosen = {}
    for backend in ("oracle", "columnar"):
        pipeline = StatisticsPipeline(workflow, solver="greedy", backend=backend)
        report = pipeline.run_once(tables)
        chosen[backend] = {
            name: repr(tree) for name, tree in report.chosen_trees.items()
        }
    assert chosen["columnar"] == chosen["oracle"], seed
