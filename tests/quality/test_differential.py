"""Backend-differential quality enforcement.

The quality gate screens sources at the single :class:`BackendExecutor`
choke point, so enforcement must be backend-invariant *by construction*:
the same dirty extract yields the same quarantine decisions, the same
surviving rows, and the same target outputs on every execution backend.
"""

import pytest

from repro.engine.backend import BackendExecutor, get_backend
from repro.engine.faults import FaultPlan, FaultSpec
from repro.quality import ContractSet, QualityGate
from repro.workloads import case

WORKFLOW = 25
#: the oracle interpreter first: every engine must match its fingerprint
BACKENDS = ("oracle", "columnar", "streaming")

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


def _run(backend_name):
    from repro.algebra.blocks import analyze

    wfcase = case(WORKFLOW)
    sources = wfcase.tables(scale=0.05, seed=7)
    gate = QualityGate(contracts=ContractSet.infer(sources))
    run = BackendExecutor(analyze(wfcase.build()), get_backend(backend_name)).run(
        sources, faults=DIRTY.injector(), quality=gate
    )
    return run


def _fingerprint(run):
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
        # rows as a multiset under a sorted attribute order: only the
        # content is the contract, not row or column order
        "targets": {
            name: sorted(table.rows(sorted(table.attrs)), key=repr)
            for name, table in run.targets.items()
        },
        "se_sizes": {repr(se): size for se, size in run.se_sizes.items()},
    }


class TestDifferentialQuarantine:
    def test_all_backends_agree_on_dirty_data(self):
        runs = {name: _run(name) for name in BACKENDS}
        reference = _fingerprint(runs[BACKENDS[0]])
        assert reference["quarantined"]  # the injection actually bit
        assert reference["drift"]
        for name in BACKENDS[1:]:
            assert _fingerprint(runs[name]) == reference, name

    def test_quarantine_is_actually_enforced(self):
        run = _run("columnar")
        assert run.rows_quarantined > 0
        assert len(run.violations) >= run.rows_quarantined
