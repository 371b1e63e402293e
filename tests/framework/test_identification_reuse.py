"""The pipeline re-identifies only when the executed trees change.

SEs, CSSs and their catalog are a function of the executed trees alone
(Section 3.2.5, Step 7), so ``run_once`` keeps the last trees' analysis and
CSS catalog and reuses them while the trees repeat.  These tests pin when
``generate_css`` runs, and that a reused identification reports exactly
what a from-scratch one does.
"""

import pytest

import repro.framework.pipeline as pipeline_module
from repro.algebra.operators import WorkflowError
from repro.framework.pipeline import StatisticsPipeline
from repro.framework.session import EtlSession
from repro.workloads import case

WF = case(21)


@pytest.fixture(scope="module")
def sources():
    return WF.tables(scale=1.0, seed=0)


@pytest.fixture
def generate_calls(monkeypatch):
    calls = []
    real = pipeline_module.generate_css

    def spy(analysis, options):
        calls.append(analysis)
        return real(analysis, options)

    monkeypatch.setattr(pipeline_module, "generate_css", spy)
    return calls


def _pipeline():
    return StatisticsPipeline(WF.build(), solver="greedy")


def _adopted_trees(sources):
    return _pipeline().run_once(sources).chosen_trees


def test_adopted_plan_is_identified_once(sources, generate_calls):
    session = EtlSession(_pipeline())
    generate_calls.clear()  # the initial plan, identified at construction
    records = [session.run(sources) for _ in range(4)]
    # night 0 runs the initial plan; night 1 runs the adopted plan, which
    # nights 2-3 repeat
    assert records[2].executed_trees == records[1].executed_trees
    assert records[3].executed_trees == records[1].executed_trees
    assert len(generate_calls) == 1
    assert records[1].report.analysis is generate_calls[0]
    # the reused catalog is shared read-only across the nights' reports
    assert records[2].report.catalog is records[1].report.catalog
    assert records[3].report.catalog is records[1].report.catalog
    assert records[0].report.catalog is session.pipeline.catalog


def test_different_trees_rederive_the_catalog(sources, generate_calls):
    adopted = _adopted_trees(sources)
    pipeline = _pipeline()
    generate_calls.clear()
    initial = {block.name: block.initial_tree for block in pipeline.analysis.blocks}
    assert adopted != initial

    pipeline.run_once(sources)
    assert generate_calls == []  # the initial plan's identification
    pipeline.run_once(sources, trees=adopted)
    assert len(generate_calls) == 1
    pipeline.run_once(sources, trees=dict(adopted))
    assert len(generate_calls) == 1
    report = pipeline.run_once(sources, trees=initial)
    assert len(generate_calls) == 2
    assert report.catalog.counts() == pipeline.catalog.counts()


def test_unknown_block_still_raises(sources):
    pipeline = _pipeline()
    adopted = _adopted_trees(sources)
    pipeline.run_once(sources, trees=adopted)  # a warm slot
    tree = next(iter(adopted.values()))
    with pytest.raises(WorkflowError):
        pipeline.run_once(sources, trees={**adopted, "no_such_block": tree})


def test_warm_and_fresh_pipelines_agree(sources):
    adopted = _adopted_trees(sources)
    warm = _pipeline()
    warm.run_once(sources, trees=adopted)
    fresh = _pipeline()
    # same cost-model inputs: tonight's costs use the previous run's sizes
    fresh._se_sizes = dict(warm._se_sizes)

    hit = warm.run_once(sources, trees=adopted)
    miss = fresh.run_once(sources, trees=adopted)

    assert hit.catalog is not miss.catalog
    assert hit.selection.observed == miss.selection.observed
    assert hit.catalog.counts() == miss.catalog.counts()
    assert dict(hit.run.observations.items()) == dict(
        miss.run.observations.items()
    )
    assert hit.chosen_trees == miss.chosen_trees
