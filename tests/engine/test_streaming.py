"""Tests for the streaming backend (chunked compiled plans, additive taps)."""

import pytest

from repro.algebra.blocks import analyze
from repro.algebra.expressions import RejectJoinSE, RejectSE, SubExpression
from repro.core.costs import CostModel
from repro.core.generator import generate_css
from repro.core.greedy import solve_greedy
from repro.core.selection import build_problem
from repro.core.statistics import Statistic
from repro.engine.backend import BackendExecutor
from repro.engine.instrumentation import InstrumentationError, TapSet
from repro.engine.streaming import StreamingTaps
from repro.estimation.estimator import CardinalityEstimator
from repro.workloads import case

SE = SubExpression.of

#: the structural variety of the suite in a few members
SAMPLE = [1, 5, 9, 13, 17, 22, 23, 25, 28]


@pytest.mark.parametrize("number", SAMPLE)
def test_streaming_matches_columnar(number):
    """Targets, SE sizes and every observed statistic agree exactly with
    the oracle columnar interpreter."""
    wfcase = case(number)
    workflow = wfcase.build()
    analysis = analyze(workflow)
    catalog = generate_css(analysis)
    selection = solve_greedy(build_problem(catalog, CostModel(workflow.catalog)))
    tables = wfcase.tables(scale=0.12, seed=7)

    columnar = BackendExecutor(analysis, "oracle").run(
        tables, taps=TapSet(selection.observed)
    )
    streaming = BackendExecutor(analysis, "streaming").run(
        tables, taps=StreamingTaps(selection.observed)
    )

    assert set(columnar.targets) == set(streaming.targets)
    for name, table in columnar.targets.items():
        attrs = sorted(table.attrs)
        assert sorted(table.rows(attrs)) == sorted(
            streaming.targets[name].rows(attrs)
        )
    for se, size in columnar.se_sizes.items():
        assert streaming.se_sizes.get(se) == size, se
    for stat in selection.observed:
        assert streaming.observations.maybe(stat) == columnar.observations.get(
            stat
        ), stat


def test_streaming_estimates_are_exact():
    wfcase = case(13)
    workflow = wfcase.build()
    analysis = analyze(workflow)
    catalog = generate_css(analysis)
    selection = solve_greedy(build_problem(catalog, CostModel(workflow.catalog)))
    tables = wfcase.tables(scale=0.12, seed=9)
    run = BackendExecutor(analysis, "streaming").run(
        tables, taps=StreamingTaps(selection.observed)
    )
    estimator = CardinalityEstimator(catalog, run.observations)
    from repro.engine.ground_truth import ground_truth_cardinalities

    truth = ground_truth_cardinalities(analysis, tables)
    for se, actual in truth.items():
        assert estimator.cardinality(se) == pytest.approx(actual)


def test_reordered_plan_supported():
    wfcase = case(9)
    analysis = analyze(wfcase.build())
    block = analysis.blocks[0]
    tables = wfcase.tables(scale=0.2, seed=3)
    alternative = block.graph.enumerate_trees()[1]
    streaming = BackendExecutor(analysis, "streaming")
    base = streaming.run(tables)
    alt = streaming.run(tables, trees={block.name: alternative})
    t = next(iter(base.targets))
    attrs = sorted(base.targets[t].attrs)
    assert sorted(base.targets[t].rows(attrs)) == sorted(alt.targets[t].rows(attrs))


class TestStreamingTaps:
    def test_per_row_accumulation(self):
        stats = [
            Statistic.card(SE("T")),
            Statistic.hist(SE("T"), "a"),
            Statistic.distinct(SE("T"), "a"),
        ]
        taps = StreamingTaps(stats)
        for v in (1, 1, 2):
            taps.observe_row(SE("T"), {"a": v})
        # until the stream is marked complete the accumulators are
        # provisional: a block that died mid-stream reports nothing
        assert len(taps.collect()) == 0
        taps.mark_streamed(SE("T"))
        store = taps.collect()
        assert store.get(stats[0]) == 3
        assert store.get(stats[1]).frequency(1) == 2
        assert store.get(stats[2]) == 2

    def test_missing_attribute_fails_loudly(self):
        taps = StreamingTaps([Statistic.hist(SE("T"), "z")])
        with pytest.raises(InstrumentationError, match="not"):
            taps.observe_row(SE("T"), {"a": 1})

    def test_reject_join_rejected(self):
        rej = RejectSE(SE("T"), "k", SE("R"))
        rj = RejectJoinSE(rej, "m", SE("S"))
        with pytest.raises(InstrumentationError):
            StreamingTaps([Statistic.card(rj)])

    def test_reject_requests(self):
        rej = RejectSE(SE("T"), "k", SE("R"))
        taps = StreamingTaps([Statistic.hist(rej, "k")])
        assert taps.reject_requests() == {rej}
