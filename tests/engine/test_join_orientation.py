"""Compiled joins hash-build the smaller input, whatever the plan says.

An equi-join's cost model (Section 5) is symmetric in its inputs, so an
optimized join tree carries no preferred orientation.  The whole-batch
compiled profile therefore picks the build side at run time -- the input
with fewer rows, ties keep the right -- matching the physical planner's
hash-join cost (build the smaller side, probe the larger).  These tests
pin both halves of that contract:

- *orientation is invisible*: a tree with every join mirrored runs
  compiled to exactly the oracle interpreter's targets, sizes,
  observations (histogram buckets, HLL registers) and reject rows on the
  original tree;
- *the work is the smaller side*: every build sees ``min(|left|,
  |right|)`` rows on the whole-batch profile, while the chunked
  streaming profile, whose left side streams, keeps building the right.
"""

import pytest

from repro.algebra.blocks import analyze
from repro.algebra.expressions import RejectSE
from repro.algebra.plans import JoinNode, subtrees
from repro.core.costs import CostModel
from repro.core.generator import generate_css
from repro.core.greedy import solve_greedy
from repro.core.selection import build_problem
from repro.core.statistics import Statistic
from repro.engine.backend import BackendExecutor, get_backend
from repro.engine.compile import runtime
from repro.engine.instrumentation import TapSet
from repro.engine.table import Table
from repro.estimation.sketches import SketchSpec, sketch_scope
from repro.framework.pipeline import StatisticsPipeline
from repro.obs.trace import Tracer
from repro.workloads import case, suite

SCALE, SEED = 0.06, 23
WHOLE_BATCH = ("columnar",)
#: dense registers from the first value, so equality compares registers
HLL = SketchSpec(mode="hll", precision=8, exact_threshold=0)


def _mirror(tree):
    """Swap left and right at every join node."""
    if isinstance(tree, JoinNode):
        return JoinNode(_mirror(tree.right), _mirror(tree.left), tree.key)
    return tree


def _joins(tree):
    return [n for n in subtrees(tree) if isinstance(n, JoinNode)]


def _probe_stats(analysis):
    """Reject requests on both sides of every join, plus an HLL distinct
    on each join's key so sketch registers are compared too."""
    stats = []
    for block in analysis.blocks:
        for node in _joins(block.initial_tree):
            key = node.key[0] if len(node.key) == 1 else node.key
            left, right = node.left.se, node.right.se
            stats.append(Statistic.card(RejectSE(left, key, right)))
            stats.append(Statistic.card(RejectSE(right, key, left)))
            stats.append(Statistic.distinct(node.se, *node.key))
    return stats


def _rows(table):
    attrs = sorted(table.attrs)
    return attrs, sorted(table.rows(attrs), key=repr)


# ---------------------------------------------------------------------------
# orientation differential: mirrored compiled == original on the oracle
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend_name", WHOLE_BATCH)
@pytest.mark.parametrize("number", [wf.number for wf in suite()])
def test_mirrored_tree_compiled_matches_interpreter(number, backend_name):
    wfcase = case(number)
    workflow = wfcase.build()
    analysis = analyze(workflow)
    selection = solve_greedy(
        build_problem(generate_css(analysis), CostModel(workflow.catalog))
    )
    sources = wfcase.tables(scale=SCALE, seed=SEED)
    stats = list(selection.observed) + _probe_stats(analysis)
    mirrored = {b.name: _mirror(b.initial_tree) for b in analysis.blocks}

    with sketch_scope(HLL):
        ref_taps = TapSet(stats, mergeable=True)
        ref = BackendExecutor(analysis, "oracle").run(sources, taps=ref_taps)
        taps = TapSet(stats, mergeable=True)
        run = BackendExecutor(analysis, get_backend(backend_name)).run(
            sources, mirrored, taps=taps
        )

    assert set(run.targets) == set(ref.targets)
    for name, table in ref.targets.items():
        assert _rows(run.targets[name]) == _rows(table), name
    assert run.se_sizes == ref.se_sizes
    for stat in stats:
        assert run.observations.maybe(stat) == ref.observations.get(stat), stat
    # register-exact sketches, not just equal estimates
    assert taps._distinct_values == ref_taps._distinct_values
    assert set(run.rejects) == set(ref.rejects)
    for rej, table in ref.rejects.items():
        assert _rows(run.rejects[rej]) == _rows(table), rej


# ---------------------------------------------------------------------------
# deterministic work: which side gets hash-built, and how many rows
# ---------------------------------------------------------------------------
@pytest.fixture
def builds(monkeypatch):
    """Row counts of every hash build the compiled runtime performs."""
    seen: list[int] = []
    real = runtime._build_side

    def spy(cols, key, engine):
        seen.append(len(next(iter(cols.values()))))
        return real(cols, key, engine)

    monkeypatch.setattr(runtime, "_build_side", spy)
    return seen


@pytest.fixture(scope="module")
def wf21_adopted():
    """wf21 at scale 1, its adopted (re-optimized) trees, and the
    oracle's sizes on them."""
    wfcase = case(21)
    sources = wfcase.tables(scale=1, seed=SEED)
    pipeline = StatisticsPipeline(
        wfcase.build(), solver="greedy", backend="columnar"
    )
    report = pipeline.run_once(sources)
    trees = report.chosen_trees
    analysis = report.analysis
    ref = BackendExecutor(analysis, "oracle").run(sources, trees)
    joins = [
        node
        for block in analysis.blocks
        for node in _joins(trees.get(block.name, block.initial_tree))
    ]
    return analysis, sources, trees, joins, ref.se_sizes


@pytest.mark.parametrize("backend_name", WHOLE_BATCH)
def test_whole_batch_builds_the_smaller_input(
    backend_name, wf21_adopted, builds
):
    analysis, sources, trees, joins, sizes = wf21_adopted
    BackendExecutor(analysis, backend_name).run(sources, trees)
    expected = [min(sizes[n.left.se], sizes[n.right.se]) for n in joins]
    assert sorted(builds) == sorted(expected)
    # the adopted plan really has joins whose smaller input is the left
    assert any(sizes[n.left.se] < sizes[n.right.se] for n in joins)


def test_streaming_keeps_building_the_right_input(wf21_adopted, builds):
    analysis, sources, trees, joins, sizes = wf21_adopted
    BackendExecutor(analysis, "streaming").run(sources, trees)
    assert sorted(builds) == sorted(sizes[n.right.se] for n in joins)


def _tracked_workflow(left_keys=(1, 2, 9)):
    """One join of L (keys ``left_keys``) with a 6-row R, both reject
    links materialized; the default L is the smaller input."""
    from repro.algebra.operators import Join, Source, Target, Workflow
    from repro.algebra.schema import Catalog

    cat = Catalog()
    cat.add_relation("L", {"k": 5, "a": 10})
    cat.add_relation("R", {"k": 5, "b": 10})
    join = Join(
        Source(cat, "L"), Source(cat, "R"), "k",
        reject_left=True, reject_right=True,
    )
    workflow = Workflow("tracked", cat, [Target(join, "out")])
    sources = {
        "L": Table({"k": list(left_keys), "a": [10 * k for k in left_keys]}),
        "R": Table({"k": [1, 1, 2, 3, 4, 4], "b": [1, 2, 3, 4, 5, 6]}),
    }
    return analyze(workflow), sources


@pytest.mark.parametrize("backend_name", WHOLE_BATCH)
def test_tracked_reject_join_builds_the_smaller_input(backend_name, builds):
    analysis, sources = _tracked_workflow()
    ref = BackendExecutor(analysis, "oracle").run(sources)
    run = BackendExecutor(analysis, backend_name).run(sources)
    assert builds == [3]  # L, built although it is the plan's left input
    # output shape: left attrs then right extras, in the interpreter's order
    assert run.target("out").attrs == ref.target("out").attrs
    assert _rows(run.target("out")) == _rows(ref.target("out"))
    assert run.se_sizes == ref.se_sizes
    assert set(run.rejects) == set(ref.rejects) and len(ref.rejects) == 2
    for rej, table in ref.rejects.items():
        assert table.num_rows > 0, rej
        assert _rows(run.rejects[rej]) == _rows(table), rej


@pytest.mark.parametrize("backend_name", WHOLE_BATCH)
def test_traced_join_point_names_the_built_side(backend_name):
    for left_keys, side, rows in (
        ((1, 2, 9), "left", 3),
        ((1, 2, 9, 1, 2, 9), "right", 6),  # a tie keeps the right build
    ):
        analysis, sources = _tracked_workflow(left_keys)
        tracer = Tracer()
        BackendExecutor(analysis, backend_name).run(sources, tracer=tracer)
        block = analysis.blocks[0]
        point = tracer.root.first(
            kind="operator", name=repr(block.initial_tree.se)
        )
        assert point.attrs["build"] == side
        assert point.attrs["build_rows"] == rows
