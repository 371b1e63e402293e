"""Plan compilation: lowering, fused execution, and the signature cache.

The compiled path's contract is *oracle equivalence*: the targets, SE
sizes, tapped statistics and reject rows of the ``"oracle"`` columnar
interpreter -- on every profile, chunked or whole-column.  On top of that
this file pins the cache behaviour: warm runs hit, plan changes miss,
schema drift and contract changes invalidate instead of silently reusing
stale programs.
"""

from types import SimpleNamespace

import pytest

from repro.algebra.blocks import analyze
from repro.algebra.expressions import SubExpression
from repro.core.costs import CostModel
from repro.core.generator import generate_css
from repro.core.greedy import solve_greedy
from repro.core.selection import build_problem
from repro.core.statistics import Statistic
from repro.engine.backend import BackendExecutor, get_backend
from repro.engine.compile import (
    ChainIR,
    CompiledProfile,
    JoinIR,
    PlanCache,
    block_source_deps,
    compile_blocks,
    lower_block,
)
from repro.engine.executor import ColumnarBackend
from repro.engine.instrumentation import TapSet
from repro.engine.streaming import StreamingBackend, StreamingTaps
from repro.engine.table import Table
from repro.workloads import case

SCALE, SEED = 0.06, 23


def _setup(number):
    wfcase = case(number)
    workflow = wfcase.build()
    analysis = analyze(workflow)
    catalog = generate_css(analysis)
    selection = solve_greedy(build_problem(catalog, CostModel(workflow.catalog)))
    sources = wfcase.tables(scale=SCALE, seed=SEED)
    return analysis, selection, sources


def _floating_workflow():
    """Join + cross-input transform + pinned join: keeps a FloatingOp."""
    from repro.algebra.operators import (
        Join,
        Source,
        Target,
        Transform,
        UdfSpec,
        Workflow,
    )
    from repro.algebra.schema import Catalog

    cat = Catalog()
    cat.add_relation("O", {"pid": 5, "cid": 5, "amt": 100})
    cat.add_relation("P", {"pid": 5, "weight": 10})
    cat.add_relation("C", {"cid": 5, "cname": 10})
    o, p, c = Source(cat, "O"), Source(cat, "P"), Source(cat, "C")
    spanning = Transform(
        Join(o, p, "pid"),
        ("amt", "weight"),
        UdfSpec("scale", lambda vals: vals[0] * vals[1]),
        output_attr="scaled",
    )
    pinned = Join(spanning, c, "cid", reject_left=True)
    workflow = Workflow("float_wf", cat, [Target(pinned, "out")])
    sources = {
        "O": Table(
            {"pid": [1, 1, 2, 3], "cid": [1, 2, 2, 9], "amt": [10, 20, 30, 40]}
        ),
        "P": Table({"pid": [1, 2, 2, 3], "weight": [7, 8, 9, 1]}),
        "C": Table({"cid": [1, 2, 4], "cname": [5, 6, 7]}),
    }
    return analyze(workflow), sources


def _assert_equal_runs(run, ref, selection, label=""):
    assert set(run.targets) == set(ref.targets), label
    for name, table in ref.targets.items():
        other = run.targets[name]
        attrs = sorted(table.attrs)
        assert sorted(other.attrs) == attrs, (label, name)
        assert sorted(other.rows(attrs)) == sorted(table.rows(attrs)), (
            label,
            name,
        )
    assert run.se_sizes == ref.se_sizes, label
    for stat in selection.observed:
        assert run.observations.maybe(stat) == ref.observations.get(stat), (
            label,
            stat,
        )
    assert set(run.rejects) == set(ref.rejects), label
    for rej, table in ref.rejects.items():
        other = run.rejects[rej]
        attrs = sorted(table.attrs)
        assert sorted(other.attrs) == attrs, (label, rej)
        assert sorted(other.rows(attrs)) == sorted(table.rows(attrs)), (
            label,
            rej,
        )


# ---------------------------------------------------------------------------
# lowering
# ---------------------------------------------------------------------------
class TestLowering:
    def test_chain_mirrors_stage_names(self):
        analysis, _, _ = _setup(21)
        for block in analysis.blocks:
            program = lower_block(block, block.initial_tree)
            chains = {}

            def collect(node):
                if isinstance(node, ChainIR):
                    chains[node.input_name] = node
                else:
                    collect(node.left)
                    collect(node.right)

            collect(program.root)
            assert set(chains) == set(block.inputs)
            for name, inp in block.inputs.items():
                chain = chains[name]
                stages = inp.stage_names()
                assert chain.base_name == inp.base_name
                assert chain.raw_se == SubExpression.of(stages[0])
                assert [s.se for s in chain.steps] == [
                    SubExpression.of(n) for n in stages[1:]
                ]
                # operator callables are pre-resolved at compile time
                for fused, step in zip(chain.steps, inp.steps):
                    assert fused.kind == step.kind
                    if step.kind != "project":
                        assert callable(fused.fn)

    def test_floating_ops_are_placed_and_execute_identically(self):
        # floating ops only survive into a Block when a cross-input
        # transform feeds a pinned (materialized-reject) join; build one
        analysis, sources = _floating_workflow()
        block = next(b for b in analysis.blocks if b.floating)
        program = lower_block(block, block.initial_tree)
        placed = 0

        def count(node):
            nonlocal placed
            if isinstance(node, JoinIR):
                placed += len(node.floating)
                count(node.left)
                count(node.right)

        count(program.root)
        assert placed == len(block.floating) > 0

        ref = BackendExecutor(analysis, "oracle").run(sources)
        for backend in ("columnar", "streaming"):
            run = BackendExecutor(analysis, backend).run(sources)
            t, u = ref.target("out"), run.target("out")
            attrs = sorted(t.attrs)
            assert sorted(u.rows(attrs)) == sorted(t.rows(attrs)), backend
            assert run.se_sizes == ref.se_sizes, backend
            assert set(run.rejects) == set(ref.rejects), backend
            for rej, table in ref.rejects.items():
                assert table.num_rows > 0  # the reject path actually fires
                rattrs = sorted(table.attrs)
                assert sorted(run.rejects[rej].rows(rattrs)) == sorted(
                    table.rows(rattrs)
                ), backend

    def test_post_steps_carry_their_stage_ses(self):
        analysis, _, _ = _setup(21)
        for block in analysis.blocks:
            program = lower_block(block, block.initial_tree)
            assert [s.se for s in program.post] == block.post_stage_ses()

    def test_source_deps_walk_through_upstream_blocks(self):
        analysis, _, _ = _setup(21)
        sources = set(analysis.workflow.source_names())
        union = set()
        for block in analysis.blocks:
            deps = block_source_deps(analysis, block)
            assert deps, block.name
            assert deps <= sources, block.name
            union |= deps
        assert union == sources


# ---------------------------------------------------------------------------
# compiled-vs-oracle equivalence (incl. reject links and taps)
# ---------------------------------------------------------------------------
def _oracle_run(analysis, selection, sources):
    oracle = get_backend("oracle")
    return BackendExecutor(analysis, oracle).run(
        sources, taps=oracle.make_taps(selection.observed)
    )


class TestCompiledEquivalence:
    @pytest.mark.parametrize("backend_name", ["columnar", "streaming"])
    def test_matches_interpreter_with_taps_and_rejects(self, backend_name):
        analysis, selection, sources = _setup(21)
        ref = _oracle_run(analysis, selection, sources)
        b = get_backend(backend_name)
        run = BackendExecutor(analysis, b).run(
            sources, taps=b.make_taps(selection.observed)
        )
        _assert_equal_runs(run, ref, selection, backend_name)

    def test_chunked_equals_whole_column(self):
        analysis, selection, sources = _setup(9)

        class TinyChunks(StreamingBackend):
            def compiled_profile(self):
                return CompiledProfile(chunk_rows=5, gather="auto")

        rb = get_backend("streaming")
        ref = BackendExecutor(analysis, rb).run(
            sources, taps=rb.make_taps(selection.observed)
        )
        b = TinyChunks()
        run = BackendExecutor(analysis, b, workers=4).run(
            sources, taps=b.make_taps(selection.observed)
        )
        _assert_equal_runs(run, ref, selection, "chunked")

    def test_pure_python_rung_matches_auto(self):
        analysis, selection, sources = _setup(9)

        class PinnedPython(StreamingBackend):
            def compiled_profile(self):
                return CompiledProfile(chunk_rows=64, gather="python")

        ref = _oracle_run(analysis, selection, sources)
        b = PinnedPython()
        run = BackendExecutor(analysis, b).run(
            sources, taps=b.make_taps(selection.observed)
        )
        _assert_equal_runs(run, ref, selection, "python-rung")

    def test_columnar_profile_takes_the_best_rung(self):
        profile = ColumnarBackend().compiled_profile()
        assert profile.gather == "auto" and profile.chunk_rows is None

    @pytest.mark.parametrize("name", ["wf20", "wf23", "wf25", "floating"])
    def test_whole_batch_python_rung_matches_auto(self, name):
        # no backend pins the pure-Python rung any more; on whole batches
        # it still has to agree with the columnar profile's numpy rung
        if name == "floating":
            # a pinned join whose reject link carries rows, every value
            # of it tapped
            analysis, sources = _floating_workflow()
            probe = BackendExecutor(analysis, "columnar").run(sources)
            observed = [
                Statistic.hist(rej, a)
                for rej, table in probe.rejects.items()
                for a in table.attrs
            ]
            chosen = solve_greedy(
                build_problem(
                    generate_css(analysis), CostModel(analysis.workflow.catalog)
                )
            )
            selection = SimpleNamespace(observed=chosen.observed + observed)
            assert any(t.num_rows for t in probe.rejects.values())
        else:
            analysis, selection, sources = _setup(int(name[2:]))

        class PinnedPython(ColumnarBackend):
            def compiled_profile(self):
                return CompiledProfile(chunk_rows=None, gather="python")

        rb = get_backend("columnar")
        ref = BackendExecutor(analysis, rb).run(
            sources, taps=rb.make_taps(selection.observed)
        )
        b = PinnedPython()
        run = BackendExecutor(analysis, b).run(
            sources, taps=b.make_taps(selection.observed)
        )
        _assert_equal_runs(run, ref, selection, f"{name} python-rung")

    def test_chunked_replace_mode_taps_concatenate_batches(self):
        # table-level (replace) taps buffer every batch of a point and
        # observe their concatenation once
        analysis, selection, sources = _setup(21)

        class ChunkedColumnar(ColumnarBackend):
            def compiled_profile(self):
                return CompiledProfile(chunk_rows=100, gather="auto")

        ref = _oracle_run(analysis, selection, sources)
        b = ChunkedColumnar()
        run = BackendExecutor(analysis, b).run(
            sources, taps=b.make_taps(selection.observed)
        )
        _assert_equal_runs(run, ref, selection, "chunked replace-mode")

    def test_only_the_oracle_interprets(self):
        analysis, _, sources = _setup(1)
        oracle = BackendExecutor(analysis, "oracle")
        oracle.run(sources)
        assert oracle.plan_cache is None  # compiled path never engaged
        for name in ("columnar", "streaming"):
            ex = BackendExecutor(analysis, name)
            ex.run(sources)
            assert ex.plan_cache is not None and len(ex.plan_cache) > 0, name


# ---------------------------------------------------------------------------
# the plan cache
# ---------------------------------------------------------------------------
class TestPlanCache:
    def test_warm_compile_is_all_hits(self):
        analysis, _, _ = _setup(21)
        cache = PlanCache()
        cold = compile_blocks(analysis, backend="columnar", cache=cache)
        assert cold.cache_misses == len(analysis.blocks)
        assert cold.cache_hits == 0
        warm = compile_blocks(analysis, backend="columnar", cache=cache)
        assert warm.cache_misses == 0
        assert warm.cache_hits == len(analysis.blocks)

    def test_plan_change_is_a_miss_not_a_stale_hit(self):
        analysis, _, _ = _setup(9)
        block = next(b for b in analysis.blocks if len(b.inputs) >= 3)
        trees = [
            t
            for t in block.graph.enumerate_trees(limit=8)
            if repr(t) != repr(block.initial_tree)
        ]
        assert trees
        cache = PlanCache()
        compile_blocks(analysis, backend="columnar", cache=cache)
        replan = compile_blocks(
            analysis, {block.name: trees[0]}, backend="columnar", cache=cache
        )
        assert replan.cache_misses == 1
        assert replan.cache_hits == len(analysis.blocks) - 1

    def test_backend_and_chunking_key_separately(self):
        analysis, _, _ = _setup(1)
        cache = PlanCache()
        compile_blocks(analysis, backend="columnar", cache=cache)
        other = compile_blocks(
            analysis,
            backend="streaming",
            profile=CompiledProfile(chunk_rows=2048),
            cache=cache,
        )
        assert other.cache_hits == 0

    def test_invalidate_source_drops_downstream_programs(self):
        analysis, _, _ = _setup(25)  # chained blocks: deps are transitive
        cache = PlanCache()
        compile_blocks(analysis, backend="columnar", cache=cache)
        size = len(cache)
        source = sorted(analysis.workflow.source_names())[0]
        fed = sum(
            1
            for b in analysis.blocks
            if source in block_source_deps(analysis, b)
        )
        assert fed > 0
        dropped = cache.invalidate_source(source)
        assert dropped == fed
        assert len(cache) == size - dropped
        assert cache.invalidations == dropped

    def test_lru_eviction_is_bounded(self):
        analysis, _, _ = _setup(25)  # three blocks
        cache = PlanCache(capacity=2)
        compile_blocks(analysis, backend="columnar", cache=cache)
        assert len(cache) == 2
        again = compile_blocks(analysis, backend="columnar", cache=cache)
        # with capacity below the block count a full recompile cannot be
        # all hits, but the cache never grows past its bound
        assert len(cache) == 2
        assert again.cache_misses > 0


# ---------------------------------------------------------------------------
# stale-cache regression: schema drift and contract changes
# ---------------------------------------------------------------------------
class TestStaleCacheInvalidation:
    def test_schema_drift_evicts_instead_of_reusing(self):
        analysis, selection, sources = _setup(25)
        from repro.engine.faults import FaultPlan, FaultSpec
        from repro.quality import ContractSet, QualityGate

        contracts = ContractSet.infer(sources)
        ex = BackendExecutor(analysis, "columnar")
        ex.run(sources, quality=QualityGate(contracts=contracts))
        warm = len(ex.plan_cache)
        assert warm > 0
        assert ex.plan_cache.invalidations == 0

        # tonight's extract renames a column: the gate coerces it back
        # and reports drift -- the cached programs for every block fed by
        # that source must be evicted, not silently reused
        drifty = FaultPlan(
            (
                FaultSpec(
                    target="DimDate",
                    kind="column-rename",
                    column="month_id",
                    rename_to="month",
                ),
            ),
            seed=11,
        )
        rb = get_backend("oracle")
        ref = BackendExecutor(analysis, rb).run(
            sources,
            taps=rb.make_taps(selection.observed),
            faults=drifty.injector(),
            quality=QualityGate(contracts=ContractSet.infer(sources)),
        )
        b = get_backend("columnar")
        run = ex.run(
            sources,
            taps=b.make_taps(selection.observed),
            faults=drifty.injector(),
            quality=QualityGate(contracts=ContractSet.infer(sources)),
        )
        assert run.schema_drift  # the drift actually happened
        fed = sum(
            1
            for blk in analysis.blocks
            if "DimDate" in block_source_deps(analysis, blk)
        )
        assert ex.plan_cache.invalidations >= fed > 0
        # and the recompiled programs are correct on the drifted extract
        _assert_equal_runs(run, ref, selection, "post-drift")

    def test_contract_change_is_a_cache_miss(self):
        analysis, _, sources = _setup(25)
        from repro.quality import ContractSet, QualityGate

        contracts = ContractSet.infer(sources)
        cache = PlanCache()
        ex = BackendExecutor(analysis, "columnar", plan_cache=cache)
        ex.run(sources, quality=QualityGate(contracts=contracts))
        misses_cold = cache.misses
        ex.run(sources, quality=QualityGate(contracts=contracts))
        assert cache.misses == misses_cold  # identical contracts: warm

        from dataclasses import replace as d_replace

        relaxed = ContractSet.from_dict(contracts.to_dict())
        target = relaxed.get("DimDate")
        assert target is not None
        flipped = d_replace(
            target.columns[0], nullable=not target.columns[0].nullable
        )
        relaxed.add(
            d_replace(target, columns=(flipped,) + target.columns[1:])
        )
        ex.run(sources, quality=QualityGate(contracts=relaxed))
        assert cache.misses > misses_cold  # revised contract: recompile


# ---------------------------------------------------------------------------
# column-batch tap protocol
# ---------------------------------------------------------------------------
class TestObserveColumns:
    def _stats(self):
        analysis, selection, sources = _setup(1)
        return selection.observed, analysis, sources

    def test_tapset_columns_equal_table_observation(self):
        stats, analysis, sources = self._stats()
        table = next(iter(sources.values()))
        by_table = TapSet(stats)
        by_columns = TapSet(stats)
        for stat in stats:
            se = stat.se
            by_table.observe(se, table)
            cols = {
                a: table.columns[a] for a in table.attrs
            }
            by_columns.observe_columns(se, table.num_rows, cols)
        for stat in stats:
            assert by_columns.store.get(stat) == by_table.store.get(stat)

    def test_streaming_columns_equal_row_observation(self):
        stats, analysis, sources = self._stats()
        table = next(iter(sources.values()))
        by_rows = StreamingTaps(stats)
        by_columns = StreamingTaps(stats)
        for stat in stats:
            se = stat.se
            for row in table.row_dicts():
                by_rows.observe_row(se, row)
            by_rows.mark_streamed(se)
            # two half batches: additive accumulators must add up
            half = table.num_rows // 2
            cols = dict(table.columns)
            by_columns.observe_columns(
                se, half, {a: c[:half] for a, c in cols.items()}
            )
            by_columns.observe_columns(
                se,
                table.num_rows - half,
                {a: c[half:] for a, c in cols.items()},
            )
            by_columns.mark_streamed(se)
        got = by_columns.collect()
        want = by_rows.collect()
        for stat in stats:
            assert got.get(stat) == want.get(stat)

    def test_batches_concatenate_once_and_flatten_gathered_columns(self):
        np = pytest.importorskip("numpy")
        from repro.engine.compile.runtime import _concat

        gathered = np.empty(2, dtype=object)
        gathered[:] = [7, "x"]
        one = ({"a": gathered}, 2)
        assert _concat([one]) is one  # a single batch is not copied
        cols, n = _concat([({"a": [1, 2]}, 2), one, ({"a": []}, 0)])
        assert (cols, n) == ({"a": [1, 2, 7, "x"]}, 4)
        assert [type(v) for v in cols["a"]] == [int, int, int, str]

    def test_missing_attr_raises_like_interpreter(self):
        from repro.core.statistics import StatKind, Statistic
        from repro.engine.instrumentation import InstrumentationError

        se = SubExpression.of("T")
        stat = Statistic(StatKind.HISTOGRAM, se, ("missing",))
        taps = TapSet([stat])
        with pytest.raises(InstrumentationError):
            taps.observe_columns(se, 3, {"present": [1, 2, 3]})
        staps = StreamingTaps([stat])
        with pytest.raises(InstrumentationError):
            staps.observe_columns(se, 3, {"present": [1, 2, 3]})


# ---------------------------------------------------------------------------
# compile phase in the trace
# ---------------------------------------------------------------------------
class TestCompileTrace:
    def test_compile_span_records_cache_traffic(self):
        from repro.obs import Tracer
        from repro.obs.render import render_trace

        analysis, _, sources = _setup(1)
        ex = BackendExecutor(analysis, "columnar")
        tracer = Tracer()
        ex.run(sources, tracer=tracer)
        spans = tracer.root.find(name="compile")
        assert spans
        cold = spans[0]
        assert cold.attrs["cache_misses"] == len(analysis.blocks)
        assert cold.attrs["cache_hits"] == 0
        assert cold.attrs["fused_ops"] > 0

        warm_tracer = Tracer()
        ex.run(sources, tracer=warm_tracer)
        warm = warm_tracer.root.find(name="compile")[0]
        assert warm.attrs["cache_hits"] == len(analysis.blocks)
        assert warm.attrs["cache_misses"] == 0
        # trace show renders hit/miss even when one of them is zero
        text = render_trace(warm_tracer.root)
        assert "cache_hits=" in text and "cache_misses=0" in text

    def test_pipeline_surfaces_compile_span_under_execution(self):
        from repro.framework.pipeline import StatisticsPipeline
        from repro.obs import Tracer

        wfcase = case(1)
        pipeline = StatisticsPipeline(
            wfcase.build(), solver="greedy", backend="columnar"
        )
        tracer = Tracer()
        pipeline.run_once(wfcase.tables(scale=SCALE, seed=SEED), tracer=tracer)
        spans = tracer.root.find(name="compile")
        assert spans and spans[0].duration is not None


# ---------------------------------------------------------------------------
# fused-operator cost factors
# ---------------------------------------------------------------------------
class TestCompiledCostFactors:
    def test_compiled_factors_are_cheaper_and_converge(self):
        from repro.estimation.physical import (
            BACKEND_COST_FACTORS,
            COMPILED_COST_FACTORS,
            PhysicalCostModel,
        )

        for backend, factors in COMPILED_COST_FACTORS.items():
            interp = BACKEND_COST_FACTORS[backend]
            for name, value in factors.items():
                assert value < interp[name], (backend, name)
        se = SubExpression.of("T")
        cards = {se: 1000.0}
        fast = PhysicalCostModel.for_backend("streaming", cards, compiled=True)
        slow = PhysicalCostModel.for_backend("streaming", cards)
        assert fast.hash_cost(100, 1000, 500) < slow.hash_cost(100, 1000, 500)

    def test_physical_plans_accept_compiled_flag(self):
        from repro.estimation.physical import physical_plans

        analysis, _, sources = _setup(9)  # a 3-way join block
        ex = BackendExecutor(analysis, "oracle")
        run = ex.run(sources)
        cards = {se: float(n) for se, n in run.se_sizes.items()}
        interp = physical_plans(analysis, cards, backend="streaming")
        fused = physical_plans(
            analysis, cards, backend="streaming", compiled=True
        )
        assert set(interp) == set(fused)
        for name in interp:
            assert fused[name].total_cost < interp[name].total_cost
