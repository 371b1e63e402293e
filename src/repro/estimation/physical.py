"""Physical implementation selection -- the [21] extension of Step 7.

The paper's Step 7 picks the join *order*; Tziovara, Vassiliadis & Simitsis
("Deciding the physical implementation of ETL workflows", cited as [21])
extend the decision to the physical operator for each logical join.  With
the learned cardinalities in hand that choice is straightforward cost
arithmetic, so the library includes it: per join node, pick among

- **hash join**: build the smaller side, probe the larger;
- **sort-merge join**: sort whichever inputs are not already sorted on the
  key, then merge (sorted-ness propagates: the merge output is sorted on
  the key, which later merge joins on the same key exploit);
- **nested-loop join**: quadratic fallback, only wins on tiny inputs.

Cost formulas are the textbook ones in abstract row units; the point here
is not IO modelling but that the framework's statistics make *every*
physical alternative costable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from repro.algebra.blocks import BlockAnalysis
from repro.algebra.expressions import AnySE
from repro.algebra.plans import Leaf, PlanTree


class JoinAlgorithm(Enum):
    """The physical join implementations the planner chooses among."""

    HASH = "hash"
    SORT_MERGE = "sort-merge"
    NESTED_LOOP = "nested-loop"


@dataclass(frozen=True)
class PhysicalJoin:
    """One join node's physical decision."""

    se: AnySE
    algorithm: JoinAlgorithm
    cost: float
    output_sorted_on: tuple[str, ...]


@dataclass
class PhysicalPlan:
    """A join tree annotated with physical operator choices."""

    tree: PlanTree
    joins: list[PhysicalJoin] = field(default_factory=list)

    @property
    def total_cost(self) -> float:
        return sum(j.cost for j in self.joins)

    def algorithm_for(self, se: AnySE) -> JoinAlgorithm:
        for join in self.joins:
            if join.se == se:
                return join.algorithm
        raise KeyError(f"no physical decision for {se!r}")

    def describe(self) -> str:
        lines = [f"physical plan cost = {self.total_cost:g}"]
        for join in self.joins:
            lines.append(
                f"  {join.se!r}: {join.algorithm.value} (cost {join.cost:g})"
            )
        return "\n".join(lines)


#: per-backend cost-factor presets.  The abstract row-unit formulas are the
#: same for every execution backend, but the *constants* are not: the
#: streaming backend pays chunking and additive-tap upkeep on every operator
#: (calibrate with ``benchmarks/bench_backend_throughput.py``).
BACKEND_COST_FACTORS: dict[str, dict[str, float]] = {
    "columnar": {
        "hash_build_factor": 1.5,
        "sort_factor": 1.0,
        "merge_factor": 1.0,
        "nested_factor": 0.25,
    },
    "streaming": {
        "hash_build_factor": 1.9,
        "sort_factor": 1.3,
        "merge_factor": 1.25,
        "nested_factor": 0.32,
    },
    # shard workers execute with the columnar kernel set; a small
    # surcharge covers shard dispatch and observation merging
    "multiprocess": {
        "hash_build_factor": 1.6,
        "sort_factor": 1.05,
        "merge_factor": 1.05,
        "nested_factor": 0.26,
    },
}

#: constants the sharded (multiprocess) backend's dispatch planner uses to
#: pick a per-block strategy.  A join input smaller than
#: ``broadcast_max_rows`` is cheaper to replicate into every worker than to
#: hash-partition (fork inheritance makes replication nearly free); above
#: it, both join inputs are hash-partitioned on the join key.  The
#: ``*_factor`` entries weigh the two strategies' per-row costs when the
#: cap alone does not decide (see ``repro.engine.dist.sharding``), and
#: ``min_shard_rows`` stops over-sharding tiny tables.
DIST_COST_FACTORS: dict[str, float] = {
    "broadcast_max_rows": 50_000.0,
    "broadcast_build_factor": 1.5,  # per replicated build row, per shard
    "partition_scan_factor": 1.0,  # per row hashed + routed to its shard
    "merge_row_factor": 0.2,  # per output row folded back into the parent
    "min_shard_rows": 64.0,
}

#: cost factors when the plan-compilation layer executes the block: fused
#: whole-column kernels collapse the per-row interpretation gap between
#: backends, so the constants both shrink and converge (the streaming
#: backend keeps a small chunking surcharge; calibrated against
#: ``benchmarks/bench_plan_compile.py`` on wf21).
COMPILED_COST_FACTORS: dict[str, dict[str, float]] = {
    "columnar": {
        "hash_build_factor": 0.12,
        "sort_factor": 0.08,
        "merge_factor": 0.08,
        "nested_factor": 0.02,
    },
    "streaming": {
        "hash_build_factor": 0.17,
        "sort_factor": 0.11,
        "merge_factor": 0.10,
        "nested_factor": 0.03,
    },
    # workers compile per process against the columnar profile; the same
    # dispatch/merge surcharge as the interpreted constants applies
    "multiprocess": {
        "hash_build_factor": 0.13,
        "sort_factor": 0.09,
        "merge_factor": 0.09,
        "nested_factor": 0.02,
    },
}


@dataclass
class PhysicalCostModel:
    """Abstract per-row costs of the three join implementations."""

    cardinalities: dict[AnySE, float]
    hash_build_factor: float = 1.5
    sort_factor: float = 1.0  # multiplies n*log2(n)
    merge_factor: float = 1.0
    nested_factor: float = 0.25  # per inner-pair probe

    @classmethod
    def for_backend(
        cls,
        backend: str,
        cardinalities: dict[AnySE, float],
        compiled: bool = False,
        **overrides: float,
    ) -> "PhysicalCostModel":
        """Cost model tuned to an execution backend's kernel constants.

        ``compiled=True`` selects the fused-operator constants of the
        plan-compilation layer instead of the interpreter's.
        """
        table = COMPILED_COST_FACTORS if compiled else BACKEND_COST_FACTORS
        try:
            factors = dict(table[backend])
        except KeyError:
            raise KeyError(
                f"no cost factors for backend {backend!r}; "
                f"known: {sorted(table)}"
            ) from None
        factors.update(overrides)
        return cls(cardinalities, **factors)

    def size(self, se: AnySE) -> float:
        return float(self.cardinalities[se])

    def hash_cost(self, left: float, right: float, out: float) -> float:
        build, probe = sorted((left, right))
        return self.hash_build_factor * build + probe + out

    def sort_cost(self, n: float) -> float:
        if n <= 1:
            return 0.0
        return self.sort_factor * n * math.log2(max(n, 2.0))

    def merge_cost(self, left: float, right: float, out: float) -> float:
        return self.merge_factor * (left + right) + out

    def nested_cost(self, left: float, right: float, out: float) -> float:
        return self.nested_factor * left * right + out


class PhysicalPlanner:
    """Bottom-up physical operator selection with sort-order propagation."""

    def __init__(self, model: PhysicalCostModel):
        self.model = model

    def plan(self, tree: PlanTree) -> PhysicalPlan:
        joins: list[PhysicalJoin] = []
        self._visit(tree, joins)
        return PhysicalPlan(tree=tree, joins=joins)

    def _visit(self, node: PlanTree, joins: list[PhysicalJoin]) -> tuple[str, ...]:
        """Returns the key the node's output is sorted on ('' = unsorted)."""
        if isinstance(node, Leaf):
            return ()  # base inputs arrive unsorted
        left_sorted = self._visit(node.left, joins)
        right_sorted = self._visit(node.right, joins)
        left_n = self.model.size(node.left.se)
        right_n = self.model.size(node.right.se)
        out_n = self.model.size(node.se)
        key = tuple(node.key)

        hash_cost = self.model.hash_cost(left_n, right_n, out_n)
        sort_cost = self.model.merge_cost(left_n, right_n, out_n)
        if left_sorted != key:
            sort_cost += self.model.sort_cost(left_n)
        if right_sorted != key:
            sort_cost += self.model.sort_cost(right_n)
        nested_cost = self.model.nested_cost(left_n, right_n, out_n)

        best = min(
            (hash_cost, JoinAlgorithm.HASH),
            (sort_cost, JoinAlgorithm.SORT_MERGE),
            (nested_cost, JoinAlgorithm.NESTED_LOOP),
            key=lambda pair: pair[0],
        )
        joins.append(
            PhysicalJoin(
                se=node.se,
                algorithm=best[1],
                cost=best[0],
                output_sorted_on=key if best[1] is JoinAlgorithm.SORT_MERGE else (),
            )
        )
        return key if best[1] is JoinAlgorithm.SORT_MERGE else ()


def execute_physical(
    tree: PlanTree,
    inputs: dict[str, "object"],
    plan: PhysicalPlan,
):
    """Execute a join tree honouring the plan's algorithm choices.

    ``inputs`` maps leaf names to :class:`~repro.engine.table.Table`.
    All three implementations are semantically identical (the engine's
    property tests pin that), so this mainly exists to demonstrate and test
    the full logical-choice -> physical-execution loop.
    """
    from repro.engine.physical import hash_join, merge_join, nested_loop_join

    def run(node: PlanTree):
        if isinstance(node, Leaf):
            return inputs[node.name]
        left = run(node.left)
        right = run(node.right)
        algorithm = plan.algorithm_for(node.se)
        if algorithm is JoinAlgorithm.SORT_MERGE:
            return merge_join(left, right, node.key)
        if algorithm is JoinAlgorithm.NESTED_LOOP:
            return nested_loop_join(left, right, node.key)
        result, _l, _r = hash_join(left, right, node.key)
        return result

    return run(tree)


def physical_plans(
    analysis: BlockAnalysis,
    cardinalities: dict[AnySE, float],
    trees: dict[str, PlanTree] | None = None,
    backend: str = "columnar",
    compiled: bool = False,
) -> dict[str, PhysicalPlan]:
    """Physical decisions for every block's (chosen or initial) tree.

    ``backend`` selects the per-backend cost constants -- the same join
    tree can warrant different physical operators on different engines --
    and ``compiled`` switches to the fused-kernel constants.
    """
    trees = trees or {}
    planner = PhysicalPlanner(
        PhysicalCostModel.for_backend(backend, cardinalities, compiled=compiled)
    )
    out: dict[str, PhysicalPlan] = {}
    for block in analysis.blocks:
        tree = trees.get(block.name, block.initial_tree)
        out[block.name] = planner.plan(tree)
    return out
