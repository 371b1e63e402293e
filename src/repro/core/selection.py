"""The statistic-selection problem (Section 5.1).

Given the CSS catalog, build the extended hitting-set instance: find
``S'_O`` (a subset of the observable statistics) of minimal cost such that
every statistic in ``S_C`` is *computable* -- directly observed or covered
through a chain of CSSs whose member statistics are themselves computable.

The module also provides the soundness check the LP formulation needs:
because rules such as union-division reference statistics on *larger* SEs,
the CSS graph can contain cycles, and a naive assignment could declare two
statistics computable purely in terms of each other.  ``closure`` computes
the true bottom-up fixpoint; both solvers verify against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.costs import CostModel
from repro.core.css import CSS, CssCatalog
from repro.core.statistics import Statistic


@dataclass(frozen=True)
class CssEntry:
    """A flattened CSS: indexes into the problem's statistic list."""

    target: int
    inputs: tuple[int, ...]
    css: CSS


@dataclass
class SelectionProblem:
    """An instance of the optimal-statistics-identification problem."""

    stats: list[Statistic]
    observable: frozenset[int]
    required: frozenset[int]
    entries: list[CssEntry]
    costs: list[float]
    index: dict[Statistic, int] = field(default_factory=dict)
    by_target: dict[int, list[int]] = field(default_factory=dict)
    #: each entry's inputs deduplicated as ``tuple(set(inputs))``: the same
    #: order iterating ``set(inputs)`` gives, so sums over it are unchanged
    entry_inputs: list[tuple[int, ...]] = field(init=False, repr=False)
    #: statistic -> the entries that take it as an input
    consumers: dict[int, list[int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.index:
            self.index = {s: i for i, s in enumerate(self.stats)}
        if not self.by_target:
            for j, entry in enumerate(self.entries):
                self.by_target.setdefault(entry.target, []).append(j)
        self.entry_inputs = [tuple(set(entry.inputs)) for entry in self.entries]
        self.consumers = {}
        for j, members in enumerate(self.entry_inputs):
            for k in members:
                self.consumers.setdefault(k, []).append(j)

    @property
    def n(self) -> int:
        return len(self.stats)

    def stat(self, i: int) -> Statistic:
        return self.stats[i]

    def closure(self, observed: set[int]) -> set[int]:
        """True computability fixpoint from a set of observed statistics."""
        state = Closure(self)
        state.add(set(observed) & self.observable)
        return state.computable

    def is_sufficient(self, observed: set[int]) -> bool:
        return set(self.required) <= self.closure(observed)

    def total_cost(self, observed: set[int]) -> float:
        return sum(self.costs[i] for i in observed)


class Closure:
    """The computability fixpoint of a problem, grown incrementally.

    ``add`` marks statistics computable and fires every CSS whose inputs
    have all become computable, via per-entry remaining-input counters.
    The closure is a least fixpoint, so growing it step by step ends at
    exactly the set one pass over the union of the steps would reach.
    """

    def __init__(self, problem: SelectionProblem):
        self._entries = problem.entries
        self._consumers = problem.consumers
        self._remaining = [len(members) for members in problem.entry_inputs]
        self.computable: set[int] = set()
        self.add(
            entry.target
            for entry, left in zip(self._entries, self._remaining)
            if left == 0
        )

    def add(self, stats) -> int:
        """Mark ``stats`` computable; returns how many statistics joined."""
        computable = self.computable
        before = len(computable)
        frontier = []
        for k in stats:
            if k not in computable:
                computable.add(k)
                frontier.append(k)
        remaining = self._remaining
        while frontier:
            for j in self._consumers.get(frontier.pop(), ()):
                remaining[j] -= 1
                if remaining[j] == 0:
                    target = self._entries[j].target
                    if target not in computable:
                        computable.add(target)
                        frontier.append(target)
        return len(computable) - before


@dataclass
class SelectionResult:
    """Outcome of a selection solve."""

    problem: SelectionProblem
    observed_indexes: set[int]
    method: str
    iterations: int = 1

    @property
    def observed(self) -> list[Statistic]:
        return sorted(
            (self.problem.stat(i) for i in self.observed_indexes),
            key=lambda s: s.sort_key(),
        )

    @property
    def total_cost(self) -> float:
        return self.problem.total_cost(self.observed_indexes)

    @property
    def is_valid(self) -> bool:
        return self.problem.is_sufficient(self.observed_indexes)

    def describe(self) -> str:
        lines = [
            f"Selection [{self.method}] cost={self.total_cost:g} "
            f"({len(self.observed_indexes)} statistics observed)"
        ]
        for stat in self.observed:
            cost = self.problem.costs[self.problem.index[stat]]
            lines.append(f"  {stat!r}  cost={cost:g}")
        return "\n".join(lines)


def build_problem(
    catalog: CssCatalog,
    cost_model: CostModel,
    free_statistics: set[Statistic] | None = None,
) -> SelectionProblem:
    """Assemble the selection instance from the CSS catalog.

    ``free_statistics`` are statistics already available from source systems
    (Section 6.2): they join ``S_O`` with zero cost, so the solver always
    exploits them.
    """
    free = free_statistics or set()
    stats = sorted(catalog.all_statistics | free, key=lambda s: s.sort_key())
    index = {s: i for i, s in enumerate(stats)}
    observable = frozenset(
        i
        for i, s in enumerate(stats)
        if catalog.is_observable(s) or s in free
    )
    required = frozenset(index[s] for s in catalog.required)
    entries: list[CssEntry] = []
    for target, bucket in catalog.css.items():
        for css in bucket:
            entries.append(
                CssEntry(
                    target=index[target],
                    inputs=tuple(index[s] for s in css.inputs),
                    css=css,
                )
            )
    costs = [
        0.0
        if stats[i] in free
        else cost_model.cost(stats[i], observable=i in observable)
        for i in range(len(stats))
    ]
    problem = SelectionProblem(
        stats=stats,
        observable=observable,
        required=required,
        entries=entries,
        costs=costs,
        index=index,
    )
    _check_feasible(problem)
    return problem


def _check_feasible(problem: SelectionProblem) -> None:
    """Every required statistic must be reachable when everything observable
    is observed; otherwise the flow was analyzed incorrectly."""
    everything = set(problem.observable)
    missing = set(problem.required) - problem.closure(everything)
    if missing:
        names = ", ".join(repr(problem.stat(i)) for i in sorted(missing))
        raise ValueError(
            f"selection infeasible: no observable coverage for {names}"
        )
