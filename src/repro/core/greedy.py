"""The greedy heuristic of Section 5.3.

In each round, pick the cheapest way of making one still-uncovered
statistic from ``S_C`` computable.  The cost of a CSS accounts for
amortization: statistics that are already computable cost nothing, shared
inputs are charged once (plans are *sets* of observations), and the cost of
a not-yet-observable input is the recursively cheapest cost of acquiring it
through its own CSSs.  After each commitment the computability closure is
extended so subsequent rounds see the reduced residual costs -- "the costs
of the remaining CSSs are reduced based on the statistics picked in this
step".

Acquisition costs are computed with a label-correcting pass over the AND-OR
CSS graph (cost of a statistic = min(observe it, min over its CSSs of the
summed input costs)).  Labels only ever decrease and updates are strict, so
the final choice graph is acyclic even on the cyclic CSS graphs
union-division produces -- no exponential cycle-guard recursion.  The
additive sum double-counts inputs shared *within* one derivation, which is
fine for a heuristic: the actual commitment deduplicates via set union.

Two shortcuts keep a round cheap without changing any choice:

- A CSS whose target is already computable is left out of the round's
  sweeps.  That target's label is 0 and every summed cost is >= 0, so
  the strict improvement test could never pass for it.
- The closure is kept across rounds (:class:`~repro.core.selection.Closure`)
  and grown by each round's commitment instead of being recomputed from
  the observed set.  The closure is a least fixpoint, so growing it ends
  at the set a from-scratch pass would reach.

Everything else -- the sweep order over the CSS entries, the summation
order over each entry's deduplicated inputs, the ``1e-12`` improvement
margin and the ``min((cost, statistic))`` pick -- is what breaks ties, and
is fixed.
"""

from __future__ import annotations

from repro.core.costs import INFINITE
from repro.core.selection import Closure, SelectionProblem, SelectionResult

_OBSERVE = -1  # choice marker: observe the statistic directly


def _label_costs(
    problem: SelectionProblem,
    derivations: list[tuple[int, int, tuple[int, ...]]],
    computable: set[int],
) -> tuple[dict[int, float], dict[int, int]]:
    """Cheapest acquisition cost per statistic, plus the supporting choice.

    ``derivations`` lists ``(entry index, target, deduplicated inputs)`` in
    entry order, self-referencing entries already dropped.  ``choice[i]``
    is ``_OBSERVE`` or the index of the CSS entry whose covered inputs
    realize the cost.  Only strict improvements update the labels, so
    following choices never cycles.
    """
    best: dict[int, float] = dict.fromkeys(computable, 0.0)
    choice: dict[int, int] = {}
    for i in problem.observable:
        cost = problem.costs[i]
        if i not in computable and cost < INFINITE:
            best[i] = cost
            choice[i] = _OBSERVE

    open_ = [d for d in derivations if d[1] not in computable]
    changed = True
    while changed:
        changed = False
        for j, target, members in open_:
            total = 0.0
            for k in members:
                cost_k = best.get(k)
                if cost_k is None:
                    break
                total += cost_k
            else:
                if total < best.get(target, INFINITE) - 1e-12:
                    best[target] = total
                    choice[target] = j
                    changed = True
    return best, choice


def _collect_plan(
    problem: SelectionProblem,
    stat: int,
    computable: set[int],
    choice: dict[int, int],
    out: set[int],
    visited: set[int],
) -> None:
    """Walk the (acyclic) choice graph, gathering observations to make."""
    if stat in computable or stat in visited:
        return
    visited.add(stat)
    picked = choice.get(stat)
    if picked is None:
        raise ValueError(f"no acquisition path for statistic index {stat}")
    if picked == _OBSERVE:
        out.add(stat)
        return
    for k in problem.entry_inputs[picked]:
        _collect_plan(problem, k, computable, choice, out, visited)


def solve_greedy(problem: SelectionProblem) -> SelectionResult:
    """Round-based greedy selection (Section 5.3)."""
    derivations = [
        (j, entry.target, members)
        for j, (entry, members) in enumerate(
            zip(problem.entries, problem.entry_inputs)
        )
        if entry.target not in members
    ]
    observed: set[int] = set()
    closure = Closure(problem)
    computable = closure.computable
    rounds = 0
    while True:
        uncovered = sorted(problem.required - computable)
        if not uncovered:
            break
        rounds += 1
        best, choice = _label_costs(problem, derivations, computable)
        candidates = [
            (best[stat], stat) for stat in uncovered if stat in best
        ]
        if not candidates:
            raise ValueError(
                "greedy selection stuck: some required statistic has no "
                "observable coverage"
            )
        _cost, stat = min(candidates)
        plan: set[int] = set()
        _collect_plan(problem, stat, computable, choice, plan, set())
        observed.update(plan)
        if not closure.add(plan):  # pragma: no cover - safety net
            raise RuntimeError("greedy round made no progress")
    return SelectionResult(
        problem=problem,
        observed_indexes=observed,
        method="greedy",
        iterations=max(rounds, 1),
    )
