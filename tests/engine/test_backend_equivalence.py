"""Suite-wide engine-vs-oracle equivalence.

The :class:`~repro.engine.backend.ExecutionBackend` contract is that every
backend computes the *same workflow semantics* and surfaces the *same
observation points* (the paper's Section 3.2.5 premise that statistics
identification is engine-independent).  This pins it across all 30 suite
workflows: the compiled columnar and streaming profiles, the parallel
block scheduler and the sharded backend must produce the targets, SE
sizes and observed statistics (for the greedy-selected set) of the
``"oracle"`` columnar interpreter.

Target rows are compared as multisets under a sorted attribute order:
only the content is the contract, not row or column order.
"""

import pytest

from repro.algebra.blocks import analyze
from repro.core.costs import CostModel
from repro.core.generator import generate_css
from repro.core.greedy import solve_greedy
from repro.core.selection import build_problem
from repro.engine.backend import BackendExecutor, get_backend
from repro.workloads import suite

#: (backend, scheduler width) variants checked against the serial oracle
#: -- the compiled whole-column profile serially and on the parallel
#: scheduler, the chunked streaming profile, and the sharded multiprocess
#: backend (where the second element is the shard count; ``inline`` keeps
#: this suite fork-free, the pool path is pinned by tests/dist)
VARIANTS = [
    ("columnar", 1),
    ("columnar", 4),
    ("streaming", 2),
    ("multiprocess", 2),
    ("multiprocess", 4),
]

SCALE, SEED = 0.06, 23


def _variant_backend(backend_name: str, workers: int):
    """``(backend instance, scheduler width)`` for one variant row."""
    if backend_name == "multiprocess":
        from repro.engine.dist import MultiprocessBackend

        backend = MultiprocessBackend(
            shards=workers,
            inline=True,
            factors={"min_shard_rows": 0},  # tiny test tables still shard
        )
        return backend, 1
    return get_backend(backend_name), workers


@pytest.fixture(scope="module")
def reference():
    """Per-workflow (analysis, selection, sources, oracle run), cached."""
    cache = {}

    def get(case):
        if case.number not in cache:
            workflow = case.build()
            analysis = analyze(workflow)
            catalog = generate_css(analysis)
            selection = solve_greedy(
                build_problem(catalog, CostModel(workflow.catalog))
            )
            sources = case.tables(scale=SCALE, seed=SEED)
            backend = get_backend("oracle")
            run = BackendExecutor(analysis, backend).run(
                sources, taps=backend.make_taps(selection.observed)
            )
            cache[case.number] = (analysis, selection, sources, run)
        return cache[case.number]

    return get


@pytest.mark.parametrize(
    "backend_name,workers", VARIANTS, ids=lambda v: str(v)
)
@pytest.mark.parametrize("case", suite(), ids=lambda c: f"wf{c.number:02d}")
def test_backend_matches_columnar(case, backend_name, workers, reference):
    analysis, selection, sources, ref = reference(case)
    backend, workers = _variant_backend(backend_name, workers)
    run = BackendExecutor(analysis, backend, workers=workers).run(
        sources, taps=backend.make_taps(selection.observed)
    )

    # identical targets (canonical attribute order)
    assert set(run.targets) == set(ref.targets)
    for name, table in ref.targets.items():
        other = run.targets[name]
        attrs = sorted(table.attrs)
        assert sorted(other.attrs) == attrs, (case.number, name)
        assert sorted(other.rows(attrs)) == sorted(table.rows(attrs)), (
            case.number,
            name,
        )

    # identical observation-point sizes
    assert run.se_sizes == ref.se_sizes, case.number

    # identical observed statistics for the selected set
    for stat in selection.observed:
        assert run.observations.maybe(stat) == ref.observations.get(stat), (
            case.number,
            stat,
        )
