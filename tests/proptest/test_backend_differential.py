"""Differential fuzz: every backend agrees with the oracle on random workflows.

The suite-wide equivalence test pins the backend contract on the 30
hand-written workflows; this one extends it to *seeded random* workflows,
where operator mixes (reject links under transforms, projected join keys,
aggregations over filtered joins) occur in combinations no suite workflow
exercises.  The serial ``"oracle"`` columnar interpreter is the
reference; every (backend, workers) variant must produce identical sorted
target tables, identical observation-point sizes, and identical tapped
statistics.

Seeds derive from ``REPRO_PROPERTY_SEED`` (default 0), so the CI sample is
fixed and failures replay locally with the same environment variable.
"""

import os

import pytest

from repro.algebra.blocks import analyze
from repro.core.costs import CostModel
from repro.core.generator import generate_css
from repro.core.greedy import solve_greedy
from repro.core.selection import build_problem
from repro.engine.backend import BackendExecutor, get_backend
from repro.workloads.randomgen import random_workflow

pytestmark = pytest.mark.property

BASE_SEED = int(os.environ.get("REPRO_PROPERTY_SEED", "0"))
SEEDS = [BASE_SEED * 1000 + i for i in range(12)]

#: every engine variant: the whole-column and chunked streaming profiles,
#: each serial and under the 4-wide parallel scheduler, and the sharded
#: multiprocess backend at 1/2/4 shards (the second element is the shard
#: count for multiprocess rows)
VARIANTS = [
    ("columnar", 1),
    ("columnar", 4),
    ("streaming", 1),
    ("streaming", 4),
    ("multiprocess", 1),
    ("multiprocess", 2),
    ("multiprocess", 4),
]


def _variant_backend(backend_name: str, workers: int):
    """``(backend instance, scheduler width)`` for one variant row."""
    if backend_name == "multiprocess":
        from repro.engine.dist import MultiprocessBackend

        backend = MultiprocessBackend(
            shards=workers,
            inline=True,  # fork-free here; the pool path is pinned in tests/dist
            factors={"min_shard_rows": 0},
        )
        return backend, 1
    return get_backend(backend_name), workers


@pytest.fixture(scope="module")
def reference():
    """Per-seed (analysis, selection, tables, oracle run)."""
    cache = {}

    def get(seed):
        if seed not in cache:
            workflow, tables = random_workflow(seed)
            analysis = analyze(workflow)
            catalog = generate_css(analysis)
            selection = solve_greedy(
                build_problem(catalog, CostModel(workflow.catalog))
            )
            backend = get_backend("oracle")
            run = BackendExecutor(analysis, backend).run(
                tables, taps=backend.make_taps(selection.observed)
            )
            cache[seed] = (analysis, selection, tables, run)
        return cache[seed]

    return get


@pytest.mark.parametrize("backend_name,workers", VARIANTS, ids=lambda v: str(v))
@pytest.mark.parametrize("seed", SEEDS)
def test_backends_agree_on_random_workflow(seed, backend_name, workers, reference):
    analysis, selection, tables, ref = reference(seed)
    backend, workers = _variant_backend(backend_name, workers)
    run = BackendExecutor(analysis, backend, workers=workers).run(
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

    # identical observation-point sizes
    assert run.se_sizes == ref.se_sizes, seed

    # identical tapped statistics
    for stat in selection.observed:
        assert run.observations.maybe(stat) == ref.observations.get(stat), (
            seed,
            stat,
        )
