"""Suite-wide streaming/oracle equivalence.

Every one of the 30 workflows executes identically under the serial
streaming backend (chunked compiled plans, additive taps) and the oracle
columnar interpreter: same targets, same SE sizes, same observed
statistics for the greedy-selected set.
"""

import pytest

from repro.algebra.blocks import analyze
from repro.core.costs import CostModel
from repro.core.generator import generate_css
from repro.core.greedy import solve_greedy
from repro.core.selection import build_problem
from repro.engine.backend import BackendExecutor
from repro.engine.instrumentation import TapSet
from repro.engine.streaming import StreamingTaps
from repro.workloads import suite


@pytest.mark.parametrize("case", suite(), ids=lambda c: f"wf{c.number:02d}")
def test_streaming_equals_columnar(case):
    workflow = case.build()
    analysis = analyze(workflow)
    catalog = generate_css(analysis)
    selection = solve_greedy(build_problem(catalog, CostModel(workflow.catalog)))
    sources = case.tables(scale=0.06, seed=23)

    columnar = BackendExecutor(analysis, "oracle").run(
        sources, taps=TapSet(selection.observed)
    )
    streaming = BackendExecutor(analysis, "streaming").run(
        sources, taps=StreamingTaps(selection.observed)
    )

    assert set(columnar.targets) == set(streaming.targets)
    for name, table in columnar.targets.items():
        attrs = sorted(table.attrs)
        assert sorted(table.rows(attrs)) == sorted(
            streaming.targets[name].rows(attrs)
        ), (case.number, name)
    for se, size in columnar.se_sizes.items():
        assert streaming.se_sizes.get(se) == size, (case.number, se)
    for stat in selection.observed:
        assert streaming.observations.maybe(stat) == columnar.observations.get(
            stat
        ), (case.number, stat)
