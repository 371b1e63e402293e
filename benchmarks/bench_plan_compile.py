"""Ablation: the plan-compilation layer's fused-kernel throughput.

The compile layer lowers each block's algebra DAG to a physical-operator
IR, fuses select/project/transform chains into whole-column kernels, and
caches the result under the workflow's structural signature.  This bench
measures the three claims that justify it:

- **fused vs interpreted**: source rows/second on wf21 (the 8-way-join
  block) for the ``oracle`` columnar interpreter and for each compiled
  profile, cold (compile included in the wall) and warm (plan cache
  hit).  Shape to reproduce: the whole-column ``columnar`` profile runs
  >= 5x faster than the interpreter it must match (about 12-18x on a
  2-CPU box).
- **amortization**: the one-time compile cost against the per-run saving
  over the interpreter, i.e. how many runs until compilation has paid for
  itself (for every profile here: less than one).
- **cache**: the warm run reports zero misses -- recurring loads (the
  paper's premise: the same workflow re-runs nightly) never recompile.

Alongside the markdown artifact this bench emits
``results/plan_compile.json`` for downstream tooling.
"""

import gc
import json
import time

from conftest import single_process_backends, write_report

from repro.algebra.blocks import analyze
from repro.engine.backend import BackendExecutor, get_backend
from repro.engine.compile import compile_blocks
from repro.workloads import case

WORKFLOW = 21  # largest single-block workload: 8-way join
SCALE = 4.0
REPEATS = 5  # best-of-N: the speedup floor must hold under box noise
#: compiled whole-column profile vs the oracle interpreter, warm
COLUMNAR_FLOOR = 5.0


def _best_wall(fn):
    best = float("inf")
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(REPEATS):
            gc.collect()
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return best


def _compile_time(analysis, backend_name):
    """Median one-shot compile wall for the backend's profile."""
    profile = get_backend(backend_name).compiled_profile()
    walls = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        compile_blocks(analysis, backend=backend_name, profile=profile)
        walls.append(time.perf_counter() - t0)
    return sorted(walls)[len(walls) // 2]


def _measure():
    wfcase = case(WORKFLOW)
    analysis = analyze(wfcase.build())
    sources = wfcase.tables(scale=SCALE, seed=7)
    n_rows = sum(t.num_rows for t in sources.values())

    rows = []
    records = []
    interp = _best_wall(lambda: BackendExecutor(analysis, "oracle").run(sources))
    for backend in single_process_backends():
        # cold: a fresh executor per run, so every wall pays compilation
        cold = _best_wall(lambda: BackendExecutor(analysis, backend).run(sources))
        # warm: one executor, cache primed before timing
        executor = BackendExecutor(analysis, backend)
        executor.run(sources)
        warm = _best_wall(lambda: executor.run(sources))
        assert executor.plan_cache.misses == len(analysis.blocks)

        compile_s = _compile_time(analysis, backend)
        saving = interp - warm
        amortize = compile_s / saving if saving > 0 else float("inf")
        speedup = interp / warm
        rows.append(
            [
                backend,
                round(interp * 1e3, 1),
                round(cold * 1e3, 1),
                round(warm * 1e3, 1),
                round(n_rows / interp),
                round(n_rows / warm),
                round(speedup, 2),
                round(compile_s * 1e3, 2),
                round(amortize, 3),
            ]
        )
        records.append(
            {
                "workflow": WORKFLOW,
                "scale": SCALE,
                "source_rows": n_rows,
                "backend": backend,
                "interpreted_wall_s": interp,
                "compiled_cold_wall_s": cold,
                "compiled_warm_wall_s": warm,
                "interpreted_rows_per_s": n_rows / interp,
                "compiled_rows_per_s": n_rows / warm,
                "speedup": speedup,
                "compile_s": compile_s,
                "runs_to_amortize": amortize,
            }
        )
    return rows, records


def test_plan_compile(benchmark, results_dir):
    rows, records = benchmark.pedantic(_measure, rounds=1, iterations=1)
    write_report(
        results_dir,
        "plan_compile",
        f"Plan compilation: fused vs the oracle interpreter "
        f"(wf{WORKFLOW} @ {SCALE:g})",
        ["backend", "interp ms", "cold ms", "warm ms", "interp rows/s",
         "fused rows/s", "speedup", "compile ms", "runs to amortize"],
        rows,
    )
    (results_dir / "plan_compile.json").write_text(
        json.dumps({"plan_compile": records}, indent=2) + "\n"
    )

    by_backend = {r["backend"]: r for r in records}
    # fused whole-column kernels beat the interpreter they must match
    assert by_backend["columnar"]["speedup"] >= COLUMNAR_FLOOR, (
        by_backend["columnar"]
    )
    # compilation itself is cheap: it pays for itself within a single run
    for r in records:
        assert r["runs_to_amortize"] < 1.0, r
        # and the cold run (compile included) never loses to the interpreter
        assert r["compiled_cold_wall_s"] <= r["interpreted_wall_s"], r
