"""Shared fixtures and reporting helpers for the experiment benches.

Every bench regenerates one table or figure from the paper's Section 7 (or
an ablation motivated by it), prints the series, and writes a markdown
artifact under ``benchmarks/results/`` so the numbers survive the run.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.algebra.blocks import analyze
from repro.workloads import suite

RESULTS_DIR = Path(__file__).parent / "results"

#: the ILP gets this long per workflow before reporting its incumbent
ILP_TIME_LIMIT = float(os.environ.get("REPRO_ILP_TIME_LIMIT", "15"))

#: scale factor for benches that execute data (kept small for CI boxes)
DATA_SCALE = float(os.environ.get("REPRO_DATA_SCALE", "0.3"))


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def workflow_cases():
    return suite()


@pytest.fixture(scope="session")
def workflow_analyses(workflow_cases):
    """(case, workflow, analysis) for all 30 suite members."""
    out = []
    for case in workflow_cases:
        workflow = case.build()
        out.append((case, workflow, analyze(workflow)))
    return out


def single_process_backends() -> list[str]:
    """The in-process execution engines the generic ablations compare.

    The multiprocess backend is deliberately excluded: it forks a worker
    pool per configuration (skewing in-process overhead measurements) and
    has its own dedicated scaling bench, ``bench_dist_throughput``.  So is
    the ``oracle`` interpreter, a test reference rather than an engine;
    the benches that time compilation compare against it explicitly.
    """
    from repro.engine.backend import available_backends

    return [
        b for b in available_backends() if b not in ("multiprocess", "oracle")
    ]


def write_report(results_dir: Path, name: str, title: str,
                 header: list[str], rows: list[list]) -> str:
    """Render a markdown table, print it, and persist it."""
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(header)
    ]
    lines = [f"# {title}", ""]
    lines.append("| " + " | ".join(str(h).ljust(w) for h, w in zip(header, widths)) + " |")
    lines.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    for row in rows:
        lines.append(
            "| " + " | ".join(str(v).ljust(w) for v, w in zip(row, widths)) + " |"
        )
    text = "\n".join(lines)
    (results_dir / f"{name}.md").write_text(text + "\n")
    print("\n" + text)
    return text
