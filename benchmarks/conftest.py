"""Shared helpers for the benchmark suite.

Every benchmark regenerates one figure/table/claim of the paper (see the
experiment index in DESIGN.md).  The helpers here give each benchmark a
uniform way to (a) print the reproduced rows so that the paper-vs-measured
comparison is visible in the pytest output, and (b) persist them as CSV under
``benchmarks/results/`` for later inspection or plotting.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from _record import record_benchmark
from repro.experiments.results import ResultTable

RESULTS_DIR = Path(__file__).parent / "results"

# The slow reference implementations the benches check against live with
# the tests (``tests/oracles.py``), not in the package.
sys.path.insert(0, str(Path(__file__).parent.parent / "tests"))


def emit_table(name: str, table: ResultTable, benchmark=None) -> Path:
    """Print ``table``, write ``<name>.csv`` and record ``BENCH_<name>.json``.

    When a pytest-benchmark fixture is passed, a couple of headline numbers
    are attached to its ``extra_info`` so they appear in the benchmark
    report; whatever the benchmark has put into ``extra_info`` *before*
    calling ``emit`` also lands in the machine-readable JSON record (see
    ``benchmarks/_record.py``), which CI uploads as an artifact.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.csv"
    table.to_csv(path)
    print(f"\n[{name}] {len(table)} rows -> {path}")
    print(table.to_markdown(float_format=".4g"))
    metrics = {"rows": len(table)}
    if benchmark is not None:
        metrics.update(benchmark.extra_info)
        benchmark.extra_info["rows"] = len(table)
        benchmark.extra_info["csv"] = str(path)
    record_benchmark(name, metrics=metrics, config={"csv": path.name})
    return path


@pytest.fixture
def emit():
    """Fixture handing benchmarks the :func:`emit_table` helper."""
    return emit_table
