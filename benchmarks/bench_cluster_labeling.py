"""Throughput benchmarks for the vectorized cluster labeller.

Two headline numbers back the measurement-pipeline claims:

* **labels/sec** — sites labelled per second by
  :func:`repro.percolation.cluster.label_clusters` on random masks from
  256^2 up to 1024^2, below and above the site-percolation threshold, with
  both free and periodic boundaries.  This is the hot path under
  ``analysis/clusters.py``, ``analysis/segregation.py`` and every
  cluster-reporting benchmark.
* **speedup vs reference** — on a 512x512 mask at ``p = 0.6`` with periodic
  boundaries the vectorized labeller must be at least 10x faster than
  ``label_clusters_reference`` in ``tests/oracles.py`` (the scalar
  union/find loop it replaced),
  with bitwise-identical label arrays.

``REPRO_BENCH_QUICK=1`` drops the 1024^2 masks and shrinks the repeat count
(same densities, same assertions) so the file finishes well under 30 seconds.
"""

from __future__ import annotations

import time

import numpy as np

from oracles import label_clusters_reference
from repro.experiments.results import ResultTable
from repro.experiments.workloads import bench_quick_mode as quick_mode
from repro.percolation.cluster import label_clusters

#: Acceptance floor for the vectorized labeller on the 512^2 / p=0.6 mask.
MIN_LABELING_SPEEDUP = 10.0

#: Densities straddling the square-lattice site threshold (~0.5927).
SUB_CRITICAL_P = 0.45
SUPER_CRITICAL_P = 0.65


def labeling_parameters() -> dict[str, object]:
    """Benchmark parameters, honouring ``REPRO_BENCH_QUICK``."""
    return {
        "sides": (256, 512) if quick_mode() else (256, 512, 1024),
        "densities": (SUB_CRITICAL_P, SUPER_CRITICAL_P),
        "repeats": 3 if quick_mode() else 5,
    }


def _time_labeling(mask: np.ndarray, periodic: bool, repeats: int) -> float:
    """Best-of-``repeats`` wall-clock seconds for one labelling call."""
    label_clusters(mask, periodic=periodic)  # warm-up outside the timer
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        label_clusters(mask, periodic=periodic)
        best = min(best, time.perf_counter() - start)
    return best


def bench_labels_per_second(benchmark, emit):
    """Sites labelled per second across sizes, densities and boundary modes."""
    params = labeling_parameters()
    rng = np.random.default_rng(2024)

    def run() -> ResultTable:
        table = ResultTable()
        for side in params["sides"]:
            for p_open in params["densities"]:
                mask = rng.random((side, side)) < p_open
                for periodic in (False, True):
                    seconds = _time_labeling(mask, periodic, params["repeats"])
                    table.add_row(
                        side=side,
                        p_open=p_open,
                        boundary="periodic" if periodic else "free",
                        seconds=seconds,
                        labels_per_second=mask.size / seconds,
                    )
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("PERF_cluster_labeling", table, benchmark)
    rates = table.numeric_column("labels_per_second")
    benchmark.extra_info["min_labels_per_second"] = float(min(rates))
    benchmark.extra_info["quick_mode"] = quick_mode()
    assert min(rates) > 0


def bench_vectorized_vs_reference_speedup(benchmark, emit):
    """Vectorized labeller vs the scalar reference: identical labels, >= 10x."""
    params = labeling_parameters()
    rng = np.random.default_rng(7)
    mask = rng.random((512, 512)) < 0.6

    def run() -> ResultTable:
        start = time.perf_counter()
        reference_labels = label_clusters_reference(mask, periodic=True)
        reference_seconds = time.perf_counter() - start
        vectorized_seconds = _time_labeling(mask, True, params["repeats"])
        vectorized_labels = label_clusters(mask, periodic=True)
        assert np.array_equal(reference_labels, vectorized_labels), (
            "vectorized labels diverge from the reference implementation"
        )

        table = ResultTable()
        table.add_row(
            labeller="reference",
            seconds=reference_seconds,
            labels_per_second=mask.size / reference_seconds,
        )
        table.add_row(
            labeller="vectorized",
            seconds=vectorized_seconds,
            labels_per_second=mask.size / vectorized_seconds,
        )
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("PERF_cluster_labeling_speedup", table, benchmark)
    rates = table.numeric_column("labels_per_second")
    speedup = rates[1] / rates[0]
    benchmark.extra_info["speedup"] = float(speedup)
    benchmark.extra_info["quick_mode"] = quick_mode()
    assert speedup >= MIN_LABELING_SPEEDUP, (
        f"labelling speedup {speedup:.2f}x below the {MIN_LABELING_SPEEDUP}x floor"
    )
