"""Measured multi-worker scaling for the process-pool sweep runner.

This bench exists because a scaling claim once went unmeasured: the repo
carried a ``PERF_parallel_sweep_throughput`` record produced with
``workers=1`` — a configuration in which :func:`run_sweep_parallel` runs the
inline *serial* path — labelled as a parallel result.  The rules here prevent
a recurrence:

* **Honest gating** — if fewer than two workers are effectively available
  (affinity-aware, :func:`default_worker_count`), the bench *skips with an
  explicit reason* instead of emitting a record.  A ``workers=1`` run is
  never recorded as parallel.
* **Measured grid** — the sweep runs at every worker count in {1, 2, 4} that
  the host can actually schedule, with row-for-row identity to the
  single-worker table asserted at each count.
* **Asserted floor** — the 2-worker run must beat the 1-worker run by
  :data:`MIN_SCALING_SPEEDUP`; higher counts are recorded for the trajectory
  but carry no floor (CI runners vary in core count).

``REPRO_BENCH_QUICK=1`` shrinks the per-cell work, not the worker grid; the
emitted ``BENCH_PERF_parallel_sweep_scaling.json`` always states the worker
counts and the effective CPU count that produced it.
"""

from __future__ import annotations

import time

import pytest

from repro.core.config import ModelConfig
from repro.experiments.parallel import default_worker_count, run_sweep_parallel
from repro.experiments.results import ResultTable
from repro.experiments.spec import SweepSpec
from repro.experiments.workloads import bench_quick_mode as quick_mode

#: Conservative speedup floor for 2 workers over the inline serial path.
#: Ideal is 2x; pool start-up, result transfer and load imbalance eat into
#: it, so the floor asserts "real parallelism happened", not "perfect
#: scaling".
MIN_SCALING_SPEEDUP = 1.2

#: Worker counts the bench measures (capped by the effective CPU count).
WORKER_GRID = (1, 2, 4)


def scaling_sweep() -> SweepSpec:
    """The benchmark sweep: 8 uniform cells, sized so pool overhead is noise.

    Quick mode keeps each cell at roughly 0.2 s (64x64, 4 replicates) so the
    serial baseline stays under a few seconds while still dwarfing the
    ~tens-of-milliseconds fork-and-collect overhead per worker.  That size
    holds on the scalar engine, so the bench runs it (``ensemble_size=1``):
    it measures the pool on the scalar cells it was sized for.  On the
    default ensemble a cell takes about 10 ms, less than a bare pool
    costs.
    """
    side = 64 if quick_mode() else 96
    return SweepSpec(
        name="scaling",
        base_config=ModelConfig.square(side=side, horizon=1, tau=0.4),
        taus=[0.35, 0.4, 0.45, 0.5],
        densities=[0.45, 0.55],
        n_replicates=4,
        seed=17,
    )


def _strip_timings(table: ResultTable) -> list[dict]:
    """Rows with the wall-clock column removed (the only legitimate diff)."""
    return [
        {key: value for key, value in row.items() if key != "wall_clock_seconds"}
        for row in table.rows
    ]


def bench_sweep_worker_scaling(benchmark, emit):
    """cells/sec at 1, 2 and 4 workers; floor asserted at 2, rows identical."""
    effective = default_worker_count()
    if effective < 2:
        pytest.skip(
            f"only {effective} effective CPU(s) (affinity-aware): a "
            "single-worker run measures the serial path — refusing to emit "
            "a parallel scaling record for it"
        )
    sweep = scaling_sweep()
    n_cells = sweep.n_cells()
    worker_counts = [count for count in WORKER_GRID if count <= effective]
    rounds = 2 if quick_mode() else 1

    def run() -> ResultTable:
        table = ResultTable()
        baseline_rows = None
        baseline_seconds = None
        for workers in worker_counts:
            best = None
            for _ in range(rounds):
                start = time.perf_counter()
                result = run_sweep_parallel(
                    sweep, workers=workers, ensemble_size=1
                )
                elapsed = time.perf_counter() - start
                best = elapsed if best is None else min(best, elapsed)
            stripped = _strip_timings(result)
            if baseline_rows is None:
                baseline_rows, baseline_seconds = stripped, best
            else:
                assert stripped == baseline_rows, (
                    f"rows diverge at workers={workers}"
                )
            table.add_row(
                workers=workers,
                cells=n_cells,
                seconds=best,
                cells_per_second=n_cells / best,
                speedup=baseline_seconds / best,
            )
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    speedups = {
        int(row["workers"]): float(row["speedup"]) for row in table.rows
    }
    benchmark.extra_info["workers_measured"] = sorted(speedups)
    benchmark.extra_info["effective_cpus"] = effective
    benchmark.extra_info["speedup_x2"] = speedups[2]
    if 4 in speedups:
        benchmark.extra_info["speedup_x4"] = speedups[4]
    benchmark.extra_info["quick_mode"] = quick_mode()
    emit("PERF_parallel_sweep_scaling", table, benchmark)
    assert speedups[2] >= MIN_SCALING_SPEEDUP, (
        f"2-worker speedup {speedups[2]:.2f}x is below the "
        f"{MIN_SCALING_SPEEDUP}x floor ({effective} effective CPUs)"
    )
