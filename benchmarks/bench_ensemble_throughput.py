"""Throughput benchmarks for the ensemble engine and parallel runners.

Two headline numbers back the execution-engine claims:

* **flips/sec, ensemble vs scalar** — the fused engine at ``R = 8`` on a
  128x128 torus against 8 sequential scalar runs of the *same seeds* (flip
  counts asserted equal).  The per-backend flip-loop rates, with the numpy
  backend as their baseline, live in ``bench_flip_loop.py``.
* **cells/sec, serial vs parallel** — ``run_sweep_parallel`` must produce a
  row-for-row identical table to the serial runner; the cells/sec of both
  paths is recorded so pool overheads stay visible in the report.

``REPRO_BENCH_QUICK=1`` caps the per-replica flip budget (same grid, same
assertions) so the file finishes well under 30 seconds.  Every emitted table
also lands as a machine-readable ``BENCH_*.json`` record (see
``benchmarks/_record.py``).
"""

from __future__ import annotations

import time
from typing import Optional

import pytest

from repro.core.config import ModelConfig
from repro.core.ensemble import EnsembleDynamics
from repro.core.simulation import Simulation
from repro.experiments.parallel import default_worker_count, run_sweep_parallel
from repro.experiments.results import ResultTable
from repro.experiments.runner import run_sweep
from repro.experiments.spec import SweepSpec
from repro.experiments.workloads import bench_quick_mode as quick_mode

#: Acceptance floor for the fused engine over sequential scalar runs.
MIN_ENSEMBLE_SPEEDUP = 3.0
#: Conservative floor for the process-pool sweep over the serial runner at
#: >= 2 effective workers (pool start-up and result transfer included).
MIN_PARALLEL_SPEEDUP = 1.1


def throughput_parameters() -> dict[str, Optional[int]]:
    """Benchmark parameters, honouring ``REPRO_BENCH_QUICK``.

    The grid (128x128, w=3, ``R = 8``) never shrinks — the acceptance claim
    is about that size — only the flip budget is capped in quick mode.
    """
    return {
        "side": 128,
        "horizon": 3,
        "n_replicas": 8,
        "max_flips": 4000 if quick_mode() else None,
    }


def bench_ensemble_vs_scalar_flips_per_second(benchmark, emit):
    """R = 8 lockstep replicas vs 8 sequential scalar runs, same seeds."""
    params = throughput_parameters()
    config = ModelConfig.square(
        side=params["side"], horizon=params["horizon"], tau=0.45
    )
    n_replicas = params["n_replicas"]
    max_flips = params["max_flips"]

    def run() -> ResultTable:
        ensemble = EnsembleDynamics(config, n_replicas=n_replicas, seed=7)
        start = time.perf_counter()
        result = ensemble.run(max_flips=max_flips)
        ensemble_seconds = time.perf_counter() - start
        ensemble_flips = result.total_flips

        start = time.perf_counter()
        scalar_flips = 0
        for seed in ensemble.replica_seeds:
            scalar_flips += Simulation(config, seed=seed).run(
                max_flips=max_flips
            ).n_flips
        scalar_seconds = time.perf_counter() - start

        table = ResultTable()
        table.add_row(
            engine="scalar x8",
            flips=scalar_flips,
            seconds=scalar_seconds,
            flips_per_second=scalar_flips / scalar_seconds,
        )
        table.add_row(
            engine="ensemble R=8",
            flips=ensemble_flips,
            seconds=ensemble_seconds,
            flips_per_second=ensemble_flips / ensemble_seconds,
        )
        assert scalar_flips == ensemble_flips, "engines disagree on total flips"
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    rates = table.numeric_column("flips_per_second")
    speedup = rates[1] / rates[0]
    benchmark.extra_info["speedup"] = float(speedup)
    benchmark.extra_info["quick_mode"] = quick_mode()
    emit("PERF_ensemble_throughput", table, benchmark)
    assert speedup >= MIN_ENSEMBLE_SPEEDUP, (
        f"ensemble speedup {speedup:.2f}x below the {MIN_ENSEMBLE_SPEEDUP}x floor"
    )


def bench_parallel_vs_serial_cells_per_second(benchmark, emit):
    """Process-pool sweep vs serial sweep: identical rows, measured rates.

    Refuses to run — and therefore to emit a ``PERF_parallel_sweep_throughput``
    record — when fewer than two workers are effectively available: a
    one-worker "parallel" run exercises the inline serial path, and recording
    it as parallel is how an unmeasured scaling claim once slipped into the
    repo's benchmark records.
    """
    effective = default_worker_count()
    if effective < 2:
        pytest.skip(
            f"only {effective} effective CPU(s) (affinity-aware): a "
            "single-worker run measures the serial path, refusing to record "
            "it as parallel"
        )
    base = ModelConfig.square(side=24 if quick_mode() else 40, horizon=1, tau=0.4)
    sweep = SweepSpec(
        name="throughput",
        base_config=base,
        taus=[0.35, 0.4, 0.45],
        densities=[0.45, 0.55],
        n_replicates=2,
        seed=5,
    )
    workers = min(4, effective)
    n_cells = sweep.n_cells()

    # Both sides run the scalar engine (ensemble_size=1): the bench measures
    # the pool on the scalar cells it was sized for.  On the default
    # ensemble these cells take a few milliseconds each, less than the pool
    # itself costs.
    def run() -> ResultTable:
        start = time.perf_counter()
        serial = run_sweep(sweep, ensemble_size=1)
        serial_seconds = time.perf_counter() - start

        start = time.perf_counter()
        parallel = run_sweep_parallel(sweep, workers=workers, ensemble_size=1)
        parallel_seconds = time.perf_counter() - start

        strip = lambda table: [
            {k: v for k, v in row.items() if k != "wall_clock_seconds"}
            for row in table.rows
        ]
        assert strip(serial) == strip(parallel), "parallel rows diverge from serial"

        table = ResultTable()
        table.add_row(
            runner="serial",
            cells=n_cells,
            seconds=serial_seconds,
            cells_per_second=n_cells / serial_seconds,
        )
        table.add_row(
            runner=f"parallel x{workers}",
            cells=n_cells,
            seconds=parallel_seconds,
            cells_per_second=n_cells / parallel_seconds,
        )
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    rates = table.numeric_column("cells_per_second")
    speedup = float(rates[1] / rates[0])
    benchmark.extra_info["parallel_speedup"] = speedup
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["effective_cpus"] = effective
    emit("PERF_parallel_sweep_throughput", table, benchmark)
    assert speedup >= MIN_PARALLEL_SPEEDUP, (
        f"parallel sweep speedup {speedup:.2f}x at {workers} workers is below "
        f"the {MIN_PARALLEL_SPEEDUP}x floor"
    )
