"""Supervision overhead and fault-recovery cost of the sweep supervisor.

The fault-tolerance layer (retry bookkeeping, breadcrumb markers, deadline
tracking) must be effectively free when nothing goes wrong — a sweep run
with supervision enabled but no faults must stay within
:data:`MAX_SUPERVISION_OVERHEAD` of the plain path.  This bench measures
that overhead directly (best-of-``rounds`` on both sides, identical rows
asserted) and, for the trajectory, the wall-clock cost of recovering from an
injected crash.

Skips when fewer than two effective CPUs are available: the comparison is
about the *pool* supervisor, and a single-worker host would measure the
inline serial path instead.

``REPRO_BENCH_QUICK=1`` shrinks the per-cell work; the emitted
``BENCH_PERF_fault_recovery.json`` states the regime, cell grid and measured
ratios.
"""

from __future__ import annotations

import time
import warnings

import pytest

from repro.core.config import ModelConfig
from repro.errors import SweepDegradationWarning
from repro.experiments.faults import FaultPlan
from repro.experiments.parallel import default_worker_count, run_sweep_parallel
from repro.experiments.results import ResultTable
from repro.experiments.spec import SweepSpec
from repro.experiments.workloads import bench_quick_mode as quick_mode

#: Fault-free supervised runtime may exceed the plain runtime by at most
#: this fraction.  The supervisor's per-cell costs are two marker-file
#: touches and dictionary bookkeeping — noise next to any real cell.
MAX_SUPERVISION_OVERHEAD = 0.05

#: Best-of rounds per measured configuration (overhead ratios are noisy).
ROUNDS = 3


def recovery_sweep() -> SweepSpec:
    """Eight uniform cells sized so per-cell work dwarfs supervision costs.

    The size holds on the scalar engine, so every run below passes
    ``ensemble_size=1``: the bench measures the supervisor on the scalar
    cells it was sized for.  On the default ensemble a cell is short enough
    that pool noise swamps the 5% budget.
    """
    side = 48 if quick_mode() else 80
    return SweepSpec(
        name="fault-recovery",
        base_config=ModelConfig.square(side=side, horizon=1, tau=0.4),
        taus=[0.35, 0.4, 0.45, 0.5],
        densities=[0.45, 0.55],
        n_replicates=2,
        seed=23,
    )


def _strip_timings(table: ResultTable) -> list[dict]:
    """Rows with the wall-clock column removed (the only legitimate diff)."""
    return [
        {key: value for key, value in row.items() if key != "wall_clock_seconds"}
        for row in table.rows
    ]


def _best_of(fn, rounds: int) -> tuple[float, ResultTable]:
    """Minimum wall-clock over ``rounds`` runs, plus the last table."""
    best = None
    table = None
    for _ in range(rounds):
        start = time.perf_counter()
        table = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, table


def bench_supervision_overhead(benchmark, emit):
    """Fault-free supervised vs plain sweep; overhead asserted under 5%."""
    effective = default_worker_count()
    if effective < 2:
        pytest.skip(
            f"only {effective} effective CPU(s): the supervised-vs-plain "
            "comparison needs a real worker pool"
        )
    sweep = recovery_sweep()
    workers = min(2, effective)

    def run() -> ResultTable:
        plain_seconds, plain_table = _best_of(
            lambda: run_sweep_parallel(sweep, workers=workers, ensemble_size=1),
            ROUNDS,
        )
        supervised_seconds, supervised_table = _best_of(
            lambda: run_sweep_parallel(
                sweep,
                workers=workers,
                ensemble_size=1,
                retries=2,
                on_error="skip",
                cell_timeout=600.0,
            ),
            ROUNDS,
        )
        assert _strip_timings(supervised_table) == _strip_timings(plain_table)
        assert supervised_table.failures == []

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SweepDegradationWarning)
            recovery_seconds, recovered_table = _best_of(
                lambda: run_sweep_parallel(
                    sweep,
                    workers=workers,
                    ensemble_size=1,
                    retries=2,
                    on_error="retry",
                    backoff=0.0,
                    fault_plan=FaultPlan().crash(1),
                ),
                1,
            )
        assert _strip_timings(recovered_table) == _strip_timings(plain_table)

        table = ResultTable()
        table.add_row(
            mode="plain",
            seconds=plain_seconds,
            overhead=0.0,
        )
        table.add_row(
            mode="supervised",
            seconds=supervised_seconds,
            overhead=supervised_seconds / plain_seconds - 1.0,
        )
        table.add_row(
            mode="crash-recovery",
            seconds=recovery_seconds,
            overhead=recovery_seconds / plain_seconds - 1.0,
        )
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    by_mode = {row["mode"]: row for row in table.rows}
    overhead = float(by_mode["supervised"]["overhead"])
    benchmark.extra_info["supervision_overhead"] = overhead
    benchmark.extra_info["recovery_overhead"] = float(
        by_mode["crash-recovery"]["overhead"]
    )
    benchmark.extra_info["workers"] = min(2, effective)
    benchmark.extra_info["effective_cpus"] = effective
    benchmark.extra_info["quick_mode"] = quick_mode()
    emit("PERF_fault_recovery", table, benchmark)
    assert overhead <= MAX_SUPERVISION_OVERHEAD, (
        f"fault-free supervision overhead {overhead:.1%} exceeds the "
        f"{MAX_SUPERVISION_OVERHEAD:.0%} budget"
    )
