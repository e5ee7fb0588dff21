"""Flip-loop microbenchmark: the fused round kernel in isolation.

Where ``bench_ensemble_throughput.py`` measures end-to-end ``run()`` rates,
this file times the per-round hot path alone — repeated ``step_all`` calls —
for the fused :class:`~repro.core.ensemble.EnsembleDynamics` against the
retained pre-fusion :class:`~repro.core.ensemble.ReferenceEnsembleDynamics`,
across several replica counts.  It is the microscope for the PR 5 tentpole:
regressions in the blocked-RNG draws, the batched index-set updates or the
fused window kernel show up here first, before they wash out in end-to-end
numbers.

Both engines advance bitwise-identical dynamics (asserted by the ensemble
test suite), so rounds/sec is a work-for-work comparison.  Quick mode trims
the round budget only; results land in ``PERF_flip_loop.csv`` and the
machine-readable ``BENCH_PERF_flip_loop.json``.  The per-backend bench
times ``run`` next to ``step_all``, since a backend may drive the whole
round loop natively.
"""

from __future__ import annotations

import time

from repro.core.backends.registry import available_backends
from repro.core.config import ModelConfig
from repro.core.ensemble import EnsembleDynamics, ReferenceEnsembleDynamics
from repro.experiments.results import ResultTable
from repro.experiments.workloads import bench_quick_mode as quick_mode
from repro.rng import ziggurat_exponential_tables

#: Microbench floor for the fused step loop at R = 8 (kept a notch below the
#: end-to-end 2x acceptance floor to absorb per-round timing noise).
MIN_STEP_SPEEDUP = 1.6

#: Replica counts to profile; the R = 8 row carries the assertion.
REPLICA_COUNTS = (4, 8, 16)

#: Flips/sec floor a compiled flip-loop backend (numba or cffi) must clear
#: over the numpy backend at R = 8 on the 128x128 grid.  Asserted whenever a
#: compiled backend is available — including in quick mode, where the round
#: budget is trimmed but the ratio is stable.
MIN_COMPILED_STEP_SPEEDUP = 3.0

#: Backends whose kernels are compiled (vs interpreted); the ``python``
#: backend is excluded from the bench outright — it exists as numba's
#: oracle, not as an execution engine anyone would time.
COMPILED_BACKENDS = ("numba", "cffi")


def flip_loop_parameters() -> dict[str, int]:
    """Grid/budget parameters, honouring ``REPRO_BENCH_QUICK``."""
    return {
        "side": 128,
        "horizon": 3,
        "rounds": 400 if quick_mode() else 4000,
        "run_steps": 4000 if quick_mode() else 20000,
    }


def _rounds_per_second(engine, rounds: int) -> float:
    """Time ``rounds`` consecutive ``step_all`` calls on a fresh engine."""
    start = time.perf_counter()
    for _ in range(rounds):
        engine.step_all()
    return rounds / (time.perf_counter() - start)


def _run_rates(engine, max_steps: int) -> tuple[int, float, float]:
    """Time one ``run(max_steps=...)``: ``(rounds, rounds/s, flips/s)``.

    Every active replica steps once per round, so the round count is the
    largest per-replica step count.
    """
    start = time.perf_counter()
    result = engine.run(max_steps=max_steps)
    elapsed = time.perf_counter() - start
    rounds = int(result.n_steps.max())
    return rounds, rounds / elapsed, result.total_flips / elapsed


def bench_flip_loop_rounds_per_second(benchmark, emit):
    """step_all rounds/sec, fused vs reference, across replica counts."""
    params = flip_loop_parameters()
    config = ModelConfig.square(
        side=params["side"], horizon=params["horizon"], tau=0.45
    )
    rounds = params["rounds"]
    ziggurat_exponential_tables()  # one-time calibration outside the timing

    def run() -> ResultTable:
        table = ResultTable()
        for n_replicas in REPLICA_COUNTS:
            rates = {}
            for label, engine_cls in (
                ("reference", ReferenceEnsembleDynamics),
                ("fused", EnsembleDynamics),
            ):
                best = 0.0
                for _ in range(3 if quick_mode() else 1):
                    engine = engine_cls(config, n_replicas=n_replicas, seed=11)
                    best = max(best, _rounds_per_second(engine, rounds))
                rates[label] = best
                table.add_row(
                    engine=label,
                    n_replicas=n_replicas,
                    rounds=rounds,
                    rounds_per_second=best,
                    flips_per_second=best * n_replicas,
                )
            table.add_row(
                engine="speedup",
                n_replicas=n_replicas,
                rounds=rounds,
                rounds_per_second=rates["fused"] / rates["reference"],
                flips_per_second=rates["fused"] / rates["reference"],
            )
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    speedups = {
        row["n_replicas"]: row["rounds_per_second"]
        for row in table.rows
        if row["engine"] == "speedup"
    }
    benchmark.extra_info["quick_mode"] = quick_mode()
    for n_replicas, speedup in speedups.items():
        benchmark.extra_info[f"speedup_r{n_replicas}"] = float(speedup)
    emit("PERF_flip_loop", table, benchmark)
    assert speedups[8] >= MIN_STEP_SPEEDUP, (
        f"fused step loop {speedups[8]:.2f}x below the {MIN_STEP_SPEEDUP}x floor"
    )


def bench_flip_loop_backends(benchmark, emit):
    """flips/sec per flip-loop backend at R = 8; compiled floor asserted.

    Times two paths with each available backend on one
    :class:`EnsembleDynamics` grid (128x128, w=3, R=8): repeated
    ``step_all`` calls (one round per call) and one ``run`` over a fixed
    step budget, which a backend may drive natively.  Each row records
    flips/sec and microseconds per lockstep round, so a per-round
    regression can be traced to its path.  All backends advance
    bitwise-identical dynamics (asserted by the cross-backend test suite), so
    flips/sec is a work-for-work comparison.  Whenever a compiled backend
    (numba or cffi) is available, its ``step_all`` speedup over the numpy
    backend must clear :data:`MIN_COMPILED_STEP_SPEEDUP`; on numpy-only
    hosts the bench records the numpy rates and asserts nothing.
    """
    params = flip_loop_parameters()
    config = ModelConfig.square(
        side=params["side"], horizon=params["horizon"], tau=0.45
    )
    n_replicas = 8
    ziggurat_exponential_tables()  # one-time calibration outside the timing
    backends = [name for name in available_backends() if name != "python"]

    def run() -> ResultTable:
        table = ResultTable()
        for name in backends:
            for path in ("step_all", "run"):
                best = (0, 0.0, 0.0)
                for _ in range(3 if quick_mode() else 1):
                    engine = EnsembleDynamics(
                        config, n_replicas=n_replicas, seed=11, backend=name
                    )
                    engine.step_all()  # warm-up: JIT/compile + capture
                    if path == "run":
                        rates = _run_rates(engine, params["run_steps"])
                    else:
                        per_second = _rounds_per_second(engine, params["rounds"])
                        rates = (
                            params["rounds"], per_second, per_second * n_replicas
                        )
                    best = max(best, rates, key=lambda rate: rate[2])
                rounds, rounds_per_second, flips_per_second = best
                table.add_row(
                    engine=name,
                    path=path,
                    n_replicas=n_replicas,
                    rounds=rounds,
                    rounds_per_second=rounds_per_second,
                    us_per_round=1e6 / rounds_per_second,
                    flips_per_second=flips_per_second,
                )
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    rates = {
        (row["engine"], row["path"]): row["flips_per_second"]
        for row in table.rows
    }
    benchmark.extra_info["quick_mode"] = quick_mode()
    benchmark.extra_info["backends"] = ",".join(backends)
    for (name, path), rate in rates.items():
        suffix = name if path == "step_all" else f"{name}_run"
        benchmark.extra_info[f"flips_per_second_{suffix}"] = float(rate)
        if name != "numpy":
            benchmark.extra_info[f"speedup_{suffix}"] = float(
                rate / rates[("numpy", path)]
            )
    emit("PERF_flip_loop_backends", table, benchmark)
    compiled = [name for name in backends if name in COMPILED_BACKENDS]
    for name in compiled:
        speedup = rates[(name, "step_all")] / rates[("numpy", "step_all")]
        assert speedup >= MIN_COMPILED_STEP_SPEEDUP, (
            f"{name} backend {speedup:.2f}x below the "
            f"{MIN_COMPILED_STEP_SPEEDUP}x step_all flips/sec floor over numpy"
        )
