"""Flip-loop microbenchmark: the round loop of each backend in isolation.

Where ``bench_ensemble_throughput.py`` measures the engine against
sequential scalar runs, this file times the flip loop alone for every
available backend of :class:`~repro.core.ensemble.EnsembleDynamics`, across
several replica counts, on two paths: repeated ``step_all`` calls (one round
per call) and one budgeted ``run``, which a compiled backend drives as one
native call that runs one replica at a time.  The numpy backend — the
Python round loop, lockstep across replicas — is the baseline: regressions
in its per-replica ``Generator`` draws, the batched index-set updates or the
fused window kernel show up here first, before they wash out in end-to-end
numbers.  Rounds are lockstep rounds on either backend: a compiled run's
round count is the most steps any replica took.

All backends advance bitwise-identical dynamics (asserted by the test
suite), so flips/sec is a work-for-work comparison.  Quick mode trims the
round budget only; results land in ``PERF_flip_loop_backends.csv`` and the
machine-readable ``BENCH_PERF_flip_loop_backends.json``.

The per-flip cost bench records what a flip loop with no Python in it
should deliver: µs/flip of one ``run()`` at 64², 256² and 512² (a flip
touches the same 49-site window at every size, so growth is memory
traffic), at one and eight replicas on 256² and at two on 512² (whether
the cost tracks one replica's arrays or the whole stack's), and the 256²
run's slowdown with a busy Python thread alongside, next to a busy
*process* as the control for plain CPU contention.  It asserts only that
each compiled ``run()`` was exactly one native call.

The engine-build bench times what every cell pays before its first flip:
``recompute_all`` (counts, codes, samplers and counters from the spins),
compiled (one ``repro_rebuild`` call per stack) against the numpy array
build that hosts without a C toolchain run.  Both must leave the same
engine state, and the compiled build must be at least
:data:`MIN_COMPILED_BUILD_SPEEDUP` times faster on the ``sweep-large-grid``
cell (256², w = 3, R = 8), or the second mechanism does not pay for its
code.  The smaller cells are recorded without a floor.
"""

from __future__ import annotations

import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.backends.cffi_backend import cffi_available, cffi_unavailable_reason
from repro.core.backends.registry import available_backends, default_backend_name
from repro.core.config import ModelConfig
from repro.core.ensemble import EnsembleDynamics
from repro.experiments.results import ResultTable
from repro.experiments.workloads import bench_quick_mode as quick_mode

#: Replica counts to profile; the R = 8 rows carry the assertions.
REPLICA_COUNTS = (4, 8, 16)

#: Flips/sec floor the compiled flip-loop backend (cffi) must clear over
#: the numpy backend at R = 8 on the 128x128 grid, on both the ``step_all``
#: and the ``run`` path.  Asserted whenever the compiled backend is
#: available — including in quick mode, where the round budget is trimmed
#: but the ratio is stable.
MIN_COMPILED_STEP_SPEEDUP = 3.0

#: Backends whose flip loop is compiled, held to the floor above.
COMPILED_BACKENDS = ("cffi",)


#: ``(side, R)`` of the quiet per-flip cost rows (w = 3, tau = 0.45), in
#: run order: R = 8 at every side, one replica at 256² and R = 2 at 512²
#: (the site count of 256² at R = 8), each just before its side's R = 8 row.
COST_RUNS = ((64, 8), (256, 1), (256, 8), (512, 2), (512, 8))

#: The side at which the busy-thread and busy-process ratios are taken.
CONTENTION_SIDE = 256

#: Floor on the compiled ``recompute_all``'s speedup over the numpy build
#: on the first of :data:`BUILD_CELLS`.
MIN_COMPILED_BUILD_SPEEDUP = 3.0

#: ``(side, w, R)`` of the engine-build rows (tau = 0.45): the
#: ``sweep-large-grid`` cell, which carries the floor, then two smaller
#: cells recorded without one (32², w = 1, R = 4 is serving's on-miss cell).
BUILD_CELLS = ((256, 3, 8), (128, 3, 8), (32, 1, 4))


def flip_loop_parameters() -> dict[str, int]:
    """Grid/budget parameters, honouring ``REPRO_BENCH_QUICK``."""
    return {
        "side": 128,
        "horizon": 3,
        "rounds": 400 if quick_mode() else 4000,
        "run_steps": 4000 if quick_mode() else 20000,
        # Per-replica step budget of the per-flip cost runs; full mode
        # runs every grid to termination.
        "scaling_steps": 20000 if quick_mode() else None,
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


def bench_flip_loop_backends(benchmark, emit):
    """flips/sec per flip-loop backend and replica count; compiled floor asserted.

    Times two paths with each available backend on one
    :class:`EnsembleDynamics` grid (128x128, w=3) at every replica count in
    :data:`REPLICA_COUNTS`: repeated ``step_all`` calls (one round per call)
    and one ``run`` over a fixed step budget, which a backend may drive
    natively.  Each row records flips/sec and microseconds per lockstep
    round, so a per-round regression can be traced to its path.  Whenever
    the compiled backend (cffi) is available, its speedup over the numpy
    backend at R = 8 must clear :data:`MIN_COMPILED_STEP_SPEEDUP` on both
    paths; on numpy-only hosts the bench records the numpy rates and
    asserts nothing.
    """
    params = flip_loop_parameters()
    config = ModelConfig.square(
        side=params["side"], horizon=params["horizon"], tau=0.45
    )
    backends = available_backends()

    def run() -> ResultTable:
        table = ResultTable()
        for n_replicas in REPLICA_COUNTS:
            for name in backends:
                for path in ("step_all", "run"):
                    best = (0, 0.0, 0.0)
                    for _ in range(3 if quick_mode() else 1):
                        engine = EnsembleDynamics(
                            config, n_replicas=n_replicas, seed=11, backend=name
                        )
                        engine.step_all()  # warm-up: compile + capture
                        if path == "run":
                            rates = _run_rates(engine, params["run_steps"])
                        else:
                            per_second = _rounds_per_second(
                                engine, params["rounds"]
                            )
                            rates = (
                                params["rounds"],
                                per_second,
                                per_second * n_replicas,
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
        (row["engine"], row["path"], row["n_replicas"]): row["flips_per_second"]
        for row in table.rows
    }
    benchmark.extra_info["quick_mode"] = quick_mode()
    benchmark.extra_info["backends"] = ",".join(backends)
    for (name, path, n_replicas), rate in rates.items():
        path_tag = "" if path == "step_all" else "_run"
        suffix = f"{name}{path_tag}_r{n_replicas}"
        benchmark.extra_info[f"flips_per_second_{suffix}"] = float(rate)
        if name != "numpy":
            benchmark.extra_info[f"speedup_{suffix}"] = float(
                rate / rates[("numpy", path, n_replicas)]
            )
    emit("PERF_flip_loop_backends", table, benchmark)
    compiled = [name for name in backends if name in COMPILED_BACKENDS]
    for name in compiled:
        for path in ("step_all", "run"):
            speedup = rates[(name, path, 8)] / rates[("numpy", path, 8)]
            assert speedup >= MIN_COMPILED_STEP_SPEEDUP, (
                f"{name} backend {speedup:.2f}x below the "
                f"{MIN_COMPILED_STEP_SPEEDUP}x {path} flips/sec floor over "
                "numpy at R = 8"
            )


def _counted_run(engine, max_steps) -> tuple[float, int, int]:
    """Time one ``run``: ``(seconds, flips, native calls)``.

    A backend with a native round loop exposes it as ``_run_fn``; the
    count wraps it, so a run that returned to Python between rounds shows
    up as more than one call.  Backends without one report zero calls.
    """
    backend = engine._backend
    calls = [0]
    native = getattr(backend, "_run_fn", None)
    if native is not None:
        def counted(*args):
            calls[0] += 1
            return native(*args)

        backend._run_fn = counted
    start = time.perf_counter()
    result = engine.run(max_steps=max_steps)
    elapsed = time.perf_counter() - start
    if native is not None:
        backend._run_fn = native
    return elapsed, result.total_flips, calls[0]


def _contended_run(config, max_steps, load: str) -> tuple[float, int, int]:
    """One fresh R = 8 run with ``load`` ("quiet", "thread", "process")."""
    engine = EnsembleDynamics(config, n_replicas=8, seed=11)
    stop = threading.Event()
    worker = None
    process = None
    if load == "thread":
        def spin() -> None:
            while not stop.is_set():
                pass

        worker = threading.Thread(target=spin, daemon=True)
        worker.start()
    elif load == "process":
        process = subprocess.Popen([sys.executable, "-c", "while True: pass"])
        time.sleep(0.2)  # let the interpreter start spinning
    try:
        return _counted_run(engine, max_steps)
    finally:
        stop.set()
        if worker is not None:
            worker.join()
        if process is not None:
            process.kill()
            process.wait()


def bench_flip_loop_per_flip_cost(benchmark, emit):
    """µs/flip of ``run()`` by grid side and replica count; busy-thread ratio.

    Uses the default backend (cffi when it loads).  Quiet rows
    (:data:`COST_RUNS`; w = 3, tau = 0.45) record µs/flip and the native
    call count: one per grid side at R = 8 (64², 256², 512²), one replica
    at 256² and R = 2 at 512².  ``us_per_flip_ratio_r8_over_r1`` is what
    running eight replicas costs a flip over running one; 512² at R = 2
    holds as many sites as 256² at R = 8.  Then come the 256² R = 8 run
    quiet, beside a busy Python thread and beside a busy process.  The
    thread ratio measures what the GIL still costs a run; the process
    ratio is the same host's CPU contention with no GIL involved, so their
    quotient isolates the GIL.  Only the native call count is asserted
    (exactly one per compiled run); the timings and ratios go into the
    record.
    """
    params = flip_loop_parameters()
    max_steps = params["scaling_steps"]
    configs = {
        side: ModelConfig.square(side=side, horizon=3, tau=0.45)
        for side, _ in COST_RUNS
    }
    EnsembleDynamics(configs[COST_RUNS[0][0]], n_replicas=8, seed=11).run(
        max_steps=1
    )  # warm-up: compile + capture
    native_calls: list[int] = []

    def run() -> ResultTable:
        table = ResultTable()
        for side, n_replicas in COST_RUNS:
            engine = EnsembleDynamics(configs[side], n_replicas=n_replicas, seed=11)
            elapsed, flips, calls = _counted_run(engine, max_steps)
            native_calls.append(calls)
            table.add_row(
                grid=f"{side}x{side}",
                n_replicas=n_replicas,
                load="quiet",
                flips=flips,
                seconds=elapsed,
                us_per_flip=1e6 * elapsed / flips,
                native_calls=calls,
            )
        for load in ("quiet", "thread", "process"):
            elapsed, flips, calls = _contended_run(
                configs[CONTENTION_SIDE], max_steps, load
            )
            native_calls.append(calls)
            table.add_row(
                grid=f"{CONTENTION_SIDE}x{CONTENTION_SIDE}",
                n_replicas=8,
                load=f"contention:{load}",
                flips=flips,
                seconds=elapsed,
                us_per_flip=1e6 * elapsed / flips,
                native_calls=calls,
            )
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    cost = {
        (row["grid"], row["n_replicas"]): row["us_per_flip"]
        for row in table.rows
        if row["load"] == "quiet"
    }
    contention = {
        row["load"].split(":")[1]: row["seconds"]
        for row in table.rows
        if row["load"].startswith("contention:")
    }
    engine_backend = default_backend_name()
    benchmark.extra_info["quick_mode"] = quick_mode()
    benchmark.extra_info["backend"] = engine_backend
    for (grid, n_replicas), us in cost.items():
        suffix = "" if n_replicas == 8 else f"_r{n_replicas}"
        benchmark.extra_info[f"us_per_flip_{grid}{suffix}"] = float(us)
    benchmark.extra_info["us_per_flip_ratio_512_over_64"] = float(
        cost[("512x512", 8)] / cost[("64x64", 8)]
    )
    benchmark.extra_info["us_per_flip_ratio_r8_over_r1"] = float(
        cost[("256x256", 8)] / cost[("256x256", 1)]
    )
    benchmark.extra_info["busy_thread_ratio"] = float(
        contention["thread"] / contention["quiet"]
    )
    benchmark.extra_info["busy_process_ratio"] = float(
        contention["process"] / contention["quiet"]
    )
    emit("PERF_flip_loop_per_flip_cost", table, benchmark)
    if engine_backend in COMPILED_BACKENDS:
        assert native_calls == [1] * len(native_calls), (
            f"compiled run() returned to Python mid-run: {native_calls} native calls"
        )


def _build_state(engine) -> list[np.ndarray]:
    """What ``recompute_all`` writes: counts, codes, samplers and counters."""
    _, positions, counts = engine._sets.storage()
    return [
        engine._same_flat,
        engine._code_flat,
        positions,
        counts,
        engine._energies,
        engine._n_plus,
        *(engine._sets.packed_members(row) for row in range(2 * engine.n_replicas)),
    ]


def _best_build_seconds(engine, repeats: int) -> float:
    """The fastest of ``repeats`` ``recompute_all`` calls on ``engine``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        engine.recompute_all()
        best = min(best, time.perf_counter() - start)
    return best


def bench_compiled_build_speedup(benchmark, emit):
    """Compiled vs numpy ``recompute_all``: equal engine state, >= 3x at 256²."""
    if not cffi_available():
        pytest.skip(f"no compiled kernel: {cffi_unavailable_reason()}")
    repeats = 5 if quick_mode() else 15

    def run() -> ResultTable:
        table = ResultTable()
        for side, horizon, n_replicas in BUILD_CELLS:
            config = ModelConfig.square(side=side, horizon=horizon, tau=0.45)
            seconds = {}
            states = {}
            for name in ("numpy", "cffi"):
                engine = EnsembleDynamics(
                    config, n_replicas=n_replicas, seed=11, backend=name
                )
                seconds[name] = _best_build_seconds(engine, repeats)
                states[name] = _build_state(engine)
            assert all(
                np.array_equal(ref, act)
                for ref, act in zip(states["numpy"], states["cffi"])
            ), f"compiled and numpy builds differ at {side}², w = {horizon}"
            table.add_row(
                grid=f"{side}x{side}",
                horizon=horizon,
                n_replicas=n_replicas,
                numpy_ms=seconds["numpy"] * 1e3,
                compiled_ms=seconds["cffi"] * 1e3,
                speedup=seconds["numpy"] / seconds["cffi"],
            )
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    speedups = {
        f"{row['grid']}_w{row['horizon']}_r{row['n_replicas']}": row["speedup"]
        for row in table.rows
    }
    for cell, speedup in speedups.items():
        benchmark.extra_info[f"speedup_{cell}"] = float(speedup)
    benchmark.extra_info["quick_mode"] = quick_mode()
    emit("PERF_compiled_build_speedup", table, benchmark)
    side, horizon, n_replicas = BUILD_CELLS[0]
    floored = speedups[f"{side}x{side}_w{horizon}_r{n_replicas}"]
    assert floored >= MIN_COMPILED_BUILD_SPEEDUP, (
        f"compiled engine build {floored:.2f}x below the "
        f"{MIN_COMPILED_BUILD_SPEEDUP}x floor over numpy at {side}², "
        f"w = {horizon}, R = {n_replicas}"
    )
