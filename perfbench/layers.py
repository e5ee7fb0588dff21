"""The traced run: per-layer timings from calls into each layer's functions.

:func:`layer_pass` repeats, serially and in-process, the work the workload
gave the command line: every computed cell through ``run_experiment``, the
row packing and transfer the pool would do, checkpoint load/append/summary,
and the serving layer's audit, snapshot load and answers.  After a short
warm-up it runs twice, once untraced and once with spans, and the ratio of
the two walls is the tracing overhead.  The traced rows must equal the
program's stored rows bitwise (apart from wall-clock columns), which shows
the pass did the same work the timed run did.
"""

from __future__ import annotations

import contextlib
import json
import pickle
import re
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from perfbench.inputs import MAX_DISTANCE, Query, QueryPlan
from perfbench.measure import Harness, Server, http_get, open_loop
from perfbench.tracing import Tracer, self_times

#: Pool size the workloads run with.
WORKERS = 2


@dataclass
class LayerContext:
    """What one workload ran, as the per-layer pass needs it."""

    sweep: object
    cells: list
    #: Indices of the cells the program computed (resumed cells excluded).
    run_indices: list[int]
    ensemble: int
    backend: str
    #: Store the checkpoint loader opens: the pre-seeded one when resuming.
    load_store: Path
    #: Whether ``load_store`` is a resume prefix the pass should complete.
    resumes: bool
    #: Store the serving layer audits, loads and answers from.
    served_store: Path
    #: Canonical rows (volatile columns stripped) the program stored, by index.
    reference_rows: dict[int, list]
    plan: QueryPlan
    probe: list[Query] = field(default_factory=list)


@dataclass
class PassResult:
    """Outcome of one per-layer pass."""

    wall_s: float
    rows: dict[int, list]
    answers: list[dict]


def _flip_counts(attrs: dict, args: tuple, result: object) -> None:
    attrs["flips"] = int(result.n_flips.sum())
    attrs["steps"] = int(result.n_steps.sum())
    attrs["replicas"] = len(result.n_flips)


def instrument(tracer) -> contextlib.ExitStack:
    """Patch spans around the core and analysis calls ``run_experiment`` makes."""
    from repro.core.ensemble import EnsembleDynamics
    from repro.core.variants import VariantSpec
    from repro.experiments import runner

    stack = contextlib.ExitStack()
    stack.enter_context(tracer.patch(VariantSpec, "make_ensemble", "core.build"))
    stack.enter_context(tracer.patch(EnsembleDynamics, "initial_spins", "core.build"))
    stack.enter_context(tracer.patch(EnsembleDynamics, "run", "core.flip_loop", _flip_counts))
    stack.enter_context(
        tracer.patch(runner, "segregation_metrics_batch", "analysis.measure")
    )
    return stack


def layer_pass(tracer, ctx: LayerContext, out: Path) -> PassResult:
    """Run the workload's cells and query probe once, in-process."""
    from repro.experiments.checkpoint import SweepCheckpoint, verify_store
    from repro.experiments.parallel import default_chunk_size, pack_rows, unpack_rows
    from repro.experiments.runner import run_experiment
    from repro.experiments.shm import decode_chunk, encode_chunk
    from repro.serving.query import QueryEngine
    from repro.serving.store import ArtifactStore

    store = out / "store"
    if ctx.resumes:
        shutil.copytree(ctx.load_store, store)
    start = time.perf_counter()
    rows: dict[int, list] = {}
    with instrument(tracer):
        for index in ctx.run_indices:
            with tracer.span("experiments.cell", index=index):
                rows[index] = run_experiment(
                    ctx.cells[index], ensemble_size=ctx.ensemble, backend=ctx.backend
                ).rows
    packed = {}
    for index in ctx.run_indices:
        with tracer.span("experiments.pack"):
            packed[index] = pack_rows(rows[index])
            unpack_rows(packed[index])
    chunk = default_chunk_size(len(ctx.run_indices), WORKERS)
    for offset in range(0, len(ctx.run_indices), chunk):
        batch = [(i, packed[i]) for i in ctx.run_indices[offset : offset + chunk]]
        with tracer.span("experiments.transfer"):
            decode_chunk(*encode_chunk(batch))
        with tracer.span("experiments.pickle"):
            pickle.loads(pickle.dumps(batch, protocol=pickle.HIGHEST_PROTOCOL))
    with tracer.span("experiments.checkpoint_load"):
        SweepCheckpoint(ctx.load_store, ctx.cells, sweep=ctx.sweep, backend=ctx.backend)
    checkpoint = SweepCheckpoint(store, ctx.cells, sweep=ctx.sweep, backend=ctx.backend)
    for index in ctx.run_indices:
        with tracer.span("experiments.checkpoint_append"):
            checkpoint.record(index, ctx.cells[index], rows[index])
    with tracer.span("experiments.summary"):
        checkpoint.write_summary()
    with tracer.span("serving.verify"):
        audit = verify_store(ctx.served_store)
    if not audit["ok"]:
        raise AssertionError(f"served store failed its audit: {audit['problems'][:3]}")
    with tracer.span("serving.load"):
        engine = QueryEngine(
            ArtifactStore(ctx.served_store), interpolate=True,
            on_miss="compute", max_distance=MAX_DISTANCE,
        ).load()
    answers = []
    for query in ctx.probe:
        with tracer.span("serving.answer", kind=query.kind) as attrs:
            answer = engine.answer(query.point())
        attrs["cached"] = answer["cached"]
        answers.append(answer)
    return PassResult(time.perf_counter() - start, rows, answers)


def probe_queries(plan: QueryPlan, computes: int) -> list[Query]:
    """In-process answer probe: distinct lookups, repeated hot points, computes."""
    probe = plan.pool[:64]
    for _ in range(8):
        probe += plan.hot
    return probe + [plan.compute_point() for _ in range(computes)]


IMPORT_LINE = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")


def import_times(harness: Harness, repeats: int = 3) -> tuple[float, float]:
    """Median cumulative import seconds of ``repro`` and ``repro.theory``."""
    import subprocess
    import sys

    totals: dict[str, list[float]] = {"repro": [], "repro.theory": []}
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro"],
            env=harness.env, cwd=harness.root, capture_output=True, text=True, timeout=120,
        )
        seen = {}
        for line in proc.stderr.splitlines():
            match = IMPORT_LINE.match(line)
            if match and match.group(2) in totals:
                seen[match.group(2)] = int(match.group(1)) / 1e6
        for name in totals:
            totals[name].append(seen[name])
    return median(totals["repro"]), median(totals["repro.theory"])


#: Cold points of the coalescing burst, and concurrent requests per point.
COLD_KEYS = 2
COLD_FANOUT = 4

#: Distinct points of the eviction burst: more than the 256-entry answer cache.
EVICTION_BURST = 400


def cold_burst(port: int, plan: QueryPlan) -> int:
    """Ask for fresh compute points from ``COLD_FANOUT`` threads at once.

    Every follower should coalesce onto the leader's simulation, so the
    burst adds ``COLD_KEYS * (COLD_FANOUT - 1)`` to ``/stats`` coalesced
    when single-flight works.  Returns that delta.
    """
    before = json.loads(http_get(port, "/stats")[1])["cache"]["coalesced"]
    for _ in range(COLD_KEYS):
        query = plan.compute_point()
        statuses: list[int] = []
        threads = [
            threading.Thread(target=lambda: statuses.append(http_get(port, query.path())[0]))
            for _ in range(COLD_FANOUT)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if statuses != [200] * COLD_FANOUT:
            raise AssertionError(f"cold burst answered {statuses}")
    return json.loads(http_get(port, "/stats")[1])["cache"]["coalesced"] - before


def serve_probe(
    harness: Harness, ctx: LayerContext, log: Path, burst: bool
) -> dict:
    """Round trips of hot queries against a live server, plus bursts.

    The probe always ends with :func:`cold_burst`.  With ``burst`` it
    first sends ``EVICTION_BURST`` distinct in-grid points open-loop at
    200 req/s, which overflows the answer cache, and returns their
    lateness and the server's ``/stats``.
    """
    server = Server(
        harness,
        ["--store", str(ctx.served_store), "--interpolate", "--on-miss", "compute",
         "--max-distance", str(MAX_DISTANCE)],
        log,
    )
    server.start()
    try:
        for query in ctx.plan.hot:
            http_get(server.port, query.path())
        trips = []
        for i in range(200):
            query = ctx.plan.hot[i % len(ctx.plan.hot)]
            sent = time.perf_counter()
            status, _ = http_get(server.port, query.path())
            trips.append(time.perf_counter() - sent)
            if status != 200:
                raise AssertionError(f"hot probe query answered {status}")
        result = {"hot_trip_s": median(trips)}
        if burst:
            samples = open_loop(server.port, ctx.plan.pool[:EVICTION_BURST], rate=200.0)
            if any(sample.status != 200 for sample in samples):
                raise AssertionError("probe burst had failed requests")
            result["late_s"] = [sample.late_s for sample in samples]
            result["stats"] = json.loads(http_get(server.port, "/stats")[1])
        result["coalesced"] = cold_burst(server.port, ctx.plan)
    finally:
        server.stop()
    return result


def pool_pass(tracer: Tracer, ctx: LayerContext, out: Path) -> dict[int, list]:
    """The program's pool path, ``run_sweep_parallel(workers=2)``, as one span."""
    from repro.experiments.parallel import run_sweep_parallel

    store = out / "pool-store"
    if ctx.resumes:
        shutil.copytree(ctx.load_store, store)
    with tracer.span("experiments.pool"):
        table = run_sweep_parallel(
            ctx.sweep, workers=WORKERS, ensemble_size=ctx.ensemble,
            checkpoint_dir=store, backend=ctx.backend,
        )
    per_cell = ctx.sweep.n_replicates
    return {i: table.rows[i * per_cell : (i + 1) * per_cell] for i in ctx.run_indices}


def steps_repeat(ctx: LayerContext, tracer: Tracer) -> bool:
    """Re-run the first computed cell's first batch; flips and steps must repeat."""
    from repro.rng import replicate_seeds

    cell = ctx.cells[ctx.run_indices[0]]
    seeds = replicate_seeds(cell.seed, cell.n_replicates)[: ctx.ensemble]
    ensemble = cell.variant.make_ensemble(cell.config, replica_seeds=seeds, backend=ctx.backend)
    result = ensemble.run(max_flips=cell.max_flips, max_steps=cell.max_steps)
    first = tracer.named("core.flip_loop")[0].attrs
    again = (int(result.n_flips.sum()), int(result.n_steps.sum()))
    return again == (first["flips"], first["steps"])


def per_layer_metrics(
    tracer: Tracer, traced: PassResult, untraced: PassResult,
    imports: tuple[float, float], probe: dict, stats: dict, late_ms: float,
) -> dict[str, tuple[float, str, int]]:
    """Per-layer metrics as ``name -> (value, unit, samples)``."""
    selfs = self_times(tracer.spans)
    loops = tracer.named("core.flip_loop")
    flips = sum(span.attrs["flips"] for span in loops)
    steps = sum(span.attrs["steps"] for span in loops)
    replicas = sum(span.attrs["replicas"] for span in loops)
    measures = tracer.named("analysis.measure")
    cells = tracer.named("experiments.cell")
    pool = tracer.named("experiments.pool")[0]

    def answers(kind: str, cached: bool) -> list[float]:
        return [
            span.duration for span in tracer.named("serving.answer")
            if span.attrs["kind"] == kind and span.attrs["cached"] == cached
        ]

    hits = answers("hot", True)
    lookups = answers("distinct", False)
    computes = answers("compute", False)
    hit = median(hits)
    cache = stats["cache"]
    answered = cache["hits"] + cache["misses"] + cache["coalesced"]
    cold = COLD_KEYS * COLD_FANOUT
    return {
        "import.repro_s": (imports[0], "s", 3),
        "import.theory_s": (imports[1], "s", 3),
        "core.build_s": (tracer.total("core.build"), "s", len(tracer.named("core.build"))),
        "core.flip_loop_s": (tracer.total("core.flip_loop"), "s", len(loops)),
        "core.us_per_flip": (tracer.total("core.flip_loop") / max(flips, 1) * 1e6, "us", flips),
        "core.flips": (flips, "count", len(loops)),
        "core.steps": (steps, "count", len(loops)),
        "analysis.measure_s": (tracer.total("analysis.measure"), "s", len(measures)),
        # Each replica is measured twice, before and after its flip loop.
        "analysis.ms_per_replica": (
            tracer.total("analysis.measure") / replicas * 1e3, "ms", replicas
        ),
        "experiments.cell_self_s": (sum(selfs[span.span_id] for span in cells), "s", len(cells)),
        "experiments.pack_s": (tracer.total("experiments.pack"), "s", len(cells)),
        "experiments.transfer_s": (
            tracer.total("experiments.transfer"), "s", len(tracer.named("experiments.transfer"))
        ),
        "experiments.pickle_s": (
            tracer.total("experiments.pickle"), "s", len(tracer.named("experiments.pickle"))
        ),
        "experiments.pool_self_s": (
            pool.duration - sum(span.duration for span in cells) / WORKERS, "s", 1
        ),
        "experiments.checkpoint_load_s": (tracer.total("experiments.checkpoint_load"), "s", 1),
        "experiments.checkpoint_append_s": (
            tracer.total("experiments.checkpoint_append"), "s", len(cells)
        ),
        "experiments.summary_s": (tracer.total("experiments.summary"), "s", 1),
        "serving.verify_s": (tracer.total("serving.verify"), "s", 1),
        "serving.load_s": (tracer.total("serving.load"), "s", 1),
        "serving.hit_us": (hit * 1e6, "us", len(hits)),
        "serving.lookup_us": (median(lookups) * 1e6, "us", len(lookups)),
        "serving.compute_ms": (median(computes) * 1e3, "ms", len(computes)),
        "serving.hit_ratio": (cache["hits"] / max(answered, 1), "ratio", answered),
        "serving.evictions": (cache["evictions"], "count", answered),
        "serving.coalesced": (probe["coalesced"], "count", cold),
        "serving.http_us": ((probe["hot_trip_s"] - hit) * 1e6, "us", 200),
        "loadgen.late_ms": (late_ms, "ms", 1),
        "trace.overhead_ratio": (traced.wall_s / untraced.wall_s, "ratio", 2),
    }


def same_answers(first: list[dict], second: list[dict]) -> bool:
    """Two passes' answers agree exactly, apart from the per-call ``cached`` flag."""
    from repro.experiments.io import json_default

    def canonical(answers: list[dict]) -> str:
        return json.dumps(
            [{k: v for k, v in a.items() if k != "cached"} for a in answers],
            sort_keys=True, default=json_default,
        )

    return canonical(first) == canonical(second)
