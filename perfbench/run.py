"""Benchmark entry point: run one named workload through the real command line.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep-large-grid --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs the workload once untraced for reference, then repeats its work
serially in-process with spans around each layer and prints the per-layer
metrics.  Either way the run checks the program's outputs, and the last
line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}

The lines above it give each metric with its sample count, the generated
inputs (or their digest) for replay, the correctness checks and a
provenance stamp.  See ``perfbench/README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from statistics import median
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import calibrate, inputs, layers, measure  # noqa: E402
from perfbench.stats import percentile, tail_percentile  # noqa: E402
from perfbench.tracing import NullTracer, Tracer  # noqa: E402

#: Offered rate of the serve-mixed open-loop phase: under a fifth of its
#: capacity, so a slower host does not push the phase into queueing, and
#: the open phases of a 40 s run still send 1600 requests (p99 keeps ten
#: samples beyond it).
OPEN_LOOP_RATE = 60.0

#: Share of ``--seconds`` the serve-mixed closed-loop phase takes.
CLOSED_SHARE = 0.3

#: Seconds of one serve-mixed cycle (a closed-loop slice, then an open-loop
#: slice).  Cycles spread both phases over the whole run, so a slow stretch
#: of the host lands in a few cycles and the median over cycles skips it.
CYCLE_S = 5.0

#: Set-up samples per run; the median is reported.
SETUP_SAMPLES = 3


@dataclasses.dataclass(frozen=True)
class Shape:
    """Size of a workload's sweep cells."""

    side: int
    horizon: int
    replicates: int
    ensemble: int
    #: Intolerances drawn per segregating interval.
    per_interval: int
    #: Range of the seed-chosen count of pre-recorded cells (resume workloads).
    prefix: Optional[tuple[int, int]] = None

    @property
    def agents(self) -> int:
        """Neighbourhood size N = (2w + 1)^2 of the cells."""
        return (2 * self.horizon + 1) ** 2


#: Full-size and ``--smoke`` shapes of every workload.
SHAPES = {
    "sweep-large-grid": (Shape(256, 3, 8, 8, 4), Shape(40, 2, 4, 4, 2)),
    "sweep-many-small": (Shape(32, 1, 4, 4, 200, (90, 110)), Shape(16, 1, 2, 2, 12, (5, 8))),
    "serve-mixed": (Shape(32, 1, 4, 4, 4), Shape(16, 1, 2, 2, 2)),
}

#: Densities of the served (rho, tau) grid, full size and smoke.
SERVE_RHOS = ((0.35, 0.41, 0.47, 0.53, 0.59, 0.65), (0.4, 0.5, 0.6))


class Run:
    """State, checks and metrics of one benchmark run."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.seed = args.seed
        self.run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}"
        self.harness = measure.Harness(ROOT, self.run_id)
        self.work = self.harness.work
        self.metrics: dict[str, tuple[float, str, int]] = {}
        self.checks: list[tuple[str, bool]] = []
        self.attempted = 0
        self.failed = 0
        self.backend = ""

    def check(self, name: str, ok: bool) -> None:
        """Record one correctness check; any failure fails the run."""
        self.checks.append((name, bool(ok)))

    def metric(self, name: str, value: float, unit: str, samples: int) -> None:
        """Record one metric with its sample count."""
        self.metrics[name] = (value, unit, samples)

    def log(self, label: str, payload: object) -> None:
        """Print one labelled JSON line (inputs, provenance) for replay."""
        print(f"{label} {json.dumps(payload, sort_keys=True, default=str)}", flush=True)


# --------------------------------------------------------------- set-up


def import_library(run: Run) -> None:
    """Import the library in-process and warm its on-disk caches.

    The first use compiles the flip-loop kernel and derives the RNG tables
    into ``.bench_build/tmp``; doing it here keeps that one-off build out of
    every timed region.  Children inherit the same cache directory.
    """
    os.environ["TMPDIR"] = str(run.harness.tmp)
    os.environ.pop("REPRO_BACKEND", None)
    tempfile.tempdir = None
    sys.path.insert(0, str(ROOT / "src"))
    from repro.core.backends.registry import resolve_backend_name, select_backend_name
    from repro.core.config import ModelConfig
    from repro.experiments.runner import run_experiment
    from repro.experiments.spec import ExperimentSpec

    run.backend = resolve_backend_name(select_backend_name(None, None))
    warm = ExperimentSpec(
        name="warm-up", config=ModelConfig.square(side=16, horizon=1, tau=0.45), n_replicates=2
    )
    run_experiment(warm, ensemble_size=2, backend=run.backend)


def provenance(run: Run) -> dict:
    """Host, versions, backend, source identity and date of this run."""
    import numpy

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10,
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        commit = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode())
        source.update(path.read_bytes())
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": run.backend,
        "git_commit": commit,
        "source_sha256": source.hexdigest()[:16],
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


# --------------------------------------------------------------- sweeps


def cli_sweep(shape: Shape, taus: list[float], seed: int):
    """The :class:`SweepSpec` ``repro sweep`` builds from the workload's flags."""
    from repro.core.config import ModelConfig
    from repro.core.variants import VariantSpec
    from repro.experiments.spec import SweepSpec

    return SweepSpec(
        name="cli-sweep",
        base_config=ModelConfig.square(side=shape.side, horizon=shape.horizon, tau=0.5),
        taus=taus,
        n_replicates=shape.replicates,
        seed=seed,
        variant=VariantSpec.base(),
    )


def preseed(run: Run, store: Path, sweep, cells: list, prefix: int, ensemble: int) -> None:
    """Record the first ``prefix`` cells as an interrupted run would have."""
    from repro.experiments.checkpoint import SweepCheckpoint
    from repro.experiments.runner import run_experiment

    checkpoint = SweepCheckpoint(store, cells, sweep=sweep, backend=run.backend)
    for index in range(prefix):
        rows = run_experiment(cells[index], ensemble_size=ensemble, backend=run.backend).rows
        checkpoint.record(index, cells[index], rows)


def stored_rows(store: Path) -> dict[int, list]:
    """Canonical rows (volatile columns stripped) of a store, by cell index."""
    from repro.experiments.checkpoint import scan_records
    from repro.serving.store import comparable_rows

    return {
        record["cell_index"]: comparable_rows(record["rows"])
        for record in scan_records(store).values()
        if isinstance(record.get("rows"), list)
    }


def check_sweep_store(run: Run, store: Path, n_cells: int, new_cells: int, recorded: int) -> None:
    """The audit a finished ``repro sweep`` store must pass."""
    from repro.experiments.checkpoint import verify_store

    summary = json.loads((store / "summary.json").read_text())
    bad = summary["n_failed"] + summary["n_missing"]
    run.attempted += new_cells
    run.failed += bad
    run.check("verify_store reports ok", verify_store(store)["ok"])
    run.check("summary.json has no failed or missing cells", bad == 0)
    run.check("summary.json covers every cell", summary["n_summarized"] == n_cells)
    run.check("the run recorded each pending cell once", recorded == new_cells)


def sweep_workload(run: Run, clock: calibrate.HostClock, shape: Shape, trace: bool) -> None:
    """``repro sweep`` rounds on a checkpoint store, timed spawn to exit."""
    harness = run.harness
    rng = random.Random(run.seed)
    taus = inputs.stratified_taus(rng, shape.per_interval, shape.agents)
    sweep_seed = rng.randrange(2**31)
    prefix = rng.randint(*shape.prefix) if shape.prefix else 0
    run.log("inputs", {
        "taus": taus if len(taus) <= 16 else f"{len(taus)} values, sha256 {inputs.digest(taus)}",
        "sweep_seed": sweep_seed, "resume_prefix": prefix,
    })
    sweep = cli_sweep(shape, taus, sweep_seed)
    cells = list(sweep.cells())
    template = run.work / "preseeded"
    if prefix:
        preseed(run, template, sweep, cells, prefix, shape.ensemble)

    clock.start()
    if not trace:
        versions = [
            harness.spawn_to_exit(harness.repro("--version")) for _ in range(SETUP_SAMPLES)
        ]
        setup_factor = clock.mark()
        run.metric("setup_s", median(versions) * setup_factor, "s", len(versions))

    flags = [
        "--side", str(shape.side), "--horizon", str(shape.horizon),
        "--replicates", str(shape.replicates), "--ensemble", str(shape.ensemble),
        "--workers", str(layers.WORKERS), "--seed", str(sweep_seed),
        "--taus", ",".join(repr(tau) for tau in taus),
    ]
    rounds: list[measure.SweepRound] = []
    factors: list[float] = []
    reference: dict[int, list] = {}
    first_store = run.work / "round-0"
    started = time.perf_counter()
    while True:
        store = run.work / f"round-{len(rounds)}"
        if prefix:
            shutil.copytree(template, store)
        result = measure.run_sweep_round(
            harness, harness.repro("sweep", *flags, "--checkpoint-dir", str(store)),
            store / "metrics.jsonl", run.work / "sweep.log",
        )
        rounds.append(result)
        factors.append(clock.mark())
        print(
            f"round {len(rounds)}: {len(result.completions)} cells in {result.wall_s:.3f} s"
            f" (host factor {factors[-1]:.3f})"
        )
        check_sweep_store(run, store, len(cells), len(cells) - prefix, len(result.completions))
        rows = stored_rows(store)
        if not reference:
            reference = rows
        else:
            run.check("rows repeat exactly across rounds of one seed", rows == reference)
            shutil.rmtree(store)
        # At least two rounds; another one only while it fits in the measuring time.
        elapsed = time.perf_counter() - started
        if trace or (len(rounds) >= 2 and elapsed * (1 + 1 / len(rounds)) > run.args.seconds):
            break

    if not trace:
        new = len(cells) - prefix
        run.log("host", clock.describe())
        run.log("raw", {
            "setup_s": median(versions),
            "throughput_per_s": median([new / r.wall_s for r in rounds]),
            "latency_p50_ms": median([median(r.completions) * 1e3 for r in rounds]),
            "latency_tail_ms": median([max(r.completions) * 1e3 for r in rounds]),
        })
        # Medians over rounds: one round whose host factor missed a change
        # in host speed does not move them.
        run.metric(
            "throughput_per_s", median([new / (r.wall_s * f) for r, f in zip(rounds, factors)]),
            "1/s", len(rounds),
        )
        run.metric(
            "latency_p50_ms",
            median([median(r.completions) * f * 1e3 for r, f in zip(rounds, factors)]),
            "ms", new * len(rounds),
        )
        run.metric(
            "latency_tail_ms",
            median([max(r.completions) * f * 1e3 for r, f in zip(rounds, factors)]),
            "ms", len(rounds),
        )
        run.metric("peak_rss_mb", median([r.peak_rss_mb for r in rounds]), "MB", len(rounds))
        return

    plan = inputs.QueryPlan([0.5], taus, shape.horizon, seed=rng.randrange(2**31))
    ctx = layers.LayerContext(
        sweep=sweep, cells=cells, run_indices=list(range(prefix, len(cells))),
        ensemble=shape.ensemble, backend=run.backend,
        load_store=template if prefix else first_store, resumes=bool(prefix),
        served_store=first_store, reference_rows=reference, plan=plan,
        probe=layers.probe_queries(plan, computes=1),
    )
    probe = layers.serve_probe(harness, ctx, run.work / "serve.log", burst=True)
    late = probe["late_s"]
    late_p = tail_percentile(len(late)) or 50.0
    traced_layers(run, ctx, probe, probe["stats"], percentile(late, late_p) * 1e3)


# ---------------------------------------------------------------- serve


def serve_workload(
    run: Run, clock: calibrate.HostClock, shape: Shape, rhos: tuple, trace: bool
) -> None:
    """Closed- then open-loop query load against ``repro serve``."""
    from repro.experiments.io import json_default
    from repro.experiments.runner import run_sweep
    from repro.experiments.spec import SweepSpec
    from repro.core.config import ModelConfig
    from repro.serving.query import QueryEngine
    from repro.serving.store import ArtifactStore

    harness = run.harness
    seconds = run.args.seconds
    rng = random.Random(run.seed)
    taus = inputs.stratified_taus(rng, shape.per_interval, shape.agents)
    store_seed = rng.randrange(2**31)
    plan = inputs.QueryPlan(rhos, taus, shape.horizon, seed=rng.randrange(2**31))
    cycles = max(1, round(seconds / CYCLE_S))
    closed_s = CLOSED_SHARE * seconds / cycles
    # Open slices hold whole decks, so each carries the exact compute share.
    decks = max(1, round(OPEN_LOOP_RATE * (seconds / cycles - closed_s) / inputs.DECK))
    # Capacity is measured without the on-miss simulations: one of them costs
    # about fifty cached answers, so with them the closed loop would mostly
    # time compute.  They stay in the open loop, where they make the tail.
    closed_streams = [
        [[q for q in plan.stream(int(2000 * closed_s) + 50) if q.kind != "compute"]
         for _ in range(2)]
        for _ in range(cycles)
    ]
    open_streams = [plan.stream(decks * inputs.DECK) for _ in range(cycles)]
    run.log("inputs", {
        "taus": taus, "rhos": list(rhos), "store_seed": store_seed, "cycles": cycles,
        "open_loop_rate": OPEN_LOOP_RATE, "open_requests": cycles * decks * inputs.DECK,
        "query_stream_sha256": inputs.digest([closed_streams, open_streams]),
    })

    sweep = SweepSpec(
        name="serve-grid",
        base_config=ModelConfig.square(side=shape.side, horizon=shape.horizon, tau=0.5),
        taus=taus, densities=list(rhos), n_replicates=shape.replicates, seed=store_seed,
    )
    store = run.work / "store"
    run_sweep(sweep, workers=1, ensemble_size=shape.ensemble, checkpoint_dir=str(store),
              backend=run.backend)

    server_args = ["--store", str(store), "--interpolate", "--on-miss", "compute",
                   "--max-distance", str(inputs.MAX_DISTANCE)]
    clock.start()
    spawns = 1 if trace else SETUP_SAMPLES
    ready = []
    for attempt in range(spawns):
        server = measure.Server(harness, server_args, run.work / "serve.log")
        ready.append(server.start())
        if attempt < spawns - 1:
            server.stop()
    closed, opened, rates = [], [], []
    # Host factor of each closed-loop slice and of each open-loop sample.
    closed_factors, open_factors = [], []
    try:
        setup_factor = clock.mark()
        for streams, stream in zip(closed_streams, open_streams):
            samples, wall = measure.closed_loop(server.port, streams, closed_s)
            closed_factors.append(clock.mark())
            closed += samples
            rates.append(sum(s.status == 200 for s in samples) / wall)
            answers = measure.open_loop(server.port, stream, OPEN_LOOP_RATE)
            open_factors += [clock.mark()] * len(answers)
            opened += answers
        stats = json.loads(measure.http_get(server.port, "/stats")[1])
    finally:
        server.stop()

    summary = json.loads((store / "summary.json").read_text())
    stored = {
        (cell["params"]["rho"], cell["params"]["tau"], cell["params"]["w"]): cell["metrics"]
        for cell in summary["cells"]
    }
    computed = {}
    for sample in closed + opened:
        ok = sample.status == 200
        if ok:
            answer = json.loads(sample.body)
            query = sample.query
            if query.kind == "compute":
                ok = answer["source"] == "computed"
                computed[query] = answer["metrics"]
            elif query.exact:
                ok = answer["source"] == "exact" and answer["metrics"] == stored[
                    (query.rho, query.tau, query.w)
                ]
            else:
                ok = answer["source"] in ("interpolated", "exact")
        if not ok and run.failed < 5:
            print(f"failed {sample.query} -> {sample.status}: {sample.body[:300]!r}")
        run.failed += not ok
    run.attempted += len(closed) + len(opened)
    run.check("every response is 200 with the expected answer", run.failed == 0)
    answered = sum(sample.status == 200 for sample in closed + opened)
    cache = stats["cache"]
    run.check(
        "/stats hits + misses + coalesced equals the requests answered",
        cache["hits"] + cache["misses"] + cache["coalesced"] == answered,
    )
    engine = QueryEngine(ArtifactStore(store), interpolate=True, on_miss="compute",
                         max_distance=inputs.MAX_DISTANCE)
    replay = list(computed)[:3]
    run.check("the run computed some out-of-range points", bool(replay))
    for query in replay:
        metrics = engine.answer(query.point())["metrics"]
        again = json.loads(json.dumps(metrics, default=json_default))
        run.check("a recomputed answer equals the served one", again == computed[query])

    latencies = [s.latency_s if s.status == 200 else float("inf") for s in opened]
    tail_p = tail_percentile(len(latencies)) or 50.0
    print(f"closed loop: {len(closed)} requests, req/s by cycle {[round(r) for r in rates]}")
    print(f"open loop: {len(opened)} requests at {OPEN_LOOP_RATE} req/s, tail = p{tail_p}")
    if not trace:
        adjusted = [latency * f for latency, f in zip(latencies, open_factors)]
        run.log("host", clock.describe())
        run.log("raw", {
            "setup_s": median(ready),
            "throughput_per_s": median(rates),
            "latency_p50_ms": percentile(latencies, 50.0) * 1e3,
            "latency_tail_ms": percentile(latencies, tail_p) * 1e3,
        })
        run.metric("setup_s", median(ready) * setup_factor, "s", len(ready))
        run.metric(
            "throughput_per_s", median([r / f for r, f in zip(rates, closed_factors)]), "1/s",
            len(closed),
        )
        run.metric("latency_p50_ms", percentile(adjusted, 50.0) * 1e3, "ms", len(opened))
        run.metric("latency_tail_ms", percentile(adjusted, tail_p) * 1e3, "ms", len(opened))
        run.metric("peak_rss_mb", measure.peak_child_rss_mb(), "MB", spawns)
        return

    cells = list(sweep.cells())
    ctx = layers.LayerContext(
        sweep=sweep, cells=cells, run_indices=list(range(len(cells))),
        ensemble=shape.ensemble, backend=run.backend, load_store=store, resumes=False,
        served_store=store, reference_rows=stored_rows(store), plan=plan,
        probe=layers.probe_queries(plan, computes=3),
    )
    probe = layers.serve_probe(harness, ctx, run.work / "serve.log", burst=False)
    late = percentile([s.late_s for s in opened], tail_p) * 1e3
    traced_layers(run, ctx, probe, stats, late)


# ---------------------------------------------------------------- trace


def traced_layers(
    run: Run, ctx: layers.LayerContext, probe: dict, stats: dict, late_ms: float
) -> None:
    """Untraced and traced per-layer passes, their checks and metrics."""
    from repro.serving.store import comparable_rows

    # One cell and one query of each kind first, so one-off lazy imports and
    # per-configuration caches do not land in either timed pass.
    kinds = {query.kind: query for query in ctx.probe}
    warm = dataclasses.replace(ctx, run_indices=ctx.run_indices[:1], probe=list(kinds.values()))
    layers.layer_pass(NullTracer(), warm, run.work / "pass-warm-up")
    untraced = layers.layer_pass(NullTracer(), ctx, run.work / "pass-untraced")
    tracer = Tracer(run.run_id)
    traced = layers.layer_pass(tracer, ctx, run.work / "pass-traced")
    traced_rows = {i: comparable_rows(rows) for i, rows in traced.rows.items()}
    expected = {i: ctx.reference_rows[i] for i in ctx.run_indices}
    run.check("traced rows equal the program's stored rows", traced_rows == expected)
    run.check(
        "untraced pass rows equal traced rows",
        {i: comparable_rows(rows) for i, rows in untraced.rows.items()} == traced_rows,
    )
    run.check("answers repeat across passes", layers.same_answers(untraced.answers, traced.answers))
    flips = sum(span.attrs["flips"] for span in tracer.named("core.flip_loop"))
    run.check(
        "core.flips equals the stored rows' flips",
        flips == sum(row["n_flips"] for i in ctx.run_indices for row in ctx.reference_rows[i]),
    )
    run.check("core.flips and core.steps repeat for a fixed seed", layers.steps_repeat(ctx, tracer))
    pool_rows = layers.pool_pass(tracer, ctx, run.work)
    run.check(
        "pool rows equal the stored rows",
        {i: comparable_rows(rows) for i, rows in pool_rows.items()} == expected,
    )
    imports = layers.import_times(run.harness)
    metrics = layers.per_layer_metrics(tracer, traced, untraced, imports, probe, stats, late_ms)
    for name, (value, unit, samples) in metrics.items():
        run.metric(name, value, unit, samples)
    tracer.write(ROOT / ".bench_build" / "traces" / f"{run.run_id}.jsonl")


# ----------------------------------------------------------------- main


def parse_args(argv: Optional[list[str]] = None) -> argparse.Namespace:
    """Command-line flags of the benchmark."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny grids, for the benchmark's own tests"
    )
    return parser.parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    """Run one workload; print the report and the result line."""
    args = parse_args(argv)
    # SIGTERM unwinds like an error, so every child process is still stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run = Run(args)
    trace = bool(args.trace)
    shape = SHAPES[args.workload][int(args.smoke)]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    try:
        import_library(run)
        run.log("provenance", provenance(run))
        with calibrate.HostClock() as clock:
            if args.workload == "serve-mixed":
                serve_workload(run, clock, shape, SERVE_RHOS[int(args.smoke)], trace)
            else:
                sweep_workload(run, clock, shape, trace)
    except Exception:
        traceback.print_exc()
        run.check("the workload ran to completion", False)
    finally:
        measure.stop_resource_tracker()
        shutil.rmtree(run.work, ignore_errors=True)

    for name in dict.fromkeys(name for name, _ in run.checks):
        passed = [ok for other, ok in run.checks if other == name]
        print(f"check {'ok  ' if all(passed) else 'FAIL'} {name} ({sum(passed)}/{len(passed)})")
    for name, (value, unit, samples) in run.metrics.items():
        print(f"metric {name} = {value:.6g} {unit} (n={samples})")
    correct = all(ok for _, ok in run.checks) and run.failed == 0
    result = {
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if correct else max(run.failed, 1),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in run.metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
