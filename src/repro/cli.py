"""Command-line interface.

Three subcommands cover the common workflows without writing any Python:

* ``repro info`` — print the paper's thresholds, the regime and exponents for
  a given intolerance, and the exact initial unhappy probability.
* ``repro simulate`` — run one seeded simulation and print before/after
  segregation metrics (optionally an ASCII rendering and a CSV row).
* ``repro sweep`` — sweep the intolerance at a fixed horizon, print the
  aggregated table and optionally write it to CSV.  ``--workers`` and
  ``--ensemble`` pick the execution levers.

Four more subcommands operate on the artifact stores sweeps leave behind:
``repro summarize`` (re)writes a store's ``summary.json`` of per-cell
aggregates, ``repro reproduce`` re-executes recorded cells from the manifest
and asserts bitwise row identity, and ``repro query`` / ``repro serve``
answer parameter-point queries (exact, interpolated or nearest-cell) from
the command line or over stdlib HTTP.

Both ``simulate`` and ``sweep`` accept the same variant flags: ``--variant``
(with ``--tau-high`` / ``--tau-minus``) swaps in the Section I.A/V model
variants and ``--max-steps`` caps the scheduler steps — applied by default
for the non-base variants, which carry no termination guarantee, with the
honest ``terminated`` flag reported either way.

The module is usable both as ``python -m repro ...`` and through the
:func:`main` entry point.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro._version import PAPER, __version__
from repro.analysis.segregation import default_region_radius, segregation_metrics
from repro.core.backends.registry import (
    KNOWN_BACKENDS,
    resolve_backend_name,
    select_backend_name,
)
from repro.core.config import ModelConfig
from repro.core.variants import VariantSpec
from repro.errors import ConfigurationError
from repro.experiments.results import ResultTable
from repro.experiments.runner import (
    DEFAULT_ENSEMBLE_SIZE,
    DEFAULT_SWEEP_VALUE_KEYS,
    SCALAR_ENGINE,
    aggregate_sweep,
    resolve_engine,
    run_sweep,
)
from repro.experiments.spec import SweepSpec
from repro.experiments.workloads import default_tau_grid, grid_side_for_horizon
from repro.theory.bounds import exact_unhappy_probability
from repro.theory.exponents import lower_exponent, upper_exponent
from repro.theory.intervals import classify_regime, segregation_expected
from repro.theory.thresholds import interval_widths, tau1, tau2, trigger_epsilon
from repro.viz.ascii_art import render_ascii


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=f"Reproduction toolkit for: {PAPER}",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    info = subparsers.add_parser("info", help="thresholds, regime and exponents")
    info.add_argument("--tau", type=float, default=0.45, help="intolerance to inspect")
    info.add_argument("--horizon", type=int, default=3, help="horizon w for finite-N quantities")

    simulate = subparsers.add_parser("simulate", help="run one simulation")
    simulate.add_argument("--side", type=int, default=80)
    simulate.add_argument("--horizon", type=int, default=3)
    simulate.add_argument("--tau", type=float, default=0.45)
    simulate.add_argument("--density", type=float, default=0.5)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--max-flips", type=int, default=None)
    simulate.add_argument("--ascii", action="store_true", help="print the final grid")
    simulate.add_argument("--csv", type=str, default=None, help="append metrics row to CSV")
    _add_backend_argument(simulate)
    _add_variant_arguments(simulate)

    sweep = subparsers.add_parser("sweep", help="sweep the intolerance axis")
    sweep.add_argument("--horizon", type=int, default=2)
    sweep.add_argument(
        "--taus",
        type=str,
        default=None,
        help="comma-separated intolerances (default: a grid spanning Figure 2)",
    )
    sweep.add_argument("--replicates", type=int, default=3)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--side", type=int, default=None)
    sweep.add_argument("--csv", type=str, default=None, help="write aggregated rows to CSV")
    sweep.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool size for sweep cells (1 = serial)",
    )
    sweep.add_argument(
        "--ensemble",
        type=int,
        default=None,
        help="replicas per lockstep ensemble batch (default: all of a cell's "
        f"replicates, at most {DEFAULT_ENSEMBLE_SIZE}; 1 = the scalar "
        "engine, the reference the ensemble is tested against)",
    )
    sweep.add_argument(
        "--checkpoint-dir",
        type=str,
        default=None,
        help="artifact directory for checkpoint/resume: completed cells are "
        "streamed to metrics.jsonl (with a provenance manifest.json) and a "
        "rerun with the same parameters skips them, resuming a killed sweep "
        "into an identical table",
    )
    sweep.add_argument(
        "--retries",
        type=int,
        default=0,
        help="times a failed cell is retried (with seeded exponential "
        "backoff) before --on-error settles it",
    )
    sweep.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        help="per-cell deadline in seconds; a chunk executing past its "
        "deadline marks the worker pool hung, which is killed and respawned "
        "with only unfinished cells rescheduled (requires --workers > 1: "
        "serial runs have no supervising pool and warn that the deadline "
        "is inert)",
    )
    sweep.add_argument(
        "--on-error",
        choices=("raise", "retry", "skip"),
        default="raise",
        help="policy for cells that fail: abort the sweep (raise, default), "
        "retry up to --retries then abort (retry), or retry then quarantine "
        "the cell as a structured failure record and finish the rest (skip)",
    )
    sweep.add_argument(
        "--record-trajectory",
        action="store_true",
        help="record per-replica trajectories and aggregate traj_* columns",
    )
    sweep.add_argument(
        "--record-every",
        type=int,
        default=100,
        help="trajectory sampling cadence (lockstep rounds on the ensemble "
        "engine, the default; flips for the scalar engine, --ensemble 1); "
        "the traj_* columns read only the first and last samples, so they "
        "do not depend on it",
    )
    _add_backend_argument(sweep)
    _add_variant_arguments(sweep)

    checkpoint = subparsers.add_parser(
        "checkpoint", help="audit or repair a sweep checkpoint store"
    )
    checkpoint_sub = checkpoint.add_subparsers(
        dest="checkpoint_command", required=True
    )
    verify = checkpoint_sub.add_parser(
        "verify",
        help="audit a checkpoint directory and print a JSON report "
        "(exit 1 when problems are found)",
    )
    verify.add_argument("directory", type=str)
    repair = checkpoint_sub.add_parser(
        "repair",
        help="truncate metrics.jsonl to its longest valid prefix "
        "(atomic; dropped cells simply rerun on resume)",
    )
    repair.add_argument("directory", type=str)

    summarize = subparsers.add_parser(
        "summarize",
        help="(re)write a store's summary.json of per-cell aggregates",
    )
    summarize.add_argument("directory", type=str)

    reproduce = subparsers.add_parser(
        "reproduce",
        help="re-execute a store's cells from its manifest and assert the "
        "regenerated rows match the recorded ones bitwise (exit 1 with "
        "named diffs on mismatch)",
    )
    reproduce.add_argument(
        "store", type=str, help="checkpoint directory or its manifest.json"
    )
    reproduce.add_argument(
        "--cell",
        type=str,
        default=None,
        help="reproduce only the named cell (default: every cell)",
    )
    reproduce.add_argument(
        "--ensemble",
        type=int,
        default=None,
        help="lockstep ensemble batch size for the re-run (default: as "
        "sweeps run; 1 = the scalar engine); rows are engine-independent, "
        "so the comparison is unchanged",
    )
    reproduce.add_argument(
        "--max-diffs",
        type=int,
        default=5,
        help="named diffs reported per mismatching cell",
    )
    _add_backend_argument(reproduce)

    query = subparsers.add_parser(
        "query",
        help='answer a parameter-point query like "rho=0.4,tau=0.55,w=2" '
        "from a sweep store",
    )
    query.add_argument(
        "point", type=str, help='comma-separated axis=value terms, e.g. '
        '"rho=0.4,tau=0.55,w=2" (aliases: density/p for rho, horizon for w)'
    )
    _add_store_arguments(query)
    _add_query_policy_arguments(query)

    serve = subparsers.add_parser(
        "serve",
        help="serve sweep stores over HTTP (stdlib, threaded; routes "
        "/query /stats /cells /healthz /readyz; SIGTERM drains gracefully)",
    )
    _add_store_arguments(serve)
    serve.add_argument("--host", type=str, default=None)
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        help="TCP port (0 binds an ephemeral port and prints it)",
    )
    serve.add_argument(
        "--max-compute",
        type=int,
        default=None,
        help="largest number of concurrent on-miss simulations; excess "
        "compute requests degrade to the nearest stored cell (flagged "
        "degraded) or get 429 with Retry-After (default: unbounded)",
    )
    serve.add_argument(
        "--refresh-interval",
        type=float,
        default=None,
        help="seconds between store-artifact polls; when metrics.jsonl / "
        "summary.json / manifest.json change, a fresh snapshot is built and "
        "atomically swapped in without dropping requests (default: off)",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        help="seconds a SIGTERM-triggered graceful drain waits for in-flight "
        "requests before stopping anyway",
    )
    _add_query_policy_arguments(serve)
    return parser


def _add_backend_argument(subparser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--backend`` selector (simulate/sweep/reproduce).

    The flag is the strongest level of the selection precedence
    (CLI > ``REPRO_BACKEND`` env > spec > auto); every backend is pinned
    bitwise identical, so the choice affects throughput only.  Requesting a
    backend that is not available on this host falls back to ``numpy`` with
    a single warning rather than failing; an unknown name is an error.
    """
    subparser.add_argument(
        "--backend",
        choices=KNOWN_BACKENDS,
        default=None,
        help="flip-loop backend (default: REPRO_BACKEND env var, else auto "
        "— the fastest available); all backends produce bitwise-identical "
        "results",
    )


def _resolve_backend_request(args: argparse.Namespace) -> tuple[str, str]:
    """``(request, resolved name)`` for ``--backend`` > ``REPRO_BACKEND`` > auto.

    argparse already rejects an unknown ``--backend``; an unknown
    ``REPRO_BACKEND`` reaches the registry instead, whose
    :class:`~repro.errors.ConfigurationError` (naming the known backends)
    :func:`main` reports, so both channels fail with exit 2.
    """
    request = select_backend_name(args.backend, None)
    return request, resolve_backend_name(request)


def _require(ok: bool, message: str) -> None:
    """Refuse a bad flag value before any work starts (exit 2 from :func:`main`)."""
    if not ok:
        raise ConfigurationError(message)


def _add_store_arguments(subparser: argparse.ArgumentParser) -> None:
    """Attach the shared store-selection flags to ``query`` or ``serve``.

    ``--store`` is repeatable: one flag serves a single store, several serve
    one surface that :class:`~repro.serving.query.QueryEngine` routes by
    parameter coverage (two spellings of one directory are a usage error).
    Every named store is integrity-audited at startup; ``--allow-damaged``
    downgrades a failed audit from a refusal to serving only the cells that
    pass the line-level checks.
    """
    subparser.add_argument(
        "--store",
        type=str,
        action="append",
        required=True,
        help="sweep store directory; repeat the flag to federate several "
        "stores behind one query surface (routed by parameter coverage)",
    )
    subparser.add_argument(
        "--allow-damaged",
        action="store_true",
        help="serve a store that fails its startup integrity audit anyway, "
        "ignoring its summary.json and answering only from records that "
        "pass the line-level CRC checks (default: refuse with exit 1)",
    )


def _add_query_policy_arguments(subparser: argparse.ArgumentParser) -> None:
    """Attach the shared query-resolution flags to ``query`` or ``serve``."""
    subparser.add_argument(
        "--interpolate",
        action="store_true",
        help="bilinearly interpolate over (rho, tau) at an exact horizon "
        "when the point is inside the store's grid (default: nearest cell)",
    )
    subparser.add_argument(
        "--on-miss",
        choices=("error", "compute"),
        default="error",
        help="policy when no stored cell can answer: fail (error, default) "
        "or schedule a deterministic simulation of the point (compute)",
    )
    subparser.add_argument(
        "--max-distance",
        type=float,
        default=None,
        help="largest allowed normalized distance to the nearest cell "
        "(default: unbounded)",
    )
    subparser.add_argument(
        "--cache-size",
        type=int,
        default=None,
        help="answer-cache capacity (default: 256)",
    )


def _add_variant_arguments(subparser: argparse.ArgumentParser) -> None:
    """Attach the shared variant/budget flags to ``simulate`` or ``sweep``."""
    subparser.add_argument(
        "--variant",
        choices=["base", "two-sided", "asymmetric"],
        default="base",
        help="happiness rule: the paper's model, the two-sided comfort band "
        "[tau, --tau-high], or per-type intolerances (tau for +1 agents, "
        "--tau-minus for -1 agents)",
    )
    subparser.add_argument(
        "--tau-high",
        type=float,
        default=None,
        help="upper comfort bound for --variant two-sided (default: 0.8); "
        "rejected with any other variant",
    )
    subparser.add_argument(
        "--tau-minus",
        type=float,
        default=None,
        help="-1 agents' intolerance for --variant asymmetric (default: 0.3); "
        "rejected with any other variant",
    )
    subparser.add_argument(
        "--max-steps",
        type=int,
        default=None,
        help="scheduler-step budget per run/replicate (defaults to 20x the "
        "number of sites for the variants, which have no termination "
        "guarantee)",
    )


def _default_step_budget(config: ModelConfig) -> int:
    """Step cap applied to variant runs that carry no termination guarantee.

    Referenced by the ``--max-steps`` help text; ``simulate`` and ``sweep``
    share it so both subcommands budget identically.
    """
    return 20 * config.n_sites


def _resolve_variant(args: argparse.Namespace, taus: Sequence[float]) -> VariantSpec:
    """Build the :class:`VariantSpec` selected by the shared CLI flags.

    Raises :class:`~repro.errors.ConfigurationError` when an inapplicable
    knob is passed (a parameter for a different variant is a configuration
    mistake, not a value to ignore), when a parameter is out of range, or
    when ``--tau-high`` does not dominate every requested intolerance.
    ``simulate`` and ``sweep`` share this resolution so the two subcommands
    reject exactly the same inputs.
    """
    _require(
        args.variant == "two-sided" or args.tau_high is None,
        f"--tau-high does not apply to --variant {args.variant}",
    )
    _require(
        args.variant == "asymmetric" or args.tau_minus is None,
        f"--tau-minus does not apply to --variant {args.variant}",
    )
    if args.variant == "two-sided":
        tau_high = args.tau_high if args.tau_high is not None else 0.8
        _require(
            not any(tau > tau_high for tau in taus),
            f"--tau-high {tau_high} must be at least every requested intolerance",
        )
        return VariantSpec.two_sided(tau_high)
    if args.variant == "asymmetric":
        return VariantSpec.asymmetric(
            args.tau_minus if args.tau_minus is not None else 0.3
        )
    return VariantSpec.base()


def _command_info(args: argparse.Namespace, out) -> int:
    """Print thresholds, regime classification and exponents for one tau."""
    tau = args.tau
    config = ModelConfig.square(
        side=max(4 * (2 * args.horizon + 1), 24), horizon=args.horizon, tau=tau
    )
    widths = interval_widths()
    print(f"Paper: {PAPER}", file=out)
    print(f"tau1 = {tau1():.6f}   tau2 = {tau2():.6f}", file=out)
    print(
        "interval widths: monochromatic "
        f"{widths['monochromatic']:.4f}, almost monochromatic "
        f"{widths['almost_monochromatic']:.4f}",
        file=out,
    )
    print(f"\ntau = {tau}", file=out)
    print(f"  regime (Figure 2): {classify_regime(tau).value}", file=out)
    if segregation_expected(tau):
        print(f"  trigger infimum f(tau) = {trigger_epsilon(tau):.4f}", file=out)
        print(
            f"  exponents: a(tau) = {lower_exponent(tau):.6f}, "
            f"b(tau) = {upper_exponent(tau):.6f}",
            file=out,
        )
    print(
        f"  at horizon w = {args.horizon} (N = {config.neighborhood_agents}): "
        f"threshold {config.happiness_threshold}/{config.neighborhood_agents}, "
        f"exact initial unhappy probability {exact_unhappy_probability(config):.6f}",
        file=out,
    )
    return 0


def _command_simulate(args: argparse.Namespace, out) -> int:
    """Run one seeded simulation (under any variant) and print before/after metrics."""
    backend_name = _resolve_backend_request(args)[1]
    _require(args.seed >= 0, f"--seed must be non-negative, got {args.seed}")
    _require(
        args.max_steps is None or args.max_steps > 0, "--max-steps must be positive"
    )
    _require(
        args.max_flips is None or args.max_flips >= 0,
        "--max-flips must be non-negative",
    )
    variant = _resolve_variant(args, [args.tau])
    config = ModelConfig.square(
        side=args.side, horizon=args.horizon, tau=args.tau, density=args.density
    )
    max_steps = args.max_steps
    if max_steps is None and not variant.guarantees_termination:
        # No Lyapunov guarantee: cap the run so the command always returns.
        max_steps = _default_step_budget(config)
    print(f"Model: {config.describe()} variant={variant.describe()}", file=out)
    # A single-replica ensemble: replica 0 is bitwise the scalar run of the
    # same seed, on every backend.
    ensemble = variant.make_ensemble(
        config, replica_seeds=[args.seed], backend=backend_name
    )
    print(f"Backend: {ensemble.backend_name}", file=out)
    initial_spins = ensemble.initial_spins()[0]
    result = ensemble.run(max_flips=args.max_flips, max_steps=max_steps)
    final_spins = result.final_spins[0]
    terminated = bool(result.terminated[0])
    n_flips = int(result.n_flips[0])
    final_time = float(result.final_time[0])
    max_radius = default_region_radius(config)
    before = segregation_metrics(initial_spins, config, max_region_radius=max_radius)
    after = segregation_metrics(final_spins, config, max_region_radius=max_radius)
    print(
        f"terminated={terminated} flips={n_flips} time={final_time:.2f}",
        file=out,
    )
    table = ResultTable()
    row = {
        "seed": args.seed,
        "tau": config.tau,
        "horizon": config.horizon,
        "variant": variant.kind.value,
        "terminated": terminated,
        "n_flips": n_flips,
    }
    for key, value in before.as_dict().items():
        row[f"initial_{key}"] = value
    for key, value in after.as_dict().items():
        row[f"final_{key}"] = value
    table.add_row(**row)
    print(table.to_markdown(float_format=".4g"), file=out)
    if args.ascii:
        print(render_ascii(final_spins, max_side=60), file=out)
    if args.csv:
        table.to_csv(args.csv)
        print(f"wrote {args.csv}", file=out)
    return 0


def _command_sweep(args: argparse.Namespace, out) -> int:
    """Sweep the intolerance axis and print/write the aggregated table."""
    backend = _resolve_backend_request(args)
    if args.taus is None:
        taus = default_tau_grid()
    else:
        try:
            taus = [float(part) for part in args.taus.split(",") if part.strip()]
        except ValueError as exc:
            raise ConfigurationError(f"could not parse --taus: {exc}") from exc
        _require(taus, "--taus lists no intolerance")
        _require(
            all(0.0 <= tau <= 1.0 for tau in taus),
            f"--taus entries must lie in [0, 1], got {args.taus}",
        )
    _require(args.horizon > 0, f"--horizon must be positive, got {args.horizon}")
    _require(args.seed >= 0, f"--seed must be non-negative, got {args.seed}")
    _require(
        args.replicates > 0, f"--replicates must be positive, got {args.replicates}"
    )
    _require(
        args.workers > 0 and (args.ensemble is None or args.ensemble > 0),
        "--workers and --ensemble must be positive",
    )
    _require(args.record_every > 0, "--record-every must be positive")
    _require(
        args.max_steps is None or args.max_steps > 0, "--max-steps must be positive"
    )
    _require(args.retries >= 0, f"--retries must be non-negative, got {args.retries}")
    _require(
        args.cell_timeout is None or args.cell_timeout > 0,
        f"--cell-timeout must be positive, got {args.cell_timeout}",
    )
    side = args.side if args.side is not None else grid_side_for_horizon(args.horizon)
    base = ModelConfig.square(side=side, horizon=args.horizon, tau=0.5)
    max_steps = args.max_steps
    variant = _resolve_variant(args, taus)
    if max_steps is None and not variant.guarantees_termination:
        # No Lyapunov guarantee: cap every replicate so the sweep halts.
        max_steps = _default_step_budget(base)
    sweep = SweepSpec(
        name="cli-sweep",
        base_config=base,
        taus=taus,
        n_replicates=args.replicates,
        seed=args.seed,
        max_steps=max_steps,
        record_trajectory=args.record_trajectory,
        record_every=args.record_every,
        variant=variant,
    )
    engine = resolve_engine(args.ensemble, args.backend)
    if engine == SCALAR_ENGINE:
        engine_text = "scalar engine"
    else:
        engine_text = f"lockstep ensemble, backend={engine}"
    batch = args.ensemble or min(args.replicates, DEFAULT_ENSEMBLE_SIZE)
    print(
        f"Sweeping {len(taus)} intolerances x {args.replicates} replicates on a "
        f"{side}x{side} torus with w={args.horizon} "
        f"(variant={variant.describe()}, workers={args.workers}, "
        f"ensemble={batch}, {engine_text})",
        file=out,
    )
    if backend[0] != "auto" and engine == SCALAR_ENGINE:
        print(
            "note: --backend selects the ensemble engine's flip loop, which "
            "--ensemble 1 replaces with the scalar engine (it has no backend "
            "seam)",
            file=out,
        )
    if args.checkpoint_dir:
        print(
            f"Checkpointing completed cells under {args.checkpoint_dir} "
            "(already-recorded cells will be skipped)",
            file=out,
        )
    rows = run_sweep(
        sweep,
        workers=args.workers,
        ensemble_size=args.ensemble,
        checkpoint_dir=args.checkpoint_dir,
        retries=args.retries,
        cell_timeout=args.cell_timeout,
        on_error=args.on_error,
        backend=args.backend,
    )
    if rows.failures:
        print(
            f"WARNING: {len(rows.failures)} cell(s) quarantined after "
            "exhausting retries:",
            file=out,
        )
        for failure in rows.failures:
            print(
                f"  cell {failure['cell_index']} ({failure['cell_name']}): "
                f"{failure['error']} after {failure['attempts']} attempt(s)",
                file=out,
            )
    value_keys = DEFAULT_SWEEP_VALUE_KEYS
    if args.record_trajectory:
        value_keys += ("traj_energy_gain", "traj_energy_monotone")
    aggregated = aggregate_sweep(rows, group_keys=("tau",), value_keys=value_keys)
    print(aggregated.to_markdown(float_format=".4g"), file=out)
    if args.csv:
        aggregated.to_csv(args.csv)
        print(f"wrote {args.csv}", file=out)
    return 0


def _command_checkpoint(args: argparse.Namespace, out) -> int:
    """Audit (``verify``) or truncate-repair (``repair``) a checkpoint store.

    Both subcommands print the machine-readable report as indented JSON.
    ``verify`` exits 1 when any problem was found — scriptable as a health
    check — while ``repair`` exits 0 whenever the store ends up resumable
    (the report's ``repair`` section states what was cut).
    """
    from repro.experiments.checkpoint import repair_store, verify_store

    if args.checkpoint_command == "verify":
        report = verify_store(args.directory)
        print(json.dumps(report, indent=2), file=out)
        return 0 if report["ok"] else 1
    report = repair_store(args.directory)
    print(json.dumps(report, indent=2), file=out)
    return 0


def _command_summarize(args: argparse.Namespace, out) -> int:
    """(Re)write ``summary.json`` for a store and print where it landed.

    The summary is derived state — aggregates of the recorded rows — so
    rewriting it offline is always safe and always produces the same bytes
    for the same store.
    """
    from repro.errors import ReproError
    from repro.experiments.checkpoint import load_summary, write_summary

    try:
        path = write_summary(args.directory)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = load_summary(args.directory)
    print(
        f"wrote {path}: {summary['n_summarized']}/{summary['n_cells']} "
        f"cell(s) summarized, {summary['n_failed']} failed, "
        f"{summary['n_missing']} missing",
        file=out,
    )
    return 0


def _command_reproduce(args: argparse.Namespace, out) -> int:
    """Re-execute recorded cells and assert bitwise row identity.

    Prints the JSON report (per-cell status and named value diffs) and
    exits 1 when any cell mismatches or the manifest drifted from its own
    sweep snapshot.  Quarantined and never-recorded cells are reported but
    do not fail the run — they are honest store states, not regressions.
    """
    from repro.errors import ReproError
    from repro.serving.store import reproduce_store

    _require(args.ensemble is None or args.ensemble > 0, "--ensemble must be positive")
    try:
        report = reproduce_store(
            args.store,
            cell=args.cell,
            ensemble_size=args.ensemble,
            max_diffs=args.max_diffs,
            backend=args.backend,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report.as_dict(), indent=2), file=out)
    return 0 if report.ok else 1


def _open_verified_stores(args: argparse.Namespace) -> list:
    """Open every ``--store`` directory after its startup integrity audit.

    Stores with checkpoint artifacts (a manifest or metrics log) are run
    through :func:`verify_store`; a failed audit raises
    :class:`~repro.errors.StoreDamaged` naming every damage kind — unless
    ``--allow-damaged`` was passed, which downgrades the failure to a
    stderr warning and opens the store with ``trust_summary=False`` so only
    records passing the line-level CRC checks are served.  Summary-only
    stores (no checkpoint artifacts) have nothing to audit and open as-is;
    a missing directory raises plain :class:`ServingError` (a usage error,
    not damage).
    """
    from repro.errors import StoreDamaged
    from repro.experiments.checkpoint import (
        MANIFEST_NAME,
        METRICS_NAME,
        verify_store,
    )
    from repro.serving.store import ArtifactStore, resolve_store_path

    stores = []
    for raw in args.store:
        directory = resolve_store_path(raw)
        trust_summary = True
        if (directory / MANIFEST_NAME).exists() or (
            directory / METRICS_NAME
        ).exists():
            report = verify_store(directory)
            if not report["ok"]:
                kinds = sorted(
                    {
                        str(problem.get("kind", "unknown"))
                        for problem in report["problems"]
                    }
                )
                if not args.allow_damaged:
                    raise StoreDamaged(
                        f"store {directory} failed its integrity audit "
                        f"({len(report['problems'])} problem(s): "
                        f"{', '.join(kinds)}); repair it with "
                        f"'repro checkpoint repair {directory}' or pass "
                        "--allow-damaged to serve only verified-clean cells"
                    )
                print(
                    f"WARNING: store {directory} is damaged "
                    f"({', '.join(kinds)}); ignoring its summary.json and "
                    "serving only verified-clean cells",
                    file=sys.stderr,
                )
                trust_summary = False
        stores.append(ArtifactStore(directory, trust_summary=trust_summary))
    return stores


def _command_query(args: argparse.Namespace, out) -> int:
    """Answer one parameter-point query and print the JSON answer.

    A miss under ``--on-miss error`` or a store failing its integrity audit
    exits 1 with the reason on stderr; a malformed or ambiguous query (or a
    missing store directory) exits 2.
    """
    from repro.errors import QueryMiss, ReproError, StoreDamaged
    from repro.experiments.io import json_default
    from repro.serving.cache import make_query_cache
    from repro.serving.query import QueryEngine

    try:
        engine = QueryEngine(
            _open_verified_stores(args),
            cache=make_query_cache(args.cache_size),
            interpolate=args.interpolate,
            on_miss=args.on_miss,
            max_distance=args.max_distance,
        )
        answer = engine.answer(args.point)
    except StoreDamaged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except QueryMiss as exc:
        print(f"miss: {exc}", file=sys.stderr)
        return 1
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(answer, indent=2, default=json_default), file=out)
    return 0


def _command_serve(args: argparse.Namespace, out) -> int:
    """Run the threaded HTTP query service until stopped.

    SIGTERM triggers a graceful drain: the service goes unready (``/readyz``
    fails, new requests get 503), in-flight requests finish (bounded by
    ``--drain-timeout``), then the process exits 0.  Ctrl-C (SIGINT) drains
    the same way.  A store failing its integrity audit refuses to serve with
    exit 1; a missing store is a usage error (exit 2).
    """
    import signal
    import threading

    from repro.errors import ReproError, StoreDamaged
    from repro.serving.cache import make_query_cache
    from repro.serving.http import (
        DEFAULT_HOST,
        DEFAULT_PORT,
        drain_server,
        make_server,
    )

    host = args.host if args.host is not None else DEFAULT_HOST
    port = args.port if args.port is not None else DEFAULT_PORT
    try:
        server = make_server(
            _open_verified_stores(args),
            host=host,
            port=port,
            cache=make_query_cache(args.cache_size),
            interpolate=args.interpolate,
            on_miss=args.on_miss,
            max_distance=args.max_distance,
            max_compute=args.max_compute,
            refresh_interval=args.refresh_interval,
        )
    except StoreDamaged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    bound_host, bound_port = server.server_address[:2]
    print(
        f"serving {', '.join(args.store)} on "
        f"http://{bound_host}:{bound_port} "
        "(routes: /query /stats /cells /healthz /readyz; "
        "SIGTERM or Ctrl-C drains)",
        file=out,
        flush=True,
    )
    stop = threading.Event()
    previous_handler = None
    try:
        previous_handler = signal.signal(
            signal.SIGTERM, lambda signum, frame: stop.set()
        )
    except ValueError:
        # Not the main thread (in-process tests drive main() from workers);
        # the drain path is still reachable via KeyboardInterrupt.
        pass
    accept_thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": 0.1},
        name="repro-serve-accept",
        daemon=True,
    )
    accept_thread.start()
    try:
        stop.wait()
        print("draining", file=out, flush=True)
    except KeyboardInterrupt:
        print("stopping", file=out, flush=True)
    finally:
        drained = drain_server(server, timeout=args.drain_timeout)
        if not drained:
            print(
                "WARNING: drain timed out with requests still in flight",
                file=sys.stderr,
            )
        accept_thread.join(timeout=5.0)
        if previous_handler is not None:
            signal.signal(signal.SIGTERM, previous_handler)
    return 0


_COMMANDS = {
    "info": _command_info,
    "simulate": _command_simulate,
    "sweep": _command_sweep,
    "checkpoint": _command_checkpoint,
    "summarize": _command_summarize,
    "reproduce": _command_reproduce,
    "query": _command_query,
    "serve": _command_serve,
}


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns a process exit code.

    A :class:`~repro.errors.ConfigurationError` (the library's input
    validation, and the commands' own flag checks) is a usage error: one
    ``error:`` line on stderr and exit 2.
    """
    if out is None:
        out = sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
