"""Replicate and sweep execution.

The runner turns :class:`~repro.experiments.spec.ExperimentSpec` /
:class:`~repro.experiments.spec.SweepSpec` objects into
:class:`~repro.experiments.results.ResultTable` rows: one row per replicate
with the full set of segregation metrics for the initial and final
configurations, plus run metadata (flips, termination, wall-clock time).

Two engines run a cell's replicates, and :func:`resolve_engine` picks one:

* the lockstep :class:`~repro.core.ensemble.EnsembleDynamics` (the default),
  ``ensemble_size`` replicas at a time, :data:`DEFAULT_ENSEMBLE_SIZE` when
  unset;
* the scalar :class:`~repro.core.dynamics.GlauberDynamics`, one replicate at
  a time, only for ``ensemble_size=1``: the oracle the ensemble is tested
  against.

Replica seeds are derived identically on both
(:func:`repro.rng.replicate_seeds`), so the rows are identical apart from
wall-clock timings.  ``workers=N`` fans sweep cells out to a process pool
(:func:`repro.experiments.parallel.run_sweep_parallel`); cell seeds come from
the sweep spec, so the table is row-for-row identical to a serial run.

Cells carrying a non-base :class:`~repro.core.variants.VariantSpec` go through
the same machinery: the scalar path builds the variant state inside
:class:`~repro.core.simulation.Simulation`, the ensemble path builds the
matching variant engine via :meth:`VariantSpec.make_ensemble`, and both apply
the cell's ``max_flips``/``max_steps`` budgets per replicate, so variant rows
are engine-independent too (the two-sided variant reports per-replicate
``terminated`` flags instead of relying on the Lyapunov guarantee).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.analysis.segregation import (
    default_region_radius,
    segregation_metrics,
    segregation_metrics_batch,
)
from repro.analysis.trajectory import summarize_trajectory
from repro.core.backends.registry import resolve_backend_name, select_backend_name
from repro.core.config import ModelConfig
from repro.core.dynamics import Trajectory
from repro.core.simulation import Simulation
from repro.errors import ExperimentError
from repro.experiments.results import ResultTable
from repro.experiments.spec import ExperimentSpec, SweepSpec
from repro.rng import replicate_seeds
from repro.utils.timer import Timer


#: Lockstep batch size of a cell run with ``ensemble_size`` left unset; a
#: cell with fewer replicates runs as one batch of all of them.
DEFAULT_ENSEMBLE_SIZE = 8

#: The engine name :func:`resolve_engine` returns, and checkpoint
#: provenance records, for the scalar engine.
SCALAR_ENGINE = "scalar"


def resolve_engine(
    ensemble_size: Optional[int],
    backend: Optional[str] = None,
    spec_backend: Optional[str] = None,
) -> str:
    """The engine ``ensemble_size`` selects: a backend name or ``"scalar"``.

    Only ``ensemble_size=1`` selects the scalar engine; anything else runs
    the lockstep ensemble on the backend that ``backend`` >
    ``REPRO_BACKEND`` > ``spec_backend`` > auto resolves to.  Sweeps and
    ``repro reproduce`` record the result as provenance.  A non-positive
    ``ensemble_size`` raises :class:`~repro.errors.ExperimentError`.
    """
    if ensemble_size is not None and ensemble_size <= 0:
        raise ExperimentError(f"ensemble_size must be positive, got {ensemble_size}")
    if ensemble_size == 1:
        return SCALAR_ENGINE
    return resolve_backend_name(select_backend_name(backend, spec_backend))


def _region_radius(spec: ExperimentSpec, config: ModelConfig) -> int:
    """The region-scan radius used by the metrics of one cell."""
    if spec.max_region_radius is not None:
        return spec.max_region_radius
    return default_region_radius(config)


def _result_row(
    spec: ExperimentSpec,
    replicate_index: int,
    replicate_seed: int,
    initial_spins: np.ndarray,
    final_spins: np.ndarray,
    terminated: bool,
    n_flips: int,
    final_time: float,
    wall_clock_seconds: float,
    trajectory: Optional[Trajectory] = None,
    initial_metrics=None,
    final_metrics=None,
) -> dict[str, object]:
    """Assemble one replicate row from run outputs (shared by both engines).

    When a recorded ``trajectory`` is supplied its scalar summary is attached
    as ``traj_*`` columns; the summary only reads the first/last samples plus
    energy monotonicity, so the scalar and ensemble engines produce identical
    values despite their different sampling cadences.  ``initial_metrics`` /
    ``final_metrics`` accept precomputed
    :class:`~repro.analysis.segregation.SegregationMetrics` bundles (the
    ensemble path computes them batched); when omitted they are computed here
    with the identical settings, so the rows come out the same either way.
    """
    config = spec.config
    max_region_radius = _region_radius(spec, config)
    if initial_metrics is None:
        initial_metrics = segregation_metrics(
            initial_spins, config, max_region_radius=max_region_radius
        )
    if final_metrics is None:
        final_metrics = segregation_metrics(
            final_spins, config, max_region_radius=max_region_radius
        )
    flipped = int(np.count_nonzero(initial_spins != final_spins))
    row: dict[str, object] = {
        "experiment": spec.name,
        "replicate": replicate_index,
        "seed": replicate_seed,
        "n_rows": config.n_rows,
        "n_cols": config.n_cols,
        "horizon": config.horizon,
        "neighborhood_agents": config.neighborhood_agents,
        "tau": config.tau,
        "effective_tau": config.effective_tau,
        "density": config.density,
        "variant": spec.variant.kind.value,
        "terminated": terminated,
        "n_flips": n_flips,
        "final_time": final_time,
        "wall_clock_seconds": wall_clock_seconds,
        "flipped_fraction": flipped / initial_spins.size,
    }
    if spec.variant.tau_high is not None:
        row["tau_high"] = spec.variant.tau_high
    if spec.variant.tau_minus is not None:
        row["tau_minus"] = spec.variant.tau_minus
    for key, value in initial_metrics.as_dict().items():
        row[f"initial_{key}"] = value
    for key, value in final_metrics.as_dict().items():
        row[f"final_{key}"] = value
    if trajectory is not None:
        for key, value in summarize_trajectory(trajectory).as_dict().items():
            row[f"traj_{key}"] = value
    return row


def run_replicate(
    spec: ExperimentSpec, replicate_index: int, replicate_seed: int
) -> dict[str, object]:
    """Run one replicate of ``spec`` (under its variant rule) and return its row."""
    simulation = Simulation(spec.config, seed=replicate_seed, variant=spec.variant)
    with Timer() as timer:
        result = simulation.run(
            max_flips=spec.max_flips,
            max_steps=spec.max_steps,
            record_trajectory=spec.record_trajectory,
            record_every=spec.record_every,
        )
    return _result_row(
        spec,
        replicate_index,
        replicate_seed,
        result.initial_spins,
        result.final_spins,
        result.terminated,
        result.n_flips,
        result.final_time,
        timer.elapsed,
        trajectory=result.trajectory,
    )


def _run_experiment_ensemble(
    spec: ExperimentSpec, ensemble_size: int, backend_name: str
) -> ResultTable:
    """Run a cell's replicates in vectorized batches of ``ensemble_size``.

    Replica seeds and RNG streams match the scalar engine exactly, so the
    rows differ from the scalar engine's only in ``wall_clock_seconds``
    (reported as the batch time split evenly across its replicas, since
    lockstep replicas share the work).  Measurement is batched too: each
    batch's initial and final ``(R, n, n)`` stacks go through
    :func:`~repro.analysis.segregation.segregation_metrics_batch`, whose
    per-replica bundles are bitwise identical to the scalar path's.
    ``backend_name`` is the concrete backend :func:`resolve_engine` chose;
    backends are bitwise identical, so it never changes the rows.
    """
    table = ResultTable()
    seeds = replicate_seeds(spec.seed, spec.n_replicates)
    max_region_radius = _region_radius(spec, spec.config)
    for batch_start in range(0, len(seeds), ensemble_size):
        batch_seeds = seeds[batch_start : batch_start + ensemble_size]
        ensemble = spec.variant.make_ensemble(
            spec.config, replica_seeds=batch_seeds, backend=backend_name
        )
        initial = ensemble.initial_spins()
        with Timer() as timer:
            result = ensemble.run(
                max_flips=spec.max_flips,
                max_steps=spec.max_steps,
                record_trajectory=spec.record_trajectory,
                record_every=spec.record_every,
            )
        per_replica_seconds = timer.elapsed / len(batch_seeds)
        initial_metrics = segregation_metrics_batch(
            initial, spec.config, max_region_radius=max_region_radius
        )
        final_metrics = segregation_metrics_batch(
            result.final_spins, spec.config, max_region_radius=max_region_radius
        )
        for offset, seed in enumerate(batch_seeds):
            table.add_row(
                **_result_row(
                    spec,
                    batch_start + offset,
                    seed,
                    initial[offset],
                    result.final_spins[offset],
                    bool(result.terminated[offset]),
                    int(result.n_flips[offset]),
                    float(result.final_time[offset]),
                    per_replica_seconds,
                    trajectory=(
                        result.trajectory.replica(offset)
                        if result.trajectory is not None
                        else None
                    ),
                    initial_metrics=initial_metrics[offset],
                    final_metrics=final_metrics[offset],
                )
            )
    return table


def run_experiment(
    spec: ExperimentSpec,
    ensemble_size: Optional[int] = None,
    backend: Optional[str] = None,
) -> ResultTable:
    """Run all replicates of one experiment cell.

    The replicates run on the lockstep ensemble engine in batches of
    ``ensemble_size``, :data:`DEFAULT_ENSEMBLE_SIZE` when it is ``None``;
    an explicit ``ensemble_size=1`` runs them one at a time on the scalar
    engine instead, the oracle.  Both engines derive replicate seeds
    identically and produce identical rows (up to wall-clock timings).
    ``backend`` requests a flip-loop backend for the ensemble (strongest
    level of the CLI > env > spec > auto precedence); the scalar engine has
    no backend seam and ignores it.  A non-positive ``ensemble_size``
    raises :class:`~repro.errors.ExperimentError`.
    """
    engine = resolve_engine(ensemble_size, backend, spec.backend)
    if engine != SCALAR_ENGINE:
        batch = DEFAULT_ENSEMBLE_SIZE if ensemble_size is None else ensemble_size
        return _run_experiment_ensemble(spec, batch, engine)
    table = ResultTable()
    seeds = replicate_seeds(spec.seed, spec.n_replicates)
    for index, seed in enumerate(seeds):
        table.add_row(**run_replicate(spec, index, seed))
    return table


def run_sweep(
    sweep: SweepSpec,
    progress: Optional[Callable[[ExperimentSpec], None]] = None,
    workers: Optional[int] = None,
    ensemble_size: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    retries: int = 0,
    cell_timeout: Optional[float] = None,
    on_error: str = "raise",
    backend: Optional[str] = None,
) -> ResultTable:
    """Run every cell of a sweep and concatenate the replicate rows.

    Every call runs through
    :func:`repro.experiments.parallel.run_sweep_parallel`, whose supervisor
    runs a serial sweep (``workers`` of ``None`` or 1) inline, cell by cell,
    and shards a larger ``workers`` across a process pool while preserving
    row order.  ``progress`` (if given) is called exactly once per cell, in
    cell order, after the cell completes — benchmarks use it to emit a line
    per cell.  ``ensemble_size`` picks the replicate engine, as in
    :func:`run_experiment`.  ``checkpoint_dir`` streams completed cells to a
    resumable artifact directory and skips cells a previous run already
    recorded — see :mod:`repro.experiments.checkpoint`.  ``retries`` /
    ``cell_timeout`` / ``on_error`` configure the fault-tolerant supervisor
    (retry with seeded backoff, hang detection, quarantine).  Under the
    default ``on_error="raise"`` a failing cell aborts the sweep with
    :class:`~repro.experiments.parallel.SweepCellError`, which names the
    cell and is chained to the original exception.  ``backend`` requests a
    flip-loop backend for ensemble execution (see :func:`run_experiment`),
    propagated to pool workers unchanged.
    """
    # Imported here: parallel builds on this module's cell runner.
    from repro.experiments.parallel import run_sweep_parallel

    return run_sweep_parallel(
        sweep,
        workers=1 if workers is None else workers,
        progress=progress,
        ensemble_size=ensemble_size,
        checkpoint_dir=checkpoint_dir,
        retries=retries,
        cell_timeout=cell_timeout,
        on_error=on_error,
        backend=backend,
    )


#: Metrics summarised per parameter cell unless a caller overrides them
#: (the CLI extends these with ``traj_*`` keys when recording trajectories).
DEFAULT_SWEEP_VALUE_KEYS: tuple[str, ...] = (
    "final_mean_monochromatic_size",
    "final_mean_almost_monochromatic_size",
    "final_local_homogeneity",
    "final_unhappy_fraction",
    "final_largest_cluster_fraction",
    "n_flips",
)


def aggregate_sweep(
    table: ResultTable,
    group_keys: tuple[str, ...] = ("tau", "horizon", "density"),
    value_keys: tuple[str, ...] = DEFAULT_SWEEP_VALUE_KEYS,
) -> ResultTable:
    """Group replicate rows by parameter cell and summarise the key metrics."""
    return table.group_summary(list(group_keys), list(value_keys))
