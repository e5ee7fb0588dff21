"""Experiment harness: specs, runners, result tables and paper experiments.

Execution model
---------------
An :class:`ExperimentSpec` names one *cell* — a model configuration plus a
replicate count and a master seed — and a :class:`SweepSpec` expands a base
configuration into a grid of cells along the tau / horizon / density axes.
Every replicate seed is derived deterministically (sweep seed → cell seed →
replicate seed), so any row of any table can be reproduced in isolation from
the seed stored in it.

Three execution strategies compose freely on top of that seeding scheme:

* **Serial** (the default): ``run_sweep(sweep)`` runs cells and replicates
  one at a time through the scalar :class:`~repro.core.dynamics.GlauberDynamics`
  engine.  This is the reference everything else must match.
* **Vectorized replicates**: ``run_sweep(sweep, ensemble_size=R)`` batches
  each cell's replicates through
  :class:`~repro.core.ensemble.EnsembleDynamics`, which advances ``R``
  lockstep replicas per NumPy call and produces the same rows as the serial
  path (timings aside).  Pick ``R`` as the cell's replicate count when it is
  modest (≤ 16); for larger replicate counts batches of 8–16 keep the
  working set (a few ``(R, n, n)`` arrays) cache-friendly with most of the
  vectorization benefit.
* **Parallel cells**: ``run_sweep(sweep, workers=N)`` (or
  :func:`run_sweep_parallel` directly) shards cells across a process pool
  with chunked distribution and in-order incremental collection, yielding a
  row-for-row identical table.  Pick ``N`` as the number of physical cores
  for compute-bound sweeps (the default is affinity-aware,
  :func:`default_worker_count`); cells are independent, so efficiency is
  near linear once each worker gets a handful of cells.  Results travel
  back pickled through the pool's result queue, and ``checkpoint_dir=``
  adds crash-durable checkpoint/resume via :class:`SweepCheckpoint` — a
  killed sweep rerun against the same directory skips recorded cells and
  reproduces the uninterrupted table.

The two levers multiply: ``workers=N, ensemble_size=R`` runs N cells
concurrently, each advancing R replicas per vectorized step.
``tests/test_core_ensemble.py`` and ``tests/test_experiments_parallel.py``
pin the equivalences; ``benchmarks/bench_ensemble_throughput.py`` tracks the
speedups.

Variant rules compose with all three strategies: specs carry a
:class:`~repro.core.variants.VariantSpec` (two-sided comfort band, per-type
intolerances) that the runners route onto the matching scalar state or
ensemble engine, with identical rows either way
(``tests/test_core_variant_ensemble.py`` pins the bitwise equivalence,
``benchmarks/bench_variants.py`` the variant-engine throughput).  Because no
variant rule carries the paper's Lyapunov termination guarantee, such specs
must set ``max_flips`` or ``max_steps``; per-replicate ``terminated`` columns
report which runs settled within the budget.

Trajectory recording
--------------------
Specs carry ``record_trajectory`` / ``record_every`` flags (CLI:
``repro sweep --record-trajectory [--record-every K]``).  The scalar engine
records a :class:`~repro.core.dynamics.Trajectory` every ``K`` flips; the
ensemble engine records an :class:`~repro.core.ensemble.EnsembleTrajectory`
— ``(R, samples)`` arrays sampled every ``K`` lockstep rounds, with
``replica(r)`` scalar views — and both feed the same ``traj_*`` summary
columns, which are identical across engines because the summaries only read
the (shared) first/last samples plus energy monotonicity.  Recording is
cheap on either engine: energy and magnetization are incremental counters
(O(1) per flip to maintain, O(1)/O(R) to read), so dense recording no longer
performs per-sample full-grid recomputes.
"""

import importlib

from repro.experiments.checkpoint import (
    SweepCheckpoint,
    repair_store,
    verify_store,
)
from repro.experiments.faults import FaultPlan, FaultSpec, InjectedFault
from repro.experiments.io import (
    config_from_dict,
    config_to_dict,
    load_manifest,
    load_table,
    save_manifest,
    save_table,
)
from repro.experiments.parallel import (
    SweepCellError,
    default_worker_count,
    run_sweep_parallel,
)
from repro.experiments.results import ResultTable
from repro.experiments.runner import (
    aggregate_sweep,
    run_experiment,
    run_replicate,
    run_sweep,
)
from repro.experiments.spec import ExperimentSpec, SweepSpec, spec_hash
from repro.experiments.workloads import (
    bench_quick_mode,
    default_tau_grid,
    density_ladder,
    figure1_config,
    full_scale_requested,
    grid_side_for_horizon,
    scaling_horizons,
    sweep_config,
    theorem1_taus,
    theorem2_taus,
)

__all__ = [
    "ExperimentSpec",
    "FaultPlan",
    "FaultSpec",
    "Figure1Result",
    "InjectedFault",
    "ResultTable",
    "ScalingResult",
    "SweepCellError",
    "SweepCheckpoint",
    "SweepSpec",
    "aggregate_sweep",
    "bench_quick_mode",
    "config_from_dict",
    "config_to_dict",
    "default_tau_grid",
    "default_worker_count",
    "density_ladder",
    "density_sweep_experiment",
    "dynamics_ablation_experiment",
    "figure1_config",
    "figure1_snapshots",
    "figure2_interval_sweep",
    "figure3_exponent_table",
    "figure6_trigger_table",
    "firewall_experiment",
    "full_scale_requested",
    "grid_side_for_horizon",
    "kawasaki_comparison_experiment",
    "lemma19_unhappy_experiment",
    "load_manifest",
    "load_table",
    "monotonicity_experiment",
    "percolation_substrate_experiment",
    "proposition1_experiment",
    "radical_expansion_experiment",
    "repair_store",
    "run_experiment",
    "run_replicate",
    "run_sweep",
    "run_sweep_parallel",
    "save_manifest",
    "save_table",
    "scaling_horizons",
    "spec_hash",
    "sweep_config",
    "symmetry_experiment",
    "theorem1_scaling",
    "theorem1_taus",
    "theorem2_scaling",
    "theorem2_taus",
    "verify_store",
]

#: Paper experiments imported from their home module on first access
#: (PEP 562), so sweeps and their pool workers never load them.
_LAZY_EXPORTS = {
    "Figure1Result": "repro.experiments.figures",
    "ScalingResult": "repro.experiments.figures",
    "figure1_snapshots": "repro.experiments.figures",
    "figure2_interval_sweep": "repro.experiments.figures",
    "figure3_exponent_table": "repro.experiments.figures",
    "figure6_trigger_table": "repro.experiments.figures",
    "monotonicity_experiment": "repro.experiments.figures",
    "symmetry_experiment": "repro.experiments.figures",
    "theorem1_scaling": "repro.experiments.figures",
    "theorem2_scaling": "repro.experiments.figures",
    "density_sweep_experiment": "repro.experiments.validation",
    "dynamics_ablation_experiment": "repro.experiments.validation",
    "firewall_experiment": "repro.experiments.validation",
    "kawasaki_comparison_experiment": "repro.experiments.validation",
    "lemma19_unhappy_experiment": "repro.experiments.validation",
    "percolation_substrate_experiment": "repro.experiments.validation",
    "proposition1_experiment": "repro.experiments.validation",
    "radical_expansion_experiment": "repro.experiments.validation",
}


def __getattr__(name: str):
    module = _LAZY_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
