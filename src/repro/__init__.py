"""repro — a reproduction of "Self-organized Segregation on the Grid".

This package implements the Schelling / zero-temperature Ising segregation
model of Omidvar & Franceschetti (PODC 2017) with Glauber dynamics on a torus,
together with every substrate the paper's analysis relies on (percolation,
first-passage percolation, chemical distances, block renormalisation), the
theoretical thresholds and exponents of Theorems 1 and 2, and an experiment
harness that regenerates the paper's figures.

Quickstart::

    from repro import ModelConfig, simulate, segregation_metrics

    config = ModelConfig.square(side=80, horizon=3, tau=0.45)
    result = simulate(config, seed=0)
    print(segregation_metrics(result.final_spins, config).as_dict())

The serving names and the paper experiments load from their home modules on
first access, so ``import repro``, which every ``repro`` command and sweep
worker pays, imports neither the HTTP stack nor those experiments.
"""

import importlib

from repro._version import PAPER, __version__
from repro.analysis import (
    SegregationMetrics,
    almost_monochromatic_radius_map,
    check_firewall_robustness,
    classify_blocks,
    expected_almost_region_size,
    expected_region_size,
    interface_density,
    local_homogeneity,
    default_region_radius,
    monochromatic_radius,
    monochromatic_radius_map,
    region_scan_table,
    segregation_metrics,
    segregation_metrics_batch,
    summarize_regions,
    try_expand_radical_region,
    unhappy_fraction,
)
from repro.core import (
    EnsembleDynamics,
    EnsembleRunResult,
    EnsembleTrajectory,
    GlauberDynamics,
    KawasakiDynamics,
    ModelConfig,
    ModelState,
    Simulation,
    SimulationResult,
    TorusGrid,
    VariantSpec,
    lyapunov_energy,
    neighborhood_size,
    planted_radical_region_configuration,
    random_configuration,
    run_ensemble,
    run_to_completion,
    simulate,
)
from repro.errors import (
    AnalysisError,
    ConfigurationError,
    ExperimentError,
    PercolationError,
    QueryMiss,
    ReproError,
    ServingError,
    StateError,
)
from repro.experiments import (
    ExperimentSpec,
    ResultTable,
    SweepSpec,
    run_sweep,
    run_sweep_parallel,
)
from repro.percolation import (
    FirstPassagePercolation,
    SitePercolation,
    chemical_distance,
    estimate_theta,
)
from repro.theory import (
    binary_entropy,
    classify_regime,
    lower_exponent,
    tau1,
    tau2,
    trigger_epsilon,
    upper_exponent,
)
from repro.types import (
    AgentType,
    DynamicsKind,
    FlipRule,
    Regime,
    SchedulerKind,
    VariantKind,
)

__all__ = [
    "AgentType",
    "AnalysisError",
    "ArtifactStore",
    "ConfigurationError",
    "DynamicsKind",
    "EnsembleDynamics",
    "EnsembleRunResult",
    "EnsembleTrajectory",
    "ExperimentError",
    "ExperimentSpec",
    "FirstPassagePercolation",
    "FlipRule",
    "GlauberDynamics",
    "KawasakiDynamics",
    "LRUCache",
    "ModelConfig",
    "ModelState",
    "PAPER",
    "PercolationError",
    "QueryEngine",
    "QueryMiss",
    "Regime",
    "ReproError",
    "ResultTable",
    "SchedulerKind",
    "SegregationMetrics",
    "ServingError",
    "Simulation",
    "SimulationResult",
    "SitePercolation",
    "StateError",
    "SweepSpec",
    "TorusGrid",
    "VariantKind",
    "VariantSpec",
    "__version__",
    "almost_monochromatic_radius_map",
    "binary_entropy",
    "check_firewall_robustness",
    "chemical_distance",
    "classify_blocks",
    "classify_regime",
    "default_region_radius",
    "estimate_theta",
    "expected_almost_region_size",
    "expected_region_size",
    "figure1_snapshots",
    "figure2_interval_sweep",
    "figure3_exponent_table",
    "figure6_trigger_table",
    "interface_density",
    "local_homogeneity",
    "lower_exponent",
    "lyapunov_energy",
    "monochromatic_radius",
    "monochromatic_radius_map",
    "neighborhood_size",
    "planted_radical_region_configuration",
    "random_configuration",
    "region_scan_table",
    "reproduce_store",
    "run_ensemble",
    "run_sweep",
    "run_sweep_parallel",
    "run_to_completion",
    "segregation_metrics",
    "segregation_metrics_batch",
    "simulate",
    "summarize_regions",
    "tau1",
    "tau2",
    "theorem1_scaling",
    "theorem2_scaling",
    "trigger_epsilon",
    "try_expand_radical_region",
    "unhappy_fraction",
    "upper_exponent",
]

#: Public names imported from their home module on first access (PEP 562).
_LAZY_EXPORTS = {
    "ArtifactStore": "repro.serving",
    "LRUCache": "repro.serving",
    "QueryEngine": "repro.serving",
    "reproduce_store": "repro.serving",
    "figure1_snapshots": "repro.experiments.figures",
    "figure2_interval_sweep": "repro.experiments.figures",
    "figure3_exponent_table": "repro.experiments.figures",
    "figure6_trigger_table": "repro.experiments.figures",
    "theorem1_scaling": "repro.experiments.figures",
    "theorem2_scaling": "repro.experiments.figures",
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
