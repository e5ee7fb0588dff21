"""Experiment specifications.

An :class:`ExperimentSpec` names one cell of an experiment — a model
configuration, a replicate count and a master seed — and a :class:`SweepSpec`
expands a base configuration along the axes the paper sweeps (intolerance,
horizon, density).  Keeping these as plain frozen dataclasses makes sweeps
serialisable and the benchmark parameters explicit.

Both specs carry a :class:`~repro.core.variants.VariantSpec` selecting the
happiness rule (base model, two-sided comfort band, per-type intolerances);
the runners route it to either execution engine unchanged, and the process
pool pickles it with the rest of the frozen spec.  Because only the base
model carries the paper's Lyapunov termination guarantee, specs using any
other variant must set a ``max_flips`` or ``max_steps`` budget —
construction fails otherwise rather than risking a non-terminating sweep
cell.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from repro.core.config import ModelConfig
from repro.core.variants import BASE_VARIANT, VariantSpec
from repro.errors import ExperimentError
from repro.types import VariantKind


def _require_non_negative_seed(seed: int) -> None:
    """Reject a negative master seed before any replicate is seeded.

    numpy's ``SeedSequence`` refuses one only when a replicate starts, so a
    sweep would otherwise quarantine such a cell as flaky while cells whose
    derived seed (``seed + 7919 * index``) is non-negative run.
    """
    if seed < 0:
        raise ExperimentError(f"seed must be non-negative, got {seed}")


def _require_budget_for_variant(
    variant: VariantSpec, max_flips: Optional[int], max_steps: Optional[int]
) -> None:
    """Reject budget-less specs for rules without a termination guarantee.

    The paper's Lyapunov argument covers the base model only; the two-sided
    band breaks it outright and the asymmetric rule's status is open, so any
    non-base variant must bound its replicates by flips or steps rather than
    risk a sweep cell that never halts.
    """
    if not variant.guarantees_termination and max_flips is None and max_steps is None:
        raise ExperimentError(
            f"the {variant.kind.value} variant has no termination guarantee: "
            "set max_flips or max_steps on the spec"
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """A single experiment cell: one configuration, several replicates."""

    name: str
    config: ModelConfig
    n_replicates: int = 3
    seed: int = 0
    max_flips: Optional[int] = None
    #: Cap on scheduler steps per replicate (flips plus no-op selections).
    #: Mandatory (or ``max_flips``) for every non-base variant, none of which
    #: carries the paper's Lyapunov termination guarantee.
    max_steps: Optional[int] = None
    #: Cap on the region-scan radius used by the metrics (None = grid limit).
    max_region_radius: Optional[int] = None
    #: Record per-replicate trajectories and add ``traj_*`` summary columns.
    record_trajectory: bool = False
    #: Sampling cadence for trajectory recording (flips for the scalar
    #: engine, lockstep rounds for the ensemble engine).
    record_every: int = 100
    #: Happiness rule applied by every replicate of this cell.
    variant: VariantSpec = BASE_VARIANT
    #: Flip-loop backend request for ensemble execution (``None`` = auto).
    #: Deliberately NOT part of :func:`spec_fingerprint`: every backend is
    #: pinned bitwise identical, so rows are backend-invariant and recorded
    #: cells stay valid when the execution backend changes.  Provenance is
    #: recorded separately (checkpoint manifest / per-record field).
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ExperimentError("experiment name must be non-empty")
        if self.n_replicates <= 0:
            raise ExperimentError(
                f"n_replicates must be positive, got {self.n_replicates}"
            )
        _require_non_negative_seed(self.seed)
        if self.record_every <= 0:
            raise ExperimentError(
                f"record_every must be positive, got {self.record_every}"
            )
        if not isinstance(self.variant, VariantSpec):
            raise ExperimentError(
                f"variant must be a VariantSpec, got {self.variant!r}"
            )
        _require_budget_for_variant(self.variant, self.max_flips, self.max_steps)


@dataclass(frozen=True)
class SweepSpec:
    """A sweep of :class:`ExperimentSpec` cells along tau / horizon / density."""

    name: str
    base_config: ModelConfig
    taus: Sequence[float] = field(default_factory=tuple)
    horizons: Sequence[int] = field(default_factory=tuple)
    densities: Sequence[float] = field(default_factory=tuple)
    n_replicates: int = 3
    seed: int = 0
    max_flips: Optional[int] = None
    max_steps: Optional[int] = None
    max_region_radius: Optional[int] = None
    record_trajectory: bool = False
    record_every: int = 100
    #: Happiness rule applied by every cell of the sweep.
    variant: VariantSpec = BASE_VARIANT
    #: Flip-loop backend request propagated to every cell (``None`` = auto);
    #: excluded from cell fingerprints, like :attr:`ExperimentSpec.backend`.
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ExperimentError("sweep name must be non-empty")
        if not (self.taus or self.horizons or self.densities):
            raise ExperimentError("a sweep must vary at least one parameter")
        _require_non_negative_seed(self.seed)
        if not isinstance(self.variant, VariantSpec):
            raise ExperimentError(
                f"variant must be a VariantSpec, got {self.variant!r}"
            )
        _require_budget_for_variant(self.variant, self.max_flips, self.max_steps)

    def cells(self) -> Iterator[ExperimentSpec]:
        """Yield one :class:`ExperimentSpec` per parameter combination.

        Axes that are left empty keep the base configuration's value.  The
        per-cell seed is derived deterministically from the sweep seed and the
        cell index so that cells are independent yet reproducible.
        """
        taus = list(self.taus) or [self.base_config.tau]
        horizons = list(self.horizons) or [self.base_config.horizon]
        densities = list(self.densities) or [self.base_config.density]
        index = 0
        for horizon in horizons:
            for tau in taus:
                for density in densities:
                    config = (
                        self.base_config.with_horizon(horizon)
                        .with_tau(tau)
                        .with_density(density)
                    )
                    yield ExperimentSpec(
                        name=f"{self.name}[w={horizon},tau={tau:.4f},p={density:.3f}]",
                        config=config,
                        n_replicates=self.n_replicates,
                        seed=self.seed + 7919 * index,
                        max_flips=self.max_flips,
                        max_steps=self.max_steps,
                        max_region_radius=self.max_region_radius,
                        record_trajectory=self.record_trajectory,
                        record_every=self.record_every,
                        variant=self.variant,
                        backend=self.backend,
                    )
                    index += 1

    def n_cells(self) -> int:
        """Number of cells the sweep expands to."""
        taus = len(self.taus) or 1
        horizons = len(self.horizons) or 1
        densities = len(self.densities) or 1
        return taus * horizons * densities


def spec_fingerprint(spec: ExperimentSpec) -> dict[str, object]:
    """A JSON-friendly dict capturing everything that determines a cell's rows.

    The fingerprint covers the model configuration, replicate count, seeds,
    budgets, measurement knobs and the variant rule — and the cell *name*,
    because the name is itself a row column (``experiment``), so two cells
    must only be treated as interchangeable when their rows would be
    identical byte for byte.  Wall-clock timings are the only row content not
    pinned by the fingerprint.  The ``backend`` field is deliberately
    excluded: backends are pinned bitwise identical, so rows are
    backend-invariant and recorded cells survive backend changes.
    """
    # Imported here: ``io`` depends on results/config only, so the import is
    # acyclic, but keeping it out of module scope keeps spec import-light.
    from repro.experiments.io import config_to_dict

    return {
        "name": spec.name,
        "config": config_to_dict(spec.config),
        "n_replicates": spec.n_replicates,
        "seed": spec.seed,
        "max_flips": spec.max_flips,
        "max_steps": spec.max_steps,
        "max_region_radius": spec.max_region_radius,
        "record_trajectory": spec.record_trajectory,
        "record_every": spec.record_every,
        "variant": {
            "kind": spec.variant.kind.value,
            "tau_high": spec.variant.tau_high,
            "tau_minus": spec.variant.tau_minus,
        },
    }


def spec_hash(spec: ExperimentSpec) -> str:
    """Stable content hash of one experiment cell (hex SHA-256).

    Checkpointed sweeps key completed cells by this hash
    (:mod:`repro.experiments.checkpoint`): a resumed run reuses a recorded
    cell only when the hash matches, so edits to any row-determining
    parameter — tau grid, seeds, budgets, variant — invalidate stale records
    automatically instead of silently mixing tables.
    """
    payload = json.dumps(
        spec_fingerprint(spec), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
