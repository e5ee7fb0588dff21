"""The flip-loop backend protocol.

The ensemble engine's innermost layer — one round's scalar control plane
(termination/sampler filtering, blocked RNG draws, clock updates, candidate
gathers), the fused gather-classify-scatter window kernel, and the coded-op
membership updates on :class:`~repro.utils.indexset.BatchedIndexSet`
storage — is pluggable.  A :class:`FlipLoopBackend` implements those three
operations over the engine's batched arrays, plus :meth:`run_rounds`, which
strings rounds together until a :class:`RunBudget` stops every replica.  Its
default is the engine's one Python round loop; a compiled backend may run
the whole loop natively.  Everything above it (seeding, trajectories, the
public result surface) is shared, so backends can only differ in *how*
rounds execute, never in what a round means.

The contract is bitwise: every backend must consume the pre-drawn
:class:`~repro.rng.BlockedReplicaStreams` words in exactly the reference
order and produce bit-identical spins, clocks, counters and sampler layouts
— the same guarantee `ReferenceEnsembleDynamics` pins for the fused engine
itself.  The cross-backend suite in ``tests/test_backends.py`` enforces it
for every backend the host can run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.ensemble import EnsembleDynamics
    from repro.utils.indexset import BatchedIndexSet


@dataclass(frozen=True)
class RunBudget:
    """The per-replica stopping rule of one ``EnsembleDynamics.run`` call.

    Budgets count from the counters captured when the run started, with the
    scalar engine's semantics: a replica may step while it is not terminated,
    its flips and steps since the start stay below ``max_flips`` /
    ``max_steps`` and its clock is below ``max_time`` (``None`` = no limit).
    """

    start_flips: np.ndarray
    start_steps: np.ndarray
    max_flips: Optional[int] = None
    max_steps: Optional[int] = None
    max_time: Optional[float] = None

    def active(self, engine: "EnsembleDynamics") -> np.ndarray:
        """Indices of the replicas allowed to step this round."""
        mask = engine._termination_counts() != 0
        if self.max_flips is not None:
            mask &= (engine._n_flips - self.start_flips) < self.max_flips
        if self.max_steps is not None:
            steps = np.asarray(engine._n_steps, dtype=np.int64)
            mask &= (steps - self.start_steps) < self.max_steps
        if self.max_time is not None:
            mask &= np.asarray(engine._times) < self.max_time
        return np.flatnonzero(mask)


class FlipLoopBackend:
    """One execution strategy for the engine's per-round hot path.

    Lifecycle: the registry constructs backends unattached (so capability
    probes and the standalone :meth:`apply_coded_ops` entry point need no
    engine), then :meth:`attach` binds one to a live
    :class:`~repro.core.ensemble.EnsembleDynamics` whose batched arrays it
    will mutate in place.  A backend instance serves exactly one engine.
    The base class itself is only ever attached for its :meth:`run_rounds`
    loop (the reference engine steps rounds on its own).
    """

    #: Registry name; subclasses override.
    name: str = "abstract"

    def attach(self, engine: "EnsembleDynamics") -> None:
        """Bind this backend to ``engine``'s runtime arrays."""
        self.engine = engine

    def step_round(self, candidates: np.ndarray) -> np.ndarray:
        """Advance every candidate replica by one scheduler step.

        The scalar-regime round: per listed replica, termination and sampler
        checks, the blocked RNG draws (waiting time under the continuous
        scheduler, then the Lemire candidate), clock/step updates, the member
        gather and the discrete-scheduler flip gate — then the fused window
        update and per-flip bookkeeping for every replica that flips.
        Returns the array of replica indices that flipped.
        """
        raise NotImplementedError

    def run_rounds(self, budget: RunBudget, max_rounds: Optional[int] = None) -> int:
        """Advance lockstep rounds until ``budget`` stops every replica.

        Each round steps the replicas ``budget.active`` selects, exactly as
        ``engine.step_all(active)`` does; the call also returns after
        ``max_rounds`` rounds (a trajectory-sample boundary).  Returns the
        number of rounds run, so fewer than ``max_rounds`` means no replica
        may step any more.

        This default is the engine's Python round loop, used by every
        backend without a native round loop and by the reference engine.
        """
        engine = self.engine
        rounds = 0
        while max_rounds is None or rounds < max_rounds:
            active = budget.active(engine)
            if active.size == 0:
                break
            engine.step_all(active)
            rounds += 1
        return rounds

    def apply_flips(
        self,
        reps: np.ndarray,
        flats: np.ndarray,
        bases: Optional[np.ndarray] = None,
    ) -> None:
        """Flip one site per listed replica — the fused window kernel.

        Gather each flip's neighbourhood window, update the incremental
        same-type counts, reclassify via the engine's code LUT, maintain the
        deferred energy/magnetization counters, and stream the resulting
        membership deltas into the samplers as coded operations.  Used both
        by :meth:`step_round` and by the engine's vectorized large-round
        path.
        """
        raise NotImplementedError

    def apply_coded_ops(
        self,
        sets: "BatchedIndexSet",
        rows: Sequence[int],
        indices: Sequence[int],
        toggled: Sequence[int],
        members: Sequence[int],
        row_offset: int,
    ) -> None:
        """Apply one coded membership-op stream to ``sets``, strictly in order.

        Semantics are exactly
        :meth:`~repro.utils.indexset.BatchedIndexSet.apply_coded_ops` — bit 0
        of ``toggled[k]`` updates row ``rows[k]``, bit 1 updates row
        ``rows[k] + row_offset``, bit 0 before bit 1, ``k`` order preserved.
        Engine-independent so the edge-case suite can drive every backend's
        membership loop against the scalar oracle directly.
        """
        raise NotImplementedError
