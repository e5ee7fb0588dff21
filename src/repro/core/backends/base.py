"""The flip-loop backend protocol.

The ensemble engine's innermost layer — each round's control plane
(termination/sampler filtering, RNG draws, clock updates, candidate
gathers), the fused gather-classify-scatter window kernel, and the coded-op
membership updates on :class:`~repro.utils.indexset.BatchedIndexSet`
storage — is pluggable, and so is the engine build that sets those arrays
up.  A :class:`FlipLoopBackend` implements three operations over the
engine's batched arrays.  :meth:`~FlipLoopBackend.run_rounds` strings
rounds together until a :class:`RunBudget` stops every replica; it is the
only way a round runs.  :meth:`~FlipLoopBackend.rebuild` writes every
replica's counts, codes, samplers and counters from its spins; it is the
only way the engine is built.  :meth:`~FlipLoopBackend.apply_coded_ops`
applies one membership-op stream on its own, for the edge-case suite.
The numpy backend runs the rounds as a Python loop in lockstep and the
build as array code; the compiled backend runs each as one native call
that handles one replica at a time.  Everything above them (seeding, the
code table, trajectories, the public result surface) is shared, so
backends can only differ in *how* rounds execute, never in what a round
means.

The contract is bitwise: every backend must consume each replica's PCG64
stream in exactly the scalar engine's order and produce bit-identical
spins, clocks, counters, codes and sampler layouts.  Every backend draws
through the replica's own ``Generator`` (``engine._rngs``): the numpy backend
through its methods, the compiled backend through its bit generator's C
interface.  So the stream position lives in one place under both.
``tests/test_core_ensemble.py`` pins every backend
the host can run to the scalar :class:`~repro.core.dynamics.GlauberDynamics`,
and the cross-backend suite in ``tests/test_backends.py`` pins their full
state to each other, including each replica's ``Generator`` state.
"""

from __future__ import annotations

import weakref
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
            mask &= (engine._n_steps - self.start_steps) < self.max_steps
        if self.max_time is not None:
            mask &= engine._times < self.max_time
        return np.flatnonzero(mask)


class FlipLoopBackend:
    """One execution strategy for the engine's build and round loop.

    Lifecycle: the registry constructs backends unattached (so capability
    probes and the standalone :meth:`apply_coded_ops` entry point need no
    engine).  An engine allocates its arrays, then :meth:`attach` binds the
    backend to that live :class:`~repro.core.ensemble.EnsembleDynamics`,
    before the first :meth:`rebuild`.  From then on every build and every
    round reads :attr:`engine` and mutates its arrays in place; the engine
    never reallocates them.  A backend instance serves exactly one engine.

    The engine owns its backend, so the backend holds the engine only
    weakly: a strong back-reference would make the pair a reference cycle,
    and a finished engine's arrays would then wait for a full garbage
    collection instead of being freed when the last reference goes.
    """

    #: Registry name; subclasses override.
    name: str = "abstract"

    def attach(self, engine: "EnsembleDynamics") -> None:
        """Bind this backend to ``engine``'s runtime arrays."""
        self._engine_ref = weakref.ref(engine)

    @property
    def engine(self) -> "EnsembleDynamics":
        """The attached engine (raises ``ReferenceError`` once it is gone)."""
        engine = self._engine_ref()
        if engine is None:
            raise ReferenceError("the engine this backend served no longer exists")
        return engine

    def rebuild(self) -> None:
        """Build the engine's counts, codes, samplers and counters from its spins.

        Called by :meth:`~repro.core.ensemble.EnsembleDynamics.recompute_all`
        on the attached engine.  Writes, in place and for every replica: each
        site's same-type count in its horizon window and its code from the
        engine's code table ``engine._code_lut``, the energy and plus-site
        counters, and both sampler rows with members in increasing index
        order (the scalar ``ModelState.recompute_all`` insertion order).
        """
        raise NotImplementedError

    def run_rounds(self, budget: RunBudget, max_rounds: Optional[int] = None) -> int:
        """Advance rounds until ``budget`` stops every replica.

        Each round steps the replicas ``budget.active`` selects: per replica,
        termination and sampler checks, the RNG draws (waiting time under
        the continuous scheduler, then the Lemire candidate),
        clock/step updates, the member gather and the discrete-scheduler
        flip gate — then the window update, the samplers' coded-op stream
        and the flip counter if it flips.  Replicas share no state a round
        touches, so a backend may run the rounds in lockstep or each
        replica's rounds in turn.  No replica runs more than ``max_rounds``
        (a trajectory-sample boundary, or the single round of
        ``engine.step_all``).  Returns the number of rounds run: the most
        any replica was active for (each a step, or an idle round while its
        sampler is empty), capped at ``max_rounds``, so fewer than
        ``max_rounds`` means no replica may step any more.
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
