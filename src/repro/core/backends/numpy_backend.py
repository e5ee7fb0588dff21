"""The always-available pure-NumPy flip-loop backend.

The round loop in Python: each round's control plane is one scalar loop
over memoryviews of the batched state (list-speed element access; the
per-call dispatch of ~15 tiny array ops would dominate small rounds),
drawing through each replica's own dynamics ``Generator`` with the same two
calls the scalar engine makes; the fused gather-classify-scatter window
kernel runs as array code over the round's flips, and the sequential
coded-op loop on :class:`~repro.utils.indexset.BatchedIndexSet` applies the
membership deltas.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.backends.base import FlipLoopBackend, RunBudget
from repro.core.neighborhood import window_sums
from repro.utils.indexset import BatchedIndexSet


class NumpyBackend(FlipLoopBackend):
    """Pure-NumPy execution of the flip loop (the Python round loop)."""

    name = "numpy"

    def attach(self, engine) -> None:
        """Bind to ``engine`` and take memoryviews of its round state."""
        super().attach(engine)
        # Scalar mirrors of the batched state: list-speed element access,
        # same buffers (allocated once and mutated in place by the engine).
        self._times_mv = memoryview(engine._times)
        self._steps_mv = memoryview(engine._n_steps)
        self._code_mv = memoryview(engine._code_flat)

    def rebuild(self) -> None:
        """The engine build as array code over the whole replica stack.

        One summed-area pass counts every replica's windows, one gather of
        the code table classifies every site, and the samplers are
        bulk-built from the codes' membership bits.
        """
        engine = self.engine
        r = engine.n_replicas
        plus_sites = engine._spins == 1
        plus = window_sums(plus_sites, engine.config.horizon)
        same = np.where(plus_sites, plus, engine.config.neighborhood_agents - plus)
        # In place: backends may hold pointers into these arrays.
        same.sum(axis=(1, 2), dtype=np.int64, out=engine._energies)
        engine._n_plus[:] = np.count_nonzero(plus_sites, axis=(1, 2))
        engine._same_flat[:] = same.reshape(-1)
        lut = engine._code_lut
        # One flat gather: row 1 of the table holds the plus agents' codes.
        code = lut.reshape(-1)[plus_sites * lut.shape[1] + same].reshape(r, -1)
        engine._code_flat[:] = code.reshape(-1)
        engine._sets.fill_from_masks(
            np.concatenate(((code & 1) == 0, (code & 2) != 0), axis=0)
        )

    def run_rounds(self, budget: RunBudget, max_rounds: Optional[int] = None) -> int:
        """The engine's round loop in Python: one :meth:`step_round` a round."""
        engine = self.engine
        rounds = 0
        while max_rounds is None or rounds < max_rounds:
            active = budget.active(engine)
            if active.size == 0:
                break
            self.step_round(active)
            rounds += 1
        return rounds

    def step_round(self, candidates: np.ndarray) -> None:
        """Advance every candidate replica by one scheduler step.

        Termination/sampler filtering, the RNG draws on each replica's
        dynamics generator, the clock updates and the candidate gather run
        in one Python loop over memoryviews of the batched state; the
        replicas that flip then go through :meth:`apply_flips` together.
        """
        engine = self.engine
        continuous = engine._continuous
        discrete_gate = engine._discrete_gate
        term_offset = engine._term_offset
        sampler_offset = engine._sampler_offset
        n_sites = engine._n_sites
        counts_mv = engine._sets.counts_view()
        members_mv = engine._sets.members_view()
        times_mv = self._times_mv
        steps_mv = self._steps_mv
        code_mv = self._code_mv
        rngs = engine._rngs
        reps: list[int] = []
        flats: list[int] = []
        for replica in candidates.tolist():
            if counts_mv[replica + term_offset] == 0:
                continue
            sampler_row = replica + sampler_offset
            size = counts_mv[sampler_row]
            if size == 0:
                continue
            # The calls of GlauberDynamics.step and IndexSampler.sample, in
            # their order: waiting time first (continuous scheduler only),
            # then the candidate index.
            rng = rngs[replica]
            if continuous:
                times_mv[replica] += float(rng.exponential(1.0 / size))
            else:
                times_mv[replica] += 1.0
            steps_mv[replica] += 1
            draw = int(rng.integers(0, size))
            flat = members_mv[sampler_row * n_sites + draw]
            if discrete_gate and not code_mv[replica * n_sites + flat] & 2:
                # Discrete scheduler samples unhappy agents, which may
                # refuse to flip.
                continue
            reps.append(replica)
            flats.append(flat)
        if reps:
            rep_arr = np.asarray(reps, dtype=np.int64)
            self.apply_flips(rep_arr, np.asarray(flats, dtype=np.int64))
            engine._n_flips[rep_arr] += 1

    def apply_flips(self, reps: np.ndarray, flats: np.ndarray) -> None:
        """Flip one site per listed replica — the fused window kernel.

        One gather–classify–scatter pass over all flipping replicas: flat
        window indices come from the precomputed lookup, the incremental
        same-type counts are updated in place (neighbours move by
        ``spin * delta``, the flipped agent is re-scored as
        ``total + 1 - old``), the engine's code table reclassifies every
        touched window, and the packed happy/flippable bit codes turn the
        membership delta into one coded operation stream for the batched
        samplers.  The (replica, site) pairs are distinct — one flip per
        replica — so the in-place scatters never collide.
        """
        engine = self.engine
        config = engine.config
        total = config.neighborhood_agents

        bases = reps * engine._n_sites
        centers = bases + flats
        spins_flat = engine._spins_flat
        new_values = -spins_flat[centers]
        spins_flat[centers] = new_values

        # Flat engine indices of each flip's window: the replica base folds
        # into the (flips, side) row offsets before the outer sum.
        rows, cols = np.divmod(flats, config.n_cols)
        gwin = (
            (engine._row_lut[rows] + bases[:, None])[:, :, None]
            + engine._col_lut[cols][:, None, :]
        ).reshape(reps.size, engine._window_area)

        sub_spins = spins_flat[gwin]
        sub_same = engine._same_flat[gwin]
        center = engine._center_col
        # Widened: the energy delta doubles it, which int16 may not hold.
        old_same_center = sub_same[:, center].astype(np.int64)
        # Incremental per-replica counters, mirroring the O(1) delta of
        # ModelState.apply_flip: every *other* window agent moves by
        # spin * delta and the flipped agent is re-scored under its new type
        # (total + 1 - old same count, for either flip direction).  Both the
        # energy delta and the new centre score read the pre-update centre
        # count, so they are computed before the in-place window update.
        if engine._track_counters:
            engine._energies[reps] += (
                new_values * sub_spins.sum(axis=1, dtype=np.int64)
                + total
                - 2 * old_same_center
            )
            engine._n_plus[reps] += new_values
        else:
            engine._counters_stale = True
        new_center_same = total + 1 - old_same_center
        sub_same += new_values[:, None] * sub_spins
        sub_same[:, center] = new_center_same
        engine._same_flat[gwin] = sub_same

        if engine._code_lut_flat is not None:
            new_code = engine._code_lut_flat[sub_same]
        else:
            new_code = engine._code_lut[(sub_spins > 0).view(np.int8), sub_same]
        old_code = engine._code_flat[gwin]
        changed = old_code != new_code
        engine._code_flat[gwin] = new_code

        # changed.nonzero() walks the (flip, window) grid row-major: per
        # replica this is exactly ModelState._refresh_window's update order,
        # which keeps the sampler layouts scalar-identical.  Each changed
        # site carries its two-bit toggle/state codes into the samplers'
        # coded-op loop (unhappy op before flippable op, as the scalar
        # update_membership pair does); ``code ^ 1`` turns the happy bit
        # into an unhappy-membership bit so both bits mean "member".
        flip_slot, window_slot = changed.nonzero()
        if flip_slot.size == 0:
            return
        code = new_code[flip_slot, window_slot]
        engine._sets.apply_coded_ops(
            reps[flip_slot].tolist(),
            (gwin[flip_slot, window_slot] - bases[flip_slot]).tolist(),
            (old_code[flip_slot, window_slot] ^ code).tolist(),
            (code ^ 1).tolist(),
            engine.n_replicas,
        )

    def apply_coded_ops(
        self,
        sets: BatchedIndexSet,
        rows: Sequence[int],
        indices: Sequence[int],
        toggled: Sequence[int],
        members: Sequence[int],
        row_offset: int,
    ) -> None:
        """Delegate to the sequential memoryview loop on the set family."""
        sets.apply_coded_ops(
            list(rows), list(indices), list(toggled), list(members), row_offset
        )
