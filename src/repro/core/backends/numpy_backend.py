"""The always-available pure-NumPy flip-loop backend.

This is the reference implementation every other backend is pinned against,
extracted verbatim from the pre-seam ``EnsembleDynamics._step_all_scalar`` /
``_apply_flips`` hot path: a scalar round loop over memoryviews of the
batched state (list-speed element access; the per-call dispatch of ~15 tiny
array ops would dominate small rounds), the fused gather-classify-scatter
window kernel as array code, and the sequential coded-op loop on
:class:`~repro.utils.indexset.BatchedIndexSet`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.backends.base import FlipLoopBackend
from repro.types import FlipRule, SchedulerKind
from repro.utils.indexset import BatchedIndexSet


class NumpyBackend(FlipLoopBackend):
    """Pure-NumPy execution of the flip-loop hot path (the reference)."""

    name = "numpy"

    def step_round(self, candidates: np.ndarray) -> np.ndarray:
        """One round's control plane as a single scalar loop (small batches).

        Termination/sampler filtering, the blocked RNG draws (ziggurat fast
        path and Lemire candidate, inlined from
        :meth:`repro.rng.BlockedReplicaStreams.draw_step`), the clock updates
        and the candidate gather all run in one Python loop over memoryviews
        of the batched state.  Draw-for-draw identical to the engine's
        vectorized path — both consume the same blocked buffers the same
        way — so the regimes are interchangeable mid-run.
        """
        engine = self.engine
        only_if_happy = engine.flip_rule is FlipRule.ONLY_IF_HAPPY
        continuous = engine.scheduler is SchedulerKind.CONTINUOUS
        discrete_gate = only_if_happy and not continuous
        n_rep = engine.n_replicas
        n_sites = engine._n_sites
        counts_mv = engine._sets.counts_view()
        members_mv = engine._sets.members_view()
        times_mv = engine._times_mv
        steps_mv = engine._steps_mv
        code_mv = engine._code_mv
        streams = engine._streams
        words_mv, pos_mv, has32_mv, buf32_mv = streams.scalar_views()
        ke_list, we_list = streams.ziggurat_lists()
        block = streams.block_words
        term_offset = n_rep if only_if_happy else 0
        sampler_offset = n_rep if (only_if_happy and continuous) else 0
        reps: list[int] = []
        flats: list[int] = []
        for replica in candidates.tolist():
            if counts_mv[replica + term_offset] == 0:
                continue
            sampler_row = replica + sampler_offset
            size = counts_mv[sampler_row]
            if size == 0:
                continue
            word_base = replica * block
            # Same draw order as GlauberDynamics.step: waiting time first
            # (continuous scheduler only), then the candidate index.
            if continuous:
                position = pos_mv[replica]
                if position >= block:
                    streams._refill_until_ready(replica)
                    position = pos_mv[replica]
                word = words_mv[word_base + position]
                pos_mv[replica] = position + 1
                significand = word >> 11
                layer = (word >> 3) & 0xFF
                if significand < ke_list[layer]:
                    wait = significand * we_list[layer]
                else:
                    wait = streams._replay_exponential(replica)
                times_mv[replica] += (1.0 / size) * wait
            else:
                times_mv[replica] += 1.0
            steps_mv[replica] += 1
            if size > 1:
                if has32_mv[replica]:
                    candidate = buf32_mv[replica]
                    has32_mv[replica] = False
                else:
                    position = pos_mv[replica]
                    if position >= block:
                        streams._refill_until_ready(replica)
                        position = pos_mv[replica]
                    word = words_mv[word_base + position]
                    pos_mv[replica] = position + 1
                    candidate = word & 0xFFFFFFFF
                    buf32_mv[replica] = word >> 32
                    has32_mv[replica] = True
                scaled = candidate * size
                leftover = scaled & 0xFFFFFFFF
                if leftover < size:
                    threshold = ((1 << 32) - size) % size
                    while leftover < threshold:
                        scaled = streams._next32_scalar(replica) * size
                        leftover = scaled & 0xFFFFFFFF
                draw = scaled >> 32
            else:
                draw = 0
            flat = members_mv[sampler_row * n_sites + draw]
            if discrete_gate and not code_mv[replica * n_sites + flat] & 2:
                # Discrete scheduler samples unhappy agents, which may
                # refuse to flip.
                continue
            reps.append(replica)
            flats.append(flat)
        if not reps:
            return np.empty(0, dtype=np.int64)
        rep_arr = np.asarray(reps, dtype=np.int64)
        self.apply_flips(rep_arr, np.asarray(flats, dtype=np.int64))
        engine._n_flips[rep_arr] += 1
        return rep_arr

    def apply_flips(
        self,
        reps: np.ndarray,
        flats: np.ndarray,
        bases: Optional[np.ndarray] = None,
    ) -> None:
        """Flip one site per listed replica — the fused window kernel.

        One gather–classify–scatter pass over all flipping replicas: flat
        window indices come from the precomputed lookup, the incremental
        same-type counts are updated in place (neighbours move by
        ``spin * delta``, the flipped agent is re-scored as
        ``total + 1 - old``), the variant hook reclassifies every touched
        window, and the packed happy/flippable bit codes turn the membership
        delta into one coded operation stream for the batched samplers.
        The (replica, site) pairs are distinct — one flip per replica — so
        the in-place scatters never collide.
        """
        engine = self.engine
        config = engine.config
        total = config.neighborhood_agents

        if bases is None:
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
        elif engine._code_lut is not None:
            new_code = engine._code_lut[(sub_spins > 0).view(np.int8), sub_same]
        else:  # pragma: no cover - non-elementwise subclass rules only
            sub_happy, sub_flippable = engine._classify(sub_spins, sub_same)
            new_code = sub_flippable.view(np.int8) << 1
            new_code |= sub_happy.view(np.int8)
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
