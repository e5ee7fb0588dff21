"""Vectorized multi-replica Glauber dynamics.

:class:`EnsembleDynamics` advances ``R`` independent replicas of the same
:class:`~repro.core.config.ModelConfig` in lockstep.  Spins are stored as one
``(R, n_rows, n_cols)`` int8 array and *every* per-flip cost — RNG draws,
candidate sampling, the neighbourhood/happiness window refresh and the
sampler membership bookkeeping — is batched across the replica axis:

* RNG draws are the scalar engine's ``exponential`` / ``integers`` draws on
  each replica's own dynamics stream.  The numpy backend makes them through
  the replica's ``Generator``; the compiled backend makes them in C on the
  replica's PCG64 words, pre-drawn in blocks of a
  :class:`~repro.rng.BlockedReplicaStreams` that it builds when it attaches
  (``engine._backend._streams``), consuming each stream exactly as the
  per-call scalar path would.  A replica's stream position therefore lives
  in ``_rngs`` on a numpy engine and in the compiled backend's word buffer
  on a compiled one; the backend is fixed at construction, so it never
  moves between the two.
* The unhappy/flippable samplers of all replicas live in one array-backed
  :class:`~repro.utils.indexset.BatchedIndexSet` (two rows per replica,
  int32 members and positions), bulk-built at rebuild time.
* The post-flip window update is one fused gather–classify–scatter kernel
  over all flipping replicas: flat window indices come from precomputed
  wrapped row/column lookups, int16 same-type counts are updated in place,
  and a code table derived from the classification hook (see below)
  refreshes every touched window.

The rounds themselves run in the attached flip-loop backend
(:mod:`repro.core.backends`): its
:meth:`~repro.core.backends.base.FlipLoopBackend.run_rounds` is the only
way a round executes, whether :meth:`EnsembleDynamics.run` asks for a whole
run or :meth:`EnsembleDynamics.step_all` for one round.

Equivalence with the scalar engine is exact, not approximate: replica ``r``
consumes its own PCG64 stream in the same order and quantity as a scalar
:class:`~repro.core.dynamics.GlauberDynamics` would, and membership updates
of the unhappy/flippable samplers are applied in the same window order as
:meth:`repro.core.state.ModelState._refresh_window`.  As a result a replica
seeded with ``replica_seeds[r]`` reproduces the corresponding
:class:`~repro.core.simulation.Simulation` run bit for bit — same final grid,
same flip count, same termination flag, same final time — which is what
``tests/test_core_ensemble.py`` locks down under every backend.  The scalar
engine is the oracle.

Per-replica seeds are spawned from one master seed (via
:func:`repro.rng.replicate_seeds`), so any single replica can be re-run in
isolation: ``EnsembleDynamics(config, replica_seeds=[s])`` or
``Simulation(config, seed=s)`` reproduce it exactly.

Every classification of agents — the initial rebuild and the per-flip window
refresh — goes through the single overridable :meth:`EnsembleDynamics._classify`
hook, mirroring :meth:`repro.core.state.ModelState._classify` on the scalar
side: the per-flip refresh reads a code table tabulated from the hook, so a
hook that is not elementwise in ``(spin, same)`` is a
:class:`~repro.errors.ConfigurationError` at build time.  The variant
engines in :mod:`repro.core.variants`
(:class:`~repro.core.variants.TwoSidedEnsemble`,
:class:`~repro.core.variants.AsymmetricEnsemble`) override that one hook with
the same shared kernels as their scalar states, so variant ensembles inherit
the fused flip loop *and* the bitwise scalar equivalence unchanged.  The
two-sided variant has no Lyapunov function; give
:meth:`EnsembleDynamics.run` a step/flip budget and read per-replica
termination off :attr:`EnsembleRunResult.terminated`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.backends.base import RunBudget
from repro.core.backends.registry import create_backend
from repro.core.config import ModelConfig
from repro.core.dynamics import Trajectory
from repro.core.initializer import random_configuration
from repro.core.neighborhood import window_sums_batch
from repro.core.state import classify_base
from repro.errors import ConfigurationError, StateError
from repro.rng import SeedLike, replicate_seeds, spawn_rngs
from repro.types import FlipRule, SchedulerKind
from repro.utils.indexset import BatchedIndexSet

#: Largest same-type count (N + 1, the code LUT's last column) the int16
#: count arrays hold: N = (2w + 1)**2 stays below it up to w = 90.
_SAME_COUNT_MAX = int(np.iinfo(np.int16).max)


class EnsembleTrajectory:
    """Per-replica time series sampled in lockstep rounds.

    Every property is an ``(R, samples)`` array: one row per replica, one
    column per sample.  Samples are taken every ``record_every`` *rounds* of
    :meth:`EnsembleDynamics.run` (plus the initial and final states), so the
    columns of different replicas are aligned by round rather than by flip
    count — replicas that terminate early simply repeat their final values.
    All recorded quantities are incrementally maintained counters, so one
    sample costs O(R).

    The stacked arrays are materialised once per recording generation and
    cached; properties and :meth:`replica` slice that cache, so callers
    should treat the returned arrays as read-only.
    """

    _FIELDS = (
        ("times", np.float64),
        ("n_flips", np.int64),
        ("n_unhappy", np.int64),
        ("n_flippable", np.int64),
        ("energy", np.int64),
        ("magnetization", np.float64),
    )

    def __init__(self, n_replicas: int) -> None:
        self.n_replicas = n_replicas
        self._times: list[np.ndarray] = []
        self._n_flips: list[np.ndarray] = []
        self._n_unhappy: list[np.ndarray] = []
        self._n_flippable: list[np.ndarray] = []
        self._energy: list[np.ndarray] = []
        self._magnetization: list[np.ndarray] = []
        self._stacked: Optional[dict[str, np.ndarray]] = None

    def record(self, ensemble: "EnsembleDynamics") -> None:
        """Append one sample of every replica's counters."""
        self._times.append(ensemble.times)
        self._n_flips.append(ensemble.n_flips)
        self._n_unhappy.append(ensemble.unhappy_counts())
        self._n_flippable.append(ensemble.flippable_counts())
        self._energy.append(ensemble.energies())
        self._magnetization.append(ensemble.magnetizations())
        self._stacked = None

    def __len__(self) -> int:
        return len(self._times)

    def _materialize(self) -> dict[str, np.ndarray]:
        """Stack every sample buffer into ``(R, samples)`` arrays, once.

        The cache is invalidated by :meth:`record`, so repeated property and
        :meth:`replica` reads after a run pay the stacking cost a single
        time instead of once per access.
        """
        if self._stacked is None:
            stacked: dict[str, np.ndarray] = {}
            for name, dtype in self._FIELDS:
                samples = getattr(self, f"_{name}")
                if samples:
                    stacked[name] = np.stack(samples, axis=1)
                else:
                    stacked[name] = np.zeros((self.n_replicas, 0), dtype=dtype)
            self._stacked = stacked
        return self._stacked

    @property
    def times(self) -> np.ndarray:
        """``(R, samples)`` per-replica simulation clocks."""
        return self._materialize()["times"]

    @property
    def n_flips(self) -> np.ndarray:
        """``(R, samples)`` cumulative flip counts."""
        return self._materialize()["n_flips"]

    @property
    def n_unhappy(self) -> np.ndarray:
        """``(R, samples)`` unhappy-agent counts."""
        return self._materialize()["n_unhappy"]

    @property
    def n_flippable(self) -> np.ndarray:
        """``(R, samples)`` flippable-agent counts."""
        return self._materialize()["n_flippable"]

    @property
    def energy(self) -> np.ndarray:
        """``(R, samples)`` Lyapunov energies."""
        return self._materialize()["energy"]

    @property
    def magnetization(self) -> np.ndarray:
        """``(R, samples)`` mean spins."""
        return self._materialize()["magnetization"]

    def replica(self, replica: int) -> Trajectory:
        """One replica's samples as a scalar :class:`Trajectory`.

        The view plugs directly into :mod:`repro.analysis.trajectory`
        (summaries, decay profiles) exactly like a scalar engine recording.
        The per-series lists are sliced out of the stacked sample cache in
        one ``tolist`` per field rather than rebuilt element by element.
        """
        if not 0 <= replica < self.n_replicas:
            raise StateError(
                f"replica index {replica} out of range for R={self.n_replicas}"
            )
        stacked = self._materialize()
        return Trajectory(
            times=stacked["times"][replica].tolist(),
            n_flips=stacked["n_flips"][replica].tolist(),
            n_unhappy=stacked["n_unhappy"][replica].tolist(),
            n_flippable=stacked["n_flippable"][replica].tolist(),
            energy=stacked["energy"][replica].tolist(),
            magnetization=stacked["magnetization"][replica].tolist(),
        )


@dataclass(frozen=True)
class EnsembleRunResult:
    """Per-replica outcome arrays of :meth:`EnsembleDynamics.run`.

    Every field mirrors the scalar :class:`~repro.core.dynamics.RunResult`
    with one entry per replica; counters are deltas relative to the start of
    the ``run`` call, exactly like the scalar engine reports them.
    """

    #: ``(R,)`` bool — reached the paper's termination condition.
    terminated: np.ndarray
    #: ``(R,)`` int — type flips performed during this run call.
    n_flips: np.ndarray
    #: ``(R,)`` int — scheduler steps taken during this run call.
    n_steps: np.ndarray
    #: ``(R,)`` float — per-replica simulation clock at the end of the run.
    final_time: np.ndarray
    #: ``(R, n_rows, n_cols)`` int8 — final configurations (copy).
    final_spins: np.ndarray
    #: Per-replica trajectory samples, when recording was requested.
    trajectory: Optional[EnsembleTrajectory] = None

    @property
    def n_replicas(self) -> int:
        """Number of replicas in the ensemble."""
        return int(self.terminated.shape[0])

    @property
    def all_terminated(self) -> bool:
        """True when every replica reached termination."""
        return bool(self.terminated.all())

    @property
    def total_flips(self) -> int:
        """Total flips across the ensemble (throughput bookkeeping)."""
        return int(self.n_flips.sum())


class EnsembleDynamics:
    """R lockstep replicas of the Glauber segregation process, fully fused.

    Parameters
    ----------
    config:
        The shared model configuration.
    n_replicas:
        Number of replicas ``R``; ignored when ``replica_seeds`` is given.
    seed:
        Master seed; per-replica integer seeds are derived with
        :func:`repro.rng.replicate_seeds`, matching what
        :func:`repro.experiments.runner.run_experiment` hands to scalar
        replicate runs.
    replica_seeds:
        Explicit per-replica integer seeds (overrides ``seed``/``n_replicas``).
        Each replica spawns its init and dynamics streams from its seed the
        same way :class:`~repro.core.simulation.Simulation` does.
    initial_spins:
        Optional planted ``(R, n_rows, n_cols)`` ±1 array.  When omitted every
        replica draws its own Bernoulli initial configuration from its init
        stream.
    scheduler / flip_rule:
        Overrides for the configuration's defaults, as in the scalar engine.
    rng_block_words:
        Words pre-drawn per replica per RNG block refill of the compiled
        flip loop (see :class:`~repro.rng.BlockedReplicaStreams`; validated
        here under every backend, read only by the compiled one, which
        allocates the blocks).  Purely a performance knob: results are
        bitwise independent of it, which the boundary property tests assert
        down to one-word blocks.
    backend:
        Flip-loop backend request (``"auto"``, ``"numpy"``, ``"cffi"`` or
        ``None``), resolved through
        :mod:`repro.core.backends.registry`: every round — its control
        plane, the fused window update and the coded-op sampler
        maintenance — executes behind the
        :class:`~repro.core.backends.base.FlipLoopBackend` seam, and every
        backend is pinned bitwise identical, so this too is purely a
        performance knob.  The resolved name is exposed as
        :attr:`backend_name`.
    """

    def __init__(
        self,
        config: ModelConfig,
        n_replicas: Optional[int] = None,
        seed: SeedLike = None,
        replica_seeds: Optional[Sequence[int]] = None,
        initial_spins: Optional[np.ndarray] = None,
        scheduler: Optional[SchedulerKind] = None,
        flip_rule: Optional[FlipRule] = None,
        rng_block_words: int = 4096,
        backend: Optional[str] = None,
    ) -> None:
        self.config = config
        # Checked after the int conversion: a fraction below one would make
        # zero-word blocks, which the C reader would read past.
        self._rng_block_words = int(rng_block_words)
        if self._rng_block_words <= 0:
            raise ConfigurationError(
                f"rng_block_words must be positive, got {rng_block_words}"
            )
        if replica_seeds is not None:
            seeds = [int(s) for s in replica_seeds]
            if not seeds:
                raise ConfigurationError("replica_seeds must be non-empty")
        else:
            if n_replicas is None or n_replicas <= 0:
                raise ConfigurationError(
                    f"n_replicas must be a positive int, got {n_replicas}"
                )
            seeds = replicate_seeds(seed, n_replicas)
        self.replica_seeds: tuple[int, ...] = tuple(seeds)
        self.scheduler = scheduler if scheduler is not None else config.scheduler
        self.flip_rule = flip_rule if flip_rule is not None else config.flip_rule

        n_rows, n_cols = config.shape
        r = len(seeds)
        self._rngs: list[np.random.Generator] = []
        self._spins = np.empty((r, n_rows, n_cols), dtype=np.int8)
        for index, replica_seed in enumerate(seeds):
            # Mirror Simulation: one stream for the initial grid, one for the
            # dynamics, both spawned from the replica seed.
            init_rng, dynamics_rng = spawn_rngs(replica_seed, 2)
            self._rngs.append(dynamics_rng)
            if initial_spins is None:
                self._spins[index] = random_configuration(config, init_rng).spins
        if initial_spins is not None:
            planted = np.asarray(initial_spins)
            if planted.shape != (r, n_rows, n_cols):
                raise ConfigurationError(
                    f"initial_spins shape {planted.shape} does not match "
                    f"({r}, {n_rows}, {n_cols})"
                )
            if not np.all(np.isin(planted, (-1, 1))):
                raise ConfigurationError("initial_spins entries must be +1 or -1")
            self._spins[...] = planted.astype(np.int8)
        self._initial_spins = self._spins.copy()

        self._n_flips = np.zeros(r, dtype=np.int64)
        self._energies = np.zeros(r, dtype=np.int64)
        self._n_plus = np.zeros(r, dtype=np.int64)
        self._build_runtime()
        self.recompute_all()
        # Last: the backend captures the runtime tables built above.
        self._backend = create_backend(backend)
        #: The resolved (concrete) backend executing this engine's hot path.
        self.backend_name = self._backend.name
        self._backend.attach(self)

    # ---------------------------------------------------------------- runtime

    def _build_runtime(self) -> None:
        """Allocate the fused engine's batched runtime structures."""
        config = self.config
        r = self.n_replicas
        n_sites = config.n_sites
        if n_sites > 2**31:
            raise ConfigurationError(
                "the fused engine indexes sites with 32-bit draws; "
                f"{n_sites} sites exceed that (use smaller grids)"
            )
        if config.neighborhood_agents + 1 > _SAME_COUNT_MAX:
            raise ConfigurationError(
                "the fused engine keeps same-type counts as int16; "
                f"N = {config.neighborhood_agents} (w = {config.horizon}) "
                "exceeds that (w <= 90)"
            )
        self._n_sites = n_sites
        self._times = np.zeros(r, dtype=np.float64)
        self._n_steps = np.zeros(r, dtype=np.int64)
        self._spins_flat = self._spins.reshape(-1)
        #: Incrementally maintained same-type counts, one flat row per replica.
        self._same_flat = np.zeros(r * n_sites, dtype=np.int16)
        #: Packed happy/flippable bits per site: bit 0 happy, bit 1 flippable.
        self._code_flat = np.zeros(r * n_sites, dtype=np.int8)
        #: Rows [0, R) hold unhappy members, rows [R, 2R) flippable members.
        self._sets = BatchedIndexSet(2 * r, n_sites)
        #: Incremental energy/magnetization tracking can be deferred while a
        #: run does not observe the counters (no trajectory recording); the
        #: stale flag triggers an exact O(R * grid) flush on the next read.
        self._track_counters = True
        self._counters_stale = False
        #: Bumped whenever runtime tables a backend may have captured raw
        #: views (or raw pointers) into are rebuilt; backends compare it
        #: against their captured generation and re-capture when it moved.
        self._runtime_generation = 0
        self._build_window_luts()

    def _build_window_luts(self) -> None:
        """Precompute the wrapped row/column lookups of the flip kernel.

        A flip's flat window indices are ``row_lut[row][:, None] +
        col_lut[col][None, :]``: the torus wrap is folded into two
        O(grid side * window side) tables (row offsets already scaled by
        ``n_cols``), shared by both backends.
        """
        config = self.config
        n_rows, n_cols = config.shape
        w = config.horizon
        side = 2 * w + 1
        offsets = np.arange(-w, w + 1)
        self._window_area = side * side
        self._center_col = (self._window_area - 1) // 2
        self._row_lut = (
            ((np.arange(n_rows)[:, None] + offsets[None, :]) % n_rows) * n_cols
        ).astype(np.int64)
        self._col_lut = (
            (np.arange(n_cols)[:, None] + offsets[None, :]) % n_cols
        ).astype(np.int64)

    # ------------------------------------------------------------- rebuilding

    def _classify(
        self, spins: np.ndarray, same: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched happy/flippable classification — the engine's variant hook.

        Every classification in the engine — the O(R * grid) rebuild and the
        fused per-flip window refresh, through the code table
        :meth:`_refresh_code_lut` tabulates from it — funnels through this
        one method, exactly as :meth:`repro.core.state.ModelState._classify`
        does on the scalar side.  Subclasses implement variant rules by
        overriding it with the shared kernels from :mod:`repro.core.variants`;
        the base implementation applies the paper's one-sided rule via
        :func:`repro.core.state.classify_base`.  The kernels are pure and
        shape-agnostic, which is what lets one hook serve both the
        ``(R, n, n)`` rebuild and the tabulation over every same-count.
        """
        return classify_base(
            same, self.config.happiness_threshold, self.config.neighborhood_agents
        )

    def recompute_all(self) -> None:
        """Rebuild counts, codes and samplers from the spins (O(R * grid)).

        Fully batched: one summed-area pass builds every replica's window
        counts, one classification call covers the whole stack, and the
        samplers are bulk-built from the masks — no Python-per-site loops.
        The insertion order (increasing flat index per replica) matches
        :meth:`repro.core.state.ModelState.recompute_all`, which keeps the
        sampler layouts (and hence RNG-draw outcomes) scalar-identical.
        """
        config = self.config
        r = self.n_replicas
        total = config.neighborhood_agents
        plus = window_sums_batch(self._spins == 1, config.horizon)
        same = np.where(self._spins == 1, plus, total - plus)
        # In place: backends may hold pointers into these counter arrays.
        same.sum(axis=(1, 2), dtype=np.int64, out=self._energies)
        self._n_plus[:] = np.count_nonzero(self._spins == 1, axis=(1, 2))
        self._counters_stale = False
        happy, flippable = self._classify(self._spins, same)
        self._same_flat[:] = same.reshape(-1)
        code = self._code_flat.reshape(r, self._n_sites)
        np.left_shift(
            flippable.reshape(r, self._n_sites).view(np.int8), 1, out=code
        )
        code |= happy.reshape(r, self._n_sites).view(np.int8)
        self._sets.fill_from_masks(
            np.concatenate(
                (
                    ~happy.reshape(r, self._n_sites),
                    flippable.reshape(r, self._n_sites),
                ),
                axis=0,
            )
        )
        self._refresh_code_lut(same, code)
        self._runtime_generation += 1

    def _refresh_code_lut(self, same: np.ndarray, code: np.ndarray) -> None:
        """Tabulate the classification hook over every possible same-count.

        The per-flip kernel then classifies a touched window with one (or,
        for spin-dependent rules, two) gathers instead of re-running the rule
        arrays.  The table is *derived from* :meth:`_classify` — the hook
        stays the single source of truth — and cross-checked here against the
        hook's full-grid output: a subclass whose rule is not elementwise in
        ``(spin, same)`` fails the check, which is a
        :class:`~repro.errors.ConfigurationError` naming the hook.
        """
        total = self.config.neighborhood_agents
        axis = np.arange(total + 2, dtype=np.int64)
        lut = np.empty((2, total + 2), dtype=np.int8)
        for row, spin in ((0, -1), (1, 1)):
            happy, flippable = self._classify(
                np.full(total + 2, spin, dtype=np.int8), axis
            )
            lut[row] = flippable.view(np.int8) << 1
            lut[row] |= happy.view(np.int8)
        spin_pos = (self._spins > 0).reshape(self.n_replicas, self._n_sites)
        expected = lut[spin_pos.view(np.int8), same.reshape(same.shape[0], -1)]
        if not np.array_equal(expected, code):
            hook = f"{type(self).__qualname__}._classify"
            raise ConfigurationError(
                f"{hook} is not elementwise in (spin, same-type count): the "
                "flip loop classifies touched windows from a table of the "
                "hook's values, which disagrees with the hook on this grid"
            )
        self._code_lut = lut
        self._code_lut_flat = None if (lut[0] != lut[1]).any() else lut[0]

    # ------------------------------------------------------------- inspection

    @property
    def n_replicas(self) -> int:
        """Number of replicas."""
        return len(self._rngs)

    @property
    def times(self) -> np.ndarray:
        """``(R,)`` per-replica simulation clocks (copy)."""
        return self._times.copy()

    @property
    def n_flips(self) -> np.ndarray:
        """``(R,)`` per-replica flip counts (copy)."""
        return self._n_flips.copy()

    @property
    def n_steps(self) -> np.ndarray:
        """``(R,)`` per-replica scheduler step counts (copy)."""
        return self._n_steps.copy()

    @property
    def spins(self) -> np.ndarray:
        """The ``(R, n_rows, n_cols)`` spin array (owned by the engine)."""
        return self._spins

    def replica_spins(self, replica: int) -> np.ndarray:
        """Copy of one replica's configuration."""
        return self._spins[replica].copy()

    def initial_spins(self) -> np.ndarray:
        """Copy of the initial configurations."""
        return self._initial_spins.copy()

    def unhappy_counts(self) -> np.ndarray:
        """``(R,)`` current number of unhappy agents per replica."""
        return self._sets.counts[: self.n_replicas].copy()

    def flippable_counts(self) -> np.ndarray:
        """``(R,)`` current number of flippable agents per replica."""
        return self._sets.counts[self.n_replicas :].copy()

    def _replica_code(self, replica: int) -> np.ndarray:
        """One replica's packed happy/flippable bit field (flat view)."""
        return self._code_flat[replica * self._n_sites : (replica + 1) * self._n_sites]

    def happy_mask(self, replica: int) -> np.ndarray:
        """Boolean happy mask of one replica (copy)."""
        return ((self._replica_code(replica) & 1) != 0).reshape(self.config.shape)

    def flippable_mask(self, replica: int) -> np.ndarray:
        """Boolean flippable mask of one replica (copy)."""
        return ((self._replica_code(replica) & 2) != 0).reshape(self.config.shape)

    def unhappy_indices(self, replica: int) -> np.ndarray:
        """Sorted flat indices of one replica's unhappy agents."""
        return self._sets.to_array(replica)

    def flippable_indices(self, replica: int) -> np.ndarray:
        """Sorted flat indices of one replica's flippable agents."""
        return self._sets.to_array(self.n_replicas + replica)

    def _flush_counters(self) -> None:
        """Recompute the deferred energy/plus counters from the live state.

        Exact by construction: the incremental same-type counts are always
        maintained, so the flush is an integer reduction over them — bitwise
        the value the per-flip deltas would have accumulated.
        """
        if self._counters_stale:
            r = self.n_replicas
            # In place: backends may hold pointers into the counter arrays.
            self._same_flat.reshape(r, self._n_sites).sum(
                axis=1, dtype=np.int64, out=self._energies
            )
            self._n_plus[:] = np.count_nonzero(self._spins == 1, axis=(1, 2))
            self._counters_stale = False

    def energies(self) -> np.ndarray:
        """``(R,)`` Lyapunov energies (total same-type neighbourhood count).

        Maintained incrementally by the backend's window kernel — an
        O(1)-per-flip window-free delta mirroring
        :meth:`repro.core.state.ModelState.apply_flip` — so reading it (e.g.
        from trajectory recording) is O(R); the tests
        cross-check it against the full recompute in :meth:`_energies_full`.
        Runs that never observe the counters defer the deltas and flush the
        exact values here on first read.
        """
        self._flush_counters()
        return self._energies.copy()

    def _energies_full(self) -> np.ndarray:
        """``(R,)`` energies recomputed from the spins (verification path)."""
        total = self.config.neighborhood_agents
        plus = window_sums_batch(self._spins == 1, self.config.horizon)
        same = np.where(self._spins == 1, plus, total - plus)
        return same.sum(axis=(1, 2), dtype=np.int64)

    def magnetizations(self) -> np.ndarray:
        """``(R,)`` mean spins, maintained incrementally (O(R) per read)."""
        self._flush_counters()
        n_sites = self.config.n_sites
        return (2.0 * self._n_plus - n_sites) / n_sites

    def _termination_counts(self) -> np.ndarray:
        """``(R,)`` sizes of the sets whose emptiness means termination."""
        counts = self._sets.counts
        if self.flip_rule is FlipRule.ONLY_IF_HAPPY:
            return counts[self.n_replicas :]
        return counts[: self.n_replicas]

    def is_replica_terminated(self, replica: int) -> bool:
        """Scalar-engine termination condition for one replica."""
        return bool(self._termination_counts()[replica] == 0)

    def terminated_mask(self) -> np.ndarray:
        """``(R,)`` bool array of terminated replicas."""
        return self._termination_counts() == 0

    @property
    def all_terminated(self) -> bool:
        """True when no replica can make further progress."""
        return bool((self._termination_counts() == 0).all())

    # ------------------------------------------------------------------ steps

    def step_all(self) -> np.ndarray:
        """Advance every replica by one round; return the replicas that flipped.

        One :meth:`~repro.core.backends.base.FlipLoopBackend.run_rounds`
        call of a single round with no budget, so terminated replicas are
        skipped and everyone else takes one scheduler step (on a compiled
        backend, one native call).  The per-replica draw order (waiting time
        first under the continuous scheduler, then the candidate index)
        matches :meth:`repro.core.dynamics.GlauberDynamics.step`
        stream-exactly.  Energy/magnetization counters stay live.
        """
        start_flips = self._n_flips.copy()
        self._backend.run_rounds(RunBudget(start_flips, self._n_steps.copy()), 1)
        return np.flatnonzero(self._n_flips != start_flips)

    def run(
        self,
        max_flips: Optional[int] = None,
        max_steps: Optional[int] = None,
        max_time: Optional[float] = None,
        record_trajectory: bool = False,
        record_every: int = 1,
    ) -> EnsembleRunResult:
        """Run every replica until termination or its per-replica budget.

        Budgets apply per replica, with the scalar engine's semantics: a
        replica stops stepping once its flip/step count within this call
        reaches the budget or its clock passes ``max_time``; the others keep
        going.  The rounds themselves run in the attached backend's
        :meth:`~repro.core.backends.base.FlipLoopBackend.run_rounds` — the
        Python round loop, or one native call per segment for backends that
        compile it.

        ``record_trajectory`` samples every replica's incremental counters
        into an :class:`EnsembleTrajectory` every ``record_every`` lockstep
        *rounds* (plus the initial and final states).  One sample is O(R), so
        dense recording adds no per-site work.
        """
        if max_flips is not None and max_flips < 0:
            raise StateError(f"max_flips must be non-negative, got {max_flips}")
        if record_every <= 0:
            raise StateError("record_every must be positive")
        trajectory = EnsembleTrajectory(self.n_replicas) if record_trajectory else None
        if trajectory is not None:
            trajectory.record(self)
        start_flips = self._n_flips.copy()
        start_steps = self._n_steps.copy()
        budget = RunBudget(start_flips, start_steps, max_flips, max_steps, max_time)
        segment = record_every if trajectory is not None else None
        # Runs that never read the energy/magnetization counters defer their
        # per-flip updates; the first post-run read flushes exact values.
        previous_tracking = self._track_counters
        self._track_counters = record_trajectory and previous_tracking
        try:
            # Unsegmented runs make one call; a segmented call that ran all
            # its rounds stopped on a record_every boundary.
            while self._backend.run_rounds(budget, segment) == segment:
                trajectory.record(self)
        finally:
            self._track_counters = previous_tracking
        if trajectory is not None and not (
            np.array_equal(trajectory._times[-1], self.times)
            and np.array_equal(trajectory._n_flips[-1], self._n_flips)
        ):
            trajectory.record(self)
        return EnsembleRunResult(
            terminated=self.terminated_mask(),
            n_flips=self._n_flips - start_flips,
            n_steps=self.n_steps - start_steps,
            final_time=self.times,
            final_spins=self._spins.copy(),
            trajectory=trajectory,
        )


def run_ensemble(
    config: ModelConfig,
    n_replicas: int,
    seed: SeedLike = None,
    max_flips: Optional[int] = None,
    scheduler: Optional[SchedulerKind] = None,
    flip_rule: Optional[FlipRule] = None,
    record_trajectory: bool = False,
    record_every: int = 1,
    backend: Optional[str] = None,
) -> EnsembleRunResult:
    """Convenience wrapper: build an :class:`EnsembleDynamics` and run it."""
    ensemble = EnsembleDynamics(
        config,
        n_replicas=n_replicas,
        seed=seed,
        scheduler=scheduler,
        flip_rule=flip_rule,
        backend=backend,
    )
    return ensemble.run(
        max_flips=max_flips,
        record_trajectory=record_trajectory,
        record_every=record_every,
    )
