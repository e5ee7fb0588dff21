"""Vectorized multi-replica Glauber dynamics.

:class:`EnsembleDynamics` advances ``R`` independent replicas of the same
:class:`~repro.core.config.ModelConfig` in lockstep.  Spins are stored as one
``(R, n_rows, n_cols)`` int8 array and *every* per-flip cost — RNG draws,
candidate sampling, the neighbourhood/happiness window refresh and the
sampler membership bookkeeping — is batched across the replica axis:

* RNG draws come from :class:`~repro.rng.BlockedReplicaStreams`: each
  replica's PCG64 word stream is pre-drawn in blocks and the scalar
  ``exponential`` / ``integers`` draws are re-derived from those words in
  vectorized batches, consuming each stream exactly as the per-call scalar
  path would.
* The unhappy/flippable samplers of all replicas live in one array-backed
  :class:`~repro.utils.indexset.BatchedIndexSet` (two rows per replica),
  bulk-built at rebuild time and sampled with one gather per round.
* The post-flip window update is one fused gather–classify–scatter kernel
  over all flipping replicas: flat window indices come from a precomputed
  lookup table, same-type counts are updated in place, and one classification
  call (the variant hook, see below) refreshes every touched window.

Equivalence with the scalar engine is exact, not approximate: replica ``r``
consumes its own PCG64 stream in the same order and quantity as a scalar
:class:`~repro.core.dynamics.GlauberDynamics` would, and membership updates
of the unhappy/flippable samplers are applied in the same window order as
:meth:`repro.core.state.ModelState._refresh_window`.  As a result a replica
seeded with ``replica_seeds[r]`` reproduces the corresponding
:class:`~repro.core.simulation.Simulation` run bit for bit — same final grid,
same flip count, same termination flag, same final time — which is what
``tests/test_core_ensemble.py`` locks down.  :class:`ReferenceEnsembleDynamics`
retains the pre-fusion engine (Python-loop step, list-backed samplers,
per-flip ``Generator`` calls) as the equivalence oracle and the baseline of
``benchmarks/bench_flip_loop.py``.

Per-replica seeds are spawned from one master seed (via
:func:`repro.rng.replicate_seeds`), so any single replica can be re-run in
isolation: ``EnsembleDynamics(config, replica_seeds=[s])`` or
``Simulation(config, seed=s)`` reproduce it exactly.

Every classification of agents — the initial rebuild and the per-flip window
refresh — goes through the single overridable :meth:`EnsembleDynamics._classify`
hook, mirroring :meth:`repro.core.state.ModelState._classify` on the scalar
side.  The variant engines in :mod:`repro.core.variants`
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

from repro.core.backends.base import FlipLoopBackend, RunBudget
from repro.core.backends.registry import create_backend
from repro.core.config import ModelConfig
from repro.core.dynamics import Trajectory
from repro.core.initializer import random_configuration
from repro.core.neighborhood import window_sums, window_sums_batch
from repro.core.state import classify_base
from repro.errors import ConfigurationError, StateError
from repro.rng import BlockedReplicaStreams, SeedLike, replicate_seeds, spawn_rngs
from repro.types import FlipRule, SchedulerKind
from repro.utils.indexset import BatchedIndexSet

#: Largest full per-site window lookup table the engine will precompute
#: (entries = n_sites * window_area; int32 entries, so 16M entries = 64 MB).
#: Bigger grids fall back to the two-gather row/column lookup path.
_FULL_WINDOW_LUT_MAX_ENTRIES = 1 << 24


class _ReplicaIndexSet:
    """List-backed randomised set — the retained scalar-loop reference.

    The pre-fusion engine (:class:`ReferenceEnsembleDynamics`) keeps one of
    these per replica per kind; the fused engine replaced them with a single
    :class:`~repro.utils.indexset.BatchedIndexSet`, whose layout-equivalence
    hypothesis suite uses this class as the oracle.  The swap-remove
    algorithm (and therefore the member ordering, which the RNG-draw
    equivalence relies on) is exactly ``IndexSampler``'s, kept in plain
    Python lists; ``sample`` consumes the generator identically too: one
    ``rng.integers(0, size)`` call per draw.
    """

    __slots__ = ("_members", "_positions", "_size")

    def __init__(self, capacity: int) -> None:
        self._members = [0] * capacity
        self._positions = [-1] * capacity
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def add(self, index: int) -> None:
        """Insert ``index``; inserting an existing element is a no-op."""
        if self._positions[index] >= 0:
            return
        self._members[self._size] = index
        self._positions[index] = self._size
        self._size += 1

    def remove(self, index: int) -> None:
        """Remove ``index``; removing a missing element is a no-op."""
        pos = self._positions[index]
        if pos < 0:
            return
        self._size -= 1
        last = self._members[self._size]
        self._members[pos] = last
        self._positions[last] = pos
        self._positions[index] = -1

    def update_membership(self, index: int, member: bool) -> None:
        """Add or remove ``index`` according to the boolean ``member``."""
        if member:
            self.add(index)
        else:
            self.remove(index)

    def sample(self, rng: np.random.Generator) -> int:
        """Uniformly random member via one ``rng.integers(0, size)`` draw."""
        if self._size == 0:
            raise IndexError("cannot sample from an empty _ReplicaIndexSet")
        pos = int(rng.integers(0, self._size))
        return self._members[pos]

    def clear(self) -> None:
        """Remove every element."""
        for index in self._members[: self._size]:
            self._positions[index] = -1
        self._size = 0

    def to_array(self) -> np.ndarray:
        """Sorted copy of the current members."""
        return np.sort(np.asarray(self._members[: self._size], dtype=np.int64))


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
        Words pre-drawn per replica per RNG block refill (see
        :class:`~repro.rng.BlockedReplicaStreams`).  Purely a performance
        knob: results are bitwise independent of it, which the boundary
        property tests assert down to one-word blocks.
    backend:
        Flip-loop backend request (``"auto"``, ``"numpy"``, ``"numba"``,
        ``"cffi"``, ``"python"`` or ``None``), resolved through
        :mod:`repro.core.backends.registry`: the hot path — the scalar
        round control plane, the fused window update and the coded-op
        sampler maintenance — executes behind the
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
        self._build_runtime(rng_block_words)
        self.recompute_all()
        self._init_backend(backend)

    # ---------------------------------------------------------------- runtime

    def _build_runtime(self, rng_block_words: int) -> None:
        """Allocate the fused engine's batched runtime structures.

        :class:`ReferenceEnsembleDynamics` overrides this (and the step
        methods) with the retained pre-fusion structures; everything else —
        seeding, spin initialisation, the run loop, the public result
        surface — is shared, so the two engines can only differ in how they
        execute a round, never in what a round means.
        """
        config = self.config
        r = self.n_replicas
        n_sites = config.n_sites
        if n_sites > 2**31:
            raise ConfigurationError(
                "the fused engine indexes sites with 32-bit draws; "
                f"{n_sites} sites exceed that (use smaller grids)"
            )
        self._n_sites = n_sites
        self._times = np.zeros(r, dtype=np.float64)
        self._n_steps = np.zeros(r, dtype=np.int64)
        self._replica_ids = np.arange(r, dtype=np.int64)
        self._spins_flat = self._spins.reshape(-1)
        #: Incrementally maintained same-type counts, one flat row per replica.
        self._same_flat = np.zeros(r * n_sites, dtype=np.int64)
        #: Packed happy/flippable bits per site: bit 0 happy, bit 1 flippable.
        self._code_flat = np.zeros(r * n_sites, dtype=np.int8)
        #: Rows [0, R) hold unhappy members, rows [R, 2R) flippable members.
        self._sets = BatchedIndexSet(2 * r, n_sites)
        self._streams = BlockedReplicaStreams(
            self._rngs, block_words=rng_block_words
        )
        #: Scalar round-loop mirrors of the batched state (used by the numpy
        #: backend's step_round): list-speed element access, same buffers.
        self._times_mv = memoryview(self._times)
        self._steps_mv = memoryview(self._n_steps)
        self._code_mv = memoryview(self._code_flat)
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

    def _init_backend(self, backend: Optional[str]) -> None:
        """Resolve, construct and attach this engine's flip-loop backend.

        Called once at the end of ``__init__`` (the backend captures runtime
        tables, so everything — including the first ``recompute_all`` — must
        exist first).  :class:`ReferenceEnsembleDynamics` overrides this with
        a no-op: its retained pre-fusion structures are not backend-shaped.
        """
        self._backend = create_backend(backend)
        #: The resolved (concrete) backend executing this engine's hot path.
        self.backend_name = self._backend.name
        self._backend.attach(self)

    def _build_window_luts(self) -> None:
        """Precompute flat window-index lookups for the fused flip kernel.

        Small grids get the full ``(n_sites, window_area)`` table — the
        per-flip window indices are then a single gather.  Large grids fall
        back to separate wrapped row/column lookups (two gathers and an
        outer add), which cost a couple extra array ops but only
        O(grid side * window side) memory.
        """
        config = self.config
        n_rows, n_cols = config.shape
        w = config.horizon
        side = 2 * w + 1
        offsets = np.arange(-w, w + 1)
        self._window_area = side * side
        self._center_col = (self._window_area - 1) // 2
        if config.n_sites * self._window_area <= _FULL_WINDOW_LUT_MAX_ENTRIES:
            rows = np.arange(config.n_sites) // n_cols
            cols = np.arange(config.n_sites) % n_cols
            wrapped_rows = (rows[:, None] + offsets[None, :]) % n_rows
            wrapped_cols = (cols[:, None] + offsets[None, :]) % n_cols
            self._window_lut: Optional[np.ndarray] = (
                wrapped_rows[:, :, None] * n_cols + wrapped_cols[:, None, :]
            ).reshape(config.n_sites, self._window_area).astype(np.int32)
            self._row_lut = None
            self._col_lut = None
        else:
            self._window_lut = None
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
        fused per-flip window refresh — funnels through this one method,
        exactly as :meth:`repro.core.state.ModelState._classify` does on the
        scalar side.  Subclasses implement variant rules by overriding it
        with the shared kernels from :mod:`repro.core.variants`; the base
        implementation applies the paper's one-sided rule via
        :func:`repro.core.state.classify_base`.  The kernels are pure and
        shape-agnostic, which is what lets one hook serve both the
        ``(R, n, n)`` rebuild and the ``(flips, window)`` refresh.
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
        hook's full-grid output: a hypothetical subclass whose rule is not
        elementwise in ``(spin, same)`` fails the check and falls back to
        calling the hook per flip.
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
        if np.array_equal(expected, code):
            self._code_lut = lut
            self._code_lut_flat = None if (lut[0] != lut[1]).any() else lut[0]
        else:  # pragma: no cover - no shipped rule hits this
            self._code_lut = None
            self._code_lut_flat = None

    # ------------------------------------------------------------- inspection

    @property
    def n_replicas(self) -> int:
        """Number of replicas."""
        return len(self._rngs)

    @property
    def times(self) -> np.ndarray:
        """``(R,)`` per-replica simulation clocks (copy)."""
        return np.array(self._times, dtype=np.float64)

    @property
    def n_flips(self) -> np.ndarray:
        """``(R,)`` per-replica flip counts (copy)."""
        return self._n_flips.copy()

    @property
    def n_steps(self) -> np.ndarray:
        """``(R,)`` per-replica scheduler step counts (copy)."""
        return np.array(self._n_steps, dtype=np.int64)

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

        Maintained incrementally by :meth:`_apply_flips` — an O(1)-per-flip
        window-free delta mirroring :meth:`repro.core.state.ModelState.apply_flip`
        — so reading it (e.g. from trajectory recording) is O(R); the tests
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

    def step_all(self, active: Optional[Sequence[int]] = None) -> np.ndarray:
        """Advance every active replica by one scheduler step.

        ``active`` restricts the round to the given replica indices (the
        ``run`` loop uses it to exclude replicas that hit their budgets);
        terminated replicas are always skipped.  Returns the array of replica
        indices that actually flipped this round.

        Large rounds run as array code: termination/sampler filtering, clock
        advances, blocked RNG draws, candidate gathers and the fused window
        refresh all operate on the surviving replica axis at once.  Small
        rounds (where per-call numpy dispatch would dominate) go through the
        attached :class:`~repro.core.backends.base.FlipLoopBackend`'s scalar
        round instead; both regimes consume the blocked RNG buffers
        identically, so they are interchangeable mid-run.  The per-replica
        draw order (waiting time first under the continuous scheduler, then
        the candidate index) matches
        :meth:`repro.core.dynamics.GlauberDynamics.step` stream-exactly.
        """
        n_rep = self.n_replicas
        if active is None:
            candidates = self._replica_ids
        else:
            candidates = np.asarray(active, dtype=np.int64)
        if candidates.size <= BlockedReplicaStreams.SCALAR_PATH_MAX:
            return self._backend.step_round(candidates)
        only_if_happy = self.flip_rule is FlipRule.ONLY_IF_HAPPY
        continuous = self.scheduler is SchedulerKind.CONTINUOUS
        counts = self._sets.counts
        if only_if_happy:
            term_sizes = counts[candidates + n_rep]
        else:
            term_sizes = counts[candidates]
        alive = term_sizes > 0
        if only_if_happy and continuous:
            sampler_offset = n_rep
            sampler_sizes = term_sizes
        else:
            sampler_offset = 0
            sampler_sizes = counts[candidates]
            alive &= sampler_sizes > 0
        if alive.all():
            reps = candidates
            sizes = sampler_sizes
        else:
            reps = candidates[alive]
            if reps.size == 0:
                return np.empty(0, dtype=np.int64)
            sizes = sampler_sizes[alive]
        # Same draw order as GlauberDynamics.step: waiting time first
        # (continuous scheduler only), then the candidate index.
        waits, draws = self._streams.draw_step(reps, sizes, continuous)
        if continuous:
            self._times[reps] += (1.0 / sizes) * waits
        else:
            self._times[reps] += 1.0
        self._n_steps[reps] += 1
        flats = self._sets.sample_rows(reps + sampler_offset, draws)
        bases = reps * self._n_sites
        if only_if_happy and not continuous:
            # Discrete scheduler samples unhappy agents, which may refuse to
            # flip.  (The continuous sampler only contains flippable agents,
            # so the gather would be all-True there.)
            do_flip = (self._code_flat[bases + flats] & 2) != 0
            reps = reps[do_flip]
            flats = flats[do_flip]
            bases = bases[do_flip]
            if reps.size == 0:
                return reps
        self._apply_flips(reps, flats, bases)
        self._n_flips[reps] += 1
        return reps

    def _apply_flips(
        self, reps: np.ndarray, flats: np.ndarray, bases: Optional[np.ndarray] = None
    ) -> None:
        """Flip one site per listed replica via the attached backend.

        The fused gather-classify-scatter window kernel lives behind the
        :class:`~repro.core.backends.base.FlipLoopBackend` seam (see
        :meth:`FlipLoopBackend.apply_flips
        <repro.core.backends.base.FlipLoopBackend.apply_flips>` for the
        semantics); this shim keeps the vectorized ``step_all`` path and the
        subclass override point unchanged.
        """
        self._backend.apply_flips(reps, flats, bases)

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
        start_steps = np.array(self._n_steps, dtype=np.int64)
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


class ReferenceEnsembleDynamics(EnsembleDynamics):
    """The pre-fusion ensemble engine, retained as oracle and baseline.

    Semantically identical to :class:`EnsembleDynamics` — both are bitwise
    equivalent to per-replica scalar runs — but executes a round the way the
    engine did before the fused flip loop landed: a Python loop over replicas
    with one ``Generator.exponential``/``integers`` call each, list-backed
    :class:`_ReplicaIndexSet` samplers updated element by element, and
    per-index insertion loops at rebuild time.  The equivalence property
    tests pit the fused engine against this one, and
    ``benchmarks/bench_flip_loop.py`` / ``bench_ensemble_throughput.py``
    report the fused engine's speedup over it.
    """

    def _init_backend(self, backend: Optional[str]) -> None:
        """The reference engine is its own hot path; it borrows only the loop.

        The retained pre-fusion structures (list-backed samplers, per-flip
        ``Generator`` calls) are not backend-shaped, and the point of this
        engine is to *not* share round code with what it verifies.  The
        protocol's default :meth:`FlipLoopBackend.run_rounds` — the shared
        Python round loop, which calls this engine's own :meth:`step_all` —
        is attached so ``run`` stays inherited.
        """
        self._backend = FlipLoopBackend()
        self._backend.attach(self)
        self.backend_name = "reference"

    def _build_runtime(self, rng_block_words: int) -> None:
        """Allocate the retained scalar-loop structures (no RNG blocks)."""
        config = self.config
        r = self.n_replicas
        n_rows, n_cols = config.shape
        self._plus_counts = np.empty((r, n_rows, n_cols), dtype=np.int64)
        self._happy_mask = np.empty((r, n_rows, n_cols), dtype=bool)
        self._flippable_mask = np.empty((r, n_rows, n_cols), dtype=bool)
        self._unhappy = [_ReplicaIndexSet(config.n_sites) for _ in range(r)]
        self._flippable = [_ReplicaIndexSet(config.n_sites) for _ in range(r)]
        # Per-replica clocks/counters in plain lists: they are touched once
        # per replica per round and Python-list access is cheaper than numpy
        # scalar indexing on that path.
        self._times = [0.0] * r
        self._n_steps = [0] * r
        self._offsets = np.arange(-config.horizon, config.horizon + 1)
        # The reference engine always tracks its counters incrementally; the
        # flags exist so the shared accessors (and run()) stay inherited.
        self._track_counters = True
        self._counters_stale = False

    def recompute_all(self) -> None:
        """Rebuild counts, masks and samplers the pre-fusion way."""
        w = self.config.horizon
        total = self.config.neighborhood_agents
        for r in range(self.n_replicas):
            self._plus_counts[r] = window_sums(
                (self._spins[r] == 1).astype(np.int64), w
            )
        same = np.where(self._spins == 1, self._plus_counts, total - self._plus_counts)
        self._energies = same.sum(axis=(1, 2), dtype=np.int64)
        self._n_plus = np.count_nonzero(self._spins == 1, axis=(1, 2)).astype(np.int64)
        self._happy_mask, self._flippable_mask = self._classify(self._spins, same)
        for r in range(self.n_replicas):
            self._unhappy[r].clear()
            self._flippable[r].clear()
            # Same insertion order as ModelState.recompute_all so that the
            # samplers' internal layouts (and hence RNG-draw outcomes) match.
            for index in np.flatnonzero(~self._happy_mask[r].ravel()):
                self._unhappy[r].add(int(index))
            for index in np.flatnonzero(self._flippable_mask[r].ravel()):
                self._flippable[r].add(int(index))

    # ------------------------------------------------------------- inspection

    def unhappy_counts(self) -> np.ndarray:
        """``(R,)`` current number of unhappy agents per replica."""
        return np.array([len(s) for s in self._unhappy], dtype=np.int64)

    def flippable_counts(self) -> np.ndarray:
        """``(R,)`` current number of flippable agents per replica."""
        return np.array([len(s) for s in self._flippable], dtype=np.int64)

    def happy_mask(self, replica: int) -> np.ndarray:
        """Boolean happy mask of one replica (copy)."""
        return self._happy_mask[replica].copy()

    def flippable_mask(self, replica: int) -> np.ndarray:
        """Boolean flippable mask of one replica (copy)."""
        return self._flippable_mask[replica].copy()

    def unhappy_indices(self, replica: int) -> np.ndarray:
        """Sorted flat indices of one replica's unhappy agents."""
        return self._unhappy[replica].to_array()

    def flippable_indices(self, replica: int) -> np.ndarray:
        """Sorted flat indices of one replica's flippable agents."""
        return self._flippable[replica].to_array()

    def _energies_full(self) -> np.ndarray:
        """``(R,)`` energies recomputed from the window counts."""
        total = self.config.neighborhood_agents
        same = np.where(self._spins == 1, self._plus_counts, total - self._plus_counts)
        return same.sum(axis=(1, 2), dtype=np.int64)

    def _termination_counts(self) -> np.ndarray:
        """``(R,)`` sizes of the sets whose emptiness means termination."""
        sets = (
            self._flippable
            if self.flip_rule is FlipRule.ONLY_IF_HAPPY
            else self._unhappy
        )
        return np.fromiter((len(s) for s in sets), dtype=np.int64, count=len(sets))

    # ------------------------------------------------------------------ steps

    def step_all(self, active: Optional[Sequence[int]] = None) -> np.ndarray:
        """Advance every active replica by one step — the pre-fusion loop."""
        if active is None:
            candidates = range(self.n_replicas)
        else:
            candidates = active
        only_if_happy = self.flip_rule is FlipRule.ONLY_IF_HAPPY
        continuous = self.scheduler is SchedulerKind.CONTINUOUS
        termination_sets = self._flippable if only_if_happy else self._unhappy
        samplers = (
            self._flippable if only_if_happy and continuous else self._unhappy
        )
        times = self._times
        steps = self._n_steps
        rngs = self._rngs
        reps: list[int] = []
        flats: list[int] = []
        for r in candidates:
            r = int(r)
            if len(termination_sets[r]) == 0:
                continue
            sampler = samplers[r]
            if len(sampler) == 0:
                continue
            rng = rngs[r]
            # Same draw order as GlauberDynamics.step: waiting time first
            # (continuous scheduler only), then the candidate index.
            if continuous:
                times[r] += float(rng.exponential(1.0 / len(sampler)))
            else:
                times[r] += 1.0
            steps[r] += 1
            reps.append(r)
            flats.append(sampler.sample(rng))
        if not reps:
            return np.empty(0, dtype=np.int64)

        n_rows, n_cols = self.config.shape
        rep_arr = np.asarray(reps, dtype=np.int64)
        flat_arr = np.asarray(flats, dtype=np.int64)
        rows = flat_arr // n_cols
        cols = flat_arr % n_cols
        if only_if_happy and not continuous:
            do_flip = self._flippable_mask[rep_arr, rows, cols]
            rep_arr = rep_arr[do_flip]
            rows = rows[do_flip]
            cols = cols[do_flip]
            if rep_arr.size == 0:
                return rep_arr
        self._apply_flips(rep_arr, rows, cols)
        self._n_flips[rep_arr] += 1
        return rep_arr

    def _apply_flips(
        self, reps: np.ndarray, rows: np.ndarray, cols: np.ndarray
    ) -> None:
        """Flip one site per listed replica — the pre-fusion window update."""
        config = self.config
        n_rows, n_cols = config.shape
        total = config.neighborhood_agents

        new_values = -self._spins[reps, rows, cols]
        self._spins[reps, rows, cols] = new_values
        delta = new_values.astype(np.int64)

        offsets = self._offsets
        window_rows = (rows[:, None] + offsets[None, :]) % n_rows
        window_cols = (cols[:, None] + offsets[None, :]) % n_cols
        rep_index = reps[:, None, None]
        row_index = window_rows[:, :, None]
        col_index = window_cols[:, None, :]

        sub_plus = self._plus_counts[rep_index, row_index, col_index]
        center = config.horizon
        old_plus_center = sub_plus[:, center, center].astype(np.int64)
        old_spin = -delta
        old_same_center = np.where(
            old_spin == 1, old_plus_center, total - old_plus_center
        )
        new_plus_center = old_plus_center + delta
        new_same_center = np.where(
            delta == 1, new_plus_center, total - new_plus_center
        )
        self._energies[reps] += (
            delta * (2 * old_plus_center - total - old_spin)
            + new_same_center
            - old_same_center
        )
        self._n_plus[reps] += delta
        sub_plus += delta[:, None, None]
        self._plus_counts[rep_index, row_index, col_index] = sub_plus
        sub_spins = self._spins[rep_index, row_index, col_index]
        sub_same = np.where(sub_spins == 1, sub_plus, total - sub_plus)
        sub_happy, sub_flippable = self._classify(sub_spins, sub_same)

        old_happy = self._happy_mask[rep_index, row_index, col_index]
        old_flippable = self._flippable_mask[rep_index, row_index, col_index]
        changed = (sub_happy != old_happy) | (sub_flippable != old_flippable)
        self._happy_mask[rep_index, row_index, col_index] = sub_happy
        self._flippable_mask[rep_index, row_index, col_index] = sub_flippable
        if not changed.any():
            return

        flat = window_rows[:, :, None] * n_cols + window_cols[:, None, :]
        changed_reps = np.broadcast_to(rep_index, changed.shape)[changed].tolist()
        changed_flats = flat[changed].tolist()
        changed_happy = sub_happy[changed].tolist()
        changed_flippable = sub_flippable[changed].tolist()
        unhappy_sets = self._unhappy
        flippable_sets = self._flippable
        for replica, index, happy, flippable in zip(
            changed_reps, changed_flats, changed_happy, changed_flippable
        ):
            unhappy_sets[replica].update_membership(index, not happy)
            flippable_sets[replica].update_membership(index, flippable)


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
