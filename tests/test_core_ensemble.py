"""Cross-consistency tests: EnsembleDynamics must match the scalar engine.

The ensemble engine claims *bitwise* equivalence with scalar runs: replica
``r`` of an ensemble seeded with master seed ``S`` reproduces the scalar
:class:`~repro.core.simulation.Simulation` seeded with
``ensemble.replica_seeds[r]`` exactly — same final grid, flip count,
termination flag and final clock — across schedulers, tau regimes, grid
shapes and every flip-loop backend the host can run.  The scalar engine
is the oracle; these tests are the contract that lets every experiment
switch between engines and backends freely.
"""


import numpy as np
import pytest

from repro.core.backends.registry import available_backends
from repro.core.config import ModelConfig
from repro.core.dynamics import GlauberDynamics
from repro.core.ensemble import EnsembleDynamics, run_ensemble
from repro.core.initializer import random_configuration
from repro.core.simulation import Simulation
from repro.core.state import ModelState
from repro.errors import ConfigurationError, StateError
from repro.rng import spawn_rngs
from repro.types import FlipRule, SchedulerKind

SCHEDULERS = [SchedulerKind.CONTINUOUS, SchedulerKind.DISCRETE]
#: One intolerance at or below 1/2 (every unhappy agent flippable) and one
#: above (only super-unhappy agents flippable) — the two bookkeeping regimes.
TAUS = [0.35, 0.55]
SHAPES = [(18, 18), (14, 22)]
BACKENDS = available_backends()


def scalar_reference(config: ModelConfig, seed: int, max_flips=None):
    """The scalar run an ensemble replica with this seed must reproduce."""
    simulation = Simulation(config, seed=seed)
    return simulation.run(max_flips=max_flips)


@pytest.mark.parametrize("backend", BACKENDS)
class TestScalarEquivalence:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("tau", TAUS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_replicas_match_scalar_runs_exactly(self, scheduler, tau, shape, backend):
        config = ModelConfig(
            n_rows=shape[0],
            n_cols=shape[1],
            horizon=2,
            tau=tau,
            scheduler=scheduler,
        )
        ensemble = EnsembleDynamics(config, n_replicas=3, seed=42, backend=backend)
        result = ensemble.run()
        for replica, seed in enumerate(ensemble.replica_seeds):
            reference = scalar_reference(config, seed)
            assert np.array_equal(
                reference.final_spins, result.final_spins[replica]
            ), f"final grids diverge for replica {replica}"
            assert reference.n_flips == result.n_flips[replica]
            assert reference.n_steps == result.n_steps[replica]
            assert reference.terminated == bool(result.terminated[replica])
            assert reference.final_time == result.final_time[replica]

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_flip_budget_matches_scalar_runs(self, scheduler, backend):
        config = ModelConfig.square(
            side=20, horizon=2, tau=0.45, scheduler=scheduler
        )
        ensemble = EnsembleDynamics(config, n_replicas=3, seed=5, backend=backend)
        result = ensemble.run(max_flips=40)
        for replica, seed in enumerate(ensemble.replica_seeds):
            reference = scalar_reference(config, seed, max_flips=40)
            assert np.array_equal(reference.final_spins, result.final_spins[replica])
            assert reference.n_flips == result.n_flips[replica] <= 40

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_time_budget_matches_scalar_runs(self, scheduler, backend):
        config = ModelConfig.square(
            side=20, horizon=2, tau=0.45, scheduler=scheduler
        )
        # Continuous clocks advance ~1/|unhappy| per step, discrete ones 1.
        max_time = 0.3 if scheduler is SchedulerKind.CONTINUOUS else 25.0
        ensemble = EnsembleDynamics(config, n_replicas=3, seed=5, backend=backend)
        result = ensemble.run(max_time=max_time)
        assert not result.all_terminated  # the clock, not termination, stopped it
        for replica, seed in enumerate(ensemble.replica_seeds):
            reference = Simulation(config, seed=seed).run(max_time=max_time)
            assert np.array_equal(reference.final_spins, result.final_spins[replica])
            assert reference.n_flips == result.n_flips[replica]
            assert reference.n_steps == result.n_steps[replica]
            assert reference.terminated == bool(result.terminated[replica])
            assert reference.final_time == result.final_time[replica]

    def test_always_flip_rule_matches_scalar_runs(self, backend):
        config = ModelConfig.square(
            side=16, horizon=1, tau=0.4, flip_rule=FlipRule.ALWAYS
        )
        ensemble = EnsembleDynamics(config, n_replicas=2, seed=9, backend=backend)
        result = ensemble.run(max_flips=150)
        for replica, seed in enumerate(ensemble.replica_seeds):
            reference = scalar_reference(config, seed, max_flips=150)
            assert np.array_equal(reference.final_spins, result.final_spins[replica])
            assert reference.n_flips == result.n_flips[replica]

    def test_planted_initial_spins_match_scalar_dynamics(self, backend):
        config = ModelConfig.square(side=18, horizon=2, tau=0.45)
        seeds = [101, 202, 303]
        grids = [
            random_configuration(config, seed=1000 + index).spins
            for index in range(len(seeds))
        ]
        ensemble = EnsembleDynamics(
            config,
            replica_seeds=seeds,
            initial_spins=np.stack(grids),
            backend=backend,
        )
        result = ensemble.run()
        for replica, seed in enumerate(seeds):
            # Mirror the engine's stream split: the init stream is spawned
            # (and discarded, since the grid is planted), the dynamics stream
            # drives the scalar engine.
            _, dynamics_rng = spawn_rngs(seed, 2)
            state = ModelState(config, grid=None)
            state.apply_spin_array(grids[replica])
            reference = GlauberDynamics(state, seed=dynamics_rng).run()
            assert np.array_equal(state.grid.spins, result.final_spins[replica])
            assert reference.n_flips == result.n_flips[replica]


class TestReplicaIsolation:
    def test_single_replica_ensemble_reproduces_ensemble_member(self):
        """Any replica can be re-run in isolation from its own seed."""
        config = ModelConfig.square(side=18, horizon=2, tau=0.45)
        ensemble = EnsembleDynamics(config, n_replicas=4, seed=77)
        result = ensemble.run()
        for replica, seed in enumerate(ensemble.replica_seeds):
            solo = EnsembleDynamics(config, replica_seeds=[seed])
            solo_result = solo.run()
            assert np.array_equal(
                solo_result.final_spins[0], result.final_spins[replica]
            )
            assert solo_result.n_flips[0] == result.n_flips[replica]

    def test_replica_seeds_are_distinct_and_reproducible(self):
        config = ModelConfig.square(side=14, horizon=1, tau=0.4)
        a = EnsembleDynamics(config, n_replicas=6, seed=3)
        b = EnsembleDynamics(config, n_replicas=6, seed=3)
        assert a.replica_seeds == b.replica_seeds
        assert len(set(a.replica_seeds)) == 6


class TestEngineInvariants:
    def test_termination_empties_flippable_sets(self):
        config = ModelConfig.square(side=16, horizon=1, tau=0.4)
        ensemble = EnsembleDynamics(config, n_replicas=3, seed=1)
        result = ensemble.run()
        assert result.all_terminated
        assert np.all(ensemble.flippable_counts() == 0)
        for replica in range(3):
            assert ensemble.flippable_indices(replica).size == 0

    def test_step_all_returns_flipping_replicas(self):
        config = ModelConfig.square(side=16, horizon=1, tau=0.4)
        ensemble = EnsembleDynamics(config, n_replicas=3, seed=2)
        before = ensemble.n_flips
        flipped = ensemble.step_all()
        after = ensemble.n_flips
        assert sorted(flipped.tolist()) == sorted(np.flatnonzero(after - before).tolist())

    def test_run_result_reports_totals(self):
        config = ModelConfig.square(side=14, horizon=1, tau=0.4)
        result = run_ensemble(config, n_replicas=3, seed=8, max_flips=30)
        assert result.n_replicas == 3
        assert result.total_flips == int(result.n_flips.sum())
        assert result.final_spins.shape == (3, 14, 14)

    def test_masks_and_counts_match_fresh_model_state(self):
        config = ModelConfig.square(side=18, horizon=2, tau=0.55)
        ensemble = EnsembleDynamics(config, n_replicas=3, seed=21)
        ensemble.run(max_flips=50)
        for replica in range(3):
            reference = ModelState(config, grid=None)
            reference.apply_spin_array(ensemble.replica_spins(replica))
            assert np.array_equal(
                ensemble.happy_mask(replica), reference.happy_mask()
            )
            assert np.array_equal(
                ensemble.flippable_mask(replica), reference.flippable_mask()
            )
            assert ensemble.unhappy_counts()[replica] == reference.n_unhappy
            assert ensemble.flippable_counts()[replica] == reference.n_flippable
            assert np.array_equal(
                ensemble.unhappy_indices(replica),
                np.flatnonzero(reference.unhappy_mask().ravel()),
            )
            assert np.array_equal(
                ensemble.flippable_indices(replica),
                np.flatnonzero(reference.flippable_mask().ravel()),
            )

    def test_energies_match_model_state_energy(self):
        config = ModelConfig.square(side=16, horizon=1, tau=0.4)
        ensemble = EnsembleDynamics(config, n_replicas=2, seed=13)
        ensemble.run(max_flips=25)
        energies = ensemble.energies()
        for replica in range(2):
            reference = ModelState(config, grid=None)
            reference.apply_spin_array(ensemble.replica_spins(replica))
            assert energies[replica] == reference.energy()


class TestValidation:
    def test_rejects_nonpositive_replica_count(self):
        config = ModelConfig.square(side=12, horizon=1, tau=0.4)
        with pytest.raises(ConfigurationError):
            EnsembleDynamics(config, n_replicas=0, seed=1)
        with pytest.raises(ConfigurationError):
            EnsembleDynamics(config, seed=1)

    def test_rejects_windows_beyond_int16_counts(self):
        # Same-type counts are int16, which holds N + 1 only up to w = 90.
        config = ModelConfig.square(side=183, horizon=91, tau=0.45)
        with pytest.raises(ConfigurationError, match="int16"):
            EnsembleDynamics(config, n_replicas=1, seed=1)

    def test_rejects_grids_beyond_the_int32_build_table(self):
        # 2**31 sites, as many as 32-bit draws index, but the build's int32
        # summed-area table is padded by w: refused before any replica is
        # drawn.
        config = ModelConfig(n_rows=1 << 16, n_cols=1 << 15, horizon=1, tau=0.45)
        with pytest.raises(ConfigurationError, match="int32 summed-area table"):
            EnsembleDynamics(config, n_replicas=1, seed=1)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rejects_non_elementwise_classify_hook(self, backend):
        # The build and the flip loop classify from a table of the hook over
        # (spin, same-type count); a rule that also reads the site cannot be
        # tabulated, so building the engine must fail under every backend,
        # not fall back to something slower.
        class FirstRowAlwaysHappy(EnsembleDynamics):
            def _classify(self, spins, same):
                happy, flippable = super()._classify(spins, same)
                if happy.ndim == 3:  # the full-grid rebuild
                    happy[:, 0, :] = True
                    flippable[:, 0, :] = False
                return happy, flippable

        config = ModelConfig.square(side=12, horizon=1, tau=0.4)
        with pytest.raises(ConfigurationError, match=r"FirstRowAlwaysHappy\._classify"):
            FirstRowAlwaysHappy(config, n_replicas=2, seed=1, backend=backend)

    def test_rejects_empty_replica_seeds(self):
        config = ModelConfig.square(side=12, horizon=1, tau=0.4)
        with pytest.raises(ConfigurationError):
            EnsembleDynamics(config, replica_seeds=[])

    def test_rejects_bad_initial_spins(self):
        config = ModelConfig.square(side=12, horizon=1, tau=0.4)
        with pytest.raises(ConfigurationError):
            EnsembleDynamics(
                config,
                replica_seeds=[1, 2],
                initial_spins=np.ones((3, 12, 12), dtype=np.int8),
            )
        with pytest.raises(ConfigurationError):
            EnsembleDynamics(
                config,
                replica_seeds=[1],
                initial_spins=np.zeros((1, 12, 12), dtype=np.int8),
            )

    @pytest.mark.parametrize("engine", ["scalar", *BACKENDS])
    @pytest.mark.parametrize(
        "budget, value, message",
        [
            ("max_flips", float("nan"), "max_flips is NaN"),
            ("max_steps", float("nan"), "max_steps is NaN"),
            ("max_time", float("nan"), "max_time is NaN"),
            ("max_flips", -1, "max_flips must be non-negative"),
        ],
        ids=["nan_flips", "nan_steps", "nan_time", "negative_flips"],
    )
    def test_rejects_unusable_run_budgets(self, engine, budget, value, message):
        # Every engine refuses the same budgets by name, before any step.
        config = ModelConfig.square(side=16, horizon=1, tau=0.45)
        if engine == "scalar":
            state = ModelState(config, random_configuration(config, 1))
            dynamics = GlauberDynamics(state, seed=2)
        else:
            dynamics = EnsembleDynamics(config, n_replicas=2, seed=1, backend=engine)
        with pytest.raises(StateError, match=message):
            dynamics.run(**{budget: value})
        assert np.all(np.asarray(dynamics.n_steps) == 0)

    @pytest.mark.parametrize("engine", ["scalar", *BACKENDS])
    @pytest.mark.parametrize(
        "budget, value, unbounded",
        [
            ("max_flips", float("inf"), True),
            ("max_flips", 2**70, True),
            ("max_steps", -5, False),
            ("max_time", float("inf"), True),
            ("max_time", float("-inf"), False),
        ],
        ids=["inf_flips", "flips_past_int64", "negative_steps", "inf_time", "minus_inf_time"],
    )
    def test_accepts_unbounded_and_spent_budgets(self, engine, budget, value, unbounded):
        # The shared check refuses NaN and negative flips only: an infinite
        # or past-int64 budget runs as no budget, a spent one runs no step.
        config = ModelConfig.square(side=16, horizon=1, tau=0.45)

        def make():
            if engine == "scalar":
                state = ModelState(config, random_configuration(config, 1))
                return GlauberDynamics(state, seed=2)
            return EnsembleDynamics(config, n_replicas=2, seed=1, backend=engine)

        def outcome(result):
            fields = ("terminated", "n_flips", "n_steps", "final_time")
            return [np.asarray(getattr(result, name)).tolist() for name in fields]

        result = make().run(**{budget: value})
        if unbounded:
            assert outcome(result) == outcome(make().run())
            assert np.all(result.terminated)
        else:
            assert np.all(np.asarray(result.n_steps) == 0)
            assert not np.any(result.terminated)


class TestIncrementalEnergies:
    """energies()/magnetizations() are incremental counters kept exact per flip."""

    @pytest.mark.parametrize("backend", available_backends())
    def test_widest_window_fits_int16_counts(self, backend):
        # w = 90 is the widest window whose counts (up to N + 1 = 32762)
        # fit int16.  Under the always-flip rule at tau = 0.6 agents with
        # more than 2**14 same-type neighbours flip, and twice their count
        # wraps in int16, so the energy delta must widen it.
        config = ModelConfig.square(side=181, horizon=90, tau=0.6)
        ensemble = EnsembleDynamics(
            config, n_replicas=2, seed=5, flip_rule=FlipRule.ALWAYS,
            backend=backend,
        )
        assert ensemble._same_flat.dtype == np.int16
        for _ in range(20):
            ensemble.step_all()
        assert ensemble.n_flips.tolist() == [20, 20]
        assert np.array_equal(ensemble.energies(), ensemble._energies_full())
        assert int(ensemble._same_flat.max()) <= config.neighborhood_agents

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("tau", TAUS)
    def test_energies_match_full_recompute_after_run(self, scheduler, tau):
        config = ModelConfig.square(side=16, horizon=1, tau=tau, scheduler=scheduler)
        ensemble = EnsembleDynamics(config, n_replicas=4, seed=13)
        ensemble.run(max_flips=250)
        assert np.array_equal(ensemble.energies(), ensemble._energies_full())

    def test_energies_match_scalar_state_after_termination(self):
        config = ModelConfig.square(side=14, horizon=1, tau=0.4)
        ensemble = EnsembleDynamics(config, n_replicas=3, seed=21)
        ensemble.run()
        energies = ensemble.energies()
        magnetizations = ensemble.magnetizations()
        for replica, seed in enumerate(ensemble.replica_seeds):
            simulation = Simulation(config, seed=seed)
            simulation.run()
            assert energies[replica] == simulation.state.energy()
            assert magnetizations[replica] == simulation.state.magnetization()

    def test_recompute_all_resets_counters(self):
        config = ModelConfig.square(side=12, horizon=1, tau=0.4)
        ensemble = EnsembleDynamics(config, n_replicas=2, seed=3)
        ensemble.run(max_flips=40)
        ensemble.recompute_all()
        assert np.array_equal(ensemble.energies(), ensemble._energies_full())


class TestEnsembleTrajectory:
    def test_arrays_have_replica_by_sample_shape(self):
        config = ModelConfig.square(side=12, horizon=1, tau=0.4)
        result = run_ensemble(config, n_replicas=3, seed=5, record_trajectory=True)
        trajectory = result.trajectory
        assert trajectory is not None
        samples = len(trajectory)
        assert samples >= 2
        for name in ("times", "n_flips", "n_unhappy", "n_flippable", "energy", "magnetization"):
            assert getattr(trajectory, name).shape == (3, samples)

    def test_no_recording_by_default(self):
        config = ModelConfig.square(side=12, horizon=1, tau=0.4)
        assert run_ensemble(config, n_replicas=2, seed=5).trajectory is None

    def test_record_every_thins_samples(self):
        config = ModelConfig.square(side=12, horizon=1, tau=0.4)
        dense = run_ensemble(config, n_replicas=2, seed=5, record_trajectory=True)
        sparse = run_ensemble(
            config, n_replicas=2, seed=5, record_trajectory=True, record_every=10
        )
        assert len(sparse.trajectory) < len(dense.trajectory)
        # endpoints are always recorded
        assert np.array_equal(
            dense.trajectory.energy[:, -1], sparse.trajectory.energy[:, -1]
        )

    def test_replica_view_matches_scalar_run_endpoints(self):
        config = ModelConfig.square(side=14, horizon=1, tau=0.4)
        ensemble = EnsembleDynamics(config, n_replicas=3, seed=17)
        result = ensemble.run(record_trajectory=True)
        for replica, seed in enumerate(ensemble.replica_seeds):
            scalar = Simulation(config, seed=seed).run(
                record_trajectory=True, record_every=1
            )
            view = result.trajectory.replica(replica)
            assert view.energy[0] == scalar.trajectory.energy[0]
            assert view.energy[-1] == scalar.trajectory.energy[-1]
            assert view.n_flips[-1] == scalar.n_flips
            assert view.times[-1] == scalar.final_time
            assert view.magnetization[-1] == scalar.trajectory.magnetization[-1]
            assert view.n_unhappy[-1] == scalar.trajectory.n_unhappy[-1]

    def test_energy_monotone_along_rounds(self):
        config = ModelConfig.square(side=14, horizon=1, tau=0.45)
        result = run_ensemble(config, n_replicas=4, seed=23, record_trajectory=True)
        assert (np.diff(result.trajectory.energy, axis=1) >= 0).all()

    def test_replica_index_validated(self):
        config = ModelConfig.square(side=12, horizon=1, tau=0.4)
        result = run_ensemble(config, n_replicas=2, seed=5, record_trajectory=True)
        with pytest.raises(StateError):
            result.trajectory.replica(2)

    def test_record_every_validated(self):
        config = ModelConfig.square(side=12, horizon=1, tau=0.4)
        ensemble = EnsembleDynamics(config, n_replicas=2, seed=5)
        with pytest.raises(StateError):
            ensemble.run(record_trajectory=True, record_every=0)

    def test_final_sample_matches_scalar_when_run_ends_on_noop_steps(self):
        """Both engines' final-record guards key on flips OR times (review fix)."""
        config = ModelConfig.square(
            side=8, horizon=1, tau=0.6, scheduler=SchedulerKind.DISCRETE
        )
        ensemble = EnsembleDynamics(config, n_replicas=1, seed=0)
        eres = ensemble.run(max_steps=5, record_trajectory=True, record_every=1)
        init_rng, dynamics_rng = spawn_rngs(ensemble.replica_seeds[0], 2)
        state = ModelState(config, random_configuration(config, init_rng))
        scalar = GlauberDynamics(state, seed=dynamics_rng)
        sres = scalar.run(max_steps=5, record_trajectory=True, record_every=1)
        view = eres.trajectory.replica(0)
        assert view.times[-1] == sres.trajectory.times[-1]
        assert view.n_flips[-1] == sres.trajectory.n_flips[-1]
        assert view.energy[-1] == sres.trajectory.energy[-1]


class TestStreamExactRuns:
    """Runs to termination, and a budget stop then a resume, stay stream-exact.

    Both backends draw through each replica's own ``Generator``, so a run
    stopped by a budget leaves the stream where the next run picks it up.
    """

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_runs_to_termination_match_scalar(self, scheduler, backend):
        config = ModelConfig.square(
            side=14, horizon=1, tau=0.45, scheduler=scheduler
        )
        ensemble = EnsembleDynamics(config, n_replicas=2, seed=8, backend=backend)
        result = ensemble.run()
        for replica, seed in enumerate(ensemble.replica_seeds):
            reference = scalar_reference(config, seed)
            assert np.array_equal(reference.final_spins, result.final_spins[replica])
            assert reference.n_flips == result.n_flips[replica]
            assert reference.final_time == result.final_time[replica]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_budget_stop_then_resume(self, backend):
        """Stopping on a budget and resuming stays stream-exact."""
        config = ModelConfig.square(side=14, horizon=1, tau=0.45)
        ensemble = EnsembleDynamics(config, n_replicas=2, seed=12, backend=backend)
        ensemble.run(max_flips=13)
        ensemble.run()
        for replica, seed in enumerate(ensemble.replica_seeds):
            reference = scalar_reference(config, seed)
            assert np.array_equal(
                reference.final_spins, ensemble.replica_spins(replica)
            )
            assert reference.final_time == float(ensemble.times[replica])


class TestDeferredCounters:
    """Non-recording runs defer energy counters; reads flush exact values."""

    def test_energies_after_plain_run_match_full_recompute(self):
        config = ModelConfig.square(side=16, horizon=2, tau=0.45)
        ensemble = EnsembleDynamics(config, n_replicas=3, seed=6)
        ensemble.run(max_flips=60)
        assert np.array_equal(ensemble.energies(), ensemble._energies_full())
        assert ensemble.magnetizations().shape == (3,)

    def test_direct_step_all_keeps_counters_live(self):
        config = ModelConfig.square(side=16, horizon=2, tau=0.45)
        ensemble = EnsembleDynamics(config, n_replicas=3, seed=6)
        for _ in range(25):
            ensemble.step_all()
        assert not ensemble._counters_stale
        assert np.array_equal(ensemble.energies(), ensemble._energies_full())


class TestDispatchRegimes:
    """The window lookups stay scalar-exact."""

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_row_col_lut_fallback_matches_scalar(self, scheduler):
        """The row/column window lookups (the one window path) at w = 2."""
        config = ModelConfig.square(
            side=14, horizon=2, tau=0.45, scheduler=scheduler
        )
        ensemble = EnsembleDynamics(config, n_replicas=2, seed=23)
        assert ensemble._row_lut.shape == (14, 5)
        assert ensemble._col_lut.shape == (14, 5)
        result = ensemble.run(max_flips=60)
        for replica, seed in enumerate(ensemble.replica_seeds):
            reference = scalar_reference(config, seed, max_flips=60)
            assert np.array_equal(
                reference.final_spins, result.final_spins[replica]
            )
            assert reference.final_time == result.final_time[replica]
