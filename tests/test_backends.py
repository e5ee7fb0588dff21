"""The flip-loop backend seam: registry, selection, bitwise identity, provenance.

Seven layers are pinned here:

* **Registry** — capability probing, the CLI > env > spec > auto selection
  precedence, the single-warning numpy fallback for an unavailable backend
  (a C backend whose kernel cache directory is not private), and the hard
  error for unknown names, removed backends included.
* **Kernel boundary** — the C backend binds only arrays with its C types'
  width and contiguity (struct pointers and ``repro_coded_ops`` alike),
  its self-check refuses a ``repro_state`` size the Python mirror does not
  share (a single-warning fallback), and a failed scratch allocation is a
  ``MemoryError``.
* **Bitwise identity** — the compiled ``cffi`` backend, when the host can
  build it, advances the ensemble engine *bit for bit* like the numpy
  backend (both are pinned to the scalar engine in
  ``tests/test_core_ensemble.py``): spins, clocks, step/flip counters, energies, the samplers'
  packed layouts and each replica's RNG stream (the state of its own
  ``Generator``, which both backends draw through), across the base,
  two-sided and asymmetric rules, and with replicas drawing through other
  numpy bit generators than PCG64.  The C exponential draw is also checked
  against a clone of the replica's ``Generator`` over scripted draws, and
  on steered words, so numpy's slow paths (layer-0 tail, wedge accept and
  the rejecting recursion) run on the replica's own bit generator; the C
  candidate draw is steered through each path of Lemire's bounded loop,
  the redraw included.
* **Runs** — ``run()`` returns identical results and leaves identical
  state under every backend: flip/step/time budgets, trajectory segments,
  both flip rules and schedulers, wider horizons, rectangular tori and
  windows as wide as the torus, R = 40, and a run continued after a
  budgeted one (also across a ``recompute_all``, which rewrites in place
  the arrays the C backend captured, and after draws made on a replica's
  Generator between the runs).  A compiled ``run()`` is one native call, or one
  per trajectory segment, and a compiled ``step_all()`` is one native call.
  Each ``run_rounds`` segment returns the numpy backend's lockstep round
  count, though the compiled loop runs one replica at a time.
* **Builds** — ``recompute_all`` leaves the same state under every backend
  (the compiled build is one ``repro_rebuild`` call per stack): same-type
  counts, codes, full position tables, packed sampler rows and counters,
  on random stacks at w = 1-4, non-square and fully wrapped tori, uniform
  stacks (empty sampler rows), checkerboards, the variant rules and
  stacks rebuilt partway through a budgeted run, whose rebuild recounts
  what the flip loop kept incrementally.  The engine is bound once: its
  backend is attached before the first build, the code table is tabulated
  from the hook only at construction, and the C backend captures its
  struct once per engine and hands that one struct to every
  ``repro_rebuild`` and ``repro_run_rounds`` call.
* **Rows** — :func:`run_experiment` produces identical rows (up to wall
  clock) under every backend, so recorded sweeps are backend-invariant.
* **Provenance** — checkpointed sweeps stamp the resolved backend into the
  manifest and each record, and ``reproduce_store`` turns a row mismatch
  whose record names a *different* backend into the ``backend-drift``
  diagnostic instead of a bare ``mismatch``.
"""

import ctypes
import dataclasses
import gc
import json
import math
import os
import tempfile
import warnings
import weakref

import numpy as np
import pytest

import oracles
from repro.core.backends import cffi_backend
from repro.core.backends.base import RunBudget
from repro.core.backends.registry import (
    AUTO_PREFERENCE,
    KNOWN_BACKENDS,
    available_backends,
    create_backend,
    default_backend_name,
    resolve_backend_name,
    select_backend_name,
)
from repro.core.backends import registry as registry_module
from repro.core.config import ModelConfig
from repro.core.ensemble import (
    EnsembleDynamics,
    EnsembleRunResult,
    EnsembleTrajectory,
)
from repro.core.variants import AsymmetricEnsemble, TwoSidedEnsemble
from repro.errors import ConfigurationError, StateError
from repro.experiments.runner import run_experiment, run_sweep
from repro.experiments.spec import ExperimentSpec, SweepSpec
from repro.types import FlipRule, SchedulerKind
from repro.utils.indexset import BatchedIndexSet

BACKENDS = available_backends()
SMALL = ModelConfig.square(side=16, horizon=1, tau=0.45)


def _rng_positions(engine):
    """Each replica's ``Generator`` state: where its next draw starts.

    Both backends draw through the replicas' own Generators, so this is the
    stream position under either.  Array-valued states (MT19937's key) are
    held as lists, so positions compare with ``==`` for any bit generator.
    """
    return [_plain(rng.bit_generator.state) for rng in engine._rngs]


def _plain(value):
    """``value`` with every array, nested in dicts too, as a list."""
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def _engine_state(engine):
    """Everything a backend could corrupt, as one comparable bundle (copies)."""
    layouts = [
        engine._sets.packed_members(row)
        for row in range(2 * engine.n_replicas)
    ]
    _, positions, _ = engine._sets.storage()
    return (
        engine.spins.copy(),
        engine.times,
        engine.n_steps,
        engine.n_flips,
        engine.energies(),
        engine._n_plus.copy(),
        engine._same_flat.copy(),
        engine._code_flat.copy(),
        # Every site's position in both sampler rows, -1 for non-members.
        positions.copy(),
        engine.unhappy_counts(),
        engine.flippable_counts(),
        # Where each replica's next draw starts: a draw made off the
        # replica's Generator fails here, not only on a later draw.
        _rng_positions(engine),
        layouts,
    )


def _assert_states_equal(reference, actual):
    *ref_arrays, ref_positions, ref_layouts = reference
    *act_arrays, act_positions, act_layouts = actual
    for ref, act in zip(ref_arrays, act_arrays):
        np.testing.assert_array_equal(ref, act)
    assert ref_positions == act_positions
    for ref, act in zip(ref_layouts, act_layouts):
        np.testing.assert_array_equal(ref, act)


def _run_rounds(engine, rounds=120):
    for _ in range(rounds):
        engine.step_all()


class TestRegistry:
    def test_numpy_always_available(self):
        assert BACKENDS[0] == "numpy"
        assert set(BACKENDS) <= set(KNOWN_BACKENDS)
        assert KNOWN_BACKENDS == ("auto", "numpy", "cffi")

    def test_default_backend_is_available(self):
        assert default_backend_name() in BACKENDS

    def test_auto_prefers_compiled_backends(self):
        # auto takes cffi whenever it loads, and numpy otherwise.
        assert AUTO_PREFERENCE == ("cffi", "numpy")
        expected = "cffi" if "cffi" in BACKENDS else "numpy"
        assert default_backend_name() == expected

    def test_selection_precedence(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert select_backend_name(None, None) == "auto"
        assert select_backend_name(None, "cffi") == "cffi"
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert select_backend_name(None, "cffi") == "numpy"
        assert select_backend_name("cffi", "numpy") == "cffi"
        # Empty strings count as unset at every level.
        monkeypatch.setenv("REPRO_BACKEND", "")
        assert select_backend_name("", "") == "auto"

    def test_resolve_auto_and_concrete(self):
        assert resolve_backend_name(None) == default_backend_name()
        assert resolve_backend_name("auto") == default_backend_name()
        assert resolve_backend_name("numpy") == "numpy"

    @pytest.mark.parametrize("name", ["fortran", "numba", "python"])
    def test_unknown_backend_is_a_hard_error(self, name):
        # numba and python were backends once; they are typos now, not
        # capabilities to fall back from.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="unknown backend"):
                resolve_backend_name(name)
            with pytest.raises(ConfigurationError, match="auto, numpy, cffi"):
                EnsembleDynamics(SMALL, n_replicas=2, seed=0, backend=name)

    def test_create_backend_returns_fresh_instances(self):
        first = create_backend("numpy")
        second = create_backend("numpy")
        assert first is not second
        assert first.name == "numpy"


class TestEngineSeam:
    def test_engine_reports_backend_name(self):
        engine = EnsembleDynamics(SMALL, n_replicas=2, seed=0)
        assert engine.backend_name == default_backend_name()
        explicit = EnsembleDynamics(
            SMALL, n_replicas=2, seed=0, backend="numpy"
        )
        assert explicit.backend_name == "numpy"

    @pytest.mark.parametrize("engine_kind", BACKENDS)
    def test_finished_engine_freed_without_gc(self, engine_kind):
        # The engine owns its backend and the backend holds it only weakly,
        # so the last reference going away frees the engine (and its arrays)
        # by refcounting alone, with the cycle collector switched off.
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            engine = EnsembleDynamics(
                SMALL, n_replicas=3, seed=1, backend=engine_kind
            )
            engine.run()
            backend = engine._backend
            engine_ref = weakref.ref(engine)
            del engine
            assert engine_ref() is None
            with pytest.raises(ReferenceError):
                backend.engine
        finally:
            if was_enabled:
                gc.enable()


class TestBoundOnce:
    """An engine binds its backend once, before its first build."""

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_backend_is_attached_before_the_first_build(
        self, backend_name, monkeypatch
    ):
        backend_class = type(create_backend(backend_name))
        rebuild = backend_class.rebuild
        seen = []

        def recording_rebuild(backend):
            seen.append(backend.engine)
            rebuild(backend)

        monkeypatch.setattr(backend_class, "rebuild", recording_rebuild)
        engine = EnsembleDynamics(SMALL, n_replicas=2, seed=3, backend=backend_name)
        assert len(seen) == 1 and seen[0] is engine

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_code_table_is_tabulated_only_at_construction(self, backend_name):
        class CountingEnsemble(EnsembleDynamics):
            def __init__(self, *args, **kwargs):
                self.classified = []
                super().__init__(*args, **kwargs)

            def _classify(self, spins, same):
                self.classified.append(np.shape(same))
                return super()._classify(spins, same)

        engine = CountingEnsemble(SMALL, n_replicas=3, seed=4, backend=backend_name)
        table = (SMALL.neighborhood_agents + 2,)
        grid = (3, *SMALL.shape)
        # The two 1-D tabulations (minus, plus), then the build's check.
        assert engine.classified == [table, table, grid]
        engine.run(max_flips=5)
        engine.recompute_all()
        engine.recompute_all()
        assert engine.classified == [table, table, grid, grid, grid]

    @pytest.mark.parametrize("backend_name", [b for b in BACKENDS if b != "numpy"])
    def test_struct_is_captured_once(self, backend_name, monkeypatch):
        capture = cffi_backend.CffiBackend._capture
        captured = []

        def counted_capture(backend):
            captured.append(backend)
            capture(backend)

        lib = cffi_backend._load_library()
        handed = []

        def spy(name):
            native = getattr(lib, name)

            def counted_native(state, *args):
                handed.append((name, state))
                return native(state, *args)

            return counted_native

        for name in ("repro_rebuild", "repro_run_rounds"):
            monkeypatch.setattr(lib, name, spy(name))
        monkeypatch.setattr(cffi_backend.CffiBackend, "_capture", counted_capture)
        engine = EnsembleDynamics(SMALL, n_replicas=3, seed=6, backend=backend_name)
        engine.recompute_all()
        engine.run(max_flips=5)
        engine.step_all()
        engine.run()
        backend = engine._backend
        assert captured == [backend]
        assert [name for name, _ in handed] == (
            ["repro_rebuild"] * 2 + ["repro_run_rounds"] * 3
        )
        assert all(state is backend._state for _, state in handed)


@pytest.mark.parametrize("backend_name", [b for b in BACKENDS if b != "numpy"])
class TestBitwiseIdentity:
    """Every backend must match the numpy backend bit for bit, round by round."""

    def _compare(self, backend_name, factory, rounds=120):
        reference = factory(backend="numpy")
        actual = factory(backend=backend_name)
        _run_rounds(reference, rounds)
        _run_rounds(actual, rounds)
        _assert_states_equal(_engine_state(reference), _engine_state(actual))

    def test_base_rule(self, backend_name):
        self._compare(
            backend_name,
            lambda backend: EnsembleDynamics(
                SMALL, n_replicas=3, seed=7, backend=backend
            ),
        )

    def test_two_sided_rule(self, backend_name):
        self._compare(
            backend_name,
            lambda backend: TwoSidedEnsemble(
                SMALL,
                tau_high=0.8,
                n_replicas=3,
                seed=11,
                backend=backend,
            ),
        )

    def test_asymmetric_rule(self, backend_name):
        self._compare(
            backend_name,
            lambda backend: AsymmetricEnsemble(
                SMALL,
                tau_minus=0.35,
                n_replicas=3,
                seed=13,
                backend=backend,
            ),
        )

    @pytest.mark.parametrize(
        "bit_generator",
        [np.random.MT19937, np.random.Philox, np.random.SFC64, np.random.PCG64DXSM],
        ids=lambda kind: kind.__name__,
    )
    def test_any_numpy_bit_generator(self, backend_name, bit_generator):
        # The kernel calls the bitgen_t's own next_uint64 and next_uint32,
        # so it assumes nothing of PCG64: MT19937 makes 32-bit words
        # natively, the others split 64-bit words through their own
        # half-word buffers.
        def factory(backend):
            engine = EnsembleDynamics(SMALL, n_replicas=3, seed=7, backend=backend)
            engine._rngs[:] = [
                np.random.Generator(bit_generator(seed)) for seed in engine.replica_seeds
            ]
            engine._backend.attach(engine)
            return engine

        self._compare(backend_name, factory)

    def test_experiment_rows_are_backend_invariant(self, backend_name):
        spec = ExperimentSpec(
            name="cell", config=SMALL, n_replicates=3, seed=21
        )
        reference = run_experiment(spec, ensemble_size=3, backend="numpy").rows
        actual = run_experiment(
            spec, ensemble_size=3, backend=backend_name
        ).rows
        assert len(reference) == len(actual)
        for ref_row, act_row in zip(reference, actual):
            for key, value in ref_row.items():
                if key == "wall_clock_seconds":
                    continue
                assert act_row[key] == value, f"{key} differs"


def _assert_results_equal(reference, actual):
    """Every ``EnsembleRunResult`` field equal, trajectory arrays included."""
    for field in dataclasses.fields(EnsembleRunResult):
        ref = getattr(reference, field.name)
        act = getattr(actual, field.name)
        if field.name != "trajectory":
            np.testing.assert_array_equal(ref, act, err_msg=field.name)
            continue
        assert (ref is None) == (act is None)
        if ref is not None:
            for name, _ in EnsembleTrajectory._FIELDS:
                np.testing.assert_array_equal(
                    getattr(ref, name), getattr(act, name), err_msg=name
                )


def _ensemble(config=SMALL, n_replicas=3, seed=17, **kwargs):
    return lambda backend: EnsembleDynamics(
        config, n_replicas=n_replicas, seed=seed, backend=backend, **kwargs
    )


#: At tau=0.6 some unhappy agents stay unhappy after a flip, so the
#: only-if-happy samplers and the discrete refusal gate both matter.
_ONLY_IF_HAPPY = {
    "config": ModelConfig.square(side=16, horizon=1, tau=0.6),
    "flip_rule": FlipRule.ONLY_IF_HAPPY,
}

#: The always-flip rule at the same tau: flips can leave agents unhappy, so
#: the unhappy set is both sampler and termination set and runs need budgets.
_ALWAYS = {
    "config": ModelConfig.square(side=16, horizon=1, tau=0.6),
    "flip_rule": FlipRule.ALWAYS,
}

#: ``id -> (engine factory, run() keyword arguments)``.
RUN_CASES = {
    "to_termination": (_ensemble(n_replicas=2, seed=5), {}),
    "max_flips": (_ensemble(), {"max_flips": 40}),
    "max_steps": (_ensemble(), {"max_steps": 55}),
    "max_time": (_ensemble(), {"max_time": 0.4}),
    "record_every_1": (
        _ensemble(),
        {"record_trajectory": True, "record_every": 1, "max_flips": 60},
    ),
    "record_every_7": (
        _ensemble(), {"record_trajectory": True, "record_every": 7}
    ),
    "discrete_only_if_happy": (
        _ensemble(scheduler=SchedulerKind.DISCRETE, **_ONLY_IF_HAPPY),
        {"max_steps": 300},
    ),
    "continuous_only_if_happy": (
        _ensemble(**_ONLY_IF_HAPPY), {"max_steps": 300}
    ),
    "two_sided": (
        lambda backend: TwoSidedEnsemble(
            SMALL, tau_high=0.8, n_replicas=3, seed=11, backend=backend,
        ),
        {"max_steps": 150},
    ),
    "asymmetric": (
        lambda backend: AsymmetricEnsemble(
            SMALL, tau_minus=0.35, n_replicas=3, seed=13, backend=backend,
        ),
        {"max_steps": 150},
    ),
    "r40": (_ensemble(n_replicas=40, seed=23), {}),
    "always_continuous": (
        _ensemble(**_ALWAYS), {"max_steps": 200}
    ),
    "always_discrete": (
        _ensemble(scheduler=SchedulerKind.DISCRETE, **_ALWAYS),
        {"max_steps": 200},
    ),
    "horizon_2": (
        _ensemble(ModelConfig.square(side=14, horizon=2, tau=0.45), seed=37),
        {},
    ),
    "horizon_3": (
        _ensemble(ModelConfig.square(side=15, horizon=3, tau=0.45), seed=41),
        {},
    ),
    # Non-square tori pin the kernel's row-major flat-index arithmetic.
    "rectangular": (
        _ensemble(ModelConfig(n_rows=12, n_cols=20, horizon=1, tau=0.45), seed=43),
        {},
    ),
    "rectangular_horizon_2": (
        _ensemble(ModelConfig(n_rows=21, n_cols=10, horizon=2, tau=0.45), seed=47),
        {},
    ),
    # Windows as wide as the torus: every flip touches a wrapped window
    # that covers whole rows (or the whole grid).
    "window_spans_torus": (
        _ensemble(ModelConfig.square(side=5, horizon=2, tau=0.45), seed=53),
        {},
    ),
    "window_spans_rows": (
        _ensemble(ModelConfig(n_rows=3, n_cols=11, horizon=1, tau=0.45), seed=59),
        {},
    ),
    "density_0_3": (
        _ensemble(
            ModelConfig.square(side=16, horizon=1, tau=0.45, density=0.3),
            seed=61,
        ),
        {},
    ),
    # tau=0 makes every agent happy: both samplers start empty.
    "everyone_happy": (
        _ensemble(ModelConfig.square(side=16, horizon=1, tau=0.0)), {}
    ),
    "max_flips_0": (_ensemble(), {"max_flips": 0}),
    "two_sided_discrete": (
        lambda backend: TwoSidedEnsemble(
            SMALL, tau_high=0.8, n_replicas=3, seed=11,
            scheduler=SchedulerKind.DISCRETE, backend=backend,
        ),
        {"max_steps": 150},
    ),
    "asymmetric_always": (
        lambda backend: AsymmetricEnsemble(
            SMALL, tau_minus=0.35, n_replicas=3, seed=13,
            flip_rule=FlipRule.ALWAYS, backend=backend,
        ),
        {"max_steps": 150},
    ),
    "r40_discrete_only_if_happy": (
        _ensemble(
            n_replicas=40, seed=29, scheduler=SchedulerKind.DISCRETE,
            **_ONLY_IF_HAPPY,
        ),
        {"max_steps": 300},
    ),
    "r40_always": (
        _ensemble(n_replicas=40, seed=31, **_ALWAYS), {"max_steps": 120}
    ),
}


def _assert_runs_match(factory, kwargs, backend_name):
    """``run(**kwargs)`` returns and leaves the same under numpy and the backend."""
    reference = factory("numpy")
    actual = factory(backend_name)
    _assert_results_equal(reference.run(**kwargs), actual.run(**kwargs))
    _assert_states_equal(_engine_state(reference), _engine_state(actual))
    return reference, actual


@pytest.mark.parametrize("backend_name", [b for b in BACKENDS if b != "numpy"])
class TestRunIdentity:
    """``run()`` — budgets, trajectories, resumption — matches numpy exactly.

    Whole runs drive each backend's round loop through its budgets,
    trajectory segments and active-set build, not only single rounds.
    """

    @pytest.mark.parametrize("case", sorted(RUN_CASES))
    def test_run_matches_numpy(self, backend_name, case):
        factory, kwargs = RUN_CASES[case]
        _assert_runs_match(factory, kwargs, backend_name)

    @pytest.mark.parametrize("case", sorted(RUN_CASES))
    def test_run_is_one_native_call(self, backend_name, case, monkeypatch):
        """No Python between rounds: one C call per run, or per segment."""
        factory, kwargs = RUN_CASES[case]
        engine = factory(backend_name)
        backend = engine._backend
        native_fn = backend._run_fn
        run_rounds = backend.run_rounds
        calls = {"native": 0, "segments": 0}

        def counted_native(*args):
            calls["native"] += 1
            return native_fn(*args)

        def counted_segment(*args):
            calls["segments"] += 1
            return run_rounds(*args)

        monkeypatch.setattr(backend, "_run_fn", counted_native)
        monkeypatch.setattr(backend, "run_rounds", counted_segment)
        engine.run(**kwargs)
        if kwargs.get("record_trajectory"):
            assert calls["segments"] > 1
            assert calls["native"] == calls["segments"]
        else:
            assert calls == {"native": 1, "segments": 1}

    def test_runs_leave_equal_generator_states(self, backend_name):
        """Both backends advance each replica's own Generator, draw for draw."""
        reference = _ensemble()("numpy")
        actual = _ensemble()(backend_name)
        starts = [rng.bit_generator.state for rng in actual._rngs]
        reference.run()
        actual.run()
        for ref_rng, act_rng, start in zip(reference._rngs, actual._rngs, starts):
            assert act_rng.bit_generator.state == ref_rng.bit_generator.state
            assert act_rng.bit_generator.state != start

    @pytest.mark.parametrize("between", ["full_word", "half_word", "advance", "reseed"])
    def test_draws_between_runs_move_the_stream(self, backend_name, between):
        """A draw made on a replica's Generator between runs is where the next run starts.

        The kernel keeps no copy of a stream: it reads each Generator's
        state at the call, so outside draws, ``advance`` and a state
        assignment are all seen as the numpy backend sees them.
        """

        def disturb(rng):
            if between == "full_word":
                rng.random()
            elif between == "half_word":
                rng.integers(0, 2**16)  # a 32-bit draw: moves the half-word buffer
            elif between == "advance":
                rng.bit_generator.advance(5)
            else:
                rng.bit_generator.state = np.random.default_rng(99).bit_generator.state

        undisturbed = _ensemble()("numpy")
        reference = _ensemble()("numpy")
        actual = _ensemble()(backend_name)
        for engine in (undisturbed, reference, actual):
            engine.run(max_flips=13)
        for engine in (reference, actual):
            disturb(engine._rngs[1])
        for engine in (undisturbed, reference, actual):
            engine.run()
        _assert_states_equal(_engine_state(reference), _engine_state(actual))
        # Replica 1 was still running, so the draw changed how it went on.
        assert reference.times[1] != undisturbed.times[1]
        assert reference.times[0] == undisturbed.times[0]

    @pytest.mark.parametrize("segment", [1, 3, 7, None])
    def test_run_rounds_returns_the_lockstep_round_count(self, backend_name, segment):
        """Every segment returns the numpy backend's round count, state equal.

        The compiled loop runs one replica at a time and returns the most
        rounds any replica was active.  Under the discrete only-if-happy
        rule refused flips still take steps, so a flip budget, then
        termination, stops the replicas at different steps: the count is a
        maximum over unequal ones, and each phase's rounds sum to its
        largest step count.
        """
        factory = _ensemble(scheduler=SchedulerKind.DISCRETE, **_ONLY_IF_HAPPY)
        engines = [factory(name) for name in ("numpy", backend_name)]
        for max_flips in (13, None):
            starts = [engine.n_steps for engine in engines]
            budgets = [
                RunBudget(engine.n_flips, engine.n_steps, max_flips=max_flips)
                for engine in engines
            ]
            total = 0
            while True:
                rounds = [
                    engine._backend.run_rounds(budget, segment)
                    for engine, budget in zip(engines, budgets)
                ]
                assert rounds[0] == rounds[1]
                _assert_states_equal(*(_engine_state(engine) for engine in engines))
                total += rounds[0]
                if rounds[0] != segment:
                    break
            taken = engines[1].n_steps - starts[1]
            assert len(set(taken.tolist())) > 1
            assert total == taken.max()
        assert engines[1].all_terminated

    def test_step_all_is_one_native_call(self, backend_name, monkeypatch):
        """A compiled step_all is one round of the native loop, nothing else."""
        engine = _ensemble()(backend_name)
        backend = engine._backend
        native_fn = backend._run_fn
        max_rounds = []

        def counted_native(state, limit):
            max_rounds.append(limit)
            return native_fn(state, limit)

        monkeypatch.setattr(backend, "_run_fn", counted_native)
        before = engine.n_flips
        flipped = engine.step_all()
        assert max_rounds == [1]
        assert flipped.tolist() == np.flatnonzero(engine.n_flips - before).tolist()
        assert engine.n_steps.tolist() == [1, 1, 1]

    @pytest.mark.parametrize("recompute", [False, True], ids=["plain", "recompute_all"])
    def test_budgeted_run_then_continuation(self, backend_name, recompute):
        reference = _ensemble()("numpy")
        actual = _ensemble()(backend_name)
        budgets = ({"max_flips": 13}, {"record_trajectory": True, "record_every": 5})
        for index, kwargs in enumerate(budgets):
            if recompute and index:
                # A public rebuild writes the arrays the C backend captured
                # in place, so it goes on from the same struct.
                reference.recompute_all()
                actual.recompute_all()
            _assert_results_equal(reference.run(**kwargs), actual.run(**kwargs))
            _assert_states_equal(_engine_state(reference), _engine_state(actual))
        assert actual.all_terminated


def _planted(spins_of, config, n_replicas=3, seed=71):
    """An engine factory whose replicas start from ``spins_of(config)``."""
    stack = np.stack([spins_of(config)] * n_replicas)
    return _ensemble(config, n_replicas=n_replicas, seed=seed, initial_spins=stack)


def _checkerboard(config):
    rows, cols = np.indices(config.shape)
    return np.where((rows + cols) % 2 == 0, 1, -1).astype(np.int8)


#: ``id -> engine factory``: stacks whose build exercises every path of the
#: rebuild, empty and full sampler rows included.
REBUILD_CASES = {
    **{
        f"random_w{w}": _ensemble(
            ModelConfig.square(side=9 + 4 * w, horizon=w, tau=0.45),
            n_replicas=4,
            seed=100 + w,
        )
        for w in (1, 2, 3, 4)
    },
    "rectangular": _ensemble(
        ModelConfig(n_rows=13, n_cols=22, horizon=2, tau=0.4), seed=43
    ),
    # The table's padding wraps the whole torus, and then whole rows.
    "window_spans_torus": _ensemble(
        ModelConfig.square(side=5, horizon=2, tau=0.45), seed=53
    ),
    "window_spans_rows": _ensemble(
        ModelConfig(n_rows=3, n_cols=11, horizon=1, tau=0.45), seed=59
    ),
    # Everyone is happy on a uniform grid, so both sampler rows are empty.
    "all_plus": _planted(lambda c: np.ones(c.shape, dtype=np.int8), SMALL),
    "all_minus": _planted(lambda c: -np.ones(c.shape, dtype=np.int8), SMALL),
    # At w = 1 a checkerboard agent has 5 of 9 like itself (happy at
    # tau = 0.45, unhappy at tau = 0.6); odd sides wrap unlike neighbours.
    "checkerboard": _planted(_checkerboard, SMALL),
    "checkerboard_unhappy": _planted(
        _checkerboard, ModelConfig.square(side=16, horizon=1, tau=0.6)
    ),
    "checkerboard_odd_side": _planted(
        _checkerboard, ModelConfig.square(side=15, horizon=2, tau=0.45)
    ),
    "two_sided": lambda backend: TwoSidedEnsemble(
        SMALL, tau_high=0.8, n_replicas=3, seed=11, backend=backend
    ),
    "asymmetric": lambda backend: AsymmetricEnsemble(
        SMALL, tau_minus=0.35, n_replicas=3, seed=13, backend=backend
    ),
}


@pytest.mark.parametrize("backend_name", [b for b in BACKENDS if b != "numpy"])
class TestRebuildIdentity:
    """The compiled engine build leaves the numpy build's state, bit for bit.

    ``recompute_all`` runs each backend's ``rebuild``: every site's
    same-type count and code, the full position tables, the packed sampler
    rows and the energy and plus-site counters must match, at construction
    and when an engine is rebuilt partway through a run.
    """

    @pytest.mark.parametrize("case", sorted(REBUILD_CASES))
    def test_build_matches_numpy(self, backend_name, case):
        factory = REBUILD_CASES[case]
        reference, actual = factory("numpy"), factory(backend_name)
        _assert_states_equal(_engine_state(reference), _engine_state(actual))
        reference.recompute_all()
        actual.recompute_all()
        _assert_states_equal(_engine_state(reference), _engine_state(actual))

    @pytest.mark.parametrize("case", ["all_plus", "all_minus"])
    def test_uniform_stacks_have_empty_samplers(self, backend_name, case):
        engine = REBUILD_CASES[case](backend_name)
        assert engine._sets.counts.tolist() == [0] * 6
        assert (engine._sets.storage()[1] == -1).all()
        assert engine.all_terminated

    @pytest.mark.parametrize("case", ["max_flips", "two_sided", "asymmetric"])
    def test_rebuild_partway_through_a_budgeted_run(self, backend_name, case):
        def counted(engine):
            # What the flip loop keeps incrementally; the sampler layouts
            # differ, since the build packs members in index order.
            return (
                engine._same_flat.copy(),
                engine._code_flat.copy(),
                engine.energies(),
                engine._n_plus.copy(),
                engine._sets.counts.copy(),
            )

        factory, kwargs = RUN_CASES[case]
        reference, actual = _assert_runs_match(factory, kwargs, backend_name)
        incremental = counted(actual)
        reference.recompute_all()
        actual.recompute_all()
        _assert_states_equal(_engine_state(reference), _engine_state(actual))
        for kept, rebuilt in zip(incremental, counted(actual)):
            np.testing.assert_array_equal(kept, rebuilt)
        # Both go on from the rebuilt samplers alike.
        _assert_results_equal(reference.run(**kwargs), actual.run(**kwargs))
        _assert_states_equal(_engine_state(reference), _engine_state(actual))

    def test_rebuild_is_one_native_call(self, backend_name, monkeypatch):
        lib = cffi_backend._load_library()
        native_fn = lib.repro_rebuild
        stacks = []

        def counted_native(state):
            stacks.append(state.n_replicas)
            return native_fn(state)

        monkeypatch.setattr(lib, "repro_rebuild", counted_native)
        engine = _ensemble(n_replicas=5)(backend_name)
        assert stacks == [5]
        engine.recompute_all()
        assert stacks == [5, 5]


class TestCompiledKernelCache:
    """The C backend loads its library only from a private cache directory."""

    @pytest.fixture
    def fresh_cache(self, monkeypatch, tmp_path):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(cffi_backend, "_CACHE", {})
        monkeypatch.setattr(cffi_backend, "_UNAVAILABLE_REASON", None)
        monkeypatch.setattr(registry_module, "_warned_fallbacks", set())
        return tmp_path / f"repro-cffi-{os.getuid()}"

    def _assert_refused(self, cache_dir):
        assert not cffi_backend.cffi_available()
        assert str(cache_dir) in cffi_backend.cffi_unavailable_reason()
        assert "cffi" not in available_backends()
        with pytest.warns(RuntimeWarning, match="falling back to 'numpy'"):
            assert resolve_backend_name("cffi") == "numpy"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_backend_name("cffi") == "numpy"

    def test_world_writable_cache_dir_is_refused(self, fresh_cache):
        fresh_cache.mkdir()
        fresh_cache.chmod(0o777)
        self._assert_refused(fresh_cache)

    def test_symlinked_cache_dir_is_refused(self, fresh_cache, tmp_path):
        target = tmp_path / "elsewhere"
        target.mkdir(mode=0o700)
        fresh_cache.symlink_to(target)
        self._assert_refused(fresh_cache)

    @pytest.mark.parametrize("content", [None, b"not an archive"], ids=["missing", "unlinkable"])
    def test_bad_sampler_archive_is_named(
        self, fresh_cache, tmp_path, monkeypatch, content
    ):
        # The kernel links numpy's libnpyrandom.a; without a usable archive
        # the backend is unavailable, and the reason names the file.
        archive = tmp_path / "libnpyrandom.a"
        if content is not None:
            archive.write_bytes(content)
        monkeypatch.setattr(cffi_backend, "_NPYRANDOM_ARCHIVE", str(archive))
        self._assert_refused(archive)

    def test_cache_key_covers_numpy(self, fresh_cache, monkeypatch):
        path = cffi_backend._library_path()
        monkeypatch.setattr(np, "__version__", np.__version__ + "+other")
        assert cffi_backend._library_path() != path

    def test_cache_key_covers_compile_flags(self, fresh_cache, monkeypatch):
        path = cffi_backend._library_path()
        flags = tuple(f for f in cffi_backend._COMPILE_FLAGS if not f.startswith("-O"))
        monkeypatch.setattr(cffi_backend, "_COMPILE_FLAGS", ("-O1", *flags))
        assert cffi_backend._library_path() != path


@pytest.mark.parametrize("backend_name", [b for b in BACKENDS if b != "numpy"])
class TestCompiledBoundary:
    """What the C kernel is handed is checked before it is used.

    The struct's pointer fields and ``repro_coded_ops``'s arrays must have
    the element width and contiguity of the C type they are read as, the
    library must agree with the Python mirror on the struct's size, and a
    failed scratch allocation surfaces as a ``MemoryError``.
    """

    @pytest.mark.parametrize(
        "attribute, replacement, message",
        [
            ("_n_steps", lambda a: a.astype(np.int32), "int64_t here, got a int32"),
            ("_times", lambda a: np.repeat(a, 2)[::2], "double here, got a non-cont"),
        ],
        ids=["narrowed", "non_contiguous"],
    )
    def test_capture_refuses_mismatched_array(
        self, backend_name, attribute, replacement, message
    ):
        engine = EnsembleDynamics(SMALL, n_replicas=3, seed=2, backend=backend_name)
        setattr(engine, attribute, replacement(getattr(engine, attribute)))
        with pytest.raises(StateError, match=message):
            engine._backend.attach(engine)

    def test_coded_ops_refuses_int64_members(self, backend_name):
        sets = BatchedIndexSet(2, 4)
        sets._members = sets._members.astype(np.int64)
        with pytest.raises(StateError, match="int32_t here, got a int64"):
            create_backend(backend_name).apply_coded_ops(sets, [0], [1], [1], [1], 1)
        assert sets.counts.tolist() == [0, 0]

    def test_selfcheck_compares_struct_size(self, backend_name):
        lib = cffi_backend._load_library()
        size = ctypes.sizeof(cffi_backend._ReproState)
        assert lib.repro_selfcheck(size) == 0
        assert lib.repro_selfcheck(size + 8) != 0
        assert lib.repro_selfcheck(size - 8) != 0

    def test_struct_size_mismatch_falls_back_once(self, backend_name, monkeypatch):
        class Wider(cffi_backend._ReproState):
            _fields_ = [("extra", ctypes.c_int64)]

        monkeypatch.setattr(cffi_backend, "_ReproState", Wider)
        monkeypatch.setattr(cffi_backend, "_CACHE", {})
        monkeypatch.setattr(cffi_backend, "_UNAVAILABLE_REASON", None)
        monkeypatch.setattr(registry_module, "_warned_fallbacks", set())
        assert not cffi_backend.cffi_available()
        assert "repro_state size" in cffi_backend.cffi_unavailable_reason()
        assert default_backend_name() == "numpy"
        with pytest.warns(RuntimeWarning, match="falling back to 'numpy'"):
            assert resolve_backend_name("cffi") == "numpy"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_backend_name("cffi") == "numpy"

    @pytest.mark.parametrize(
        "shape, limit, pad, n_cutoffs, message",
        [
            ((2, 8, 8), 3, 2, 4, "padded by 2"),
            ((8, 8), 1, 1, 2, "shape \\(8, 8\\)"),
            ((2, 8, 8), 2, 2, 2, "3 level cutoffs"),
        ],
        ids=["limit_beyond_pad", "not_a_stack", "short_cutoffs"],
    )
    def test_measure_counts_refuses_mismatched_arguments(
        self, backend_name, shape, limit, pad, n_cutoffs, message
    ):
        stack = np.ones(shape, dtype=np.int8)
        cutoffs = np.zeros(n_cutoffs, dtype=np.int64)
        with pytest.raises(StateError, match=message):
            cffi_backend.measure_counts(stack, 1, 5, limit, pad, cutoffs)

    def test_failed_measurement_scratch_is_memory_error(self, backend_name):
        # A 2**52-site grid, viewed over one byte: repro_measure's scratch
        # allocation fails before it reads a single site.
        huge = np.lib.stride_tricks.as_strided(
            np.ones(1, dtype=np.int8),
            shape=(1, 1 << 36, 1 << 16),
            strides=(1 << 52, 1 << 16, 1),
        )
        assert huge.flags.c_contiguous
        with pytest.raises(MemoryError, match="measurement scratch"):
            cffi_backend.measure_counts(huge, 1, 5, 1, 1, np.zeros(2, dtype=np.int64))

    def test_failed_rebuild_allocation_is_memory_error(self, backend_name):
        engine = EnsembleDynamics(SMALL, n_replicas=3, seed=2, backend=backend_name)
        before = _engine_state(engine)
        backend = engine._backend
        # A 2**56-site torus: repro_rebuild's table asks malloc for more than
        # any address space, before it reads a single site.
        backend._state.n_sites = 1 << 56
        backend._state.n_cols = 1 << 16
        with pytest.raises(MemoryError, match="rebuild scratch"):
            backend.rebuild()
        backend._capture()
        _assert_states_equal(before, _engine_state(engine))

    def test_failed_scratch_allocation_is_memory_error(self, backend_name):
        engine = EnsembleDynamics(SMALL, n_replicas=3, seed=2, backend=backend_name)
        before = _engine_state(engine)
        backend = engine._backend
        # A 2**55-site window asks malloc for more than any address space.
        backend._state.window_area = 1 << 55
        with pytest.raises(MemoryError, match="round scratch"):
            backend.run_rounds(RunBudget(engine.n_flips, engine.n_steps), 1)
        backend._capture()
        _assert_states_equal(before, _engine_state(engine))


@pytest.mark.parametrize("backend_name", [b for b in BACKENDS if b != "numpy"])
class TestCompiledSampler:
    """The C exponential draw is numpy's sampler on the replica's Generator.

    Scripted draws hold it to ``standard_exponential`` on a clone of each
    replica's dynamics ``Generator``, value and state.  Random draws rarely
    reach layer 0's tail or the wedge's rejecting recursion, so the steered
    cases put the replica's own Generator one word before a word that takes
    each path.
    """

    CASES = ("fast", "tail", "wedge_accept", "wedge_reject")

    @staticmethod
    def _draw(engine, replica):
        backend = engine._backend
        return backend._lib.repro_standard_exponential(backend._state, replica)

    @staticmethod
    def _clone(rng):
        clone = np.random.Generator(np.random.PCG64())
        clone.bit_generator.state = rng.bit_generator.state
        return clone

    def test_scripted_draws_match_numpy(self, backend_name):
        engine = EnsembleDynamics(SMALL, n_replicas=3, seed=5, backend=backend_name)
        rngs = engine._rngs
        clones = [self._clone(rng) for rng in rngs]
        script = np.random.default_rng(5)
        for replica in script.integers(0, 3, size=300).tolist():
            assert self._draw(engine, replica) == clones[replica].standard_exponential()
            assert rngs[replica].bit_generator.state == clones[replica].bit_generator.state

    @staticmethod
    def _classify(word, consumed):
        layer = (word >> 3) & 0xFF
        if consumed == 1:
            return "fast"
        if layer == 0:
            return "tail"
        return "wedge_accept" if consumed == 2 else "wedge_reject"

    def _steered_word(self, probe, case):
        """A word whose draw on ``probe``'s stream takes the ``case`` path.

        The smallest and largest significands of a layer sit on either side
        of its fast-path bound, and the three low bits (which the sampler
        ignores) move the uniform its slow path draws next; layers 0 and 1
        already reach all four paths.
        """
        for layer in range(256):
            for significand in (0, (1 << 53) - 1):
                for low in range(8):
                    word = (significand << 11) | (layer << 3) | low
                    _, consumed = oracles.probe_draw(probe, word)
                    if self._classify(word, consumed) == case:
                        return word
        raise AssertionError(f"no steerable word takes the {case} path")

    @pytest.mark.parametrize("case", CASES)
    def test_matches_numpy_on_steered_words(self, backend_name, case):
        engine = EnsembleDynamics(SMALL, n_replicas=2, seed=5, backend=backend_name)
        replica = 1
        rng = engine._rngs[replica]
        word = self._steered_word(self._clone(rng), case)
        oracles.probe_generator_for_word(rng, word)
        clone = self._clone(rng)
        untouched = engine._rngs[0].bit_generator.state
        assert self._draw(engine, replica) == clone.standard_exponential()
        assert rng.bit_generator.state == clone.bit_generator.state
        assert engine._rngs[0].bit_generator.state == untouched


@pytest.mark.parametrize("backend_name", [b for b in BACKENDS if b != "numpy"])
class TestCompiledCandidateDraw:
    """The C candidate draw is numpy's ``integers(0, size)`` on the replica's Generator.

    Lemire's method scales one 32-bit word by the sampler size, checks the
    low half of the product against ``size`` and redraws while it is below
    ``2**32 % size``: random runs almost never reach the redraw.  Each case
    loads every replica's Generator with a buffered half word that takes one
    path (its next 32-bit draw, as exponential draws take whole words), steps
    one round on both backends and compares everything, Generator states
    included.  Sampler sizes on a 15 x 15 torus are no powers of two, so
    every size can reject.
    """

    CONFIG = ModelConfig.square(side=15, horizon=1, tau=0.45)

    @staticmethod
    def _sampler_sizes(engine):
        offset = (
            engine.n_replicas
            if engine.flip_rule is FlipRule.ONLY_IF_HAPPY
            and engine.scheduler is SchedulerKind.CONTINUOUS
            else 0
        )
        counts = engine._sets.storage()[2]
        return [int(counts[replica + offset]) for replica in range(engine.n_replicas)]

    @staticmethod
    def _half_word(size, path):
        """A 32-bit word whose product with ``size`` takes ``path``."""
        threshold = (1 << 32) % size
        assert threshold > 0, f"size {size} never rejects"
        if path == "accept":
            return 1  # low half == size: accepted without the check
        # The product's low half hits threshold exactly (accepted: the
        # redraw test is strict) or threshold - gcd (redrawn); the low
        # halves reachable are the multiples of gcd(2**32, size).
        target = threshold if path == "check_then_accept" else threshold - math.gcd(1 << 32, size)
        for k in range(size):
            word = -(-(k << 32) // size)
            if (word * size) & 0xFFFFFFFF == target:
                return word
        raise AssertionError(f"no word takes the {path} path for size {size}")

    @pytest.mark.parametrize("scheduler", list(SchedulerKind), ids=lambda kind: kind.value)
    @pytest.mark.parametrize("path", ["accept", "check_then_accept", "reject"])
    def test_matches_numpy_on_steered_half_words(self, backend_name, path, scheduler):
        engines = [
            EnsembleDynamics(
                self.CONFIG, n_replicas=2, seed=3, scheduler=scheduler, backend=name
            )
            for name in ("numpy", backend_name)
        ]
        sizes = self._sampler_sizes(engines[0])
        for engine in engines:
            for rng, size in zip(engine._rngs, sizes):
                state = rng.bit_generator.state
                state.update(has_uint32=1, uinteger=self._half_word(size, path))
                rng.bit_generator.state = state
            engine.step_all()
        reference, actual = engines
        _assert_states_equal(_engine_state(reference), _engine_state(actual))
        assert actual.n_steps.tolist() == [1, 1]
        # A redraw takes a fresh 64-bit word and buffers its upper half.
        buffered = [rng.bit_generator.state["has_uint32"] for rng in actual._rngs]
        assert buffered == [int(path == "reject")] * 2


class TestSweepProvenance:
    def _sweep(self):
        return SweepSpec(
            name="prov",
            base_config=SMALL,
            taus=(0.4, 0.5),
            n_replicates=2,
            seed=3,
        )

    def test_manifest_and_records_carry_backend(self, tmp_path):
        run_sweep(
            self._sweep(),
            ensemble_size=2,
            checkpoint_dir=str(tmp_path),
            backend="numpy",
        )
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["backend"] == "numpy"
        records = [
            json.loads(line)
            for line in (tmp_path / "metrics.jsonl").read_text().splitlines()
        ]
        assert records and all(r["backend"] == "numpy" for r in records)

    def test_scalar_sweep_records_scalar(self, tmp_path):
        run_sweep(self._sweep(), ensemble_size=1, checkpoint_dir=str(tmp_path))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["backend"] == "scalar"

    def test_default_sweep_records_resolved_backend(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        run_sweep(self._sweep(), checkpoint_dir=str(tmp_path))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["backend"] == default_backend_name()
        records = [
            json.loads(line)
            for line in (tmp_path / "metrics.jsonl").read_text().splitlines()
        ]
        assert len(records) == 2
        assert all(r["backend"] == default_backend_name() for r in records)

    def test_spec_hash_ignores_backend(self):
        from repro.experiments.spec import spec_hash

        plain = ExperimentSpec(name="cell", config=SMALL, seed=1)
        pinned = ExperimentSpec(
            name="cell", config=SMALL, seed=1, backend="cffi"
        )
        assert spec_hash(plain) == spec_hash(pinned)

    def test_resume_across_backends(self, tmp_path):
        """A store written by one backend resumes under another unchanged."""
        first = run_sweep(
            self._sweep(),
            ensemble_size=2,
            checkpoint_dir=str(tmp_path),
            backend="numpy",
        )
        second = run_sweep(
            self._sweep(),
            ensemble_size=2,
            checkpoint_dir=str(tmp_path),
            backend=default_backend_name(),
        )
        assert second.rows == first.rows


class TestReproduceBackendDrift:
    def _store(self, tmp_path, backend):
        run_sweep(
            SweepSpec(
                name="drift",
                base_config=SMALL,
                taus=(0.45,),
                n_replicates=2,
                seed=9,
            ),
            ensemble_size=2,
            checkpoint_dir=str(tmp_path),
            backend=backend,
        )

    def _tamper_rows(self, tmp_path, backend=None):
        """Corrupt one recorded metric, re-encoding the CRC so it loads.

        ``backend`` also rewrites the record's backend provenance, as if a
        different backend had recorded the corrupted row.
        """
        from repro.experiments.checkpoint import encode_record_line

        metrics = tmp_path / "metrics.jsonl"
        lines = metrics.read_text().splitlines()
        record = json.loads(lines[0])
        record.pop("crc32")
        record["rows"][0]["n_flips"] = int(record["rows"][0]["n_flips"]) + 1
        if backend is not None:
            record["backend"] = backend
        lines[0] = encode_record_line(record).decode("utf-8").rstrip("\n")
        metrics.write_text("\n".join(lines) + "\n")

    def test_matching_rows_match_under_any_backend(self, tmp_path):
        from repro.serving.store import reproduce_store

        self._store(tmp_path, backend="numpy")
        report = reproduce_store(
            tmp_path, ensemble_size=2, backend=default_backend_name()
        )
        assert report.ok
        assert report.counts() == {"match": 1}

    def test_mismatch_with_different_backend_is_named_drift(self, tmp_path):
        from repro.serving.store import reproduce_store

        self._store(tmp_path, backend="numpy")
        self._tamper_rows(tmp_path, backend="cffi")
        report = reproduce_store(tmp_path, ensemble_size=2, backend="numpy")
        assert not report.ok
        assert report.counts() == {"backend-drift": 1}
        result = report.results[0]
        assert result.damaged
        assert "'cffi'" in result.detail and "'numpy'" in result.detail

    def test_mismatch_with_same_backend_stays_plain_mismatch(self, tmp_path):
        from repro.serving.store import reproduce_store

        self._store(tmp_path, backend="numpy")
        self._tamper_rows(tmp_path)
        report = reproduce_store(tmp_path, ensemble_size=2, backend="numpy")
        assert not report.ok
        assert report.counts() == {"mismatch": 1}
