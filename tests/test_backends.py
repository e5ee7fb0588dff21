"""The flip-loop backend seam: registry, selection, bitwise identity, provenance.

Six layers are pinned here:

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
  packed layouts and each replica's RNG stream (its logical PCG64 state
  and half-word buffer: the numpy backend's ``Generator`` against the C
  reader's block position), across the base, two-sided and asymmetric
  rules, with a tiny RNG block size so the C block refills fire
  constantly.  The C exponential draw is also checked against the
  replica's own ``Generator`` over scripted draws at every block size, and
  fed steered words, so numpy's slow paths (layer-0 tail, wedge accept and
  the rejecting recursion) run across block ends.
* **Runs** — ``run()`` returns identical results and leaves identical
  state under every backend: flip/step/time budgets, trajectory segments,
  both flip rules and schedulers, wider horizons, rectangular tori and
  windows as wide as the torus, R = 40, and a run continued after a
  budgeted one (also across a ``recompute_all``, which makes the C backend
  re-capture its pointers).  A compiled ``run()`` is one native call, or one
  per trajectory segment, and a compiled ``step_all()`` is one native call.
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
import os
import tempfile
import warnings
import weakref

import numpy as np
import pytest

import oracles
from repro import rng as rng_module
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


def _logical_state(streams, replica):
    """The PCG64 state after the words a compiled stream has consumed.

    Before the first refill the block is empty and the stream still sits at
    the constructor's state.
    """
    state = rng_module._pcg64_value(streams._state[replica])
    base = rng_module._pcg64_value(streams._base[replica])
    if state == base:
        return state
    inc = rng_module._pcg64_value(streams._inc[replica])
    return oracles.pcg64_state_after(base, inc, int(streams._pos[replica]))


def _rng_positions(engine):
    """Each replica's logical PCG64 state and half-word buffer.

    A numpy engine draws through its replicas' Generators, a compiled one
    through the C reader's blocks; either way this is where the replica's
    next draw starts.
    """
    if engine.backend_name == "numpy":
        states = [rng.bit_generator.state for rng in engine._rngs]
        return [
            (s["state"]["state"], s["state"]["inc"], s["has_uint32"], s["uinteger"])
            for s in states
        ]
    streams = engine._backend._streams
    return [
        (
            _logical_state(streams, replica),
            rng_module._pcg64_value(streams._inc[replica]),
            int(streams._has32[replica]),
            int(streams._buf32[replica]),
        )
        for replica in range(engine.n_replicas)
    ]


def _engine_state(engine):
    """Everything a backend could corrupt, as one comparable bundle."""
    layouts = [
        engine._sets.packed_members(row)
        for row in range(2 * engine.n_replicas)
    ]
    return (
        engine.spins,
        engine.times,
        engine.n_steps,
        engine.n_flips,
        engine.energies(),
        engine.unhappy_counts(),
        engine.flippable_counts(),
        # Where each replica's next draw starts: a refill that leaves the
        # block base or the PCG64 state stale fails here, not only on a
        # later draw.
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


@pytest.mark.parametrize("backend_name", [b for b in BACKENDS if b != "numpy"])
class TestBitwiseIdentity:
    """Every backend must match the numpy backend bit for bit, round by round."""

    def _compare(self, backend_name, factory, rounds=120):
        reference = factory(backend="numpy")
        actual = factory(backend=backend_name)
        _run_rounds(reference, rounds)
        _run_rounds(actual, rounds)
        _assert_states_equal(_engine_state(reference), _engine_state(actual))

    @pytest.mark.parametrize("block_words", [1, 7, 4096])
    def test_base_rule(self, backend_name, block_words):
        # block_words=1 makes every word a refill, so the C reader's
        # position must keep up with the numpy backend's Generators across
        # one refill per word.
        self._compare(
            backend_name,
            lambda backend: EnsembleDynamics(
                SMALL,
                n_replicas=3,
                seed=7,
                rng_block_words=block_words,
                backend=backend,
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
                rng_block_words=7,
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
                rng_block_words=7,
                backend=backend,
            ),
        )

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
    "block_words_1": (_ensemble(rng_block_words=1), {}),
    "block_words_7": (_ensemble(rng_block_words=7), {"max_steps": 90}),
    "discrete_only_if_happy": (
        _ensemble(scheduler=SchedulerKind.DISCRETE, **_ONLY_IF_HAPPY),
        {"max_steps": 300},
    ),
    "continuous_only_if_happy": (
        _ensemble(rng_block_words=7, **_ONLY_IF_HAPPY), {"max_steps": 300}
    ),
    "two_sided": (
        lambda backend: TwoSidedEnsemble(
            SMALL, tau_high=0.8, n_replicas=3, seed=11,
            rng_block_words=7, backend=backend,
        ),
        {"max_steps": 150},
    ),
    "asymmetric": (
        lambda backend: AsymmetricEnsemble(
            SMALL, tau_minus=0.35, n_replicas=3, seed=13,
            rng_block_words=7, backend=backend,
        ),
        {"max_steps": 150},
    ),
    "r40": (_ensemble(n_replicas=40, seed=23), {}),
    "always_continuous": (
        _ensemble(rng_block_words=7, **_ALWAYS), {"max_steps": 200}
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
            scheduler=SchedulerKind.DISCRETE, rng_block_words=7,
            backend=backend,
        ),
        {"max_steps": 150},
    ),
    "asymmetric_always": (
        lambda backend: AsymmetricEnsemble(
            SMALL, tau_minus=0.35, n_replicas=3, seed=13,
            flip_rule=FlipRule.ALWAYS, rng_block_words=7, backend=backend,
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
        reference = _ensemble(rng_block_words=16)("numpy")
        actual = _ensemble(rng_block_words=16)(backend_name)
        budgets = ({"max_flips": 13}, {"record_trajectory": True, "record_every": 5})
        for index, kwargs in enumerate(budgets):
            if recompute and index:
                # A public rebuild bumps the runtime generation, so the C
                # backend must re-capture its pointers before continuing.
                reference.recompute_all()
                actual.recompute_all()
            _assert_results_equal(reference.run(**kwargs), actual.run(**kwargs))
            _assert_states_equal(_engine_state(reference), _engine_state(actual))
        assert actual.all_terminated
        assert actual._backend._captured_generation == actual._runtime_generation


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
        engine._runtime_generation += 1
        with pytest.raises(StateError, match=message):
            engine.run(max_steps=1)

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
    """The C exponential draw is numpy's sampler on the replica's words.

    Scripted draws hold it, block size by block size, to
    ``standard_exponential`` on each replica's own dynamics ``Generator``
    (which a compiled engine reads once and never advances).  Random draws
    rarely reach layer 0's tail or the wedge's rejecting recursion, so the
    steered cases put a word that takes each path at the block's last slot
    (for the small blocks), and every slow path crosses the block end into
    a C refill.
    """

    CASES = ("fast", "tail", "wedge_accept", "wedge_reject")

    @staticmethod
    def _draw(engine, replica):
        backend = engine._backend
        return backend._lib.repro_standard_exponential(backend._state, replica)

    @pytest.mark.parametrize("block_words", [1, 2, 3, 64, 4096])
    def test_scripted_draws_match_numpy(self, backend_name, block_words):
        engine = EnsembleDynamics(
            SMALL, n_replicas=3, seed=5, rng_block_words=block_words,
            backend=backend_name,
        )
        streams = engine._backend._streams
        rngs = engine._rngs

        def draw(replica):
            value = self._draw(engine, replica)
            assert value == rngs[replica].standard_exponential()
            assert _logical_state(streams, replica) == (
                rngs[replica].bit_generator.state["state"]["state"]
            )

        script = np.random.default_rng(block_words)
        for replica in script.integers(0, 3, size=300).tolist():
            draw(replica)
        # Read replica 0 on until a draw starts exactly at its block end and
        # takes one word: that draw opens a new block at position 1.
        for _ in range(4 * block_words + 64):
            at_end = streams._pos[0] == block_words
            base = rng_module._pcg64_value(streams._base[0])
            draw(0)
            if at_end and streams._pos[0] == 1:
                assert rng_module._pcg64_value(streams._base[0]) != base
                break
        else:
            raise AssertionError("no one-word draw from an exact block end")

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

    def _steer(self, engine, case, slot):
        """Write a block for replica 1 with ``case``'s word at ``slot``.

        The block is drawn from a probe generator on the replica's stream,
        positioned ``slot`` words before that word, and the stream arrays
        are set as a C refill would leave them, parked at ``slot``.
        Returns ``(replica, probe)`` with ``probe`` positioned to emit the
        steered word next.
        """
        streams = engine._backend._streams
        replica = 1
        inc = rng_module._pcg64_value(streams._inc[replica])
        probe = np.random.Generator(np.random.PCG64(0))
        probe.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": 0, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        word = self._steered_word(probe, case)
        oracles.probe_generator_for_word(probe, word)
        at_word = probe.bit_generator.state
        block_start = oracles.pcg64_state_after(
            at_word["state"]["state"], inc, (1 << 128) - slot
        )
        state = dict(at_word, state={"state": block_start, "inc": inc})
        probe.bit_generator.state = state
        streams._words[replica] = probe.bit_generator.random_raw(streams.block_words)
        streams._base[replica] = rng_module._pcg64_pair(block_start)
        streams._state[replica] = rng_module._pcg64_pair(
            probe.bit_generator.state["state"]["state"]
        )
        streams._pos[replica] = slot
        probe.bit_generator.state = at_word
        assert int(streams._words[replica, slot]) == word
        return replica, probe

    @pytest.mark.parametrize("block_words", [1, 2, 3, 4096])
    @pytest.mark.parametrize("case", CASES)
    def test_matches_numpy_on_steered_words(self, backend_name, case, block_words):
        engine = EnsembleDynamics(
            SMALL, n_replicas=2, seed=5, rng_block_words=block_words,
            backend=backend_name,
        )
        streams = engine._backend._streams
        # The word sits in the block's last slot, so a slow path crosses
        # the block end into a C refill (4096-word blocks: the first slot).
        slot = block_words - 1 if block_words < 4096 else 0
        replica, probe = self._steer(engine, case, slot)
        steered_base = rng_module._pcg64_value(streams._base[replica])
        assert self._draw(engine, replica) == probe.standard_exponential()
        assert _logical_state(streams, replica) == (
            probe.bit_generator.state["state"]["state"]
        )
        crossed = rng_module._pcg64_value(streams._base[replica]) != steered_base
        assert crossed == (case != "fast" and block_words < 4096)
        # The other replica's stream is untouched.
        assert streams._pos[0] == block_words


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
