"""The flip-loop backend seam: registry, selection, bitwise identity, provenance.

Five layers are pinned here:

* **Registry** — capability probing, the CLI > env > spec > auto selection
  precedence, the single-warning numpy fallback for unavailable backends
  (including a C backend whose kernel cache directory is not private), and
  the hard error for unknown names.
* **Bitwise identity** — every available backend advances the ensemble
  engine *bit for bit* like the numpy reference: spins, clocks, step/flip
  counters, energies and the samplers' packed layouts, across the base,
  two-sided and asymmetric rules, with a tiny RNG block size so the refill
  and ziggurat slow paths (the event-servicing seam) fire constantly.
* **Runs** — ``run()`` returns identical results and leaves identical
  state under every backend: flip/step/time budgets, trajectory segments,
  both flip rules and schedulers, R above the scalar-path limit, and a run
  continued after a budgeted one.
* **Rows** — :func:`run_experiment` produces identical rows (up to wall
  clock) under every backend, so recorded sweeps are backend-invariant.
* **Provenance** — checkpointed sweeps stamp the resolved backend into the
  manifest and each record, and ``reproduce_store`` turns a row mismatch
  whose record names a *different* backend into the ``backend-drift``
  diagnostic instead of a bare ``mismatch``.

Numba-only paths skip with a reason on hosts without numba — they must
never fail.
"""

import dataclasses
import json
import os
import tempfile
import warnings

import numpy as np
import pytest

from repro.core.backends import cffi_backend, kernels
from repro.core.backends.numba_backend import numba_available
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
    ReferenceEnsembleDynamics,
)
from repro.core.variants import AsymmetricEnsemble, TwoSidedEnsemble
from repro.errors import ConfigurationError
from repro.experiments.runner import run_experiment, run_sweep
from repro.experiments.spec import ExperimentSpec, SweepSpec
from repro.rng import BlockedReplicaStreams
from repro.types import FlipRule, SchedulerKind

BACKENDS = available_backends()
SMALL = ModelConfig.square(side=16, horizon=1, tau=0.45)


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
        layouts,
    )


def _assert_states_equal(reference, actual):
    *ref_arrays, ref_layouts = reference
    *act_arrays, act_layouts = actual
    for ref, act in zip(ref_arrays, act_arrays):
        np.testing.assert_array_equal(ref, act)
    for ref, act in zip(ref_layouts, act_layouts):
        np.testing.assert_array_equal(ref, act)


def _run_rounds(engine, rounds=120):
    for _ in range(rounds):
        engine.step_all()


class TestRegistry:
    def test_numpy_and_python_always_available(self):
        assert BACKENDS[0] == "numpy"
        assert BACKENDS[-1] == "python"
        assert set(BACKENDS) <= set(KNOWN_BACKENDS)

    def test_default_backend_is_available_and_never_python(self):
        default = default_backend_name()
        assert default in BACKENDS
        assert default != "python"

    def test_auto_prefers_compiled_backends(self):
        # The fastest available backend in preference order wins auto.
        expected = next(
            (name for name in AUTO_PREFERENCE if name in BACKENDS), "numpy"
        )
        assert default_backend_name() == expected

    def test_selection_precedence(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert select_backend_name(None, None) == "auto"
        assert select_backend_name(None, "python") == "python"
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert select_backend_name(None, "python") == "numpy"
        assert select_backend_name("cffi", "python") == "cffi"
        # Empty strings count as unset at every level.
        monkeypatch.setenv("REPRO_BACKEND", "")
        assert select_backend_name("", "") == "auto"

    def test_resolve_auto_and_concrete(self):
        assert resolve_backend_name(None) == default_backend_name()
        assert resolve_backend_name("auto") == default_backend_name()
        assert resolve_backend_name("numpy") == "numpy"
        assert resolve_backend_name("python") == "python"

    def test_unknown_backend_is_a_hard_error(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            resolve_backend_name("fortran")

    def test_unavailable_backend_degrades_with_one_warning(self, monkeypatch):
        unavailable = [
            name
            for name in ("numba", "cffi")
            if name not in BACKENDS
        ]
        if not unavailable:
            pytest.skip("every known backend is available on this host")
        name = unavailable[0]
        monkeypatch.setattr(registry_module, "_warned_fallbacks", set())
        with pytest.warns(RuntimeWarning, match="falling back to 'numpy'"):
            assert resolve_backend_name(name) == "numpy"
        # Second request: same fallback, no second warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_backend_name(name) == "numpy"

    def test_requesting_numba_never_raises(self, monkeypatch):
        """--backend numba on a numba-less host degrades, never explodes."""
        monkeypatch.setattr(registry_module, "_warned_fallbacks", set())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            resolved = resolve_backend_name("numba")
        assert resolved in ("numba", "numpy")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            engine = EnsembleDynamics(
                SMALL, n_replicas=2, seed=0, backend="numba"
            )
        assert engine.backend_name in ("numba", "numpy")

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

    def test_reference_engine_has_no_backend(self):
        engine = ReferenceEnsembleDynamics(SMALL, n_replicas=2, seed=0)
        assert engine.backend_name == "reference"


@pytest.mark.parametrize("backend_name", [b for b in BACKENDS if b != "numpy"])
class TestBitwiseIdentity:
    """Every backend must match the numpy reference bit for bit."""

    def _compare(self, backend_name, factory, rounds=120):
        reference = factory(backend="numpy")
        actual = factory(backend=backend_name)
        _run_rounds(reference, rounds)
        _run_rounds(actual, rounds)
        _assert_states_equal(_engine_state(reference), _engine_state(actual))

    @pytest.mark.parametrize("block_words", [1, 7, 4096])
    def test_base_rule(self, backend_name, block_words):
        # block_words=1 forces a refill on every word and exercises the
        # event-servicing resume protocol on essentially every draw.
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
    "r40_vectorized_reference": (_ensemble(n_replicas=40, seed=23), {}),
}


@pytest.mark.parametrize("backend_name", [b for b in BACKENDS if b != "numpy"])
class TestRunIdentity:
    """``run()`` — budgets, trajectories, resumption — matches numpy exactly.

    Backends with a native round loop run every round outside
    ``step_all``, so budgets, trajectory segments and the active-set build
    are pinned here, not only the per-round kernels.
    """

    @pytest.mark.parametrize("case", sorted(RUN_CASES))
    def test_run_matches_numpy(self, backend_name, case):
        factory, kwargs = RUN_CASES[case]
        reference = factory("numpy")
        actual = factory(backend_name)
        if case.startswith("r40"):
            assert reference.n_replicas > BlockedReplicaStreams.SCALAR_PATH_MAX
        _assert_results_equal(reference.run(**kwargs), actual.run(**kwargs))
        _assert_states_equal(_engine_state(reference), _engine_state(actual))

    def test_budgeted_run_then_continuation(self, backend_name):
        reference = _ensemble(rng_block_words=16)("numpy")
        actual = _ensemble(rng_block_words=16)(backend_name)
        for kwargs in ({"max_flips": 13}, {"record_trajectory": True, "record_every": 5}):
            _assert_results_equal(reference.run(**kwargs), actual.run(**kwargs))
            _assert_states_equal(_engine_state(reference), _engine_state(actual))
        assert actual.all_terminated


class TestCompiledKernelCache:
    """The C backend loads its library only from a private cache directory."""

    @pytest.fixture
    def fresh_cache(self, monkeypatch, tmp_path):
        pytest.importorskip("cffi")
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


@pytest.mark.skipif(not numba_available(), reason="numba not installed")
class TestNumbaBackend:
    """Compiled-kernel checks that only run where numba is importable."""

    def test_compiled_kernels_are_memoized(self):
        from repro.core.backends.numba_backend import compiled_kernels

        assert compiled_kernels() is compiled_kernels()

    def test_numba_listed_and_preferred(self):
        assert "numba" in BACKENDS
        assert default_backend_name() == "numba"


class TestKernelConstants:
    def test_status_codes_are_distinct(self):
        codes = {
            kernels.STATUS_DONE,
            kernels.STATUS_REFILL_START,
            kernels.STATUS_ZIGGURAT_SLOW,
            kernels.STATUS_REFILL_CANDIDATE,
        }
        assert len(codes) == 4


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
        run_sweep(self._sweep(), checkpoint_dir=str(tmp_path))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["backend"] == "scalar"

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

    def _tamper_rows(self, tmp_path):
        """Corrupt one recorded metric, re-encoding the CRC so it loads."""
        from repro.experiments.checkpoint import encode_record_line

        metrics = tmp_path / "metrics.jsonl"
        lines = metrics.read_text().splitlines()
        record = json.loads(lines[0])
        record.pop("crc32")
        record["rows"][0]["n_flips"] = int(record["rows"][0]["n_flips"]) + 1
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

        self._store(tmp_path, backend="python")
        self._tamper_rows(tmp_path)
        report = reproduce_store(tmp_path, ensemble_size=2, backend="numpy")
        assert not report.ok
        assert report.counts() == {"backend-drift": 1}
        result = report.results[0]
        assert result.damaged
        assert "'python'" in result.detail and "'numpy'" in result.detail

    def test_mismatch_with_same_backend_stays_plain_mismatch(self, tmp_path):
        from repro.serving.store import reproduce_store

        self._store(tmp_path, backend="numpy")
        self._tamper_rows(tmp_path)
        report = reproduce_store(tmp_path, ensemble_size=2, backend="numpy")
        assert not report.ok
        assert report.counts() == {"mismatch": 1}
