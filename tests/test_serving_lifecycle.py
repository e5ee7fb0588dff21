"""Lifecycle tests: backpressure gate, drain state machine, live refresh.

The refresh tests pin the snapshot-atomicity contract: a request resolves
entirely against one store snapshot (never a blend of two), a refreshed
snapshot is bitwise-identical to a cold open of the same directory, and a
store torn mid-append keeps serving its last good snapshot.
"""

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import ConfigurationError
from repro.serving import (
    ArtifactStore,
    ComputeGate,
    LRUCache,
    QueryEngine,
    QueryService,
    StoreWatcher,
    store_signature,
)

from test_serving_query import grid_cells, write_store


class TestComputeGate:
    def test_admission_is_bounded_by_the_limit(self):
        gate = ComputeGate(limit=2)
        assert gate.admit() and gate.admit()
        assert not gate.admit()
        gate.release()
        assert gate.admit()

    def test_unbounded_gate_still_tracks_the_gauge(self):
        gate = ComputeGate(limit=None)
        for _ in range(100):
            assert gate.admit()
        assert gate.stats()["inflight"] == 100
        for _ in range(100):
            gate.release()
        assert gate.stats()["inflight"] == 0

    def test_rejects_invalid_limits(self):
        for bad in (0, -1, 1.5, "2"):
            with pytest.raises(ConfigurationError):
                ComputeGate(limit=bad)

    def test_release_without_admit_is_a_bug(self):
        with pytest.raises(RuntimeError):
            ComputeGate(limit=1).release()

    def test_outcome_counters_are_independent_and_exact(self):
        gate = ComputeGate(limit=1)
        gate.note_rejected()
        gate.note_degraded()
        gate.note_degraded()
        gate.note_timeout()
        stats = gate.stats()
        assert stats["rejected"] == 1
        assert stats["degraded"] == 2
        assert stats["timeouts"] == 1
        assert stats["limit"] == 1 and stats["inflight"] == 0


class TestQueryService:
    def test_requests_are_admitted_until_drain_begins(self):
        service = QueryService(engine=object())
        assert service.begin_request()
        service.end_request()
        assert service.drain(timeout=1) is True
        assert service.begin_request() is False
        stats = service.stats()
        assert stats["draining"] is True
        assert stats["requests_total"] == 1
        assert stats["inflight_requests"] == 0

    def test_alive_but_unready_while_draining(self):
        service = QueryService(engine=object())
        assert service.ready()
        service.drain(timeout=0)
        assert not service.ready()

    def test_drain_times_out_while_requests_are_in_flight(self):
        service = QueryService(engine=object())
        assert service.begin_request()
        assert service.drain(timeout=0.05) is False
        # finishing the request lets a second drain complete
        service.end_request()
        assert service.drain(timeout=1) is True

    def test_drain_wakes_when_the_last_request_ends(self):
        service = QueryService(engine=object())
        assert service.begin_request()
        with ThreadPoolExecutor(max_workers=1) as pool:
            future = pool.submit(service.drain, 30)
            service.end_request()
            assert future.result(timeout=10) is True

    def test_end_request_without_begin_is_a_bug(self):
        with pytest.raises(RuntimeError):
            QueryService(engine=object()).end_request()

    def test_swap_engine_publishes_atomically(self):
        first, second = object(), object()
        service = QueryService(first)
        assert service.engine is first
        service.swap_engine(second)
        assert service.engine is second
        assert service.stats()["refreshes"] == 1


class TestStoreSignature:
    def test_missing_artifacts_fingerprint_as_none(self, tmp_path):
        signature = store_signature([tmp_path])
        assert len(signature) == 3
        assert all(entry[1:] == (None, None) for entry in signature)

    def test_appending_to_metrics_changes_the_signature(self, tmp_path):
        metrics = tmp_path / "metrics.jsonl"
        metrics.write_text("line one\n")
        before = store_signature([tmp_path])
        metrics.write_text("line one\nline two\n")
        assert store_signature([tmp_path]) != before

    def test_covers_every_directory_of_a_federation(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        signature = store_signature([tmp_path / "a", tmp_path / "b"])
        assert len(signature) == 6


def summary_engine(directory, generation=0, cache=None):
    """A loaded engine over a summary-only store at a given generation."""
    return QueryEngine(
        [ArtifactStore(directory)],
        cache=cache if cache is not None else LRUCache(16),
        generation=generation,
    ).load()


class TestStoreWatcher:
    def test_unchanged_store_never_rebuilds(self, tmp_path):
        store = write_store(tmp_path / "store", grid_cells())
        service = QueryService(summary_engine(store))
        builds = []

        def factory(generation):
            builds.append(generation)
            return summary_engine(store, generation)

        watcher = StoreWatcher(service, [store], factory, interval=60)
        assert watcher.poll_once() is False
        assert builds == []
        assert service.stats()["refreshes"] == 0

    def test_changed_summary_swaps_a_new_generation_in(self, tmp_path):
        store = write_store(tmp_path / "store", grid_cells(values=[1.0] * 4))
        cache = LRUCache(16)
        service = QueryService(summary_engine(store, cache=cache))
        watcher = StoreWatcher(
            service,
            [store],
            lambda generation: summary_engine(store, generation, cache),
            interval=60,
        )
        old = service.engine.answer("tau=0.3,rho=0.4,w=2")
        assert old["metrics"]["score"]["mean"] == 1.0

        write_store(store, grid_cells(values=[2.0] * 4))
        assert watcher.poll_once() is True
        assert watcher.generation == 1
        new = service.engine.answer("tau=0.3,rho=0.4,w=2")
        # the shared cache holds the old snapshot's entry, but the bumped
        # generation makes its key unreachable from the new snapshot
        assert new["metrics"]["score"]["mean"] == 2.0
        assert new["cached"] is False
        assert service.stats()["refreshes"] == 1

    def test_failed_rebuild_keeps_the_old_snapshot_and_retries(self, tmp_path):
        store = write_store(tmp_path / "store", grid_cells(values=[1.0] * 4))
        good_engine = summary_engine(store)
        service = QueryService(good_engine)
        attempts = []

        def flaky(generation):
            attempts.append(generation)
            if len(attempts) == 1:
                raise RuntimeError("torn read")
            return summary_engine(store, generation)

        watcher = StoreWatcher(service, [store], flaky, interval=60)
        write_store(store, grid_cells(values=[3.0] * 4))
        assert watcher.poll_once() is False
        assert service.engine is good_engine  # old snapshot still serving
        assert service.stats()["refresh_errors"] == 1
        # the signature was left stale on purpose, so the next poll retries
        assert watcher.poll_once() is True
        assert attempts == [1, 1]
        assert service.engine is not good_engine

    def test_background_thread_polls_and_stops(self, tmp_path):
        store = write_store(tmp_path / "store", grid_cells(values=[1.0] * 4))
        service = QueryService(summary_engine(store))
        watcher = StoreWatcher(
            service,
            [store],
            lambda generation: summary_engine(store, generation),
            interval=0.05,
        )
        watcher.start()
        try:
            write_store(store, grid_cells(values=[4.0] * 4))
            for _ in range(200):
                if service.stats()["refreshes"]:
                    break
                threading.Event().wait(0.05)
            answer = service.engine.answer("tau=0.3,rho=0.4,w=2")
            assert answer["metrics"]["score"]["mean"] == 4.0
        finally:
            watcher.stop()
        assert not watcher.is_alive()

    def test_rejects_non_positive_interval(self, tmp_path):
        service = QueryService(engine=object())
        with pytest.raises(ConfigurationError):
            StoreWatcher(service, [tmp_path], lambda g: None, interval=0)


class TestRefreshAtomicity:
    def test_concurrent_queries_see_exactly_one_snapshot(self, tmp_path):
        """During a swap every answer matches one snapshot, never a blend."""
        store = write_store(tmp_path / "store", grid_cells(values=[1.0] * 4))
        cache = LRUCache(64)
        service = QueryService(summary_engine(store, cache=cache))
        watcher = StoreWatcher(
            service,
            [store],
            lambda generation: summary_engine(store, generation, cache),
            interval=60,
        )
        allowed = {1.0, 2.0}
        stop = threading.Event()
        violations = []

        def reader():
            while not stop.is_set():
                answer = service.engine.answer("tau=0.3,rho=0.4,w=2")
                seen = {
                    value["mean"] for value in answer["metrics"].values()
                }
                if not seen <= allowed or len(seen) != 1:
                    violations.append(answer)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for flip in range(10):
                value = 2.0 if flip % 2 == 0 else 1.0
                write_store(store, grid_cells(values=[value] * 4))
                watcher.poll_once()
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
        assert violations == []
        assert watcher.generation == 10

    def test_refreshed_snapshot_matches_a_cold_open_bitwise(self, tmp_path):
        store = write_store(tmp_path / "store", grid_cells(values=[1.0] * 4))
        service = QueryService(summary_engine(store))
        watcher = StoreWatcher(
            service,
            [store],
            lambda generation: summary_engine(store, generation),
            interval=60,
        )
        write_store(store, grid_cells(values=[7.5] * 4))
        assert watcher.poll_once() is True

        cold = QueryEngine(store).load()
        for query in ("tau=0.3,rho=0.4,w=2", "tau=0.5,rho=0.6,w=2"):
            refreshed_answer = service.engine.answer(query)
            cold_answer = cold.answer(query)
            refreshed_answer.pop("cached")
            cold_answer.pop("cached")
            assert json.dumps(
                refreshed_answer, sort_keys=True
            ) == json.dumps(cold_answer, sort_keys=True)


@pytest.fixture(scope="module")
def real_store(tmp_path_factory):
    """One real checkpointed sweep store (two cells), built once."""
    from repro.core.config import ModelConfig
    from repro.experiments.parallel import run_sweep_parallel
    from repro.experiments.spec import SweepSpec

    directory = tmp_path_factory.mktemp("lifecycle") / "store"
    sweep = SweepSpec(
        name="lifecycle-refresh",
        base_config=ModelConfig.square(side=10, horizon=1, tau=0.3),
        taus=(0.3, 0.45),
        n_replicates=1,
        seed=11,
    )
    run_sweep_parallel(sweep, workers=1, checkpoint_dir=directory)
    return directory


class TestArtifactStoreRefresh:
    def test_refresh_observes_appended_records(self, real_store, tmp_path):
        """A store re-opened after a mid-sweep open sees the appended cells."""
        import shutil

        directory = tmp_path / "store"
        shutil.copytree(real_store, directory)
        metrics = directory / "metrics.jsonl"
        full = metrics.read_bytes()
        lines = full.splitlines(keepends=True)
        assert len(lines) >= 2

        # open the store as of the first record only
        metrics.write_bytes(lines[0])
        (directory / "summary.json").unlink()
        store = ArtifactStore(directory)
        assert len(store.answerable_cells()) == 1

        # the sweep "appends" the remaining records; the stale snapshot
        # keeps serving until the store is re-opened
        metrics.write_bytes(full)
        assert len(store.answerable_cells()) == 1
        store = ArtifactStore(directory)
        assert len(store.answerable_cells()) == 2

        cold = ArtifactStore(directory)
        assert json.dumps(store.summary(), sort_keys=True) == json.dumps(
            cold.summary(), sort_keys=True
        )

    def test_refresh_with_torn_tail_serves_the_valid_prefix(
        self, real_store, tmp_path
    ):
        """A half-written append never corrupts answers, only defers them."""
        import shutil

        directory = tmp_path / "store"
        shutil.copytree(real_store, directory)
        (directory / "summary.json").unlink()
        store = ArtifactStore(directory, trust_summary=False)
        before = json.dumps(store.summary(), sort_keys=True)

        # a concurrent writer dies mid-line: the log gains a torn tail,
        # which the read-side scan drops (silently — the warning belongs to
        # the resume path), leaving exactly the valid-prefix answers
        with (directory / "metrics.jsonl").open("ab") as handle:
            handle.write(b'{"cell_index": 2, "rows": [{"tr')
        store = ArtifactStore(directory, trust_summary=False)
        after = json.dumps(store.summary(), sort_keys=True)
        assert after == before

        cold = json.dumps(
            ArtifactStore(directory, trust_summary=False).summary(),
            sort_keys=True,
        )
        assert cold == before

    def test_refreshed_server_snapshot_keeps_ignoring_the_summary(
        self, real_store, tmp_path
    ):
        import shutil

        from repro.serving import make_server

        directory = tmp_path / "store"
        shutil.copytree(real_store, directory)
        server = make_server(
            ArtifactStore(directory, trust_summary=False),
            port=0,
            refresh_interval=60,
        )
        try:
            assert len(server.engine.answer_cells()) == 2
            summary_path = directory / "summary.json"
            payload = json.loads(summary_path.read_text())
            payload["cells"] = []
            summary_path.write_text(json.dumps(payload))
            assert server.watcher.poll_once() is True
            assert server.engine.generation == 1
            assert server.engine.stores[0].trust_summary is False
            assert len(server.engine.answer_cells()) == 2
        finally:
            server.watcher.stop()
            server.server_close()

    def test_untrusted_summary_ignores_the_summary_file(self, real_store):
        trusted = ArtifactStore(real_store)
        untrusted = ArtifactStore(real_store, trust_summary=False)
        # same aggregates either way on a clean store (the file is just the
        # serialization of the derivation)...
        assert json.dumps(
            trusted.summary()["cells"], sort_keys=True
        ) == json.dumps(untrusted.summary()["cells"], sort_keys=True)

    def test_untrusted_summary_is_immune_to_summary_tampering(
        self, real_store, tmp_path
    ):
        import shutil

        directory = tmp_path / "store"
        shutil.copytree(real_store, directory)
        summary_path = directory / "summary.json"
        payload = json.loads(summary_path.read_text())
        payload["cells"] = []
        summary_path.write_text(json.dumps(payload))

        assert ArtifactStore(directory).cells() == []
        assert len(
            ArtifactStore(directory, trust_summary=False).answerable_cells()
        ) == 2
