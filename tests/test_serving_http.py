"""HTTP query-service tests: routes, status mapping, live cache counters."""

import json
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import pytest

from repro.experiments.checkpoint import SUMMARY_FORMAT, SUMMARY_NAME
from repro.serving import LRUCache, make_server

from test_serving_query import grid_cells, write_store


@pytest.fixture
def service(tmp_path):
    """A running ephemeral-port server over a synthetic four-cell store."""
    store = write_store(tmp_path / "store", grid_cells(values=[1.0, 2.0, 3.0, 4.0]))
    server = make_server(store, port=0, interpolate=True, cache=LRUCache(4))
    thread = threading.Thread(target=lambda: server.serve_forever(poll_interval=0.05), daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def get(base, path):
    """GET a path and return ``(status, decoded JSON body)``."""
    with urllib.request.urlopen(f"{base}{path}", timeout=10) as response:
        return response.status, json.loads(response.read())


def get_error(base, path):
    """GET a path expected to fail; return ``(status, decoded JSON body)``."""
    try:
        urllib.request.urlopen(f"{base}{path}", timeout=10)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())
    raise AssertionError(f"{path} unexpectedly succeeded")


class TestRoutes:
    def test_healthz(self, service):
        assert get(service, "/healthz") == (200, {"ok": True, "draining": False})

    def test_readyz(self, service):
        assert get(service, "/readyz") == (200, {"ready": True})

    def test_cells_lists_the_store(self, service):
        status, body = get(service, "/cells")
        assert status == 200
        assert len(body["cells"]) == 4

    def test_query_via_point_parameter(self, service):
        status, body = get(service, "/query?point=tau=0.3,rho=0.4,w=2")
        assert status == 200
        assert body["source"] == "exact"
        assert body["metrics"]["score"]["mean"] == 1.0

    def test_query_via_individual_axis_parameters(self, service):
        status, body = get(service, "/query?tau=0.4&rho=0.5&w=2")
        assert status == 200
        assert body["source"] == "interpolated"
        assert body["metrics"]["score"]["mean"] == pytest.approx(2.5)

    def test_interpolate_flag_overrides_per_request(self, service):
        _, body = get(service, "/query?tau=0.4&rho=0.5&w=2&interpolate=0")
        assert body["source"] == "nearest"

    def test_unknown_path_is_404_with_route_list(self, service):
        status, body = get_error(service, "/nope")
        assert status == 404
        assert "/query" in body["routes"]


class TestErrorMapping:
    def test_malformed_query_is_400(self, service):
        status, body = get_error(service, "/query?point=sigma=1")
        assert status == 400
        assert "unknown query axis" in body["error"]

    def test_missing_query_is_400(self, service):
        status, body = get_error(service, "/query")
        assert status == 400
        assert "no query given" in body["error"]

    def test_bad_boolean_is_400(self, service):
        status, _ = get_error(service, "/query?tau=0.3&rho=0.4&interpolate=maybe")
        assert status == 400

    def test_query_miss_is_404(self, tmp_path):
        store = write_store(tmp_path / "store", grid_cells())
        server = make_server(store, port=0, max_distance=0.01)
        thread = threading.Thread(target=lambda: server.serve_forever(poll_interval=0.05), daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            status, body = get_error(
                f"http://{host}:{port}", "/query?tau=0.9&rho=0.9&w=2"
            )
            assert status == 404
            assert body["miss"] is True
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


class TestHandlerHardening:
    """The service never answers with a traceback or HTML error page."""

    def test_non_numeric_axis_parameter_is_json_400(self, service):
        status, body = get_error(service, "/query?tau=abc&rho=0.4&w=2")
        assert status == 400
        assert "non-numeric" in body["error"]

    def test_non_numeric_point_value_is_json_400(self, service):
        status, body = get_error(service, "/query?point=tau=oops,rho=0.4")
        assert status == 400
        assert "not a number" in body["error"]

    @pytest.mark.parametrize(
        "query",
        ["rho=nan&tau=0.3&w=2", "rho=0.4&tau=0.3&w=inf", "point=tau=-inf,rho=0.4,w=2"],
        ids=["nan", "inf", "point"],
    )
    def test_non_finite_axis_value_is_json_400(self, service, query):
        status, body = get_error(service, f"/query?{query}")
        assert status == 400
        assert "not finite" in body["error"]

    def test_bad_deadline_is_json_400(self, service):
        status, body = get_error(service, "/query?tau=0.3&rho=0.4&w=2&deadline=soon")
        assert status == 400
        assert "deadline" in body["error"]
        status, body = get_error(service, "/query?tau=0.3&rho=0.4&w=2&deadline=-1")
        assert status == 400

    @pytest.mark.parametrize("deadline", ["nan", "inf", "1e300"])
    def test_non_finite_or_unwaitable_deadline_is_json_400(self, service, deadline):
        # A follower waits on the in-flight compute with the deadline as its
        # timeout: nan expires at once and inf or 1e300 overflow the wait.
        status, body = get_error(
            service, f"/query?tau=0.3&rho=0.4&w=2&deadline={deadline}"
        )
        assert status == 400
        assert "deadline" in body["error"]

    def test_unknown_route_is_json_404(self, service):
        status, body = get_error(service, "/admin/../etc/passwd")
        assert status == 404
        assert body["routes"] == ["/query", "/stats", "/cells", "/healthz", "/readyz"]

    def test_oversized_request_line_is_json_not_html(self, service):
        status, body = get_error(service, "/query?point=" + "x" * 70000)
        assert status == 414
        assert "error" in body  # json.loads in get_error already proves JSON

    def test_unsupported_method_is_json(self, service):
        request = urllib.request.Request(f"{service}/query", method="POST")
        try:
            urllib.request.urlopen(request, data=b"{}", timeout=10)
        except urllib.error.HTTPError as exc:
            assert exc.code == 501
            assert "error" in json.loads(exc.read())
        else:
            raise AssertionError("POST unexpectedly succeeded")

    def test_repeated_garbage_never_kills_the_service(self, service):
        for path in ("/query?point=,,=,", "/query?%ff=1", "/%00", "/query?w="):
            status, body = get_error(service, path)
            assert status in (400, 404)
            assert "error" in body
        assert get(service, "/healthz")[0] == 200


class TestStatsEndpoint:
    def test_counters_track_traffic(self, service):
        get(service, "/query?point=tau=0.3,rho=0.4,w=2")
        get(service, "/query?point=tau=0.3,rho=0.4,w=2")
        get(service, "/query?point=rho=0.4,tau=0.3,w=2")  # same resolved point
        status, body = get(service, "/stats")
        assert status == 200
        assert body["cache"]["capacity"] == 4
        assert body["cache"]["misses"] == 1
        assert body["cache"]["hits"] == 2
        assert body["store"]["n_cells"] == 4
        assert body["store"]["n_answerable"] == 4
        assert body["policy"]["interpolate"] is True
        assert body["policy"]["on_miss"] == "error"

    def test_eviction_counter_over_capacity_traffic(self, service):
        points = [
            (0.3, 0.4), (0.3, 0.6), (0.5, 0.4), (0.5, 0.6),
            (0.35, 0.45), (0.45, 0.55),
        ]
        for tau, rho in points:
            get(service, f"/query?tau={tau}&rho={rho}&w=2")
        _, body = get(service, "/stats")
        assert body["cache"]["size"] == 4
        assert body["cache"]["evictions"] == 2

    def test_concurrent_requests_are_answered_consistently(self, service):
        def fetch(_):
            _, body = get(service, "/query?point=tau=0.3,rho=0.4,w=2")
            return body["metrics"]["score"]["mean"]

        with ThreadPoolExecutor(max_workers=8) as pool:
            values = list(pool.map(fetch, range(32)))
        assert values == [1.0] * 32
        _, body = get(service, "/stats")
        assert body["cache"]["hits"] + body["cache"]["misses"] == 32


@contextmanager
def running_server(store, **options):
    """A live ephemeral-port server; yields ``(base_url, server)``."""
    server = make_server(store, port=0, **options)
    thread = threading.Thread(
        target=lambda: server.serve_forever(poll_interval=0.05), daemon=True
    )
    thread.start()
    try:
        host, port = server.server_address[:2]
        yield f"http://{host}:{port}", server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def block_compute(engine, release, answer_value=1.0):
    """Patch the engine's simulation hook to block until ``release`` is set."""
    def blocked(point):
        release.wait(timeout=30)
        return {
            "point": point,
            "source": "computed",
            "distance": None,
            "metrics": {"score": {"mean": answer_value}},
            "cells": [],
        }
    engine._compute_ungated = blocked


class TestOverloadLadder:
    def test_saturated_gate_with_no_fallback_is_429_with_retry_after(
        self, tmp_path
    ):
        store = write_store(tmp_path / "store", [])
        with running_server(
            store, on_miss="compute", max_compute=1, retry_after=7
        ) as (base, server):
            release = threading.Event()
            block_compute(server.engine, release)
            with ThreadPoolExecutor(max_workers=1) as pool:
                holder = pool.submit(get, base, "/query?tau=0.3&rho=0.4&w=2")
                while server.engine.gate.stats()["inflight"] == 0:
                    pass
                try:
                    urllib.request.urlopen(
                        f"{base}/query?tau=0.9&rho=0.9&w=2", timeout=10
                    )
                except urllib.error.HTTPError as exc:
                    assert exc.code == 429
                    assert exc.headers["Retry-After"] == "7"
                    assert json.loads(exc.read())["retry_after"] == 7.0
                else:
                    raise AssertionError("expected 429")
                release.set()
                status, body = holder.result(timeout=30)
            assert status == 200 and body["source"] == "computed"
            _, stats = get(base, "/stats")
            assert stats["compute"]["rejected"] == 1
            assert stats["compute"]["degraded"] == 0
            assert stats["compute"]["inflight"] == 0

    def test_saturated_gate_degrades_to_nearest_cell(self, tmp_path):
        store = write_store(tmp_path / "store", grid_cells())
        with running_server(
            store, on_miss="compute", max_compute=1, max_distance=0.01
        ) as (base, server):
            release = threading.Event()
            block_compute(server.engine, release)
            with ThreadPoolExecutor(max_workers=1) as pool:
                holder = pool.submit(get, base, "/query?tau=0.9&rho=0.9&w=2")
                while server.engine.gate.stats()["inflight"] == 0:
                    pass
                status, body = get(base, "/query?tau=0.8&rho=0.8&w=2")
                release.set()
                holder.result(timeout=30)
            assert status == 200
            assert body["degraded"] is True
            assert body["source"] == "nearest"
            assert body["cached"] is False
            _, stats = get(base, "/stats")
            assert stats["compute"]["degraded"] == 1
            assert stats["compute"]["rejected"] == 0
            # degraded answers are never cached: asking again degrades again
            # (the gate is free now, so this one computes instead)

    def test_follower_deadline_expires_as_504(self, tmp_path):
        store = write_store(tmp_path / "store", [])
        with running_server(store, on_miss="compute") as (base, server):
            release = threading.Event()
            block_compute(server.engine, release)
            with ThreadPoolExecutor(max_workers=1) as pool:
                leader = pool.submit(get, base, "/query?tau=0.3&rho=0.4&w=2")
                while server.engine.cache.stats()["inflight"] == 0:
                    pass
                status, body = get_error(
                    base, "/query?tau=0.3&rho=0.4&w=2&deadline=0.05"
                )
                assert status == 504
                assert body["deadline"] is True
                release.set()
                assert leader.result(timeout=30)[0] == 200
            _, stats = get(base, "/stats")
            assert stats["compute"]["timeouts"] == 1

    def test_single_flight_over_http(self, tmp_path):
        """Concurrent identical misses: one compute, exact coalesce stats."""
        store = write_store(tmp_path / "store", [])
        with running_server(store, on_miss="compute") as (base, server):
            release = threading.Event()
            calls = []
            original = server.engine._compute_ungated

            def counting(point):
                calls.append(1)
                release.wait(timeout=30)
                return {
                    "point": point, "source": "computed", "distance": None,
                    "metrics": {"score": {"mean": 9.0}}, "cells": [],
                }
            server.engine._compute_ungated = counting
            n = 8
            with ThreadPoolExecutor(max_workers=n) as pool:
                futures = [
                    pool.submit(get, base, "/query?tau=0.3&rho=0.4&w=2")
                    for _ in range(n)
                ]
                while server.engine.cache.stats()["inflight"] == 0:
                    pass
                release.set()
                results = [future.result(timeout=30) for future in futures]
            assert len(calls) == 1
            assert all(status == 200 for status, _ in results)
            means = {body["metrics"]["score"]["mean"] for _, body in results}
            assert means == {9.0}
            _, stats = get(base, "/stats")
            assert stats["cache"]["misses"] == 1
            # late arrivals may hit the cache instead of coalescing; both
            # paths must account exactly
            assert (
                stats["cache"]["coalesced"] + stats["cache"]["hits"] == n - 1
            )
            server.engine._compute_ungated = original


class TestDrain:
    def test_draining_service_rejects_new_work_but_stays_alive(self, tmp_path):
        store = write_store(tmp_path / "store", grid_cells())
        with running_server(store) as (base, server):
            assert get(base, "/readyz") == (200, {"ready": True})
            assert server.service.drain(timeout=1) is True
            status, body = get_error(base, "/readyz")
            assert status == 503
            assert body == {"ready": False, "draining": True}
            status, body = get_error(base, "/query?tau=0.3&rho=0.4&w=2")
            assert status == 503
            assert body["error"] == "service is draining"
            # liveness is unaffected: the process is up, just unready
            assert get(base, "/healthz") == (200, {"ok": True, "draining": True})

    def test_drain_waits_for_inflight_requests(self, tmp_path):
        store = write_store(tmp_path / "store", [])
        with running_server(store, on_miss="compute") as (base, server):
            release = threading.Event()
            block_compute(server.engine, release, answer_value=5.0)
            with ThreadPoolExecutor(max_workers=2) as pool:
                inflight = pool.submit(get, base, "/query?tau=0.3&rho=0.4&w=2")
                while server.service.stats()["inflight_requests"] == 0:
                    pass
                # a zero-timeout drain cannot finish while work is in flight
                assert server.service.drain(timeout=0.05) is False
                drain = pool.submit(server.service.drain, 30)
                release.set()
                status, body = inflight.result(timeout=30)
                assert status == 200
                assert body["metrics"]["score"]["mean"] == 5.0
                assert drain.result(timeout=30) is True
            assert server.service.stats()["inflight_requests"] == 0


class TestServiceStats:
    def test_stats_carry_service_and_compute_sections(self, service):
        get(service, "/query?point=tau=0.3,rho=0.4,w=2")
        status, body = get(service, "/stats")
        assert status == 200
        assert body["service"]["draining"] is False
        assert body["service"]["requests_total"] >= 2  # the query + this /stats
        assert body["service"]["inflight_requests"] >= 1  # this /stats itself
        assert body["service"]["refreshes"] == 0
        assert body["compute"] == {
            "limit": None,
            "inflight": 0,
            "rejected": 0,
            "degraded": 0,
            "timeouts": 0,
        }
        assert body["cache"]["coalesced"] == 0
        assert body["cache"]["inflight"] == 0
        assert body["store"]["generation"] == 0


class TestRealStoreSmoke:
    def test_serves_a_real_sweep_store(self, tmp_path):
        """End-to-end: real checkpointed sweep → HTTP answers + summary file."""
        from repro.core.config import ModelConfig
        from repro.experiments.parallel import run_sweep_parallel
        from repro.experiments.spec import SweepSpec

        directory = tmp_path / "store"
        sweep = SweepSpec(
            name="http-smoke",
            base_config=ModelConfig.square(side=10, horizon=1, tau=0.3),
            taus=(0.3, 0.45),
            n_replicates=1,
            seed=3,
        )
        run_sweep_parallel(sweep, workers=1, checkpoint_dir=directory)
        assert json.loads((directory / SUMMARY_NAME).read_text())[
            "format"
        ] == SUMMARY_FORMAT

        server = make_server(directory, port=0)
        thread = threading.Thread(target=lambda: server.serve_forever(poll_interval=0.05), daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            base = f"http://{host}:{port}"
            status, body = get(base, "/query?tau=0.3")  # rho, w pinned by store
            assert status == 200
            assert body["source"] == "exact"
            assert "final_unhappy_fraction" in body["metrics"]
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
