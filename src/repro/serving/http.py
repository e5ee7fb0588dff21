"""Stdlib HTTP endpoint over the query engine (``repro serve``).

A thin JSON facade on :class:`~repro.serving.query.QueryEngine`, built on
``http.server.ThreadingHTTPServer`` so the library adds no web-framework
dependency.  The handler holds a :class:`~repro.serving.lifecycle.QueryService`
and reads ``service.engine`` exactly once per request — engine swaps by the
refresh poller are a single attribute assignment, so every request resolves
against exactly one store snapshot.

Routes (all ``GET``, all ``application/json``):

- ``/query?point=rho=0.4,tau=0.55,w=2`` — answer a parameter-point query.
  Axes may instead be passed as individual parameters (``?rho=0.4&tau=0.55``,
  aliases accepted); ``interpolate=0|1`` overrides the engine default and
  ``deadline=SECONDS`` bounds how long this request may wait on another
  request's in-flight computation.  Errors map to status codes: a malformed
  or ambiguous query is ``400``, a miss under ``on_miss="error"`` is ``404``,
  a saturated compute gate with nothing to degrade to is ``429`` with a
  ``Retry-After`` header, an expired deadline is ``504``, and a draining
  service is ``503``.
- ``/stats`` — cache hit/miss/eviction/coalesce counters, compute-gate
  counters (inflight/rejected/degraded/timeouts), store shape and
  generation, miss policy, and the service lifecycle gauges.
- ``/cells`` — the store's summary cells (what the service can answer from).
- ``/healthz`` — liveness: ``200 {"ok": true}`` whenever the process is up,
  draining included.
- ``/readyz`` — readiness: ``200`` only while a loaded store snapshot is
  serving and the service is not draining; ``503`` otherwise.  Split from
  liveness so an orchestrator drains traffic without restarting the pod.

Every error response is a structured JSON document — including the paths
``http.server`` normally answers with HTML error pages (oversized request
lines, unsupported methods), via the :meth:`send_error` override — so a
client never has to parse a traceback.
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Sequence, Union
from urllib.parse import parse_qsl, urlsplit

from repro.errors import (
    DeadlineExceeded,
    QueryMiss,
    ReproError,
    ServiceOverload,
    ServingError,
)
from repro.experiments.io import json_default
from repro.serving.cache import LRUCache, make_query_cache
from repro.serving.lifecycle import (
    DEFAULT_RETRY_AFTER,
    ComputeGate,
    QueryService,
    StoreWatcher,
)
from repro.serving.query import AXIS_ALIASES, QueryEngine
from repro.serving.store import ArtifactStore, PathLike

#: Default bind address and port of ``repro serve``.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8639

#: The routes the service answers (listed in 404 responses).
ROUTES = ("/query", "/stats", "/cells", "/healthz", "/readyz")


def _request_query(params: dict[str, str]) -> Union[str, dict[str, str]]:
    """The query expressed by a request's parameters.

    ``point=...`` carries a full comma-separated query string; otherwise
    every recognised axis parameter contributes one term, its value left as
    sent: the engine checks every query's numbers alike.
    """
    if "point" in params:
        return params["point"]
    axes = {
        name: value
        for name, value in params.items()
        if name.lower() in AXIS_ALIASES
    }
    if not axes:
        raise ServingError(
            "no query given — pass ?point=rho=...,tau=...,w=... or "
            "individual axis parameters like ?rho=0.4&tau=0.55"
        )
    return axes


def _parse_flag(raw: str) -> bool:
    """Interpret a query-string boolean (``1/0/true/false/yes/no``)."""
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ServingError(f"boolean parameter expects 0/1, got {raw!r}")


def _parse_deadline(raw: str) -> float:
    """Interpret the per-request ``deadline`` parameter (positive seconds).

    Only finite values in ``(0, threading.TIMEOUT_MAX]`` are deadlines: a
    follower waits on its in-flight compute with the value as its timeout,
    where ``nan`` would expire at once and a longer wait raises.
    """
    try:
        deadline = float(raw)
    except ValueError:
        raise ServingError(
            f"deadline expects seconds, got {raw!r}"
        ) from None
    if not 0 < deadline <= threading.TIMEOUT_MAX:
        raise ServingError(
            f"deadline must be positive seconds up to "
            f"{threading.TIMEOUT_MAX:g}, got {raw!r}"
        )
    return deadline


class QueryHTTPServer(ThreadingHTTPServer):
    """Threaded server carrying the service state and optional watcher."""

    #: Request threads must not block interpreter exit after a drain.
    daemon_threads = True

    service: QueryService
    watcher: Optional[StoreWatcher] = None

    @property
    def engine(self):
        """The *current* engine snapshot (swapped live by the watcher)."""
        return self.service.engine


def make_handler(service: QueryService, quiet: bool = True) -> type:
    """Build the request-handler class bound to one query service."""

    class QueryServiceHandler(BaseHTTPRequestHandler):
        """Routes GET requests into the shared :class:`QueryService`."""

        server_version = "repro-serve/2"

        #: A buffered ``wfile``: :meth:`_reply` flushes the status line,
        #: headers and body in one send.  Sent in two, the body can wait
        #: (Nagle's algorithm) for the client's delayed ACK of the headers.
        wbufsize = 1 << 16

        def do_GET(self) -> None:  # noqa: N802 - http.server API
            """Dispatch on path and reply with a JSON document."""
            url = urlsplit(self.path)
            # Liveness answers even while draining: the process is up.
            if url.path == "/healthz":
                self._reply(200, {"ok": True, "draining": service.draining})
                return
            if url.path == "/readyz":
                if service.ready():
                    self._reply(200, {"ready": True})
                else:
                    self._reply(
                        503,
                        {"ready": False, "draining": service.draining},
                        close=True,
                    )
                return
            if not service.begin_request():
                self._reply(
                    503,
                    {"error": "service is draining", "draining": True},
                    close=True,
                )
                return
            try:
                self._dispatch(url)
            finally:
                service.end_request()

        def _dispatch(self, url) -> None:
            """Serve one admitted request against one engine snapshot."""
            engine = service.engine
            try:
                params = dict(parse_qsl(url.query))
            except (UnicodeDecodeError, ValueError):
                self._reply(400, {"error": "undecodable query string"})
                return
            try:
                if url.path == "/stats":
                    stats = engine.stats()
                    stats["service"] = service.stats()
                    self._reply(200, stats)
                elif url.path == "/cells":
                    self._reply(200, {"cells": engine.answer_cells()})
                elif url.path == "/query":
                    interpolate = None
                    if "interpolate" in params:
                        interpolate = _parse_flag(params["interpolate"])
                    deadline = None
                    if "deadline" in params:
                        deadline = _parse_deadline(params["deadline"])
                    body = engine.answer_json(
                        _request_query(params),
                        interpolate=interpolate,
                        deadline=deadline,
                    )
                    self._reply(200, body)
                else:
                    self._reply(
                        404,
                        {
                            "error": f"unknown path {url.path!r}",
                            "routes": list(ROUTES),
                        },
                    )
            except QueryMiss as exc:
                self._reply(404, {"error": str(exc), "miss": True})
            except ServiceOverload as exc:
                self._reply(
                    429,
                    {"error": str(exc), "retry_after": exc.retry_after},
                    headers={
                        "Retry-After": str(
                            max(1, math.ceil(exc.retry_after))
                        )
                    },
                )
            except DeadlineExceeded as exc:
                self._reply(504, {"error": str(exc), "deadline": True})
            except ReproError as exc:
                self._reply(400, {"error": str(exc)})
            except Exception as exc:  # pragma: no cover - defensive
                # Still structured JSON, still no traceback on the wire.
                self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})

        def _reply(
            self,
            status: int,
            payload: Union[dict, bytes],
            headers: Optional[dict[str, str]] = None,
            close: bool = False,
        ) -> None:
            """Send one JSON response: a payload, or its encoded bytes.

            The flush sends the whole response before the caller's request
            leaves the in-flight count, so a drain never returns with a
            body still in the buffer.
            """
            body = payload
            if not isinstance(body, bytes):
                body = json.dumps(body, default=json_default).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            if close:
                self.send_header("Connection", "close")
                self.close_connection = True
            self.end_headers()
            self.wfile.write(body)
            self.wfile.flush()

        def send_error(  # noqa: D102 - http.server API
            self, code, message=None, explain=None
        ) -> None:
            """JSON replacement for ``http.server``'s HTML error pages.

            Covers the failure paths the base class answers before our
            routing runs — oversized request lines (414), malformed request
            syntax (400), unsupported methods (501) — so *every* byte this
            service emits is structured JSON, never a traceback or HTML.
            """
            status = int(code)
            short = self.responses.get(code, ("error",))[0]
            payload = {"error": message or short, "status": status}
            try:
                body = json.dumps(payload).encode("utf-8")
                self.send_response_only(status, short)
                self.send_header("Server", self.version_string())
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.send_header("Connection", "close")
                self.end_headers()
                if self.command != "HEAD" and body:
                    self.wfile.write(body)
                self.wfile.flush()
            except OSError:  # pragma: no cover - peer already gone
                pass
            self.close_connection = True

        def log_message(self, format: str, *args: object) -> None:
            """Suppress per-request stderr noise unless asked not to."""
            if not quiet:
                BaseHTTPRequestHandler.log_message(self, format, *args)

    return QueryServiceHandler


def make_server(
    store: Union[ArtifactStore, PathLike, Sequence],
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    cache: Optional[LRUCache] = None,
    interpolate: bool = False,
    on_miss: str = "error",
    max_distance: Optional[float] = None,
    quiet: bool = True,
    max_compute: Optional[int] = None,
    retry_after: float = DEFAULT_RETRY_AFTER,
    refresh_interval: Optional[float] = None,
) -> QueryHTTPServer:
    """A ready-to-run threaded server over one store or several.

    ``store`` is what :class:`~repro.serving.query.QueryEngine` takes; each
    :class:`ArtifactStore` handle's ``trust_summary`` holds for every
    refreshed snapshot too.  ``max_compute`` bounds concurrent on-miss
    simulations (``None`` = unbounded, still counted) and
    ``refresh_interval`` (seconds) starts the live-store poller that swaps
    refreshed snapshots in.  Pass ``port=0`` to bind an ephemeral port
    (tests do); the bound address is ``server.server_address``, the live
    snapshot is ``server.engine`` and the lifecycle state
    ``server.service``.  The caller owns the lifecycle: ``serve_forever()``
    to run, :func:`drain_server` (or ``shutdown()`` + ``server_close()``) to
    stop.
    """
    options = dict(
        cache=cache if cache is not None else make_query_cache(),
        interpolate=interpolate,
        on_miss=on_miss,
        max_distance=max_distance,
        gate=ComputeGate(limit=max_compute, retry_after=retry_after),
    )
    engine = QueryEngine(store, **options).load()
    # Directories and trust only: holding the handles would keep the first
    # snapshot's summaries alive after the watcher swaps it out.
    members = [
        (handle.directory, handle.trust_summary) for handle in engine.stores
    ]

    def fresh_engine(generation: int) -> QueryEngine:
        """A fully loaded snapshot of the stores at the next generation."""
        stores = [
            ArtifactStore(directory, trust_summary=trust)
            for directory, trust in members
        ]
        return QueryEngine(stores, generation=generation, **options).load()

    service = QueryService(engine)
    server = QueryHTTPServer((host, port), make_handler(service, quiet=quiet))
    server.service = service
    server.watcher = None
    if refresh_interval:
        server.watcher = StoreWatcher(
            service,
            [directory for directory, _ in members],
            fresh_engine,
            interval=refresh_interval,
        )
        server.watcher.start()
    return server


def drain_server(
    server: QueryHTTPServer, timeout: Optional[float] = None
) -> bool:
    """Gracefully drain and stop a running server.

    Flips the service unready (new requests get 503, ``/readyz`` fails),
    waits up to ``timeout`` for in-flight requests to finish, then stops the
    accept loop and closes the socket.  Returns whether the drain completed
    before the timeout; the server is stopped either way.  Must be called
    from a different thread than ``serve_forever()``.
    """
    drained = server.service.drain(timeout)
    if server.watcher is not None:
        server.watcher.stop()
    server.shutdown()
    server.server_close()
    return drained
