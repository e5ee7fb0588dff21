"""Operational lifecycle of the query service: backpressure, drain, refresh.

Three small, independently testable pieces turn the snapshot-at-open query
engine into an operations-grade service:

- :class:`ComputeGate` — a bounded admission gate for ``--on-miss compute``
  requests.  Each cache miss under that policy is a full simulation, so the
  gate caps how many may run concurrently; overflow feeds the degradation
  ladder (nearest-cell answers flagged ``degraded``, else ``429``) and every
  outcome is counted exactly once for ``/stats``.
- :class:`QueryService` — the mutable cell holding the *current* engine
  snapshot plus the request-lifecycle state: an in-flight request gauge,
  a draining flag, and :meth:`~QueryService.drain` which flips the service
  unready, waits for in-flight requests to finish and reports whether the
  drain completed.  Engine swaps are a single attribute assignment, so every
  request resolves entirely against exactly one snapshot.
- :class:`StoreWatcher` — a polling daemon thread that watches the store
  artifacts' ``(mtime, size)`` signatures, and on change builds a **fresh,
  eagerly loaded** engine snapshot (next generation, shared cache and gate)
  and swaps it into the service.  Building before swapping means a growing
  ``metrics.jsonl`` is only ever read in the poller; requests never observe
  a half-loaded store.

The module deliberately knows nothing about HTTP or the query engine's
internals — it holds engines behind a factory callable — so the drain and
refresh state machines are exercised by plain unit tests.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from repro.errors import ConfigurationError

PathLike = Union[str, Path]

#: Store artifacts whose ``(mtime_ns, size)`` the watcher fingerprints.
WATCHED_ARTIFACTS = ("manifest.json", "metrics.jsonl", "summary.json")

#: Default seconds a rejected (429) client is told to wait before retrying.
DEFAULT_RETRY_AFTER = 1.0


class ComputeGate:
    """Bounded admission for concurrent compute-on-miss simulations.

    ``limit=None`` leaves admission unbounded but still tracks the in-flight
    gauge.  :meth:`admit` is non-blocking — an over-limit request is refused
    immediately so the caller can degrade or reject rather than queue
    unboundedly (queueing simulations behind a saturated gate only converts
    overload into latency).  Counters are exact: every refused admission is
    later accounted as exactly one ``degraded`` (answered from the nearest
    stored cell) or one ``rejected`` (429) by the caller, and every admitted
    compute increments/decrements the gauge exactly once.
    """

    def __init__(
        self,
        limit: Optional[int] = None,
        retry_after: float = DEFAULT_RETRY_AFTER,
    ) -> None:
        if limit is not None and (not isinstance(limit, int) or limit <= 0):
            raise ConfigurationError(
                f"compute limit must be a positive int or None, got {limit!r}"
            )
        self.limit = limit
        self.retry_after = float(retry_after)
        self._lock = threading.Lock()
        self._inflight = 0
        self._rejected = 0
        self._degraded = 0
        self._timeouts = 0

    def admit(self) -> bool:
        """Try to admit one compute; ``False`` means the gate is full."""
        with self._lock:
            if self.limit is not None and self._inflight >= self.limit:
                return False
            self._inflight += 1
            return True

    def release(self) -> None:
        """Release one previously admitted compute."""
        with self._lock:
            if self._inflight <= 0:
                raise RuntimeError("ComputeGate.release without admit")
            self._inflight -= 1

    def note_rejected(self) -> None:
        """Count one refused admission that ended as a 429 rejection."""
        with self._lock:
            self._rejected += 1

    def note_degraded(self) -> None:
        """Count one degraded (nearest-cell fallback) answer."""
        with self._lock:
            self._degraded += 1

    def note_timeout(self) -> None:
        """Count one request whose deadline expired while waiting."""
        with self._lock:
            self._timeouts += 1

    def stats(self) -> dict[str, object]:
        """Consistent snapshot of the gate's gauge and counters."""
        with self._lock:
            return {
                "limit": self.limit,
                "inflight": self._inflight,
                "rejected": self._rejected,
                "degraded": self._degraded,
                "timeouts": self._timeouts,
            }


class QueryService:
    """The swappable engine snapshot plus request-lifecycle state.

    One instance backs all request threads.  ``service.engine`` is read once
    per request — attribute reads are atomic, so a concurrent
    :meth:`swap_engine` gives each request entirely the old or entirely the
    new snapshot, never a blend.  Readiness (:meth:`ready`) is distinct from
    liveness, which the process answers for as long as it runs: a draining
    service is alive but unready, so an orchestrator stops routing new
    traffic while in-flight requests finish.
    """

    def __init__(self, engine: object) -> None:
        self._engine = engine
        self._condition = threading.Condition()
        self._inflight_requests = 0
        self._requests_total = 0
        self._draining = False
        self._refreshes = 0
        self._refresh_errors = 0

    # ------------------------------------------------------------- snapshots

    @property
    def engine(self) -> object:
        """The current engine snapshot (grab once per request)."""
        return self._engine

    def swap_engine(self, engine: object) -> None:
        """Atomically publish a new engine snapshot."""
        self._engine = engine
        with self._condition:
            self._refreshes += 1

    # -------------------------------------------------------------- requests

    def begin_request(self) -> bool:
        """Admit one request; ``False`` once draining has begun."""
        with self._condition:
            if self._draining:
                return False
            self._inflight_requests += 1
            self._requests_total += 1
            return True

    def end_request(self) -> None:
        """Mark one admitted request finished (wakes a waiting drain)."""
        with self._condition:
            if self._inflight_requests <= 0:
                raise RuntimeError("end_request without begin_request")
            self._inflight_requests -= 1
            self._condition.notify_all()

    # ----------------------------------------------------------------- state

    @property
    def draining(self) -> bool:
        """Whether :meth:`drain` has begun."""
        with self._condition:
            return self._draining

    def ready(self) -> bool:
        """Readiness: a loaded engine snapshot exists and we are not draining."""
        with self._condition:
            return self._engine is not None and not self._draining

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admitting requests; wait for in-flight ones to finish.

        Returns ``True`` when the last in-flight request completed within
        ``timeout`` (``None`` waits indefinitely), ``False`` on expiry —
        the caller decides whether to exit anyway.  Idempotent.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._condition:
            self._draining = True
            while self._inflight_requests > 0:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._condition.wait(remaining)
            return True

    def note_refresh_error(self) -> None:
        """Count one failed snapshot rebuild (the old snapshot stays live)."""
        with self._condition:
            self._refresh_errors += 1

    def stats(self) -> dict[str, object]:
        """Request/drain/refresh gauges for ``/stats``."""
        with self._condition:
            return {
                "draining": self._draining,
                "inflight_requests": self._inflight_requests,
                "requests_total": self._requests_total,
                "refreshes": self._refreshes,
                "refresh_errors": self._refresh_errors,
            }


def store_signature(
    directories: Sequence[PathLike],
) -> tuple[tuple[object, ...], ...]:
    """Fingerprint of the watched artifacts across the store directories.

    One ``(name, mtime_ns, size)`` triple per artifact per directory;
    a missing artifact contributes ``(name, None, None)``.  Any append to
    ``metrics.jsonl`` or atomic replace of ``summary.json`` changes the
    signature, which is all the watcher needs — content is only re-read
    when the signature moved.
    """
    signature = []
    for directory in directories:
        directory = Path(directory)
        for name in WATCHED_ARTIFACTS:
            path = directory / name
            try:
                stat = path.stat()
                signature.append((str(path), stat.st_mtime_ns, stat.st_size))
            except OSError:
                signature.append((str(path), None, None))
    return tuple(signature)


class StoreWatcher(threading.Thread):
    """Polls store artifacts and swaps refreshed engine snapshots in.

    ``build_engine(generation)`` must return a **fully loaded** engine over
    a fresh read of the store directories — the watcher calls it only after
    the signature moved, and swaps the result into ``service`` in one
    assignment.  Generations increase monotonically, and the engine folds
    its generation into every cache key, so entries cached against the old
    snapshot are unreachable from the new one (they age out of the LRU).
    A build that raises keeps the previous snapshot serving and is counted
    on the service's ``refresh_errors``.
    """

    def __init__(
        self,
        service: QueryService,
        directories: Sequence[PathLike],
        build_engine: Callable[[int], object],
        interval: float = 2.0,
        initial_generation: int = 0,
    ) -> None:
        if interval <= 0:
            raise ConfigurationError(
                f"watch interval must be positive, got {interval!r}"
            )
        super().__init__(name="repro-store-watcher", daemon=True)
        self.service = service
        self.directories = [Path(directory) for directory in directories]
        self.build_engine = build_engine
        self.interval = float(interval)
        self.generation = int(initial_generation)
        self._stop_event = threading.Event()
        self._last_signature = store_signature(self.directories)

    def poll_once(self) -> bool:
        """One poll step: swap in a new snapshot if the artifacts moved.

        Returns ``True`` when a swap happened.  Public so tests (and the
        drain path) can drive the state machine without timing games.
        """
        signature = store_signature(self.directories)
        if signature == self._last_signature:
            return False
        next_generation = self.generation + 1
        try:
            engine = self.build_engine(next_generation)
        except Exception:
            # A torn mid-append read or transient damage must never take
            # down the service: keep serving the last good snapshot and
            # retry on the next poll (the signature is left stale on
            # purpose so the retry actually happens).
            self.service.note_refresh_error()
            return False
        self.generation = next_generation
        self._last_signature = signature
        self.service.swap_engine(engine)
        return True

    def run(self) -> None:
        """Poll until :meth:`stop`; exceptions never escape the thread."""
        while not self._stop_event.wait(self.interval):
            self.poll_once()

    def stop(self, join_timeout: Optional[float] = 5.0) -> None:
        """Stop polling and join the thread."""
        self._stop_event.set()
        if self.is_alive():
            self.join(join_timeout)
