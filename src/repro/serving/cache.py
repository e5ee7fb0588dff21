"""Bounded thread-safe LRU cache with single-flight computation de-duplication.

The query service (:mod:`repro.serving.query`) sits in front of the artifact
store the way an inference cache sits in front of a model: most traffic
repeats a small working set of parameter points, so answers are kept in a
bounded least-recently-used cache and the counters are exported at the HTTP
``/stats`` endpoint.  The implementation is deliberately stdlib-only — an
``OrderedDict`` under one re-entrant lock — because the critical section is a
dict move.  The query layer's entries keep their answer's encoded JSON
(:mod:`repro.serving.query`), so a hot HTTP request pays that move and a
byte copy, not a fresh encode of the answer.

Concurrency contract: every public method is atomic under the internal lock.
:meth:`LRUCache.get_or_compute` is **single-flight**: concurrent misses on
the same key share one in-flight computation.  The first caller (the
*leader*) registers a per-key flight and runs ``compute`` outside the lock;
every concurrent caller for the same key (a *follower*) blocks on the
flight's event and receives the leader's value — or the leader's exception —
without computing anything.  Under ``--on-miss compute`` every cache miss is
a full simulation, so N identical concurrent requests must run exactly one.

Counters are exact: every ``get`` is classified as exactly one hit or miss;
every :meth:`~LRUCache.get_or_compute` call as exactly one of hit, miss
(leader) or coalesced (follower); and every capacity displacement as exactly
one eviction.  ``inflight`` is a gauge: the number of leader computations
currently running.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable, Optional

from repro.errors import ConfigurationError, DeadlineExceeded

#: Sentinel distinguishing "absent" from a cached ``None`` value.
_ABSENT = object()

#: The three exact-accounting outcomes of :meth:`LRUCache.get_or_compute`.
GET_OR_COMPUTE_OUTCOMES = ("hit", "miss", "coalesced")


class _Flight:
    """One in-flight computation, shared by its leader and followers."""

    __slots__ = ("event", "value", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: object = _ABSENT
        self.error: Optional[BaseException] = None


class LRUCache:
    """A bounded LRU map with exact hit/miss/eviction/coalesce accounting.

    Reads (:meth:`get`, :meth:`get_or_compute`) refresh recency; writes
    (:meth:`put`) insert or update at most-recent position and evict the
    least-recently-used entry once ``len > capacity``.  ``__contains__`` and
    :meth:`peek` are observational: they touch neither recency nor counters,
    so tests and stats endpoints can inspect the cache without perturbing it.
    """

    def __init__(self, capacity: int) -> None:
        if not isinstance(capacity, int) or capacity <= 0:
            raise ConfigurationError(
                f"cache capacity must be a positive int, got {capacity!r}"
            )
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self._flights: dict[Hashable, _Flight] = {}
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._coalesced = 0

    # ------------------------------------------------------------------ reads

    def get(self, key: Hashable, default: object = None) -> object:
        """Return the cached value (refreshing recency) or ``default``.

        Counts one hit or one miss.
        """
        with self._lock:
            value = self._entries.get(key, _ABSENT)
            if value is _ABSENT:
                self._misses += 1
                return default
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def peek(self, key: Hashable, default: object = None) -> object:
        """Return the cached value without touching recency or counters."""
        with self._lock:
            value = self._entries.get(key, _ABSENT)
            return default if value is _ABSENT else value

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ----------------------------------------------------------------- writes

    def put(self, key: Hashable, value: object) -> None:
        """Insert or update ``key`` at most-recent position, evicting if full."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def get_or_compute(
        self,
        key: Hashable,
        compute: Callable[[], object],
        timeout: Optional[float] = None,
    ) -> tuple[object, str]:
        """Return ``(value, outcome)``, computing once per key across threads.

        ``outcome`` is exactly one of :data:`GET_OR_COMPUTE_OUTCOMES`:

        - ``"hit"`` — the key was cached; no computation.
        - ``"miss"`` — this caller was the flight leader: it ran ``compute``
          outside the lock and cached the result.
        - ``"coalesced"`` — another thread's flight for the same key was
          already running; this caller waited and shares its value.

        A leader's exception propagates to the leader *and* to every
        follower coalesced onto its flight (the flight is then cleared, so a
        later caller retries fresh).  ``timeout`` bounds how long a follower
        waits for the leader; expiry raises
        :class:`~repro.errors.DeadlineExceeded`.  The leader itself is never
        interrupted — its result still lands in the cache.
        """
        with self._lock:
            value = self._entries.get(key, _ABSENT)
            if value is not _ABSENT:
                self._entries.move_to_end(key)
                self._hits += 1
                return value, "hit"
            flight = self._flights.get(key)
            if flight is None:
                flight = _Flight()
                self._flights[key] = flight
                leader = True
                self._misses += 1
            else:
                leader = False
                self._coalesced += 1
        if not leader:
            if not flight.event.wait(timeout):
                raise DeadlineExceeded(
                    f"timed out after {timeout}s waiting for the in-flight "
                    f"computation of {key!r}"
                )
            if flight.error is not None:
                raise flight.error
            return flight.value, "coalesced"
        try:
            value = compute()
        except BaseException as exc:
            with self._lock:
                flight.error = exc
                self._flights.pop(key, None)
            flight.event.set()
            raise
        self.put(key, value)
        with self._lock:
            flight.value = value
            self._flights.pop(key, None)
        flight.event.set()
        return value, "miss"

    def clear(self) -> None:
        """Drop every entry.  Counters are preserved (they describe traffic)."""
        with self._lock:
            self._entries.clear()

    # ------------------------------------------------------------------ stats

    def stats(self) -> dict[str, int]:
        """Consistent snapshot of the counters, occupancy and in-flight gauge."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "size": len(self._entries),
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "coalesced": self._coalesced,
                "inflight": len(self._flights),
            }

    def keys(self) -> list:
        """The cached keys, least- to most-recently used (a copy)."""
        with self._lock:
            return list(self._entries.keys())


def cache_key(
    params: dict[str, object], interpolate: bool, generation: int = 0
) -> tuple[Hashable, ...]:
    """Canonical cache key of one resolved query point.

    Axes are sorted by name so semantically identical queries
    (``"tau=0.4,rho=0.5"`` vs ``"rho=0.5,tau=0.4"``) share an entry;
    ``interpolate`` is part of the key because it changes the answer, and
    ``generation`` is the store-snapshot generation so entries cached
    against a superseded snapshot can never answer for a refreshed one —
    they simply age out of the LRU.
    """
    return tuple(sorted(params.items())) + (bool(interpolate), int(generation))


#: Default capacity of the query service's answer cache.
DEFAULT_CACHE_CAPACITY = 256


def make_query_cache(capacity: Optional[int] = None) -> LRUCache:
    """The query layer's answer cache with the serving default capacity."""
    return LRUCache(DEFAULT_CACHE_CAPACITY if capacity is None else capacity)
