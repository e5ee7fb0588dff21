"""Sweep-as-a-service: the read/query side of the experiment pipeline.

The experiment layer *writes* artifact stores (checkpointed sweeps with a
provenance manifest, raw replicate rows and a ``summary.json`` of per-cell
aggregates).  This package *consumes* them:

- :mod:`repro.serving.store` — :class:`ArtifactStore` (read-side handle),
  :func:`reproduce_store` (bitwise re-execution of recorded cells) and the
  snapshot-to-spec rebuild behind both.
- :mod:`repro.serving.query` — :class:`QueryEngine`: exact / interpolated /
  nearest-cell parameter lookups over one store or several (one surface,
  routed by parameter coverage) with an explicit miss policy and the
  overload degradation ladder.
- :mod:`repro.serving.cache` — the bounded thread-safe single-flight LRU
  answer cache with exact hit/miss/eviction/coalesce counters.
- :mod:`repro.serving.lifecycle` — :class:`ComputeGate` (backpressure),
  :class:`QueryService` (snapshot swaps, readiness, graceful drain) and
  :class:`StoreWatcher` (live-store refresh polling).
- :mod:`repro.serving.http` — the stdlib ``repro serve`` HTTP endpoint.

The split keeps the dependency direction one-way: serving imports the
experiment layer, never the reverse.
"""

from repro.serving.cache import (
    DEFAULT_CACHE_CAPACITY,
    LRUCache,
    cache_key,
    make_query_cache,
)
from repro.serving.http import drain_server, make_server
from repro.serving.lifecycle import (
    ComputeGate,
    QueryService,
    StoreWatcher,
    store_signature,
)
from repro.serving.query import (
    QueryEngine,
    axis_scales,
    bilinear_answer,
    normalized_distance,
    parse_query,
)
from repro.serving.store import (
    ArtifactStore,
    CellReproduction,
    ReproduceReport,
    reproduce_store,
    sweep_from_snapshot,
)

__all__ = [
    "ArtifactStore",
    "CellReproduction",
    "ComputeGate",
    "DEFAULT_CACHE_CAPACITY",
    "LRUCache",
    "QueryEngine",
    "QueryService",
    "ReproduceReport",
    "StoreWatcher",
    "axis_scales",
    "bilinear_answer",
    "cache_key",
    "drain_server",
    "make_query_cache",
    "make_server",
    "normalized_distance",
    "parse_query",
    "reproduce_store",
    "store_signature",
    "sweep_from_snapshot",
]
