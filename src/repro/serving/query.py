"""Parameter-point queries against one sweep artifact store or several.

A store holds aggregates at its sweep's grid points; consumers ask for
arbitrary ``(rho, tau, w)`` points.  :class:`QueryEngine` resolves a query
over the answerable cells of its stores (their union, when there are
several) in a fixed priority order:

1. **Exact match** — a summary cell whose parameters equal the query point
   bit-for-bit returns its stored aggregates unchanged.
2. **Bilinear interpolation** (opt-in) — for a point inside the convex hull
   of the ``(rho, tau)`` grid at an exactly-matching horizon ``w``, the four
   bracketing corner cells are blended with the standard bilinear weights.
   Every interpolated metric is a convex combination of the corner values,
   so it is bounded by the corners' extremes (the property the differential
   test suite asserts).
3. **Nearest cell** — the cell minimising the *normalized Euclidean
   distance* ``d(q, c) = sqrt(sum_a ((q_a - c_a) / s_a)^2)`` over the axes
   ``a in (rho, tau, w)``, where the scale ``s_a`` is the range
   (``max - min``) of axis ``a`` over the store's answerable cells, or 1.0
   for a degenerate axis.  Normalizing by range makes the axes commensurate
   (a horizon step of 1 is not drowned out by a density step of 0.05) and
   depends only on the *set* of cells, so the lookup is deterministic under
   any shuffling of store rows; ties break lexicographically on the cell's
   ``(params, spec_hash)``, never on storage order.  ``max_distance`` can
   bound how far an answer may be from the query.
4. **Miss policy** — with no answer within bounds, ``on_miss="error"``
   raises :class:`~repro.errors.QueryMiss`; ``on_miss="compute"`` schedules
   a fresh simulation of the point (deterministically seeded from the
   store's sweep) and answers from its aggregates.

Resolved answers flow through a bounded thread-safe **single-flight** LRU
cache (:mod:`repro.serving.cache`) keyed on the resolved point and the
store-snapshot generation, so a service under repeated traffic answers from
memory and N concurrent misses on the same point run exactly one
computation; hit/miss/eviction/coalesce counters are exposed via
:meth:`QueryEngine.stats` and the HTTP ``/stats`` endpoint.  Each cache
entry also keeps its answer's JSON once :meth:`QueryEngine.answer_json`
(the HTTP path) has encoded it, so a hot point is encoded once, not on
every request, and an evicted entry takes its encoding with it.

Under load, compute-on-miss admission is bounded by an optional
:class:`~repro.serving.lifecycle.ComputeGate`.  A saturated gate triggers
the **degradation ladder**: the request is answered from the nearest stored
cell flagged ``degraded`` (with a
:class:`~repro.errors.ServingDegradationWarning`, mirroring the sweep
supervisor's pattern); when the store has no cells at all to fall back on,
the request fails with :class:`~repro.errors.ServiceOverload`, which the
HTTP layer maps to ``429`` with ``Retry-After``.  Degraded answers are
never cached — they are a capacity artifact, not the point's true answer.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from typing import Iterable, Optional, Sequence, Union

from repro.errors import (
    DeadlineExceeded,
    QueryMiss,
    ServiceOverload,
    ServingDegradationWarning,
    ServingError,
)
from repro.experiments.io import json_default
from repro.serving.cache import LRUCache, cache_key, make_query_cache
from repro.serving.lifecycle import ComputeGate
from repro.serving.store import ArtifactStore, PathLike, query_spec_for_point

#: Canonical query axes, in documentation order.
AXES = ("rho", "tau", "w")

#: Accepted spellings for each axis (the sweep rows call them
#: ``density``/``tau``/``horizon``; the paper's figures use ``p``/``tau``/``w``).
AXIS_ALIASES = {
    "rho": "rho",
    "density": "rho",
    "p": "rho",
    "tau": "tau",
    "w": "w",
    "horizon": "w",
}

#: Valid values of the engine's miss policy.
ON_MISS_POLICIES = ("error", "compute")


def parse_query(text: str) -> dict[str, float]:
    """Parse ``"rho=0.4,tau=0.55,w=2"`` into a partial axis → value map.

    Accepts the aliases in :data:`AXIS_ALIASES`, rejects unknown axes,
    duplicates and non-numeric values.  Axes may be omitted — the engine
    fills an omitted axis when the store pins it to a single value.
    """

    def terms():
        """Each ``axis=value`` term as a stripped, lower-cased pair."""
        for part in str(text).split(","):
            part = part.strip()
            if not part:
                continue
            name, sep, raw = part.partition("=")
            if not sep:
                raise ServingError(
                    f"query term {part!r} is not of the form axis=value"
                )
            yield name.strip().lower(), raw.strip()

    return _query_terms(terms())


def _query_terms(terms: Iterable[tuple[object, object]]) -> dict[str, float]:
    """The partial point named by ``(axis, value)`` terms of any query.

    Rejects unknown axes, duplicates (aliases included), non-numeric values
    and an empty query, checking the terms in order.
    """
    point: dict[str, float] = {}
    for name, raw in terms:
        axis = AXIS_ALIASES.get(str(name).lower())
        if axis is None:
            known = ", ".join(sorted(AXIS_ALIASES))
            raise ServingError(f"unknown query axis {name!r} (known: {known})")
        if axis in point:
            raise ServingError(f"query names axis {axis!r} more than once")
        try:
            point[axis] = float(raw)
        except (TypeError, ValueError):
            raise ServingError(
                f"query value {raw!r} for axis {axis!r} is not a number"
            ) from None
    if not point:
        raise ServingError("empty query — name at least one axis=value term")
    return point


def axis_scales(cells: list[dict]) -> dict[str, float]:
    """Per-axis normalization scales over the answerable cells.

    ``s_a = max_a - min_a`` over the cells' parameter points, with 1.0 for a
    degenerate axis (single value) so a division never blows up.  A pure
    function of the cell *set* — invariant under storage order, and over
    several stores computed over the union of their cells so the metric is
    commensurate across stores.
    """
    scales: dict[str, float] = {}
    for axis in AXES:
        values = [float(cell["params"][axis]) for cell in cells]
        span = max(values) - min(values) if values else 0.0
        scales[axis] = span if span > 0.0 else 1.0
    return scales


def normalized_distance(
    point: dict[str, float], params: dict, scales: dict[str, float]
) -> float:
    """Normalized Euclidean distance between a query point and a cell."""
    return math.sqrt(
        sum(
            ((point[axis] - float(params[axis])) / scales[axis]) ** 2
            for axis in AXES
        )
    )


def _cell_rank(cell: dict) -> tuple:
    """Deterministic tie-break rank: parameter point, spec hash, then store.

    The trailing store tag (set over several stores, empty for one) makes
    ties deterministic even when two stores hold cells with identical
    parameters and hashes.
    """
    params = cell["params"]
    return (
        float(params["rho"]),
        float(params["tau"]),
        float(params["w"]),
        str(cell.get("spec_hash", "")),
        str(cell.get("store", "")),
    )


def _answer_cell_entry(cell: dict, weight: float) -> dict:
    """One contributing-cell entry of an answer payload."""
    entry = {
        "index": cell.get("index"),
        "name": cell.get("name"),
        "spec_hash": cell.get("spec_hash"),
        "params": cell.get("params"),
        "weight": weight,
    }
    if cell.get("store") is not None:
        entry["store"] = cell["store"]
    return entry


def _blend(corners: list[tuple[float, dict]]) -> dict[str, dict[str, float]]:
    """Convex combination of corner metrics.

    Blends only the metric columns (and per-column stat fields) present in
    *every* contributing corner, so a ragged store cannot produce a value
    that silently mixes populations.
    """
    metric_names = set(corners[0][1]["metrics"])
    for _, cell in corners[1:]:
        metric_names &= set(cell["metrics"])
    blended: dict[str, dict[str, float]] = {}
    for name in sorted(metric_names):
        fields = set(corners[0][1]["metrics"][name])
        for _, cell in corners[1:]:
            fields &= set(cell["metrics"][name])
        blended[name] = {
            field: sum(
                weight * float(cell["metrics"][name][field])
                for weight, cell in corners
            )
            for field in sorted(fields)
        }
    return blended


def bilinear_answer(
    cells: list[dict], point: dict[str, float]
) -> Optional[dict]:
    """Bilinear interpolation over ``(rho, tau)`` at an exact horizon.

    Returns ``None`` unless the store has, at the query's exact ``w``, the
    four grid corners bracketing the query in both ``rho`` and ``tau`` (a
    bracket may be degenerate when the query lies exactly on a grid line).
    The result's metrics are convex combinations of the corner metrics with
    the standard bilinear weights, hence bounded by the corner extremes.
    """
    at_w = {}
    for cell in cells:
        params = cell["params"]
        if float(params["w"]) != point["w"]:
            continue
        key = (float(params["tau"]), float(params["rho"]))
        best = at_w.get(key)
        if best is None or _cell_rank(cell) < _cell_rank(best):
            at_w[key] = cell
    if not at_w:
        return None
    taus = sorted({key[0] for key in at_w})
    rhos = sorted({key[1] for key in at_w})
    tau_lo = max((t for t in taus if t <= point["tau"]), default=None)
    tau_hi = min((t for t in taus if t >= point["tau"]), default=None)
    rho_lo = max((r for r in rhos if r <= point["rho"]), default=None)
    rho_hi = min((r for r in rhos if r >= point["rho"]), default=None)
    if None in (tau_lo, tau_hi, rho_lo, rho_hi):
        return None  # outside the grid's convex hull
    weight_tau = (
        0.0
        if tau_hi == tau_lo
        else (point["tau"] - tau_lo) / (tau_hi - tau_lo)
    )
    weight_rho = (
        0.0
        if rho_hi == rho_lo
        else (point["rho"] - rho_lo) / (rho_hi - rho_lo)
    )
    # Accumulated, not a dict literal: with a degenerate bracket
    # (lo == hi) two corner labels collapse onto one grid point, and their
    # weights must add up rather than overwrite each other.
    corner_weights: dict[tuple[float, float], float] = {}
    for key, weight in (
        ((tau_lo, rho_lo), (1.0 - weight_tau) * (1.0 - weight_rho)),
        ((tau_hi, rho_lo), weight_tau * (1.0 - weight_rho)),
        ((tau_lo, rho_hi), (1.0 - weight_tau) * weight_rho),
        ((tau_hi, rho_hi), weight_tau * weight_rho),
    ):
        corner_weights[key] = corner_weights.get(key, 0.0) + weight
    corners: list[tuple[float, dict]] = []
    for key, weight in corner_weights.items():
        if weight <= 0.0:
            continue
        cell = at_w.get(key)
        if cell is None:
            return None  # ragged grid: a needed corner was never swept
        corners.append((weight, cell))
    if not corners:
        return None
    return {
        "source": "interpolated",
        "metrics": _blend(corners),
        "cells": [
            _answer_cell_entry(cell, weight) for weight, cell in corners
        ],
    }


def _open_json(payload: dict) -> bytes:
    """``payload``'s JSON document without its closing brace.

    An answer's per-call ``cached`` flag is always its last key, so
    appending ``, "cached": true}`` (or ``false``) to this prefix gives
    exactly the bytes ``json.dumps`` gives for the whole answer.
    """
    return json.dumps(payload, default=json_default).encode("utf-8")[:-1]


class _Answer:
    """One resolved answer payload and, once encoded, its open JSON.

    The answer cache holds these, so an entry's encoding lives and dies
    with the entry.  Two threads encoding the same entry at once both
    produce the same bytes, so the unlocked assignment is benign.
    """

    __slots__ = ("payload", "_json")

    def __init__(self, payload: dict) -> None:
        self.payload = payload
        self._json: Optional[bytes] = None

    def open_json(self) -> bytes:
        """The payload's :func:`_open_json` prefix, encoded on first use."""
        if self._json is None:
            self._json = _open_json(self.payload)
        return self._json


class QueryEngine:
    """Cached parameter-point lookups against one artifact store or several.

    ``stores`` is one :class:`~repro.serving.store.ArtifactStore` or store
    directory, or a non-empty sequence of them (held in :attr:`stores`; two
    spellings of one directory are an error).  Several stores serve one
    surface: the union of their cells, each tagged with its store, so the
    distance scales, interpolation brackets and tie-breaks span the union;
    computes route to the store owning the nearest cell (see
    :meth:`_sweep_for_compute`).

    Thread-safe: resolution state is read-only after construction and the
    answer cache takes its own lock, so one engine instance backs the
    threaded HTTP server directly.  An engine is a *snapshot*: it answers
    from the store state it first loaded.  The refresh poller
    (:class:`~repro.serving.lifecycle.StoreWatcher`) replaces the whole
    engine with a successor of the next ``generation`` rather than mutating
    one in place; ``generation`` is folded into every cache key so a shared
    cache never serves a superseded snapshot's answer.
    """

    def __init__(
        self,
        stores: Union[
            ArtifactStore, PathLike, Sequence[Union[ArtifactStore, PathLike]]
        ],
        cache: Optional[LRUCache] = None,
        interpolate: bool = False,
        on_miss: str = "error",
        max_distance: Optional[float] = None,
        gate: Optional[ComputeGate] = None,
        generation: int = 0,
    ) -> None:
        if on_miss not in ON_MISS_POLICIES:
            raise ServingError(
                f"on_miss must be one of {ON_MISS_POLICIES}, got {on_miss!r}"
            )
        # Negated so NaN, which every comparison rejects, is refused too.
        if max_distance is not None and not max_distance >= 0:
            raise ServingError(
                "max_distance must be a non-negative distance (inf for "
                f"unbounded), got {max_distance}"
            )
        if isinstance(stores, (ArtifactStore, str, os.PathLike)):
            stores = [stores]
        self.stores = [
            store if isinstance(store, ArtifactStore) else ArtifactStore(store)
            for store in stores
        ]
        if not self.stores:
            raise ServingError("no store directories given")
        resolved = {store.directory.resolve() for store in self.stores}
        if len(resolved) != len(self.stores):
            raise ServingError(
                "duplicate store directories: "
                f"{[str(store.directory) for store in self.stores]}"
            )
        self.cache = cache if cache is not None else make_query_cache()
        self.interpolate = bool(interpolate)
        self.on_miss = on_miss
        # inf bounds nothing, so it is held (and reported) as None.
        self.max_distance = None if max_distance == math.inf else max_distance
        self.gate = gate
        self.generation = int(generation)

    # ---------------------------------------------------------------- stores

    def answer_cells(self) -> list[dict]:
        """The answerable cells this snapshot resolves against.

        Over several stores, the union of their cells as copies tagged with
        the store's directory (tagging the handles' cached dicts in place
        would leak the tag into other engines sharing a handle).
        """
        if len(self.stores) == 1:
            return self.stores[0].answerable_cells()
        return [
            dict(cell, store=str(store.directory))
            for store in self.stores
            for cell in store.answerable_cells()
        ]

    def _sweep_for_compute(self, point: dict[str, float]):
        """The sweep spec computed answers inherit their parameters from.

        Over several stores: the sweep of the store holding the nearest
        answerable cell, else of the next store (in the order given) able
        to rebuild its sweep; the error names every store's failure when
        none can.
        """
        if len(self.stores) == 1:
            return self.stores[0].sweep()
        ordered = list(self.stores)
        cells = self.answer_cells()
        if cells:
            owner = self._nearest_answer(point, cells)[0]["cells"][0]["store"]
            ordered.sort(key=lambda store: str(store.directory) != owner)
        errors: list[str] = []
        for store in ordered:
            try:
                return store.sweep()
            except ServingError as exc:
                errors.append(f"{store.directory}: {exc}")
        raise ServingError(
            "no federation member can rebuild a sweep to compute "
            f"{point} from: " + "; ".join(errors)
        )

    def _store_stats(self) -> dict:
        """The ``store`` section of :meth:`stats`."""
        entries = [
            {
                "directory": str(store.directory),
                "n_cells": len(store.cells()),
                "n_answerable": len(store.answerable_cells()),
            }
            for store in self.stores
        ]
        if len(entries) == 1:
            return {**entries[0], "generation": self.generation}
        return {
            "federated": True,
            "n_stores": len(entries),
            "n_cells": sum(entry["n_cells"] for entry in entries),
            "n_answerable": sum(entry["n_answerable"] for entry in entries),
            "generation": self.generation,
            "stores": entries,
        }

    def load(self) -> "QueryEngine":
        """Eagerly read the stores so this snapshot never touches disk again.

        Reads every store's manifest (``None`` for a summary-only store) and
        summary, so a compute-on-miss rebuilds its sweep from memory.  The
        refresh poller builds successors with this before swapping them in:
        the (possibly mid-append) disk read happens in the poller thread,
        and requests only ever see fully loaded snapshots.
        """
        for store in self.stores:
            store.manifest  # cached on the handle
        self.answer_cells()
        return self

    # ------------------------------------------------------------ resolution

    def resolve_point(
        self, query: Union[str, dict[str, Union[float, str]]]
    ) -> dict[str, float]:
        """Normalize a query into a full ``{rho, tau, w}`` point.

        String queries go through :func:`parse_query`; dict queries accept
        the same aliases, with numbers or numeric strings as values.  Every
        value must be finite: ``nan`` or ``inf`` is a
        :class:`~repro.errors.ServingError`, as a non-number is.  An
        omitted axis is filled from the store when the answerable cells pin
        it to a single value, and is an error (the query is ambiguous)
        otherwise.
        """
        if isinstance(query, str):
            partial = parse_query(query)
        else:
            partial = _query_terms(dict(query).items())
        for axis, value in partial.items():
            if not math.isfinite(value):
                raise ServingError(
                    f"query value {value!r} for axis {axis!r} is not finite"
                )
        point: dict[str, float] = {}
        for axis in AXES:
            if axis in partial:
                point[axis] = partial[axis]
                continue
            pinned = {
                float(cell["params"][axis]) for cell in self.answer_cells()
            }
            if len(pinned) == 1:
                point[axis] = pinned.pop()
            else:
                raise ServingError(
                    f"query omits axis {axis!r} and the store does not pin "
                    f"it to a single value ({len(pinned)} distinct values) "
                    "— specify it explicitly"
                )
        return point

    def _nearest_answer(
        self, point: dict[str, float], cells: list[dict]
    ) -> tuple[dict, float]:
        """The nearest-cell answer payload and its normalized distance."""
        scales = axis_scales(cells)
        nearest = min(
            cells,
            key=lambda cell: (
                normalized_distance(point, cell["params"], scales),
                _cell_rank(cell),
            ),
        )
        distance = normalized_distance(point, nearest["params"], scales)
        answer = {
            "point": point,
            "source": "nearest",
            "distance": distance,
            "metrics": nearest["metrics"],
            "cells": [_answer_cell_entry(nearest, 1.0)],
        }
        return answer, distance

    def _lookup(self, point: dict[str, float], interpolate: bool) -> dict:
        """Resolve one full point against the store (uncached)."""
        cells = self.answer_cells()
        if not cells:
            return self._miss(point, "the store has no answerable cells")
        for cell in sorted(cells, key=_cell_rank):
            params = cell["params"]
            if all(float(params[axis]) == point[axis] for axis in AXES):
                return {
                    "point": point,
                    "source": "exact",
                    "distance": 0.0,
                    "metrics": cell["metrics"],
                    "cells": [_answer_cell_entry(cell, 1.0)],
                }
        if interpolate:
            answer = bilinear_answer(cells, point)
            if answer is not None:
                answer["point"] = point
                answer["distance"] = None
                return answer
        answer, distance = self._nearest_answer(point, cells)
        if self.max_distance is not None and distance > self.max_distance:
            return self._miss(
                point,
                f"nearest cell is at normalized distance {distance:.4f}, "
                f"beyond the allowed {self.max_distance}",
            )
        return answer

    def _miss(self, point: dict[str, float], reason: str) -> dict:
        """Apply the miss policy: raise, or compute the point fresh."""
        if self.on_miss != "compute":
            raise QueryMiss(
                f"no stored answer for {point} ({reason}); rerun with "
                "on_miss='compute' to simulate the point"
            )
        return self._compute(point)

    def _compute(self, point: dict[str, float]) -> dict:
        """Simulate the queried point, bounded by the compute gate."""
        if self.gate is None:
            return self._compute_ungated(point)
        if not self.gate.admit():
            # Not yet counted: answer() classifies the overload as exactly
            # one degraded fallback or one rejection.
            raise ServiceOverload(
                f"compute capacity exhausted ({self.gate.limit} concurrent "
                f"simulation(s) already running) for {point}",
                retry_after=self.gate.retry_after,
            )
        try:
            return self._compute_ungated(point)
        finally:
            self.gate.release()

    def _compute_ungated(self, point: dict[str, float]) -> dict:
        """Simulate the queried point and answer from fresh aggregates."""
        from repro.experiments.checkpoint import VOLATILE_ROW_COLUMNS
        from repro.experiments.results import ResultTable
        from repro.experiments.runner import run_experiment

        sweep = self._sweep_for_compute(point)
        w = point["w"]
        if w != int(w):
            raise ServingError(
                f"cannot compute a non-integer horizon w={w!r}"
            )
        spec = query_spec_for_point(
            sweep, tau=point["tau"], rho=point["rho"], w=int(w)
        )
        # Wall-clock columns are stripped so a computed answer is a pure
        # function of (store, point) — rerunning the query reproduces it.
        table = ResultTable(
            [
                {
                    key: value
                    for key, value in row.items()
                    if key not in VOLATILE_ROW_COLUMNS
                }
                for row in run_experiment(spec).rows
            ]
        )
        return {
            "point": point,
            "source": "computed",
            "distance": None,
            "metrics": table.numeric_summary(),
            "cells": [
                {
                    "index": None,
                    "name": spec.name,
                    "spec_hash": None,
                    "params": dict(point),
                    "weight": 1.0,
                }
            ],
        }

    def _degrade(self, point: dict[str, float]) -> Optional[dict]:
        """The overload fallback: nearest stored cell, flagged ``degraded``.

        Ignores ``max_distance`` on purpose — under overload a far answer
        honestly flagged beats a 429 — and is never cached.  Returns
        ``None`` when the store holds nothing to fall back on.
        """
        cells = self.answer_cells()
        if not cells:
            return None
        answer, _ = self._nearest_answer(point, cells)
        answer["degraded"] = True
        return answer

    def _resolve(
        self,
        query: Union[str, dict[str, Union[float, str]]],
        interpolate: Optional[bool],
        deadline: Optional[float],
    ) -> tuple[_Answer, bool]:
        """The answer to ``query`` and whether the cache already held it.

        The one resolve path behind :meth:`answer` and :meth:`answer_json`.
        A degraded fallback is a fresh, uncached :class:`_Answer`.
        """
        use_interpolation = (
            self.interpolate if interpolate is None else bool(interpolate)
        )
        point = self.resolve_point(query)
        key = cache_key(point, use_interpolation, self.generation)
        try:
            entry, outcome = self.cache.get_or_compute(
                key,
                lambda: _Answer(self._lookup(point, use_interpolation)),
                timeout=deadline,
            )
        except ServiceOverload:
            fallback = self._degrade(point)
            if fallback is None:
                if self.gate is not None:
                    self.gate.note_rejected()
                raise
            if self.gate is not None:
                self.gate.note_degraded()
            warnings.warn(
                ServingDegradationWarning(
                    f"compute gate saturated: answered {point} from the "
                    "nearest stored cell (flagged degraded) instead of "
                    "simulating it"
                ),
                stacklevel=3,
            )
            return _Answer(fallback), False
        except DeadlineExceeded:
            if self.gate is not None:
                self.gate.note_timeout()
            raise
        return entry, outcome == "hit"

    # ---------------------------------------------------------------- public

    def answer(
        self,
        query: Union[str, dict[str, Union[float, str]]],
        interpolate: Optional[bool] = None,
        deadline: Optional[float] = None,
    ) -> dict:
        """Answer a query through the single-flight cache.

        Returns the answer payload (point, source, contributing cells,
        metrics) plus a ``cached`` flag for this call.  Concurrent misses on
        the same resolved point share one computation; ``deadline`` bounds
        (in seconds) how long this request may wait on another request's
        in-flight computation, raising
        :class:`~repro.errors.DeadlineExceeded` on expiry.  Misses under
        ``on_miss="error"`` raise :class:`~repro.errors.QueryMiss` and are
        never cached; computed answers are cached like any other.  When the
        compute gate is saturated the degradation ladder applies (see the
        module docstring).
        """
        entry, cached = self._resolve(query, interpolate, deadline)
        answer = dict(entry.payload)
        answer["cached"] = cached
        return answer

    def answer_json(
        self,
        query: Union[str, dict[str, Union[float, str]]],
        interpolate: Optional[bool] = None,
        deadline: Optional[float] = None,
    ) -> bytes:
        """:meth:`answer` as the JSON the HTTP layer sends.

        Byte for byte ``json.dumps(self.answer(...), default=json_default)``
        encoded as UTF-8, with the same cache accounting and errors.  A
        cached answer is encoded on its first call here and reused by
        every later one; a degraded answer is encoded on each call.
        """
        entry, cached = self._resolve(query, interpolate, deadline)
        flag = b', "cached": true}' if cached else b', "cached": false}'
        return entry.open_json() + flag

    def stats(self) -> dict:
        """Cache counters plus store and policy descriptors (for ``/stats``)."""
        stats = {
            "cache": self.cache.stats(),
            "store": self._store_stats(),
            "policy": {
                "interpolate": self.interpolate,
                "on_miss": self.on_miss,
                "max_distance": self.max_distance,
            },
        }
        if self.gate is not None:
            stats["compute"] = self.gate.stats()
        return stats
