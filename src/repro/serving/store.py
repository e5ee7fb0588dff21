"""Read-side handle on a sweep artifact store, plus ``repro reproduce``.

A checkpointed sweep leaves a directory with ``manifest.json`` (provenance:
config snapshot, seeds, versions, per-cell spec hashes), ``metrics.jsonl``
(raw replicate rows, streamed as cells completed) and ``summary.json``
(per-cell aggregates — written at sweep completion, regenerable offline).
:class:`ArtifactStore` wraps such a directory for the serving layer: it loads
the summary (deriving it in memory when the file is absent) and rebuilds the
original :class:`~repro.experiments.spec.SweepSpec` from the manifest
snapshot.

On top of that sits **reproduction**: :func:`reproduce_store` re-executes any
recorded cell from nothing but the manifest — the snapshot expands back into
frozen specs, each spec re-derives its replicate seeds, and the regenerated
rows are compared against the stored ones column by column.  Everything a row
contains is pinned by the spec hash except wall-clock timings
(:data:`~repro.experiments.checkpoint.VOLATILE_ROW_COLUMNS`), so the
comparison is *bitwise*: a single differing bit in any stored value is a
named diff and a non-zero exit from ``repro reproduce``.  This turns every
archived sweep into a regression test — rerun the reproduction after any
engine change and the store itself asserts nothing drifted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.core.variants import VariantSpec
from repro.errors import ServingError
from repro.experiments.checkpoint import (
    MANIFEST_NAME,
    VOLATILE_ROW_COLUMNS,
    load_manifest,
    load_summary,
    scan_records,
    summarize_store,
)
from repro.experiments.io import config_from_dict, json_default
from repro.experiments.spec import ExperimentSpec, SweepSpec, spec_hash
from repro.types import VariantKind

PathLike = Union[str, Path]

#: Derived :class:`~repro.core.config.ModelConfig` fields a manifest snapshot
#: carries (``dataclasses.asdict`` keeps them) but the constructor recomputes.
_DERIVED_CONFIG_FIELDS = ("neighborhood_agents", "happiness_threshold")


def resolve_store_path(path: PathLike) -> Path:
    """The store directory for ``path`` — a directory or its manifest file.

    ``repro reproduce`` accepts either spelling (the ISSUE contract names the
    manifest; operators usually have the directory).
    """
    path = Path(path)
    if path.name == MANIFEST_NAME:
        return path.parent
    return path


def sweep_from_snapshot(snapshot: object) -> SweepSpec:
    """Rebuild the executable :class:`SweepSpec` from a manifest snapshot.

    The snapshot is ``dataclasses.asdict(sweep)`` JSON-roundtripped (enums as
    their values), so the inverse rebuilds the nested ``ModelConfig`` and
    ``VariantSpec`` and re-freezes the dataclass.  Raises
    :class:`~repro.errors.ServingError` for stores written without a usable
    snapshot (e.g. a duck-typed sweep recorded only by ``repr``): such stores
    remain queryable, but cannot be reproduced.
    """
    if not isinstance(snapshot, dict) or "base_config" not in snapshot:
        raise ServingError(
            "the manifest's sweep snapshot is missing or not a full "
            "SweepSpec serialisation — this store cannot be re-executed"
        )
    try:
        config_data = {
            key: value
            for key, value in dict(snapshot["base_config"]).items()
            if key not in _DERIVED_CONFIG_FIELDS
        }
        base_config = config_from_dict(config_data)
        variant_data = snapshot.get("variant") or {}
        variant = VariantSpec(
            kind=VariantKind(variant_data.get("kind", "base")),
            tau_high=variant_data.get("tau_high"),
            tau_minus=variant_data.get("tau_minus"),
        )
        return SweepSpec(
            name=snapshot["name"],
            base_config=base_config,
            taus=tuple(snapshot.get("taus") or ()),
            horizons=tuple(snapshot.get("horizons") or ()),
            densities=tuple(snapshot.get("densities") or ()),
            n_replicates=snapshot.get("n_replicates", 3),
            seed=snapshot.get("seed", 0),
            max_flips=snapshot.get("max_flips"),
            max_steps=snapshot.get("max_steps"),
            max_region_radius=snapshot.get("max_region_radius"),
            record_trajectory=snapshot.get("record_trajectory", False),
            record_every=snapshot.get("record_every", 100),
            variant=variant,
            backend=snapshot.get("backend"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ServingError(
            f"the manifest's sweep snapshot could not be rebuilt into a "
            f"SweepSpec: {type(exc).__name__}: {exc}"
        ) from exc


class ArtifactStore:
    """Read-side handle on one checkpoint directory.

    Loads lazily and caches: the manifest, the parsed ``summary.json``
    (derived in memory via :func:`summarize_store` when the file is absent
    or stale-formatted, so a store that was never summarised is still
    queryable) and the rebuilt sweep spec.  All reads are snapshot-at-open:
    a long-lived query service re-opens the store to observe cells appended
    by a concurrently running sweep.
    """

    def __init__(
        self, directory: PathLike, trust_summary: bool = True
    ) -> None:
        self.directory = resolve_store_path(directory)
        if not self.directory.is_dir():
            raise ServingError(f"{self.directory} is not a directory")
        #: With ``trust_summary=False`` the on-disk ``summary.json`` is
        #: ignored and aggregates are always re-derived from the records
        #: that pass the line-level integrity checks — the ``repro serve
        #: --allow-damaged`` mode, which serves only verified-clean cells.
        self.trust_summary = bool(trust_summary)
        self._manifest: Optional[dict] = None
        self._manifest_loaded = False
        self._summary: Optional[dict] = None

    # ------------------------------------------------------------- artifacts

    @property
    def manifest(self) -> Optional[dict]:
        """The parsed manifest, or ``None`` when missing/foreign/corrupt."""
        if not self._manifest_loaded:
            self._manifest = load_manifest(self.directory)
            self._manifest_loaded = True
        return self._manifest

    def summary(self) -> dict:
        """The store's summary payload (from disk, else derived in memory)."""
        if self._summary is None and self.trust_summary:
            self._summary = load_summary(self.directory)
        if self._summary is None:
            self._summary = summarize_store(self.directory)
        return self._summary

    # ----------------------------------------------------------------- cells

    def cells(self) -> list[dict]:
        """Every summary cell entry, in manifest (or record) order."""
        return list(self.summary().get("cells") or [])

    def answerable_cells(self) -> list[dict]:
        """Summary cells that can answer parameter queries.

        A cell qualifies when it has aggregated metrics and a parsed
        ``(tau, w, rho)`` parameter point — quarantined failures and
        never-recorded cells are excluded.
        """
        return [
            cell
            for cell in self.cells()
            if cell.get("metrics") and isinstance(cell.get("params"), dict)
        ]

    def sweep(self) -> SweepSpec:
        """The original sweep, rebuilt from the manifest snapshot."""
        if self.manifest is None:
            raise ServingError(
                f"{self.directory / MANIFEST_NAME} is missing or unreadable "
                "— cannot rebuild the sweep"
            )
        return sweep_from_snapshot(self.manifest.get("sweep"))


# ------------------------------------------------------------- reproduction


def canonical_rows(rows: list[dict[str, object]]) -> list[dict[str, object]]:
    """Rows coerced exactly as the checkpoint writer persists them.

    Regenerated rows carry numpy scalars; stored rows went through JSON.
    One round-trip through the shared ``json_default`` hook puts both sides
    in the same representation, so ``==`` on the result is a bitwise
    comparison of what the store actually holds (Python's JSON float
    round-trip is exact).
    """
    return json.loads(json.dumps(rows, default=json_default))


def comparable_rows(rows: list[dict[str, object]]) -> list[dict[str, object]]:
    """Canonical rows with the volatile (wall-clock) columns stripped."""
    return [
        {
            key: value
            for key, value in row.items()
            if key not in VOLATILE_ROW_COLUMNS
        }
        for row in canonical_rows(rows)
    ]


def diff_rows(
    stored: list[dict[str, object]],
    regenerated: list[dict[str, object]],
    max_diffs: int = 5,
) -> list[dict[str, object]]:
    """Named value-level differences between two comparable row lists.

    Each diff names the replicate row, the column and both values; the list
    is truncated at ``max_diffs`` entries (a count diff is always first when
    the row counts disagree).  Empty means bitwise identical.
    """
    diffs: list[dict[str, object]] = []
    if len(stored) != len(regenerated):
        diffs.append(
            {
                "row": None,
                "column": "<row count>",
                "stored": len(stored),
                "regenerated": len(regenerated),
            }
        )
    for row_index, (old, new) in enumerate(zip(stored, regenerated)):
        for column in list(old.keys()) + [k for k in new if k not in old]:
            stored_value = old.get(column, "<absent>")
            new_value = new.get(column, "<absent>")
            if stored_value != new_value or type(stored_value) is not type(
                new_value
            ):
                diffs.append(
                    {
                        "row": row_index,
                        "column": column,
                        "stored": stored_value,
                        "regenerated": new_value,
                    }
                )
                if len(diffs) >= max_diffs:
                    return diffs
    return diffs


@dataclass
class CellReproduction:
    """Verdict of reproducing one manifest cell against its stored rows."""

    index: int
    name: str
    spec_hash: str
    #: ``match`` | ``mismatch`` | ``backend-drift`` | ``spec-drift`` |
    #: ``missing`` | ``recorded-failure``
    status: str
    detail: str = ""
    diffs: list = field(default_factory=list)

    @property
    def damaged(self) -> bool:
        """Whether this verdict should fail ``repro reproduce``.

        ``missing`` (never recorded — an interrupted sweep) and
        ``recorded-failure`` (quarantined, reported verbatim) are honest
        store states, not reproduction failures.  ``backend-drift`` is a
        mismatch whose record was produced by a *different* flip-loop
        backend than the one reproducing it — still a failure (backends are
        pinned bitwise identical, so even then rows must match), but named,
        so the operator immediately sees the one variable that changed.
        """
        return self.status in ("mismatch", "spec-drift", "backend-drift")


@dataclass
class ReproduceReport:
    """Outcome of :func:`reproduce_store` across the selected cells."""

    directory: str
    results: list[CellReproduction]

    @property
    def ok(self) -> bool:
        """True when no selected cell mismatched or drifted."""
        return not any(result.damaged for result in self.results)

    def counts(self) -> dict[str, int]:
        """Number of cells per verdict status."""
        counts: dict[str, int] = {}
        for result in self.results:
            counts[result.status] = counts.get(result.status, 0) + 1
        return counts

    def as_dict(self) -> dict[str, object]:
        """JSON-friendly report (what ``repro reproduce`` prints)."""
        return {
            "directory": self.directory,
            "ok": self.ok,
            "counts": self.counts(),
            "cells": [
                {
                    "index": result.index,
                    "name": result.name,
                    "spec_hash": result.spec_hash,
                    "status": result.status,
                    "detail": result.detail,
                    "diffs": result.diffs,
                }
                for result in self.results
            ],
        }


def _manifest_cell_entries(manifest: dict, n_cells: int) -> list[dict]:
    """The manifest's per-cell entries, validated against the expanded count."""
    entries = manifest.get("cells")
    if not isinstance(entries, list) or any(
        not isinstance(entry, dict) for entry in entries
    ):
        raise ServingError("the manifest's cell list is missing or malformed")
    if len(entries) != n_cells:
        raise ServingError(
            f"the manifest lists {len(entries)} cells but its sweep snapshot "
            f"expands to {n_cells} — the manifest is internally inconsistent"
        )
    return entries


def reproduce_store(
    directory: PathLike,
    cell: Optional[str] = None,
    ensemble_size: Optional[int] = None,
    max_diffs: int = 5,
    backend: Optional[str] = None,
) -> ReproduceReport:
    """Re-execute recorded cells from the manifest and compare rows bitwise.

    For every selected cell (all of them, or the one named ``cell``): the
    manifest snapshot is expanded back into the cell's frozen spec, its
    content hash is checked against the manifest's recorded hash (a
    mismatch is ``spec-drift`` — the manifest was edited or the library's
    row-determining behaviour changed), the cell is re-run through the
    ordinary runner, and the regenerated rows are compared against the
    stored record with :func:`diff_rows` (wall-clock columns excluded, all
    else bitwise).  Quarantined cells report their recorded failure;
    never-recorded cells report ``missing``.  ``ensemble_size`` picks the
    engine as :func:`~repro.experiments.runner.run_experiment` does (the
    lockstep ensemble by default, the scalar engine for ``1``) — rows are
    engine-independent, so reproduction under either engine must (and does)
    match.  ``backend`` requests a flip-loop backend for ensemble
    reproduction (full CLI > env > spec > auto precedence); backends are
    likewise bitwise-pinned, but when rows *do* differ and the record names
    a different backend than the one that reproduced it, the verdict is the
    named ``backend-drift`` diagnostic rather than a bare ``mismatch``.
    """
    directory = resolve_store_path(directory)
    store = ArtifactStore(directory)
    if store.manifest is None:
        raise ServingError(
            f"{directory / MANIFEST_NAME} is missing or unreadable — "
            "reproduction needs the provenance manifest"
        )
    sweep = sweep_from_snapshot(store.manifest.get("sweep"))
    cells = list(sweep.cells())
    entries = _manifest_cell_entries(store.manifest, len(cells))
    records = scan_records(directory)

    selected = list(range(len(cells)))
    if cell is not None:
        selected = [i for i in selected if cells[i].name == cell]
        if not selected:
            known = ", ".join(spec.name for spec in cells)
            raise ServingError(
                f"no manifest cell is named {cell!r} (cells: {known})"
            )

    # Imported here: reproduction is the only store operation that needs the
    # execution engine, and the serving layer stays import-light without it.
    from repro.experiments.runner import resolve_engine, run_experiment

    # The engine reproducing the rows, resolved as the sweep pool resolves
    # it — compared against each record's provenance to tell backend drift
    # apart from a bare mismatch.
    effective_backend = resolve_engine(ensemble_size, backend, sweep.backend)
    manifest_backend = store.manifest.get("backend")

    results: list[CellReproduction] = []
    for index in selected:
        spec = cells[index]
        regenerated_hash = spec_hash(spec)
        recorded_hash = entries[index].get("spec_hash")
        if recorded_hash != regenerated_hash:
            results.append(
                CellReproduction(
                    index=index,
                    name=spec.name,
                    spec_hash=str(recorded_hash),
                    status="spec-drift",
                    detail=(
                        f"manifest records spec_hash {recorded_hash} but the "
                        f"manifest's own sweep snapshot regenerates "
                        f"{regenerated_hash} — the snapshot and the cell "
                        "list disagree (manifest edited, or the library's "
                        "row-determining behaviour changed)"
                    ),
                )
            )
            continue
        record = records.get(regenerated_hash)
        if record is None:
            results.append(
                CellReproduction(
                    index=index,
                    name=spec.name,
                    spec_hash=regenerated_hash,
                    status="missing",
                    detail="no rows recorded (interrupted sweep?); nothing "
                    "to compare against",
                )
            )
            continue
        if not isinstance(record.get("rows"), list):
            failure = record.get("failure") or {}
            results.append(
                CellReproduction(
                    index=index,
                    name=spec.name,
                    spec_hash=regenerated_hash,
                    status="recorded-failure",
                    detail=(
                        "the sweep quarantined this cell after "
                        f"{failure.get('attempts', '?')} attempt(s): "
                        f"{failure.get('error', 'unknown error')}"
                    ),
                )
            )
            continue
        stored = comparable_rows(record["rows"])
        fresh = comparable_rows(
            run_experiment(
                spec, ensemble_size=ensemble_size, backend=effective_backend
            ).rows
        )
        diffs = diff_rows(stored, fresh, max_diffs=max_diffs)
        if diffs:
            recorded_backend = record.get("backend") or manifest_backend
            if (
                isinstance(recorded_backend, str)
                and recorded_backend != effective_backend
            ):
                results.append(
                    CellReproduction(
                        index=index,
                        name=spec.name,
                        spec_hash=regenerated_hash,
                        status="backend-drift",
                        detail=(
                            f"rows were recorded by the "
                            f"{recorded_backend!r} backend but reproduced by "
                            f"{effective_backend!r}, and {len(diffs)} "
                            f"value(s) differ (showing at most {max_diffs}) "
                            "— backends are pinned bitwise identical, so "
                            "one of them violates the pin"
                        ),
                        diffs=diffs,
                    )
                )
                continue
            results.append(
                CellReproduction(
                    index=index,
                    name=spec.name,
                    spec_hash=regenerated_hash,
                    status="mismatch",
                    detail=f"{len(diffs)} differing value(s) "
                    f"(showing at most {max_diffs})",
                    diffs=diffs,
                )
            )
        else:
            results.append(
                CellReproduction(
                    index=index,
                    name=spec.name,
                    spec_hash=regenerated_hash,
                    status="match",
                )
            )
    return ReproduceReport(directory=str(directory), results=results)


def query_spec_for_point(
    sweep: SweepSpec, tau: float, rho: float, w: int
) -> ExperimentSpec:
    """The spec ``on_miss="compute"`` runs for an off-grid parameter point.

    Inherits everything except the swept parameters from the store's sweep
    (replicates, budgets, variant, measurement knobs) so a computed answer
    is methodologically comparable to the stored cells.  The seed is derived
    deterministically from the sweep seed and the point, so the same query
    against the same store always computes the same answer.
    """
    import hashlib

    config = (
        sweep.base_config.with_horizon(int(w)).with_tau(tau).with_density(rho)
    )
    payload = json.dumps(
        {"seed": sweep.seed, "tau": tau, "rho": rho, "w": int(w)},
        sort_keys=True,
    )
    seed = int.from_bytes(
        hashlib.sha256(payload.encode("utf-8")).digest()[:8], "big"
    ) % (2**63)
    return ExperimentSpec(
        name=f"query[w={int(w)},tau={tau:.4f},p={rho:.3f}]",
        config=config,
        n_replicates=sweep.n_replicates,
        seed=seed,
        max_flips=sweep.max_flips,
        max_steps=sweep.max_steps,
        max_region_radius=sweep.max_region_radius,
        record_trajectory=sweep.record_trajectory,
        record_every=sweep.record_every,
        variant=sweep.variant,
    )
