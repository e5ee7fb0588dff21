"""Checkpointed sweep artifacts: a manifest plus a streamed metrics log.

Every checkpointed sweep run owns an artifact directory with two files,
following the artifact checklist the ROADMAP adopts (manifest + streamed raw
measurements):

``manifest.json``
    Written once, before any cell runs: format tag, library/interpreter
    versions, a snapshot of the sweep specification, and the expanded cell
    list — each cell's index, name, seed and content hash
    (:func:`~repro.experiments.spec.spec_hash`).  The manifest is provenance:
    a table found later can be traced to the exact parameters and code that
    produced it.

``metrics.jsonl``
    One JSON line per *completed* cell, appended (and flushed) the moment the
    sweep's in-order collector flushes that cell, carrying the cell's spec
    hash and its raw rows.  Appending line-by-line makes the log crash-safe:
    a killed run leaves at most one torn trailing line, which the loader
    skips.  Since store format v2 every line is *self-verifying*: it ends
    with a ``crc32`` field computed over the rest of the record, so a line
    that parses but was bit-flipped on disk (or hand-edited) is detected and
    dropped rather than resumed from.  Quarantined cells (``on_error="skip"``
    exhausting its retries) are recorded too, as lines carrying a
    ``failure`` object instead of ``rows`` — provenance for the operator;
    resume reruns those cells.

``summary.json``
    Per-cell aggregates — mean/std/min/max and a normal confidence interval
    for every numeric row column, over the cell's replicates — written by
    :func:`write_summary` when a checkpointed sweep completes, and derivable
    offline from any ``manifest.json`` + ``metrics.jsonl`` pair via
    :func:`summarize_store` (``repro summarize``).  This is the read-side
    artifact: the serving layer (:mod:`repro.serving`) answers queries from
    it without touching raw rows, so heavy read traffic never pays
    aggregation cost.  The file is derived state — deleting it loses
    nothing; rerunning ``repro summarize`` regenerates it byte-for-byte.

Resume is keyed purely by spec hash: :class:`SweepCheckpoint` loads every
recorded ``(spec_hash, rows)`` pair and a rerun skips exactly the cells whose
current hash has a record.  Because the hash pins every row-determining
parameter (config, seeds, budgets, variant, even the cell name — it is a row
column), a resumed table is row-for-row identical to an uninterrupted run, up
to the wall-clock columns captured when each cell actually ran.  Changing any
sweep parameter changes the hashes, so stale records are ignored rather than
mixed in.

The module-level :func:`verify_store` / :func:`repair_store` audit a store
without constructing a sweep: verify classifies every line (valid, legacy
pre-CRC, torn tail, corrupt, CRC mismatch, duplicate, orphan) against the
manifest and returns a machine-readable report; repair atomically rewrites
``metrics.jsonl`` down to its longest valid prefix so a damaged store
becomes resumable again with zero risk of resuming from corrupt rows.  Both
are exposed as ``repro checkpoint verify|repair`` CLI subcommands.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import tempfile
import warnings
import zlib
from pathlib import Path
from typing import Optional, Union

from repro._version import __version__
from repro.errors import CheckpointWarning, ExperimentError
from repro.experiments.io import json_default
from repro.experiments.spec import ExperimentSpec, spec_hash

PathLike = Union[str, Path]

#: Format tag stamped into (and required of) every checkpoint manifest.
MANIFEST_FORMAT = "repro-sweep-checkpoint"
MANIFEST_NAME = "manifest.json"
METRICS_NAME = "metrics.jsonl"

#: Store format version stamped into new manifests.  Version 2 added the
#: per-line ``crc32`` field; version-1 lines (no CRC) are still loaded.
STORE_VERSION = 2

#: Format tag stamped into (and required of) every ``summary.json``.
SUMMARY_FORMAT = "repro-sweep-summary"
SUMMARY_NAME = "summary.json"

#: Row columns that legitimately differ between two runs of the same cell —
#: wall-clock timings captured when the cell actually executed.  Everything
#: else is pinned by the spec hash, which is what makes ``repro reproduce``'s
#: bitwise row comparison (:mod:`repro.serving.store`) well-defined.
VOLATILE_ROW_COLUMNS = frozenset({"wall_clock_seconds"})


def _canonical_payload(record: dict) -> dict:
    """``record`` with every exotic value coerced as the writer would coerce it.

    A JSON round-trip through the shared ``json_default`` hook turns numpy
    scalars/enums into the plain values a later reader will parse, so the
    CRC computed over the canonical form verifies bytes the reader can
    actually reproduce.
    """
    return json.loads(
        json.dumps(record, separators=(",", ":"), default=json_default)
    )


def encode_record_line(record: dict) -> bytes:
    """Serialise one metrics record as a self-verifying JSONL line.

    The ``crc32`` field is appended *last*, computed over the compact
    serialisation of everything before it; :func:`verify_record_crc` checks
    it by re-serialising the parsed record minus the field.  Both sides use
    ``json.dumps`` with the same separators, and dict order survives the
    round-trip, so the check is byte-exact.
    """
    payload = _canonical_payload(record)
    body = json.dumps(payload, separators=(",", ":"))
    payload["crc32"] = zlib.crc32(body.encode("utf-8"))
    return json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"


def verify_record_crc(record: dict) -> Optional[bool]:
    """CRC verdict for a parsed record: ``True``/``False``, ``None`` if legacy.

    ``None`` means the record predates store format v2 and carries no
    ``crc32`` field — acceptable, but reported by :func:`verify_store`.
    """
    if "crc32" not in record:
        return None
    crc = record["crc32"]
    rest = {key: value for key, value in record.items() if key != "crc32"}
    body = json.dumps(rest, separators=(",", ":"))
    return isinstance(crc, int) and zlib.crc32(body.encode("utf-8")) == crc


def _sweep_snapshot(sweep: object) -> object:
    """Best-effort JSON snapshot of the sweep spec for the manifest.

    Dataclass sweeps (the normal case) serialise field-for-field; anything
    else — tests sometimes pass duck-typed sweeps — degrades to ``repr``.
    Provenance only: resume never reads the snapshot.
    """
    if dataclasses.is_dataclass(sweep) and not isinstance(sweep, type):
        return dataclasses.asdict(sweep)
    return {"repr": repr(sweep)}


class SweepCheckpoint:
    """Artifact directory handle for one (possibly resumed) sweep run.

    Constructing the handle prepares the directory: it creates it if needed,
    validates or writes ``manifest.json``, and loads every completed cell
    record from ``metrics.jsonl``.  The sweep runner then asks for
    :meth:`resumed_rows` up front and calls :meth:`record` once per newly
    completed cell, in cell order, as the in-order collector flushes it.
    """

    def __init__(
        self,
        directory: PathLike,
        cells: list[ExperimentSpec],
        sweep: Optional[object] = None,
        backend: Optional[str] = None,
    ) -> None:
        #: Resolved flip-loop backend name executing this run's cells
        #: (``"scalar"`` when the scalar engine runs them, under
        #: ``ensemble_size=1``).  Provenance only:
        #: rows are backend-invariant, so resume ignores it, but the manifest
        #: and each newly recorded cell carry it so ``repro reproduce`` can
        #: name backend drift when rows unexpectedly differ.
        self.backend = backend
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.manifest_path = self.directory / MANIFEST_NAME
        self.metrics_path = self.directory / METRICS_NAME
        self.cell_hashes = [spec_hash(cell) for cell in cells]
        self._completed: dict[str, list[dict[str, object]]] = {}
        self._failures: dict[str, dict[str, object]] = {}
        if self.metrics_path.exists():
            self._load_metrics()
        self._check_or_write_manifest(cells, sweep)

    # ------------------------------------------------------------- load side

    def _load_metrics(self) -> None:
        """Parse ``metrics.jsonl``, tolerating torn lines.

        A run killed mid-append leaves a line that is not valid JSON —
        usually the trailing one, but :meth:`record` terminates an inherited
        torn tail before appending, so a twice-interrupted log can carry an
        invalid line mid-file.  Invalid lines (not JSON, or JSON that is not
        an object) and CRC-mismatched lines are skipped individually *with
        a* :class:`~repro.errors.CheckpointWarning`
        *naming the file, line number and byte count dropped* — a lossy
        resume must be distinguishable from a clean one; every line that
        parses and verifies is a whole record (they are flushed
        line-atomically), and a skipped cell simply reruns.
        """
        for number, line in enumerate(
            self.metrics_path.read_text().splitlines(), start=1
        ):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                self._warn_dropped(number, line, "not valid JSON (torn line?)")
                continue
            if not isinstance(record, dict):
                self._warn_dropped(number, line, "not a JSON object")
                continue
            if verify_record_crc(record) is False:
                self._warn_dropped(number, line, "CRC32 mismatch (corrupt)")
                continue
            cell_hash = record.get("spec_hash")
            rows = record.get("rows")
            failure = record.get("failure")
            if isinstance(cell_hash, str) and isinstance(rows, list):
                self._completed[cell_hash] = rows
            elif isinstance(cell_hash, str) and isinstance(failure, dict):
                self._failures[cell_hash] = failure

    def _warn_dropped(self, number: int, line: str, reason: str) -> None:
        """Warn that one metrics line was dropped, with its identity."""
        warnings.warn(
            f"{self.metrics_path}: dropping line {number} "
            f"({len(line.encode('utf-8'))} bytes): {reason}; "
            "the affected cell will rerun on resume",
            CheckpointWarning,
            stacklevel=3,
        )

    def _check_or_write_manifest(
        self, cells: list[ExperimentSpec], sweep: Optional[object]
    ) -> None:
        """Validate an existing manifest's format tag, or write a fresh one."""
        if self.manifest_path.exists():
            try:
                manifest = json.loads(self.manifest_path.read_text())
            except ValueError as exc:
                raise ExperimentError(
                    f"{self.manifest_path} is not valid JSON: {exc}"
                ) from exc
            if (
                not isinstance(manifest, dict)
                or manifest.get("format") != MANIFEST_FORMAT
            ):
                raise ExperimentError(
                    f"{self.manifest_path} is not a {MANIFEST_FORMAT} manifest "
                    "— refusing to resume into a foreign directory"
                )
            return
        import numpy

        manifest = {
            "format": MANIFEST_FORMAT,
            "version": STORE_VERSION,
            "library_version": __version__,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "sweep": _sweep_snapshot(sweep) if sweep is not None else None,
            "backend": self.backend,
            "n_cells": len(cells),
            "cells": [
                {
                    "index": index,
                    "name": cell.name,
                    "seed": cell.seed,
                    "spec_hash": cell_hash,
                }
                for index, (cell, cell_hash) in enumerate(
                    zip(cells, self.cell_hashes)
                )
            ],
        }
        with open(self.manifest_path, "w") as handle:
            json.dump(manifest, handle, indent=2, default=json_default)
            handle.write("\n")

    # ------------------------------------------------------------ query side

    @property
    def n_completed(self) -> int:
        """Number of loaded cell records (not all need match this sweep)."""
        return len(self._completed)

    def resumed_rows(self) -> dict[int, list[dict[str, object]]]:
        """Rows of already-completed cells, keyed by this run's cell index.

        A cell resumes only when its *current* spec hash has a record, so a
        sweep whose parameters changed since the checkpoint was written
        simply reruns every changed cell.
        """
        return {
            index: self._completed[cell_hash]
            for index, cell_hash in enumerate(self.cell_hashes)
            if cell_hash in self._completed
        }

    def recorded_failures(self) -> dict[int, dict[str, object]]:
        """Quarantined-cell failure records, keyed by this run's cell index.

        Informational: a failure record never satisfies resume — the cell
        reruns and gets another chance — but the operator can see what went
        wrong on the previous run without scraping logs.
        """
        return {
            index: self._failures[cell_hash]
            for index, cell_hash in enumerate(self.cell_hashes)
            if cell_hash in self._failures and cell_hash not in self._completed
        }

    # ----------------------------------------------------------- record side

    def encoded_record(
        self, index: int, cell: ExperimentSpec, rows: list[dict[str, object]]
    ) -> bytes:
        """The exact self-verifying line :meth:`record` would append."""
        record: dict[str, object] = {
            "spec_hash": self.cell_hashes[index],
            "cell_index": index,
            "cell_name": cell.name,
            "rows": rows,
        }
        if self.backend is not None:
            # Execution provenance; absent on records from older stores.
            record["backend"] = self.backend
        return encode_record_line(record)

    def record(
        self, index: int, cell: ExperimentSpec, rows: list[dict[str, object]]
    ) -> None:
        """Append one completed cell's rows to ``metrics.jsonl``.

        Open-append-close per record keeps the log consistent under kills:
        the line either lands whole or is the torn tail the loader skips.
        A torn tail inherited from a previous kill is newline-terminated
        first, so the new record never concatenates onto the fragment.
        """
        self._append_line(self.encoded_record(index, cell, rows))
        self._completed[self.cell_hashes[index]] = rows

    def record_failure(
        self, index: int, cell: ExperimentSpec, failure: dict[str, object]
    ) -> None:
        """Append a quarantined cell's structured failure record.

        The record carries the cell's identity, the attempt count and the
        worker-side traceback string, so a long unattended sweep leaves an
        auditable account of what it skipped.  Failure records never satisfy
        resume — the cell reruns next time.
        """
        self._append_line(
            encode_record_line(
                {
                    "spec_hash": self.cell_hashes[index],
                    "cell_index": index,
                    "cell_name": cell.name,
                    "failure": failure,
                }
            )
        )
        self._failures[self.cell_hashes[index]] = dict(failure)

    def _append_line(self, line: bytes) -> None:
        """Append one encoded line, newline-terminating any inherited tail."""
        with open(self.metrics_path, "a+b") as handle:
            if handle.seek(0, 2) > 0:
                handle.seek(-1, 2)
                if handle.read(1) != b"\n":
                    handle.write(b"\n")
            handle.write(line)

    def write_summary(self) -> Path:
        """Write (or refresh) this store's ``summary.json`` from disk state.

        Called by the sweep runner when a checkpointed sweep finishes;
        idempotent and rerunnable offline (``repro summarize``) because the
        summary is derived purely from the manifest and metrics files.
        """
        return write_summary(self.directory)


# ----------------------------------------------------------------- audit side


def _classify_lines(metrics_bytes: bytes, manifest_hashes: Optional[set]):
    """Classify every ``metrics.jsonl`` line; yield ``(problems, prefix_end)``.

    Walks the raw bytes so byte offsets are exact.  Returns the problem list
    and the byte offset of the end of the longest *prefix* of fully valid
    lines — the truncation point :func:`repair_store` uses.  A line is valid
    when it parses, its CRC matches (legacy no-CRC lines are reported but
    count as valid — they predate format v2), it carries a usable payload,
    and its hash is neither a duplicate nor (when a manifest is readable) an
    orphan.  Duplicates and orphans end the valid prefix too: resuming past
    them is well-defined for the loader, but a repaired store should be
    exactly reproducible from the manifest, so repair cuts conservatively.

    Duplicate means *any record after a rows record* for the same hash: a
    completed cell is skipped on resume, so nothing legitimate ever appends
    behind its rows.  Failure records, by contrast, are designed to be
    superseded — ``on_error="skip"`` quarantines a cell, a resumed run
    reruns it and appends its rows (or fails again and appends another
    failure record) under the same hash — so rows-after-failure and
    failure-after-failure are the healthy quarantine-then-resume flow, not
    damage.
    """
    problems: list[dict[str, object]] = []
    counts = {"total": 0, "valid": 0, "legacy_no_crc": 0}
    prefix_end = 0
    prefix_intact = True
    seen_rows_hashes: set[str] = set()
    offset = 0
    while offset < len(metrics_bytes):
        newline = metrics_bytes.find(b"\n", offset)
        torn_tail = newline < 0
        end = len(metrics_bytes) if torn_tail else newline + 1
        raw = metrics_bytes[offset : len(metrics_bytes) if torn_tail else newline]
        line_number = counts["total"] + 1
        counts["total"] += 1
        problem: Optional[dict[str, object]] = None
        if not raw.strip():
            # Blank separator (a terminated torn fragment); harmless.
            counts["total"] -= 1
            if prefix_intact:
                prefix_end = end
            offset = end
            continue
        try:
            record = json.loads(raw.decode("utf-8", errors="replace"))
            if not isinstance(record, dict):
                raise ValueError("not a JSON object")
        except ValueError:
            kind = "torn-tail" if torn_tail else "corrupt-line"
            problem = {"kind": kind, "line": line_number, "bytes": len(raw)}
        else:
            crc_ok = verify_record_crc(record)
            cell_hash = record.get("spec_hash")
            if torn_tail:
                # Parses but was never newline-terminated: the append was
                # cut between the payload write and the newline flush.
                problem = {
                    "kind": "torn-tail",
                    "line": line_number,
                    "bytes": len(raw),
                }
            elif crc_ok is False:
                problem = {
                    "kind": "crc-mismatch",
                    "line": line_number,
                    "bytes": len(raw),
                }
            elif not isinstance(cell_hash, str) or not (
                isinstance(record.get("rows"), list)
                or isinstance(record.get("failure"), dict)
            ):
                problem = {
                    "kind": "malformed-record",
                    "line": line_number,
                    "bytes": len(raw),
                }
            elif cell_hash in seen_rows_hashes:
                problem = {
                    "kind": "duplicate-record",
                    "line": line_number,
                    "bytes": len(raw),
                    "spec_hash": cell_hash,
                }
            elif manifest_hashes is not None and cell_hash not in manifest_hashes:
                problem = {
                    "kind": "orphan-record",
                    "line": line_number,
                    "bytes": len(raw),
                    "spec_hash": cell_hash,
                }
            else:
                counts["valid"] += 1
                if crc_ok is None:
                    counts["legacy_no_crc"] += 1
                if isinstance(record.get("rows"), list):
                    seen_rows_hashes.add(cell_hash)
        if problem is not None:
            problems.append(problem)
            prefix_intact = False
        elif prefix_intact:
            prefix_end = end
        offset = end
    return problems, counts, prefix_end


def _audit_manifest(directory: Path) -> tuple[dict, Optional[set]]:
    """Manifest portion of a store audit: report dict + the cell hash set."""
    manifest_path = directory / MANIFEST_NAME
    report: dict[str, object] = {
        "present": manifest_path.exists(),
        "valid": False,
        "n_cells": None,
        "problems": [],
    }
    if not report["present"]:
        report["problems"].append({"kind": "manifest-missing"})
        return report, None
    try:
        manifest = json.loads(manifest_path.read_text())
        if not isinstance(manifest, dict):
            raise ValueError(f"not a JSON object ({type(manifest).__name__})")
    except ValueError as exc:
        report["problems"].append(
            {"kind": "manifest-corrupt", "detail": str(exc)}
        )
        return report, None
    if manifest.get("format") != MANIFEST_FORMAT:
        report["problems"].append(
            {"kind": "manifest-foreign", "detail": str(manifest.get("format"))}
        )
        return report, None
    cells = manifest.get("cells")
    n_cells = manifest.get("n_cells")
    hashes: Optional[set] = None
    if isinstance(cells, list):
        hashes = {
            entry.get("spec_hash")
            for entry in cells
            if isinstance(entry, dict) and isinstance(entry.get("spec_hash"), str)
        }
        if len(hashes) != len(cells):
            report["problems"].append(
                {
                    "kind": "manifest-drift",
                    "detail": "duplicate or missing spec hashes in cell list",
                }
            )
        if isinstance(n_cells, int) and n_cells != len(cells):
            report["problems"].append(
                {
                    "kind": "manifest-drift",
                    "detail": f"n_cells={n_cells} but cell list has {len(cells)}",
                }
            )
    report["valid"] = not report["problems"]
    report["n_cells"] = n_cells if isinstance(n_cells, int) else None
    return report, hashes


def verify_store(directory: PathLike) -> dict[str, object]:
    """Audit a checkpoint directory; return a machine-readable report.

    The report carries ``ok`` (no problems at all), a ``manifest`` section,
    per-line ``records`` counts, the full ``problems`` list (each problem a
    dict with a ``kind`` — ``torn-tail``, ``corrupt-line``, ``crc-mismatch``,
    ``malformed-record``, ``duplicate-record``, ``orphan-record``,
    ``manifest-*`` — plus line number and byte count where applicable) and
    ``valid_prefix_bytes``, the truncation point :func:`repair_store` would
    cut at.  Read-only: verification never modifies the store.
    """
    directory = Path(directory)
    manifest_report, manifest_hashes = _audit_manifest(directory)
    metrics_path = directory / METRICS_NAME
    counts = {"total": 0, "valid": 0, "legacy_no_crc": 0}
    problems: list[dict[str, object]] = []
    prefix_end = 0
    metrics_present = metrics_path.exists()
    if metrics_present:
        problems, counts, prefix_end = _classify_lines(
            metrics_path.read_bytes(), manifest_hashes
        )
    all_problems = list(manifest_report["problems"]) + problems
    return {
        "directory": str(directory),
        "ok": not all_problems,
        "manifest": {
            key: manifest_report[key] for key in ("present", "valid", "n_cells")
        },
        "records": {
            "metrics_present": metrics_present,
            "total": counts["total"],
            "valid": counts["valid"],
            "legacy_no_crc": counts["legacy_no_crc"],
        },
        "problems": all_problems,
        "valid_prefix_bytes": prefix_end,
    }


def repair_store(directory: PathLike) -> dict[str, object]:
    """Truncate ``metrics.jsonl`` to its longest valid prefix, atomically.

    Returns the :func:`verify_store` report of the *pre-repair* state
    extended with a ``repair`` section stating what was done.  The rewrite
    goes through a temp file + ``os.replace``, so a crash mid-repair leaves
    either the original or the repaired file, never a hybrid.  Records after
    the first invalid line are dropped even if individually valid — their
    cells simply rerun on resume — so the repaired store is always an exact
    prefix of a legitimate run and resume stays row-for-row identical.
    Manifest problems are reported but not repaired (the manifest is
    provenance; fabricating one would defeat its purpose).
    """
    directory = Path(directory)
    report = verify_store(directory)
    metrics_path = directory / METRICS_NAME
    repair: dict[str, object] = {"performed": False, "bytes_dropped": 0}
    line_problems = [p for p in report["problems"] if "line" in p]
    if metrics_path.exists() and line_problems:
        data = metrics_path.read_bytes()
        keep = report["valid_prefix_bytes"]
        descriptor, tmp = tempfile.mkstemp(dir=directory, suffix=".jsonl")
        try:
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(data[:keep])
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, metrics_path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        repair = {"performed": True, "bytes_dropped": len(data) - keep}
    report["repair"] = repair
    return report


# --------------------------------------------------------------- summary side


def load_manifest(directory: PathLike) -> Optional[dict]:
    """The store's parsed ``manifest.json``, or ``None`` when unusable.

    "Unusable" covers a missing file, invalid JSON and a foreign format tag;
    callers that *require* provenance (``repro reproduce``) raise on ``None``,
    while the summary writer degrades to record-order output.
    """
    manifest_path = Path(directory) / MANIFEST_NAME
    if not manifest_path.exists():
        return None
    try:
        manifest = json.loads(manifest_path.read_text())
    except ValueError:
        return None
    if not isinstance(manifest, dict) or manifest.get("format") != MANIFEST_FORMAT:
        return None
    return manifest


def scan_records(directory: PathLike) -> dict[str, dict[str, object]]:
    """Latest usable record per spec hash, in first-appearance order.

    Applies the loader's semantics without building a sweep: lines that do
    not parse or fail their CRC are skipped silently (this is a read-side
    scan — :class:`SweepCheckpoint` owns the warning on resume), a ``rows``
    record supersedes an earlier ``failure`` record for the same hash, and a
    repeated ``failure`` keeps the latest one.  Each value is the parsed
    record dict (``cell_index``/``cell_name`` plus ``rows`` or ``failure``).
    """
    metrics_path = Path(directory) / METRICS_NAME
    records: dict[str, dict[str, object]] = {}
    if not metrics_path.exists():
        return records
    for line in metrics_path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if not isinstance(record, dict) or verify_record_crc(record) is False:
            continue
        cell_hash = record.get("spec_hash")
        if not isinstance(cell_hash, str):
            continue
        has_rows = isinstance(record.get("rows"), list)
        has_failure = isinstance(record.get("failure"), dict)
        if not (has_rows or has_failure):
            continue
        previous = records.get(cell_hash)
        if (
            previous is not None
            and isinstance(previous.get("rows"), list)
            and not has_rows
        ):
            continue  # rows already recorded; a failure never supersedes them
        records[cell_hash] = record
    return records


def cell_params_from_rows(
    rows: list,
) -> Optional[dict[str, object]]:
    """The serving-layer parameter point ``{tau, w, rho}`` of one cell's rows.

    Rows store the model vocabulary (``tau``/``horizon``/``density``); the
    serving layer speaks the paper's ``(tau, w, rho)``.  Every row of a cell
    shares these values (the spec fixes them), so the first row suffices.
    Returns ``None`` for empty or malformed rows — such cells are recorded in
    the summary but cannot answer parameter queries.
    """
    row = rows[0] if rows else None
    if not isinstance(row, dict):
        return None
    try:
        return {
            "tau": float(row["tau"]),
            "w": int(row["horizon"]),
            "rho": float(row["density"]),
        }
    except (KeyError, TypeError, ValueError):
        return None


def _summary_cell(
    index: Optional[int],
    name: Optional[str],
    cell_hash: str,
    record: Optional[dict],
) -> dict[str, object]:
    """One ``summary.json`` cell entry from its (possibly absent) record."""
    from repro.experiments.results import ResultTable

    entry: dict[str, object] = {
        "index": index,
        "name": name,
        "spec_hash": cell_hash,
        "params": None,
        "n_replicates": 0,
        "metrics": {},
        "failure": None,
    }
    if record is None:
        return entry
    if entry["name"] is None and isinstance(record.get("cell_name"), str):
        entry["name"] = record["cell_name"]
    if entry["index"] is None and isinstance(record.get("cell_index"), int):
        entry["index"] = record["cell_index"]
    rows = record.get("rows")
    if isinstance(rows, list) and rows:
        entry["params"] = cell_params_from_rows(rows)
        entry["n_replicates"] = len(rows)
        entry["metrics"] = ResultTable(rows).numeric_summary()
    elif isinstance(record.get("failure"), dict):
        entry["failure"] = record["failure"]
    return entry


def summarize_store(directory: PathLike) -> dict[str, object]:
    """Build the ``summary.json`` payload for a checkpoint store.

    Aggregates every recorded cell's rows into per-column summary stats
    (:meth:`~repro.experiments.results.ResultTable.numeric_summary`), keyed
    by the cell's identity and its ``(tau, w, rho)`` parameter point.  Cells
    are ordered by the manifest when one is readable (cells without a record
    appear with empty metrics and count as missing); without a manifest the
    records' first-appearance order is used.  Quarantined cells carry their
    recorded ``failure`` instead of metrics.  Pure function of the on-disk
    store: rerunning it on an unchanged store reproduces the payload
    byte-for-byte.
    """
    directory = Path(directory)
    if not (directory / METRICS_NAME).exists() and load_manifest(directory) is None:
        raise ExperimentError(
            f"{directory} is not a checkpoint store "
            f"(no {MANIFEST_NAME} or {METRICS_NAME})"
        )
    manifest = load_manifest(directory)
    records = scan_records(directory)
    cells: list[dict[str, object]] = []
    if manifest is not None and isinstance(manifest.get("cells"), list):
        for entry in manifest["cells"]:
            if not isinstance(entry, dict):
                continue
            cell_hash = entry.get("spec_hash")
            if not isinstance(cell_hash, str):
                continue
            cells.append(
                _summary_cell(
                    entry.get("index"),
                    entry.get("name"),
                    cell_hash,
                    records.get(cell_hash),
                )
            )
    else:
        for cell_hash, record in records.items():
            cells.append(_summary_cell(None, None, cell_hash, record))
    n_summarized = sum(1 for cell in cells if cell["metrics"])
    n_failed = sum(1 for cell in cells if cell["failure"] is not None)
    return {
        "format": SUMMARY_FORMAT,
        "version": 1,
        "library_version": __version__,
        "n_cells": len(cells),
        "n_summarized": n_summarized,
        "n_failed": n_failed,
        "n_missing": len(cells) - n_summarized - n_failed,
        "complete": n_summarized == len(cells),
        "cells": cells,
    }


def write_summary(directory: PathLike) -> Path:
    """Write ``summary.json`` for a store, atomically; return its path.

    The write goes through a temp file + ``os.replace`` so readers (the
    query service polls this file) never observe a half-written summary.
    """
    directory = Path(directory)
    payload = summarize_store(directory)
    summary_path = directory / SUMMARY_NAME
    descriptor, tmp = tempfile.mkstemp(dir=directory, suffix=".json")
    try:
        with os.fdopen(descriptor, "w") as handle:
            json.dump(payload, handle, indent=2, default=json_default)
            handle.write("\n")
        # mkstemp creates 0600; match the store's other artifacts instead
        # of leaking the temp file's restrictive mode into summary.json.
        os.chmod(tmp, 0o644)
        os.replace(tmp, summary_path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return summary_path
