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
    skips and the resumed run removes (at its first append, or when the
    sweep settles).  Since store format v2 every line is *self-verifying*:
    it ends with a ``crc32`` field computed over the rest of the record, so
    a line that parses but was bit-flipped on disk (or hand-edited) is
    detected and dropped rather than resumed from.  Quarantined cells
    (``on_error="skip"`` exhausting its retries) are recorded too, as lines
    carrying a ``failure`` object instead of ``rows`` — provenance for the
    operator; resume reruns those cells.

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

Every store file is read and replaced here and nowhere else.  One line
classifier (``_classify_lines``, bytes split on ``\n``) serves resume,
:func:`scan_records` and the audit, so they drop, count and number the same
lines, and undecodable bytes are damage, never a crash.  One reader
(``_read_document``) parses ``manifest.json`` and ``summary.json``.  One
writer (``_replace_file``: temp file, ``fsync``, ``os.replace``) writes the
manifest, the summary, a repaired log and a resume's log without the lines
it dropped, with the mode a plain ``open`` gets under the umask, so a failed
write leaves no torn file.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import platform
import warnings
import zlib
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Union

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


# ---------------------------------------------------------------- store files


class _Line(NamedTuple):
    """One non-blank ``metrics.jsonl`` line as every reader sees it."""

    #: 1-based position among the file's non-blank lines.
    number: int
    #: Byte offset of the line's first byte.
    start: int
    #: Length in bytes, newline excluded.
    size: int
    #: The parsed record when a reader may use it, else ``None``.
    record: Optional[dict]
    #: Why a reader drops the line; empty when ``record`` is usable.
    dropped: str
    #: What :func:`verify_store` reports about the line; ``None`` when valid.
    problem: Optional[dict]


def _parse_line(raw: bytes) -> tuple[Optional[dict], str, str]:
    """``(record, problem kind, drop reason)`` for one line's bytes.

    The record is usable when it parses to an object whose CRC does not
    mismatch and which has a spec hash plus ``rows`` or ``failure``; kind
    and reason are then empty.  Undecodable bytes decode to U+FFFD, so they
    fail the parse or the CRC instead of raising.
    """
    try:
        record = json.loads(raw.decode("utf-8", errors="replace"))
    except ValueError:
        return None, "corrupt-line", "not valid JSON (torn line?)"
    if not isinstance(record, dict):
        return None, "corrupt-line", "not a JSON object"
    if verify_record_crc(record) is False:
        return None, "crc-mismatch", "CRC32 mismatch (corrupt)"
    if not isinstance(record.get("spec_hash"), str) or not (
        isinstance(record.get("rows"), list)
        or isinstance(record.get("failure"), dict)
    ):
        return None, "malformed-record", "not a cell record"
    return record, "", ""


def _classify_lines(
    data: bytes, manifest_hashes: Optional[set] = None
) -> Iterator[_Line]:
    """Split ``metrics.jsonl`` bytes on ``\\n`` and classify every line.

    Whitespace-only lines (the separator a terminated torn fragment can
    leave) are skipped and not numbered.  A line is valid for the audit
    when its record is usable, it is newline-terminated (an unterminated
    last line is a ``torn-tail`` even when it parses, though readers still
    use its record), and its hash is neither a duplicate nor (when
    ``manifest_hashes`` is given) an orphan.

    Duplicate means *any record after a rows record* for the same hash: a
    completed cell is skipped on resume, so nothing legitimate ever appends
    behind its rows.  Failure records, by contrast, are designed to be
    superseded — ``on_error="skip"`` quarantines a cell, a resumed run
    reruns it and appends its rows (or fails again and appends another
    failure record) under the same hash — so rows-after-failure and
    failure-after-failure are the healthy quarantine-then-resume flow, not
    damage.  Readers use duplicates and orphans; only the audit flags them.
    """
    seen_rows_hashes: set[str] = set()
    number = 0
    start = 0
    while start < len(data):
        newline = data.find(b"\n", start)
        torn = newline < 0
        end = len(data) if torn else newline
        raw = data[start:end]
        if raw.strip():
            number += 1
            record, kind, dropped = _parse_line(raw)
            if record is not None:
                cell_hash = record["spec_hash"]
                if cell_hash in seen_rows_hashes:
                    kind = "duplicate-record"
                elif manifest_hashes is not None and cell_hash not in manifest_hashes:
                    kind = "orphan-record"
                elif isinstance(record.get("rows"), list):
                    seen_rows_hashes.add(cell_hash)
            if torn:
                kind = "torn-tail"
            problem = None
            if kind:
                problem = {"kind": kind, "line": number, "bytes": len(raw)}
                if kind in ("duplicate-record", "orphan-record"):
                    problem["spec_hash"] = cell_hash
            yield _Line(number, start, len(raw), record, dropped, problem)
        start = end + 1


def _latest_records(lines: Iterable[_Line]) -> dict[str, dict[str, object]]:
    """Latest usable record per spec hash, in first-appearance order.

    A ``rows`` record supersedes an earlier ``failure`` record for the same
    hash, a ``failure`` never supersedes ``rows``, and otherwise the latest
    record wins.
    """
    records: dict[str, dict[str, object]] = {}
    for line in lines:
        record = line.record
        if record is None:
            continue
        previous = records.get(record["spec_hash"])
        if (
            previous is not None
            and isinstance(previous.get("rows"), list)
            and not isinstance(record.get("rows"), list)
        ):
            continue
        records[record["spec_hash"]] = record
    return records


def _read_document(path: Path, format_tag: str) -> tuple[Optional[dict], str, str]:
    """``(document, "", "")``, or ``(None, why, detail)`` when unusable.

    The one parser of ``manifest.json`` and ``summary.json``.  ``why`` is
    ``missing``, ``invalid`` (not UTF-8 JSON), ``non-object`` or ``foreign``
    (not tagged ``format_tag``): resume refuses such a manifest, the audit
    reports it, and the loaders return ``None``.
    """
    try:
        document = json.loads(path.read_bytes().decode("utf-8"))
    except FileNotFoundError:
        return None, "missing", ""
    except ValueError as exc:
        return None, "invalid", str(exc)
    if not isinstance(document, dict):
        return None, "non-object", f"not a JSON object ({type(document).__name__})"
    if document.get("format") != format_tag:
        return None, "foreign", str(document.get("format"))
    return document, "", ""


def _encode_document(document: dict) -> bytes:
    """A store JSON document's bytes: two-space indent, trailing newline."""
    return (json.dumps(document, indent=2, default=json_default) + "\n").encode()


def _replace_file(path: Path, data: bytes) -> None:
    """Atomically replace ``path`` with ``data``.

    The bytes go to a new temp file beside ``path``, are fsynced and then
    renamed over it, so a reader or a crash sees the old file or the new
    one, never a torn mix; a failure removes the temp file and leaves
    ``path`` as it was.  The temp file is created with mode 0o666 under the
    process umask, as a plain ``open(path, "w")`` creates a file.
    """
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    descriptor = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(descriptor, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


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
        #: The loaded log minus the lines the load dropped, written over
        #: ``metrics.jsonl`` before the first append or the summary;
        #: ``None`` when the load dropped nothing.
        self._healed_log: Optional[bytes] = None
        if self.metrics_path.exists():
            self._load_metrics()
        self._check_or_write_manifest(cells, sweep)

    # ------------------------------------------------------------- load side

    def _load_metrics(self) -> None:
        """Load ``metrics.jsonl``, tolerating torn and corrupt lines.

        A run killed mid-append leaves a line that is not valid JSON,
        usually the trailing one.  Every line a reader cannot use (not JSON,
        not an object, a CRC mismatch, not a cell record) is skipped *with
        a* :class:`~repro.errors.CheckpointWarning` *naming the file and the
        line number and byte count that* :func:`verify_store` *reports* — a
        lossy resume must be distinguishable from a clean one; every usable
        line is a whole record (they are flushed line-atomically), and a
        skipped cell simply reruns.  The first append (or, when no cell
        reruns, :meth:`write_summary`) then replaces the log with its usable
        lines, byte for byte and each newline-terminated, so the rerun
        records never land behind the damage and the resumed store passes
        the audit.  Loading alone leaves the file untouched.
        """
        data = self.metrics_path.read_bytes()
        lines = list(_classify_lines(data))
        dropped = [line for line in lines if line.record is None]
        for line in dropped:
            warnings.warn(
                f"{self.metrics_path}: dropping line {line.number} "
                f"({line.size} bytes): {line.dropped}; "
                "the affected cell will rerun on resume",
                CheckpointWarning,
                stacklevel=3,
            )
        if dropped:
            self._healed_log = b"".join(
                data[line.start : line.start + line.size] + b"\n"
                for line in lines
                if line.record is not None
            )
        for cell_hash, record in _latest_records(lines).items():
            if isinstance(record.get("rows"), list):
                self._completed[cell_hash] = record["rows"]
            else:
                self._failures[cell_hash] = record["failure"]

    def _check_or_write_manifest(
        self, cells: list[ExperimentSpec], sweep: Optional[object]
    ) -> None:
        """Validate an existing manifest's format tag, or write a fresh one."""
        _, why, detail = _read_document(self.manifest_path, MANIFEST_FORMAT)
        if not why:
            return
        if why == "invalid":
            raise ExperimentError(f"{self.manifest_path} is not valid JSON: {detail}")
        if why != "missing":
            raise ExperimentError(
                f"{self.manifest_path} is not a {MANIFEST_FORMAT} manifest "
                "— refusing to resume into a foreign directory"
            )
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
        _replace_file(self.manifest_path, _encode_document(manifest))

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
        A torn tail inherited from a previous kill is gone by then (the
        load dropped it, and the first append writes the log without it);
        any other unterminated last line is newline-terminated first, so
        the new record never concatenates onto it.
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

    def _heal(self) -> None:
        """Write the log without the lines the load dropped, if any."""
        if self._healed_log is not None:
            _replace_file(self.metrics_path, self._healed_log)
            self._healed_log = None

    def _append_line(self, line: bytes) -> None:
        """Append one encoded line, newline-terminating any inherited tail."""
        self._heal()
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
        summary is derived purely from the manifest and metrics files.  A
        log whose load dropped lines is healed first, so a resume that
        reran no cell still leaves a store that passes the audit.
        """
        self._heal()
        return write_summary(self.directory)


# ----------------------------------------------------------------- audit side


def _audit_manifest(directory: Path) -> tuple[dict, Optional[set]]:
    """Manifest portion of a store audit: report dict + the cell hash set."""
    manifest, why, detail = _read_document(
        directory / MANIFEST_NAME, MANIFEST_FORMAT
    )
    report: dict[str, object] = {
        "present": why != "missing",
        "valid": False,
        "n_cells": None,
        "problems": [],
    }
    if why == "missing":
        report["problems"].append({"kind": "manifest-missing"})
    elif why:
        kind = "manifest-foreign" if why == "foreign" else "manifest-corrupt"
        report["problems"].append({"kind": kind, "detail": detail})
    if manifest is None:
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
    cut at: the start of the first line with a problem.  Legacy no-CRC
    lines (they predate format v2) are counted but valid.  Duplicates and
    orphans end the valid prefix too: resuming past them is well-defined,
    but a repaired store should be exactly reproducible from the manifest,
    so repair cuts conservatively.  Read-only: verification never modifies
    the store.
    """
    directory = Path(directory)
    manifest_report, manifest_hashes = _audit_manifest(directory)
    metrics_path = directory / METRICS_NAME
    metrics_present = metrics_path.exists()
    data = metrics_path.read_bytes() if metrics_present else b""
    lines = list(_classify_lines(data, manifest_hashes))
    bad = [line for line in lines if line.problem is not None]
    valid = [line.record for line in lines if line.problem is None]
    all_problems = list(manifest_report["problems"]) + [
        line.problem for line in bad
    ]
    return {
        "directory": str(directory),
        "ok": not all_problems,
        "manifest": {
            key: manifest_report[key] for key in ("present", "valid", "n_cells")
        },
        "records": {
            "metrics_present": metrics_present,
            "total": len(lines),
            "valid": len(valid),
            "legacy_no_crc": sum("crc32" not in record for record in valid),
        },
        "problems": all_problems,
        "valid_prefix_bytes": bad[0].start if bad else len(data),
    }


def repair_store(directory: PathLike) -> dict[str, object]:
    """Truncate ``metrics.jsonl`` to its longest valid prefix, atomically.

    Returns the :func:`verify_store` report of the *pre-repair* state
    extended with a ``repair`` section stating what was done.  The rewrite
    goes through the store's atomic writer, so a crash mid-repair leaves
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
        _replace_file(metrics_path, data[:keep])
        repair = {"performed": True, "bytes_dropped": len(data) - keep}
    report["repair"] = repair
    return report


# --------------------------------------------------------------- summary side


def load_manifest(directory: PathLike) -> Optional[dict]:
    """The store's parsed ``manifest.json``, or ``None`` when unusable.

    "Unusable" covers a missing file, invalid JSON, a non-object and a
    foreign format tag; callers that *require* provenance
    (``repro reproduce``) raise on ``None``, while the summary writer
    degrades to record-order output.
    """
    return _read_document(Path(directory) / MANIFEST_NAME, MANIFEST_FORMAT)[0]


def load_summary(directory: PathLike) -> Optional[dict]:
    """The store's parsed ``summary.json``, or ``None`` when unusable.

    "Unusable" is what it is for :func:`load_manifest`; callers derive the
    payload with :func:`summarize_store` instead.
    """
    return _read_document(Path(directory) / SUMMARY_NAME, SUMMARY_FORMAT)[0]


def scan_records(directory: PathLike) -> dict[str, dict[str, object]]:
    """Latest usable record per spec hash, in first-appearance order.

    Applies the loader's semantics without building a sweep: the lines
    resume drops are skipped silently (this is a read-side scan —
    :class:`SweepCheckpoint` owns the warning on resume), a ``rows``
    record supersedes an earlier ``failure`` record for the same hash, and a
    repeated ``failure`` keeps the latest one.  Each value is the parsed
    record dict (``cell_index``/``cell_name`` plus ``rows`` or ``failure``).
    """
    metrics_path = Path(directory) / METRICS_NAME
    if not metrics_path.exists():
        return {}
    return _latest_records(_classify_lines(metrics_path.read_bytes()))


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
    manifest = load_manifest(directory)
    if manifest is None and not (directory / METRICS_NAME).exists():
        raise ExperimentError(
            f"{directory} is not a checkpoint store "
            f"(no {MANIFEST_NAME} or {METRICS_NAME})"
        )
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

    The write goes through the store's atomic writer so readers (the query
    service polls this file) never observe a half-written summary.
    """
    directory = Path(directory)
    summary_path = directory / SUMMARY_NAME
    _replace_file(summary_path, _encode_document(summarize_store(directory)))
    return summary_path
