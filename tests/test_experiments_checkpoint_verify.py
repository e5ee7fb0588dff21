"""Self-verifying store tests: CRC records, verify/repair, SIGKILL matrix.

Covers the store-format-v2 guarantees: every ``metrics.jsonl`` line carries a
``crc32`` over the rest of the record; :func:`verify_store` classifies every
way a store can rot (torn tail, corrupt line, CRC mismatch, duplicates,
orphans, manifest drift) into a machine-readable report; and
:func:`repair_store` atomically truncates to the longest valid prefix so the
store is resumable again.  The SIGKILL matrix at the bottom kills real
checkpointed sweep processes at fault-plan-chosen points and asserts the
resumed table is bitwise identical to an uninterrupted run, and a resume
over a damaged log leaves a store that passes the audit.  The last two
classes pin the store's one reader (resume, summaries, reproduction and
serving drop and number exactly the lines the audit reports) and its one
atomic writer (umask mode, nothing left behind by a failed write).
"""

import dataclasses
import json
import os
import re
import stat
import subprocess
import sys
import warnings
import zlib
from pathlib import Path

import pytest

from repro.core.config import ModelConfig
from repro.errors import CheckpointWarning, ExperimentError
from repro.experiments.checkpoint import (
    SweepCheckpoint,
    encode_record_line,
    repair_store,
    summarize_store,
    verify_record_crc,
    verify_store,
)
from repro.experiments.faults import FaultPlan
from repro.experiments.parallel import run_sweep_parallel
from repro.experiments.spec import SweepSpec

TIMING_COLUMNS = {"wall_clock_seconds"}


def comparable_rows(table):
    """The table's rows with the timing columns stripped."""
    return [
        {key: value for key, value in row.items() if key not in TIMING_COLUMNS}
        for row in table.rows
    ]


def make_sweep() -> SweepSpec:
    """The four-cell sweep used across this module (also by subprocesses)."""
    base = ModelConfig.square(side=10, horizon=1, tau=0.3)
    return SweepSpec(
        name="verify-unit",
        base_config=base,
        taus=[0.3, 0.35, 0.4, 0.45],
        n_replicates=2,
        seed=11,
    )


@pytest.fixture
def sweep() -> SweepSpec:
    """Fixture wrapper around :func:`make_sweep`."""
    return make_sweep()


@pytest.fixture
def store(tmp_path, sweep):
    """A completed, healthy checkpoint store for the sweep."""
    directory = tmp_path / "store"
    run_sweep_parallel(sweep, workers=1, checkpoint_dir=directory)
    return directory


class TestRecordCrc:
    def test_round_trip_verifies(self):
        line = encode_record_line({"spec_hash": "abc", "rows": [{"x": 1.5}]})
        record = json.loads(line)
        assert verify_record_crc(record) is True

    def test_crc_is_last_key_and_over_the_rest(self):
        line = encode_record_line({"spec_hash": "abc", "rows": []})
        record = json.loads(line)
        assert list(record)[-1] == "crc32"
        body = json.dumps(
            {k: v for k, v in record.items() if k != "crc32"},
            separators=(",", ":"),
        )
        assert record["crc32"] == zlib.crc32(body.encode("utf-8"))

    def test_bit_flip_is_detected(self):
        line = encode_record_line({"spec_hash": "abc", "rows": [{"x": 1.5}]})
        tampered = json.loads(line.replace(b"1.5", b"2.5"))
        assert verify_record_crc(tampered) is False

    def test_legacy_record_without_crc_is_indeterminate(self):
        assert verify_record_crc({"spec_hash": "abc", "rows": []}) is None

    def test_written_records_carry_valid_crc(self, store):
        for line in (store / "metrics.jsonl").read_bytes().splitlines():
            assert verify_record_crc(json.loads(line)) is True


class TestLoaderWarnings:
    def test_dropped_line_warning_names_file_line_and_bytes(self, store, sweep):
        metrics = store / "metrics.jsonl"
        lines = metrics.read_bytes().splitlines(keepends=True)
        # Tear line 2 mid-record; the terminated fragment keeps line 3 intact
        # (the double-interrupt shape record() leaves after re-terminating).
        lines[1] = lines[1][:25] + b"\n"
        metrics.write_bytes(b"".join(lines))
        with pytest.warns(CheckpointWarning) as caught:
            SweepCheckpoint(store, list(sweep.cells()), sweep=sweep)
        message = str(caught[0].message)
        assert str(metrics) in message
        assert "line 2" in message
        assert "25 bytes" in message

    def test_crc_mismatch_warns_and_cell_reruns(self, store, sweep):
        metrics = store / "metrics.jsonl"
        data = metrics.read_bytes()
        # Flip a digit inside the first record's payload, keeping valid JSON.
        tampered = data.replace(b'"replicate":0', b'"replicate":9', 1)
        assert tampered != data
        metrics.write_bytes(tampered)
        with pytest.warns(CheckpointWarning, match="CRC32 mismatch"):
            checkpoint = SweepCheckpoint(store, list(sweep.cells()), sweep=sweep)
        assert len(checkpoint.resumed_rows()) == 3  # the tampered cell dropped


class TestVerifyStore:
    def test_healthy_store_is_ok(self, store):
        report = verify_store(store)
        assert report["ok"] is True
        assert report["problems"] == []
        assert report["records"]["total"] == 4
        assert report["records"]["valid"] == 4
        assert report["manifest"]["present"] is True
        size = (store / "metrics.jsonl").stat().st_size
        assert report["valid_prefix_bytes"] == size

    def test_torn_tail_flagged(self, store):
        metrics = store / "metrics.jsonl"
        data = metrics.read_bytes()
        metrics.write_bytes(data[:-30])  # cut the final record mid-line
        report = verify_store(store)
        assert report["ok"] is False
        kinds = [p["kind"] for p in report["problems"]]
        assert kinds == ["torn-tail"]
        # Everything before the tear is still a valid, resumable prefix.
        assert report["valid_prefix_bytes"] == len(
            b"".join(data.splitlines(keepends=True)[:3])
        )

    def test_crc_mismatch_flagged_with_line_number(self, store):
        metrics = store / "metrics.jsonl"
        data = metrics.read_bytes()
        metrics.write_bytes(data.replace(b'"replicate":0', b'"replicate":9', 2))
        report = verify_store(store)
        kinds = [p["kind"] for p in report["problems"]]
        assert "crc-mismatch" in kinds
        assert all(isinstance(p["line"], int) for p in report["problems"])

    def test_duplicate_record_flagged(self, store):
        metrics = store / "metrics.jsonl"
        lines = metrics.read_bytes().splitlines(keepends=True)
        metrics.write_bytes(b"".join(lines + [lines[0]]))
        report = verify_store(store)
        assert [p["kind"] for p in report["problems"]] == ["duplicate-record"]
        assert report["problems"][0]["line"] == 5

    def test_quarantine_then_resume_verifies_clean(self, tmp_path, sweep):
        # The code's own skip-then-resume flow: on_error="skip" quarantines
        # a cell as a failure record, the resumed run reruns it and appends
        # its rows under the same spec hash.  A rows record superseding a
        # failure record is by design — verify must not flag it (and repair
        # must not truncate completed work behind it).
        directory = tmp_path / "quarantine"
        run_sweep_parallel(
            sweep,
            workers=1,
            checkpoint_dir=directory,
            fault_plan=FaultPlan().crash(1),
            on_error="skip",
            backoff=0.0,
        )
        assert verify_store(directory)["ok"] is True
        table = run_sweep_parallel(sweep, workers=1, checkpoint_dir=directory)
        assert table.failures == []
        report = verify_store(directory)
        assert report["ok"] is True
        assert report["problems"] == []
        assert report["records"]["valid"] == 5  # 4 rows + superseded failure
        assert repair_store(directory)["repair"]["performed"] is False

    def test_repeated_failure_records_are_not_duplicates(self, tmp_path, sweep):
        # A quarantined cell that fails again on the next resume appends a
        # second failure record for the same hash — still the healthy flow.
        directory = tmp_path / "requarantine"
        for _ in range(2):
            run_sweep_parallel(
                sweep,
                workers=1,
                checkpoint_dir=directory,
                fault_plan=FaultPlan().crash(1, attempts=99),
                on_error="skip",
                backoff=0.0,
            )
        report = verify_store(directory)
        assert report["ok"] is True
        assert report["records"]["valid"] == 5  # 3 rows + 2 failure records

    def test_failure_after_rows_is_flagged_duplicate(self, store):
        # The inverse never happens legitimately: a completed cell is
        # skipped on resume, so nothing appends behind its rows record.
        first = json.loads(
            (store / "metrics.jsonl").read_bytes().splitlines()[0]
        )
        stray = encode_record_line(
            {
                "spec_hash": first["spec_hash"],
                "failure": {"error": "stray", "attempts": 1},
            }
        )
        with open(store / "metrics.jsonl", "ab") as handle:
            handle.write(stray)
        report = verify_store(store)
        assert [p["kind"] for p in report["problems"]] == ["duplicate-record"]

    def test_orphan_record_flagged(self, store):
        metrics = store / "metrics.jsonl"
        orphan = encode_record_line(
            {"spec_hash": "not-in-this-manifest", "rows": []}
        )
        with open(metrics, "ab") as handle:
            handle.write(orphan)
        report = verify_store(store)
        assert [p["kind"] for p in report["problems"]] == ["orphan-record"]

    def test_missing_manifest_flagged(self, store):
        (store / "manifest.json").unlink()
        report = verify_store(store)
        assert report["manifest"]["present"] is False
        assert "manifest-missing" in [p["kind"] for p in report["problems"]]

    def test_foreign_manifest_flagged(self, store):
        (store / "manifest.json").write_text(json.dumps({"format": "other"}))
        report = verify_store(store)
        assert "manifest-foreign" in [p["kind"] for p in report["problems"]]

    def test_manifest_drift_flagged(self, store):
        manifest_path = store / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["n_cells"] = 99  # no longer matches the cell list
        manifest_path.write_text(json.dumps(manifest))
        report = verify_store(store)
        assert "manifest-drift" in [p["kind"] for p in report["problems"]]

    def test_empty_directory_reports_missing_pieces(self, tmp_path):
        report = verify_store(tmp_path / "nothing")
        assert report["ok"] is False
        assert report["records"]["metrics_present"] is False


#: JSON documents that parse but are not objects, with their test ids.
NON_OBJECTS = pytest.mark.parametrize(
    "text", ["[]", "7", '"x"', "[1, 2]"], ids=["list", "int", "str", "pair"]
)


class TestNonObjectJson:
    """JSON that parses to a non-object is damage, reported, never a crash."""

    @NON_OBJECTS
    def test_verify_reports_non_object_manifest(self, store, text):
        (store / "manifest.json").write_text(text)
        report = verify_store(store)
        assert report["ok"] is False
        assert report["manifest"]["valid"] is False
        assert [p["kind"] for p in report["problems"]] == ["manifest-corrupt"]
        assert "not a JSON object" in report["problems"][0]["detail"]

    @NON_OBJECTS
    def test_repair_reports_non_object_manifest_and_keeps_records(
        self, store, text
    ):
        (store / "manifest.json").write_text(text)
        before = (store / "metrics.jsonl").read_bytes()
        report = repair_store(store)
        assert "manifest-corrupt" in [p["kind"] for p in report["problems"]]
        assert report["repair"]["performed"] is False
        assert (store / "metrics.jsonl").read_bytes() == before
        assert (store / "manifest.json").read_text() == text

    @NON_OBJECTS
    def test_resume_refuses_non_object_manifest(self, store, sweep, text):
        (store / "manifest.json").write_text(text)
        with pytest.raises(ExperimentError, match="foreign directory"):
            SweepCheckpoint(store, list(sweep.cells()), sweep=sweep)
        with pytest.raises(ExperimentError, match="foreign directory"):
            run_sweep_parallel(sweep, workers=1, checkpoint_dir=store)

    @NON_OBJECTS
    def test_cli_verify_reports_non_object_manifest(self, store, text):
        import io

        from repro.cli import main

        (store / "manifest.json").write_text(text)
        out = io.StringIO()
        assert main(["checkpoint", "verify", str(store)], out=out) == 1
        report = json.loads(out.getvalue())
        assert [p["kind"] for p in report["problems"]] == ["manifest-corrupt"]

    @NON_OBJECTS
    def test_non_object_line_is_dropped_reported_and_repaired(
        self, store, sweep, text, tmp_path
    ):
        import shutil

        metrics = store / "metrics.jsonl"
        lines = metrics.read_bytes().splitlines(keepends=True)
        lines.insert(1, text.encode() + b"\n")
        metrics.write_bytes(b"".join(lines))
        # The loader drops it with its warning; every real record survives.
        with pytest.warns(CheckpointWarning, match="line 2 .*not a JSON object"):
            checkpoint = SweepCheckpoint(store, list(sweep.cells()), sweep=sweep)
        assert len(checkpoint.resumed_rows()) == 4
        # The audit names the line, and repair cuts a copy of the damaged
        # store back before it.
        damaged = tmp_path / "damaged"
        shutil.copytree(store, damaged)
        report = repair_store(damaged)
        assert report["problems"][0] == {
            "kind": "corrupt-line", "line": 2, "bytes": len(text)
        }
        assert (damaged / "metrics.jsonl").read_bytes() == lines[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CheckpointWarning)
            resumed = run_sweep_parallel(sweep, workers=1, checkpoint_dir=store)
        assert comparable_rows(resumed) == comparable_rows(
            run_sweep_parallel(sweep, workers=1)
        )
        # The resume reran no cell, and still left no damage behind.
        assert verify_store(store)["ok"] is True


class TestRepairStore:
    def test_repair_truncates_to_valid_prefix_and_resumes(
        self, store, sweep
    ):
        uninterrupted = run_sweep_parallel(sweep, workers=1)
        metrics = store / "metrics.jsonl"
        data = metrics.read_bytes()
        metrics.write_bytes(data[:-30])  # torn tail
        report = repair_store(store)
        assert report["repair"]["performed"] is True
        assert report["repair"]["bytes_dropped"] > 0
        assert verify_store(store)["ok"] is True
        # The repaired store resumes into the exact uninterrupted table.
        resumed = run_sweep_parallel(sweep, workers=1, checkpoint_dir=store)
        assert comparable_rows(resumed) == comparable_rows(uninterrupted)

    def test_repair_of_healthy_store_is_a_no_op(self, store):
        before = (store / "metrics.jsonl").read_bytes()
        report = repair_store(store)
        assert report["repair"]["performed"] is False
        assert (store / "metrics.jsonl").read_bytes() == before

    def test_repair_cuts_at_first_corrupt_line(self, store, sweep):
        metrics = store / "metrics.jsonl"
        lines = metrics.read_bytes().splitlines(keepends=True)
        lines[1] = b"\xff\xfe garbage \xff\xfe\n"
        metrics.write_bytes(b"".join(lines))
        repair_store(store)
        kept = metrics.read_bytes()
        assert kept == lines[0]
        # Cells 1..3 rerun; the resumed table is still complete and correct.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            resumed = run_sweep_parallel(sweep, workers=1, checkpoint_dir=store)
        assert comparable_rows(resumed) == comparable_rows(
            run_sweep_parallel(sweep, workers=1)
        )


class TestTornRecordFault:
    def test_torn_record_detected_and_repaired(self, tmp_path, sweep):
        directory = tmp_path / "torn"
        uninterrupted = run_sweep_parallel(sweep, workers=1)
        run_sweep_parallel(
            sweep,
            workers=1,
            checkpoint_dir=directory,
            fault_plan=FaultPlan().torn_record(2, keep_bytes=30),
        )
        report = verify_store(directory)
        assert report["ok"] is False
        # The torn fragment was newline-terminated by the next append, so it
        # shows up as a corrupt line mid-file (exactly the double-kill shape).
        assert "corrupt-line" in [p["kind"] for p in report["problems"]]
        repair_store(directory)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            resumed = run_sweep_parallel(
                sweep, workers=1, checkpoint_dir=directory
            )
        assert comparable_rows(resumed) == comparable_rows(uninterrupted)
        assert verify_store(directory)["ok"] is True


class TestHealedResume:
    """A resume over a damaged log leaves a store that passes the audit."""

    def test_resume_after_kill_mid_append(self, store, sweep):
        import io

        from repro.cli import main

        metrics = store / "metrics.jsonl"
        lines = metrics.read_bytes().splitlines(keepends=True)
        metrics.write_bytes(b"".join(lines[:-1]) + lines[-1][:40])
        with pytest.warns(CheckpointWarning, match="line 4 "):
            resumed = run_sweep_parallel(sweep, workers=1, checkpoint_dir=store)
        assert comparable_rows(resumed) == comparable_rows(
            run_sweep_parallel(sweep, workers=1)
        )
        assert verify_store(store)["ok"] is True
        assert repair_store(store)["repair"]["performed"] is False
        out = io.StringIO()
        assert main(["query", "tau=0.3", "--store", str(store)], out=out) == 0

    def test_resume_over_undecodable_line(self, store, sweep):
        metrics = store / "metrics.jsonl"
        lines = metrics.read_bytes().splitlines(keepends=True)
        at = lines[0].index(b'"cell_name":"') + len(b'"cell_name":"') + 2
        lines[0] = lines[0][:at] + b"\xff" + lines[0][at + 1 :]
        metrics.write_bytes(b"".join(lines))
        with pytest.warns(CheckpointWarning, match="line 1 "):
            resumed = run_sweep_parallel(sweep, workers=1, checkpoint_dir=store)
        assert comparable_rows(resumed) == comparable_rows(
            run_sweep_parallel(sweep, workers=1)
        )
        # The intact records keep their bytes; the rerun cell follows them.
        assert metrics.read_bytes().startswith(b"".join(lines[1:]))
        assert verify_store(store)["ok"] is True
        with warnings.catch_warnings():
            warnings.simplefilter("error", CheckpointWarning)
            again = run_sweep_parallel(sweep, workers=1, checkpoint_dir=store)
        assert comparable_rows(again) == comparable_rows(resumed)

    def test_resume_that_reruns_no_cell_heals_the_log(self, store, sweep):
        import io

        from repro.cli import main

        metrics = store / "metrics.jsonl"
        records = metrics.read_bytes()
        metrics.write_bytes(b"[1, 2]\n" + records)
        with pytest.warns(CheckpointWarning, match="line 1 .*not a JSON object"):
            resumed = run_sweep_parallel(sweep, workers=1, checkpoint_dir=store)
        assert comparable_rows(resumed) == comparable_rows(
            run_sweep_parallel(sweep, workers=1)
        )
        # Every cell resumed, and the log is back to its records, byte for byte.
        assert metrics.read_bytes() == records
        assert verify_store(store)["ok"] is True
        out = io.StringIO()
        assert main(["query", "tau=0.3", "--store", str(store)], out=out) == 0


def run_killed_sweep(directory: Path, plan_code: str) -> int:
    """Run the module sweep in a subprocess that a fault plan will SIGKILL."""
    script = (
        "import sys, warnings; sys.path.insert(0, 'src'); sys.path.insert(0, 'tests')\n"
        "warnings.simplefilter('ignore')\n"
        "from repro.experiments.faults import FaultPlan\n"
        "from repro.experiments.parallel import run_sweep_parallel\n"
        "from test_experiments_checkpoint_verify import make_sweep\n"
        f"plan = {plan_code}\n"
        f"run_sweep_parallel(make_sweep(), workers=1, checkpoint_dir={str(directory)!r}, fault_plan=plan)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        cwd=Path(__file__).resolve().parent.parent,
        timeout=240,
        capture_output=True,
    )
    return result.returncode


class TestSigkillMatrix:
    """Kill real checkpointed sweeps at chosen points; resume must be exact.

    The matrix covers the three distinct on-disk states a kill can leave:
    before any record (manifest written, metrics empty or absent), between
    two records (a clean prefix), and mid-record (a torn line).  In every
    case a rerun against the directory must produce a table bitwise
    identical to an uninterrupted run.
    """

    @pytest.fixture
    def uninterrupted(self, sweep):
        """Rows of the never-killed reference run."""
        return comparable_rows(run_sweep_parallel(sweep, workers=1))

    def test_killed_before_first_record(self, tmp_path, sweep, uninterrupted):
        directory = tmp_path / "kill-first"
        code = run_killed_sweep(directory, "FaultPlan().kill(0)")
        assert code != 0  # SIGKILL: no Python exit path
        assert (directory / "manifest.json").exists()
        assert not (directory / "metrics.jsonl").exists()
        resumed = run_sweep_parallel(sweep, workers=1, checkpoint_dir=directory)
        assert comparable_rows(resumed) == uninterrupted

    def test_killed_mid_sweep_resumes_prefix(
        self, tmp_path, sweep, uninterrupted
    ):
        directory = tmp_path / "kill-mid"
        code = run_killed_sweep(directory, "FaultPlan().kill(2)")
        assert code != 0
        recorded = [
            json.loads(line)["cell_index"]
            for line in (directory / "metrics.jsonl").read_bytes().splitlines()
        ]
        assert recorded == [0, 1]  # the completed prefix survived the kill
        assert verify_store(directory)["ok"] is True
        resumed = run_sweep_parallel(sweep, workers=1, checkpoint_dir=directory)
        assert comparable_rows(resumed) == uninterrupted

    def test_killed_mid_record_write(self, tmp_path, sweep, uninterrupted):
        directory = tmp_path / "kill-torn"
        code = run_killed_sweep(
            directory, "FaultPlan().torn_record(1, keep_bytes=40, kill=True)"
        )
        assert code != 0
        report = verify_store(directory)
        assert report["ok"] is False
        assert [p["kind"] for p in report["problems"]] == ["torn-tail"]
        # Resume straight through the torn tail: the loader skips it (with a
        # warning) and the affected cell reruns.
        with pytest.warns(CheckpointWarning):
            resumed = run_sweep_parallel(
                sweep, workers=1, checkpoint_dir=directory
            )
        assert comparable_rows(resumed) == uninterrupted

    def test_killed_mid_record_then_repair_then_resume(
        self, tmp_path, sweep, uninterrupted
    ):
        directory = tmp_path / "kill-torn-repair"
        run_killed_sweep(
            directory, "FaultPlan().torn_record(1, keep_bytes=40, kill=True)"
        )
        report = repair_store(directory)
        assert report["repair"]["performed"] is True
        assert verify_store(directory)["ok"] is True
        resumed = run_sweep_parallel(sweep, workers=1, checkpoint_dir=directory)
        assert comparable_rows(resumed) == uninterrupted


class TestZeroByteMetricsRegression:
    """A manifest plus a zero-byte ``metrics.jsonl`` is a *clean* store.

    This is exactly what a sweep killed after opening the log but before the
    first record looks like — nothing recorded yet, nothing corrupt.  Verify
    must report it clean (exit 0 through the CLI), repair must not touch it,
    resume must run every cell, and the summary side must report every cell
    missing rather than fail.
    """

    @pytest.fixture
    def zero_byte_store(self, tmp_path, sweep):
        from repro.experiments.checkpoint import SweepCheckpoint

        directory = tmp_path / "zero-byte"
        SweepCheckpoint(directory, list(sweep.cells()), sweep)  # manifest only
        (directory / "metrics.jsonl").write_bytes(b"")
        return directory

    def test_verify_reports_clean(self, zero_byte_store):
        report = verify_store(zero_byte_store)
        assert report["ok"] is True
        assert report["problems"] == []
        assert report["records"]["total"] == 0
        assert report["valid_prefix_bytes"] == 0

    def test_cli_verify_exits_zero(self, zero_byte_store):
        import io

        from repro.cli import main

        out = io.StringIO()
        assert main(["checkpoint", "verify", str(zero_byte_store)], out=out) == 0
        assert json.loads(out.getvalue())["ok"] is True

    def test_repair_is_a_no_op(self, zero_byte_store):
        report = repair_store(zero_byte_store)
        assert report["repair"]["performed"] is False
        assert (zero_byte_store / "metrics.jsonl").read_bytes() == b""

    def test_resume_runs_every_cell(self, zero_byte_store, sweep):
        baseline = comparable_rows(run_sweep_parallel(sweep, workers=1))
        resumed = run_sweep_parallel(
            sweep, workers=1, checkpoint_dir=zero_byte_store
        )
        assert comparable_rows(resumed) == baseline

    def test_summary_reports_every_cell_missing(self, zero_byte_store, sweep):
        from repro.experiments.checkpoint import summarize_store

        payload = summarize_store(zero_byte_store)
        assert payload["n_cells"] == len(list(sweep.cells()))
        assert payload["n_missing"] == payload["n_cells"]
        assert payload["complete"] is False
        assert all(cell["metrics"] == {} for cell in payload["cells"])


def dropped_lines(caught) -> list[tuple[int, int]]:
    """``(line, bytes)`` of every resume warning about a dropped line."""
    pairs = []
    for warning in caught:
        match = re.search(r"dropping line (\d+) \((\d+) bytes\)", str(warning.message))
        if issubclass(warning.category, CheckpointWarning) and match:
            pairs.append((int(match.group(1)), int(match.group(2))))
    return pairs


def audited_lines(report) -> list[tuple[int, int]]:
    """``(line, bytes)`` of every line problem in a :func:`verify_store` report."""
    return [(p["line"], p["bytes"]) for p in report["problems"] if "line" in p]


class TestOneReader:
    """Resume, the summaries, reproduction, serving and the audit read alike."""

    def test_undecodable_byte_is_damage_not_a_crash(self, store, sweep):
        from repro.serving import ArtifactStore, reproduce_store

        metrics = store / "metrics.jsonl"
        lines = metrics.read_bytes().splitlines(keepends=True)
        cells = list(sweep.cells())
        # One byte inside cell 1's name becomes 0xff: not UTF-8 any more.
        at = lines[1].index(b'"cell_name":"') + len(b'"cell_name":"') + 2
        lines[1] = lines[1][:at] + b"\xff" + lines[1][at + 1 :]
        metrics.write_bytes(b"".join(lines))
        kept = [cells[i].name for i in (0, 2, 3)]

        with pytest.warns(CheckpointWarning, match="line 2 ") as caught:
            checkpoint = SweepCheckpoint(store, cells, sweep=sweep)
        assert dropped_lines(caught) == [(2, len(lines[1]) - 1)]
        assert sorted(checkpoint.resumed_rows()) == [0, 2, 3]

        summary = summarize_store(store)
        assert [c["name"] for c in summary["cells"] if c["metrics"]] == kept
        assert summary["n_missing"] == 1

        report = reproduce_store(store)
        assert report.counts() == {"match": 3, "missing": 1}
        assert [r.name for r in report.results if r.status == "missing"] == [
            cells[1].name
        ]

        served = ArtifactStore(store, trust_summary=False).answerable_cells()
        assert [cell["name"] for cell in served] == kept

        assert verify_store(store)["problems"] == [
            {"kind": "crc-mismatch", "line": 2, "bytes": len(lines[1]) - 1}
        ]

    def test_resume_and_audit_name_the_same_lines(self, store, sweep):
        metrics = store / "metrics.jsonl"
        records = metrics.read_bytes().splitlines()
        name_at = records[1].index(b'"cell_name":"') + len(b'"cell_name":"')
        form_feed = records[1][:name_at] + b"\x0c" + records[1][name_at + 1 :]
        crc_mismatch = records[2].replace(b'"replicate":0', b'"replicate":9', 1)
        assert crc_mismatch != records[2]
        not_a_record = encode_record_line({"note": "no spec hash"}).rstrip(b"\n")
        lines = [
            records[0],
            form_feed,
            crc_mismatch,
            b"[1, 2]",
            not_a_record,
            records[3],
        ]
        torn_tail = records[1][:30]
        metrics.write_bytes(b"\n".join(lines) + b"\n" + torn_tail)

        with pytest.warns(CheckpointWarning) as caught:
            checkpoint = SweepCheckpoint(store, list(sweep.cells()), sweep=sweep)
        report = verify_store(store)
        assert [p["kind"] for p in report["problems"]] == [
            "corrupt-line",
            "crc-mismatch",
            "corrupt-line",
            "malformed-record",
            "torn-tail",
        ]
        assert dropped_lines(caught) == audited_lines(report)
        assert audited_lines(report) == [
            (2, len(form_feed)),
            (3, len(crc_mismatch)),
            (4, 6),
            (5, len(not_a_record)),
            (7, 30),
        ]
        assert sorted(checkpoint.resumed_rows()) == [0, 3]


@dataclasses.dataclass
class UnserializableSweep:
    """A sweep whose snapshot JSON cannot encode (provenance is best-effort)."""

    name: str
    payload: object


def fail_fsync(descriptor):
    """Stand-in for :func:`os.fsync` on a full disk."""
    raise OSError(28, "No space left on device")


class TestAtomicWriter:
    """``manifest.json``, ``summary.json`` and a repaired log: one writer."""

    @pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
    def test_store_files_get_the_mode_of_a_plain_open(self, tmp_path, sweep, umask):
        previous = os.umask(umask)
        try:
            probe = tmp_path / "probe"
            probe.write_text("")
            directory = tmp_path / "store"
            run_sweep_parallel(sweep, workers=1, checkpoint_dir=directory)
            metrics = directory / "metrics.jsonl"
            metrics.write_bytes(metrics.read_bytes()[:-30])  # torn tail
            assert repair_store(directory)["repair"]["performed"] is True
        finally:
            os.umask(previous)
        expected = stat.S_IMODE(probe.stat().st_mode)
        assert expected == 0o666 & ~umask
        modes = {
            name: stat.S_IMODE((directory / name).stat().st_mode)
            for name in ("manifest.json", "metrics.jsonl", "summary.json")
        }
        assert modes == dict.fromkeys(modes, expected)

    @pytest.mark.parametrize("failure", ["unserializable-snapshot", "disk-full"])
    def test_failed_manifest_write_leaves_nothing_behind(
        self, tmp_path, sweep, monkeypatch, failure
    ):
        directory = tmp_path / "store"
        cells = list(sweep.cells())
        with monkeypatch.context() as patch:
            if failure == "disk-full":
                patch.setattr(os, "fsync", fail_fsync)
                with pytest.raises(OSError, match="No space left"):
                    SweepCheckpoint(directory, cells, sweep=sweep)
            else:
                with pytest.raises(TypeError, match="cannot serialise object"):
                    SweepCheckpoint(
                        directory, cells, sweep=UnserializableSweep("odd", object())
                    )
        assert list(directory.iterdir()) == []
        # The next run in that directory proceeds and leaves a healthy store.
        table = run_sweep_parallel(sweep, workers=1, checkpoint_dir=directory)
        assert comparable_rows(table) == comparable_rows(
            run_sweep_parallel(sweep, workers=1)
        )
        assert verify_store(directory)["ok"] is True
