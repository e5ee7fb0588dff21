"""Artifact-store completion tests: ``summary.json`` and :class:`ArtifactStore`.

The contract under test: every checkpointed sweep that runs to completion
leaves a ``summary.json`` of per-cell aggregates next to the manifest; the
same file is derivable offline (``repro summarize`` /
:func:`~repro.experiments.checkpoint.write_summary`) byte-for-byte; and the
serving layer's :class:`~repro.serving.store.ArtifactStore` reads it — or
derives it in memory — without ever touching the execution engine.
"""

import json
from pathlib import Path

import pytest

from repro.core.config import ModelConfig
from repro.errors import ExperimentError, ServingError
from repro.experiments.checkpoint import (
    SUMMARY_FORMAT,
    SUMMARY_NAME,
    summarize_store,
    write_summary,
)
from repro.experiments.faults import FaultPlan
from repro.experiments.parallel import run_sweep_parallel
from repro.experiments.results import ResultTable
from repro.experiments.spec import SweepSpec, spec_hash
from repro.serving import ArtifactStore, sweep_from_snapshot

STAT_FIELDS = {"count", "mean", "std", "min", "max", "ci_low", "ci_high"}


def make_sweep(seed: int = 11) -> SweepSpec:
    """The small four-cell sweep used across this module."""
    base = ModelConfig.square(side=10, horizon=1, tau=0.3)
    return SweepSpec(
        name="serving-unit",
        base_config=base,
        taus=(0.3, 0.45),
        densities=(0.4, 0.6),
        n_replicates=2,
        seed=seed,
    )


@pytest.fixture
def sweep() -> SweepSpec:
    """Fixture wrapper around :func:`make_sweep`."""
    return make_sweep()


@pytest.fixture
def store(tmp_path, sweep) -> Path:
    """A completed checkpointed sweep (summary written at completion)."""
    directory = tmp_path / "store"
    run_sweep_parallel(sweep, workers=1, checkpoint_dir=directory)
    return directory


class TestSummaryAtCompletion:
    def test_completed_sweep_writes_summary(self, store):
        payload = json.loads((store / SUMMARY_NAME).read_text())
        assert payload["format"] == SUMMARY_FORMAT
        assert payload["n_cells"] == 4
        assert payload["n_summarized"] == 4
        assert payload["n_failed"] == 0
        assert payload["n_missing"] == 0
        assert payload["complete"] is True

    def test_cells_carry_params_and_full_stats(self, store, sweep):
        payload = json.loads((store / SUMMARY_NAME).read_text())
        cells = list(sweep.cells())
        assert [entry["name"] for entry in payload["cells"]] == [
            spec.name for spec in cells
        ]
        assert [entry["spec_hash"] for entry in payload["cells"]] == [
            spec_hash(spec) for spec in cells
        ]
        for entry, spec in zip(payload["cells"], cells):
            assert entry["params"] == {
                "tau": spec.config.tau,
                "w": spec.config.horizon,
                "rho": spec.config.density,
            }
            assert entry["n_replicates"] == 2
            assert entry["failure"] is None
            assert entry["metrics"], "every completed cell has aggregates"
            for stats in entry["metrics"].values():
                assert set(stats) == STAT_FIELDS
                assert stats["count"] == 2.0

    def test_mean_matches_recorded_rows(self, store, sweep):
        payload = json.loads((store / SUMMARY_NAME).read_text())
        table = run_sweep_parallel(sweep, workers=1, checkpoint_dir=store)
        cells = list(sweep.cells())
        first = payload["cells"][0]
        rows = [r for r in table.rows if r["experiment"] == cells[0].name]
        expected = sum(float(r["final_unhappy_fraction"]) for r in rows) / len(rows)
        assert first["metrics"]["final_unhappy_fraction"]["mean"] == pytest.approx(
            expected
        )

    def test_resumed_sweep_rewrites_identical_summary(self, store, sweep):
        before = (store / SUMMARY_NAME).read_bytes()
        run_sweep_parallel(sweep, workers=1, checkpoint_dir=store)  # resume no-op
        assert (store / SUMMARY_NAME).read_bytes() == before


class TestOfflineSummarize:
    def test_write_summary_is_byte_identical_to_completion_hook(self, store):
        at_completion = (store / SUMMARY_NAME).read_bytes()
        (store / SUMMARY_NAME).unlink()
        path = write_summary(store)
        assert path == store / SUMMARY_NAME
        assert path.read_bytes() == at_completion

    def test_summarize_store_matches_file(self, store):
        assert summarize_store(store) == json.loads(
            (store / SUMMARY_NAME).read_text()
        )

    def test_write_summary_leaves_no_temp_files(self, store):
        write_summary(store)
        leftovers = [
            p.name
            for p in store.iterdir()
            if p.name not in ("manifest.json", "metrics.jsonl", SUMMARY_NAME)
        ]
        assert leftovers == []

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(ExperimentError):
            summarize_store(tmp_path)


class TestSummaryWithFailures:
    def test_quarantined_cell_reported_not_aggregated(self, tmp_path, sweep):
        directory = tmp_path / "store"
        table = run_sweep_parallel(
            sweep,
            workers=1,
            checkpoint_dir=directory,
            fault_plan=FaultPlan().crash(2, attempts=9),
            retries=0,
            on_error="skip",
        )
        assert len(table.failures) == 1
        payload = json.loads((directory / SUMMARY_NAME).read_text())
        assert payload["n_summarized"] == 3
        assert payload["n_failed"] == 1
        assert payload["complete"] is False
        failed = payload["cells"][2]
        assert failed["metrics"] == {}
        assert failed["n_replicates"] == 0
        assert "InjectedFault" in failed["failure"]["error"]


class TestArtifactStore:
    def test_reads_summary_from_disk(self, store):
        handle = ArtifactStore(store)
        assert handle.summary() == json.loads((store / SUMMARY_NAME).read_text())
        assert len(handle.cells()) == 4
        assert len(handle.answerable_cells()) == 4

    def test_derives_summary_when_file_absent(self, store):
        (store / SUMMARY_NAME).unlink()
        handle = ArtifactStore(store)
        assert handle.summary() == summarize_store(store)
        assert not (store / SUMMARY_NAME).exists(), "summary() must not write"

    def test_accepts_manifest_path_spelling(self, store):
        handle = ArtifactStore(store / "manifest.json")
        assert handle.directory == store

    def test_rejects_missing_directory(self, tmp_path):
        with pytest.raises(ServingError):
            ArtifactStore(tmp_path / "nope")

    def test_corrupt_summary_file_falls_back_to_derivation(self, store):
        (store / SUMMARY_NAME).write_text("{not json")
        handle = ArtifactStore(store)
        assert handle.summary() == summarize_store(store)

    def test_sweep_round_trips_through_snapshot(self, store, sweep):
        rebuilt = ArtifactStore(store).sweep()
        assert rebuilt == sweep
        assert [spec_hash(c) for c in rebuilt.cells()] == [
            spec_hash(c) for c in sweep.cells()
        ]

    def test_sweep_from_snapshot_rejects_repr_snapshot(self):
        with pytest.raises(ServingError):
            sweep_from_snapshot({"repr": "SweepSpec(...)"})
        with pytest.raises(ServingError):
            sweep_from_snapshot(None)


class TestNumericSummary:
    def test_numeric_columns_excludes_strings(self):
        table = ResultTable(
            [
                {"name": "a", "x": 1, "flag": True, "y": 0.5},
                {"name": "b", "x": 2, "flag": False, "y": 1.5},
            ]
        )
        assert table.numeric_columns() == ["x", "flag", "y"]

    def test_numeric_summary_values(self):
        table = ResultTable([{"x": 1.0}, {"x": 3.0}])
        summary = table.numeric_summary()
        assert summary["x"]["mean"] == 2.0
        assert summary["x"]["min"] == 1.0
        assert summary["x"]["max"] == 3.0
        assert set(summary["x"]) == STAT_FIELDS

    def test_empty_table_raises(self):
        with pytest.raises(ExperimentError):
            ResultTable([]).numeric_summary()
