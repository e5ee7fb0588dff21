"""``repro reproduce`` round-trip matrix.

The store's core promise: a manifest is sufficient to re-execute every
recorded cell and regenerate its rows *bitwise* (wall-clock columns aside).
This module drives the matrix the ISSUE prescribes — fresh sweep reproduced
cell by cell, mutated manifests rejected with named diffs, tampered rows
caught at the exact row/column, quarantined failures reported instead of
crashed on — plus the engine-independence cross-check.
"""

import io
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.config import ModelConfig
from repro.errors import ServingError
from repro.experiments.checkpoint import encode_record_line
from repro.experiments.faults import FaultPlan
from repro.experiments.parallel import run_sweep_parallel
from repro.experiments.spec import SweepSpec
from repro.serving import reproduce_store


def make_sweep(seed: int = 23) -> SweepSpec:
    """The small sweep reproduced across this module."""
    base = ModelConfig.square(side=10, horizon=1, tau=0.3)
    return SweepSpec(
        name="repro-unit",
        base_config=base,
        taus=(0.3, 0.45),
        densities=(0.5,),
        n_replicates=2,
        seed=seed,
    )


@pytest.fixture(scope="module")
def store(tmp_path_factory) -> Path:
    """One completed store shared by the read-only reproduce tests."""
    directory = tmp_path_factory.mktemp("reproduce") / "store"
    run_sweep_parallel(make_sweep(), workers=1, checkpoint_dir=directory)
    return directory


def mutate_manifest(source: Path, target_dir: Path, **sweep_overrides) -> Path:
    """Copy a store and edit fields of the manifest's sweep snapshot."""
    import shutil

    mutated = target_dir / "mutated"
    shutil.copytree(source, mutated)
    manifest = json.loads((mutated / "manifest.json").read_text())
    manifest["sweep"].update(sweep_overrides)
    (mutated / "manifest.json").write_text(json.dumps(manifest))
    return mutated


class TestFreshStoreReproduces:
    def test_every_cell_matches_bitwise(self, store):
        report = reproduce_store(store)
        assert report.ok is True
        assert report.counts() == {"match": 2}
        for result in report.results:
            assert result.diffs == []
            assert result.damaged is False

    def test_single_cell_selection(self, store):
        name = list(make_sweep().cells())[1].name
        report = reproduce_store(store, cell=name)
        assert [r.name for r in report.results] == [name]
        assert report.ok is True

    def test_unknown_cell_name_is_an_error_naming_the_cells(self, store):
        with pytest.raises(ServingError, match="repro-unit"):
            reproduce_store(store, cell="no-such-cell")

    def test_manifest_path_spelling_accepted(self, store):
        assert reproduce_store(store / "manifest.json").ok is True

    def test_vectorized_engine_reproduces_identically(self, store):
        """Rows are engine-independent: the scalar oracle regenerates the
        rows the default ensemble recorded."""
        report = reproduce_store(store, ensemble_size=1)
        assert report.ok is True
        assert report.counts() == {"match": 2}

    def test_report_as_dict_is_json_serializable(self, store):
        payload = json.loads(json.dumps(reproduce_store(store).as_dict()))
        assert payload["ok"] is True
        assert {cell["status"] for cell in payload["cells"]} == {"match"}


class TestMutatedManifest:
    def test_changed_seed_is_spec_drift_with_named_hashes(self, store, tmp_path):
        mutated = mutate_manifest(store, tmp_path, seed=999)
        report = reproduce_store(mutated)
        assert report.ok is False
        assert report.counts() == {"spec-drift": 2}
        detail = report.results[0].detail
        assert "spec_hash" in detail and "disagree" in detail

    def test_changed_tau_grid_is_spec_drift(self, store, tmp_path):
        mutated = mutate_manifest(store, tmp_path, taus=[0.31, 0.45])
        report = reproduce_store(mutated)
        assert report.ok is False
        assert "spec-drift" in report.counts()

    def test_wrong_cell_count_is_rejected_outright(self, store, tmp_path):
        mutated = mutate_manifest(store, tmp_path, taus=[0.3, 0.45, 0.5])
        with pytest.raises(ServingError, match="expands to 3"):
            reproduce_store(mutated)

    def test_missing_manifest_is_an_error(self, tmp_path):
        (tmp_path / "metrics.jsonl").write_text("")
        with pytest.raises(ServingError, match="manifest"):
            reproduce_store(tmp_path)


class TestTamperedRows:
    def test_flipped_value_yields_named_diff(self, store, tmp_path):
        """One bit of one stored value → mismatch naming the row and column."""
        import shutil

        tampered = tmp_path / "tampered"
        shutil.copytree(store, tampered)
        lines = (tampered / "metrics.jsonl").read_text().splitlines()
        record = json.loads(lines[0])
        record.pop("crc32")
        record["rows"][1]["n_flips"] = record["rows"][1]["n_flips"] + 1
        encoded = encode_record_line(record)
        if isinstance(encoded, bytes):
            encoded = encoded.decode("utf-8")
        lines[0] = encoded.rstrip("\n")
        (tampered / "metrics.jsonl").write_text("\n".join(lines) + "\n")

        report = reproduce_store(tampered)
        assert report.ok is False
        assert report.counts() == {"mismatch": 1, "match": 1}
        [mismatch] = [r for r in report.results if r.status == "mismatch"]
        assert mismatch.diffs[0]["row"] == 1
        assert mismatch.diffs[0]["column"] == "n_flips"
        assert mismatch.diffs[0]["stored"] == mismatch.diffs[0]["regenerated"] + 1


class TestIncompleteStores:
    def test_quarantined_cell_reported_not_crashed(self, tmp_path):
        directory = tmp_path / "store"
        run_sweep_parallel(
            make_sweep(),
            workers=1,
            checkpoint_dir=directory,
            fault_plan=FaultPlan().crash(0, attempts=9),
            retries=0,
            on_error="skip",
        )
        report = reproduce_store(directory)
        assert report.counts() == {"recorded-failure": 1, "match": 1}
        assert report.ok is True  # an honest store state, not a regression
        [failure] = [r for r in report.results if r.status == "recorded-failure"]
        assert "InjectedFault" in failure.detail

    def test_never_recorded_cell_reported_missing(self, store, tmp_path):
        import shutil

        partial = tmp_path / "partial"
        shutil.copytree(store, partial)
        lines = (partial / "metrics.jsonl").read_text().splitlines()
        (partial / "metrics.jsonl").write_text(lines[0] + "\n")
        report = reproduce_store(partial)
        assert report.counts() == {"match": 1, "missing": 1}
        assert report.ok is True


class TestReproduceCli:
    def test_clean_store_exits_zero(self, store):
        out = io.StringIO()
        assert main(["reproduce", str(store)], out=out) == 0
        payload = json.loads(out.getvalue())
        assert payload["ok"] is True
        assert payload["counts"] == {"match": 2}

    def test_mutated_manifest_exits_one_with_named_diff(self, store, tmp_path):
        mutated = mutate_manifest(store, tmp_path, seed=999)
        out = io.StringIO()
        assert main(["reproduce", str(mutated)], out=out) == 1
        payload = json.loads(out.getvalue())
        assert payload["ok"] is False
        assert payload["cells"][0]["status"] == "spec-drift"
        assert "spec_hash" in payload["cells"][0]["detail"]

    def test_cell_flag_and_max_diffs_flag(self, store):
        name = list(make_sweep().cells())[0].name
        out = io.StringIO()
        rc = main(
            ["reproduce", str(store), "--cell", name, "--max-diffs", "2"],
            out=out,
        )
        assert rc == 0
        assert len(json.loads(out.getvalue())["cells"]) == 1

    def test_unusable_store_exits_one_with_message(self, tmp_path, capsys):
        (tmp_path / "metrics.jsonl").write_text("")
        assert main(["reproduce", str(tmp_path)], out=io.StringIO()) == 1
        assert "manifest" in capsys.readouterr().err


class TestCommittedFixtureStore:
    """The committed fixture (``tests/data/sweep_fixture_store``) must keep
    reproducing on today's engine — rows recorded by an earlier build,
    regenerated bitwise now.  Refresh deliberately with
    ``tools/make_fixture_store.py`` if the engine's behaviour changes."""

    FIXTURE = Path(__file__).parent / "data" / "sweep_fixture_store"

    def test_fixture_reproduces_bitwise(self):
        report = reproduce_store(self.FIXTURE)
        assert report.ok is True
        assert report.counts() == {"match": 4}

    def test_fixture_reproduces_bitwise_on_the_scalar_oracle(self):
        report = reproduce_store(self.FIXTURE, ensemble_size=1)
        assert report.ok is True
        assert report.counts() == {"match": 4}

    def test_fixture_summary_regenerates_byte_identical(self, tmp_path):
        import shutil

        from repro.experiments.checkpoint import write_summary

        copy = tmp_path / "fixture"
        shutil.copytree(self.FIXTURE, copy)
        (copy / "summary.json").unlink()
        assert write_summary(copy).read_bytes() == (
            self.FIXTURE / "summary.json"
        ).read_bytes()

    def test_fixture_answers_queries(self):
        from repro.serving import QueryEngine

        engine = QueryEngine(self.FIXTURE, interpolate=True)
        exact = engine.answer("tau=0.3,rho=0.4,w=1")
        assert exact["source"] == "exact"
        blended = engine.answer("tau=0.375,rho=0.5,w=1")
        assert blended["source"] == "interpolated"
