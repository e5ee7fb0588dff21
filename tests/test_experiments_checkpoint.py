"""Checkpoint/resume tests: spec hashing, artifact layout, resumed tables."""

import json

import pytest

from repro.core.config import ModelConfig
from repro.core.variants import VariantSpec
from repro.errors import ExperimentError
from repro.experiments.checkpoint import (
    MANIFEST_FORMAT,
    SweepCheckpoint,
)
from repro.experiments.parallel import run_sweep_parallel
from repro.experiments.runner import run_sweep
from repro.experiments.spec import ExperimentSpec, SweepSpec, spec_hash

TIMING_COLUMNS = {"wall_clock_seconds"}


def comparable_rows(table):
    """The table's rows with the timing columns stripped."""
    return [
        {key: value for key, value in row.items() if key not in TIMING_COLUMNS}
        for row in table.rows
    ]


@pytest.fixture
def small_sweep() -> SweepSpec:
    """A 2 x 2 x 2 sweep (taus x densities x replicates) of small cells."""
    base = ModelConfig.square(side=18, horizon=1, tau=0.4)
    return SweepSpec(
        name="checkpoint-unit",
        base_config=base,
        taus=[0.35, 0.45],
        densities=[0.45, 0.55],
        n_replicates=2,
        seed=13,
    )


def _cell(**overrides) -> ExperimentSpec:
    defaults = dict(
        name="cell",
        config=ModelConfig.square(side=12, horizon=1, tau=0.4),
        n_replicates=2,
        seed=7,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestSpecHash:
    def test_equal_specs_hash_equal(self):
        assert spec_hash(_cell()) == spec_hash(_cell())

    @pytest.mark.parametrize(
        "overrides",
        [
            {"name": "other"},
            {"seed": 8},
            {"n_replicates": 3},
            {"max_flips": 100},
            {"max_steps": 100},
            {"max_region_radius": 2},
            {"record_trajectory": True},
            {"record_every": 7},
            {"config": ModelConfig.square(side=12, horizon=1, tau=0.45)},
            {
                "variant": VariantSpec.two_sided(0.9),
                "max_steps": 50,
            },
        ],
    )
    def test_any_row_determining_change_changes_hash(self, overrides):
        assert spec_hash(_cell(**overrides)) != spec_hash(_cell())

    def test_hash_is_hex_sha256(self):
        digest = spec_hash(_cell())
        assert len(digest) == 64
        int(digest, 16)  # parses as hex

    def test_sweep_cells_hash_uniquely(self, small_sweep):
        hashes = [spec_hash(cell) for cell in small_sweep.cells()]
        assert len(set(hashes)) == len(hashes)


class TestArtifactLayout:
    def test_manifest_written_with_provenance(self, small_sweep, tmp_path):
        cells = list(small_sweep.cells())
        SweepCheckpoint(tmp_path, cells, sweep=small_sweep)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["format"] == MANIFEST_FORMAT
        assert manifest["n_cells"] == len(cells)
        assert [entry["name"] for entry in manifest["cells"]] == [
            cell.name for cell in cells
        ]
        assert [entry["spec_hash"] for entry in manifest["cells"]] == [
            spec_hash(cell) for cell in cells
        ]
        assert manifest["sweep"]["name"] == small_sweep.name
        assert manifest["library_version"]
        assert manifest["python"]
        assert manifest["numpy"]

    def test_metrics_streamed_in_cell_order(self, small_sweep, tmp_path):
        run_sweep_parallel(small_sweep, workers=1, checkpoint_dir=tmp_path)
        records = [
            json.loads(line)
            for line in (tmp_path / "metrics.jsonl").read_text().splitlines()
        ]
        assert [record["cell_index"] for record in records] == list(
            range(len(records))
        )
        assert len(records) == small_sweep.n_cells()
        cells = list(small_sweep.cells())
        for record in records:
            assert record["spec_hash"] == spec_hash(cells[record["cell_index"]])
            assert len(record["rows"]) == small_sweep.n_replicates

    def test_foreign_manifest_refused(self, small_sweep, tmp_path):
        (tmp_path / "manifest.json").write_text('{"format": "something-else"}')
        with pytest.raises(ExperimentError):
            run_sweep_parallel(small_sweep, workers=1, checkpoint_dir=tmp_path)

    def test_corrupt_manifest_refused(self, small_sweep, tmp_path):
        (tmp_path / "manifest.json").write_text("{not json")
        with pytest.raises(ExperimentError):
            run_sweep_parallel(small_sweep, workers=1, checkpoint_dir=tmp_path)


class TestResume:
    def _count_runs(self, monkeypatch):
        """Patch the cell runner with a call counter (inline path only)."""
        import repro.experiments.runner as runner_module

        calls = []
        original = runner_module.run_experiment

        def counting(spec, ensemble_size=None, backend=None):
            calls.append(spec.name)
            return original(spec, ensemble_size=ensemble_size, backend=backend)

        monkeypatch.setattr(runner_module, "run_experiment", counting)
        return calls

    def test_completed_run_resumes_without_recomputing(
        self, small_sweep, tmp_path, monkeypatch
    ):
        first = run_sweep_parallel(small_sweep, workers=1, checkpoint_dir=tmp_path)
        calls = self._count_runs(monkeypatch)
        second = run_sweep_parallel(small_sweep, workers=1, checkpoint_dir=tmp_path)
        assert calls == []  # every cell came from the checkpoint
        # Resumed rows are the recorded ones verbatim — wall clock included.
        assert second.rows == first.rows

    def test_interrupted_run_resumes_into_identical_table(
        self, small_sweep, tmp_path, monkeypatch
    ):
        class Interrupted(RuntimeError):
            pass

        seen = []

        def interrupt_after_three(cell):
            seen.append(cell.name)
            if len(seen) == 3:
                raise Interrupted("simulated kill")

        with pytest.raises(Interrupted):
            run_sweep_parallel(
                small_sweep,
                workers=2,
                chunk_size=1,
                checkpoint_dir=tmp_path,
                progress=interrupt_after_three,
            )
        recorded = (tmp_path / "metrics.jsonl").read_text().splitlines()
        assert 0 < len(recorded) < small_sweep.n_cells()

        calls = self._count_runs(monkeypatch)
        resumed = run_sweep_parallel(
            small_sweep, workers=1, checkpoint_dir=tmp_path
        )
        assert len(calls) == small_sweep.n_cells() - len(recorded)
        assert comparable_rows(resumed) == comparable_rows(run_sweep(small_sweep))

    def test_torn_trailing_line_is_skipped(self, small_sweep, tmp_path, monkeypatch):
        run_sweep_parallel(small_sweep, workers=1, checkpoint_dir=tmp_path)
        metrics = tmp_path / "metrics.jsonl"
        lines = metrics.read_text().splitlines()
        torn = lines[-1][: len(lines[-1]) // 2]  # a kill mid-append
        metrics.write_text("\n".join(lines[:-1]) + "\n" + torn)

        calls = self._count_runs(monkeypatch)
        resumed = run_sweep_parallel(
            small_sweep, workers=1, checkpoint_dir=tmp_path
        )
        assert len(calls) == 1  # only the torn cell reruns
        assert comparable_rows(resumed) == comparable_rows(run_sweep(small_sweep))

    def test_record_after_torn_tail_does_not_corrupt_log(
        self, small_sweep, tmp_path, monkeypatch
    ):
        """Resuming over a torn tail must leave a log that still resumes."""
        run_sweep_parallel(small_sweep, workers=1, checkpoint_dir=tmp_path)
        metrics = tmp_path / "metrics.jsonl"
        lines = metrics.read_text().splitlines()
        # A kill mid-append leaves an unterminated fragment at the end.
        metrics.write_text("\n".join(lines[:2]) + "\n" + lines[2][:40])

        run_sweep_parallel(small_sweep, workers=1, checkpoint_dir=tmp_path)
        parsed = 0
        for line in metrics.read_text().splitlines():
            try:
                json.loads(line)
                parsed += 1
            except ValueError:
                continue  # the resume's first append removed the fragment
        assert parsed == small_sweep.n_cells()

        calls = self._count_runs(monkeypatch)
        final = run_sweep_parallel(small_sweep, workers=1, checkpoint_dir=tmp_path)
        assert calls == []  # every record (including post-fragment) loads
        assert comparable_rows(final) == comparable_rows(run_sweep(small_sweep))

    def test_parameter_change_invalidates_records(
        self, small_sweep, tmp_path, monkeypatch
    ):
        run_sweep_parallel(small_sweep, workers=1, checkpoint_dir=tmp_path)
        reseeded = SweepSpec(
            name=small_sweep.name,
            base_config=small_sweep.base_config,
            taus=small_sweep.taus,
            densities=small_sweep.densities,
            n_replicates=small_sweep.n_replicates,
            seed=small_sweep.seed + 1,
        )
        calls = self._count_runs(monkeypatch)
        resumed = run_sweep_parallel(reseeded, workers=1, checkpoint_dir=tmp_path)
        assert len(calls) == reseeded.n_cells()  # nothing matched, all rerun
        assert comparable_rows(resumed) == comparable_rows(run_sweep(reseeded))

    def test_resume_composes_with_pool_and_ensemble(self, small_sweep, tmp_path):
        interrupted = 0

        def interrupt_after_two(cell):
            nonlocal interrupted
            interrupted += 1
            if interrupted == 2:
                raise RuntimeError("simulated kill")

        with pytest.raises(RuntimeError):
            run_sweep_parallel(
                small_sweep,
                workers=2,
                chunk_size=1,
                ensemble_size=1,
                checkpoint_dir=tmp_path,
                progress=interrupt_after_two,
            )
        resumed = run_sweep_parallel(
            small_sweep, workers=2, ensemble_size=2, checkpoint_dir=tmp_path
        )
        assert comparable_rows(resumed) == comparable_rows(
            run_sweep(small_sweep, ensemble_size=1)
        )

    def test_run_sweep_delegates_checkpointing(self, small_sweep, tmp_path):
        table = run_sweep(small_sweep, checkpoint_dir=tmp_path)
        assert (tmp_path / "manifest.json").exists()
        assert (tmp_path / "metrics.jsonl").exists()
        assert comparable_rows(table) == comparable_rows(run_sweep(small_sweep))
