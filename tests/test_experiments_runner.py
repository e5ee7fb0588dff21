"""Tests for the replicate/sweep runner."""

import json
from pathlib import Path

import pytest

from repro.core.config import ModelConfig
from repro.core.variants import VariantSpec
from repro.experiments.runner import (
    aggregate_sweep,
    run_experiment,
    run_replicate,
    run_sweep,
)
from repro.experiments.spec import ExperimentSpec, SweepSpec


@pytest.fixture
def small_spec() -> ExperimentSpec:
    config = ModelConfig.square(side=20, horizon=1, tau=0.4)
    return ExperimentSpec(name="unit", config=config, n_replicates=2, seed=7)


class TestRunReplicate:
    def test_row_contents(self, small_spec):
        row = run_replicate(small_spec, 0, 123)
        assert row["experiment"] == "unit"
        assert row["terminated"] is True or row["terminated"] is False
        assert row["tau"] == 0.4
        assert "final_mean_monochromatic_size" in row
        assert "initial_local_homogeneity" in row
        assert row["wall_clock_seconds"] >= 0

    def test_deterministic_given_seed(self, small_spec):
        a = run_replicate(small_spec, 0, 99)
        b = run_replicate(small_spec, 0, 99)
        assert a["n_flips"] == b["n_flips"]
        assert a["final_energy"] == b["final_energy"]

    def test_segregation_metrics_improve(self, small_spec):
        row = run_replicate(small_spec, 0, 5)
        assert row["final_local_homogeneity"] >= row["initial_local_homogeneity"]


class TestRunExperiment:
    def test_replicate_count(self, small_spec):
        table = run_experiment(small_spec)
        assert len(table) == small_spec.n_replicates

    def test_replicates_use_distinct_seeds(self, small_spec):
        table = run_experiment(small_spec)
        seeds = table.column("seed")
        assert len(set(seeds)) == len(seeds)


class TestRunSweep:
    def test_sweep_rows_and_progress(self):
        base = ModelConfig.square(side=20, horizon=1, tau=0.4)
        sweep = SweepSpec(
            name="sweep", base_config=base, taus=[0.35, 0.45], n_replicates=2, seed=0
        )
        visited = []
        table = run_sweep(sweep, progress=lambda cell: visited.append(cell.name))
        assert len(table) == 4
        assert len(visited) == 2

    def test_progress_callback_fires_exactly_once_per_cell(self):
        """Smoke test for the typed ``progress`` hook: one call per cell, in
        cell order, with the cell's ExperimentSpec."""
        base = ModelConfig.square(side=18, horizon=1, tau=0.4)
        sweep = SweepSpec(
            name="progress",
            base_config=base,
            taus=[0.35, 0.4, 0.45],
            n_replicates=1,
            seed=2,
        )
        visited: list[ExperimentSpec] = []
        run_sweep(sweep, progress=visited.append)
        assert [cell.name for cell in visited] == [
            cell.name for cell in sweep.cells()
        ]
        assert all(isinstance(cell, ExperimentSpec) for cell in visited)

    def test_ensemble_size_produces_identical_rows(self):
        base = ModelConfig.square(side=18, horizon=1, tau=0.4)
        sweep = SweepSpec(
            name="sweep", base_config=base, taus=[0.35, 0.45], n_replicates=3, seed=4
        )
        serial = run_sweep(sweep)
        vectorized = run_sweep(sweep, ensemble_size=3)
        strip = lambda table: [
            {k: v for k, v in row.items() if k != "wall_clock_seconds"}
            for row in table.rows
        ]
        assert strip(serial) == strip(vectorized)

    def test_aggregate_sweep(self):
        base = ModelConfig.square(side=20, horizon=1, tau=0.4)
        sweep = SweepSpec(
            name="sweep", base_config=base, taus=[0.35, 0.45], n_replicates=2, seed=1
        )
        table = run_sweep(sweep)
        summary = aggregate_sweep(table, group_keys=("tau",))
        assert len(summary) == 2
        assert "final_mean_monochromatic_size_mean" in summary[0]
        assert summary[0]["n"] == 2


class TestTrajectoryRecording:
    def _sweep(self, record=True):
        base = ModelConfig.square(side=12, horizon=1, tau=0.4)
        return SweepSpec(
            name="traj",
            base_config=base,
            taus=[0.35, 0.4],
            n_replicates=2,
            seed=3,
            record_trajectory=record,
            record_every=25,
        )

    def test_rows_gain_traj_columns(self):
        table = run_sweep(self._sweep())
        for row in table.rows:
            assert "traj_final_energy" in row
            assert "traj_energy_monotone" in row
            assert row["traj_energy_monotone"] == 1.0
            assert row["traj_total_flips"] == float(row["n_flips"])

    def test_no_traj_columns_by_default(self):
        table = run_sweep(self._sweep(record=False))
        assert not any(key.startswith("traj_") for key in table.rows[0])

    def test_ensemble_and_scalar_rows_identical_with_recording(self):
        sweep = self._sweep()
        strip = lambda table: [
            {k: v for k, v in row.items() if k != "wall_clock_seconds"}
            for row in table.rows
        ]
        serial = run_sweep(sweep)
        batched = run_sweep(sweep, ensemble_size=2)
        assert strip(serial) == strip(batched)

    def test_parallel_rows_identical_with_recording(self):
        sweep = self._sweep()
        strip = lambda table: [
            {k: v for k, v in row.items() if k != "wall_clock_seconds"}
            for row in table.rows
        ]
        serial = run_sweep(sweep)
        parallel = run_sweep(sweep, workers=2, ensemble_size=2)
        assert strip(serial) == strip(parallel)


def _strip_timings(table):
    return [
        {k: v for k, v in row.items() if k != "wall_clock_seconds"}
        for row in table.rows
    ]


class TestGoldenRows:
    """The measurement pipeline must keep producing the pre-batching rows.

    ``tests/data/golden_sweep_rows.json`` was captured from the serial runner
    *before* the batched region scans and ``segregation_metrics_batch``
    landed; every execution path must still reproduce those rows bitwise
    (timings aside), which pins the whole pipeline — metrics included — to
    the original semantics.
    """

    GOLDEN_PATH = Path(__file__).parent / "data" / "golden_sweep_rows.json"

    def _sweep(self) -> SweepSpec:
        base = ModelConfig.square(side=22, horizon=2, tau=0.45)
        return SweepSpec(
            name="golden", base_config=base, taus=[0.4, 0.45], n_replicates=2, seed=2024
        )

    def _normalized_rows(self, table) -> list[dict]:
        # A JSON round-trip mirrors how the fixture was written (tuples to
        # lists, numpy scalars to Python numbers) without perturbing floats.
        return json.loads(json.dumps(_strip_timings(table)))

    @pytest.mark.parametrize(
        "run_kwargs",
        [
            {},
            {"ensemble_size": 2},
            {"workers": 2},
            {"workers": 2, "ensemble_size": 2},
        ],
        ids=["serial", "ensemble", "parallel-scalar", "parallel"],
    )
    def test_rows_match_pre_batching_capture(self, run_kwargs):
        golden = json.loads(self.GOLDEN_PATH.read_text())
        table = run_sweep(self._sweep(), **run_kwargs)
        assert self._normalized_rows(table) == golden

    def test_retried_rows_match_capture_bitwise(self):
        # Supervised retry must not perturb a single bit of the output:
        # per-cell seeds never depend on the attempt, so a sweep that
        # crashed and retried converges to exactly the golden rows.
        from repro.experiments.faults import FaultPlan
        from repro.experiments.parallel import run_sweep_parallel

        golden = json.loads(self.GOLDEN_PATH.read_text())
        table = run_sweep_parallel(
            self._sweep(),
            workers=2,
            fault_plan=FaultPlan().crash(0).memory_error(1, attempts=2),
            retries=2,
            on_error="retry",
            backoff=0.0,
            chunk_size=1,
        )
        assert table.failures == []
        assert self._normalized_rows(table) == golden


class TestVariantCells:
    """Variant cells produce engine-independent rows across all three paths."""

    def _variant_sweep(self, variant, record=False):
        base = ModelConfig.square(side=16, horizon=1, tau=0.45)
        return SweepSpec(
            name="variant",
            base_config=base,
            taus=[0.4, 0.45],
            n_replicates=3,
            seed=3,
            max_steps=5 * base.n_sites,
            record_trajectory=record,
            record_every=25,
            variant=variant,
        )

    @pytest.mark.parametrize(
        "variant",
        [VariantSpec.two_sided(0.8), VariantSpec.asymmetric(0.3)],
        ids=["two_sided", "asymmetric"],
    )
    def test_ensemble_rows_match_serial_rows(self, variant):
        sweep = self._variant_sweep(variant)
        serial = run_sweep(sweep)
        batched = run_sweep(sweep, ensemble_size=2)
        assert _strip_timings(serial) == _strip_timings(batched)

    @pytest.mark.parametrize(
        "variant",
        [VariantSpec.two_sided(0.8), VariantSpec.asymmetric(0.3)],
        ids=["two_sided", "asymmetric"],
    )
    def test_parallel_ensemble_rows_match_serial_rows(self, variant):
        sweep = self._variant_sweep(variant)
        serial = run_sweep(sweep)
        parallel = run_sweep(sweep, workers=2, ensemble_size=2)
        assert _strip_timings(serial) == _strip_timings(parallel)

    def test_variant_rows_with_trajectories_match(self):
        sweep = self._variant_sweep(VariantSpec.asymmetric(0.3), record=True)
        serial = run_sweep(sweep)
        batched = run_sweep(sweep, ensemble_size=2)
        assert _strip_timings(serial) == _strip_timings(batched)
        assert all("traj_final_energy" in row for row in serial.rows)

    def test_variant_columns_present(self):
        sweep = self._variant_sweep(VariantSpec.two_sided(0.8))
        table = run_sweep(sweep)
        for row in table.rows:
            assert row["variant"] == "two_sided"
            assert row["tau_high"] == 0.8
            assert "tau_minus" not in row

    def test_base_rows_record_base_variant(self):
        base = ModelConfig.square(side=16, horizon=1, tau=0.4)
        spec = ExperimentSpec(name="unit", config=base, n_replicates=1, seed=1)
        table = run_experiment(spec)
        assert table[0]["variant"] == "base"
        assert "tau_high" not in table[0]

    def test_two_sided_cells_report_step_capped_runs(self):
        # A tiny budget leaves every replicate unterminated; the rows must
        # say so instead of the cell hanging.
        base = ModelConfig.square(side=24, horizon=2, tau=0.45)
        spec = ExperimentSpec(
            name="budget",
            config=base,
            n_replicates=2,
            seed=11,
            max_steps=50,
            variant=VariantSpec.two_sided(0.8),
        )
        for table in (run_experiment(spec), run_experiment(spec, ensemble_size=2)):
            for row in table.rows:
                assert row["terminated"] is False
                assert row["n_flips"] <= 50
