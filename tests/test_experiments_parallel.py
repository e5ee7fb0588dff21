"""Determinism and equivalence tests for the parallel sweep runner."""

import json
import os
import pickle

import pytest

from repro.core.config import ModelConfig
from repro.errors import ExperimentError
from repro.experiments import shm
from repro.experiments.parallel import (
    SweepCellError,
    _run_chunk,
    default_chunk_size,
    default_worker_count,
    pack_rows,
    run_sweep_parallel,
    unpack_rows,
)
from repro.experiments.runner import run_experiment, run_sweep
from repro.experiments.spec import ExperimentSpec, SweepSpec

#: Timings differ between runs/engines by construction; everything else must
#: be byte-identical.
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
        name="parallel-unit",
        base_config=base,
        taus=[0.35, 0.45],
        densities=[0.45, 0.55],
        n_replicates=2,
        seed=13,
    )


class TestParallelDeterminism:
    def test_workers_1_and_4_produce_identical_tables(self, small_sweep):
        serial = run_sweep_parallel(small_sweep, workers=1)
        parallel = run_sweep_parallel(small_sweep, workers=4)
        assert len(serial) == 2 * 2 * 2
        assert comparable_rows(serial) == comparable_rows(parallel)

    def test_parallel_matches_serial_run_sweep(self, small_sweep):
        serial = run_sweep(small_sweep)
        parallel = run_sweep(small_sweep, workers=3)
        assert comparable_rows(serial) == comparable_rows(parallel)

    def test_chunk_size_does_not_change_rows(self, small_sweep):
        one = run_sweep_parallel(small_sweep, workers=2, chunk_size=1)
        three = run_sweep_parallel(small_sweep, workers=2, chunk_size=3)
        assert comparable_rows(one) == comparable_rows(three)

    def test_progress_fires_once_per_cell_in_cell_order(self, small_sweep):
        expected = [cell.name for cell in small_sweep.cells()]
        visited: list[str] = []
        run_sweep_parallel(
            small_sweep, workers=4, progress=lambda cell: visited.append(cell.name)
        )
        assert visited == expected


class TestEnsembleExecution:
    def test_ensemble_rows_match_scalar_rows(self):
        config = ModelConfig.square(side=18, horizon=1, tau=0.4)
        spec = ExperimentSpec(name="cell", config=config, n_replicates=5, seed=11)
        scalar = run_experiment(spec, ensemble_size=1)
        batched = run_experiment(spec, ensemble_size=2)  # uneven batches: 2+2+1
        assert comparable_rows(scalar) == comparable_rows(batched)

    def test_parallel_ensemble_sweep_matches_serial(self, small_sweep):
        serial = run_sweep(small_sweep, ensemble_size=1)
        combined = run_sweep(small_sweep, workers=2, ensemble_size=2)
        assert comparable_rows(serial) == comparable_rows(combined)


class TestValidationAndDefaults:
    def test_rejects_nonpositive_workers(self, small_sweep):
        with pytest.raises(ExperimentError):
            run_sweep_parallel(small_sweep, workers=0)

    @pytest.mark.parametrize("checkpointed", [False, True], ids=["plain", "checkpointed"])
    @pytest.mark.parametrize("workers", [0, -2])
    def test_run_sweep_rejects_nonpositive_workers(
        self, small_sweep, tmp_path, workers, checkpointed
    ):
        # The serial path must not run a sweep the pool path would refuse.
        checkpoint_dir = tmp_path if checkpointed else None
        with pytest.raises(ExperimentError, match=f"workers must be positive, got {workers}"):
            run_sweep(small_sweep, workers=workers, checkpoint_dir=checkpoint_dir)

    def test_rejects_nonpositive_chunk_size(self, small_sweep):
        with pytest.raises(ExperimentError):
            run_sweep_parallel(small_sweep, workers=2, chunk_size=0)

    def test_default_worker_count_positive(self):
        assert default_worker_count() >= 1

    def test_default_chunk_size_bounds(self):
        assert default_chunk_size(1, 8) == 1
        assert default_chunk_size(64, 2) == 8


class TestPackedRowTransfer:
    def test_pack_unpack_roundtrip(self):
        from repro.experiments.parallel import pack_rows, unpack_rows

        rows = [
            {"a": 1, "b": 2.5, "c": "x"},
            {"a": 3, "b": -1.0, "c": "y"},
        ]
        packed = pack_rows(rows)
        assert packed["keys"] == ["a", "b", "c"]
        assert unpack_rows(packed) == rows

    def test_empty_rows(self):
        from repro.experiments.parallel import pack_rows, unpack_rows

        assert unpack_rows(pack_rows([])) == []

    def test_non_uniform_rows_fall_back_verbatim(self):
        from repro.experiments.parallel import pack_rows, unpack_rows

        rows = [{"a": 1}, {"a": 2, "b": 3}]
        packed = pack_rows(rows)
        assert "rows" in packed
        assert unpack_rows(packed) == rows

    def test_packed_payload_carries_keys_once(self):
        key = "a_rather_long_metric_column_name"
        rows = [{key: index} for index in range(64)]
        packed_size = len(pickle.dumps(pack_rows(rows)))
        raw_size = len(pickle.dumps(rows))
        assert packed_size < raw_size / 2

    @pytest.mark.parametrize("ensemble_size", [None, 2])
    def test_worker_entry_point_returns_plain_pairs(self, small_sweep, ensemble_size):
        chunk = list(enumerate(small_sweep.cells()))[1:3]
        payload = _run_chunk(chunk, ensemble_size)
        assert isinstance(payload, list)
        assert [index for index, _ in payload] == [1, 2]
        strip = lambda rows: [
            {k: v for k, v in row.items() if k not in TIMING_COLUMNS} for row in rows
        ]
        for (_, batch), (_, cell) in zip(payload, chunk):
            expected = run_experiment(cell, ensemble_size=ensemble_size).rows
            assert strip(unpack_rows(batch)) == strip(expected)


class TestWorkerCount:
    """``default_worker_count`` must respect cgroup/affinity limits."""

    def test_uses_scheduler_affinity_when_available(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert default_worker_count() == 3

    def test_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert default_worker_count() == 5

    def test_falls_back_to_cpu_count_on_os_error(self, monkeypatch):
        def unavailable(pid):
            raise OSError("no affinity on this platform")

        monkeypatch.setattr(os, "sched_getaffinity", unavailable, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert default_worker_count() == 2

    def test_never_below_one(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert default_worker_count() == 1


def _poisoned_sweep(sweep: SweepSpec, poison_index: int):
    """The sweep's cells with one cell made to fail inside the runner.

    ``record_every=0`` passes the frozen spec through pickling untouched but
    raises ``StateError`` the moment the replicate's run starts — a genuine
    in-worker failure, not a construction-time one.
    """
    cells = list(sweep.cells())
    object.__setattr__(cells[poison_index], "record_every", 0)

    class _CellListSweep:
        backend = None

        def cells(self):
            return iter(cells)

    return _CellListSweep()


class TestWorkerFailure:
    def test_failure_names_cell_and_index(self, small_sweep):
        poisoned = _poisoned_sweep(small_sweep, poison_index=2)
        expected_name = list(small_sweep.cells())[2].name
        with pytest.raises(SweepCellError) as excinfo:
            run_sweep_parallel(poisoned, workers=2, chunk_size=1)
        assert excinfo.value.cell_index == 2
        assert excinfo.value.cell_name == expected_name
        assert expected_name in str(excinfo.value)
        assert "StateError" in str(excinfo.value)

    def test_failure_wrapped_on_inline_path_too(self, small_sweep):
        poisoned = _poisoned_sweep(small_sweep, poison_index=0)
        with pytest.raises(SweepCellError) as excinfo:
            run_sweep_parallel(poisoned, workers=1)
        assert excinfo.value.cell_index == 0

    def test_error_survives_pickling_with_identity(self):
        error = SweepCellError("cell 3 failed", cell_index=3, cell_name="cell-3")
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, SweepCellError)
        assert str(clone) == "cell 3 failed"
        assert clone.cell_index == 3
        assert clone.cell_name == "cell-3"

    def test_completed_prefix_is_checkpointed_before_reraise(
        self, small_sweep, tmp_path
    ):
        poisoned = _poisoned_sweep(small_sweep, poison_index=2)
        with pytest.raises(SweepCellError):
            run_sweep_parallel(
                poisoned, workers=2, chunk_size=1, checkpoint_dir=tmp_path
            )
        recorded = [
            json.loads(line)["cell_index"]
            for line in (tmp_path / "metrics.jsonl").read_text().splitlines()
        ]
        assert recorded == [0, 1]

    def test_crashed_sweep_resumes_into_identical_table(
        self, small_sweep, tmp_path
    ):
        poisoned = _poisoned_sweep(small_sweep, poison_index=2)
        with pytest.raises(SweepCellError):
            run_sweep_parallel(
                poisoned, workers=2, chunk_size=1, checkpoint_dir=tmp_path
            )
        resumed = run_sweep_parallel(
            small_sweep, workers=2, checkpoint_dir=tmp_path
        )
        assert comparable_rows(resumed) == comparable_rows(run_sweep(small_sweep))


class TestSharedMemoryCodec:
    def test_raw_column_tags(self):
        assert shm._raw_column_tag([True, False]) == "bool"
        assert shm._raw_column_tag([1, -2, 3]) == "int64"
        assert shm._raw_column_tag([0.5, -1.25]) == "float64"
        assert shm._raw_column_tag([1, 2.5]) is None  # mixed
        assert shm._raw_column_tag([True, 1]) is None  # bool is not int here
        assert shm._raw_column_tag(["a", "b"]) is None
        assert shm._raw_column_tag([2**63, 0]) is None  # overflows int64
        assert shm._raw_column_tag([]) is None

    def test_roundtrip_preserves_values_and_types(self):
        rows = [
            {"name": "cell-a", "seed": 7, "rate": 0.1, "ok": True},
            {"name": "cell-b", "seed": -(2**40), "rate": -3.5, "ok": False},
        ]
        batches = [
            (4, pack_rows(rows)),
            (5, pack_rows([])),
            (6, {"rows": [{"a": 1}, {"b": 2}]}),  # non-uniform fallback
        ]
        name, size = shm.encode_chunk(batches)
        decoded = dict(shm.decode_chunk(name, size))
        out = unpack_rows(decoded[4])
        assert out == rows
        for row in out:
            assert type(row["seed"]) is int
            assert type(row["rate"]) is float
            assert type(row["ok"]) is bool
            assert type(row["name"]) is str
        assert unpack_rows(decoded[5]) == []
        assert unpack_rows(decoded[6]) == [{"a": 1}, {"b": 2}]
