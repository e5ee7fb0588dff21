"""Fault-injection tests for the sweep supervisor.

Every :class:`~repro.experiments.faults.FaultPlan` fault kind is exercised
both ways: under ``on_error="retry"`` the sweep must converge to rows
bitwise identical to the fault-free run (timings aside), and under
``on_error="skip"`` the faulty cell must end up quarantined — with its
identity, attempt count and worker traceback — while every other cell
completes.  The degradation ladder (pool respawn, serial fallback) and the
seeded backoff schedule are pinned here too.
"""

import json
import time
import warnings
from concurrent.futures import Future

import pytest

from repro.core.config import ModelConfig
from repro.errors import (
    ConfigurationError,
    ExperimentError,
    SweepDegradationWarning,
)
from repro.experiments.faults import (
    CELL_FAULT_KINDS,
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    InjectedFault,
)
from repro.experiments.parallel import (
    SweepCellError,
    _InflightChunk,
    backoff_delay,
    pack_rows,
    run_sweep_parallel,
)
from repro.experiments.spec import SweepSpec

#: Timings differ between runs by construction; everything else must match.
TIMING_COLUMNS = {"wall_clock_seconds"}


def comparable_rows(table):
    """The table's rows with the timing columns stripped."""
    return [
        {key: value for key, value in row.items() if key not in TIMING_COLUMNS}
        for row in table.rows
    ]


@pytest.fixture
def sweep() -> SweepSpec:
    """Four small cells — enough for chunking, quick enough for chaos."""
    base = ModelConfig.square(side=10, horizon=1, tau=0.3)
    return SweepSpec(
        name="faults-unit",
        base_config=base,
        taus=[0.3, 0.35, 0.4, 0.45],
        n_replicates=2,
        seed=7,
    )


@pytest.fixture
def baseline(sweep):
    """Fault-free serial rows every recovery test must reproduce."""
    return comparable_rows(run_sweep_parallel(sweep, workers=1))


def quiet_sweep(*args, **kwargs):
    """Run a sweep with degradation warnings silenced (they are expected)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SweepDegradationWarning)
        return run_sweep_parallel(*args, **kwargs)


class TestFaultPlanConstruction:
    def test_builders_accumulate_specs(self):
        plan = FaultPlan().crash(0).hang(1, seconds=2.0).kill(2)
        assert [spec.kind for spec in plan.faults] == [
            "crash",
            "hang",
            "kill",
        ]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec("segfault", 0)

    def test_invalid_windows_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec("crash", -1)
        with pytest.raises(ConfigurationError):
            FaultSpec("crash", 0, attempts=0)
        with pytest.raises(ConfigurationError):
            FaultSpec("hang", 0, hang_seconds=0.0)

    def test_attempt_window_is_finite(self):
        spec = FaultSpec("crash", 3, attempts=2)
        assert spec.fires(3, 0) and spec.fires(3, 1)
        assert not spec.fires(3, 2)
        assert not spec.fires(2, 0)

    def test_plan_survives_pickling(self):
        import pickle

        plan = FaultPlan().crash(1, attempts=2).torn_record(3, keep_bytes=10)
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_every_kind_has_coverage_here(self):
        # Guard: a new fault kind must come with tests in this module.
        assert set(FAULT_KINDS) == {
            "crash",
            "memory-error",
            "hang",
            "kill",
            "torn-record",
        }
        assert set(CELL_FAULT_KINDS) <= set(FAULT_KINDS)


class TestCrashFault:
    def test_retry_recovers_identical_rows_inline(self, sweep, baseline):
        table = run_sweep_parallel(
            sweep,
            workers=1,
            fault_plan=FaultPlan().crash(1),
            retries=2,
            on_error="retry",
            backoff=0.0,
        )
        assert comparable_rows(table) == baseline
        assert table.failures == []

    def test_retry_recovers_identical_rows_pool(self, sweep, baseline):
        table = run_sweep_parallel(
            sweep,
            workers=2,
            fault_plan=FaultPlan().crash(1),
            retries=2,
            on_error="retry",
            backoff=0.0,
        )
        assert comparable_rows(table) == baseline

    def test_skip_quarantines_with_identity_and_traceback(self, sweep, baseline):
        table = run_sweep_parallel(
            sweep,
            workers=2,
            fault_plan=FaultPlan().crash(2, attempts=9),
            retries=1,
            on_error="skip",
            backoff=0.0,
        )
        cells = list(sweep.cells())
        assert [f["cell_index"] for f in table.failures] == [2]
        failure = table.failures[0]
        assert failure["cell_name"] == cells[2].name
        assert failure["attempts"] == 2  # initial run + one retry
        assert "InjectedFault" in failure["traceback"]
        # Every other cell completed: the quarantined cell's rows are the
        # only ones missing, in place.
        expected = [
            row for row in baseline if row["experiment"] != cells[2].name
        ]
        assert comparable_rows(table) == expected

    def test_raise_policy_aborts_on_first_failure(self, sweep):
        with pytest.raises(SweepCellError) as excinfo:
            run_sweep_parallel(
                sweep,
                workers=1,
                fault_plan=FaultPlan().crash(2),
                on_error="raise",
            )
        assert excinfo.value.cell_index == 2
        assert "InjectedFault" in str(excinfo.value)

    def test_retry_policy_raises_after_exhaustion(self, sweep):
        with pytest.raises(SweepCellError):
            run_sweep_parallel(
                sweep,
                workers=1,
                fault_plan=FaultPlan().crash(2, attempts=9),
                retries=2,
                on_error="retry",
                backoff=0.0,
            )

    @pytest.mark.parametrize("on_error", ["retry", "skip"])
    def test_failed_chunk_reschedules_its_siblings(self, sweep, baseline, on_error):
        # Cell 1 fails inside the chunk [0, 1]: cell 0's rows die with the
        # chunk, so it must be rerun, or the table comes back short.
        table = run_sweep_parallel(
            sweep,
            workers=2,
            fault_plan=FaultPlan().crash(1),
            retries=1,
            on_error=on_error,
            backoff=0.0,
            chunk_size=2,
        )
        assert comparable_rows(table) == baseline
        assert table.failures == []

    @pytest.mark.parametrize(
        "policy",
        [{"on_error": "raise"}, {"on_error": "retry", "retries": 0}],
        ids=["raise", "retry-exhausted"],
    )
    def test_abort_checkpoints_chunks_that_finish_after_the_failure(
        self, sweep, tmp_path, policy
    ):
        # Cell 2 crashes while cell 1 is still running on the other worker.
        # Cell 1 finishes during the abort's pool shutdown; only the abort
        # path's harvest can put it into the checkpointed prefix.
        with pytest.raises(SweepCellError) as excinfo:
            run_sweep_parallel(
                sweep,
                workers=2,
                chunk_size=1,
                checkpoint_dir=tmp_path,
                fault_plan=FaultPlan().hang(1, seconds=1.0).crash(2),
                backoff=0.0,
                **policy,
            )
        assert excinfo.value.cell_index == 2
        recorded = [
            json.loads(line)["cell_index"]
            for line in (tmp_path / "metrics.jsonl").read_text().splitlines()
        ]
        assert recorded == [0, 1]


class TestMemoryErrorFault:
    def test_retry_recovers_identical_rows(self, sweep, baseline):
        table = run_sweep_parallel(
            sweep,
            workers=2,
            fault_plan=FaultPlan().memory_error(1),
            retries=1,
            on_error="retry",
            backoff=0.0,
        )
        assert comparable_rows(table) == baseline

    def test_skip_quarantines_memory_error(self, sweep):
        table = run_sweep_parallel(
            sweep,
            workers=1,
            fault_plan=FaultPlan().memory_error(0, attempts=9),
            retries=0,
            on_error="skip",
            backoff=0.0,
        )
        assert [f["cell_index"] for f in table.failures] == [0]
        assert "MemoryError" in table.failures[0]["traceback"]


class TestHangFault:
    def test_hang_detected_killed_and_retried(self, sweep, baseline):
        start = time.monotonic()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            table = run_sweep_parallel(
                sweep,
                workers=2,
                fault_plan=FaultPlan().hang(1, seconds=60.0),
                cell_timeout=2.0,
                retries=2,
                on_error="retry",
                backoff=0.0,
                chunk_size=1,
            )
        # Recovery must come from the deadline, not from waiting out the hang.
        assert time.monotonic() - start < 30.0
        assert comparable_rows(table) == baseline
        messages = [str(w.message) for w in caught]
        assert any("hung" in m and "respawning" in m for m in messages)

    def test_queue_time_does_not_count_against_deadline(self, sweep, baseline):
        # run_pool submits every ready chunk up front, so with two workers
        # and four single-cell chunks the second wave waits roughly a full
        # chunk runtime in the executor queue before a worker picks it up.
        # The deadline clock must start at execution (the worker's started
        # breadcrumb), not at submission: here each cell *executes* for
        # ~1.5s against a 2.5s deadline, but submission-relative clocks
        # would see ~3s for the second wave and falsely kill the pool —
        # which under on_error="raise" aborts the healthy sweep.
        slow = FaultPlan()
        for index in range(4):
            slow = slow.hang(index, seconds=1.5, attempts=99)
        with warnings.catch_warnings():
            warnings.simplefilter("error", SweepDegradationWarning)
            table = run_sweep_parallel(
                sweep,
                workers=2,
                fault_plan=slow,
                cell_timeout=2.5,
                on_error="raise",
                chunk_size=1,
            )
        assert comparable_rows(table) == baseline

    def test_serial_execution_warns_that_cell_timeout_is_inert(self, sweep):
        # workers=1 runs inline: there is no supervising pool to kill, so
        # hang detection silently cannot happen — the user must be told.
        with pytest.warns(SweepDegradationWarning, match="serial"):
            run_sweep_parallel(sweep, workers=1, cell_timeout=30.0)

    def test_hang_quarantined_under_skip(self, sweep):
        table = quiet_sweep(
            sweep,
            workers=2,
            fault_plan=FaultPlan().hang(1, seconds=60.0, attempts=9),
            cell_timeout=1.0,
            retries=0,
            on_error="skip",
            backoff=0.0,
            chunk_size=1,
        )
        assert [f["cell_index"] for f in table.failures] == [1]
        assert "hung" in table.failures[0]["error"]
        assert len(table) == 6  # three surviving cells x two replicates


def make_supervisor(sweep, **overrides):
    """A bare supervisor over the fixture sweep's cells, for unit tests."""
    from repro.experiments.parallel import _SweepSupervisor

    settings = dict(
        cells=list(sweep.cells()),
        resumed={},
        checkpoint=None,
        progress=None,
        ensemble_size=None,
        retries=0,
        backoff=0.0,
        cell_timeout=None,
        on_error="skip",
        respawn_budget=2,
        fault_plan=None,
        sweep_seed=7,
        workers=2,
        chunk_size=1,
    )
    settings.update(overrides)
    return _SweepSupervisor(**settings)


def failed_chunk_future(index: int, name: str):
    """A settled future/chunk pair carrying a genuine cell failure."""
    future = Future()
    future.set_exception(
        SweepCellError(
            f"sweep cell {index} ({name!r}) failed",
            cell_index=index,
            cell_name=name,
            traceback_text="worker traceback",
        )
    )
    return future, _InflightChunk([index], [0])


class TestDrainInflight:
    # A chunk can complete with a genuine SweepCellError in the window
    # between the hang/breakage being noticed and the pool kill.  That
    # failure must be charged like any main-loop failure — not swallowed
    # and rescheduled for free, which would defer abort policies by a full
    # wasted re-execution.

    def test_real_cell_error_is_charged_not_rescheduled_free(self, sweep):
        supervisor = make_supervisor(sweep, on_error="skip", retries=0)
        future, info = failed_chunk_future(2, sweep.name)
        supervisor.unconsumed.add(future)
        ready = []
        supervisor._drain_inflight(
            ready, {future: info}, hung=set(), charge_breakage=True
        )
        assert supervisor.failures[2] == 1
        assert supervisor.quarantined[2]["traceback"] == "worker traceback"
        assert ready == []  # settled by quarantine, nothing rescheduled

    def test_real_cell_error_consumes_retry_budget(self, sweep):
        supervisor = make_supervisor(sweep, on_error="retry", retries=2)
        future, info = failed_chunk_future(1, sweep.name)
        ready = []
        supervisor._drain_inflight(ready, {future: info}, hung=set())
        assert supervisor.failures[1] == 1
        assert [indices for _, indices in ready] == [[1]]

    def test_real_cell_error_aborts_under_raise_policy(self, sweep):
        supervisor = make_supervisor(sweep, on_error="raise")
        future, info = failed_chunk_future(0, sweep.name)
        with pytest.raises(SweepCellError, match="cell 0"):
            supervisor._drain_inflight(
                [], {future: info}, hung=set(), charge_breakage=True
            )

    @pytest.mark.parametrize(
        "case, charged, rescheduled",
        [
            ("completed", 0, []),
            ("cell-error", 1, [[0]]),
            ("hung", 1, [[0]]),
            ("victim", 0, [[0]]),
        ],
        ids=["completed", "cell-error", "hung", "victim"],
    )
    def test_drain_settles_every_kind_of_chunk(
        self, sweep, case, charged, rescheduled
    ):
        # Rows a chunk finished before the kill are collected; a failed or
        # hung chunk is charged; a victim without a started breadcrumb is
        # rescheduled for free.
        supervisor = make_supervisor(sweep, on_error="retry", retries=2)
        rows = [{"experiment": "drained", "replicate": 0, "n_flips": 3}]
        future = Future()
        if case == "completed":
            future.set_result([(0, pack_rows(rows))])
        elif case == "cell-error":
            future, _ = failed_chunk_future(0, sweep.name)
        inflight = {future: _InflightChunk([0], [0])}
        ready = []
        supervisor._drain_inflight(
            ready,
            inflight,
            hung={future} if case == "hung" else set(),
            charge_breakage=case == "victim",
        )
        assert inflight == {}
        assert supervisor.failures.get(0, 0) == charged
        assert [indices for _, indices in ready] == rescheduled
        if case == "completed":
            assert supervisor.collected[0] == rows
            assert 0 not in supervisor.unfinished
        else:
            assert 0 not in supervisor.collected
            assert 0 in supervisor.unfinished


class TestKillFault:
    def test_worker_kill_respawns_and_recovers(self, sweep, baseline):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            table = run_sweep_parallel(
                sweep,
                workers=2,
                fault_plan=FaultPlan().kill(1),
                retries=1,
                on_error="retry",
                backoff=0.0,
                chunk_size=1,
            )
        assert comparable_rows(table) == baseline
        messages = [str(w.message) for w in caught]
        assert any("respawning" in m for m in messages)

    def test_kill_attributed_to_running_cell_and_quarantined(self):
        # One chunk of two cells run sequentially by one worker: cell 0
        # finishes (breadcrumb: done), cell 1 SIGKILLs the worker mid-run
        # (breadcrumb: started, no done).  The supervisor must charge cell 1
        # only, and cell 0 — whose rows died with the worker — reruns free.
        base = ModelConfig.square(side=10, horizon=1, tau=0.3)
        two = SweepSpec(
            name="kill-pair",
            base_config=base,
            taus=[0.3, 0.35],
            n_replicates=2,
            seed=7,
        )
        expected = comparable_rows(run_sweep_parallel(two, workers=1))
        table = quiet_sweep(
            two,
            workers=2,
            fault_plan=FaultPlan().kill(1, attempts=99),
            retries=0,
            on_error="skip",
            backoff=0.0,
            chunk_size=2,
        )
        assert [f["cell_index"] for f in table.failures] == [1]
        assert "pool broke" in table.failures[0]["error"]
        assert comparable_rows(table) == expected[:2]


class TestSerialFallback:
    def test_respawn_budget_exhaustion_finishes_serially(self, sweep, baseline):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            table = run_sweep_parallel(
                sweep,
                workers=2,
                fault_plan=FaultPlan().kill(0, attempts=2).kill(3, attempts=2),
                retries=3,
                on_error="retry",
                backoff=0.0,
                respawn_budget=1,
                chunk_size=1,
            )
        assert comparable_rows(table) == baseline
        messages = [str(w.message) for w in caught]
        assert any("respawn budget" in m and "serially" in m for m in messages)


class TestBackoffSchedule:
    def test_backoff_is_deterministic_in_its_inputs(self):
        assert backoff_delay(7, 3, 1, 0.05) == backoff_delay(7, 3, 1, 0.05)
        assert backoff_delay(7, 3, 1, 0.05) != backoff_delay(8, 3, 1, 0.05)
        assert backoff_delay(7, 3, 1, 0.05) != backoff_delay(7, 4, 1, 0.05)

    def test_backoff_grows_exponentially_with_jitter_bounds(self):
        for failures in (1, 2, 3, 4):
            delay = backoff_delay(7, 3, failures, 0.05)
            scale = 0.05 * 2.0 ** (failures - 1)
            assert 0.5 * scale <= delay < scale

    def test_zero_base_disables_waiting(self):
        assert backoff_delay(7, 3, 5, 0.0) == 0.0
        assert backoff_delay(7, 3, 0, 0.05) == 0.0


class TestSupervisorParameterValidation:
    def test_bad_on_error_rejected(self, sweep):
        with pytest.raises(ExperimentError, match="on_error"):
            run_sweep_parallel(sweep, workers=1, on_error="explode")

    def test_negative_retries_rejected(self, sweep):
        with pytest.raises(ExperimentError, match="retries"):
            run_sweep_parallel(sweep, workers=1, retries=-1)

    def test_nonpositive_cell_timeout_rejected(self, sweep):
        with pytest.raises(ExperimentError, match="cell_timeout"):
            run_sweep_parallel(sweep, workers=1, cell_timeout=0.0)

    def test_negative_respawn_budget_rejected(self, sweep):
        with pytest.raises(ExperimentError, match="respawn_budget"):
            run_sweep_parallel(sweep, workers=1, respawn_budget=-1)


class TestSweepCellErrorTraceback:
    def test_traceback_survives_pickling(self):
        import pickle

        error = SweepCellError(
            "cell 3 failed",
            cell_index=3,
            cell_name="cell-3",
            traceback_text="Traceback (most recent call last):\n  boom\n",
        )
        clone = pickle.loads(pickle.dumps(error))
        assert clone.traceback_text == error.traceback_text
        assert "boom" in str(clone)

    def test_str_without_traceback_is_plain_message(self):
        error = SweepCellError("cell 3 failed", cell_index=3)
        assert str(error) == "cell 3 failed"
