"""Process-pool sweep execution with a fault-tolerant supervisor.

:func:`run_sweep_parallel` shards the cells of a
:class:`~repro.experiments.spec.SweepSpec` across a
:class:`concurrent.futures.ProcessPoolExecutor`.  Several properties make the
parallel table interchangeable with the serial one:

* **Deterministic seeds** — per-cell seeds are derived by
  :meth:`SweepSpec.cells` from the sweep seed and the cell index, and
  per-replicate seeds from the cell seed, so no seed depends on which worker
  runs a cell or when — nor on how many times a cell was attempted.
* **Chunked distribution** — cells are submitted in contiguous chunks (a few
  per worker) to amortise pickling and process start-up over many small
  cells; retried cells are resubmitted as single-cell chunks so a retry's
  blast radius and deadline are exactly one cell.
* **In-order incremental collection** — finished chunks are buffered and
  flushed to the output table in cell order as soon as the next contiguous
  chunk is available, so ``progress`` fires once per cell in the same order
  as the serial runner and the resulting table is row-for-row identical to
  ``run_sweep``'s (up to wall-clock timings).
* **Columnar result transfer** — a cell's rows share one schema (the spec
  fixes the columns), so workers ship each cell as one packed batch: the key
  tuple once plus per-key value columns, instead of ``n_replicates``
  separate dicts each repeating every key string.  A chunk's batches travel
  back pickled through the executor's result queue as a plain
  ``[(index, batch), ...]`` list.  That is the only transport: rows are a
  few dozen scalars per replicate, and a shared-memory alternative measured
  no faster end to end.
* **Checkpoint/resume** — with ``checkpoint_dir=`` every completed cell is
  streamed to a self-verifying ``metrics.jsonl`` record keyed by the cell's
  content hash (:func:`~repro.experiments.spec.spec_hash`) next to a
  provenance ``manifest.json`` (see :mod:`repro.experiments.checkpoint`).
  A rerun pointed at the same directory skips the recorded cells and
  splices their rows into the table at the right positions, so a killed
  sweep resumes into a table row-for-row identical to an uninterrupted run.

On top of that substrate sits the **fault-tolerance layer**, built for
hours-long checkpointed sweeps where crashes, hangs and torn stores are the
common case:

* **Attributed failures** — a cell that raises inside a worker surfaces as
  :class:`SweepCellError` naming the cell, its index and the worker-side
  traceback (carried across the pickle boundary).
* **Retry with seeded backoff** — with ``on_error="retry"``/``"skip"``,
  failed cells are retried up to ``retries`` times; each retry waits an
  exponentially growing delay with jitter drawn deterministically from the
  sweep seed and the cell's failure count, so two runs of the same faulty
  sweep behave identically.  Retried rows are bitwise identical to
  first-try rows because seeds never depend on the attempt.
* **Quarantine** — ``on_error="skip"`` turns cells that exhaust their
  retries into structured failure records (index, name, attempts,
  traceback) on the result table's ``failures`` list and in the checkpoint,
  while the rest of the sweep completes.
* **Hang detection** — with ``cell_timeout=``, every in-flight chunk has a
  deadline (``cell_timeout`` × cells in the chunk) whose clock starts when
  the chunk *begins executing* — observed via the worker's ``started``
  breadcrumb — not when it was submitted, so chunks queued behind others
  never accrue deadline time they cannot spend.  A chunk past its deadline
  marks the pool hung: the supervisor kills the worker processes, respawns
  the pool, reschedules only unfinished cells, and counts the hang as a
  failure of the hung chunk's cells.
* **Graceful degradation** — each pool kill/breakage consumes one unit of
  ``respawn_budget``; past the budget the sweep *finishes serially in the
  parent* instead of dying.  Every respawn and demotion emits a
  :class:`~repro.errors.SweepDegradationWarning`, so the run leaves a trail
  explaining why it ran slower than configured.
* **Deterministic fault injection** — every failure mode above is
  reproducible via :class:`~repro.experiments.faults.FaultPlan`, threaded
  into the worker entry points behind a zero-overhead ``None`` check.

Workers inherit nothing mutable: each one re-imports the library and receives
pickled frozen specs, which keeps the executor oblivious to interpreter state.
Variant cells need no special handling: the spec's frozen
:class:`~repro.core.variants.VariantSpec` (and its ``max_steps`` budget)
pickles with the rest, and each worker routes it onto the scalar or ensemble
variant engine exactly as the serial runner would.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
import traceback as traceback_module
import warnings
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Callable, Optional, Union

from repro.core.backends.registry import resolve_backend_name, select_backend_name
from repro.errors import ExperimentError, SweepDegradationWarning
from repro.experiments.results import ResultTable
from repro.experiments.spec import ExperimentSpec, SweepSpec

#: Accepted values for ``run_sweep_parallel``'s ``on_error`` parameter.
ON_ERROR_MODES = ("raise", "retry", "skip")


class SweepCellError(ExperimentError):
    """One sweep cell failed inside a worker, with the cell identified.

    Carries ``cell_index``, ``cell_name`` and ``traceback_text`` — the
    worker-side traceback formatted to a string, since live traceback
    objects do not survive the pickle transfer back to the parent — so a
    crashed sweep names the offending cell *and* shows where it died
    instead of surfacing an anonymous pool traceback.
    """

    def __init__(
        self,
        message: str,
        cell_index: Optional[int] = None,
        cell_name: Optional[str] = None,
        traceback_text: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.cell_index = cell_index
        self.cell_name = cell_name
        self.traceback_text = traceback_text

    def __str__(self) -> str:
        """The message, with the worker-side traceback appended when known."""
        base = super().__str__()
        if self.traceback_text:
            return f"{base}\n--- worker traceback ---\n{self.traceback_text}"
        return base

    def __reduce__(self):
        """Pickle support: rebuild with identity and traceback intact."""
        return (
            type(self),
            (
                self.args[0] if self.args else "",
                self.cell_index,
                self.cell_name,
                self.traceback_text,
            ),
        )


def default_worker_count() -> int:
    """Worker count used when ``workers`` is not given.

    Uses the CPUs this process may actually run on
    (``os.sched_getaffinity``), not the machine-wide ``os.cpu_count`` —
    inside containers and cgroup/affinity-limited CI runners the two differ,
    and sizing the pool by the machine oversubscribes the quota.  Falls back
    to ``os.cpu_count()`` where affinity masks are unavailable (macOS,
    Windows).
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)


def default_chunk_size(n_cells: int, workers: int) -> int:
    """Contiguous cells per task: aim for ~4 tasks per worker.

    Small chunks balance load across heterogeneous cell costs; the floor of
    one keeps single-cell sweeps valid.
    """
    return max(1, n_cells // (4 * workers))


def backoff_delay(
    sweep_seed: int, cell_index: int, failure_count: int, base: float
) -> float:
    """Seconds to wait before resubmitting a cell after its n-th failure.

    Exponential in the failure count with multiplicative jitter in
    ``[0.5, 1.0)``, drawn from a generator seeded by ``(sweep_seed,
    cell_index, failure_count)`` — so the whole retry schedule is a pure
    function of the sweep seed, and two runs of the same faulty sweep wait
    identically.  A non-positive ``base`` disables waiting entirely.
    """
    if base <= 0.0 or failure_count <= 0:
        return 0.0
    import numpy as np

    jitter = np.random.default_rng(
        [abs(int(sweep_seed)), int(cell_index), int(failure_count)]
    ).random()
    return base * (2.0 ** (failure_count - 1)) * (0.5 + 0.5 * float(jitter))


def pack_rows(rows: list[dict[str, object]]) -> dict[str, object]:
    """Columnar encoding of uniform-schema rows for cheap pickling.

    One cell's rows always share their key set (the spec fixes the columns),
    so the batch carries the keys once and one value column per key.  Rows
    with diverging schemas — not produced by the runner, but tolerated for
    robustness — fall back to the raw list untouched.
    """
    if not rows:
        return {"n": 0}
    keys = list(rows[0].keys())
    if any(list(row.keys()) != keys for row in rows[1:]):
        return {"rows": rows}
    return {
        "n": len(rows),
        "keys": keys,
        "columns": [[row[key] for row in rows] for key in keys],
    }


def unpack_rows(packed: dict[str, object]) -> list[dict[str, object]]:
    """Inverse of :func:`pack_rows`; rebuilds the rows in their packed order."""
    if "rows" in packed:
        return packed["rows"]  # non-uniform fallback, shipped verbatim
    if not packed["n"]:
        return []
    return [
        dict(zip(packed["keys"], values)) for values in zip(*packed["columns"])
    ]


def _touch_breadcrumb(directory: str, index: int, attempt: int, stage: str) -> None:
    """Drop a ``<index>.<attempt>.<stage>`` marker file, best effort.

    Breadcrumbs are the supervisor's write-ahead log of worker activity:
    ``started`` lands just before a cell executes, ``done`` just after.  When
    the pool breaks (a worker was SIGKILLed or died), the parent reads them
    to attribute the breakage precisely — a cell that *started but never
    finished* was running when the worker died and is charged a failure,
    while cells that never started (or finished but lost their rows with the
    dead worker) are rescheduled for free.
    """
    try:
        with open(os.path.join(directory, f"{index}.{attempt}.{stage}"), "w"):
            pass
    except OSError:
        pass  # attribution degrades to free rescheduling, never to a crash


def _run_cell(
    index: int,
    spec: ExperimentSpec,
    ensemble_size: Optional[int],
    fault_plan=None,
    attempt: int = 0,
    breadcrumb_dir: Optional[str] = None,
    backend: Optional[str] = None,
) -> list[dict[str, object]]:
    """Run one cell, wrapping any failure with the cell's identity.

    ``fault_plan``/``attempt`` is the zero-overhead injection hook: the
    production path pays one ``None`` check, and injected faults raise or
    stall *inside* the ``try`` so they surface exactly like organic ones —
    wrapped in :class:`SweepCellError` with the formatted traceback attached.
    ``breadcrumb_dir`` (pool runs only) receives the started/done markers
    the supervisor uses to attribute worker deaths (see
    :func:`_touch_breadcrumb`).
    """
    from repro.experiments.runner import run_experiment

    try:
        if breadcrumb_dir is not None:
            _touch_breadcrumb(breadcrumb_dir, index, attempt, "started")
        if fault_plan is not None:
            fault_plan.fire_in_cell(index, attempt)
        rows = run_experiment(spec, ensemble_size=ensemble_size, backend=backend).rows
        if breadcrumb_dir is not None:
            _touch_breadcrumb(breadcrumb_dir, index, attempt, "done")
        return rows
    except Exception as exc:
        raise SweepCellError(
            f"sweep cell {index} ({spec.name!r}) failed: "
            f"{type(exc).__name__}: {exc}",
            cell_index=index,
            cell_name=spec.name,
            traceback_text=traceback_module.format_exc(),
        ) from exc


def _run_chunk(
    chunk: list[tuple[int, ExperimentSpec]],
    ensemble_size: Optional[int],
    fault_plan=None,
    attempts: Optional[list[int]] = None,
    breadcrumb_dir: Optional[str] = None,
    backend: Optional[str] = None,
) -> list[tuple[int, dict[str, object]]]:
    """Worker entry point: run a chunk of cells, return ``[(index, batch)]``.

    Each cell's rows travel as one :func:`pack_rows` columnar batch, pickled
    through the executor's result queue.  ``attempts`` aligns with ``chunk``
    and carries each cell's execution count for deterministic fault keying;
    omitted means first attempts.
    """
    if attempts is None:
        attempts = [0] * len(chunk)
    return [
        (
            index,
            pack_rows(
                _run_cell(
                    index,
                    spec,
                    ensemble_size,
                    fault_plan,
                    attempt,
                    breadcrumb_dir,
                    backend=backend,
                )
            ),
        )
        for (index, spec), attempt in zip(chunk, attempts)
    ]


def _degradation_warning(message: str) -> None:
    """Emit one entry of the supervisor's degradation warning trail."""
    warnings.warn(message, SweepDegradationWarning, stacklevel=3)


class _InflightChunk:
    """Bookkeeping for one submitted chunk: cells, attempts and deadline.

    ``deadline`` starts ``None`` and is armed by
    :meth:`_SweepSupervisor._arm_deadlines` when the supervisor first
    observes the chunk's ``started`` breadcrumb — the chunk may sit queued
    behind others for arbitrarily long before a worker picks it up, and
    queue time must not count against its deadline.
    """

    __slots__ = ("indices", "attempts", "deadline")

    def __init__(self, indices: list[int], attempts: list[int]) -> None:
        self.indices = indices
        self.attempts = attempts
        self.deadline: Optional[float] = None


class _SweepSupervisor:
    """State machine running one sweep's cells to completion under faults.

    Owns the retry/backoff bookkeeping shared by the pool path and the
    serial paths: ``attempts`` counts executions started per cell (the fault
    plan's key and the worker's ``attempt`` argument), ``failures`` counts
    failures per cell against the ``retries`` budget, ``collected`` buffers
    finished rows until the in-order flush, and ``quarantined`` holds the
    structured failure records of cells given up on under
    ``on_error="skip"``.
    """

    def __init__(
        self,
        cells: list[ExperimentSpec],
        resumed: dict[int, list[dict[str, object]]],
        checkpoint,
        progress,
        ensemble_size: Optional[int],
        retries: int,
        backoff: float,
        cell_timeout: Optional[float],
        on_error: str,
        respawn_budget: int,
        fault_plan,
        sweep_seed: int,
        workers: int,
        chunk_size: Optional[int],
        backend: Optional[str] = None,
    ) -> None:
        self.cells = cells
        self.resumed_indices = set(resumed)
        self.checkpoint = checkpoint
        self.progress = progress
        self.ensemble_size = ensemble_size
        self.backend = backend
        self.retries = retries
        self.backoff = backoff
        self.cell_timeout = cell_timeout
        self.on_error = on_error
        self.respawn_budget = respawn_budget
        self.fault_plan = fault_plan
        self.sweep_seed = sweep_seed
        self.workers = workers
        self.chunk_size = chunk_size
        self.attempts: dict[int, int] = {}
        self.failures: dict[int, int] = {}
        self.collected: dict[int, list[dict[str, object]]] = dict(resumed)
        self.quarantined: dict[int, dict[str, object]] = {}
        self.unfinished: set[int] = {
            index
            for index in range(len(cells))
            if index not in self.resumed_indices
        }
        self.table = ResultTable()
        self.next_index = 0
        self.respawns = 0
        #: Futures whose payloads were never consumed (harvested on abort).
        self.unconsumed: set[Future] = set()
        #: Worker-activity marker directory, created by :meth:`run_pool`.
        self.breadcrumb_dir: Optional[str] = None

    # ------------------------------------------------------------- flushing

    def flush_prefix(self) -> None:
        """Flush every contiguous completed prefix, in cell order.

        Newly completed cells are checkpointed as they flush (resumed cells
        already have their record); quarantined cells contribute their
        failure record to the table and the checkpoint instead of rows.
        ``progress`` fires for every flushed cell — completed, resumed or
        quarantined — preserving the once-per-cell in-order contract.
        """
        while True:
            index = self.next_index
            if index in self.collected:
                rows = self.collected.pop(index)
                if self.checkpoint is not None and index not in self.resumed_indices:
                    self._record_rows(index, rows)
                self.table.extend(rows)
            elif index in self.quarantined:
                failure = self.quarantined[index]
                if self.checkpoint is not None:
                    self.checkpoint.record_failure(
                        index, self.cells[index], failure
                    )
                self.table.failures.append(failure)
            else:
                return
            if self.progress is not None:
                self.progress(self.cells[index])
            self.next_index += 1

    def _record_rows(self, index: int, rows: list[dict[str, object]]) -> None:
        """Checkpoint one cell's rows, honouring any ``torn-record`` fault."""
        torn = (
            self.fault_plan.torn_record_fault(index)
            if self.fault_plan is not None
            else None
        )
        if torn is None:
            self.checkpoint.record(index, self.cells[index], rows)
        else:
            from repro.experiments import faults as faults_module

            faults_module.write_torn_record(
                self.checkpoint, index, self.cells[index], rows, torn
            )

    # ------------------------------------------------------- failure logic

    def _mark_collected(self, index: int, rows: list[dict[str, object]]) -> None:
        """Record a cell as successfully finished."""
        self.collected[index] = rows
        self.unfinished.discard(index)

    def _quarantine(self, index: int, message: str, traceback_text) -> None:
        """Convert an exhausted cell into a structured failure record."""
        self.quarantined[index] = {
            "cell_index": index,
            "cell_name": self.cells[index].name,
            "attempts": self.attempts.get(index, 0),
            "error": message,
            "traceback": traceback_text,
        }
        self.unfinished.discard(index)

    def _count_failure(
        self, index: int, error: SweepCellError
    ) -> Optional[float]:
        """Register one failure of ``index``; return the retry delay.

        Raises ``error`` when the policy says the sweep must abort
        (``on_error="raise"``, or retries exhausted under ``"retry"``);
        returns ``None`` when the cell was quarantined instead; otherwise
        the seeded backoff delay to apply before resubmission.
        """
        self.failures[index] = self.failures.get(index, 0) + 1
        if self.on_error == "raise":
            raise error
        if self.failures[index] > self.retries:
            if self.on_error == "skip":
                self._quarantine(index, str(error.args[0] if error.args else error), error.traceback_text)
                return None
            raise error
        return backoff_delay(
            self.sweep_seed, index, self.failures[index], self.backoff
        )

    # -------------------------------------------------------- serial paths

    def run_cell_with_retries(self, index: int) -> None:
        """Run one cell inline, retrying per policy, until settled.

        Used by the ``workers=1`` path and by the post-degradation serial
        fallback.  Hang faults stall inline for their programmed duration —
        there is no supervising process left to kill them — so serial
        execution trades hang detection for survival, which the degradation
        warning states.
        """
        cell = self.cells[index]
        while True:
            attempt = self.attempts.get(index, 0)
            self.attempts[index] = attempt + 1
            try:
                rows = _run_cell(
                    index,
                    cell,
                    self.ensemble_size,
                    self.fault_plan,
                    attempt,
                    backend=self.backend,
                )
            except SweepCellError as exc:
                delay = self._count_failure(index, exc)
                if delay is None:
                    return
                if delay > 0.0:
                    time.sleep(delay)
                continue
            self._mark_collected(index, rows)
            return

    def run_serial(self) -> None:
        """Run every unfinished cell inline, flushing in order."""
        for index in sorted(self.unfinished):
            self.run_cell_with_retries(index)
            self.flush_prefix()
        self.flush_prefix()

    # ---------------------------------------------------------- pool path

    def _new_pool(self) -> ProcessPoolExecutor:
        """A fresh worker pool sized like the original."""
        return ProcessPoolExecutor(max_workers=self.workers)

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Forcibly terminate a pool whose workers cannot be trusted.

        SIGKILLs the worker processes first (a hung worker ignores softer
        signals by definition), then shuts the executor down without
        waiting; the short join reaps the corpses so crash tests do not
        accumulate zombies.
        """
        processes = list(getattr(pool, "_processes", {}).values())
        for process in processes:
            if process.is_alive():
                process.kill()
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            process.join(timeout=2.0)

    def _submit(
        self, pool: ProcessPoolExecutor, inflight, indices: list[int]
    ) -> None:
        """Submit one chunk of cell indices to the pool."""
        chunk = [(index, self.cells[index]) for index in indices]
        attempts = []
        for index in indices:
            attempts.append(self.attempts.get(index, 0))
            self.attempts[index] = attempts[-1] + 1
        future = pool.submit(
            _run_chunk,
            chunk,
            self.ensemble_size,
            self.fault_plan,
            attempts,
            self.breadcrumb_dir,
            backend=self.backend,
        )
        inflight[future] = _InflightChunk(indices, attempts)
        self.unconsumed.add(future)

    def _reschedule(self, ready, indices, delay: float = 0.0) -> None:
        """Queue unfinished cells for resubmission as single-cell chunks."""
        due = time.monotonic() + delay
        for index in indices:
            if index in self.unfinished:
                ready.append((due, [index]))

    def _consume_payload(self, payload) -> None:
        """Collect the rows of one successful chunk's ``[(index, batch)]``."""
        for index, packed in payload:
            self._mark_collected(index, unpack_rows(packed))

    def _harvest_completed(self) -> None:
        """Collect every unconsumed chunk that finished successfully.

        Called on the error path after the pool has shut down: chunks that
        were already in flight when a sibling failed have run to completion,
        and their rows belong to the completed prefix.  Futures that failed
        or were cancelled are skipped; best effort — harvesting must not
        mask the original failure.
        """
        for future in self.unconsumed:
            if not future.done() or future.cancelled():
                continue
            try:
                payload = future.result()
            except BaseException:
                continue
            self._consume_payload(payload)

    def _on_cell_failure(self, ready, info, error: SweepCellError) -> None:
        """One chunk raised: retry/quarantine the named cell, requeue the rest."""
        failing = error.cell_index
        if failing is None or failing not in info.indices:
            failing = info.indices[0]
        siblings = [index for index in info.indices if index != failing]
        self._reschedule(ready, siblings)
        delay = self._count_failure(failing, error)  # may raise (abort)
        if delay is not None:
            self._reschedule(ready, [failing], delay)

    def _spend_respawn(self, reason: str) -> bool:
        """Consume one respawn; return ``False`` when the budget is exhausted."""
        self.respawns += 1
        if self.respawns > self.respawn_budget:
            _degradation_warning(
                f"{reason}; respawn budget ({self.respawn_budget}) exhausted — "
                "finishing the remaining cells serially in the parent"
            )
            return False
        _degradation_warning(
            f"{reason}; respawning the worker pool "
            f"(respawn {self.respawns}/{self.respawn_budget})"
        )
        return True

    def _breadcrumb(self, index: int, attempt: int, stage: str) -> bool:
        """Whether the worker dropped the given marker for ``(index, attempt)``."""
        if self.breadcrumb_dir is None:
            return False
        return os.path.exists(
            os.path.join(self.breadcrumb_dir, f"{index}.{attempt}.{stage}")
        )

    def _arm_deadlines(self, inflight) -> None:
        """Start the deadline clock of every chunk observed executing.

        ``run_pool`` submits all ready chunks to the executor up front (~4
        waves per worker), so a chunk can wait in the executor's queue for
        several multiples of its own runtime; charging that wait against the
        deadline would mark perfectly healthy chunks hung.  The clock
        therefore starts only when the chunk's first cell drops its
        ``started`` breadcrumb.  Arming happens at observation time — at
        most one poll interval (see :meth:`_next_timeout`) after the actual
        start — so the deadline errs slightly lenient, never falsely early.
        """
        if self.cell_timeout is None:
            return
        now = time.monotonic()
        for future, info in inflight.items():
            if info.deadline is None and not future.done():
                if self._breadcrumb(info.indices[0], info.attempts[0], "started"):
                    info.deadline = now + self.cell_timeout * len(info.indices)

    def _charge_breakage(self, ready, info) -> None:
        """Attribute a pool breakage to the cells that were mid-execution.

        Reads the chunk's breadcrumbs: a cell that *started but never
        finished* its submitted attempt was running when the worker died and
        is charged a failure (retry/quarantine/abort per policy).  Cells
        that never started, or that finished but lost their rows with the
        dead worker, are rescheduled with nothing charged — they are
        victims, not suspects.
        """
        for index, attempt in zip(list(info.indices), info.attempts):
            if index not in self.unfinished:
                continue
            suspect = self._breadcrumb(index, attempt, "started") and not (
                self._breadcrumb(index, attempt, "done")
            )
            if not suspect:
                self._reschedule(ready, [index])
                continue
            error = SweepCellError(
                f"sweep cell {index} ({self.cells[index].name!r}) was "
                "running when the worker pool broke (worker killed or "
                "crashed hard)",
                cell_index=index,
                cell_name=self.cells[index].name,
            )
            delay = self._count_failure(index, error)  # may raise (abort)
            if delay is not None:
                self._reschedule(ready, [index], delay)

    def _drain_inflight(
        self, ready, inflight, hung: set, charge_breakage: bool = False
    ) -> None:
        """Settle every in-flight chunk around a pool kill.

        Chunks that finished successfully are harvested; a chunk that
        completed with a genuine :class:`SweepCellError` just before the
        kill is charged like any main-loop failure (retry budget consumed,
        abort policies abort now rather than after a wasted rerun); hung
        chunks count a failure against each of their unfinished cells
        (retry/quarantine/abort per policy); with ``charge_breakage`` the
        remaining chunks go through breadcrumb attribution
        (:meth:`_charge_breakage`); otherwise — victims of our own kill —
        they are rescheduled immediately with no failure charged.
        """
        for future, info in list(inflight.items()):
            self.unconsumed.discard(future)
            payload = None
            cell_error: Optional[SweepCellError] = None
            if future.done() and not future.cancelled() and future not in hung:
                try:
                    payload = future.result()
                except SweepCellError as exc:
                    cell_error = exc
                except BaseException:
                    payload = None
            if payload is not None:
                self._consume_payload(payload)
            elif cell_error is not None:
                self._on_cell_failure(ready, info, cell_error)  # may raise
            elif future in hung:
                for index in list(info.indices):
                    if index not in self.unfinished:
                        continue
                    error = SweepCellError(
                        f"sweep cell {index} ({self.cells[index].name!r}) "
                        f"hung: chunk exceeded its deadline of "
                        f"{self.cell_timeout}s per cell",
                        cell_index=index,
                        cell_name=self.cells[index].name,
                    )
                    delay = self._count_failure(index, error)  # may raise
                    if delay is not None:
                        self._reschedule(ready, [index], delay)
            elif charge_breakage:
                self._charge_breakage(ready, info)
            else:
                self._reschedule(ready, info.indices)
        inflight.clear()

    def _next_timeout(self, ready, inflight) -> Optional[float]:
        """Seconds until the next deadline, backoff expiry or arming poll.

        While hang detection is on and some in-flight chunk has no deadline
        yet (its ``started`` breadcrumb has not been observed), the wait is
        capped at a short poll interval so the supervisor wakes to arm the
        clock — otherwise a worker that hangs on its very first cell would
        leave the parent blocked in ``wait()`` forever.
        """
        marks = [entry[0] for entry in ready]
        unarmed = False
        for info in inflight.values():
            if info.deadline is not None:
                marks.append(info.deadline)
            elif self.cell_timeout is not None:
                unarmed = True
        if unarmed:
            poll = max(0.02, min(self.cell_timeout / 4.0, 0.25))
            marks.append(time.monotonic() + poll)
        if not marks:
            return None
        return max(0.0, min(marks) - time.monotonic())

    def run_pool(self) -> bool:
        """Drive the pool until done or degraded; ``True`` means finished.

        Returns ``False`` when the respawn budget ran out and the remaining
        cells should be finished serially by the caller.  Aborting policies
        re-raise out of here after the same harvest/flush/cleanup sequence
        the pre-supervisor error path performed, so completed work is never
        discarded.
        """
        chunk_size = self.chunk_size
        if chunk_size is None:
            chunk_size = default_chunk_size(len(self.unfinished), self.workers)
        pending = sorted(self.unfinished)
        ready: list[tuple[float, list[int]]] = [
            (0.0, pending[i : i + chunk_size])
            for i in range(0, len(pending), chunk_size)
        ]
        inflight: dict[Future, _InflightChunk] = {}
        self.breadcrumb_dir = tempfile.mkdtemp(prefix="repro-sweep-breadcrumbs-")
        pool = self._new_pool()
        try:
            self.flush_prefix()  # a resumed prefix is available immediately
            while ready or inflight:
                now = time.monotonic()
                for entry in [e for e in ready if e[0] <= now]:
                    ready.remove(entry)
                    indices = [i for i in entry[1] if i in self.unfinished]
                    if indices:
                        self._submit(pool, inflight, indices)
                if not inflight:
                    if ready:
                        time.sleep(
                            max(0.0, min(e[0] for e in ready) - time.monotonic())
                        )
                    continue
                done, _ = wait(
                    set(inflight),
                    timeout=self._next_timeout(ready, inflight),
                    return_when=FIRST_COMPLETED,
                )
                pool_broken = False
                for future in done:
                    info = inflight.pop(future)
                    try:
                        payload = future.result()
                    except SweepCellError as exc:
                        self.unconsumed.discard(future)
                        self._on_cell_failure(ready, info, exc)
                        continue
                    except BrokenProcessPool:
                        inflight[future] = info  # handled wholesale below
                        pool_broken = True
                        break
                    self.unconsumed.discard(future)
                    self._consume_payload(payload)
                if pool_broken:
                    self._drain_inflight(
                        ready, inflight, hung=set(), charge_breakage=True
                    )
                    self._kill_pool(pool)
                    if not self._spend_respawn("worker pool broke"):
                        return False
                    pool = self._new_pool()
                    self.flush_prefix()
                    continue
                self.flush_prefix()
                if self.cell_timeout is not None and inflight:
                    self._arm_deadlines(inflight)
                    cutoff = time.monotonic()
                    hung = {
                        future
                        for future, info in inflight.items()
                        if info.deadline is not None
                        and info.deadline <= cutoff
                        and not future.done()
                    }
                    if hung:
                        self._kill_pool(pool)
                        self._drain_inflight(ready, inflight, hung)
                        self.flush_prefix()
                        if not self._spend_respawn(
                            f"killed hung worker pool ({len(hung)} chunk(s) "
                            "past deadline)"
                        ):
                            return False
                        pool = self._new_pool()
            self.flush_prefix()
            pool.shutdown()
            return True
        except BaseException:
            # A failing cell must not discard finished work or leave the
            # rest of the sweep running: cancel queued chunks (the shutdown
            # waits for in-flight ones to finish), harvest their results and
            # flush the completed contiguous prefix (recoverable via
            # checkpoint/resume) before re-raising the attributed error.
            pool.shutdown(cancel_futures=True)
            try:
                self._harvest_completed()
                self.flush_prefix()
            except Exception:
                pass  # never mask the original failure with flush errors
            raise
        finally:
            shutil.rmtree(self.breadcrumb_dir, ignore_errors=True)
            self.breadcrumb_dir = None


def run_sweep_parallel(
    sweep: SweepSpec,
    workers: Optional[int] = None,
    progress: Optional[Callable[[ExperimentSpec], None]] = None,
    chunk_size: Optional[int] = None,
    ensemble_size: Optional[int] = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    retries: int = 0,
    backoff: float = 0.05,
    cell_timeout: Optional[float] = None,
    on_error: str = "raise",
    respawn_budget: int = 2,
    fault_plan=None,
    backend: Optional[str] = None,
) -> ResultTable:
    """Run a sweep's cells on a process pool; rows match the serial runner.

    Parameters
    ----------
    sweep:
        The sweep to expand and run.
    workers:
        Pool size; ``None`` uses every CPU this process may run on
        (affinity-aware, see :func:`default_worker_count`) and ``1`` runs
        inline (no pool, useful as the deterministic baseline in tests).
    progress:
        Called once per cell, in cell order, as results are collected —
        including for cells resumed from a checkpoint and for quarantined
        cells.
    chunk_size:
        Contiguous cells per worker task; defaults to
        :func:`default_chunk_size` over the cells still to run.
    ensemble_size:
        When > 1, workers run each cell's replicates through the vectorized
        :class:`~repro.core.ensemble.EnsembleDynamics` engine in batches of
        this size.
    checkpoint_dir:
        Artifact directory for checkpoint/resume
        (:class:`~repro.experiments.checkpoint.SweepCheckpoint`).  Completed
        cells are streamed to ``metrics.jsonl`` as they flush; cells whose
        spec hash already has a record are skipped and their recorded rows
        spliced in, so a killed sweep resumes into an identical table.
    retries:
        How many times a failed cell is retried (with seeded exponential
        backoff, see :func:`backoff_delay`) before the ``on_error`` policy
        settles it.  Ignored under ``on_error="raise"``, which aborts on the
        first failure.
    backoff:
        Base delay in seconds of the retry backoff schedule; ``0`` retries
        immediately.
    cell_timeout:
        Per-cell deadline in seconds.  A chunk that spends more than
        ``cell_timeout * len(chunk)`` *executing* (the clock starts when a
        worker picks the chunk up, not when it was submitted, so queue time
        behind other chunks is free) marks the pool hung: the supervisor
        kills and respawns the pool, reschedules only unfinished cells, and
        counts the hang as a failure of the hung chunk's cells.  ``None``
        (default) disables hang detection.  Hang detection needs a worker
        pool to supervise: with ``workers=1`` (and on the post-degradation
        serial fallback) the setting is inert and a
        :class:`~repro.errors.SweepDegradationWarning` says so.
    on_error:
        ``"raise"`` (default) aborts the sweep on the first cell failure,
        exactly like the pre-supervisor behaviour; ``"retry"`` retries up
        to ``retries`` times and aborts only when a cell exhausts them;
        ``"skip"`` also retries, but quarantines exhausted cells as
        structured failure records (on ``result.failures`` and in the
        checkpoint) and lets the rest of the sweep complete.
    respawn_budget:
        Pool kills/breakages tolerated before giving up on process
        parallelism: past the budget the remaining cells run serially in
        the parent (with a warning) instead of the sweep dying.
    fault_plan:
        A :class:`~repro.experiments.faults.FaultPlan` for deterministic
        fault injection (tests and chaos benches); ``None`` — the default —
        is the zero-overhead production path.
    backend:
        Flip-loop backend request for ensemble execution.  The parent
        resolves it to a concrete backend name *once* (full precedence:
        this argument > ``REPRO_BACKEND`` > ``sweep.backend`` > auto, then
        availability fallback with a single warning) and ships the resolved
        name to the workers, so each worker neither probes nor re-warns.
        Ignored — recorded as ``"scalar"`` — when ``ensemble_size`` does not
        select the ensemble engine.  Backends are bitwise identical, so the
        choice never affects rows; the checkpoint manifest records it as
        provenance.
    """
    if workers is not None and workers <= 0:
        raise ExperimentError(f"workers must be positive, got {workers}")
    if chunk_size is not None and chunk_size <= 0:
        raise ExperimentError(f"chunk_size must be positive, got {chunk_size}")
    if on_error not in ON_ERROR_MODES:
        raise ExperimentError(
            f"on_error must be one of {ON_ERROR_MODES}, got {on_error!r}"
        )
    if retries < 0:
        raise ExperimentError(f"retries must be non-negative, got {retries}")
    if respawn_budget < 0:
        raise ExperimentError(
            f"respawn_budget must be non-negative, got {respawn_budget}"
        )
    if cell_timeout is not None and cell_timeout <= 0:
        raise ExperimentError(
            f"cell_timeout must be positive, got {cell_timeout}"
        )
    cells = list(sweep.cells())

    # Resolve the backend once in the parent: workers receive the concrete
    # name, so availability probing (and any fallback warning) happens
    # exactly once per sweep instead of once per worker process.
    if ensemble_size is not None and ensemble_size > 1:
        resolved_backend = resolve_backend_name(
            select_backend_name(backend, sweep.backend)
        )
        worker_backend: Optional[str] = resolved_backend
    else:
        resolved_backend = "scalar"
        worker_backend = None

    checkpoint = None
    resumed: dict[int, list[dict[str, object]]] = {}
    if checkpoint_dir is not None:
        from repro.experiments.checkpoint import SweepCheckpoint

        checkpoint = SweepCheckpoint(
            checkpoint_dir, cells, sweep=sweep, backend=resolved_backend
        )
        resumed = checkpoint.resumed_rows()

    workers = workers if workers is not None else default_worker_count()
    workers = min(workers, len(cells) - len(resumed)) or 1

    supervisor = _SweepSupervisor(
        cells=cells,
        resumed=resumed,
        checkpoint=checkpoint,
        progress=progress,
        ensemble_size=ensemble_size,
        retries=retries,
        backoff=backoff,
        cell_timeout=cell_timeout,
        on_error=on_error,
        respawn_budget=respawn_budget,
        fault_plan=fault_plan,
        sweep_seed=int(getattr(sweep, "seed", 0) or 0),
        workers=workers,
        chunk_size=chunk_size,
        backend=worker_backend,
    )
    if workers == 1:
        if cell_timeout is not None and supervisor.unfinished:
            _degradation_warning(
                "cell_timeout is set but execution is serial (workers=1): "
                "hang detection needs a worker pool to kill and respawn, so "
                "a hung cell will stall the sweep — use workers > 1 for "
                "hang protection"
            )
        supervisor.run_serial()
    elif not supervisor.run_pool():
        supervisor.run_serial()
    if checkpoint is not None:
        # The sweep settled every cell (rows or quarantine record), so the
        # store is final: materialise the read-side summary.json aggregates
        # the serving layer (repro.serving) answers queries from.
        checkpoint.write_summary()
    return supervisor.table
