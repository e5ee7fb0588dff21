"""Deterministic fault injection for the distributed sweep path.

The fault-tolerance layer of :func:`~repro.experiments.parallel.run_sweep_parallel`
(retry/backoff, hang detection, pool respawn, serial fallback, store
repair) is only trustworthy if every failure mode it guards against can be
reproduced on demand.  This module provides that reproducibility: a
:class:`FaultPlan` is a frozen, picklable schedule of faults keyed by *cell
index* and *attempt number*, threaded into the worker entry points behind a
zero-overhead hook (``if fault_plan is not None: ...`` — the production path
pays one ``None`` check per cell).

Supported fault kinds:

``crash``
    Raise :class:`InjectedFault` (a ``RuntimeError``) inside the worker just
    before the cell runs — the generic "worker raised" failure.
``memory-error``
    Raise :class:`MemoryError` instead, exercising the non-library exception
    path (allocation failures are the common real-world cousin).
``hang``
    Sleep ``hang_seconds`` inside the worker before running the cell,
    exercising the supervisor's deadline detection and pool kill/respawn.
``kill``
    ``SIGKILL`` the executing process.  In a pool worker this produces a
    ``BrokenProcessPool`` in the parent; on the inline (``workers=1``) path
    it kills the whole run — the substrate for the SIGKILL/resume matrix.
``torn-record``
    When the parent flushes the cell to the checkpoint, write only a prefix
    of the record line (no terminating newline) — the on-disk footprint of a
    kill mid-``record`` — and optionally ``SIGKILL`` the process right after,
    exercising store verify/repair and torn-tail resume.

Attempt keying makes every fault finite and deterministic: a fault with
``attempts=N`` fires on a cell's first ``N`` executions (attempt numbers
``0 .. N-1``) and never again, so a retried sweep converges to exactly the
fault-free rows.  The supervisor passes each cell's execution count with the
chunk, so the keying survives process boundaries and pool respawns.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.errors import ConfigurationError

#: Every fault kind a :class:`FaultSpec` may carry.
FAULT_KINDS = (
    "crash",
    "memory-error",
    "hang",
    "kill",
    "torn-record",
)

#: Fault kinds fired inside :func:`~repro.experiments.parallel._run_cell`.
CELL_FAULT_KINDS = ("crash", "memory-error", "hang", "kill")


class InjectedFault(RuntimeError):
    """The exception raised by ``crash`` faults (and nothing else).

    A dedicated type lets tests assert that a surfaced failure is the
    injected one and not an accidental bug in the machinery under test.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One programmed fault: a kind, a target cell, and an attempt window.

    ``attempts`` is the number of *executions* of the cell the fault fires
    on: with ``attempts=2`` the cell's first and second runs fault and the
    third succeeds.  ``torn-record`` faults ignore the window (the record
    hook fires at most once per run) and instead carry ``keep_bytes`` — how
    much of the record line lands on disk — and ``kill`` — whether to
    SIGKILL the process right after the torn write, as a real kill would.
    """

    kind: str
    cell_index: int
    attempts: int = 1
    hang_seconds: float = 30.0
    keep_bytes: int = 40
    kill: bool = False

    def __post_init__(self) -> None:
        """Validate the kind and the window so plans fail at build time."""
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.cell_index < 0:
            raise ConfigurationError(
                f"cell_index must be non-negative, got {self.cell_index}"
            )
        if self.attempts < 1:
            raise ConfigurationError(
                f"attempts must be at least 1, got {self.attempts}"
            )
        if self.hang_seconds <= 0:
            raise ConfigurationError(
                f"hang_seconds must be positive, got {self.hang_seconds}"
            )
        if self.keep_bytes < 0:
            raise ConfigurationError(
                f"keep_bytes must be non-negative, got {self.keep_bytes}"
            )

    def fires(self, cell_index: int, attempt: int) -> bool:
        """Whether this fault triggers for ``cell_index`` on ``attempt``."""
        return cell_index == self.cell_index and attempt < self.attempts


@dataclass(frozen=True)
class FaultPlan:
    """A frozen, picklable schedule of injected faults.

    Build plans fluently — each builder returns a new plan with the fault
    appended, so a plan literal reads like the scenario it encodes::

        plan = FaultPlan().crash(2).hang(5, seconds=10.0).kill(1)

    The plan travels to workers by pickle alongside the chunk; all firing
    decisions are pure functions of ``(cell_index, attempt)``, so a plan is
    exactly as deterministic as the sweep seeds themselves.
    """

    faults: tuple[FaultSpec, ...] = field(default_factory=tuple)

    # ------------------------------------------------------------- builders

    def _with(self, spec: FaultSpec) -> "FaultPlan":
        """A new plan with ``spec`` appended."""
        return replace(self, faults=self.faults + (spec,))

    def crash(self, cell_index: int, attempts: int = 1) -> "FaultPlan":
        """Raise :class:`InjectedFault` on the cell's first ``attempts`` runs."""
        return self._with(FaultSpec("crash", cell_index, attempts=attempts))

    def memory_error(self, cell_index: int, attempts: int = 1) -> "FaultPlan":
        """Raise :class:`MemoryError` on the cell's first ``attempts`` runs."""
        return self._with(FaultSpec("memory-error", cell_index, attempts=attempts))

    def hang(
        self, cell_index: int, seconds: float = 30.0, attempts: int = 1
    ) -> "FaultPlan":
        """Sleep ``seconds`` in the worker on the cell's first ``attempts`` runs."""
        return self._with(
            FaultSpec("hang", cell_index, attempts=attempts, hang_seconds=seconds)
        )

    def kill(self, cell_index: int, attempts: int = 1) -> "FaultPlan":
        """SIGKILL the executing process on the cell's first ``attempts`` runs."""
        return self._with(FaultSpec("kill", cell_index, attempts=attempts))

    def torn_record(
        self, cell_index: int, keep_bytes: int = 40, kill: bool = False
    ) -> "FaultPlan":
        """Tear the cell's checkpoint record line (optionally SIGKILL after)."""
        return self._with(
            FaultSpec(
                "torn-record", cell_index, keep_bytes=keep_bytes, kill=kill
            )
        )

    # ----------------------------------------------------------- hook sites

    def fire_in_cell(self, cell_index: int, attempt: int) -> None:
        """The worker-side hook, called by ``_run_cell`` before the cell runs.

        Fires the first matching cell fault in declaration order: ``hang``
        sleeps (then falls through to any further match, as a real stall
        followed by a crash would), ``crash``/``memory-error`` raise, and
        ``kill`` terminates the process with ``SIGKILL``.
        """
        for spec in self.faults:
            if spec.kind not in CELL_FAULT_KINDS:
                continue
            if not spec.fires(cell_index, attempt):
                continue
            if spec.kind == "hang":
                time.sleep(spec.hang_seconds)
                continue
            if spec.kind == "crash":
                raise InjectedFault(
                    f"injected crash: cell {cell_index}, attempt {attempt}"
                )
            if spec.kind == "memory-error":
                raise MemoryError(
                    f"injected memory error: cell {cell_index}, attempt {attempt}"
                )
            _kill_self()

    def torn_record_fault(self, cell_index: int) -> Optional[FaultSpec]:
        """The ``torn-record`` fault programmed for ``cell_index``, if any."""
        for spec in self.faults:
            if spec.kind == "torn-record" and spec.cell_index == cell_index:
                return spec
        return None


def _kill_self() -> None:
    """Terminate the current process the way ``kill -9`` would."""
    os.kill(os.getpid(), getattr(signal, "SIGKILL", signal.SIGTERM))


def write_torn_record(checkpoint, index: int, cell, rows, spec: FaultSpec) -> None:
    """Write only ``spec.keep_bytes`` of the cell's record line, no newline.

    Reproduces the exact on-disk footprint of a process killed mid-append:
    an unterminated prefix of a valid record.  The cell is *not* registered
    as completed in the checkpoint's memory, mirroring the fact that a
    killed process never got to use the record either.  With ``spec.kill``
    the process is SIGKILLed immediately after the torn write, making the
    simulation literal.
    """
    line = checkpoint.encoded_record(index, cell, rows)
    fragment = line[: spec.keep_bytes]
    with open(checkpoint.metrics_path, "ab") as handle:
        handle.write(fragment)
        handle.flush()
        os.fsync(handle.fileno())
    if spec.kill:
        _kill_self()
