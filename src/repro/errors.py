"""Exception hierarchy for the ``repro`` package.

All exceptions raised intentionally by this library derive from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause while still letting programming errors (``TypeError`` and
friends coming from misuse of numpy, for example) propagate unchanged.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class ConfigurationError(ReproError, ValueError):
    """A model, experiment or substrate configuration is invalid.

    Raised for out-of-range parameters (e.g. an intolerance outside
    ``[0, 1]``), incompatible combinations (a horizon larger than the grid)
    or malformed planted configurations.
    """


class StateError(ReproError, RuntimeError):
    """An operation was attempted on a model in an incompatible state.

    For example stepping a dynamics engine that has already terminated with
    ``strict=True``, or asking for a trajectory that was never recorded.
    """


class AnalysisError(ReproError, ValueError):
    """A measurement routine received data it cannot analyse.

    Raised when a configuration array has the wrong shape or dtype, or when a
    requested region/agent lies outside the grid.
    """


class PercolationError(ReproError, ValueError):
    """A percolation substrate routine received invalid input.

    Raised for probabilities outside ``[0, 1]``, empty lattices, or
    disconnected endpoints when a path is required.
    """


class ExperimentError(ReproError, RuntimeError):
    """An experiment harness failure (empty sweep, inconsistent replicates)."""


class ServingError(ReproError, RuntimeError):
    """The artifact store / query layer received an unusable store or query.

    Raised for stores without a usable manifest, malformed query strings,
    ambiguous queries (an unspecified axis the store does not pin to a
    single value), and reproduction runs whose manifest cannot be expanded
    back into executable specs.
    """


class QueryMiss(ServingError):
    """A query could not be answered from the store under the active policy.

    Raised by the query engine under ``on_miss="error"`` when no exact cell
    matches and the nearest cell is farther than the allowed distance (or
    the store has no answerable cells at all).  ``on_miss="compute"``
    schedules a simulation instead of raising.
    """


class StoreDamaged(ServingError):
    """A store failed its startup integrity audit.

    Raised by ``repro serve``/``repro query`` when :func:`verify_store`
    finds problems (torn tails, corrupt lines, CRC mismatches, manifest
    drift) in a store about to be served, naming the damage kinds.  The
    ``--allow-damaged`` opt-out downgrades this to serving only the cells
    that pass the line-level integrity checks.
    """


class ServiceOverload(ServingError):
    """The query service is at its concurrent-compute capacity.

    Raised when a compute-on-miss request finds the compute gate full and no
    degraded (nearest-cell) answer is possible.  The HTTP layer maps it to
    ``429 Too Many Requests`` with a ``Retry-After`` header taken from
    :attr:`retry_after`.
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


class DeadlineExceeded(ServingError):
    """A request's deadline expired while waiting for a shared computation.

    Raised by the single-flight cache when a coalesced request waits past its
    per-request deadline for the leader's computation.  The leader itself is
    never aborted mid-simulation — its answer lands in the cache for the next
    caller — so the deadline bounds *waiting*, not work already underway.
    """


class ServingDegradationWarning(UserWarning):
    """The query service degraded gracefully instead of failing a request.

    Emitted when the compute gate is saturated and a compute-on-miss request
    is answered from the nearest stored cell (flagged ``degraded``) instead
    of running a simulation — the serving-tier analogue of
    :class:`SweepDegradationWarning`, leaving the same auditable trail.
    """


class SweepDegradationWarning(UserWarning):
    """The sweep supervisor degraded gracefully instead of failing.

    Emitted once per degradation step — a hung or broken worker pool killed
    and respawned, or the respawn budget exhausted and the sweep finished
    serially — so a long run leaves an auditable trail explaining why it ran
    slower than configured instead of dying.
    """


class CheckpointWarning(UserWarning):
    """A checkpoint store was readable but not pristine.

    Emitted when the metrics log loader drops a torn, unparseable or
    CRC-mismatched line, naming the file, line number and byte count, so an
    operator can tell a clean resume from a lossy one.
    """
