"""Host-speed reference that the end-to-end timings are scaled by.

A shared VM does not run at one speed: the same fixed computation can take
1.5x longer for seconds to minutes at a time while other tenants load the
machine, and each vCPU drifts on its own.  That drift, not the program,
would set the spread of raw wall times across runs.  So every timed stretch
of a run is bracketed by a fixed reference job that uses none of the
library's code (interpreter loop, numpy sort and a random gather), run at
once in one helper process per vCPU the workloads use, and the stretch's
timings are scaled by the mean reference time around it::

    adjusted time = wall time * NOMINAL_S / reference time
    adjusted rate = rate * reference time / NOMINAL_S

so a figure reads as it would on a host where the reference takes
``NOMINAL_S`` seconds.  Both commits of a comparison run the same reference,
so a change to the program moves the adjusted figures exactly as it moves
the raw ones; the raw figures are printed on the report lines as well.
"""

from __future__ import annotations

import multiprocessing
import time
from statistics import mean, median
from typing import Optional

#: Seconds the reference job takes, on every helper at once, on the host the
#: figures are scaled to (about its median on the shared 2-vCPU VM the bounds
#: were set on, so scaled and raw figures read alike there).
NOMINAL_S = 0.2

#: Helper processes running the reference at once: one per vCPU the
#: workloads keep busy (two pool workers, or server and load generator).
PROCESSES = 2

#: Interpreter iterations, sorts and gathers in one reference job.
LOOP = 1_000_000
SORTS = 40
GATHERS = 8

_data: Optional[tuple] = None


def _inputs() -> tuple:
    """Arrays of the reference job, built once and outside the timing."""
    global _data
    if _data is None:
        import numpy

        rng = numpy.random.default_rng(0)
        _data = (
            rng.random(200_000),
            rng.random(2_000_000),
            rng.integers(0, 2_000_000, 1_000_000),
        )
    return _data


def reference_seconds() -> float:
    """Wall seconds of one run of the fixed reference job."""
    values, table, index = _inputs()
    start = time.perf_counter()
    total = 0
    for k in range(LOOP):
        total += k * k
    for _ in range(SORTS):
        values.copy().sort()
    for _ in range(GATHERS):
        table.take(index).sum()
    return time.perf_counter() - start


def _helper(pipe) -> None:
    """Run the reference each time the parent asks; stop on ``False`` or EOF."""
    try:
        while pipe.recv():
            pipe.send(reference_seconds())
    except EOFError:
        pass


class HostClock:
    """Reference times taken between the timed stretches of one run.

    Call :meth:`mark` after each stretch; it runs the reference again and
    returns the stretch's factor ``NOMINAL_S / mean(reference before, after)``.
    Multiply a stretch's times by its factor, divide its rates by it.
    Call :meth:`close` (or use it as a context manager) to stop the helpers.
    """

    def __init__(self) -> None:
        _inputs()
        context = multiprocessing.get_context("fork")
        self._pipes = []
        self._helpers = []
        try:
            for _ in range(PROCESSES):
                parent, child = context.Pipe()
                helper = context.Process(target=_helper, args=(child,), daemon=True)
                helper.start()
                child.close()
                self._pipes.append(parent)
                self._helpers.append(helper)
            self._reference()
            self.references = [self._reference()]
        except BaseException:
            self.close()
            raise
        self.factors: list[float] = []

    def _reference(self) -> float:
        """Mean reference time over the helpers, run at the same time."""
        for pipe in self._pipes:
            pipe.send(True)
        return mean(pipe.recv() for pipe in self._pipes)

    def start(self) -> None:
        """Take a fresh reference: the next stretch starts here."""
        self.references.append(self._reference())

    def mark(self) -> float:
        """Factor of the stretch since the previous mark (or construction)."""
        self.references.append(self._reference())
        factor = NOMINAL_S / ((self.references[-2] + self.references[-1]) / 2)
        self.factors.append(factor)
        return factor

    def describe(self) -> dict:
        """Reference times and stretch factors, for the report."""
        return {
            "nominal_s": NOMINAL_S,
            "reference_s_median": round(median(self.references), 4),
            "reference_s_range": [round(min(self.references), 4), round(max(self.references), 4)],
            "factors": [round(factor, 3) for factor in self.factors],
        }

    def close(self) -> None:
        """Stop the helper processes and wait for each to end."""
        for pipe in self._pipes:
            try:
                pipe.send(False)
            except OSError:
                pass
        for helper in self._helpers:
            helper.join(timeout=5.0)
            if helper.is_alive():
                helper.kill()
                helper.join()
        for pipe in self._pipes:
            pipe.close()
        self._pipes, self._helpers = [], []

    def __enter__(self) -> "HostClock":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
