"""In-memory spans recorded around calls into the library's layers.

A :class:`Tracer` records one :class:`Span` per traced call: name, start and
end (``time.perf_counter`` seconds), the enclosing span and the run id.  The
spans stay in memory while the benchmark runs and are written out as JSON
lines at the end.  A span's *self time* is its duration minus the part of
its interval that its child spans cover.

The benchmark traces from its own files: :meth:`Tracer.patch` temporarily
replaces a library attribute with a wrapper that opens a span around each
call and restores the original afterwards.  :class:`NullTracer` has the same
interface and records nothing, so the untraced pass runs the identical code.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional


@dataclass
class Span:
    """One traced call."""

    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Wall seconds between the span's start and end."""
        return self.end - self.start


class Tracer:
    """Records nested spans of one benchmark run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[dict]:
        """Record the enclosed block as one span; yields its mutable attrs."""
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(span_id, name, time.perf_counter(), 0.0, parent, self.run_id, dict(attrs))
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield record.attrs
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def patch(
        self,
        owner: object,
        attribute: str,
        name: str,
        annotate: Optional[Callable[[dict, tuple, object], None]] = None,
    ) -> Iterator[None]:
        """Trace every call of ``owner.attribute`` as a span named ``name``.

        ``annotate(attrs, args, result)`` may copy counts from the call into
        the span.  The original attribute is restored on exit.
        """
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = original(*args, **kwargs)
                if annotate is not None:
                    annotate(attrs, args, result)
                return result

        setattr(owner, attribute, traced)
        try:
            yield
        finally:
            setattr(owner, attribute, original)

    def named(self, name: str) -> list[Span]:
        """Every recorded span called ``name``, in start order."""
        return [span for span in self.spans if span.name == name]

    def total(self, name: str) -> float:
        """Summed duration of the spans called ``name``."""
        return sum(span.duration for span in self.named(name))

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span), default=str) + "\n")


class NullTracer:
    """Tracer interface that records nothing (the untraced pass)."""

    @contextlib.contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[dict]:
        """Run the block without recording it."""
        yield {}

    @contextlib.contextmanager
    def patch(self, owner, attribute, name, annotate=None) -> Iterator[None]:
        """Leave the attribute untouched."""
        yield


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    covered = 0.0
    current_start = current_end = None
    for start, end in clipped:
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        covered += current_end - current_start
    return covered


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.span_id: span.duration
        - covered_length(children.get(span.span_id, []), span.start, span.end)
        for span in spans
    }
