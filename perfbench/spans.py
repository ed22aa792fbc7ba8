"""Host wall-clock spans recorded from outside the program.

The traced run wraps public calls into each layer (``price_job``,
``run_batch``, ``run_gemm``...) with :meth:`SpanRecorder.wrap`, or opens
:meth:`SpanRecorder.span` around a call site.  Spans live in memory and
are written out when the run ends.  Every time here is host time; the
simulated clock never appears.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager, nullcontext
from functools import wraps
from typing import Callable, Iterable, Iterator, NamedTuple


class Span(NamedTuple):
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    job_id: str | None
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Thread-safe in-memory span log with per-thread parent tracking.

    A span's parent is the innermost span open on the same thread; a span
    opened on a thread with nothing open (a pool worker) is parented to
    the current root span, the repetition that caused it.
    """

    def __init__(self) -> None:
        self._records: list[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.root: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, job_id: str | None = None) -> Iterator[int]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else self.root
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            record = Span(
                span_id, name, start, end, parent, job_id, threading.get_ident()
            )
            with self._lock:
                self._records.append(record)

    @contextmanager
    def root_span(self, name: str) -> Iterator[int]:
        """A span that also parents spans opened on other threads."""
        with self.span(name) as span_id:
            self.root = span_id
            try:
                yield span_id
            finally:
                self.root = None

    def wrap(
        self,
        fn: Callable,
        name: str,
        job_id: Callable[..., str | None] | None = None,
    ) -> Callable:
        """``fn`` wrapped in a span; ``job_id`` extracts an id from the args."""

        @wraps(fn)
        def wrapper(*args, **kwargs):
            ident = job_id(*args, **kwargs) if job_id is not None else None
            with self.span(name, ident):
                return fn(*args, **kwargs)

        return wrapper

    def take(self) -> list[Span]:
        """Remove and return every finished span, in start order."""
        with self._lock:
            records, self._records = self._records, []
        return sorted(records, key=lambda span: span.start)


class NullRecorder:
    """Stand-in for untraced runs: every span is a no-op."""

    def span(self, name: str, job_id: str | None = None):
        return nullcontext()

    def root_span(self, name: str):
        return nullcontext()


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def clipped(
    intervals: Iterable[tuple[float, float]], low: float, high: float
) -> list[tuple[float, float]]:
    """Intervals cut to ``[low, high]``, empty ones dropped."""
    return [
        (max(start, low), min(end, high))
        for start, end in intervals
        if min(end, high) > max(start, low)
    ]


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Per span name: total duration minus the part its children cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    by_name: dict[str, float] = {}
    for span in spans:
        covered = union_length(
            clipped(children.get(span.span_id, ()), span.start, span.end)
        )
        by_name[span.name] = by_name.get(span.name, 0.0) + span.duration - covered
    return by_name


def unattributed(
    root: Span, spans: Iterable[Span], extra: Iterable[tuple[float, float]] = ()
) -> float:
    """Root wall time covered by none of its direct children (or ``extra``)."""
    intervals = [
        (span.start, span.end) for span in spans if span.parent == root.span_id
    ]
    intervals.extend(extra)
    return root.duration - union_length(clipped(intervals, root.start, root.end))


def totals(spans: Iterable[Span], name: str) -> tuple[int, float]:
    """Call count and summed duration of the spans called ``name``."""
    matching = [span.duration for span in spans if span.name == name]
    return len(matching), sum(matching)
