"""Spans: an in-memory recorder for the traced server, and the arithmetic
that turns recorded spans into per-layer numbers.

A span is ``(id, parent, request, name, start, end, value)``: ``parent`` is
the span that was open on the calling context when this one began,
``request`` the benchmark's request id (see
:data:`bench.service.REQUEST_ID_HEADER`), ``start``/``end`` read from
``time.perf_counter`` (``CLOCK_MONOTONIC``, shared by every process on the
host, so client and server timestamps compare), and ``value`` an optional
count the span reports, such as candidates scored or bytes written.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

#: The span open on the current context, and the request it serves.
current_span: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "bench_span", default=None
)
current_request: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "bench_request", default=None
)


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    request: Optional[int]
    name: str
    start: float
    end: float
    value: Optional[float] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans from any thread; ``list.append`` is atomic."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)

    def new_id(self) -> int:
        return next(self._ids)

    def record(self, span: Span) -> None:
        self.spans.append(span)

    def wrap(
        self,
        name: str,
        function: Callable,
        value: Optional[Callable[[tuple, dict], float]] = None,
    ) -> Callable:
        """``function`` recording one span named ``name`` per call.

        ``value(args, kwargs)``, when given, is evaluated after the call
        and stored on the span.
        """

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span_id = next(self._ids)
            parent = current_span.get()
            token = current_span.set(span_id)
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                current_span.reset(token)
                self.spans.append(Span(
                    span_id, parent, current_request.get(), name, start, end,
                    None if value is None else value(args, kwargs),
                ))

        return traced


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds one recorded span adds to a call (wrapped minus bare no-op)."""

    def noop() -> None:
        return None

    traced = SpanRecorder().wrap("noop", noop)

    def elapsed(function: Callable[[], None]) -> float:
        start = time.perf_counter()
        for _ in range(calls):
            function()
        return time.perf_counter() - start

    return max(0.0, (elapsed(traced) - elapsed(noop)) / calls)


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------


def _covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total, reach = 0.0, -float("inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    spans = list(spans)
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        clipped = [
            (max(child.start, span.start), min(child.end, span.end))
            for child in children[span.id]
            if child.end > span.start and child.start < span.end
        ]
        result[span.id] = span.duration - _covered(clipped)
    return result


def by_request(spans: Iterable[Span]) -> Dict[Optional[int], List[Span]]:
    groups: Dict[Optional[int], List[Span]] = defaultdict(list)
    for span in spans:
        groups[span.request].append(span)
    return groups
