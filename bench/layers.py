"""Per-layer metrics of a traced run, computed from spans and client timings.

Span names (see :mod:`bench.traced_serve`) start with their layer:
``http``, ``manager``, ``api``, ``datasets``, ``validation``, ``guidance``,
``inference``, ``wire`` and ``streaming``.  Times per request are
milliseconds; ``*_pct`` metrics are a layer's self time as a share of the
client-observed time of all timed requests, so they add up (with the
client's share) to ``trace.coverage_pct`` and stay defined, as 0, on a
workload that never enters the layer.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

from bench.service import Request
from bench.spans import Span, by_request, self_times
from bench.stats import percentile

#: Share metrics: name -> span names whose self time it sums.  The
#: ``validation.step`` and ``streaming.validate`` shares are inclusive
#: (whole steps and whole bursts), as named in ``INCLUSIVE``.
SHARES = {
    "datasets.load_pct": ("datasets.load",),
    "validation.step_pct": ("validation.step",),
    "validation.self_pct": ("validation.step", "validation.run"),
    "guidance.gain_pct": ("guidance.information_gains", "guidance.source_gains"),
    "inference.infer_pct": ("inference.infer",),
    "inference.estep_pct": ("inference.estep",),
    "inference.mstep_pct": ("inference.mstep",),
    "streaming.observe_pct": ("streaming.observe",),
    "streaming.validate_pct": ("api.validate",),
}
INCLUSIVE = {"validation.step_pct", "streaming.validate_pct"}

_MS = 1e3


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


class TracedRun:
    """Spans of one run joined to the client's timed requests."""

    def __init__(self, spans: Iterable[Span], timed: Sequence[Request]) -> None:
        self.spans = list(spans)
        self.self_time = self_times(self.spans)
        self.groups = by_request(self.spans)
        self.timed = [request for request in timed if request.ok]
        self.mutating = [r for r in self.timed if r.kind == "mutate"]
        self.reads = [r for r in self.timed if r.kind == "read"]
        self.total = sum(r.latency for r in self.timed)

    def _named(self, request: Request, names: Tuple[str, ...]) -> List[Span]:
        return [span for span in self.groups.get(request.id, ()) if span.name in names]

    def self_sum(self, request: Request, names: Tuple[str, ...]) -> float:
        return sum(self.self_time[span.id] for span in self._named(request, names))

    def duration_sum(self, request: Request, names: Tuple[str, ...]) -> float:
        return sum(span.duration for span in self._named(request, names))

    def handle(self, request: Request) -> float:
        return self.duration_sum(request, ("http.handle",))

    def overhead(self, request: Request) -> float:
        """Client latency outside the server's request handling."""
        return request.latency - self.handle(request)

    def spans_of(self, requests: Iterable[Request]) -> List[Span]:
        return [span for r in requests for span in self.groups.get(r.id, ())]

    def share(self, names: Tuple[str, ...], inclusive: bool = False) -> float:
        measure = self.duration_sum if inclusive else self.self_sum
        if not self.total:
            return 0.0
        return 100.0 * sum(measure(r, names) for r in self.timed) / self.total

    def self_shares(self) -> Dict[str, float]:
        """Self time per span name, and the client's time, as shares."""
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans_of(self.timed):
            totals[span.name] += self.self_time[span.id]
        totals["client"] = sum(self.overhead(r) for r in self.timed)
        return {name: 100.0 * value / self.total for name, value in totals.items()}


def per_layer_metrics(run: TracedRun, span_cost: float) -> Dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json`` for one traced run.

    ``span_cost`` is the seconds one recorded span adds to a call.
    """
    mutating = run.mutating
    managers = tuple({s.name for s in run.spans if s.name.startswith("manager.")})
    waits = [run.self_sum(r, managers) for r in mutating]
    timed_spans = run.spans_of(run.timed)
    steps = sum(1 for span in timed_spans if span.name == "validation.step")
    gains = SHARES["guidance.gain_pct"]
    checkpoint_sizes = [span.value for span in timed_spans
                        if span.name == "api.write_checkpoint"]
    metrics = {
        "client.overhead_ms": _MS * _median([run.overhead(r) for r in mutating]),
        "gen.lag_p75_ms": _MS * percentile([r.lag for r in run.timed], 75),
        "http.handle_ms": _MS * _median([run.handle(r) for r in mutating]),
        "http.self_ms": _MS * _mean([run.self_sum(r, ("http.handle",))
                                     for r in mutating]),
        "http.response_kb": _median([r.size / 1024.0 for r in mutating]),
        "wire.result_ms": _MS * _median([
            run.duration_sum(r, ("wire.result_to_dict",)) for r in run.reads
        ]),
        "manager.wait_ms": _MS * _median(waits),
        "manager.wait_p75_ms": _MS * percentile(waits, 75),
        "manager.checkpoint_ms": _MS * _mean([
            run.duration_sum(r, ("api.save",)) for r in mutating
        ]),
        "manager.checkpoint_kb": _median(checkpoint_sizes) / 1024.0,
        "api.open_ms": _MS * _median([
            span.duration for span in run.spans if span.name == "api.open"
        ]),
        "api.save_state_ms": _MS * _mean([run.self_sum(r, ("api.save",))
                                          for r in mutating]),
        "api.write_checkpoint_ms": _MS * _mean([
            run.duration_sum(r, ("api.write_checkpoint",)) for r in mutating
        ]),
        "datasets.loads_per_request": sum(
            1 for span in run.spans_of(mutating) if span.name == "datasets.load"
        ) / len(mutating),
        "guidance.candidates": sum(
            span.value for span in timed_spans if span.name in gains
        ) / steps if steps else 0.0,
        "inference.infers_per_step": sum(
            1 for span in timed_spans if span.name == "inference.infer"
        ) / steps if steps else 0.0,
        "trace.coverage_pct": 100.0 * sum(
            sum(run.self_time[span.id] for span in run.groups.get(r.id, ()))
            + run.overhead(r)
            for r in run.timed
        ) / run.total,
        "trace.overhead_pct": 100.0 * len(timed_spans) * span_cost / sum(
            run.handle(r) for r in run.timed
        ),
    }
    for name, span_names in SHARES.items():
        metrics[name] = run.share(span_names, inclusive=name in INCLUSIVE)
    return metrics
