"""``repro serve`` with spans recorded around each layer's entry points.

Usage::

    python bench/traced_serve.py SPANS.json serve --port 0 ...

Wraps the callables below with a :class:`bench.spans.SpanRecorder`, runs
``repro.cli.main`` with the remaining arguments, and writes every span to
``SPANS.json`` when the server shuts down.  The program's files are not
changed: the wrappers are installed on the imported classes and modules.
``ThreadPoolExecutor.submit`` is wrapped so the request context follows
work onto the session manager's worker pool.
"""

from __future__ import annotations

import contextvars
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench.service import REQUEST_ID_HEADER  # noqa: E402
from bench.spans import (  # noqa: E402
    Span,
    SpanRecorder,
    current_request,
    current_span,
    wrapper_cost,
)

#: Public SessionManager operations (everything the HTTP layer calls).
MANAGER_OPERATIONS = (
    "create", "create_from_payload", "delete", "list_sessions", "summary",
    "trace", "result", "step", "stream_claims", "stream_claims_from_payload",
    "record_labels", "checkpoint",
)
SESSION_OPERATIONS = (
    "open", "save", "ingest", "ingest_from_source", "validate",
    "result_snapshot",
)


def _patch(recorder: SpanRecorder, owner, attribute: str, name: str,
           value=None) -> None:
    setattr(owner, attribute,
            recorder.wrap(name, getattr(owner, attribute), value))


def _trace_http(recorder: SpanRecorder) -> None:
    """One ``http.handle`` span per request, from the parsed request line
    (not from when the keep-alive thread began waiting for it) to the
    flushed response."""
    parse_request = BaseHTTPRequestHandler.parse_request
    handle_one_request = BaseHTTPRequestHandler.handle_one_request

    def traced_parse_request(self):
        start = time.perf_counter()
        parsed = parse_request(self)
        header = self.headers.get(REQUEST_ID_HEADER) if parsed else None
        request = int(header) if header and header.isdigit() else None
        span_id = recorder.new_id()
        current_request.set(request)
        current_span.set(span_id)
        self._bench_span = (span_id, request, start)
        return parsed

    def traced_handle_one_request(self):
        self._bench_span = None
        try:
            return handle_one_request(self)
        finally:
            opened = self._bench_span
            if opened is not None:
                span_id, request, start = opened
                recorder.record(Span(span_id, None, request, "http.handle",
                                     start, time.perf_counter()))
                current_span.set(None)
                current_request.set(None)

    BaseHTTPRequestHandler.parse_request = traced_parse_request
    BaseHTTPRequestHandler.handle_one_request = traced_handle_one_request


def _propagate_context() -> None:
    submit = ThreadPoolExecutor.submit

    def submit_in_context(self, fn, /, *args, **kwargs):
        return submit(self, contextvars.copy_context().run, fn, *args, **kwargs)

    ThreadPoolExecutor.submit = submit_in_context


def install(recorder: SpanRecorder) -> None:
    """Wrap every traced entry point (see the module docstring)."""
    import repro.inference.icrf as icrf_module
    import repro.service.manager as manager_module
    from repro.api import checkpoint as checkpoint_module
    from repro.api import DatasetSpec, FactCheckSession
    from repro.crf.gibbs import GibbsSampler
    from repro.guidance.gain import GainEstimator
    from repro.inference.icrf import ICrf
    from repro.service.manager import SessionManager
    from repro.streaming.process import StreamingFactChecker
    from repro.validation.process import ValidationProcess

    _trace_http(recorder)
    _propagate_context()
    for operation in MANAGER_OPERATIONS:
        _patch(recorder, SessionManager, operation, f"manager.{operation}")
    for operation in SESSION_OPERATIONS:
        _patch(recorder, FactCheckSession, operation, f"api.{operation}")
    _patch(recorder, checkpoint_module, "write_checkpoint", "api.write_checkpoint",
           value=lambda args, kwargs: os.path.getsize(args[0]))
    _patch(recorder, ValidationProcess, "run", "validation.run")
    _patch(recorder, ValidationProcess, "step", "validation.step")
    _patch(recorder, DatasetSpec, "load", "datasets.load")

    def candidates(args, kwargs):
        return len(args[1])

    _patch(recorder, GainEstimator, "information_gains", "guidance.information_gains",
           value=candidates)
    _patch(recorder, GainEstimator, "source_gains", "guidance.source_gains",
           value=candidates)
    _patch(recorder, ICrf, "infer", "inference.infer")
    _patch(recorder, GibbsSampler, "sample", "inference.estep")
    _patch(recorder, icrf_module, "run_m_step", "inference.mstep")
    _patch(recorder, manager_module, "result_to_dict", "wire.result_to_dict")
    _patch(recorder, StreamingFactChecker, "observe", "streaming.observe")


def main(argv) -> int:
    spans_path, serve_args = Path(argv[0]), argv[1:]
    cost = wrapper_cost()
    recorder = SpanRecorder()
    install(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(serve_args)
    finally:
        spans_path.write_text(json.dumps({
            "span_cost_s": cost,
            "spans": [list(span) for span in recorder.spans],
        }))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
