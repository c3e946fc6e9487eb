"""HTTP front of the session registry — stdlib only, no new dependencies.

:class:`ReproServiceServer` is a :class:`~http.server.ThreadingHTTPServer`
routing a small REST surface onto a
:class:`~repro.service.manager.SessionManager`:

====== =============================== ==========================================
Method Path                            Meaning
====== =============================== ==========================================
GET    ``/healthz``                    liveness, session count, kernel loaded
GET    ``/sessions``                   list session summaries
POST   ``/sessions``                   create from a SessionSpec JSON body
GET    ``/sessions/{id}``              one session summary
POST   ``/sessions/{id}/step``         batch iterations (``{"count": n}`` or
                                       ``{"run": true}``)
POST   ``/sessions/{id}/claims``       streaming arrivals (Alg. 2)
POST   ``/sessions/{id}/labels``       external user labels
GET    ``/sessions/{id}/result``       full result (snapshot while open)
GET    ``/sessions/{id}/trace``        the unified validation trace
POST   ``/sessions/{id}/checkpoint``   checkpoint now; returns the path
DELETE ``/sessions/{id}``              evict the session and its spool entry
====== =============================== ==========================================

Requests and responses are ``application/json``; request bodies parse into
the typed model of :mod:`repro.service.wire`.  Errors map onto structured
payloads ``{"error": {"type", "message", "field"?}}`` where ``type`` is the
:mod:`repro.errors` class name — a 400 for an invalid spec carries the
dotted ``field`` path of the offending entry (e.g. ``inference.estep_mode``).
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from repro.errors import (
    CheckpointError,
    ReproError,
    ServiceError,
    SessionError,
    SessionNotFoundError,
    SpecError,
    StreamingError,
    ValidationProcessError,
)
from repro.service.manager import SessionManager
from repro.service.wire import LabelsRequest, StepRequest, error_to_dict
from repro.utils.ckernel import kernel_loaded

#: Largest accepted request body (16 MiB) — claim-arrival batches for big
#: corpora are chunked by the client well below this.
MAX_BODY_BYTES = 16 * 1024 * 1024


def _status_for(exc: ReproError) -> int:
    """Map a framework error onto an HTTP status code."""
    if isinstance(exc, SessionNotFoundError):
        return 404
    if isinstance(exc, (SpecError, ServiceError)):
        return 400
    if isinstance(exc, CheckpointError):
        return 500
    if isinstance(exc, (SessionError, ValidationProcessError, StreamingError)):
        return 409
    return 400


class _Handler(BaseHTTPRequestHandler):
    """Routes one request onto the manager; all responses are JSON."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-service"
    # Headers and body go out in two sends; without TCP_NODELAY, Nagle
    # holds the body back until the client's delayed ACK (>= 40 ms on
    # Linux) on every keep-alive response.
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------

    @property
    def manager(self) -> SessionManager:
        return self.server.manager  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if status >= 400:
            # Error paths may not have consumed the request body; closing
            # keeps a keep-alive client from parsing the leftover bytes
            # as its next request line.
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self):
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise ServiceError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        if length == 0:
            return None
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(f"request body is not valid JSON: {exc}") from exc

    def _route(self) -> Tuple[str, Optional[str], Optional[str]]:
        """Split the path into (root, session_id, action)."""
        parts = [part for part in self.path.split("?")[0].split("/") if part]
        root = parts[0] if parts else ""
        session_id = parts[1] if len(parts) > 1 else None
        action = parts[2] if len(parts) > 2 else None
        if len(parts) > 3:
            raise SessionNotFoundError(f"unknown path {self.path!r}")
        return root, session_id, action

    def _dispatch(self, method: str) -> None:
        try:
            root, session_id, action = self._route()
            handler = getattr(self, f"_{method}_{root or 'missing'}", None)
            if handler is None:
                raise SessionNotFoundError(f"unknown path {self.path!r}")
            handler(session_id, action)
        except ReproError as exc:
            self._send_json(_status_for(exc), error_to_dict(exc))
        except Exception as exc:  # pragma: no cover - defensive
            self._send_json(500, error_to_dict(exc))

    def do_GET(self) -> None:  # noqa: N802
        self._dispatch("get")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("post")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("delete")

    # -- routes --------------------------------------------------------

    def _get_healthz(self, session_id, action) -> None:
        if session_id is not None:
            raise SessionNotFoundError(f"unknown path {self.path!r}")
        # session_count touches only the registry lock — the probe stays
        # responsive while long-running session operations hold their locks.
        # The kernel flag reads the loader's state and never builds it.
        self._send_json(
            200,
            {
                "status": "ok",
                "sessions": self.manager.session_count(),
                "kernel": kernel_loaded(),
            },
        )

    def _get_sessions(self, session_id, action) -> None:
        if session_id is None:
            self._send_json(200, {"sessions": self.manager.list_sessions()})
        elif action is None:
            self._send_json(200, self.manager.summary(session_id))
        elif action == "result":
            self._send_json(200, self.manager.result(session_id))
        elif action == "trace":
            self._send_json(200, {"trace": self.manager.trace(session_id)})
        else:
            raise SessionNotFoundError(f"unknown path {self.path!r}")

    def _post_sessions(self, session_id, action) -> None:
        body = self._read_body()
        if session_id is None:
            summary = self.manager.create_from_payload(
                body if body is not None else {}
            )
            self._send_json(201, summary)
        elif action == "step":
            self._send_json(
                200, self.manager.step(session_id, StepRequest.from_payload(body))
            )
        elif action == "claims":
            self._send_json(
                200, self.manager.stream_claims_from_payload(session_id, body or {})
            )
        elif action == "labels":
            self._send_json(
                200,
                self.manager.record_labels(
                    session_id, LabelsRequest.from_payload(body or {})
                ),
            )
        elif action == "checkpoint":
            # Checkpoints always land in the spool: a client-supplied path
            # would hand HTTP callers an arbitrary-filesystem-write
            # primitive.  (SessionManager.checkpoint keeps its path
            # parameter for in-process callers.)
            self._send_json(200, self.manager.checkpoint(session_id))
        else:
            raise SessionNotFoundError(f"unknown path {self.path!r}")

    def _delete_sessions(self, session_id, action) -> None:
        if session_id is None or action is not None:
            raise SessionNotFoundError(f"unknown path {self.path!r}")
        self.manager.delete(session_id)
        self._send_json(200, {"deleted": session_id})


class ReproServiceServer(ThreadingHTTPServer):
    """The session service: a threading HTTP server over a manager.

    Each request runs on its own thread; the manager's per-session locks
    and worker pool provide the concurrency discipline.  ``port=0`` binds
    an ephemeral port — read the chosen one from :attr:`server_port`.
    """

    daemon_threads = True

    def __init__(
        self,
        manager: SessionManager,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
    ) -> None:
        super().__init__((host, port), _Handler)
        self.manager = manager
        self.verbose = verbose

    @property
    def url(self) -> str:
        """Base URL of the bound server."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def serve_in_background(self) -> threading.Thread:
        """Start :meth:`serve_forever` on a daemon thread (tests, examples)."""
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread
