"""Thin HTTP client for the session service — stdlib ``urllib`` only.

Mirrors the REST surface of :mod:`repro.service.http` one method per
endpoint, translating structured error payloads back into
:class:`ServiceRequestError` (with the failing spec field path, when the
server reported one) and claim arrivals / results into their typed forms.

    from repro.service import ServiceClient

    client = ServiceClient("http://127.0.0.1:8080")
    session = client.create_session(spec)
    client.step(session["id"], count=5)
    result = client.result(session["id"])
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from typing import Iterable, List, Optional, Sequence, Union

from repro.api import SessionResult, SessionSpec
from repro.errors import ServiceError
from repro.streaming.stream import ClaimArrival, arrival_to_dict


class ServiceRequestError(ServiceError):
    """A service request failed; carries the structured error payload.

    Attributes:
        status: HTTP status code.
        error_type: The :mod:`repro.errors` class name reported by the
            server (e.g. ``"SpecError"``).
        field: Dotted spec field path for validation errors, else ``None``.
    """

    def __init__(
        self,
        message: str,
        status: int,
        error_type: Optional[str] = None,
        field: Optional[str] = None,
    ) -> None:
        super().__init__(message, field=field)
        self.status = status
        self.error_type = error_type


class ServiceClient:
    """Client for a running :class:`~repro.service.http.ReproServiceServer`.

    Args:
        base_url: Server address, e.g. ``http://127.0.0.1:8080``.
        timeout: Per-request timeout in seconds.  Inference on large
            corpora can make individual ``step``/``claims`` calls slow —
            size accordingly.
    """

    def __init__(self, base_url: str, timeout: float = 300.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def _request(self, method: str, path: str, payload=None) -> dict:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(
            f"{self.base_url}{path}",
            data=body,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            raw = exc.read()
            try:
                info = json.loads(raw.decode("utf-8")).get("error", {})
            except (UnicodeDecodeError, json.JSONDecodeError, AttributeError):
                info = {}
            raise ServiceRequestError(
                info.get("message", f"{method} {path} failed: HTTP {exc.code}"),
                status=exc.code,
                error_type=info.get("type"),
                field=info.get("field"),
            ) from None
        except urllib.error.URLError as exc:
            raise ServiceError(
                f"cannot reach the service at {self.base_url}: {exc.reason}"
            ) from None

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    def health(self) -> dict:
        """``GET /healthz``."""
        return self._request("GET", "/healthz")

    def list_sessions(self) -> List[dict]:
        """``GET /sessions``."""
        return self._request("GET", "/sessions")["sessions"]

    def create_session(
        self, spec: Union[SessionSpec, dict], session_id: Optional[str] = None
    ) -> dict:
        """``POST /sessions``: create from a spec; returns the summary."""
        payload = spec.to_dict() if isinstance(spec, SessionSpec) else dict(spec)
        if session_id is not None:
            payload = {"spec": payload, "id": session_id}
        return self._request("POST", "/sessions", payload)

    def summary(self, session_id: str) -> dict:
        """``GET /sessions/{id}``."""
        return self._request("GET", f"/sessions/{session_id}")

    def step(
        self,
        session_id: str,
        count: int = 1,
        run: bool = False,
        max_iterations: Optional[int] = None,
    ) -> dict:
        """``POST /sessions/{id}/step`` (batch sessions)."""
        payload: dict = {"count": count, "run": run}
        if max_iterations is not None:
            payload["max_iterations"] = max_iterations
        return self._request("POST", f"/sessions/{session_id}/step", payload)

    def stream_claims(
        self,
        session_id: str,
        arrivals: Iterable[Union[ClaimArrival, dict]],
        chunk_size: Optional[int] = None,
    ) -> List[dict]:
        """``POST /sessions/{id}/claims``: deliver arrivals, optionally
        chunked over several requests; returns all stream updates."""
        entries = [
            arrival_to_dict(a) if isinstance(a, ClaimArrival) else dict(a)
            for a in arrivals
        ]
        chunks: Sequence[List[dict]]
        if chunk_size is None:
            chunks = [entries]
        else:
            chunks = [
                entries[i : i + chunk_size]
                for i in range(0, len(entries), chunk_size)
            ]
        updates: List[dict] = []
        for chunk in chunks:
            response = self._request(
                "POST", f"/sessions/{session_id}/claims", {"arrivals": chunk}
            )
            updates.extend(response["updates"])
        return updates

    def record_labels(self, session_id: str, labels: Sequence[dict]) -> dict:
        """``POST /sessions/{id}/labels``; entries are
        ``{"claim": id-or-index, "value": 0|1}``."""
        return self._request(
            "POST", f"/sessions/{session_id}/labels", {"labels": list(labels)}
        )

    def result(self, session_id: str) -> SessionResult:
        """``GET /sessions/{id}/result`` — final when the session has
        completed, a non-mutating snapshot while it is still open."""
        payload = self._request("GET", f"/sessions/{session_id}/result")
        return SessionResult.from_dict(payload)

    def result_dict(self, session_id: str) -> dict:
        """Like :meth:`result` but returns the raw JSON payload."""
        return self._request("GET", f"/sessions/{session_id}/result")

    def trace(self, session_id: str) -> dict:
        """``GET /sessions/{id}/trace``."""
        return self._request("GET", f"/sessions/{session_id}/trace")["trace"]

    def checkpoint(self, session_id: str) -> dict:
        """``POST /sessions/{id}/checkpoint``; returns the spooled path."""
        return self._request("POST", f"/sessions/{session_id}/checkpoint")

    def delete_session(self, session_id: str) -> None:
        """``DELETE /sessions/{id}``."""
        self._request("DELETE", f"/sessions/{session_id}")
