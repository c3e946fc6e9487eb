"""Typed request/response model of the session service wire protocol.

Every HTTP body the service accepts or emits corresponds to a dataclass
here, so the handler layer parses requests into validated objects before
touching the :class:`~repro.service.manager.SessionManager`, and responses
are rendered from one place.  Serialisation stays plain JSON: entities use
the :mod:`repro.datasets.io` corpus dialect, arrivals use
:func:`repro.streaming.arrival_to_dict`, and results round-trip with full
fidelity (weights, trace, stream updates), which is what lets the
end-to-end tests compare a service-driven run against an in-process
:class:`~repro.api.FactCheckSession` bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Mapping, Optional, Union

from repro.api import SessionResult, SessionSpec
from repro.errors import ServiceError
from repro.streaming.stream import ClaimArrival, arrival_from_dict


def _require_mapping(payload: Any, what: str) -> Mapping:
    if not isinstance(payload, Mapping):
        raise ServiceError(f"{what} must be a JSON object")
    return payload


def _plain_int(value: Any) -> bool:
    """A JSON integer: ``true``/``false`` are ints in Python, so exclude them."""
    return isinstance(value, int) and not isinstance(value, bool)


def _positive_int(value: Any) -> bool:
    return _plain_int(value) and value >= 1


@dataclass(frozen=True)
class CreateSessionRequest:
    """Body of ``POST /sessions``: a SessionSpec document, optionally
    wrapped in an envelope carrying a client-chosen session id."""

    spec: SessionSpec
    session_id: Optional[str] = None

    @classmethod
    def from_payload(cls, payload: Any) -> "CreateSessionRequest":
        payload = _require_mapping(payload, "create-session body")
        if "spec" in payload:
            spec_payload = _require_mapping(payload["spec"], "spec")
            session_id = payload.get("id")
            if session_id is not None and not isinstance(session_id, str):
                raise ServiceError("session id must be a string")
        else:
            spec_payload, session_id = payload, None
        return cls(spec=SessionSpec.from_dict(spec_payload), session_id=session_id)


@dataclass(frozen=True)
class StepRequest:
    """Body of ``POST /sessions/{id}/step`` (batch sessions).

    ``count`` runs up to that many iterations; ``run=true`` drives the
    whole goal/budget/exhaustion loop to completion instead.
    """

    count: int = 1
    run: bool = False
    max_iterations: Optional[int] = None

    @classmethod
    def from_payload(cls, payload: Any) -> "StepRequest":
        if payload is None:
            return cls()
        payload = _require_mapping(payload, "step body")
        unknown = set(payload) - {"count", "run", "max_iterations"}
        if unknown:
            raise ServiceError(f"step body does not accept {sorted(unknown)}")
        count = payload.get("count", 1)
        if not _positive_int(count):
            raise ServiceError("step count must be a positive integer")
        max_iterations = payload.get("max_iterations")
        if max_iterations is not None and not _positive_int(max_iterations):
            raise ServiceError("max_iterations must be a positive integer")
        run = payload.get("run", False)
        if not isinstance(run, bool):
            raise ServiceError("step 'run' must be a JSON boolean")
        return cls(count=count, run=run, max_iterations=max_iterations)


@dataclass(frozen=True)
class ClaimsRequest:
    """Body of ``POST /sessions/{id}/claims``: streaming arrivals (Alg. 2)."""

    arrivals: List[ClaimArrival] = field(default_factory=list)

    @classmethod
    def from_payload(cls, payload: Any) -> "ClaimsRequest":
        payload = _require_mapping(payload, "claims body")
        entries = payload.get("arrivals")
        if not isinstance(entries, list) or not entries:
            raise ServiceError("claims body needs a non-empty 'arrivals' list")
        try:
            arrivals = [arrival_from_dict(_require_mapping(e, "arrival")) for e in entries]
        except ServiceError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(f"malformed arrival payload: {exc}") from exc
        return cls(arrivals=arrivals)


@dataclass(frozen=True)
class LabelEntry:
    """One user label: claim addressed by stable id or dense index."""

    claim: Union[str, int]
    value: int


@dataclass(frozen=True)
class LabelsRequest:
    """Body of ``POST /sessions/{id}/labels``: external user input."""

    labels: List[LabelEntry] = field(default_factory=list)

    @classmethod
    def from_payload(cls, payload: Any) -> "LabelsRequest":
        payload = _require_mapping(payload, "labels body")
        entries = payload.get("labels")
        if not isinstance(entries, list) or not entries:
            raise ServiceError("labels body needs a non-empty 'labels' list")
        labels = []
        for entry in entries:
            entry = _require_mapping(entry, "label entry")
            if "claim" not in entry or "value" not in entry:
                raise ServiceError("label entries need 'claim' and 'value'")
            claim = entry["claim"]
            if not (isinstance(claim, str) or _plain_int(claim)):
                raise ServiceError("label claim must be a string id or an integer index")
            value = entry["value"]
            if not (_plain_int(value) and value in (0, 1)):
                raise ServiceError("label value must be the integer 0 or 1")
            labels.append(LabelEntry(claim=claim, value=value))
        return cls(labels=labels)


# ----------------------------------------------------------------------
# Response rendering
# ----------------------------------------------------------------------


def result_to_dict(result: SessionResult) -> dict:
    """Full-fidelity rendering of a :class:`SessionResult`."""
    return result.to_dict()


def error_to_dict(exc: BaseException, error_type: Optional[str] = None) -> dict:
    """Structured error payload: ``{"error": {type, message, field?}}``.

    ``type`` is the :mod:`repro.errors` class name, so clients can switch
    on it; validation errors additionally carry the dotted ``field`` path
    of the offending spec entry (see :class:`repro.errors.SpecError`).
    """
    info: dict = {
        "type": error_type or type(exc).__name__,
        "message": str(exc),
    }
    fieldpath = getattr(exc, "field", None)
    if fieldpath:
        info["field"] = fieldpath
    return {"error": info}
