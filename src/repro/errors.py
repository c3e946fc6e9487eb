"""Exception hierarchy for the ``repro`` fact-checking framework.

All exceptions raised by the library derive from :class:`ReproError`, so
callers can install a single ``except ReproError`` guard around framework
calls without accidentally swallowing unrelated failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the framework.

    A configuration check may name the key it rejected in :attr:`field`
    (e.g. ``"damping"``); the spec decoder turns that into the dotted
    path of the key within the whole spec document.
    """

    def __init__(self, *args, field: str | None = None):
        super().__init__(*args)
        self.field = field


class DataModelError(ReproError):
    """A structural problem with sources, documents, or claims.

    Raised, for example, when a document references an unknown source or
    claim, or when identifiers collide.
    """


class InferenceError(ReproError):
    """Credibility inference failed or was invoked on an invalid state."""


class GuidanceError(ReproError):
    """A claim-selection strategy could not produce a candidate."""


class ValidationProcessError(ReproError):
    """The interactive validation process was misconfigured or misused."""


class StreamingError(ReproError):
    """The streaming fact-checking pipeline received inconsistent input."""


class DatasetError(ReproError):
    """A dataset generator or loader was given invalid parameters."""


class SpecError(ReproError):
    """A declarative session configuration (``repro.api`` spec) is invalid.

    Carries the dotted path of the failing field in :attr:`field` when it
    is known (e.g. ``"inference.estep_mode"`` or ``"effort.termination[0].kind"``)
    so callers — the HTTP service in particular — can point users at the
    exact offending spot of a nested spec document.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message, field=field)

    def __str__(self) -> str:
        message = self.args[0] if self.args else ""
        if self.field:
            return f"{self.field}: {message}"
        return str(message)

    def with_prefix(self, prefix: str) -> "SpecError":
        """A copy of this error with ``prefix`` prepended to the field path.

        A path that starts with a list index (``[1].kind``) is joined
        without a dot (``termination[1].kind``).
        """
        message = self.args[0] if self.args else ""
        if not self.field:
            field = prefix
        else:
            dot = "" if self.field.startswith("[") else "."
            field = f"{prefix}{dot}{self.field}"
        return SpecError(message, field=field)


class SessionError(ReproError):
    """A :class:`~repro.api.FactCheckSession` was used outside its lifecycle."""


class CheckpointError(SessionError):
    """A session checkpoint could not be written or restored."""


class ServiceError(ReproError):
    """The multi-session service layer (``repro.service``) failed a request."""


class SessionNotFoundError(ServiceError):
    """The service has no session registered under the requested id."""
