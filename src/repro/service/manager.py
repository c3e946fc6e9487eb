"""The session registry: many concurrent fact-checking sessions, managed.

:class:`SessionManager` owns named :class:`~repro.api.FactCheckSession`
objects keyed by id and redesigns the public surface from "one in-process
session" to "a registry of sessions behind a service":

* **create** from a declarative :class:`~repro.api.SessionSpec` (the only
  construction path — every hosted session is fully spec-determined, which
  is what makes the registry restorable);
* **drive** — step (batch), stream claim arrivals with the same
  interleaved-validation schedule as :meth:`FactCheckSession.run`
  (streaming), record external labels, query trace/result;
* **persist** — checkpoint on demand and automatically (the durability
  policy below), evict, and restore the whole registry from the spool
  directory after a restart.

Concurrency: every session carries its own re-entrant lock, so interleaved
requests against one session serialise (results stay bit-for-bit identical
to a single-threaded run), while operations on *different* sessions run in
parallel on a configurable worker pool.

Durability: with a ``spool_dir`` configured, each session is checkpointed
to ``<spool_dir>/<id>.json.gz`` when created, after every
``checkpoint_every`` mutating events (iterations, arrivals, labels — the
same periodic policy :meth:`FactCheckSession.run` exposes), and on
shutdown.  :meth:`restore` rebuilds the registry from those checkpoints;
because checkpoints resume bit-for-bit, a restart is invisible to results.
"""

from __future__ import annotations

import threading
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, TypeVar, Union

from repro.analysis.contracts import requires_lock
from repro.api import FactCheckSession, SessionSpec
from repro.errors import ServiceError, SessionNotFoundError
from repro.service.wire import (
    ClaimsRequest,
    LabelsRequest,
    StepRequest,
    result_to_dict,
)
from repro.streaming.stream import ClaimArrival

_T = TypeVar("_T")

#: File suffix of spooled session checkpoints (gzip-compressed JSON).
SPOOL_SUFFIX = ".json.gz"


@dataclass(frozen=True)
class ServiceConfig:
    """Configuration of a :class:`SessionManager`.

    Attributes:
        spool_dir: Durability directory; ``None`` disables auto-checkpoint
            and restart recovery.
        workers: Size of the worker pool executing session operations —
            the parallelism across *independent* sessions.
        checkpoint_every: Auto-checkpoint a session after this many
            mutating events (iterations / arrivals / labels); ``None``
            checkpoints only on create, explicit request, and shutdown.
    """

    spool_dir: Optional[Union[str, Path]] = None
    workers: int = 4
    checkpoint_every: Optional[int] = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ServiceError("workers must be at least 1")
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ServiceError("checkpoint_every must be at least 1 (or None)")


class _ManagedSession:
    """A hosted session plus its lock and durability counters."""

    #: Mutable attributes that may only be touched while holding ``lock``
    #: (enforced statically by lint rules LOCK001/LOCK002).
    _LOCK_GUARDED = ("session", "evicted", "events_since_checkpoint")

    def __init__(self, session_id: str, session: FactCheckSession) -> None:
        self.id = session_id
        self.session = session
        self.lock = threading.RLock()
        self.events_since_checkpoint = 0
        # Set under the lock by delete(): an operation that was already in
        # flight when its session was evicted must not re-spool it (that
        # would resurrect the deleted session on the next restart).
        self.evicted = False


class SessionManager:
    """Registry of concurrent fact-checking sessions (see module docstring)."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config if config is not None else ServiceConfig()
        self._sessions: Dict[str, _ManagedSession] = {}
        self.restore_errors: List[tuple] = []
        self._registry_lock = threading.Lock()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-session",
        )
        self._closed = False
        if self.config.spool_dir is not None:
            Path(self.config.spool_dir).mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Registry plumbing
    # ------------------------------------------------------------------

    def _get(self, session_id: str) -> _ManagedSession:
        with self._registry_lock:
            managed = self._sessions.get(session_id)
        if managed is None:
            raise SessionNotFoundError(f"no session with id {session_id!r}")
        return managed

    def _run(self, managed: _ManagedSession, operation: Callable[[], _T]) -> _T:
        """Execute ``operation`` under the session lock on the worker pool.

        The lock is taken on the *calling* thread: requests queued behind
        a busy session wait here without consuming worker-pool slots, so
        the pool bounds actual concurrent computation across sessions and
        one busy session can never starve the others.  Holding the lock
        is also the race-free moment to notice the session was deleted by
        a request that overtook this one.
        """
        if self._closed:
            raise ServiceError("the session manager is shut down")
        with managed.lock:
            if managed.evicted:
                raise SessionNotFoundError(f"no session with id {managed.id!r}")
            return self._executor.submit(operation).result()

    def _spool_path(self, session_id: str) -> Optional[Path]:
        if self.config.spool_dir is None:
            return None
        return Path(self.config.spool_dir) / f"{session_id}{SPOOL_SUFFIX}"

    @requires_lock("managed")
    def _record_events(self, managed: _ManagedSession, events: int) -> None:
        """Advance the durability counter; checkpoint when the period lapses.

        Called under the session lock by every mutating operation.
        """
        path = self._spool_path(managed.id)
        every = self.config.checkpoint_every
        if path is None or every is None or managed.evicted:
            return
        managed.events_since_checkpoint += events
        if managed.events_since_checkpoint >= every:
            managed.session.save(path)
            managed.events_since_checkpoint = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def create(self, spec: SessionSpec, session_id: Optional[str] = None) -> dict:
        """Create, open, and register a session; returns its summary.

        Args:
            spec: Declarative configuration.  Streaming sessions need no
                corpus (claims arrive later); batch sessions must carry a
                ``dataset`` spec — hosted sessions cannot receive corpus
                objects, that is what keeps them checkpointable.
            session_id: Client-chosen id; autogenerated when omitted.
        """
        if spec.mode == "batch" and spec.dataset is None:
            raise ServiceError(
                "hosted batch sessions need spec.dataset (the service "
                "cannot accept corpus objects)"
            )
        if session_id is not None and (
            not session_id or any(c in session_id for c in "/\\ \t\n")
        ):
            raise ServiceError(
                f"invalid session id {session_id!r}: must be non-empty "
                f"without slashes or whitespace"
            )
        if session_id is None:
            session_id = uuid.uuid4().hex[:12]
        managed = _ManagedSession(session_id, FactCheckSession(spec))

        def operation() -> dict:
            managed.session.open()
            path = self._spool_path(session_id)
            if path is not None:
                managed.session.save(path)
            return self._summary(managed)

        # Registered under its own lock, so no other request sees the
        # session before it is open.
        with managed.lock:
            with self._registry_lock:
                if session_id in self._sessions:
                    raise ServiceError(f"session id {session_id!r} already exists")
                self._sessions[session_id] = managed
            try:
                return self._run(managed, operation)
            except Exception:
                with self._registry_lock:
                    self._sessions.pop(session_id, None)
                raise

    def restore(self) -> List[str]:
        """Rebuild the registry from the spool directory after a restart.

        Every ``<id>.json.gz`` checkpoint is loaded into an open session
        registered under ``<id>``.  Returns the restored ids (sorted).
        Sessions that were created in this manager already are skipped.

        A checkpoint that fails to load (e.g. torn by a crash before the
        atomic-replace discipline existed, or hand-edited) is skipped
        rather than blocking the whole registry; the failures are
        collected in :attr:`restore_errors` for the operator.
        """
        self.restore_errors: List[tuple] = []
        if self.config.spool_dir is None:
            return []
        restored: List[str] = []
        for path in sorted(Path(self.config.spool_dir).glob(f"*{SPOOL_SUFFIX}")):
            session_id = path.name[: -len(SPOOL_SUFFIX)]
            with self._registry_lock:
                if session_id in self._sessions:
                    continue
            try:
                session = FactCheckSession.load(path)
            except Exception as exc:
                self.restore_errors.append((session_id, str(exc)))
                continue
            with self._registry_lock:
                self._sessions[session_id] = _ManagedSession(session_id, session)
            restored.append(session_id)
        return restored

    def delete(self, session_id: str) -> None:
        """Evict a session from the registry and delete its spool entry."""
        managed = self._get(session_id)
        with managed.lock:
            managed.evicted = True
            with self._registry_lock:
                self._sessions.pop(session_id, None)
            path = self._spool_path(session_id)
            if path is not None and path.exists():
                path.unlink()

    def shutdown(self, checkpoint: bool = True) -> None:
        """Stop the worker pool, checkpointing every session first."""
        if self._closed:
            return
        if checkpoint and self.config.spool_dir is not None:
            with self._registry_lock:
                sessions = list(self._sessions.values())
            for managed in sessions:
                with managed.lock:
                    managed.session.save(self._spool_path(managed.id))
                    managed.events_since_checkpoint = 0
        self._closed = True
        self._executor.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @requires_lock("managed")
    def _summary(self, managed: _ManagedSession) -> dict:
        """Status summary of one session (called under its lock)."""
        session = managed.session
        return {
            "id": managed.id,
            "mode": session.mode,
            "status": session.status,
            "seed": session.spec.seed,
            **session.progress(),
        }

    def session_count(self) -> int:
        """Number of registered sessions — lock-free beyond the registry,
        so liveness probes never queue behind a long-running request."""
        with self._registry_lock:
            return len(self._sessions)

    def list_sessions(self) -> List[dict]:
        """Summaries of every registered session, ordered by id."""
        with self._registry_lock:
            managed_sessions = sorted(self._sessions.values(), key=lambda m: m.id)
        summaries = []
        for managed in managed_sessions:
            with managed.lock:
                summaries.append(self._summary(managed))
        return summaries

    def summary(self, session_id: str) -> dict:
        """Status summary of one session."""
        managed = self._get(session_id)
        with managed.lock:
            return self._summary(managed)

    def trace(self, session_id: str) -> dict:
        """The unified validation trace as a JSON-compatible dict."""
        managed = self._get(session_id)

        def operation() -> dict:
            return managed.session.trace.to_dict()

        return self._run(managed, operation)

    def result(self, session_id: str) -> dict:
        """The session's full result — final if closed, else a snapshot.

        A pure read: an open session stays open and drivable (a polling
        dashboard cannot accidentally finalise a mid-run session), and an
        open session mid-run reports ``stop_reason="unfinished"``.
        Sessions close server-side when a run request completes
        (``step`` with ``run=true``).
        """
        managed = self._get(session_id)

        def operation() -> dict:
            return result_to_dict(managed.session.result_snapshot())

        return self._run(managed, operation)

    # ------------------------------------------------------------------
    # Driving sessions
    # ------------------------------------------------------------------

    def step(self, session_id: str, request: Optional[StepRequest] = None) -> dict:
        """Advance a session server-side, in either mode.

        With ``request.run`` the session runs to completion and closes
        (:meth:`FactCheckSession.run`); otherwise it advances by
        ``request.count`` iterations or, for a streaming session with a
        declared ``stream.source``, arrivals
        (:meth:`FactCheckSession.advance`).  No claim payloads cross the
        wire, and source-driven streams keep their compact checkpoints.
        """
        managed = self._get(session_id)
        request = request if request is not None else StepRequest()

        def operation() -> dict:
            session = managed.session
            # Batch sessions report iteration records, streaming sessions
            # the updates of the arrivals they observed.
            key = "updates" if session.mode == "streaming" else "records"
            if request.run:
                result = session.run(max_iterations=request.max_iterations)
                events = (
                    result.stream_updates if key == "updates" else result.trace.records
                )
                self._record_events(managed, len(events))
                return {
                    "id": managed.id,
                    key: [],
                    "completed": True,
                    "result": result_to_dict(result),
                }
            events = session.advance(request.count)
            self._record_events(managed, len(events))
            return {
                "id": managed.id,
                key: [event.to_dict() for event in events],
                "completed": False,
                "summary": self._summary(managed),
            }

        return self._run(managed, operation)

    def stream_claims(
        self, session_id: str, arrivals: Sequence[ClaimArrival]
    ) -> dict:
        """Feed claim arrivals into a streaming session (Alg. 2).

        Applies the same interleaved-validation schedule as
        :meth:`FactCheckSession.run` — a burst of
        ``spec.stream.validation_every`` validations after every that many
        arrivals — so a claim stream delivered over any number of requests
        (and any number of server restarts) produces results bit-for-bit
        identical to one uninterrupted in-process run.
        """
        managed = self._get(session_id)

        def operation() -> dict:
            updates = managed.session.ingest(arrivals)
            self._record_events(managed, len(updates))
            return {
                "id": managed.id,
                "updates": [update.to_dict() for update in updates],
                "summary": self._summary(managed),
            }

        return self._run(managed, operation)

    def record_labels(self, session_id: str, request: LabelsRequest) -> dict:
        """Register external user labels on a session (either mode)."""
        managed = self._get(session_id)

        def operation() -> dict:
            session = managed.session
            for entry in request.labels:
                session.record_label(entry.claim, entry.value)
            self._record_events(managed, len(request.labels))
            return {
                "id": managed.id,
                "labelled": len(request.labels),
                "summary": self._summary(managed),
            }

        return self._run(managed, operation)

    def checkpoint(
        self, session_id: str, path: Optional[Union[str, Path]] = None
    ) -> dict:
        """Checkpoint a session now (to ``path`` or its spool entry)."""
        managed = self._get(session_id)
        target = Path(path) if path is not None else self._spool_path(session_id)
        if target is None:
            raise ServiceError(
                "no checkpoint destination: configure a spool_dir or pass a path"
            )

        def operation() -> dict:
            managed.session.save(target)
            managed.events_since_checkpoint = 0
            return {"id": managed.id, "path": str(target)}

        return self._run(managed, operation)

    # Convenience wrappers used by the HTTP layer -----------------------

    def create_from_payload(self, payload) -> dict:
        """Create a session from a parsed ``POST /sessions`` body."""
        from repro.service.wire import CreateSessionRequest

        request = CreateSessionRequest.from_payload(payload)
        return self.create(request.spec, session_id=request.session_id)

    def stream_claims_from_payload(self, session_id: str, payload) -> dict:
        request = ClaimsRequest.from_payload(payload)
        return self.stream_claims(session_id, request.arrivals)
