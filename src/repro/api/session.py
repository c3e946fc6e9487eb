"""The unified session façade: one lifecycle for batch and streaming runs.

:class:`FactCheckSession` fronts the paper's two workflows — the batch
validation loop (Alg. 1) and streaming claim arrival (Alg. 2) — behind a
single ``open → step/observe → checkpoint → close`` lifecycle driven by a
declarative :class:`~repro.api.specs.SessionSpec`:

* **batch** — :meth:`step` runs one validation iteration; :meth:`run`
  drives the whole loop with correct stop reasons (goal / budget /
  exhausted / early termination).
* **streaming** — :meth:`observe` ingests one claim arrival with online
  EM; :meth:`validate` runs an interleaved validation burst on the current
  snapshot (parameters exchanged both ways, §7); :meth:`run` replays a
  whole arrival sequence with periodic bursts.

Either mode checkpoints with :meth:`save` and resumes with
:meth:`FactCheckSession.load`; a resumed session continues the exact RNG
streams and reproduces the uninterrupted run bit-for-bit.  Claims are
addressed by their stable string identifier everywhere on this surface
(dense indices are accepted too and mapped internally).  :meth:`close`
returns a :class:`SessionResult` — the single result type shared by both
modes.  What differs between the modes lives in one driver per mode
(:mod:`repro.api.drivers`), picked once from ``spec.mode``; :meth:`advance`
drives either mode by a bounded slice of work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count as counter
from typing import Iterable, List, Optional, Union

from repro.codec import JsonRecord
from repro.crf.weights import CrfWeights
from repro.data.database import FactDatabase
from repro.data.state import ClaimState
from repro.errors import CheckpointError, SessionError
from repro.streaming.process import StreamUpdate
from repro.streaming.stream import ClaimArrival
from repro.utils.rng import derive_rng, ensure_rng
from repro.validation.oracle import User
from repro.validation.session import IterationRecord, ValidationTrace

from repro.api import checkpoint as ckpt
from repro.api.drivers import BatchDriver, StreamDriver
from repro.api.specs import SessionSpec

#: The driver of each session mode (see :mod:`repro.api.drivers`).
_DRIVERS = {"batch": BatchDriver, "streaming": StreamDriver}


@dataclass
class SessionResult(JsonRecord):
    """Outcome of one fact-checking session — batch or streaming.

    Attributes:
        mode: ``"batch"`` or ``"streaming"``.
        stop_reason: Why the session ended (``goal`` / ``budget`` /
            ``exhausted`` / ``max_iterations`` / a termination-criterion
            name / ``stream_end`` / ``closed``).
        num_claims: Claims known when the session closed.
        num_labelled: Claims carrying a user label.
        final_precision: True precision of the final grounding when ground
            truth is available, else ``None``.
        validated_claim_ids: Stable identifiers of all validated claims,
            in validation order (the §2.2 validation sequence).
        trace: The unified per-iteration trace; streaming sessions collect
            the records of every interleaved validation burst here.
        stream_updates: Per-arrival online-EM updates (empty for batch).
        weights: Final model parameters W.
    """

    mode: str
    stop_reason: str
    num_claims: int
    num_labelled: int
    final_precision: Optional[float]
    validated_claim_ids: List[str]
    trace: Optional[ValidationTrace]
    stream_updates: List[StreamUpdate] = field(default_factory=list)
    weights: Optional[CrfWeights] = None


class FactCheckSession:
    """Unified entry point for guided fact checking (see module docstring).

    Args:
        spec: Declarative configuration; fully determines the run together
            with the corpus.
        database: The corpus to check (batch mode).  Optional when
            ``spec.dataset`` is set (the session then materialises it).
            Streaming sessions take none — claims arrive through
            :meth:`observe` — and raise :class:`SessionError` if given one.
        user: Validating user.  Defaults to the simulated oracle described
            by ``spec.user``; pass a custom :class:`User` to plug in crowd
            consensus or a real frontend (such sessions cannot be
            checkpointed unless the user implements ``state_dict`` /
            ``load_state_dict``).
    """

    def __init__(
        self,
        spec: SessionSpec,
        database: Optional[FactDatabase] = None,
        user: Optional[User] = None,
    ) -> None:
        if not isinstance(spec, SessionSpec):
            raise SessionError("FactCheckSession needs a SessionSpec")
        self._spec = spec
        self._status = "new"
        self._explicit_user = user
        self._user: Optional[User] = None
        self._result: Optional[SessionResult] = None
        self._driver = _DRIVERS[spec.mode](spec, database)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def spec(self) -> SessionSpec:
        """The declarative configuration of this session."""
        return self._spec

    @property
    def mode(self) -> str:
        """``"batch"`` or ``"streaming"``."""
        return self._spec.mode

    @property
    def status(self) -> str:
        """Lifecycle state: ``new`` / ``open`` / ``closed``."""
        return self._status

    @property
    def database(self) -> FactDatabase:
        """The read-only structure of the corpus (streaming: the snapshot
        over all arrivals), shared with every session on an equal spec."""
        self._require_built()
        return self._driver.database

    @property
    def state(self) -> ClaimState:
        """This session's probabilities and labels over :attr:`database`,
        e.g. ``state.probability(session.claim_index(claim_id))``."""
        self._require_built()
        return self._driver.state

    @property
    def trace(self) -> ValidationTrace:
        """The unified validation trace."""
        self._require_built()
        return self._driver.trace

    @property
    def process(self):
        """The underlying :class:`ValidationProcess` (batch mode only)."""
        self._require_built()
        return self._mode_driver(BatchDriver, "process").process

    @property
    def checker(self):
        """The underlying :class:`StreamingFactChecker` (streaming only)."""
        self._require_built()
        return self._mode_driver(StreamDriver, "checker").checker

    def claim_index(self, claim: Union[str, int]) -> int:
        """Dense index of a claim given by identifier or index."""
        if isinstance(claim, str):
            return self.database.claim_position(claim)
        return int(claim)

    def claim_id(self, claim: Union[str, int]) -> str:
        """Stable identifier of a claim given by identifier or index."""
        if isinstance(claim, str):
            return claim
        return self.database.claim_id(int(claim))

    def current_precision(self) -> Optional[float]:
        """True precision of the current grounding, when truth is known."""
        self._require_built()
        return self._driver.current_precision()

    def progress(self) -> dict:
        """How far the session has come, as counts.

        ``num_claims`` and ``num_labelled`` describe the current corpus
        (zero before a stream's first arrival), ``iterations`` the
        validation iterations so far; streaming sessions add
        ``arrivals``.
        """
        self._require_built()
        return self._driver.progress()

    # ------------------------------------------------------------------
    # Lifecycle: open
    # ------------------------------------------------------------------

    def open(self) -> "FactCheckSession":
        """Build the object graph and (batch) run the initial inference."""
        if self._status == "open":
            return self
        if self._status == "closed":
            raise SessionError("session is closed; create or load a new one")
        self._open(checkpoint=None, path=None)
        return self

    def _open(self, checkpoint: Optional[dict], path) -> None:
        """Build the user and the driver, fresh or from a checkpoint."""
        root = ensure_rng(self._spec.seed)
        self._user = (
            self._explicit_user
            if self._explicit_user is not None
            else self._spec.user.build(seed=derive_rng(root, 0))
        )
        self._driver.open(root, self._user, checkpoint, path)
        self._status = "open"

    def __enter__(self) -> "FactCheckSession":
        return self.open()

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._status == "open":
            self.close()

    # ------------------------------------------------------------------
    # Driving: step (batch); observe, validate, ingest (streaming)
    # ------------------------------------------------------------------

    def step(self) -> IterationRecord:
        """Run one validation iteration (Alg. 1 lines 6–19; batch mode)."""
        self._require_open()
        return self._mode_driver(BatchDriver, "step").process.step()

    def observe(self, arrival: ClaimArrival) -> StreamUpdate:
        """Ingest one claim arrival with online EM (Alg. 2; streaming)."""
        self._require_open()
        return self._mode_driver(StreamDriver, "observe").observe(arrival)

    def validate(self, count: int = 1) -> List[IterationRecord]:
        """Run a validation burst on the current snapshot (streaming).

        A fresh Alg. 1 process is assembled over the snapshot database
        with the online model's parameters (Alg. 2 line 7), up to
        ``count`` claims are validated, the labels are registered with the
        online model by claim id, and the refined parameters are handed
        back (Alg. 2 line 10).
        """
        self._require_open()
        driver = self._mode_driver(StreamDriver, "validate")
        if count < 1:
            raise SessionError("validate count must be at least 1")
        return driver.validate(count)

    def ingest(
        self,
        arrivals: Iterable[ClaimArrival],
        on_update=None,
        after_arrival=None,
    ) -> List[StreamUpdate]:
        """Observe a sequence of arrivals with the spec's interleave schedule.

        The canonical streaming loop shared by :meth:`run` and the service
        layer: each arrival is observed, and a validation burst of
        ``spec.stream.validation_every`` claims is interleaved after every
        that many arrivals (Alg. 2 with §7 parameter exchange).  A stream
        delivered across any number of ``ingest`` calls behaves exactly
        like one uninterrupted call.

        Args:
            arrivals: The claim arrivals to observe, in order.
            on_update: Callable invoked with each :class:`StreamUpdate` as
                it is produced (before any interleaved validation).
            after_arrival: Callable invoked after the arrival is fully
                processed — interleaved validation included — which is the
                consistent point for periodic checkpoints.
        """
        self._require_open()
        driver = self._mode_driver(StreamDriver, "ingest")
        every = self._spec.stream.validation_every
        updates: List[StreamUpdate] = []
        for arrival in arrivals:
            update = driver.observe(arrival)
            updates.append(update)
            if on_update is not None:
                on_update(update)
            if every is not None and driver.since_validation >= every:
                self.validate(every)
            if after_arrival is not None:
                after_arrival(update)
        return updates

    def ingest_from_source(
        self,
        count: Optional[int] = None,
        on_update=None,
        after_arrival=None,
    ) -> List[StreamUpdate]:
        """Observe the next arrivals of the spec's declared stream source.

        The session tracks its position on the replayable stream declared
        by ``spec.stream.source`` (a
        :class:`~repro.api.specs.StreamSourceSpec`) and resumes from
        wherever the previous call — or a restored checkpoint — left off.

        Args:
            count: How many arrivals to observe; ``None`` consumes the
                stream to its end.
            on_update: As in :meth:`ingest`.
            after_arrival: As in :meth:`ingest`.

        Raises:
            SessionError: When the spec declares no stream source, when
                ``count`` is not positive, or when the session already
                observed arrivals from outside the source (the stream
                position would no longer describe the session's state).
        """
        self._require_open()
        driver = self._mode_driver(StreamDriver, "ingest_from_source")
        with driver.source_arrivals(count) as arrivals:
            return self.ingest(
                arrivals, on_update=on_update, after_arrival=after_arrival
            )

    def record_label(self, claim: Union[str, int], value: int) -> None:
        """Register external user input for a claim (id or index)."""
        self._require_open()
        self._driver.label(claim, value)

    def advance(self, count: int = 1) -> list:
        """Advance an open session by a bounded slice of work; it stays open.

        Batch sessions run up to ``count`` iterations of the Alg. 1 loop,
        stopping early exactly where :meth:`run` would (running out of
        ``count`` leaves the trace unfinished), and return the new
        :class:`IterationRecord` objects.  Streaming sessions observe the
        next ``count`` arrivals of ``spec.stream.source`` and return their
        :class:`StreamUpdate` objects (:meth:`ingest_from_source`).
        """
        self._require_open()
        if count < 1:
            raise SessionError("advance count must be at least 1")
        return self._driver.advance(self, count)

    def run(
        self,
        arrivals: Optional[Iterable[ClaimArrival]] = None,
        max_iterations: Optional[int] = None,
        on_iteration=None,
        checkpoint_every: Optional[int] = None,
        checkpoint_path=None,
    ) -> SessionResult:
        """Drive the session to completion and close it.

        Batch mode runs Alg. 1 until goal, budget, exhaustion, or early
        termination — the stop reason is always recorded on the trace.
        Streaming mode consumes ``arrivals``, interleaving a validation
        burst after every ``spec.stream.validation_every`` arrivals.

        Args:
            arrivals: The claim stream.  Streaming sessions whose spec
                declares a ``stream.source`` may omit it — the remaining
                arrivals are then replayed from the source; otherwise it
                is required in streaming mode.
            max_iterations: Batch-mode cap on total trace iterations.
            on_iteration: Callable invoked with every
                :class:`IterationRecord` (batch) or :class:`StreamUpdate`
                (streaming) as it is produced.
            checkpoint_every: Auto-checkpoint the session after every N
                iterations (batch) or arrivals (streaming), and once more
                when the run finishes.  Checkpoints are taken at points
                where the full mutable state reflects the work done, so
                :meth:`load` + :meth:`run` from any of them reproduces the
                uninterrupted run bit-for-bit.
            checkpoint_path: Where auto-checkpoints are written (required
                with ``checkpoint_every``; ``.gz`` paths are compressed).
        """
        if checkpoint_every is not None and checkpoint_every < 1:
            raise SessionError("checkpoint_every must be at least 1 (or None)")
        if checkpoint_every is not None and checkpoint_path is None:
            raise SessionError("checkpoint_every needs a checkpoint_path")
        if self._status == "new":
            self.open()
        self._require_open()
        after_event = None
        if checkpoint_every is not None:
            completed = counter(1)

            def after_event(_event) -> None:
                # The one point after each iteration or arrival at which
                # the whole mutable state reflects it.
                if next(completed) % checkpoint_every == 0:
                    self.save(checkpoint_path)

        self._driver.run(self, arrivals, max_iterations, on_iteration, after_event)
        if checkpoint_every is not None:
            self.save(checkpoint_path)
        return self.close()

    # ------------------------------------------------------------------
    # Lifecycle: close
    # ------------------------------------------------------------------

    def close(self) -> SessionResult:
        """Finalise the session and return the unified result.

        The session stays readable.
        """
        if self._status == "closed":
            assert self._result is not None
            return self._result
        self._require_open()
        self._result = SessionResult(
            mode=self.mode, **self._driver.result_fields(closing=True)
        )
        self._status = "closed"
        return self._result

    def result(self) -> SessionResult:
        """The session result (closing the session if still open)."""
        return self.close()

    def result_snapshot(self) -> SessionResult:
        """A result describing the state *so far*, without closing.

        Safe to call repeatedly on an open session (the service layer
        serves ``GET .../result`` from it): nothing is mutated, stepping
        and observing continue afterwards, and an open session that has
        not reached a stop condition honestly reports
        ``stop_reason="unfinished"`` in either mode.  On a closed session
        this is simply the final result.
        """
        self._require_built()
        if self._status == "closed":
            return self.close()
        fields = self._driver.result_fields(closing=False)
        return SessionResult(mode=self.mode, **fields)

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------

    def save(self, path, compress: Optional[bool] = None) -> None:
        """Write a checkpoint from which :meth:`load` resumes bit-for-bit.

        Available while the session is open *or* closed (a checkpoint of a
        finished run restores its final state); loading always yields an
        open session.

        The document holds the format headers, the *structure origin* and
        the mutable ``state``.  A corpus materialised from ``spec.dataset``
        is stored as a fingerprint, and :meth:`load` regenerates it; a
        stream read only from ``spec.stream.source`` is stored as a
        fingerprint plus its position, and :meth:`load` replays it.  Any
        other corpus or stream is embedded.

        Args:
            path: Destination file; a ``.gz`` suffix (e.g. ``.json.gz``)
                gzip-compresses the document.
            compress: Force compression on or off regardless of the suffix.
        """
        self._require_built()
        if not hasattr(self._user, "state_dict"):
            raise CheckpointError(
                "cannot checkpoint a session with a custom user that lacks "
                "state_dict/load_state_dict"
            )
        payload = {
            "format": ckpt.CHECKPOINT_FORMAT,
            "version": ckpt.CHECKPOINT_VERSION,
            "mode": self.mode,
            "user_type": type(self._user).__name__,
            "spec": self._spec.to_dict(),
            **self._driver.origin(),
            "state": self._driver.state_dict(),
        }
        ckpt.write_checkpoint(path, payload, compress=compress)

    @classmethod
    def load(
        cls,
        path,
        database: Optional[FactDatabase] = None,
        user: Optional[User] = None,
    ) -> "FactCheckSession":
        """Resume a session from a :meth:`save` checkpoint.

        The object graph is rebuilt from the stored spec, the saved state
        is overlaid (labels, probabilities, weights, Gibbs chain, RNG
        streams, trace), and the returned session is ``open`` — stepping,
        observing, or running it continues exactly where the saved session
        left off.

        Args:
            path: Checkpoint file written by :meth:`save`.
            database: Optional replacement corpus for a batch checkpoint
                (must match the stored structure); by default the corpus
                embedded in, or regenerated for, the checkpoint is used.
                Streaming checkpoints take none.
            user: Optional custom user; defaults to rebuilding (and
                restoring) the spec's simulated user.
        """
        payload = ckpt.read_checkpoint(path)
        spec = SessionSpec.from_dict(ckpt.checkpoint_spec(payload))
        saved_user_type = payload.get("user_type", "SimulatedUser")
        if user is not None:
            if type(user).__name__ != saved_user_type:
                raise CheckpointError(
                    f"checkpoint was saved with a {saved_user_type} user, "
                    f"got {type(user).__name__}"
                )
        elif saved_user_type != "SimulatedUser":
            raise CheckpointError(
                f"checkpoint was saved with a custom {saved_user_type} user; "
                f"pass user= to load()"
            )
        session = cls(spec, database=database, user=user)
        session._open(checkpoint=payload, path=path)
        return session

    # ------------------------------------------------------------------
    # Guards
    # ------------------------------------------------------------------

    def _require_open(self) -> None:
        if self._status != "open":
            raise SessionError(
                f"session is {self._status}; call open() first"
                if self._status == "new"
                else "session is closed"
            )

    def _require_built(self) -> None:
        if self._status == "new":
            raise SessionError("session is new; call open() first")

    def _mode_driver(self, driver_type: type, operation: str):
        """This session's driver, if ``operation`` belongs to its mode."""
        if not isinstance(self._driver, driver_type):
            raise SessionError(
                f"{operation}() is only available in {driver_type.MODE} mode "
                f"(this session is {self.mode!r})"
            )
        return self._driver
