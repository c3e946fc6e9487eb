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
modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, List, Optional, Union

import numpy as np

from repro.codec import JsonRecord
from repro.crf.weights import CrfWeights
from repro.data.database import FactDatabase
from repro.data.grounding import Grounding
from repro.errors import CheckpointError, SessionError, SpecError
from repro.inference.icrf import ICrf
from repro.streaming.process import StreamingFactChecker, StreamUpdate
from repro.streaming.stream import ClaimArrival
from repro.utils.rng import derive_rng, ensure_rng, rng_state, set_rng_state
from repro.validation.oracle import User
from repro.validation.process import ValidationProcess
from repro.validation.session import IterationRecord, ValidationTrace

from repro.api import checkpoint as ckpt
from repro.api.specs import SessionSpec


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
        database: The corpus to check.  Optional when ``spec.dataset`` is
            set (the session then materialises it); ignored in streaming
            mode, where claims arrive through :meth:`observe`.
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
        self._explicit_database = database
        self._database_generated = False
        self._explicit_user = user
        self._user: Optional[User] = None
        self._result: Optional[SessionResult] = None
        # Batch internals.
        self._process = None
        # Streaming internals.
        self._checker = None
        self._rng: Optional[np.random.Generator] = None
        self._updates: List[StreamUpdate] = []
        self._records: List[IterationRecord] = []
        self._validated: List[str] = []
        self._since_validation = 0
        # Whether any arrival came from outside the declared stream
        # source; such sessions cannot use compact (replayable)
        # checkpoints because the source cannot regenerate the entities.
        self._external_arrivals = False
        self._replaying_source = False

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
        """The current corpus (streaming: the snapshot over all arrivals)."""
        self._require_built()
        if self.mode == "batch":
            return self._process.database
        return self._checker.database

    @property
    def trace(self) -> ValidationTrace:
        """The unified validation trace."""
        self._require_built()
        if self.mode == "batch":
            return self._process.trace
        return self._streaming_trace()

    @property
    def process(self):
        """The underlying :class:`ValidationProcess` (batch mode only)."""
        self._require_built()
        self._require_mode("batch", "process")
        return self._process

    @property
    def checker(self):
        """The underlying :class:`StreamingFactChecker` (streaming only)."""
        self._require_built()
        self._require_mode("streaming", "checker")
        return self._checker

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
        if self.mode == "batch":
            return self._process.current_precision()
        return self._streaming_precision()

    # ------------------------------------------------------------------
    # Lifecycle: open
    # ------------------------------------------------------------------

    def open(self) -> "FactCheckSession":
        """Build the object graph and (batch) run the initial inference."""
        if self._status == "open":
            return self
        if self._status == "closed":
            raise SessionError("session is closed; create or load a new one")
        self._build(resume=None)
        self._status = "open"
        return self

    def _build(self, resume: Optional[dict]) -> None:
        spec = self._spec
        root = ensure_rng(spec.seed)
        if spec.mode == "batch":
            database = resolve_database(spec, self._explicit_database)
            self._database_generated = (
                self._explicit_database is None and spec.dataset is not None
            )
            self._user = (
                self._explicit_user
                if self._explicit_user is not None
                else spec.user.build(seed=derive_rng(root, 0))
            )
            icrf = ICrf(database, spec.inference, seed=derive_rng(root, 1))
            self._process = ValidationProcess(
                database, spec, user=self._user, icrf=icrf, seed=derive_rng(root, 2)
            )
            if resume is None:
                self._process.initialize()
            else:
                self._process.load_state_dict(resume["process"])
                self._validated = list(resume.get("validated", []))
        else:
            self._rng = root
            self._user = (
                self._explicit_user
                if self._explicit_user is not None
                else spec.user.build(seed=derive_rng(root, 0))
            )
            self._checker = StreamingFactChecker(spec, seed=derive_rng(root, 1))
            if resume is not None:
                if "stream_position" in resume:
                    # Compact checkpoint: regenerate the entity sets by
                    # replaying the declared source, then overlay the
                    # saved mutable state.
                    source = spec.stream.source
                    if source is None:
                        raise CheckpointError(
                            "checkpoint stores a stream position but the "
                            "spec declares no stream source; the streamed "
                            "entities cannot be regenerated"
                        )
                    position = int(resume["stream_position"])
                    replayed = self._checker.replay_structure(
                        islice(source.arrivals(), position)
                    )
                    if replayed != position:
                        raise CheckpointError(
                            f"stream source yielded only {replayed} of the "
                            f"{position} arrivals recorded in the checkpoint "
                            f"(was the source's dataset changed?)"
                        )
                    self._checker.load_mutable_state(resume["checker"])
                else:
                    self._checker.load_state_dict(resume["checker"])
                    if spec.stream.source is not None:
                        # Entities were embedded despite a declared
                        # source: arrivals came from outside it, so the
                        # resumed session must not trust the position.
                        self._external_arrivals = True
                set_rng_state(self._rng, resume["session_rng"])
                if resume.get("user") is not None and hasattr(
                    self._user, "load_state_dict"
                ):
                    self._user.load_state_dict(resume["user"])
                self._updates = [
                    StreamUpdate.from_dict(entry) for entry in resume["updates"]
                ]
                self._records = [
                    IterationRecord.from_dict(entry) for entry in resume["records"]
                ]
                self._validated = list(resume["validated"])
                self._since_validation = int(resume["since_validation"])

    def __enter__(self) -> "FactCheckSession":
        return self.open()

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._status == "open":
            self.close()

    # ------------------------------------------------------------------
    # Batch stepping
    # ------------------------------------------------------------------

    def step(self) -> IterationRecord:
        """Run one validation iteration (Alg. 1 lines 6–19; batch mode)."""
        self._require_open()
        self._require_mode("batch", "step")
        return self._process.step()

    # ------------------------------------------------------------------
    # Streaming: observe and interleaved validation
    # ------------------------------------------------------------------

    def observe(self, arrival: ClaimArrival) -> StreamUpdate:
        """Ingest one claim arrival with online EM (Alg. 2; streaming)."""
        self._require_open()
        self._require_mode("streaming", "observe")
        update = self._checker.observe(arrival)
        if not self._replaying_source:
            self._external_arrivals = True
        self._updates.append(update)
        self._since_validation += 1
        return update

    def validate(self, count: int = 1) -> List[IterationRecord]:
        """Run a validation burst on the current snapshot (streaming).

        A fresh Alg. 1 process is assembled over the snapshot database
        with the online model's parameters (Alg. 2 line 7), up to
        ``count`` claims are validated, the labels are registered with the
        online model by claim id, and the refined parameters are handed
        back (Alg. 2 line 10).
        """
        self._require_open()
        self._require_mode("streaming", "validate")
        if count < 1:
            raise SessionError("validate count must be at least 1")
        snapshot = self._checker.database
        records: List[IterationRecord] = []
        if snapshot.unlabelled_indices.size == 0:
            return records
        icrf = ICrf(snapshot, self._spec.inference, seed=derive_rng(self._rng, 0))
        weights = self._checker.weights
        if weights is not None:
            icrf.set_weights(weights)
        process = ValidationProcess(
            snapshot,
            self._spec,
            user=self._user,
            icrf=icrf,
            seed=derive_rng(self._rng, 1),
        )
        process.initialize()
        for _ in range(count):
            if snapshot.unlabelled_indices.size == 0:
                break
            if process.goal.satisfied(process):
                break
            record = process.step()
            for claim_id, value in zip(record.claim_ids, record.user_values):
                self._checker.record_label(claim_id, value)
                self._validated.append(claim_id)
            self._records.append(record)
            records.append(record)
        self._checker.receive_weights(icrf.weights)
        self._since_validation = 0
        return records

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
        self._require_mode("streaming", "ingest")
        every = self._spec.stream.validation_every
        updates: List[StreamUpdate] = []
        for arrival in arrivals:
            update = self.observe(arrival)
            updates.append(update)
            if on_update is not None:
                on_update(update)
            if every is not None and self._since_validation >= every:
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
        Sessions driven exclusively through this method checkpoint in the
        compact form: :meth:`save` stores the stream fingerprint and
        position instead of embedding every streamed entity.

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
        self._require_mode("streaming", "ingest_from_source")
        source = self._spec.stream.source
        if source is None:
            raise SessionError(
                "ingest_from_source needs spec.stream.source (a "
                "StreamSourceSpec declaring the replayable stream)"
            )
        if count is not None and count < 1:
            raise SessionError("ingest_from_source count must be at least 1")
        if self._external_arrivals:
            raise SessionError(
                "this session observed arrivals outside its declared "
                "stream source; the stream position is meaningless — "
                "keep driving it with observe()/ingest()"
            )
        skip = self._checker.arrivals
        stop = None if count is None else skip + count
        arrivals = islice(source.arrivals(), skip, stop)
        self._replaying_source = True
        try:
            return self.ingest(
                arrivals, on_update=on_update, after_arrival=after_arrival
            )
        finally:
            self._replaying_source = False

    def record_label(self, claim: Union[str, int], value: int) -> None:
        """Register external user input for a claim (id or index)."""
        self._require_open()
        if self.mode == "streaming":
            claim_id = self.claim_id(claim)
            self._checker.record_label(claim_id, value)
            self._validated.append(claim_id)
        else:
            index = self.claim_index(claim)
            self._process.database.label(index, value)
            self._validated.append(self._process.database.claim_id(index))

    # ------------------------------------------------------------------
    # Full runs
    # ------------------------------------------------------------------

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
        if self.mode == "batch":
            if arrivals is not None:
                raise SessionError("batch sessions take no arrivals; use mode='streaming'")
            after_iteration = None
            if checkpoint_every is not None:
                completed = [0]

                def after_iteration(record) -> None:
                    completed[0] += 1
                    if completed[0] % checkpoint_every == 0:
                        self.save(checkpoint_path)

            self._process.run(
                max_iterations=max_iterations,
                on_iteration=on_iteration,
                after_iteration=after_iteration,
            )
        else:
            if arrivals is None and self._spec.stream.source is None:
                raise SessionError(
                    "streaming sessions need an arrival iterable (or a "
                    "spec.stream.source to replay)"
                )
            after_arrival = None
            if checkpoint_every is not None:
                observed = [0]

                def after_arrival(update) -> None:
                    observed[0] += 1
                    if observed[0] % checkpoint_every == 0:
                        self.save(checkpoint_path)

            if arrivals is None:
                self.ingest_from_source(
                    on_update=on_iteration, after_arrival=after_arrival
                )
            else:
                self.ingest(
                    arrivals, on_update=on_iteration, after_arrival=after_arrival
                )
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
        self._result = self._build_result()
        self._status = "closed"
        return self._result

    def result(self) -> SessionResult:
        """The session result (closing the session if still open)."""
        if self._status == "closed":
            assert self._result is not None
            return self._result
        return self.close()

    def result_snapshot(self) -> SessionResult:
        """A result describing the state *so far*, without closing.

        Safe to call repeatedly on an open session (the service layer
        serves ``GET .../result`` from it): nothing is mutated, stepping
        and observing continue afterwards, and an open mid-run batch
        session honestly reports ``stop_reason="unfinished"``.  On a
        closed session this is simply the final result.
        """
        self._require_built()
        if self._status == "closed":
            assert self._result is not None
            return self._result
        return self._build_result(closing=False)

    def _build_result(self, closing: bool = True) -> SessionResult:
        if self.mode == "batch":
            process = self._process
            trace = process.trace
            if closing:
                if trace.stop_reason == "unfinished":
                    trace.stop_reason = "closed"
                if trace.final_grounding is None and process._grounding is not None:
                    trace.final_grounding = process._grounding
            else:
                # Snapshot: same content, but leave the live trace
                # untouched so the session can keep running.
                trace = ValidationTrace(
                    num_claims=trace.num_claims,
                    initial_precision=trace.initial_precision,
                    initial_entropy=trace.initial_entropy,
                    records=list(trace.records),
                    final_grounding=(
                        trace.final_grounding
                        if trace.final_grounding is not None
                        else process._grounding
                    ),
                    stop_reason=trace.stop_reason,
                )
            # Iteration-validated claims first, then labels registered
            # externally through record_label().
            validated = [
                claim_id
                for record in trace.records
                for claim_id in record.claim_ids
            ] + list(self._validated)
            return SessionResult(
                mode="batch",
                stop_reason=trace.stop_reason,
                num_claims=process.database.num_claims,
                num_labelled=process.database.num_labelled,
                final_precision=process.current_precision(),
                validated_claim_ids=validated,
                trace=trace,
                stream_updates=[],
                weights=process.icrf.weights.copy(),
            )
        trace = self._streaming_trace()
        if self._updates:
            trace.stop_reason = "stream_end"
        else:
            trace.stop_reason = "closed" if closing else "unfinished"
        weights = self._checker.weights
        num_claims = 0
        num_labelled = 0
        if self._updates:
            database = self._checker.database
            num_claims = database.num_claims
            num_labelled = database.num_labelled
        return SessionResult(
            mode="streaming",
            stop_reason=trace.stop_reason,
            num_claims=num_claims,
            num_labelled=num_labelled,
            final_precision=self._streaming_precision(),
            validated_claim_ids=list(self._validated),
            trace=trace,
            stream_updates=list(self._updates),
            weights=weights,
        )

    def _streaming_trace(self) -> ValidationTrace:
        num_claims = 0
        if self._checker is not None and self._updates:
            num_claims = self._checker.database.num_claims
        return ValidationTrace(
            num_claims=max(num_claims, 1),
            initial_precision=None,
            initial_entropy=0.0,
            records=list(self._records),
        )

    def _streaming_precision(self) -> Optional[float]:
        if not self._updates:
            return None
        database = self._checker.database
        try:
            truth = database.truth_vector()
        except Exception:
            return None
        grounding = Grounding.from_probabilities(database.probabilities)
        return grounding.precision(truth)

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------

    def save(self, path, compress: Optional[bool] = None) -> None:
        """Write a checkpoint from which :meth:`load` resumes bit-for-bit.

        Available while the session is open *or* closed (a checkpoint of a
        finished run restores its final state); loading always yields an
        open session.

        Batch sessions whose corpus was materialised from
        ``spec.dataset`` store only a structural fingerprint instead of
        re-embedding the corpus — :meth:`load` regenerates it from the spec
        (corpus generation is deterministic) and verifies the fingerprint.
        Streaming sessions driven exclusively from ``spec.stream.source``
        compact the same way: the checkpoint stores the stream position
        and a fingerprint, and :meth:`load` replays the source's first
        ``stream_position`` arrivals instead of embedding every entity.

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
        }
        if self.mode == "batch":
            from repro.datasets.io import database_to_dict

            if self._database_generated:
                payload["database_fingerprint"] = ckpt.database_fingerprint(
                    self._process.database
                )
            else:
                payload["database"] = database_to_dict(self._process.database)
            payload["state"] = {
                "process": self._process.state_dict(),
                "validated": list(self._validated),
            }
        else:
            if (
                self._spec.stream.source is not None
                and not self._external_arrivals
            ):
                # Compact form: every entity came from the declared
                # replayable source, so store only the checker's mutable
                # state plus the stream position and a fingerprint — load
                # replays the first `stream_position` arrivals and
                # verifies the fingerprint.
                payload["stream_fingerprint"] = ckpt.stream_fingerprint(
                    self._checker
                )
                checker_state = self._checker.mutable_state_dict()
                stream_position = self._checker.arrivals
            else:
                checker_state = self._checker.state_dict()
                stream_position = None
            payload["state"] = {
                "checker": checker_state,
                "session_rng": rng_state(self._rng),
                "user": (
                    self._user.state_dict()
                    if hasattr(self._user, "state_dict")
                    else None
                ),
                "updates": [update.to_dict() for update in self._updates],
                "records": [record.to_dict() for record in self._records],
                "validated": list(self._validated),
                "since_validation": self._since_validation,
            }
            if stream_position is not None:
                payload["state"]["stream_position"] = stream_position
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
            database: Optional replacement corpus (must match the stored
                structure); by default the corpus embedded in the
                checkpoint is used.
            user: Optional custom user; defaults to rebuilding (and
                restoring) the spec's simulated user.
        """
        payload = ckpt.read_checkpoint(path)
        spec = SessionSpec.from_dict(ckpt.checkpoint_spec(payload))
        if spec.mode != payload.get("mode"):
            raise CheckpointError("checkpoint mode does not match its spec")
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
        if spec.mode == "batch":
            from repro.datasets.io import database_from_dict

            regenerated = False
            if database is not None:
                corpus = database
            elif "database" in payload:
                corpus = database_from_dict(payload["database"])
            else:
                # Compact checkpoint: the corpus was not embedded because
                # the spec regenerates it deterministically.
                if spec.dataset is None:
                    raise CheckpointError(
                        f"{path} embeds no corpus and its spec has no "
                        f"dataset; pass database= to load()"
                    )
                corpus = spec.dataset.load()
                regenerated = True
            fingerprint = payload.get("database_fingerprint")
            if fingerprint is not None:
                ckpt.verify_fingerprint(corpus, fingerprint, path)
            session = cls(spec, database=corpus, user=user)
            session._build(resume=payload["state"])
            session._database_generated = regenerated
        else:
            session = cls(spec, user=user)
            session._build(resume=payload["state"])
            fingerprint = payload.get("stream_fingerprint")
            if fingerprint is not None:
                ckpt.verify_stream_fingerprint(
                    session._checker, fingerprint, path
                )
        session._status = "open"
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

    def _require_mode(self, mode: str, operation: str) -> None:
        if self.mode != mode:
            raise SessionError(
                f"{operation}() is only available in {mode} mode "
                f"(this session is {self.mode!r})"
            )


def resolve_database(
    spec: SessionSpec, database: Optional[FactDatabase]
) -> FactDatabase:
    """The corpus a session runs on: explicit object or ``spec.dataset``."""
    if database is not None:
        return database
    if spec.dataset is None:
        raise SpecError(
            "no corpus: pass a FactDatabase to the session or set "
            "SessionSpec.dataset"
        )
    return spec.dataset.load()
