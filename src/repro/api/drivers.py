"""The two mode drivers behind :class:`~repro.api.session.FactCheckSession`.

The session owns the lifecycle and the checkpoint framing, and picks one
driver from ``spec.mode``.  :class:`BatchDriver` runs the validation loop
(Alg. 1) over a fixed corpus; :class:`StreamDriver` runs claim arrival
with online EM and interleaved validation bursts (Alg. 2, §7).  Both
answer one protocol: ``open``, ``advance``, ``run``, ``label``,
``origin`` (the checkpoint's structure origin), ``state_dict`` /
``load_state_dict`` (its mutable state), ``progress`` and
``result_fields``.  Callers use the session, never a driver.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from typing import List, Optional, Union

from repro.data.database import FactDatabase
from repro.data.grounding import Grounding
from repro.data.state import ClaimState
from repro.datasets import Corpus
from repro.datasets import io as dataset_io
from repro.errors import CheckpointError, DataModelError, SessionError, SpecError
from repro.inference.icrf import ICrf
from repro.streaming.process import StreamingFactChecker, StreamUpdate
from repro.streaming.stream import ClaimArrival
from repro.utils.rng import derive_rng, rng_state, set_rng_state
from repro.validation.oracle import User
from repro.validation.process import ValidationProcess
from repro.validation.session import IterationRecord, ValidationTrace

from repro.api import checkpoint as ckpt
from repro.api.specs import SessionSpec


class BatchDriver:
    """Alg. 1 over one corpus: an explicit database or ``spec.dataset``."""

    MODE = "batch"

    #: Not checkpointed (lint rule STATE001): the spec and the explicit
    #: corpus are construction inputs, and ``_dataset_corpus`` is the
    #: structure origin, which the checkpoint carries outside ``state``.
    _STATE_EXCLUDED = ("_spec", "_database", "_dataset_corpus")

    def __init__(self, spec: SessionSpec, database: Optional[FactDatabase]) -> None:
        self._spec = spec
        self._database = database
        # The corpus materialised from spec.dataset, if any: checkpoints
        # then store its fingerprint instead of embedding it, and holding
        # it keeps it shared with other sessions on the same spec.
        self._dataset_corpus: Optional[Corpus] = None
        self.process: Optional[ValidationProcess] = None
        # Claims labelled through label(), in order (iteration-validated
        # claims live on the trace).
        self._validated: List[str] = []

    def open(self, root, user: User, checkpoint: Optional[dict], path) -> None:
        database = self._corpus(checkpoint, path)
        icrf = ICrf(database, self._spec.inference, seed=derive_rng(root, 1))
        self.process = ValidationProcess(
            database, self._spec, user=user, icrf=icrf, seed=derive_rng(root, 2)
        )
        if checkpoint is None:
            self.process.initialize()
        else:
            self.load_state_dict(checkpoint["state"])

    def _corpus(self, checkpoint: Optional[dict], path) -> FactDatabase:
        """The explicit corpus, the embedded one, or one generated anew."""
        if self._database is not None:
            corpus = self._database
        elif checkpoint is not None and "database" in checkpoint:
            corpus = dataset_io.database_from_dict(checkpoint["database"])
        elif self._spec.dataset is not None:
            self._dataset_corpus = self._spec.dataset.corpus()
            corpus = self._dataset_corpus.database()
        elif checkpoint is None:
            raise SpecError(
                "no corpus: pass a FactDatabase to the session or set "
                "SessionSpec.dataset"
            )
        else:
            raise CheckpointError(
                f"{path} embeds no corpus and its spec has no dataset; "
                f"pass database= to load()"
            )
        fingerprint = (checkpoint or {}).get("database_fingerprint")
        if fingerprint is not None:
            actual = ckpt.database_fingerprint(corpus)
            ckpt.verify_fingerprint(actual, fingerprint, path, "corpus")
        return corpus

    # -- queries -------------------------------------------------------

    @property
    def database(self) -> FactDatabase:
        return self.process.database

    @property
    def trace(self) -> ValidationTrace:
        return self.process.trace

    def current_precision(self) -> Optional[float]:
        return self.process.current_precision()

    @property
    def state(self) -> ClaimState:
        return self.process.state

    def progress(self) -> dict:
        return {
            "num_claims": self.process.database.num_claims,
            "num_labelled": self.process.state.num_labelled,
            "iterations": self.process.trace.iterations,
        }

    # -- driving -------------------------------------------------------

    def advance(self, session, count: int) -> List[IterationRecord]:
        # The canonical Alg. 1 loop for a bounded slice: stop reasons and
        # termination-criterion state behave as in an uninterrupted run,
        # but merely running out of `count` leaves the trace unfinished.
        trace = self.process.trace
        before = trace.iterations
        self.process.run(max_iterations=before + count, cap_stop_reason=None)
        return trace.records[before:]

    def run(self, session, arrivals, max_iterations, on_event, after_event) -> None:
        if arrivals is not None:
            raise SessionError("batch sessions take no arrivals; use mode='streaming'")
        self.process.run(
            max_iterations=max_iterations,
            on_iteration=on_event,
            after_iteration=after_event,
        )

    def label(self, claim: Union[str, int], value: int) -> None:
        database = self.process.database
        index = database.claim_position(claim) if isinstance(claim, str) else int(claim)
        self.process.state.label(index, value)
        self._validated.append(database.claim_id(index))

    # -- checkpoint and result -----------------------------------------

    def origin(self) -> dict:
        if self._dataset_corpus is not None:
            return {
                "database_fingerprint": ckpt.database_fingerprint(self.process.database)
            }
        return {"database": dataset_io.database_to_dict(self.process.database)}

    def state_dict(self) -> dict:
        return {
            "process": self.process.state_dict(),
            "validated": list(self._validated),
        }

    def load_state_dict(self, state: dict) -> None:
        self.process.load_state_dict(state["process"])
        self._validated = list(state.get("validated", []))

    def result_fields(self, closing: bool) -> dict:
        process = self.process
        trace = process.trace
        grounding = (
            trace.final_grounding
            if trace.final_grounding is not None
            else process.grounding
        )
        if closing:
            if trace.stop_reason == "unfinished":
                trace.stop_reason = "closed"
            trace.final_grounding = grounding
        else:
            # A copy: the live trace stays untouched so the session can
            # keep running.
            trace = replace(
                trace, records=list(trace.records), final_grounding=grounding
            )
        return dict(
            stop_reason=trace.stop_reason,
            num_claims=process.database.num_claims,
            num_labelled=process.state.num_labelled,
            final_precision=process.current_precision(),
            # Iteration-validated claims first, then external labels.
            validated_claim_ids=[
                claim_id for record in trace.records for claim_id in record.claim_ids
            ]
            + list(self._validated),
            trace=trace,
            stream_updates=[],
            weights=process.icrf.weights.copy(),
        )


class StreamDriver:
    """Alg. 2: online EM per arrival, with interleaved validation bursts."""

    MODE = "streaming"

    #: Not checkpointed (lint rule STATE001): the spec is configuration,
    #: ``_source_corpus`` is regenerated from it, and ``replaying_source``
    #: is only ever set inside one ``source_arrivals`` block.
    _STATE_EXCLUDED = ("_spec", "_source_corpus", "replaying_source")

    def __init__(self, spec: SessionSpec, database: Optional[FactDatabase]) -> None:
        if database is not None:
            raise SessionError(
                "streaming sessions take no database: claims arrive through "
                "observe()/ingest() or from spec.stream.source"
            )
        self._spec = spec
        self.checker: Optional[StreamingFactChecker] = None
        self._rng = None
        self._user: Optional[User] = None
        self._updates: List[StreamUpdate] = []
        self._records: List[IterationRecord] = []
        self._validated: List[str] = []
        self.since_validation = 0
        # Whether any arrival came from outside the declared stream
        # source; such sessions cannot use compact (replayable)
        # checkpoints because the source cannot regenerate the entities.
        self.external_arrivals = False
        self.replaying_source = False
        # The corpus of spec.stream.source, held from its first use so
        # every request slices one arrival sequence.
        self._source_corpus: Optional[Corpus] = None
        # Why the session finished, once it has closed; None while open.
        self._stop_reason: Optional[str] = None

    def open(self, root, user: User, checkpoint: Optional[dict], path) -> None:
        self._rng = root
        self._user = user
        self.checker = StreamingFactChecker(self._spec, seed=derive_rng(root, 1))
        if checkpoint is not None:
            self.load_state_dict(checkpoint["state"])
            fingerprint = checkpoint.get("stream_fingerprint")
            if fingerprint is not None:
                actual = ckpt.stream_fingerprint(self.checker)
                ckpt.verify_fingerprint(actual, fingerprint, path, "stream")

    # -- queries -------------------------------------------------------

    def _snapshot(self) -> Optional[FactDatabase]:
        """The snapshot database, or ``None`` before the first arrival."""
        return self.checker.database if self._updates else None

    @property
    def database(self) -> FactDatabase:
        return self.checker.database

    @property
    def state(self) -> ClaimState:
        return self.checker.state

    @property
    def trace(self) -> ValidationTrace:
        snapshot = self._snapshot()
        return ValidationTrace(
            num_claims=max(snapshot.num_claims if snapshot else 0, 1),
            initial_precision=None,
            initial_entropy=0.0,
            records=list(self._records),
        )

    def current_precision(self) -> Optional[float]:
        snapshot = self._snapshot()
        if snapshot is None:
            return None
        try:
            truth = snapshot.truth_vector()
        except DataModelError:
            return None
        probabilities = self.checker.state.probabilities
        return Grounding.from_probabilities(probabilities).precision(truth)

    def _num_labelled(self) -> int:
        return self.checker.state.num_labelled if self._updates else 0

    def progress(self) -> dict:
        snapshot = self._snapshot()
        return {
            "num_claims": snapshot.num_claims if snapshot else 0,
            "num_labelled": self._num_labelled(),
            "arrivals": len(self._updates),
            "iterations": len(self._records),
        }

    # -- driving -------------------------------------------------------

    def observe(self, arrival: ClaimArrival) -> StreamUpdate:
        update = self.checker.observe(arrival)
        if not self.replaying_source:
            self.external_arrivals = True
        self._updates.append(update)
        self._stop_reason = None
        self.since_validation += 1
        return update

    def validate(self, count: int) -> List[IterationRecord]:
        """One validation burst on the snapshot, weights exchanged (§7)."""
        snapshot, state = self.checker.database, self.checker.state
        records: List[IterationRecord] = []
        if state.unlabelled_indices.size == 0:
            return records
        icrf = ICrf(
            snapshot, self._spec.inference, seed=derive_rng(self._rng, 0),
            state=state,
        )
        weights = self.checker.weights
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
            if state.unlabelled_indices.size == 0:
                break
            if process.goal.satisfied(process):
                break
            record = process.step()
            for claim_id, value in zip(record.claim_ids, record.user_values):
                self.checker.record_label(claim_id, value)
                self._validated.append(claim_id)
            self._records.append(record)
            records.append(record)
        self.checker.receive_weights(icrf.weights)
        self.since_validation = 0
        return records

    @contextmanager
    def source_arrivals(self, count: Optional[int]):
        """The next ``count`` arrivals of the declared source (``None``:
        to its end); arrivals observed inside the block count as the
        source's, so the session keeps its compact checkpoints."""
        source = self._spec.stream.source
        if source is None:
            raise SessionError(
                "this session has no spec.stream.source (a StreamSourceSpec "
                "declaring the replayable stream) to read arrivals from; "
                "pass the arrivals instead"
            )
        if count is not None and count < 1:
            raise SessionError("ingest_from_source count must be at least 1")
        if self.external_arrivals:
            raise SessionError(
                "this session observed arrivals outside its declared "
                "stream source; the stream position is meaningless — "
                "keep driving it with observe()/ingest()"
            )
        skip = self.checker.arrivals
        stop = None if count is None else skip + count
        arrivals = self._source_sequence()[skip:stop]
        self.replaying_source = True
        try:
            yield arrivals
        finally:
            self.replaying_source = False

    def _source_sequence(self) -> tuple:
        """Every arrival of ``spec.stream.source``, in order."""
        if self._source_corpus is None:
            self._source_corpus = self._spec.stream.source.dataset.corpus()
        return self._source_corpus.arrivals()

    # Arrivals go through the session's public ingest methods, so a run,
    # a service step and a direct call all take the same path.

    def advance(self, session, count: int) -> List[StreamUpdate]:
        return session.ingest_from_source(count=count)

    def run(self, session, arrivals, max_iterations, on_event, after_event) -> None:
        if arrivals is None:
            session.ingest_from_source(on_update=on_event, after_arrival=after_event)
        else:
            session.ingest(arrivals, on_update=on_event, after_arrival=after_event)

    def label(self, claim: Union[str, int], value: int) -> None:
        self._validated.append(self.checker.record_label(claim, value))

    # -- checkpoint and result -----------------------------------------

    @property
    def _compact(self) -> bool:
        """Whether every entity came from the declared replayable source,
        so checkpoints store a stream position instead of the entities."""
        return self._spec.stream.source is not None and not self.external_arrivals

    def origin(self) -> dict:
        if self._compact:
            return {"stream_fingerprint": ckpt.stream_fingerprint(self.checker)}
        return {}

    def state_dict(self) -> dict:
        checker = self.checker.state_dict()
        if not self._compact:
            sources, documents, claims = self.checker.entities
            checker["sources"] = [dataset_io.source_to_dict(s) for s in sources]
            checker["documents"] = [dataset_io.document_to_dict(d) for d in documents]
            checker["claims"] = [dataset_io.claim_to_dict(c) for c in claims]
        state = {
            "checker": checker,
            "session_rng": rng_state(self._rng),
            "user": self._user.state_dict(),
            "updates": [update.to_dict() for update in self._updates],
            "records": [record.to_dict() for record in self._records],
            "validated": list(self._validated),
            "since_validation": self.since_validation,
        }
        if self._compact:
            state["stream_position"] = self.checker.arrivals
        if self._stop_reason is not None:
            state["stop_reason"] = self._stop_reason
        return state

    def load_state_dict(self, state: dict) -> None:
        source = self._spec.stream.source
        if "stream_position" in state:
            # Compact checkpoint: regenerate the entities by replaying the
            # declared source.
            if source is None:
                raise CheckpointError(
                    "checkpoint stores a stream position but the spec "
                    "declares no stream source; the streamed entities "
                    "cannot be regenerated"
                )
            position = int(state["stream_position"])
            replayed = self.checker.replay_structure(
                self._source_sequence()[:position]
            )
            if replayed != position:
                raise CheckpointError(
                    f"stream source yielded only {replayed} of the "
                    f"{position} arrivals recorded in the checkpoint "
                    f"(was the source's dataset changed?)"
                )
        else:
            # Embedded entities, replayed as one evidence arrival with every
            # source and document and then one arrival per claim: that
            # rebuilds the entity lists in their saved order.
            embedded = state["checker"]
            evidence = ClaimArrival(
                None,
                [dataset_io.document_from_dict(d) for d in embedded["documents"]],
                [dataset_io.source_from_dict(s) for s in embedded["sources"]],
            )
            claims = [dataset_io.claim_from_dict(c) for c in embedded["claims"]]
            self.checker.replay_structure(
                [evidence] + [ClaimArrival(claim) for claim in claims]
            )
        self.checker.load_state_dict(state["checker"])
        # Entities embedded despite a declared source: arrivals came from
        # outside it, so the resumed session must not trust the position.
        self.external_arrivals = "stream_position" not in state and source is not None
        set_rng_state(self._rng, state["session_rng"])
        if state.get("user") is not None and hasattr(self._user, "load_state_dict"):
            self._user.load_state_dict(state["user"])
        self._updates = [StreamUpdate.from_dict(entry) for entry in state["updates"]]
        self._records = [IterationRecord.from_dict(entry) for entry in state["records"]]
        self._validated = list(state["validated"])
        self.since_validation = int(state["since_validation"])
        self._stop_reason = state.get("stop_reason")

    def result_fields(self, closing: bool) -> dict:
        snapshot = self._snapshot()
        trace = self.trace
        if closing and self._stop_reason is None:
            self._stop_reason = "stream_end" if self._updates else "closed"
        trace.stop_reason = self._stop_reason or "unfinished"
        return dict(
            stop_reason=trace.stop_reason,
            num_claims=snapshot.num_claims if snapshot else 0,
            num_labelled=self._num_labelled(),
            final_precision=self.current_precision(),
            validated_claim_ids=list(self._validated),
            trace=trace,
            stream_updates=list(self._updates),
            weights=self.checker.weights,
        )
