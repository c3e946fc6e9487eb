"""Streaming fact checking — Algorithm 2 of the paper (§7).

:class:`StreamingFactChecker` consumes :class:`~repro.streaming.stream.ClaimArrival`
events.  Per arrival it (lines 2–6) extends the entity sets, then (lines
8–9) performs one *online EM* update: a light E-step over the grown model
followed by a stochastic-approximation parameter move

    W_t = W_{t-1} + γ_t (Ŵ_t - W_{t-1})

where ``Ŵ_t`` maximises the expected log-likelihood of the current data
(one warm-started TRON step) and γ_t follows a Robbins–Monro schedule —
the practical realisation of Eq. 29–30, in which the interpolated
Q-function is represented through its maximiser rather than stored
symbolically.  Credibility estimates and user labels are carried across
arrivals in the grown claim state, so earlier inference is reused, never
recomputed from scratch; checkpoints key them by claim identifier.

The snapshot database is the checker's only store of the streamed
sources, documents and claims: novelty checks read its identifier indices,
the first arrival builds it, and a restore builds it once from the
checkpoint's entities.  It, its claim state, the model and the engine are
*grown in place* per arrival: :meth:`FactDatabase.extend` merges the new
cliques into the columnar arrays, :meth:`ClaimState.grow` appends the new
claims at the prior, the featurizer patches its cached matrices, and the
engine refreshes its gathered views — the literal reading of the paper's
reuse discipline, without an O(corpus) per-arrival rebuild.  The test
suite keeps a rebuild-per-arrival checker as the oracle this growth must
match bit for bit.

The checker interoperates with the validation process (Alg. 1): the
current parameters can be handed to / received from an
:class:`~repro.inference.icrf.ICrf` instance (Alg. 2 lines 7 and 10), which
the Table 2 experiment uses to interleave validation with arrivals.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.codec import JsonRecord
from repro.crf.model import CrfModel
from repro.crf.weights import CrfWeights
from repro.data.database import DatabaseDelta, FactDatabase
from repro.data.entities import Claim, Document, Source
from repro.data.state import ClaimState
from repro.errors import DataModelError, StreamingError
from repro.inference.mstep import run_m_step
from repro.streaming.schedule import RobbinsMonroSchedule
from repro.streaming.stream import ClaimArrival
from repro.utils.rng import RandomState, ensure_rng, rng_state, set_rng_state

if TYPE_CHECKING:
    from repro.api.specs import SessionSpec


@dataclass
class StreamUpdate(JsonRecord):
    """Outcome of processing one arrival.

    Attributes:
        arrival_index: 1-based arrival counter t.
        elapsed_seconds: Total wall-clock time of the arrival (the §8.8
            measurement): ``ingest_seconds + update_seconds``.
        step_size: γ_t used for the parameter interpolation.
        weights: Parameters W_t after the update.
        num_claims / num_documents / num_sources: Entity counts after the
            arrival.
        ingest_seconds: Structure phase — entity bookkeeping plus growing
            (or rebuilding) the snapshot database/model/engine (Alg. 2
            lines 2–6).
        update_seconds: Online-EM phase — the mean-field E-step, the
            stochastic-approximation M-step, and marginal persistence
            (Alg. 2 lines 8–9).  Checkpoints older than format version 3
            carry no phase split, so both phases default to zero there.
    """

    arrival_index: int
    elapsed_seconds: float
    step_size: float
    weights: CrfWeights
    num_claims: int
    num_documents: int
    num_sources: int
    ingest_seconds: float = 0.0
    update_seconds: float = 0.0


class StreamingFactChecker:
    """Online fact-checking model over a claim stream (Alg. 2).

    Args:
        spec: The :class:`~repro.api.specs.SessionSpec`; ``spec.stream``
            sets the online-EM schedule and ``spec.inference`` the shared
            model settings, its M-step capped at
            ``stream.online_mstep_iterations`` Newton iterations.
            ``None`` uses the spec defaults.
        seed: Seed or generator.
    """

    #: Not checkpointed (lint rule STATE001): configuration restored from
    #: the session spec.  What drifts per arrival — weights,
    #: probabilities, labels, RNG, step counter, rebuilt model/database/
    #: claim state — is carried (or explicitly reconstructed) by
    #: ``state_dict``/``load_state_dict``; the snapshot database's entities
    #: are the checkpoint's structure origin, passed to ``load_state_dict``.
    _STATE_EXCLUDED = ("_stream", "_inference", "_schedule", "_mstep")

    def __init__(
        self, spec: Optional["SessionSpec"] = None, seed: RandomState = None
    ) -> None:
        if spec is None:
            from repro.api.specs import SessionSpec

            spec = SessionSpec()
        self._stream = spec.stream
        self._inference = spec.inference
        self._schedule = RobbinsMonroSchedule(
            beta=spec.stream.schedule_beta, scale=spec.stream.schedule_scale
        )
        self._mstep = replace(
            spec.inference.mstep,
            max_iterations=spec.stream.online_mstep_iterations,
        )
        self._rng = ensure_rng(seed)

        self._pending_labels: Dict[str, int] = {}
        self._weights: Optional[CrfWeights] = None
        self._t = 0
        self._database: Optional[FactDatabase] = None
        self._state: Optional[ClaimState] = None
        self._model: Optional[CrfModel] = None

    # ------------------------------------------------------------------
    # Checkpoint state
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Serialise the online-EM state (JSON-compatible).

        The streamed entities (:attr:`entities`) are not included:
        checkpoints carry them separately and hand them back to
        :meth:`load_state_dict`.  Probabilities and labels are keyed by
        claim identifier, probabilities in arrival order and labels in
        labelling order.
        """
        probabilities: Dict[str, float] = {}
        labels: Dict[str, int] = {}
        if self._state is not None:
            claim_ids = [claim.claim_id for claim in self._database.claims]
            probabilities = dict(zip(claim_ids, self._state.probabilities.tolist()))
            labels = {claim_ids[i]: v for i, v in self._state.labels.items()}
        return {
            "t": self._t,
            "probabilities": probabilities,
            "labels": labels,
            "pending_labels": dict(self._pending_labels),
            "weights": (
                None if self._weights is None else self._weights.values.tolist()
            ),
            "rng": rng_state(self._rng),
        }

    def load_state_dict(self, state: dict, entities: Sequence[Sequence]) -> None:
        """Restore a :meth:`state_dict` snapshot bit-for-bit.

        The checker must have been constructed with the same configuration
        (schedule, aggregation, M-step, …) — typically from the same
        :class:`~repro.api.SessionSpec`.  ``entities`` are the
        ``(sources, documents, claims)`` it had ingested, in arrival order
        and with documents as they arrived (:attr:`entities`); the snapshot
        database is built over them once.
        """
        self._pending_labels = {
            str(key): int(value)
            for key, value in state.get("pending_labels", {}).items()
        }
        weights = state["weights"]
        self._weights = (
            None
            if weights is None
            else CrfWeights(np.asarray(weights, dtype=float))
        )
        self._t = int(state["t"])
        set_rng_state(self._rng, state["rng"])
        self._database = None
        self._state = None
        self._model = None
        if entities[2]:
            self._database = self._snapshot_of(*entities)
            self._start(state["probabilities"], state["labels"])

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def arrivals(self) -> int:
        """Number of processed arrivals t."""
        return self._t

    @property
    def entities(self) -> tuple:
        """``(sources, documents, claims)`` seen so far, in arrival order,
        documents as they arrived (links to claims yet to arrive kept)."""
        database = self._database
        if database is None:
            return (), (), ()
        return database.sources, database.given_documents, database.claims

    @property
    def weights(self) -> Optional[CrfWeights]:
        """Current parameters W_t (``None`` before the first arrival)."""
        return self._weights.copy() if self._weights is not None else None

    def receive_weights(self, weights: CrfWeights) -> None:
        """Accept parameters from the validation process (Alg. 2 line 7)."""
        self._weights = weights.copy()
        if self._model is not None:
            self._model.set_weights(self._weights)

    def record_label(self, claim: Union[str, int], value: int) -> str:
        """Register user input so it survives future arrivals.

        Labels for claims that have not arrived are rejected by default
        (a typo'd identifier would otherwise be stored forever and never
        applied); with ``stream.allow_pending_labels`` set in the spec they
        are parked in :attr:`pending_labels` and applied the moment the
        claim arrives.

        Args:
            claim: Claim identifier, or a dense index into the *current*
                snapshot database.
            value: User label, 0 or 1.

        Returns:
            The stable identifier of the labelled claim.

        Raises:
            StreamingError: On an invalid label value, or — unless
                ``stream.allow_pending_labels`` is set — on a claim identifier
                that has not arrived on this stream.
        """
        if value not in (0, 1):
            raise StreamingError(f"label must be 0 or 1, got {value!r}")
        claim_id = self._resolve_claim_id(claim)
        if self._database is None or not self._database.knows("claim", claim_id):
            if not self._stream.allow_pending_labels:
                raise StreamingError(
                    f"cannot label unknown claim {claim_id!r}: it has not "
                    "arrived on this stream (set the spec field "
                    "stream.allow_pending_labels to park labels for future "
                    "claims)"
                )
            self._pending_labels[claim_id] = int(value)
            return claim_id
        self.state.label(self._database.claim_position(claim_id), value)
        return claim_id

    @property
    def pending_labels(self) -> Dict[str, int]:
        """Labels parked for claims that have not arrived yet."""
        return dict(self._pending_labels)

    def _resolve_claim_id(self, claim: Union[str, int]) -> str:
        """Map an index or identifier onto the stable claim identifier."""
        if isinstance(claim, str):
            return claim
        index = int(claim)
        if self._database is None:
            raise StreamingError(
                "cannot address claims by index before the first arrival; "
                "use the string claim id"
            )
        if not 0 <= index < self._database.num_claims:
            raise StreamingError(
                f"claim index {index} out of range for the current snapshot "
                f"of {self._database.num_claims} claims"
            )
        return self._database.claim_id(index)

    @property
    def database(self) -> FactDatabase:
        """Snapshot fact database over all entities seen so far."""
        if self._database is None:
            raise StreamingError("no arrivals processed yet")
        return self._database

    @property
    def state(self) -> ClaimState:
        """Probabilities and labels over the snapshot database's claims."""
        if self._state is None:
            raise StreamingError("no arrivals processed yet")
        return self._state

    @property
    def model(self) -> Optional[CrfModel]:
        """Snapshot CRF model, or ``None`` before the first arrival."""
        return self._model

    # ------------------------------------------------------------------
    # Alg. 2 main loop body
    # ------------------------------------------------------------------

    def observe(self, arrival: ClaimArrival) -> StreamUpdate:
        """Process one claim arrival (lines 2–10 of Alg. 2).

        Raises:
            StreamingError: When the arrival is rejected: the first
                arrival carries no claim, its claim has arrived before, or
                its entities cannot join the snapshot database.  Every
                check runs before the first mutation, so a rejected
                arrival leaves the checker unchanged.
        """
        started = time.perf_counter()
        new_sources, new_documents, new_claims = self._novel(arrival)
        first = self._database is None
        delta = self._extend_snapshot(new_sources, new_documents, new_claims)
        self._t += 1
        if first:
            self._start({}, {})
        else:
            self._grow(delta, new_claims)
        state = self._state
        assert state is not None and self._model is not None
        for claim in new_claims:
            pending = self._pending_labels.pop(claim.claim_id, None)
            if pending is not None:
                state.label(self._database.claim_position(claim.claim_id), pending)
        ingested = time.perf_counter()

        # E-step: light inference over the grown model.
        marginals = self._model.mean_field(
            state.probabilities,
            steps=self._stream.meanfield_steps,
            damping=0.3,
            fixed=state.labelled_indices,
        )
        state.set_probabilities(marginals)

        # M-step with stochastic approximation (Eq. 29-30).
        previous = self._model.weights.values.copy()
        run_m_step(self._model, state, self._mstep)
        candidate = self._model.weights.values
        gamma = self._schedule.step_size(self._t)
        blended = previous + gamma * (candidate - previous)
        self._weights = CrfWeights(blended)
        self._model.set_weights(self._weights)

        finished = time.perf_counter()
        return StreamUpdate(
            arrival_index=self._t,
            elapsed_seconds=finished - started,
            step_size=gamma,
            weights=self._weights.copy(),
            num_claims=self._database.num_claims,
            num_documents=self._database.num_documents,
            num_sources=self._database.num_sources,
            ingest_seconds=ingested - started,
            update_seconds=finished - ingested,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _novel(self, arrival: ClaimArrival):
        """The arrival's ``(sources, documents, claims)`` not seen yet.

        Mutates nothing.

        Raises:
            StreamingError: When the arrival's claim has arrived before.
        """
        database = self._database
        new_sources = _unseen(arrival.sources, database, "source")
        new_documents = _unseen(arrival.documents, database, "document")
        if arrival.claim is None:
            return new_sources, new_documents, []
        if database is not None and database.knows("claim", arrival.claim.claim_id):
            raise StreamingError(f"claim {arrival.claim.claim_id!r} arrived twice")
        return new_sources, new_documents, [arrival.claim]

    def _extend_snapshot(
        self,
        new_sources: List[Source],
        new_documents: List[Document],
        new_claims: List[Claim],
    ) -> Optional[DatabaseDelta]:
        """Lines 2–6: extend S, D, C^U with the arrival's novel entities.

        The first arrival builds the snapshot database over its entities
        and ``None`` is returned; later arrivals grow it in place.

        Raises:
            StreamingError: When the first arrival carries no claim, or
                the database rejects the entities; it validates before
                mutating, so nothing has changed.
        """
        if self._database is None and not new_claims:
            raise StreamingError("the first arrival must carry a claim")
        try:
            if self._database is None:
                self._database = self._snapshot_of(
                    new_sources, new_documents, new_claims
                )
                return None
            return self._database.extend(
                sources=new_sources, documents=new_documents, claims=new_claims
            )
        except DataModelError as error:
            raise StreamingError(f"arrival rejected: {error}") from error

    def _snapshot_of(self, sources, documents, claims) -> FactDatabase:
        """A growable snapshot database over the given entities.

        Documents may reference claims that have not arrived yet (a
        multi-claim document delivered with its first claim); such forward
        links are parked inside the database so later arrivals can
        materialise them in place.
        """
        return FactDatabase(
            sources=sources,
            documents=documents,
            claims=claims,
            prior=float(self._stream.prior),
            allow_pending_links=True,
        )

    def _grow(self, delta: DatabaseDelta, new_claims: List[Claim]) -> None:
        """Grow the live model with the snapshot (§7: reuse, never recompute).

        :meth:`_extend_snapshot` has merged the arrival's cliques into the
        database's columnar arrays; the model patches its cached matrices
        and the memoised engine refreshes its gathered views — no object
        is rebuilt.  New claims join the state at the prior.
        """
        assert self._database is not None and self._model is not None
        self._model.grow(delta)
        self._state.grow(len(new_claims))

    def _start(
        self, probabilities: Mapping[str, float], labels: Mapping[str, int]
    ) -> None:
        """Build the claim state and model over the new snapshot database.

        ``probabilities`` and ``labels`` are keyed by claim identifier (the
        :meth:`state_dict` layout); claims missing from ``probabilities``
        start at the prior.  Runs for the first arrival and when restoring
        a checkpoint; later arrivals :meth:`_grow` them.
        """
        database = self._database
        prior = database.prior
        state = ClaimState.of(database)
        state.set_probabilities(
            np.asarray(
                [float(probabilities.get(c.claim_id, prior)) for c in database.claims]
            )
        )
        for claim_id, value in labels.items():
            if database.knows("claim", claim_id):
                state.label(database.claim_position(claim_id), int(value))

        if self._weights is None:
            weights = CrfWeights.zeros(
                database.document_features.shape[1],
                database.source_features.shape[1],
            )
            weights.values[0] = float(self._inference.initial_bias)
            self._weights = weights
        self._state = state
        self._model = CrfModel(
            database,
            weights=self._weights,
            aggregation=self._inference.aggregation,
            coupling_enabled=self._inference.coupling_enabled,
        )


def _unseen(entities, database: Optional[FactDatabase], kind: str) -> list:
    """Entities of ``kind`` whose identifier is neither in ``database``
    (``None`` before the first arrival) nor repeated."""
    fresh: dict = {}
    for entity in entities:
        identifier = getattr(entity, f"{kind}_id")
        if database is None or not database.knows(kind, identifier):
            fresh.setdefault(identifier, entity)
    return list(fresh.values())
