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
arrivals by claim identifier, so earlier inference is reused, never
recomputed from scratch.

The snapshot database, model and engine are *grown in place* per
arrival: :meth:`FactDatabase.extend` merges the new cliques into the
columnar arrays, the featurizer patches its cached matrices, and the
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
from typing import TYPE_CHECKING, Dict, List, Optional, Union

import numpy as np

from repro.crf.model import CrfModel
from repro.crf.weights import CrfWeights
from repro.data.database import FactDatabase
from repro.data.entities import Claim, Document, Source
from repro.errors import StreamingError
from repro.inference.mstep import run_m_step
from repro.streaming.schedule import RobbinsMonroSchedule
from repro.streaming.stream import ClaimArrival
from repro.utils.rng import RandomState, ensure_rng

if TYPE_CHECKING:
    from repro.api.specs import SessionSpec


@dataclass
class StreamUpdate:
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
            (Alg. 2 lines 8–9).
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

    #: Not checkpointed (lint rule STATE001): pure configuration, all of
    #: it restored from the session spec on resume.  Everything that
    #: drifts per arrival — corpus, weights, probabilities, labels, RNG,
    #: step counter, rebuilt model/database — is carried (or explicitly
    #: reconstructed) by ``state_dict``/``load_state_dict``.
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

        self._sources: List[Source] = []
        self._documents: List[Document] = []
        self._claims: List[Claim] = []
        self._known_sources: set = set()
        self._known_documents: set = set()
        self._known_claims: set = set()
        self._probabilities: Dict[str, float] = {}
        self._labels: Dict[str, int] = {}
        self._pending_labels: Dict[str, int] = {}
        self._weights: Optional[CrfWeights] = None
        self._t = 0
        self._database: Optional[FactDatabase] = None
        self._model: Optional[CrfModel] = None

    # ------------------------------------------------------------------
    # Checkpoint state
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Serialise the complete online-EM state (JSON-compatible)."""
        from repro.datasets.io import (
            claim_to_dict,
            document_to_dict,
            source_to_dict,
        )

        state = self.mutable_state_dict()
        state.update(
            {
                "sources": [source_to_dict(source) for source in self._sources],
                "documents": [
                    document_to_dict(doc) for doc in self._documents
                ],
                "claims": [claim_to_dict(claim) for claim in self._claims],
            }
        )
        return state

    def mutable_state_dict(self) -> dict:
        """Serialise the online-EM state *without* the streamed entities.

        The compact streaming checkpoints of :mod:`repro.api` store this
        together with a stream position and fingerprint; the entities are
        regenerated by replaying the declared stream source
        (:meth:`replay_structure`) instead of being embedded.
        """
        from repro.utils.rng import rng_state

        self._sync_probabilities()
        return {
            "t": self._t,
            "probabilities": dict(self._probabilities),
            "labels": dict(self._labels),
            "pending_labels": dict(self._pending_labels),
            "weights": (
                None if self._weights is None else self._weights.values.tolist()
            ),
            "rng": rng_state(self._rng),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot bit-for-bit.

        The checker must have been constructed with the same configuration
        (schedule, aggregation, M-step, …) — typically from the
        same :class:`~repro.api.SessionSpec`.
        """
        from repro.datasets.io import (
            claim_from_dict,
            document_from_dict,
            source_from_dict,
        )

        self._sources = [source_from_dict(entry) for entry in state["sources"]]
        self._documents = [
            document_from_dict(entry) for entry in state["documents"]
        ]
        self._claims = [claim_from_dict(entry) for entry in state["claims"]]
        self._known_sources = {source.source_id for source in self._sources}
        self._known_documents = {doc.document_id for doc in self._documents}
        self._known_claims = {claim.claim_id for claim in self._claims}
        self.load_mutable_state(state)

    def replay_structure(self, arrivals) -> int:
        """Re-ingest arrivals structurally, without any online-EM work.

        Used when resuming from a compact checkpoint: the declared stream
        source replays the first ``t`` arrivals to regenerate the entity
        sets, then :meth:`load_mutable_state` overlays the saved
        probabilities, labels, weights and RNG position.  Returns the
        number of arrivals replayed.
        """
        if self._t or self._sources or self._documents or self._claims:
            raise StreamingError(
                "replay_structure requires a freshly constructed checker"
            )
        count = 0
        for arrival in arrivals:
            self._ingest(arrival)
            count += 1
        self._t = count
        return count

    def load_mutable_state(self, state: dict) -> None:
        """Restore a :meth:`mutable_state_dict` snapshot.

        The entity sets must already be in place (restored directly or
        replayed via :meth:`replay_structure`).
        """
        from repro.utils.rng import set_rng_state

        self._probabilities = {
            str(key): float(value)
            for key, value in state["probabilities"].items()
        }
        self._labels = {
            str(key): int(value) for key, value in state["labels"].items()
        }
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
        self._model = None
        if self._claims:
            self._rebuild()

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def arrivals(self) -> int:
        """Number of processed arrivals t."""
        return self._t

    @property
    def weights(self) -> Optional[CrfWeights]:
        """Current parameters W_t (``None`` before the first arrival)."""
        return self._weights.copy() if self._weights is not None else None

    def receive_weights(self, weights: CrfWeights) -> None:
        """Accept parameters from the validation process (Alg. 2 line 7)."""
        self._weights = weights.copy()
        if self._model is not None:
            self._model.set_weights(self._weights)

    def record_label(self, claim: Union[str, int], value: int) -> None:
        """Register user input so it survives future arrivals.

        Labels for claims that have not arrived are rejected by default
        (a typo'd identifier would otherwise be stored forever and never
        applied); with ``stream.allow_pending_labels`` set in the spec they
        are parked in :attr:`pending_labels` and applied the moment the
        claim arrives.

        Args:
            claim: Claim identifier, or a dense index into the *current*
                snapshot database (historically the two addressing schemes
                were inconsistent across the public surface; both are now
                accepted and mapped to the stable string identifier).
            value: User label, 0 or 1.

        Raises:
            StreamingError: On an invalid label value, or — unless
                ``stream.allow_pending_labels`` is set — on a claim identifier
                that has not arrived on this stream.
        """
        if value not in (0, 1):
            raise StreamingError(f"label must be 0 or 1, got {value!r}")
        claim_id = self._resolve_claim_id(claim)
        if claim_id not in self._known_claims:
            if not self._stream.allow_pending_labels:
                raise StreamingError(
                    f"cannot label unknown claim {claim_id!r}: it has not "
                    "arrived on this stream (set the spec field "
                    "stream.allow_pending_labels to park labels for future "
                    "claims)"
                )
            self._pending_labels[claim_id] = int(value)
            return
        self._labels[claim_id] = value
        self._probabilities[claim_id] = float(value)
        if self._database is not None:
            self._database.label(self._database.claim_position(claim_id), value)

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
    def model(self) -> Optional[CrfModel]:
        """Snapshot CRF model, or ``None`` before the first arrival."""
        return self._model

    # ------------------------------------------------------------------
    # Alg. 2 main loop body
    # ------------------------------------------------------------------

    def observe(self, arrival: ClaimArrival) -> StreamUpdate:
        """Process one claim arrival (lines 2–10 of Alg. 2)."""
        started = time.perf_counter()
        self._t += 1
        new_sources, new_documents, new_claims = self._ingest(arrival)
        if self._database is None:
            self._rebuild()
        else:
            self._grow(new_sources, new_documents, new_claims)
        assert self._database is not None and self._model is not None
        ingested = time.perf_counter()

        # E-step: light inference over the grown model.
        marginals = self._model.mean_field(
            self._database.probabilities,
            steps=self._stream.meanfield_steps,
            damping=0.3,
            fixed=self._database.labelled_indices,
        )
        self._database.set_probabilities(marginals)

        # M-step with stochastic approximation (Eq. 29-30).
        previous = self._model.weights.values.copy()
        run_m_step(self._model, np.asarray(self._database.probabilities),
                   self._mstep)
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
            num_claims=len(self._claims),
            num_documents=len(self._documents),
            num_sources=len(self._sources),
            ingest_seconds=ingested - started,
            update_seconds=finished - ingested,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _ingest(self, arrival: ClaimArrival):
        """Lines 2–6: extend C^U, D, S with the arrival's entities.

        Returns the novel ``(sources, documents, claims)`` of this
        arrival, for :meth:`_grow`.
        """
        new_sources: List[Source] = []
        new_documents: List[Document] = []
        new_claims: List[Claim] = []
        for source in arrival.sources:
            if source.source_id not in self._known_sources:
                self._known_sources.add(source.source_id)
                self._sources.append(source)
                new_sources.append(source)
        for document in arrival.documents:
            if document.document_id not in self._known_documents:
                self._known_documents.add(document.document_id)
                self._documents.append(document)
                new_documents.append(document)
        if arrival.claim is None:
            return new_sources, new_documents, new_claims
        claim_id = arrival.claim.claim_id
        if claim_id in self._known_claims:
            raise StreamingError(f"claim {claim_id!r} arrived twice")
        self._known_claims.add(claim_id)
        self._claims.append(arrival.claim)
        new_claims.append(arrival.claim)
        pending = self._pending_labels.pop(claim_id, None)
        if pending is not None:
            self._labels[claim_id] = pending
            self._probabilities[claim_id] = float(pending)
        return new_sources, new_documents, new_claims

    def _grow(
        self,
        new_sources: List[Source],
        new_documents: List[Document],
        new_claims: List[Claim],
    ) -> None:
        """Extend the live snapshot in place (§7: reuse, never recompute).

        The database merges the arrival's cliques into its columnar
        arrays, the model patches its cached matrices, and the memoised
        engine refreshes its gathered views — no object is rebuilt.  New
        claims start at the prior; a parked or previously recorded label
        for a new claim is applied immediately, as :meth:`_rebuild`
        re-imposes labels.
        """
        assert self._database is not None and self._model is not None
        delta = self._database.extend(
            sources=new_sources, documents=new_documents, claims=new_claims
        )
        self._model.grow(delta)
        for claim in new_claims:
            value = self._labels.get(claim.claim_id)
            if value is not None:
                self._database.label(
                    self._database.claim_position(claim.claim_id), value
                )

    def _sync_probabilities(self) -> None:
        """Mirror the snapshot's probability array into the by-id dict."""
        if self._database is None:
            return
        values = self._database.probabilities
        for index, claim in enumerate(self._database.claims):
            self._probabilities[claim.claim_id] = float(values[index])

    def _rebuild(self) -> None:
        """Build the snapshot database/model over all seen entities.

        Runs for the first arrival and when restoring a checkpoint; later
        arrivals :meth:`_grow` it.  Documents may reference claims that
        have not arrived yet (a multi-claim document delivered with its
        first claim); such forward links are parked inside the database so
        later arrivals can materialise them in place.
        """
        prior = float(self._stream.prior)
        database = FactDatabase(
            sources=self._sources,
            documents=self._documents,
            claims=self._claims,
            prior=prior,
            allow_pending_links=True,
        )
        probabilities = np.asarray(
            [
                self._probabilities.get(claim.claim_id, prior)
                for claim in self._claims
            ]
        )
        database.set_probabilities(probabilities)
        for claim_id, value in self._labels.items():
            if claim_id in self._known_claims:
                database.label(database.claim_position(claim_id), value)

        if self._weights is None:
            weights = CrfWeights.zeros(
                database.document_features.shape[1],
                database.source_features.shape[1],
            )
            weights.values[0] = float(self._inference.initial_bias)
            self._weights = weights
        self._database = database
        self._model = CrfModel(
            database,
            weights=self._weights,
            aggregation=self._inference.aggregation,
            coupling_enabled=self._inference.coupling_enabled,
        )
