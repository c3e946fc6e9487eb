"""Rebuild-per-arrival streaming checker — the oracle of in-place growth.

:class:`~repro.streaming.process.StreamingFactChecker` grows its snapshot
database, model and engine in place per arrival.  This subclass instead
discards the snapshot and rebuilds it from entity lists of its own on
every arrival, truncating forward links to claims that have not arrived
yet, and carries the marginals and labels into the rebuilt snapshot by
claim id.  Both must produce bit-for-bit identical weights and
probabilities::

    grown = StreamingFactChecker(spec, seed=3)
    rebuilt = RebuildingFactChecker(spec, seed=3)
"""

from __future__ import annotations

import numpy as np

from repro.crf.model import CrfModel
from repro.crf.weights import CrfWeights
from repro.data.database import FactDatabase
from repro.data.entities import Document
from repro.data.state import ClaimState
from repro.streaming.process import StreamingFactChecker


class RebuildingFactChecker(StreamingFactChecker):
    """Streaming checker that rebuilds its snapshot on every arrival.

    It keeps its own entity lists, in arrival order, and builds a strict
    database over them from scratch each time.  It replays valid streams
    only, and is never restored from a checkpoint.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._sources = []
        self._documents = []
        self._claims = []
        self._known_claims = set()

    def _extend_snapshot(self, new_sources, new_documents, new_claims) -> None:
        self._sources.extend(new_sources)
        self._documents.extend(new_documents)
        self._claims.extend(new_claims)
        self._known_claims.update(claim.claim_id for claim in new_claims)
        if self._database is None:
            self._database = self._strict_snapshot()
        return None

    def _grow(self, delta, new_claims) -> None:
        # The old snapshot's probabilities and labels, keyed by claim id.
        kept = self.state_dict()
        self._database = self._strict_snapshot()
        self._start(kept["probabilities"], kept["labels"])

    def _strict_snapshot(self) -> FactDatabase:
        """A strict database over the entity lists, with forward links to
        claims that have not arrived yet truncated."""
        documents = []
        for doc in self._documents:
            known_links = tuple(
                link
                for link in doc.claim_links
                if link.claim_id in self._known_claims
            )
            if len(known_links) == len(doc.claim_links):
                documents.append(doc)
            else:
                documents.append(
                    Document(
                        document_id=doc.document_id,
                        source_id=doc.source_id,
                        features=doc.features,
                        claim_links=known_links,
                        metadata=doc.metadata,
                    )
                )
        return FactDatabase(
            sources=self._sources,
            documents=documents,
            claims=self._claims,
            prior=float(self._stream.prior),
        )

    def _start(self, probabilities, labels) -> None:
        database = self._database
        prior = float(self._stream.prior)
        state = ClaimState.of(database)
        state.set_probabilities(
            np.asarray(
                [
                    probabilities.get(claim.claim_id, prior)
                    for claim in self._claims
                ]
            )
        )
        for claim_id, value in labels.items():
            if claim_id in self._known_claims:
                state.label(database.claim_position(claim_id), value)

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
