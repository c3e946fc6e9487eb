"""Rebuild-per-arrival streaming checker — the oracle of in-place growth.

:class:`~repro.streaming.process.StreamingFactChecker` grows its snapshot
database, model and engine in place per arrival.  This subclass instead
discards the snapshot and rebuilds it from the entity lists on every
arrival, truncating forward links to claims that have not arrived yet,
and carries the marginals and labels into the rebuilt snapshot by claim
id.  Both must produce bit-for-bit identical weights
and probabilities::

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
    """Streaming checker that rebuilds its snapshot on every arrival."""

    def _extend_snapshot(self, new_sources, new_documents, new_claims) -> None:
        # The snapshot is rebuilt in _grow, not extended (and a strict
        # database would reject the forward links _rebuild truncates).
        # The oracle replays valid streams only.
        return None

    def _grow(self, delta, new_claims) -> None:
        # The old snapshot's probabilities and labels, keyed by claim id.
        kept = self.state_dict()
        self._rebuild(kept["probabilities"], kept["labels"])

    def _rebuild(self, probabilities, labels) -> None:
        prior = float(self._stream.prior)
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
        database = FactDatabase(
            sources=self._sources,
            documents=documents,
            claims=self._claims,
            prior=prior,
        )
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
        self._database = database
        self._state = state
        self._model = CrfModel(
            database,
            weights=self._weights,
            aggregation=self._inference.aggregation,
            coupling_enabled=self._inference.coupling_enabled,
        )
