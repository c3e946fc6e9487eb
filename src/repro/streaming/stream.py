"""Claim streams: turning a corpus into an arrival sequence (§7).

The streaming experiments replay a corpus "in the order of posting time"
(§8.8).  Synthetic corpora carry no timestamps, so document index order
serves as posting order: a claim *arrives* with the first document that
references it, together with any sources and documents not seen before.
Later documents that reference an already-arrived claim are delivered as
evidence updates attached to the next arrival.  A declared stream source
(:class:`~repro.api.specs.StreamSourceSpec`) replays the one shared
database of its dataset spec this way, and a session restoring a
checkpoint of such a stream takes the entities of the replayed prefix,
each delivered exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional

from repro.data.database import FactDatabase
from repro.data.entities import Claim, Document, Source


@dataclass
class ClaimArrival:
    """One streaming event: a new claim plus its not-yet-seen context.

    Attributes:
        claim: The newly arriving claim (Alg. 2 line 1); ``None`` for a
            trailing evidence-only event delivering documents about
            already-arrived claims.
        documents: Documents delivered with this arrival (the claim's
            first document plus any backlog referencing earlier claims).
        sources: Sources appearing for the first time in this event.
    """

    claim: Optional[Claim]
    documents: List[Document] = field(default_factory=list)
    sources: List[Source] = field(default_factory=list)


def arrival_to_dict(arrival: ClaimArrival) -> dict:
    """Render one arrival as a JSON-compatible entry (the service wire form).

    Entities reuse the :mod:`repro.datasets.io` corpus format, so a corpus
    file and a claim stream speak the same dialect.
    """
    from repro.datasets.io import claim_to_dict, document_to_dict, source_to_dict

    return {
        "claim": None if arrival.claim is None else claim_to_dict(arrival.claim),
        "documents": [document_to_dict(entry) for entry in arrival.documents],
        "sources": [source_to_dict(entry) for entry in arrival.sources],
    }


def arrival_from_dict(payload: dict) -> ClaimArrival:
    """Inverse of :func:`arrival_to_dict`."""
    from repro.datasets.io import claim_from_dict, document_from_dict, source_from_dict

    claim = payload.get("claim")
    return ClaimArrival(
        claim=None if claim is None else claim_from_dict(claim),
        documents=[document_from_dict(entry) for entry in payload.get("documents", [])],
        sources=[source_from_dict(entry) for entry in payload.get("sources", [])],
    )


def stream_from_database(database: FactDatabase) -> Iterator[ClaimArrival]:
    """Replay a corpus as a claim-arrival stream in posting order.

    Iterates documents in index order; when a document references a claim
    that has not arrived yet, a :class:`ClaimArrival` is emitted carrying
    the claim, all pending documents (including this one), and all sources
    those documents introduced.  Sources that never published a document
    are delivered with the trailing evidence-only event, so the stream's
    end-state entity sets match the corpus exactly.  Claims never
    referenced by any document are emitted last with empty context.

    Yields:
        :class:`ClaimArrival` events covering every claim exactly once.
    """
    seen_claims: set = set()
    seen_sources: set = set()
    pending_documents: List[Document] = []
    pending_sources: List[Source] = []

    source_by_id = {source.source_id: source for source in database.sources}
    claim_by_id = {claim.claim_id: claim for claim in database.claims}

    for document in database.documents:
        if document.source_id not in seen_sources:
            seen_sources.add(document.source_id)
            pending_sources.append(source_by_id[document.source_id])
        pending_documents.append(document)
        new_claims = [
            link.claim_id
            for link in document.claim_links
            if link.claim_id not in seen_claims
        ]
        for claim_id in new_claims:
            seen_claims.add(claim_id)
            yield ClaimArrival(
                claim=claim_by_id[claim_id],
                documents=pending_documents,
                sources=pending_sources,
            )
            pending_documents = []
            pending_sources = []

    # Sources without any document never enter via the document walk;
    # deliver them (in corpus order) with the trailing backlog so replaying
    # the stream reproduces the corpus entity sets exactly.
    pending_sources.extend(
        source
        for source in database.sources
        if source.source_id not in seen_sources
    )
    if pending_documents or pending_sources:
        # Trailing documents only reference already-arrived claims:
        # deliver them — and any document-less sources — as an
        # evidence-only event.
        yield ClaimArrival(
            claim=None,
            documents=pending_documents,
            sources=pending_sources,
        )

    for claim in database.claims:
        if claim.claim_id not in seen_claims:
            seen_claims.add(claim.claim_id)
            yield ClaimArrival(claim=claim, documents=[], sources=[])
