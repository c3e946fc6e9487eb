"""Data model of the fact-checking setting (§2.1).

Exports the entity types (:class:`Source`, :class:`Document`,
:class:`Claim`), document-claim :class:`Stance`, the probabilistic fact
database :class:`FactDatabase` with its :class:`ClaimSourceGraph`, and
:class:`Grounding` — the trusted set of facts derived from it.
"""

from repro.data.database import ClaimSourceGraph, FactDatabase, FactDatabaseState
from repro.data.entities import Claim, ClaimLink, Document, Source
from repro.data.grounding import Grounding, precision_improvement
from repro.data.stance import Stance

__all__ = [
    "Claim",
    "ClaimLink",
    "ClaimSourceGraph",
    "Document",
    "FactDatabase",
    "FactDatabaseState",
    "Grounding",
    "Source",
    "Stance",
    "precision_improvement",
]
