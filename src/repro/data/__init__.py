"""Data model of the fact-checking setting (§2.1).

Exports the entity types (:class:`Source`, :class:`Document`,
:class:`Claim`), document-claim :class:`Stance`, the structure of the
probabilistic fact database, :class:`FactDatabase` with its
:class:`ClaimSourceGraph`, the per-session :class:`ClaimState` over it,
and :class:`Grounding` — the trusted set of facts derived from them.
"""

from repro.data.database import ClaimSourceGraph, FactDatabase
from repro.data.entities import Claim, ClaimLink, Document, Source
from repro.data.grounding import Grounding, precision_improvement
from repro.data.stance import Stance
from repro.data.state import ClaimState

__all__ = [
    "Claim",
    "ClaimLink",
    "ClaimSourceGraph",
    "ClaimState",
    "Document",
    "FactDatabase",
    "Grounding",
    "Source",
    "Stance",
    "precision_improvement",
]
