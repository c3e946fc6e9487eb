"""Connected-component index of the CRF graph (§5.1, "Graph partitioning").

The paper accelerates claim selection by decomposing the CRF into its
connected components: claims in different components never influence one
another, so inference and information-gain evaluation can be restricted to
the component of the claim under consideration.

:class:`ComponentIndex` caches the decomposition and answers
claim-to-component queries in O(1).  It also holds one
:class:`ScopePlan` per component: the structure hypothetical inference
and the source entropy re-read for every candidate of that component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.contracts import derived_cache
from repro.crf.model import CouplingPairs
from repro.data.database import ClaimSourceGraph, FactDatabase
from repro.utils.arrays import concat_ranges


@dataclass(frozen=True)
class ScopePlan:
    """Structure of one inference scope, derived once from the graph.

    All arrays are read-only.

    Attributes:
        claims: The scope's claims, ascending.
        pairs: Pair rows of every source the scope touches, in pair-row
            order — what the coupling sums of the scope's claims read
            (:meth:`~repro.crf.model.CrfModel.trust_signals`).
        source_claims: The claims of the touched sources, grouped by
            source (ascending) and ascending within a source.
        source_starts: Offset of each touched source's group in
            ``source_claims``.
        source_counts: Claims per touched source.
    """

    claims: np.ndarray
    pairs: CouplingPairs
    source_claims: np.ndarray
    source_starts: np.ndarray
    source_counts: np.ndarray

    def __post_init__(self) -> None:
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    @classmethod
    def build(cls, graph: ClaimSourceGraph, claims: np.ndarray) -> "ScopePlan":
        claims = np.asarray(claims, dtype=np.intp)
        starts = graph.claim_ptr[claims]
        counts = graph.claim_ptr[claims + 1] - starts
        touched = np.unique(graph.source[concat_ranges(starts, counts)])
        source_starts = graph.source_ptr[touched]
        source_counts = graph.source_ptr[touched + 1] - source_starts
        rows = graph.source_rows[concat_ranges(source_starts, source_counts)]
        return cls(
            claims=claims,
            pairs=CouplingPairs.gather(graph, np.sort(rows)),
            source_claims=graph.claim[rows],
            source_starts=np.cumsum(source_counts) - source_counts,
            source_counts=source_counts,
        )


class ComponentIndex:
    """Cached connected-component decomposition of a fact database."""

    def __init__(self, database: FactDatabase) -> None:
        self._graph = database.claim_source_graph()
        self._components: List[np.ndarray] = database.connected_components()
        self._claim_component = np.empty(database.num_claims, dtype=np.intp)
        for component_id, members in enumerate(self._components):
            self._claim_component[members] = component_id
        self._plans: Dict[Optional[int], ScopePlan] = {}

    @property
    def num_components(self) -> int:
        """Number of connected components."""
        return len(self._components)

    @property
    def components(self) -> List[np.ndarray]:
        """Claim-index arrays, one per component."""
        return [members.copy() for members in self._components]

    def component_of(self, claim_index: int) -> int:
        """Component identifier of a claim."""
        return int(self._claim_component[claim_index])

    def members_of(self, component_id: int) -> np.ndarray:
        """Claims of a component."""
        return self._components[component_id].copy()

    def component_of_claim(self, claim_index: int) -> np.ndarray:
        """Claims in the same component as ``claim_index`` (inclusive)."""
        return self.members_of(self.component_of(claim_index))

    @derived_cache(
        "plans", backing=("_graph", "_components"), storage="_plans"
    )
    def plan(self, component_id: Optional[int] = None) -> ScopePlan:
        """The :class:`ScopePlan` of a component (``None``: every claim).

        Built on first use and kept for the life of the index.
        """
        plan = self._plans.get(component_id)
        if plan is None:
            claims = (
                np.arange(self._claim_component.size, dtype=np.intp)
                if component_id is None
                else self._components[component_id]
            )
            plan = self._plans[component_id] = ScopePlan.build(
                self._graph, claims
            )
        return plan

    def sizes(self) -> np.ndarray:
        """Component sizes in component-id order."""
        return np.asarray([members.size for members in self._components])

    def largest(self) -> np.ndarray:
        """Claims of the largest component."""
        sizes = self.sizes()
        return self.members_of(int(np.argmax(sizes)))
