"""The probabilistic fact database ``Q = <S, D, C, P>`` (§2.1).

:class:`FactDatabase` holds the *structure* of the fact-checking setting —
sources, documents, claims, and the (source, document, claim) cliques of the
CRF (§3.1) — together with the mutable *state*: the credibility probability
``P(c)`` of every claim and the user labels received so far.  User labels
partition the claims into the labelled set ``C^L`` and the unlabelled set
``C^U`` (§3.2).

Structure is index-based internally (claims, documents and sources are dense
integer indices) for numerical efficiency, while the public API accepts and
returns string identifiers.

Two construction modes exist:

* strict (default): every claim link must reference a known claim, and the
  structure is fixed after construction;
* ``allow_pending_links=True``: links to not-yet-known claims are *parked*
  instead of rejected, and :meth:`FactDatabase.extend` grows the database
  in place as new entities arrive — the incremental backbone of the
  streaming process (§7).  Parked links materialise as cliques the moment
  their claim arrives, at exactly the position a from-scratch build would
  have put them, so the columnar clique arrays of a grown database are
  bit-for-bit identical to those of a freshly constructed one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.contracts import derived_cache, mutates
from repro.data.entities import Claim, Document, Source
from repro.errors import DataModelError

#: Cliques are kept sorted by ``document_index * _KEY_BASE + link_position``,
#: the enumeration order of a from-scratch build.  2**32 bounds the number of
#: claim links per document, far beyond anything a real corpus produces.
_KEY_BASE = 2**32


@dataclass(frozen=True)
class ClaimSourceGraph:
    """The claim–source bipartite graph of a fact database.

    One row per distinct (claim, source) pair that shares at least one
    clique, sorted by claim and then by source.  It is the structure read
    by the CRF's indirect relation (§3.1), source trust (Eq. 17), graph
    partitioning (§5.1) and batch source correlation (Eq. 26).  All
    arrays are read-only.

    Attributes:
        claim: Claim index per row.
        source: Source index per row.
        stance: Net stance ``B_{s,c}`` per row — the sum of the stance
            signs of the pair's cliques.
        claim_ptr: Claim ``c``'s rows are ``claim_ptr[c]:claim_ptr[c + 1]``.
        source_rows: The rows in source-then-claim order.
        source_ptr: Source ``s``'s rows are
            ``source_rows[source_ptr[s]:source_ptr[s + 1]]``.
        source_cliques: ``n_s`` — cliques per source, with multiplicity.
    """

    claim: np.ndarray
    source: np.ndarray
    stance: np.ndarray
    claim_ptr: np.ndarray
    source_rows: np.ndarray
    source_ptr: np.ndarray
    source_cliques: np.ndarray


@dataclass(frozen=True)
class DatabaseDelta:
    """Growth record returned by :meth:`FactDatabase.extend`.

    Downstream caches (:class:`~repro.crf.potentials.CliqueFeaturizer`,
    :class:`~repro.crf.model.CrfModel`, the inference engines) use it to
    patch themselves instead of rebuilding.  ``insert_at`` holds the
    *pre-insertion* positions of the new cliques (suitable for
    :func:`numpy.insert`); ``new_positions`` their indices in the grown
    arrays.  Both are sorted, matching the key order of the new cliques.
    """

    num_sources_before: int
    num_documents_before: int
    num_claims_before: int
    num_cliques_before: int
    insert_at: np.ndarray
    new_positions: np.ndarray
    new_clique_claim: np.ndarray
    new_clique_document: np.ndarray
    new_clique_source: np.ndarray
    new_clique_sign: np.ndarray
    touched_claims: np.ndarray

    @property
    def num_new_cliques(self) -> int:
        return int(self.new_clique_claim.size)


class FactDatabase:
    """Structure and probabilistic state of a fact-checking instance.

    Args:
        sources: All sources; feature vectors must share one dimensionality.
        documents: All documents; each must reference a known source.
        claims: All claims.
        prior: Initial credibility probability assigned to every claim.
            The paper initialises with 0.5 following the maximum-entropy
            principle (§8.1).
        allow_pending_links: When true, claim links referencing unknown
            claims are parked instead of rejected, and the database may be
            grown with :meth:`extend`.  A document with parked links is
            exposed truncated (pending links removed) until the claims
            arrive, mirroring what a from-scratch build over the known
            claims would contain.

    Raises:
        DataModelError: On identifier collisions, dangling references, or
            inconsistent feature dimensionalities.
    """

    def __init__(
        self,
        sources: Sequence[Source],
        documents: Sequence[Document],
        claims: Sequence[Claim],
        prior: float = 0.5,
        allow_pending_links: bool = False,
    ) -> None:
        if not 0.0 <= prior <= 1.0:
            raise DataModelError(f"prior must be in [0, 1], got {prior!r}")
        self._allow_pending_links = bool(allow_pending_links)
        self._sources: Tuple[Source, ...] = tuple(sources)
        self._documents: Tuple[Document, ...] = tuple(documents)
        self._claims: Tuple[Claim, ...] = tuple(claims)
        if not self._claims:
            raise DataModelError("a fact database needs at least one claim")

        self._source_index = _index_unique(
            (s.source_id for s in self._sources), "source"
        )
        self._document_index = _index_unique(
            (d.document_id for d in self._documents), "document"
        )
        self._claim_index = _index_unique((c.claim_id for c in self._claims), "claim")

        self._source_features = _stack_features(
            [s.features for s in self._sources], "source"
        )
        self._document_features = _stack_features(
            [d.features for d in self._documents], "document"
        )

        # claim_id -> [(document_index, link_position, stance_sign)]
        self._pending_links: Dict[str, List[Tuple[int, int, int]]] = {}
        # document_index -> untruncated original / number of parked links
        self._full_documents: Dict[int, Document] = {}
        self._doc_pending_count: Dict[int, int] = {}
        # Derived structure, built on demand and dropped on extend().
        self._graph_cache: Optional[ClaimSourceGraph] = None
        self._build_cliques()

        self._prior = float(prior)
        self._probabilities = np.full(len(self._claims), self._prior, dtype=float)
        self._labels: Dict[int, int] = {}
        self._label_arrays: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @mutates("graph")
    def _build_cliques(self) -> None:
        claim_arr: List[int] = []
        document_arr: List[int] = []
        source_arr: List[int] = []
        sign_arr: List[int] = []
        key_arr: List[int] = []
        exposed: Optional[List[Document]] = None
        for doc_idx, document in enumerate(self._documents):
            source_idx = self._source_index.get(document.source_id)
            if source_idx is None:
                raise DataModelError(
                    f"document {document.document_id!r} references unknown "
                    f"source {document.source_id!r}"
                )
            pending = 0
            for link_pos, link in enumerate(document.claim_links):
                claim_idx = self._claim_index.get(link.claim_id)
                if claim_idx is None:
                    if not self._allow_pending_links:
                        raise DataModelError(
                            f"document {document.document_id!r} references "
                            f"unknown claim {link.claim_id!r}"
                        )
                    self._pending_links.setdefault(link.claim_id, []).append(
                        (doc_idx, link_pos, link.stance.sign)
                    )
                    pending += 1
                    continue
                claim_arr.append(claim_idx)
                document_arr.append(doc_idx)
                source_arr.append(source_idx)
                sign_arr.append(link.stance.sign)
                key_arr.append(doc_idx * _KEY_BASE + link_pos)
            if pending:
                self._full_documents[doc_idx] = document
                self._doc_pending_count[doc_idx] = pending
                if exposed is None:
                    exposed = list(self._documents)
                exposed[doc_idx] = self._truncate_document(document)
        if exposed is not None:
            self._documents = tuple(exposed)
        self._clique_claim_arr = np.asarray(claim_arr, dtype=np.intp)
        self._clique_document_arr = np.asarray(document_arr, dtype=np.intp)
        self._clique_source_arr = np.asarray(source_arr, dtype=np.intp)
        self._clique_sign_arr = np.asarray(sign_arr, dtype=float)
        self._clique_key_arr = np.asarray(key_arr, dtype=np.int64)
        # Capacity buffers behind the exposed arrays: append-only growth
        # (the common streaming case) writes into spare tail capacity
        # instead of copying every column per arrival.  The exposed
        # ``_clique_*_arr`` attributes are always exact-length views.
        self._clique_buffers = {
            "claim": self._clique_claim_arr,
            "document": self._clique_document_arr,
            "source": self._clique_source_arr,
            "sign": self._clique_sign_arr,
            "key": self._clique_key_arr,
        }
        self._invalidate_structure_caches()

    def _truncate_document(self, document: Document) -> Document:
        known = tuple(
            link
            for link in document.claim_links
            if link.claim_id in self._claim_index
        )
        if len(known) == len(document.claim_links):
            return document
        return Document(
            document_id=document.document_id,
            source_id=document.source_id,
            features=document.features,
            claim_links=known,
            metadata=document.metadata,
        )

    def _invalidate_structure_caches(self) -> None:
        self._graph_cache = None

    def _invalidate_label_arrays(self) -> None:
        self._label_arrays = None

    # ------------------------------------------------------------------
    # Incremental growth (§7)
    # ------------------------------------------------------------------

    @mutates("graph")
    def extend(
        self,
        sources: Sequence[Source] = (),
        documents: Sequence[Document] = (),
        claims: Sequence[Claim] = (),
    ) -> DatabaseDelta:
        """Grow the database in place with new entities.

        New cliques — links of the new documents plus parked links
        unlocked by the new claims — are merged into the columnar clique
        arrays at the positions a from-scratch build would give them, so
        the arrays stay bit-for-bit identical to a rebuild over the grown
        corpus.  New claims start at the database prior and unlabelled.

        Returns:
            A :class:`DatabaseDelta` describing the growth, for patching
            downstream caches.

        Raises:
            DataModelError: On identifier collisions, dangling references,
                or inconsistent feature dimensionalities.  Validation
                happens before any mutation.
        """
        sources = list(sources)
        documents = list(documents)
        claims = list(claims)
        self._validate_extension(sources, documents, claims)
        # Stacking checks the feature widths, so it also runs before any
        # mutation.
        source_features = (
            _append_features(
                self._source_features, [s.features for s in sources], "source"
            )
            if sources
            else self._source_features
        )
        document_features = (
            _append_features(
                self._document_features,
                [d.features for d in documents],
                "document",
            )
            if documents
            else self._document_features
        )

        num_sources_before = len(self._sources)
        num_documents_before = len(self._documents)
        num_claims_before = len(self._claims)
        num_cliques_before = int(self._clique_claim_arr.size)

        for offset, source in enumerate(sources):
            self._source_index[source.source_id] = num_sources_before + offset
        self._sources = self._sources + tuple(sources)
        self._source_features = source_features

        for offset, claim in enumerate(claims):
            self._claim_index[claim.claim_id] = num_claims_before + offset
        self._claims = self._claims + tuple(claims)
        if claims:
            self._probabilities = np.concatenate(
                [self._probabilities, np.full(len(claims), self._prior)]
            )

        new_claim: List[int] = []
        new_document: List[int] = []
        new_source: List[int] = []
        new_sign: List[int] = []
        new_key: List[int] = []

        # Parked links unlocked by the new claims.
        retruncate: List[int] = []
        for claim in claims:
            entries = self._pending_links.pop(claim.claim_id, None)
            if entries is None:
                continue
            claim_idx = self._claim_index[claim.claim_id]
            for doc_idx, link_pos, sign in entries:
                new_claim.append(claim_idx)
                new_document.append(doc_idx)
                new_source.append(
                    self._source_index[self._documents[doc_idx].source_id]
                )
                new_sign.append(sign)
                new_key.append(doc_idx * _KEY_BASE + link_pos)
                self._doc_pending_count[doc_idx] -= 1
                retruncate.append(doc_idx)

        if retruncate:
            exposed = list(self._documents)
            for doc_idx in sorted(set(retruncate)):
                full = self._full_documents[doc_idx]
                if self._doc_pending_count[doc_idx] == 0:
                    del self._full_documents[doc_idx]
                    del self._doc_pending_count[doc_idx]
                    exposed[doc_idx] = full
                else:
                    exposed[doc_idx] = self._truncate_document(full)
            self._documents = tuple(exposed)

        # Links of the new documents.
        exposed_new: List[Document] = []
        for offset, document in enumerate(documents):
            doc_idx = num_documents_before + offset
            self._document_index[document.document_id] = doc_idx
            source_idx = self._source_index[document.source_id]
            pending = 0
            for link_pos, link in enumerate(document.claim_links):
                claim_idx = self._claim_index.get(link.claim_id)
                if claim_idx is None:
                    self._pending_links.setdefault(link.claim_id, []).append(
                        (doc_idx, link_pos, link.stance.sign)
                    )
                    pending += 1
                    continue
                new_claim.append(claim_idx)
                new_document.append(doc_idx)
                new_source.append(source_idx)
                new_sign.append(link.stance.sign)
                new_key.append(doc_idx * _KEY_BASE + link_pos)
            if pending:
                self._full_documents[doc_idx] = document
                self._doc_pending_count[doc_idx] = pending
                exposed_new.append(self._truncate_document(document))
            else:
                exposed_new.append(document)
        self._documents = self._documents + tuple(exposed_new)
        self._document_features = document_features

        keys = np.asarray(new_key, dtype=np.int64)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        claim_sorted = np.asarray(new_claim, dtype=np.intp)[order]
        document_sorted = np.asarray(new_document, dtype=np.intp)[order]
        source_sorted = np.asarray(new_source, dtype=np.intp)[order]
        sign_sorted = np.asarray(new_sign, dtype=float)[order]

        insert_at = np.searchsorted(self._clique_key_arr, keys)
        if keys.size:
            new_columns = {
                "claim": claim_sorted,
                "document": document_sorted,
                "source": source_sorted,
                "sign": sign_sorted,
                "key": keys,
            }
            n_new = num_cliques_before + keys.size
            if np.all(insert_at == num_cliques_before):
                # Append-only growth: new documents carry the largest
                # sort keys, so the columns extend in place — amortised
                # O(new cliques) via capacity-doubling buffers.
                if self._clique_buffers["claim"].size < n_new:
                    capacity = max(n_new, 2 * num_cliques_before)
                    for name, buffer in self._clique_buffers.items():
                        grown = np.empty(capacity, dtype=buffer.dtype)
                        grown[:num_cliques_before] = buffer[:num_cliques_before]
                        self._clique_buffers[name] = grown
                for name, column in new_columns.items():
                    self._clique_buffers[name][num_cliques_before:n_new] = column
            else:
                # Mid-array insertion (a parked forward link
                # materialised): pay the full copy, it is rare.
                current = {
                    "claim": self._clique_claim_arr,
                    "document": self._clique_document_arr,
                    "source": self._clique_source_arr,
                    "sign": self._clique_sign_arr,
                    "key": self._clique_key_arr,
                }
                for name, column in new_columns.items():
                    self._clique_buffers[name] = np.insert(
                        current[name], insert_at, column
                    )
            self._clique_claim_arr = self._clique_buffers["claim"][:n_new]
            self._clique_document_arr = self._clique_buffers["document"][:n_new]
            self._clique_source_arr = self._clique_buffers["source"][:n_new]
            self._clique_sign_arr = self._clique_buffers["sign"][:n_new]
            self._clique_key_arr = self._clique_buffers["key"][:n_new]
        new_positions = insert_at + np.arange(keys.size, dtype=insert_at.dtype)
        if sources or documents or claims:
            # New entities shift adjacency sizes even without new cliques.
            self._invalidate_structure_caches()

        return DatabaseDelta(
            num_sources_before=num_sources_before,
            num_documents_before=num_documents_before,
            num_claims_before=num_claims_before,
            num_cliques_before=num_cliques_before,
            insert_at=insert_at,
            new_positions=new_positions,
            new_clique_claim=claim_sorted,
            new_clique_document=document_sorted,
            new_clique_source=source_sorted,
            new_clique_sign=sign_sorted,
            touched_claims=np.unique(claim_sorted),
        )

    def _validate_extension(
        self,
        sources: Sequence[Source],
        documents: Sequence[Document],
        claims: Sequence[Claim],
    ) -> None:
        """Reject invalid growth before mutating anything."""
        seen_sources = set()
        for source in sources:
            if (
                source.source_id in self._source_index
                or source.source_id in seen_sources
            ):
                raise DataModelError(
                    f"duplicate source identifier {source.source_id!r}"
                )
            seen_sources.add(source.source_id)
        seen_claims = set()
        for claim in claims:
            if claim.claim_id in self._claim_index or claim.claim_id in seen_claims:
                raise DataModelError(
                    f"duplicate claim identifier {claim.claim_id!r}"
                )
            seen_claims.add(claim.claim_id)
        seen_documents = set()
        for document in documents:
            if (
                document.document_id in self._document_index
                or document.document_id in seen_documents
            ):
                raise DataModelError(
                    f"duplicate document identifier {document.document_id!r}"
                )
            seen_documents.add(document.document_id)
            if (
                document.source_id not in self._source_index
                and document.source_id not in seen_sources
            ):
                raise DataModelError(
                    f"document {document.document_id!r} references unknown "
                    f"source {document.source_id!r}"
                )
            if not self._allow_pending_links:
                for link in document.claim_links:
                    if (
                        link.claim_id not in self._claim_index
                        and link.claim_id not in seen_claims
                    ):
                        raise DataModelError(
                            f"document {document.document_id!r} references "
                            f"unknown claim {link.claim_id!r}"
                        )

    # ------------------------------------------------------------------
    # Sizes and entity access
    # ------------------------------------------------------------------

    @property
    def num_sources(self) -> int:
        """|S|, the number of sources."""
        return len(self._sources)

    @property
    def num_documents(self) -> int:
        """|D|, the number of documents."""
        return len(self._documents)

    @property
    def num_claims(self) -> int:
        """|C|, the number of claims."""
        return len(self._claims)

    @property
    def num_cliques(self) -> int:
        """|Π|, the number of (source, document, claim) relation factors."""
        return int(self._clique_claim_arr.size)

    @property
    def sources(self) -> Tuple[Source, ...]:
        """All sources, in index order."""
        return self._sources

    @property
    def documents(self) -> Tuple[Document, ...]:
        """All documents, in index order.

        Documents with parked links (``allow_pending_links=True``) are
        exposed truncated to their known claims, exactly as a strict build
        over the current claim set would contain them.
        """
        return self._documents

    @property
    def claims(self) -> Tuple[Claim, ...]:
        """All claims, in index order."""
        return self._claims

    def clique_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Dense clique structure as parallel arrays.

        Returns ``(claim, document, source, stance_sign)`` arrays of length
        ``num_cliques`` — the columnar layout the vectorised inference
        engine builds its cached evidence matrices from.
        """
        return (
            self._clique_claim_arr,
            self._clique_document_arr,
            self._clique_source_arr,
            self._clique_sign_arr,
        )

    @property
    def prior(self) -> float:
        """Initial credibility probability of unlabelled claims."""
        return self._prior

    @property
    def source_features(self) -> np.ndarray:
        """Matrix of source features, shape ``(num_sources, m_S)``."""
        return self._source_features

    @property
    def document_features(self) -> np.ndarray:
        """Matrix of document features, shape ``(num_documents, m_D)``."""
        return self._document_features

    def claim_id(self, index: int) -> str:
        """Identifier of the claim at ``index``."""
        return self._claims[index].claim_id

    def claim_position(self, claim_id: str) -> int:
        """Dense index of ``claim_id``."""
        try:
            return self._claim_index[claim_id]
        except KeyError:
            raise DataModelError(f"unknown claim {claim_id!r}") from None

    def source_position(self, source_id: str) -> int:
        """Dense index of ``source_id``."""
        try:
            return self._source_index[source_id]
        except KeyError:
            raise DataModelError(f"unknown source {source_id!r}") from None

    def document_position(self, document_id: str) -> int:
        """Dense index of ``document_id``."""
        try:
            return self._document_index[document_id]
        except KeyError:
            raise DataModelError(f"unknown document {document_id!r}") from None

    # ------------------------------------------------------------------
    # Claim–source graph (derived lazily from the columnar arrays)
    # ------------------------------------------------------------------

    @derived_cache(
        "graph",
        backing=(
            "_clique_claim_arr",
            "_clique_source_arr",
            "_clique_sign_arr",
            "_clique_buffers",
        ),
        hook="_invalidate_structure_caches",
        storage="_graph_cache",
    )
    def claim_source_graph(self) -> ClaimSourceGraph:
        """The claim–source bipartite graph, built once per structure."""
        if self._graph_cache is None:
            num_sources = max(self.num_sources, 1)
            # Composite (claim, source) key; np.unique sorts it exactly
            # like lexicographic ordering of the pairs.
            keys = self._clique_claim_arr * num_sources + self._clique_source_arr
            unique_keys, inverse = np.unique(keys, return_inverse=True)
            claim = (unique_keys // num_sources).astype(np.intp)
            source = (unique_keys % num_sources).astype(np.intp)
            # An empty weighted bincount comes back as int64.
            stance = np.bincount(
                inverse, weights=self._clique_sign_arr, minlength=unique_keys.size
            ).astype(float, copy=False)
            claim_ptr = np.concatenate(
                ([0], np.cumsum(np.bincount(claim, minlength=self.num_claims)))
            ).astype(np.intp)
            # The (source, claim) keys are distinct, so any sort of them
            # yields the one source-then-claim order.
            source_rows = np.argsort(source * self.num_claims + claim).astype(
                np.intp
            )
            source_ptr = np.concatenate(
                ([0], np.cumsum(np.bincount(source, minlength=self.num_sources)))
            ).astype(np.intp)
            source_cliques = np.bincount(
                self._clique_source_arr, minlength=self.num_sources
            ).astype(float)
            graph = ClaimSourceGraph(
                claim=claim,
                source=source,
                stance=stance,
                claim_ptr=claim_ptr,
                source_rows=source_rows,
                source_ptr=source_ptr,
                source_cliques=source_cliques,
            )
            for array in vars(graph).values():
                array.flags.writeable = False
            self._graph_cache = graph
        return self._graph_cache

    def connected_components(self) -> List[np.ndarray]:
        """Partition claims into CRF connected components (§5.1).

        Two claims are connected when they share a source (sharing a
        document implies sharing its source, so source-sharing subsumes
        document-sharing).  Returns a list of arrays of claim indices,
        ordered by their smallest claim, each ascending; singleton
        components are included.
        """
        parent = list(range(self.num_claims))

        def find(node: int) -> int:
            root = node
            while parent[root] != root:
                root = parent[root]
            while parent[node] != root:
                parent[node], node = root, parent[node]
            return root

        graph = self.claim_source_graph()
        claims = graph.claim[graph.source_rows].tolist()
        ptr = graph.source_ptr.tolist()
        for start, stop in zip(ptr[:-1], ptr[1:]):
            if stop - start < 2:
                continue
            first = find(claims[start])
            for other in claims[start + 1 : stop]:
                parent[find(other)] = first

        groups: Dict[int, List[int]] = {}
        for claim in range(self.num_claims):
            groups.setdefault(find(claim), []).append(claim)
        return [np.asarray(members, dtype=np.intp) for members in groups.values()]

    # ------------------------------------------------------------------
    # Probabilistic state: P, C^L, C^U
    # ------------------------------------------------------------------

    @property
    def probabilities(self) -> np.ndarray:
        """Read-only view of ``P(c)`` for every claim, in index order."""
        view = self._probabilities.view()
        view.flags.writeable = False
        return view

    def probability(self, claim_index: int) -> float:
        """``P(c)`` for the claim at ``claim_index``."""
        return float(self._probabilities[claim_index])

    def set_probabilities(self, values: np.ndarray) -> None:
        """Replace ``P`` for all claims; labelled claims keep their labels.

        Inference writes its marginal estimates here (Eq. 7); labels are
        re-imposed so user input always dominates (§3.2).
        """
        values = np.asarray(values, dtype=float)
        if values.shape != self._probabilities.shape:
            raise DataModelError(
                f"expected {self._probabilities.shape[0]} probabilities, "
                f"got shape {values.shape}"
            )
        if np.any((values < 0) | (values > 1)) or not np.all(np.isfinite(values)):
            raise DataModelError("probabilities must lie in [0, 1]")
        self._probabilities = values.copy()
        for claim_idx, label in self._labels.items():
            self._probabilities[claim_idx] = float(label)

    @mutates("label_arrays")
    def label(self, claim_index: int, value: int) -> None:
        """Record user input for a claim: credible (1) or non-credible (0).

        Sets ``P(c)`` to the label value and moves the claim from C^U to
        C^L.  Re-labelling an already labelled claim is permitted — the
        robustness check of §5.2 repairs suspected mistakes this way.
        """
        if value not in (0, 1):
            raise DataModelError(f"label must be 0 or 1, got {value!r}")
        if not 0 <= claim_index < self.num_claims:
            raise DataModelError(f"claim index {claim_index} out of range")
        self._labels[claim_index] = int(value)
        self._probabilities[claim_index] = float(value)
        self._invalidate_label_arrays()

    @mutates("label_arrays")
    def unlabel(self, claim_index: int) -> None:
        """Remove the user label for a claim, returning it to C^U.

        Used by cross-validation (§6.1) and the robustness check (§5.2),
        which re-infer while holding out some labels.  The probability is
        reset to the database prior.
        """
        if claim_index in self._labels:
            del self._labels[claim_index]
            self._probabilities[claim_index] = self._prior
            self._invalidate_label_arrays()

    def label_of(self, claim_index: int) -> Optional[int]:
        """User label for the claim, or ``None`` when unlabelled."""
        return self._labels.get(claim_index)

    @property
    def labels(self) -> Mapping[int, int]:
        """All user labels, keyed by claim index."""
        return dict(self._labels)

    @derived_cache(
        "label_arrays",
        backing=("_labels",),
        hook="_invalidate_label_arrays",
        storage="_label_arrays",
    )
    def label_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """C^L as parallel ``(indices, values)`` arrays, sorted by index.

        Cached until the label set changes; the inference hot paths use
        this to pin labels with one vectorised assignment instead of
        iterating the label mapping claim by claim.
        """
        if self._label_arrays is None:
            indices = np.asarray(sorted(self._labels), dtype=np.intp)
            values = np.asarray(
                [self._labels[int(i)] for i in indices], dtype=float
            )
            indices.flags.writeable = False
            values.flags.writeable = False
            self._label_arrays = (indices, values)
        return self._label_arrays

    @property
    def labelled_indices(self) -> np.ndarray:
        """C^L as a sorted array of claim indices."""
        return self.label_arrays()[0]

    @property
    def unlabelled_indices(self) -> np.ndarray:
        """C^U as a sorted array of claim indices."""
        mask = np.ones(self.num_claims, dtype=bool)
        if self._labels:
            mask[list(self._labels)] = False
        return np.flatnonzero(mask)

    @property
    def num_labelled(self) -> int:
        """|C^L|, the number of user-validated claims."""
        return len(self._labels)

    def is_labelled(self, claim_index: int) -> bool:
        """Whether the claim has received user input."""
        return claim_index in self._labels

    # ------------------------------------------------------------------
    # Copying
    # ------------------------------------------------------------------

    def clone_state(self) -> "FactDatabaseState":
        """Snapshot the mutable state (probabilities and labels)."""
        return FactDatabaseState(
            probabilities=self._probabilities.copy(), labels=dict(self._labels)
        )

    @mutates("label_arrays")
    def restore_state(self, state: "FactDatabaseState") -> None:
        """Restore a snapshot taken with :meth:`clone_state`."""
        if state.probabilities.shape != self._probabilities.shape:
            raise DataModelError("state snapshot does not match this database")
        self._probabilities = state.probabilities.copy()
        self._labels = dict(state.labels)
        self._invalidate_label_arrays()

    # ------------------------------------------------------------------
    # Ground truth (simulation only)
    # ------------------------------------------------------------------

    def truth_vector(self) -> np.ndarray:
        """Ground-truth credibility of all claims as a 0/1 array.

        Raises:
            DataModelError: If any claim lacks a ground-truth label.  Only
                simulated-user oracles and evaluation metrics call this.
        """
        values = np.empty(self.num_claims, dtype=np.int8)
        for index, claim in enumerate(self._claims):
            if claim.truth is None:
                raise DataModelError(
                    f"claim {claim.claim_id!r} has no ground-truth label"
                )
            values[index] = 1 if claim.truth else 0
        return values

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FactDatabase(sources={self.num_sources}, "
            f"documents={self.num_documents}, claims={self.num_claims}, "
            f"cliques={self.num_cliques}, labelled={self.num_labelled})"
        )


@dataclass
class FactDatabaseState:
    """Snapshot of the mutable part of a :class:`FactDatabase`."""

    probabilities: np.ndarray
    labels: Dict[int, int]


def _index_unique(ids: Iterable[str], kind: str) -> Dict[str, int]:
    """Map identifiers to dense indices, rejecting duplicates."""
    mapping: Dict[str, int] = {}
    for position, identifier in enumerate(ids):
        if identifier in mapping:
            raise DataModelError(f"duplicate {kind} identifier {identifier!r}")
        mapping[identifier] = position
    return mapping


def _stack_features(vectors: List[np.ndarray], kind: str) -> np.ndarray:
    """Stack per-entity feature vectors into a dense matrix."""
    if not vectors:
        return np.zeros((0, 0), dtype=float)
    width = vectors[0].shape[0]
    for vector in vectors:
        if vector.shape[0] != width:
            raise DataModelError(
                f"all {kind} feature vectors must share one dimensionality"
            )
    return np.vstack(vectors) if width else np.zeros((len(vectors), 0), dtype=float)


def _append_features(
    existing: np.ndarray, vectors: List[np.ndarray], kind: str
) -> np.ndarray:
    """Append feature rows to an existing matrix, validating the width.

    A matrix with no rows carries no width information (``(0, 0)``), so the
    first rows define the dimensionality — matching what a from-scratch
    :func:`_stack_features` over the grown entity list would produce.
    """
    rows = _stack_features(vectors, kind)
    if existing.shape[0] == 0:
        return rows
    if rows.shape[1] != existing.shape[1]:
        raise DataModelError(
            f"all {kind} feature vectors must share one dimensionality"
        )
    return np.vstack([existing, rows])
