"""The structure of the probabilistic fact database ``Q = <S, D, C, P>`` (§2.1).

:class:`FactDatabase` holds the fixed part of the fact-checking setting —
sources, documents, claims, and the (source, document, claim) cliques of the
CRF (§3.1) — and what is derived from it alone: the claim–source graph and
the component index.  The part that changes
while a session runs, ``P`` and the labels ``C^L``/``C^U`` (§3.2), is a
:class:`~repro.data.state.ClaimState`, so every session on one corpus can
read one database.

Structure is index-based internally (claims, documents and sources are dense
integer indices) for numerical efficiency, while the public API accepts and
returns string identifiers.

Two construction modes exist:

* strict (default): every claim link must reference a known claim, and the
  structure is fixed after construction (its arrays are read-only);
* ``allow_pending_links=True``: links to not-yet-known claims are *parked*
  instead of rejected, and :meth:`FactDatabase.extend` grows the database
  in place as new entities arrive — the incremental backbone of the
  streaming process (§7).  Parked links materialise as cliques the moment
  their claim arrives, at exactly the position a from-scratch build would
  have put them, so the columnar clique arrays of a grown database are
  bit-for-bit identical to those of a freshly constructed one.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.contracts import derived_cache, mutates
from repro.data.entities import Claim, Document, Source
from repro.errors import DataModelError

if TYPE_CHECKING:
    from repro.crf.partition import ComponentIndex

#: Cliques are kept sorted by ``document_index * _KEY_BASE + link_position``,
#: the enumeration order of a from-scratch build.  2**32 bounds the number of
#: claim links per document, far beyond anything a real corpus produces.
_KEY_BASE = 2**32

#: The clique columns, in the order of a clique row
#: ``(claim, document, source, stance sign, sort key)``.
_COLUMNS = ("claim", "document", "source", "sign", "key")


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
    :func:`numpy.insert`), sorted, matching the key order of the new
    cliques.
    """

    num_cliques_before: int
    insert_at: np.ndarray
    new_clique_claim: np.ndarray
    new_clique_document: np.ndarray
    new_clique_source: np.ndarray
    new_clique_sign: np.ndarray
    touched_claims: np.ndarray

    @property
    def num_new_cliques(self) -> int:
        return int(self.new_clique_claim.size)


class FactDatabase:
    """Structure of a fact-checking instance.

    Args:
        sources: All sources; feature vectors must share one dimensionality.
        documents: All documents; each must reference a known source.
        claims: All claims.
        prior: Credibility probability every claim of a fresh
            :class:`~repro.data.state.ClaimState` starts at.  The paper
            initialises with 0.5 following the maximum-entropy principle
            (§8.1).
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
        # Derived structure, built on demand under the lock and dropped on
        # extend().
        self._lock = threading.RLock()
        self._graph_cache: Optional[ClaimSourceGraph] = None
        self._component_cache: Optional["ComponentIndex"] = None
        self._build_cliques()
        self._prior = float(prior)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @mutates("graph", "components")
    def _build_cliques(self) -> None:
        rows: List[Tuple[int, int, int, int, int]] = []
        exposed: List[Document] = []
        for doc_idx, document in enumerate(self._documents):
            source_idx = self._source_index.get(document.source_id)
            if source_idx is None:
                raise DataModelError(
                    f"document {document.document_id!r} references unknown "
                    f"source {document.source_id!r}"
                )
            exposed.append(self._link_document(doc_idx, document, source_idx, rows))
        self._documents = tuple(exposed)
        columns = _clique_columns(rows)
        (
            self._clique_claim_arr,
            self._clique_document_arr,
            self._clique_source_arr,
            self._clique_sign_arr,
            self._clique_key_arr,
        ) = columns
        if not self._allow_pending_links:
            for array in (self._source_features, self._document_features, *columns):
                array.flags.writeable = False
        # Capacity buffers behind the exposed arrays: append-only growth
        # (the common streaming case) writes into spare tail capacity
        # instead of copying every column per arrival.  The exposed
        # ``_clique_*_arr`` attributes are always exact-length views.
        self._clique_buffers = dict(zip(_COLUMNS, columns))
        self._invalidate_structure_caches()

    def _link_document(
        self,
        doc_idx: int,
        document: Document,
        source_idx: int,
        rows: List[Tuple[int, int, int, int, int]],
    ) -> Document:
        """Append a document's links to known claims to ``rows`` and park
        the others; return the document as exposed (truncated while it has
        parked links)."""
        pending = 0
        for link_pos, link in enumerate(document.claim_links):
            claim_idx = self._claim_index.get(link.claim_id)
            if claim_idx is not None:
                rows.append(
                    (claim_idx, doc_idx, source_idx, link.stance.sign,
                     doc_idx * _KEY_BASE + link_pos)
                )
                continue
            if not self._allow_pending_links:
                raise DataModelError(
                    f"document {document.document_id!r} references "
                    f"unknown claim {link.claim_id!r}"
                )
            self._pending_links.setdefault(link.claim_id, []).append(
                (doc_idx, link_pos, link.stance.sign)
            )
            pending += 1
        if not pending:
            return document
        self._full_documents[doc_idx] = document
        self._doc_pending_count[doc_idx] = pending
        return self._truncate_document(document)

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
        self._component_cache = None

    # ------------------------------------------------------------------
    # Incremental growth (§7)
    # ------------------------------------------------------------------

    @mutates("graph", "components")
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
        corpus.  Only a database built with ``allow_pending_links=True``
        grows; the states over it grow with
        :meth:`~repro.data.state.ClaimState.grow`.

        Returns:
            A :class:`DatabaseDelta` describing the growth, for patching
            downstream caches.

        Raises:
            DataModelError: On a strict database, whose structure is fixed
                (and may be shared by many sessions); on identifier
                collisions, dangling references, or inconsistent feature
                dimensionalities.  Validation happens before any mutation.
        """
        if not self._allow_pending_links:
            raise DataModelError(
                "a strict fact database is fixed after construction; build "
                "it with allow_pending_links=True to grow it"
            )
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

        rows: List[Tuple[int, int, int, int, int]] = []
        # Parked links unlocked by the new claims.
        retruncate: List[int] = []
        for claim in claims:
            entries = self._pending_links.pop(claim.claim_id, None)
            if entries is None:
                continue
            claim_idx = self._claim_index[claim.claim_id]
            for doc_idx, link_pos, sign in entries:
                source_idx = self._source_index[self._documents[doc_idx].source_id]
                key = doc_idx * _KEY_BASE + link_pos
                rows.append((claim_idx, doc_idx, source_idx, sign, key))
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
            exposed_new.append(self._link_document(doc_idx, document, source_idx, rows))
        self._documents = self._documents + tuple(exposed_new)
        self._document_features = document_features

        columns = _clique_columns(rows)
        order = np.argsort(columns[-1], kind="stable")
        new_columns = {name: column[order] for name, column in zip(_COLUMNS, columns)}
        keys = new_columns["key"]
        insert_at = np.searchsorted(self._clique_key_arr, keys)
        if keys.size:
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
                for name, column in new_columns.items():
                    current = self._clique_buffers[name][:num_cliques_before]
                    self._clique_buffers[name] = np.insert(current, insert_at, column)
            self._clique_claim_arr = self._clique_buffers["claim"][:n_new]
            self._clique_document_arr = self._clique_buffers["document"][:n_new]
            self._clique_source_arr = self._clique_buffers["source"][:n_new]
            self._clique_sign_arr = self._clique_buffers["sign"][:n_new]
            self._clique_key_arr = self._clique_buffers["key"][:n_new]
        if sources or documents or claims:
            # New entities shift adjacency sizes even without new cliques.
            self._invalidate_structure_caches()

        return DatabaseDelta(
            num_cliques_before=num_cliques_before,
            insert_at=insert_at,
            new_clique_claim=new_columns["claim"],
            new_clique_document=new_columns["document"],
            new_clique_source=new_columns["source"],
            new_clique_sign=new_columns["sign"],
            touched_claims=np.unique(new_columns["claim"]),
        )

    def _validate_extension(
        self,
        sources: Sequence[Source],
        documents: Sequence[Document],
        claims: Sequence[Claim],
    ) -> None:
        """Reject invalid growth before mutating anything."""
        new_sources = _new_ids(sources, "source_id", self._source_index, "source")
        _new_ids(claims, "claim_id", self._claim_index, "claim")
        _new_ids(documents, "document_id", self._document_index, "document")
        for document in documents:
            if (
                document.source_id not in self._source_index
                and document.source_id not in new_sources
            ):
                raise DataModelError(
                    f"document {document.document_id!r} references unknown "
                    f"source {document.source_id!r}"
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
    def given_documents(self) -> Tuple[Document, ...]:
        """All documents as they were given, in index order: :attr:`documents`
        with the parked links of truncated documents restored."""
        if not self._full_documents:
            return self._documents
        return tuple(
            self._full_documents.get(index, document)
            for index, document in enumerate(self._documents)
        )

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
        """Credibility probability a fresh claim state starts at."""
        return self._prior

    @property
    def source_features(self) -> np.ndarray:
        """Matrix of source features, shape ``(num_sources, m_S)``."""
        return self._source_features

    @property
    def document_features(self) -> np.ndarray:
        """Matrix of document features, shape ``(num_documents, m_D)``."""
        return self._document_features

    def knows(self, kind: str, identifier: str) -> bool:
        """Whether the database holds the ``kind`` (``"source"``,
        ``"document"`` or ``"claim"``) with ``identifier``."""
        return identifier in getattr(self, f"_{kind}_index")

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
    # Derived structure (built lazily, shared by every reader)
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
        """The claim–source bipartite graph, built once per structure
        (under the lock, so every reader gets the same object)."""
        if self._graph_cache is None:
            with self._lock:
                if self._graph_cache is None:
                    self._graph_cache = self._build_claim_source_graph()
        return self._graph_cache

    @derived_cache(
        "components",
        backing=(
            "_clique_claim_arr",
            "_clique_source_arr",
            "_clique_sign_arr",
            "_clique_buffers",
        ),
        hook="_invalidate_structure_caches",
        storage="_component_cache",
    )
    def component_index(self) -> "ComponentIndex":
        """The :class:`~repro.crf.partition.ComponentIndex` of this
        structure, built once like :meth:`claim_source_graph`."""
        from repro.crf.partition import ComponentIndex

        if self._component_cache is None:
            with self._lock:
                if self._component_cache is None:
                    self._component_cache = ComponentIndex(self)
        return self._component_cache

    def _build_claim_source_graph(self) -> ClaimSourceGraph:
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
        return graph

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
            f"cliques={self.num_cliques})"
        )


def _index_unique(ids: Iterable[str], kind: str) -> Dict[str, int]:
    """Map identifiers to dense indices, rejecting duplicates."""
    mapping: Dict[str, int] = {}
    for position, identifier in enumerate(ids):
        if identifier in mapping:
            raise DataModelError(f"duplicate {kind} identifier {identifier!r}")
        mapping[identifier] = position
    return mapping


def _new_ids(entities: Sequence, key: str, known: Dict[str, int], kind: str) -> set:
    """The identifiers of ``entities``, checked to be new and distinct."""
    seen: set = set()
    for entity in entities:
        identifier = getattr(entity, key)
        if identifier in known or identifier in seen:
            raise DataModelError(f"duplicate {kind} identifier {identifier!r}")
        seen.add(identifier)
    return seen


def _clique_columns(rows: List[Tuple[int, ...]]) -> Tuple[np.ndarray, ...]:
    """The :data:`_COLUMNS` arrays of clique rows, each contiguous."""
    table = np.asarray(rows, dtype=np.int64).reshape(-1, len(_COLUMNS))
    claim, document, source, sign, key = table.T
    return (
        claim.astype(np.intp),
        document.astype(np.intp),
        source.astype(np.intp),
        sign.astype(float),
        key.copy(),
    )


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
