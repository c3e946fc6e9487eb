"""Generated corpora shared by every session on one dataset spec.

Generating a synthetic corpus takes from about a tenth of a second
(wiki ×0.4) to over a second (wiki ×5), and building its
:class:`~repro.data.database.FactDatabase` tens of milliseconds more.
Entities are immutable and a strict database is read-only, so sessions on
one spec share both: :meth:`Corpus.database` builds the structure once and
keeps it with its derived caches; each session keeps only its own
:class:`~repro.data.state.ClaimState`.  A stream source reads only the
entities and :meth:`Corpus.arrivals`.

:func:`shared_corpus` keeps one :class:`Corpus` per key, held weakly: a
corpus lives as long as some holder references it and is generated again
after the last holder lets go.  Each corpus generates its entities once,
under its own lock, so a slow generation never blocks callers that want a
different corpus.
"""

from __future__ import annotations

import threading
import weakref
from typing import Callable, Optional, Tuple

from repro.data.database import FactDatabase
from repro.data.entities import Claim, Document, Source

#: ``(sources, documents, claims)`` of one corpus.
Entities = Tuple[Tuple[Source, ...], Tuple[Document, ...], Tuple[Claim, ...]]


class Corpus:
    """The immutable entities of one corpus and what is derived from them.

    Each part is built on first use and never changes afterwards.

    Args:
        generate: Produces ``(sources, documents, claims)``; called at most
            once.
    """

    def __init__(self, generate: Callable[[], Entities]) -> None:
        self._generate: Optional[Callable[[], Entities]] = generate
        # Re-entrant: database() and arrivals() read the entities under it.
        self._lock = threading.RLock()
        self._entities: Optional[Entities] = None
        self._database: Optional[FactDatabase] = None
        self._arrivals: Optional[tuple] = None

    @classmethod
    def of_database(cls, database: FactDatabase) -> "Corpus":
        """The corpus of an existing database, which it serves as is."""
        entities = (database.sources, database.documents, database.claims)
        corpus = cls(lambda: entities)
        corpus._database = database
        return corpus

    def _built(self) -> Entities:
        with self._lock:
            if self._entities is None:
                sources, documents, claims = self._generate()
                self._entities = (tuple(sources), tuple(documents), tuple(claims))
                self._generate = None
            return self._entities

    @property
    def sources(self) -> Tuple[Source, ...]:
        return self._built()[0]

    @property
    def documents(self) -> Tuple[Document, ...]:
        return self._built()[1]

    @property
    def claims(self) -> Tuple[Claim, ...]:
        return self._built()[2]

    def database(self) -> FactDatabase:
        """The structure over the entities, built once and shared by every
        session on the corpus."""
        with self._lock:
            if self._database is None:
                self._database = FactDatabase(*self._built())
            return self._database

    def arrivals(self) -> tuple:
        """The corpus replayed in posting order, as one shared sequence
        (:func:`~repro.streaming.stream.stream_from_database`)."""
        from repro.streaming.stream import stream_from_database

        with self._lock:
            if self._arrivals is None:
                self._arrivals = tuple(stream_from_database(self))
            return self._arrivals


_CORPORA: "weakref.WeakValueDictionary[str, Corpus]" = weakref.WeakValueDictionary()
_CORPORA_LOCK = threading.Lock()


def shared_corpus(key: str, generate: Callable[[], Entities]) -> Corpus:
    """The process-wide corpus stored under ``key``, generated on first use.

    Args:
        key: Identifies the corpus; equal keys must describe equal entities
            (a dataset spec's canonical JSON).
        generate: Produces the entities when no live corpus has ``key``.
    """
    with _CORPORA_LOCK:
        corpus = _CORPORA.get(key)
        if corpus is None:
            corpus = _CORPORA[key] = Corpus(generate)
    # Generate outside the store's lock, so other keys are not held up.
    corpus._built()
    return corpus
