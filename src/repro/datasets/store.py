"""Generated databases shared by every session on one dataset spec.

Generating a synthetic corpus and building its
:class:`~repro.data.database.FactDatabase` takes from about a tenth of a
second (wiki ×0.4) to over a second (wiki ×5).  A strict database is
read-only, so sessions on one spec read one: it holds the corpus's only
copy of its sources, documents and claims, with its derived caches, and
each session keeps only its own :class:`~repro.data.state.ClaimState`.  A
stream source replays the same database's entities.

:func:`shared_database` keeps one database per key, held weakly: a
database lives as long as some holder references it and is built again
after the last holder lets go.  Each key is built once, under a lock of
its own, so a slow build never blocks callers that want another key.
"""

from __future__ import annotations

import threading
import weakref
from typing import Callable

from repro.data.database import FactDatabase

_DATABASES: "weakref.WeakValueDictionary[str, FactDatabase]" = (
    weakref.WeakValueDictionary()
)
# The build lock of each key, held weakly too: it lives while some caller
# builds the key or waits for its build.
_BUILD_LOCKS: "weakref.WeakValueDictionary[str, threading.Lock]" = (
    weakref.WeakValueDictionary()
)
_STORE_LOCK = threading.Lock()


def shared_database(key: str, build: Callable[[], FactDatabase]) -> FactDatabase:
    """The process-wide database stored under ``key``, built on first use.

    Args:
        key: Identifies the database; equal keys must describe equal
            corpora (a dataset spec's canonical JSON).
        build: Builds the database when no live one has ``key``; a build
            that raises leaves the key empty for the next caller.
    """
    with _STORE_LOCK:
        database = _DATABASES.get(key)
        if database is not None:
            return database
        lock = _BUILD_LOCKS.setdefault(key, threading.Lock())
    # Build outside the store's lock, so other keys are not held up.
    with lock:
        with _STORE_LOCK:
            database = _DATABASES.get(key)
        if database is None:
            database = build()
            with _STORE_LOCK:
                _DATABASES[key] = database
    return database
