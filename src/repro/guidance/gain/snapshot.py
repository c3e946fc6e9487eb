"""Read-only database snapshots and hypothetical-label overlay views.

Hypothetical inference asks "what would the marginals be if claim ``c``
were labelled ``v``?"  Answering it by *mutating* the shared
:class:`~repro.data.database.FactDatabase` (pin the label, run the chain,
restore) would make every reader of the database see the hypothesis.

:class:`StateSnapshot` captures the mutable database state (probabilities
and labels) once per batched-gains call; :class:`HypotheticalView` overlays
pinned labels on that snapshot without touching the parent.  A view mimics
the exact read surface the Gibbs sampler and the mean-field fixed point
use — ``probabilities``, ``label_arrays()``, ``labelled_indices`` — and
reproduces, value for value, what :meth:`FactDatabase.label` followed by
those reads would have produced, so overlay-based evaluation is
bit-for-bit interchangeable with mutate-and-restore (the test suite keeps
a mutate-and-restore oracle to prove it).  The structural
arrays (CSR pair tables, clique matrices) are never copied: they live on
the model/database and are shared read-only across all views.
"""

from __future__ import annotations

from typing import Mapping, Optional, Tuple

import numpy as np

from repro.analysis.contracts import derived_cache
from repro.data.database import FactDatabase


class StateSnapshot:
    """Immutable capture of a database's probabilities and labels.

    Shared read-only by every candidate of one batched-gains call, so the
    per-candidate cost of isolation is one overlay, not one database copy.
    """

    #: Runtime-only value object: never checkpointed — snapshots live for
    #: one batched-gains call and are recaptured from the database.
    _STATE_EXCLUDED = (
        "probabilities",
        "label_indices",
        "label_values",
        "labels",
        "num_claims",
    )

    def __init__(
        self,
        probabilities: np.ndarray,
        label_indices: np.ndarray,
        label_values: np.ndarray,
        labels: Mapping[int, int],
    ) -> None:
        self.probabilities = probabilities
        self.label_indices = label_indices
        self.label_values = label_values
        self.labels = dict(labels)
        self.num_claims = int(probabilities.size)

    @classmethod
    def capture(cls, database: FactDatabase) -> "StateSnapshot":
        """Snapshot the database's mutable state (one probabilities copy)."""
        probabilities = np.asarray(database.probabilities, dtype=float).copy()
        probabilities.flags.writeable = False
        label_indices, label_values = database.label_arrays()
        return cls(probabilities, label_indices, label_values, database.labels)

    def label_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """C^L as parallel sorted ``(indices, values)`` arrays."""
        return self.label_indices, self.label_values


class HypotheticalView:
    """A snapshot with hypothetical labels pinned, parent left untouched.

    Args:
        snapshot: The shared base state.
        pins: Hypothetical ``{claim_index: value}`` labels overlaid on
            the snapshot — typically one pin per gain candidate, several
            for the exact batch-gain enumeration of §6.2.

    The derived arrays are materialised lazily and cached: the backing
    snapshot and pins are immutable for the life of the view, so the
    caches can never go stale.
    """

    #: Runtime-only value object (see :class:`StateSnapshot`).
    _STATE_EXCLUDED = ("_snapshot", "_pins", "_probabilities", "_label_arrays")

    def __init__(
        self, snapshot: StateSnapshot, pins: Optional[Mapping[int, int]] = None
    ) -> None:
        self._snapshot = snapshot
        self._pins = {int(c): int(v) for c, v in (pins or {}).items()}
        self._probabilities: Optional[np.ndarray] = None
        self._label_arrays: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def num_claims(self) -> int:
        return self._snapshot.num_claims

    @derived_cache(
        "view_probabilities",
        backing=("_snapshot", "_pins"),
        storage="_probabilities",
    )
    def _materialize_probabilities(self) -> np.ndarray:
        if self._probabilities is None:
            values = self._snapshot.probabilities.copy()
            for claim, value in self._pins.items():
                # Mirrors FactDatabase.label: P(c) becomes the label value.
                values[claim] = float(value)
            values.flags.writeable = False
            self._probabilities = values
        return self._probabilities

    @property
    def probabilities(self) -> np.ndarray:
        """Snapshot probabilities with the pinned labels imposed."""
        if not self._pins:
            return self._snapshot.probabilities
        return self._materialize_probabilities()

    @derived_cache(
        "view_label_arrays",
        backing=("_snapshot", "_pins"),
        storage="_label_arrays",
    )
    def label_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Sorted ``(indices, values)`` arrays of labels plus pins.

        Byte-compatible with :meth:`FactDatabase.label_arrays` after
        labelling the pinned claims: same sort order, same dtypes.
        """
        if not self._pins:
            return self._snapshot.label_arrays()
        if self._label_arrays is None:
            merged = dict(self._snapshot.labels)
            merged.update(self._pins)
            indices = np.asarray(sorted(merged), dtype=np.intp)
            values = np.asarray(
                [merged[int(i)] for i in indices], dtype=float
            )
            indices.flags.writeable = False
            values.flags.writeable = False
            self._label_arrays = (indices, values)
        return self._label_arrays

    @property
    def labelled_indices(self) -> np.ndarray:
        return self.label_arrays()[0]

    @property
    def unlabelled_indices(self) -> np.ndarray:
        mask = np.ones(self.num_claims, dtype=bool)
        labelled = self.labelled_indices
        if labelled.size:
            mask[labelled] = False
        return np.flatnonzero(mask)
