"""The claim state of one session: ``P`` and the labels ``C^L`` (§2.1, §3.2).

A :class:`~repro.data.database.FactDatabase` is the fixed part of
``Q = <S, D, C, P>``; a :class:`ClaimState` is the part a session changes,
keyed by dense claim index, so any number of states can share one
database.  A "what if" is asked of a :meth:`ClaimState.copy`.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.analysis.contracts import derived_cache, mutates
from repro.errors import DataModelError


class ClaimState:
    """Credibility probabilities and user labels over ``num_claims`` claims.

    Args:
        num_claims: Claims of the database the state describes.
        prior: The probability every claim starts at, and returns to when
            its label is removed.
    """

    def __init__(self, num_claims: int, prior: float = 0.5) -> None:
        if not 0.0 <= prior <= 1.0:
            raise DataModelError(f"prior must be in [0, 1], got {prior!r}")
        self._prior = float(prior)
        self._probabilities = np.full(int(num_claims), self._prior, dtype=float)
        self._labels: Dict[int, int] = {}
        self._label_arrays: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @classmethod
    def of(cls, database) -> "ClaimState":
        """A fresh state over ``database``: every claim at its prior."""
        return cls(database.num_claims, database.prior)

    @classmethod
    def from_dict(cls, payload: Mapping, prior: float = 0.5) -> "ClaimState":
        """The state a :meth:`to_dict` payload describes."""
        state = cls(0, prior)
        state._probabilities = np.asarray(payload["probabilities"], dtype=float)
        state._labels = {int(i): int(v) for i, v in payload["labels"].items()}
        return state

    def to_dict(self) -> dict:
        """JSON-compatible ``{"probabilities", "labels"}`` (checkpoint layout)."""
        return {
            "probabilities": self._probabilities.tolist(),
            "labels": {str(i): int(v) for i, v in self._labels.items()},
        }

    def copy(self) -> "ClaimState":
        """An independent state with the same probabilities and labels."""
        twin = ClaimState(0, self._prior)
        twin._probabilities = self._probabilities.copy()
        twin._labels = dict(self._labels)
        twin._label_arrays = self._label_arrays
        return twin

    def grow(self, count: int) -> None:
        """Append ``count`` unlabelled claims at the prior (streaming arrivals)."""
        if count:
            self._probabilities = np.concatenate(
                [self._probabilities, np.full(int(count), self._prior)]
            )

    @property
    def num_claims(self) -> int:
        """|C|, the claims the state covers."""
        return int(self._probabilities.size)

    @property
    def prior(self) -> float:
        """Probability of a claim that is unlabelled and not yet inferred."""
        return self._prior

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
        """Replace ``P`` for all claims (the E-step's marginals, Eq. 7);
        labelled claims keep their labels, so user input dominates (§3.2)."""
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
        C^L.  Re-labelling is permitted: the robustness check of §5.2
        repairs suspected mistakes this way.
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
        """Return a claim to C^U at the prior (the leave-one-out check of
        §5.2 does this on a :meth:`copy`)."""
        if claim_index in self._labels:
            del self._labels[claim_index]
            self._probabilities[claim_index] = self._prior
            self._invalidate_label_arrays()

    def _invalidate_label_arrays(self) -> None:
        self._label_arrays = None

    def label_of(self, claim_index: int) -> Optional[int]:
        """User label for the claim, or ``None`` when unlabelled."""
        return self._labels.get(claim_index)

    @property
    def labels(self) -> Mapping[int, int]:
        """All user labels, keyed by claim index, in labelling order."""
        return dict(self._labels)

    @derived_cache(
        "label_arrays",
        backing=("_labels",),
        hook="_invalidate_label_arrays",
        storage="_label_arrays",
    )
    def label_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """C^L as read-only ``(indices, values)`` arrays sorted by index,
        cached until the labels change; hot paths pin labels with it."""
        if self._label_arrays is None:
            indices = np.asarray(sorted(self._labels), dtype=np.intp)
            values = np.asarray([self._labels[int(i)] for i in indices], dtype=float)
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
        mask[self.labelled_indices] = False
        return np.flatnonzero(mask)

    @property
    def num_labelled(self) -> int:
        """|C^L|, the number of user-validated claims."""
        return len(self._labels)

    def is_labelled(self, claim_index: int) -> bool:
        """Whether the claim has received user input."""
        return claim_index in self._labels

    def __repr__(self) -> str:
        return f"ClaimState(claims={self.num_claims}, labelled={self.num_labelled})"
