"""Groundings: trusted sets of facts (§2.1, §3.3).

A grounding ``g : C -> {0, 1}`` labels every claim credible or
non-credible.  The validation process produces one grounding per iteration
(the *validation sequence* of §2.2); :class:`Grounding` is an immutable
value object over the dense claim indexing of a
:class:`~repro.data.database.FactDatabase`.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Optional

import numpy as np

from repro.errors import DataModelError


class Grounding:
    """An assignment of credibility values to all claims.

    Args:
        values: 0/1 value per claim, in database index order.
    """

    __slots__ = ("_values",)

    def __init__(self, values) -> None:
        array = np.asarray(values)
        if array.ndim != 1:
            raise DataModelError(
                f"grounding must be one-dimensional, got shape {array.shape}"
            )
        if array.size == 0:
            raise DataModelError("grounding must cover at least one claim")
        if not np.all(np.isin(array, (0, 1))):
            raise DataModelError("grounding values must be 0 or 1")
        self._values = array.astype(np.int8)
        self._values.setflags(write=False)

    @classmethod
    def from_probabilities(cls, probabilities, threshold: float = 0.5) -> "Grounding":
        """Threshold claim probabilities into a grounding.

        This is the straight-forward instantiation mentioned in §2.3
        (``g(c) = 1  iff  P(c) >= threshold``); the full process instead
        uses the sample-based ``decide`` function of Eq. 10, implemented in
        :func:`repro.inference.decide.decide_grounding`.
        """
        probabilities = np.asarray(probabilities, dtype=float)
        if not 0.0 <= threshold <= 1.0:
            raise DataModelError(f"threshold must be in [0, 1], got {threshold!r}")
        return cls((probabilities >= threshold).astype(np.int8))

    @property
    def values(self) -> np.ndarray:
        """Read-only 0/1 array, one entry per claim."""
        return self._values

    def to_list(self) -> list:
        """JSON form: the 0/1 values as a plain list."""
        return self._values.tolist()

    @classmethod
    def from_list(cls, values: list) -> "Grounding":
        """Inverse of :meth:`to_list`."""
        return cls(values)

    @property
    def num_claims(self) -> int:
        """Number of claims covered by the grounding."""
        return int(self._values.size)

    def __len__(self) -> int:
        return self.num_claims

    def __getitem__(self, claim_index: int) -> int:
        return int(self._values[claim_index])

    def __iter__(self) -> Iterator[int]:
        return iter(int(v) for v in self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Grounding):
            return NotImplemented
        return np.array_equal(self._values, other._values)

    def __hash__(self) -> int:
        return hash(self._values.tobytes())

    def credible_indices(self) -> np.ndarray:
        """Indices of claims labelled credible."""
        return np.flatnonzero(self._values == 1)

    def num_credible(self) -> int:
        """Number of claims labelled credible."""
        return int(self._values.sum())

    def differences(self, other: "Grounding") -> int:
        """|{c | g(c) != g'(c)}| — the CNG convergence signal of §6.1."""
        self._check_compatible(other)
        return int(np.count_nonzero(self._values != other._values))

    def precision(self, truth) -> float:
        """Fraction of claims whose value matches the ground truth.

        This is the paper's precision measure (§8.1):
        ``P_i = |{c | g_i(c) = g*(c)}| / |C|`` — agreement over *all*
        claims, not the information-retrieval notion.
        """
        truth = np.asarray(truth)
        self._check_length(truth.size)
        return float(np.count_nonzero(self._values == truth) / self._values.size)

    def as_mapping(self, claim_ids) -> Mapping[str, int]:
        """Render the grounding as ``{claim_id: value}``."""
        claim_ids = list(claim_ids)
        self._check_length(len(claim_ids))
        return {cid: int(v) for cid, v in zip(claim_ids, self._values)}

    def replace(self, claim_index: int, value: int) -> "Grounding":
        """Return a copy with one claim's value changed."""
        if value not in (0, 1):
            raise DataModelError(f"grounding values must be 0 or 1, got {value!r}")
        values = self._values.copy()
        values[claim_index] = value
        return Grounding(values)

    def _check_compatible(self, other: "Grounding") -> None:
        self._check_length(other.num_claims)

    def _check_length(self, size: int) -> None:
        if size != self._values.size:
            raise DataModelError(
                f"expected {self._values.size} claims, got {size}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Grounding(claims={self.num_claims}, credible={self.num_credible()})"
        )


def precision_improvement(precision: float, initial_precision: float) -> Optional[float]:
    """Relative precision improvement R_i = (P_i - P_0) / (1 - P_0) (§8.1).

    Returns ``None`` when the initial precision is already 1 (no headroom).
    """
    if not 0.0 <= precision <= 1.0:
        raise ValueError(f"precision must be in [0, 1], got {precision!r}")
    if not 0.0 <= initial_precision <= 1.0:
        raise ValueError(
            f"initial_precision must be in [0, 1], got {initial_precision!r}"
        )
    if initial_precision >= 1.0:
        return None
    return (precision - initial_precision) / (1.0 - initial_precision)
