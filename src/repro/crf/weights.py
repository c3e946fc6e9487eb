"""Parameters W of the log-linear CRF (Eq. 2).

The paper's potential is ``log φ(c=o(c), d, s; W) = w_{π,o(c)} +
Σ w^D_t f^D_t(d) + Σ w^S_t f^S_t(s)``, with one weight set per clique in
the most general formulation.  As discussed in DESIGN.md we *tie* weights
across cliques (the paper's own single-logistic-regression M-step implies
the same): because only the difference ``log φ(c=1, ·) - log φ(c=0, ·)``
enters the conditional distribution of a claim, the tied model is fully
described by

* one weight per clique-feature dimension ``[bias, f^D, f^S]``, and
* one *coupling* weight for the indirect relation — the influence of a
  source's agreement with the rest of the current configuration (§3.1's
  "indirect relation", realised through the Markov blanket in Gibbs
  sampling).

The coupling weight is learned like any other: the M-step design matrix
carries the trust signal as its last column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InferenceError


@dataclass
class CrfWeights:
    """Tied CRF weights: clique-feature weights plus the coupling weight.

    Attributes:
        values: Weight vector of length ``2 + m_D + m_S``; layout is
            ``[bias, w^D (m_D entries), w^S (m_S entries), coupling]``.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float).copy()
        if self.values.ndim != 1 or self.values.size < 2:
            raise InferenceError(
                "weights must be a vector [bias, w_D..., w_S..., coupling]"
            )
        if not np.all(np.isfinite(self.values)):
            raise InferenceError("weights must be finite")

    @classmethod
    def zeros(cls, num_document_features: int, num_source_features: int,
              coupling: float = 0.0) -> "CrfWeights":
        """Neutral weights (uniform potentials, maximum entropy, §8.1)."""
        size = 2 + num_document_features + num_source_features
        values = np.zeros(size)
        values[-1] = coupling
        return cls(values)

    @property
    def size(self) -> int:
        """Total number of parameters."""
        return int(self.values.size)

    @property
    def feature_weights(self) -> np.ndarray:
        """Weights applied to the clique feature map ``[1, f^D, f^S]``."""
        return self.values[:-1]

    @property
    def bias(self) -> float:
        """The configuration bias ``w_{π,1} - w_{π,0}``."""
        return float(self.values[0])

    @property
    def coupling(self) -> float:
        """Weight of the source-agreement (indirect-relation) signal."""
        return float(self.values[-1])

    def copy(self) -> "CrfWeights":
        """Deep copy."""
        return CrfWeights(self.values.copy())

    def to_list(self) -> list:
        """JSON form: the weight vector as a plain list."""
        return self.values.tolist()

    @classmethod
    def from_list(cls, values: list) -> "CrfWeights":
        """Inverse of :meth:`to_list`."""
        return cls(np.asarray(values, dtype=float))

    def distance(self, other: "CrfWeights") -> float:
        """Euclidean distance to another weight vector (EM convergence)."""
        if other.size != self.size:
            raise InferenceError("weight vectors must have equal length")
        return float(np.linalg.norm(self.values - other.values))
