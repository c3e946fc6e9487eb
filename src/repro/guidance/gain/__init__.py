"""Information-gain evaluation for user guidance (§4.2–§4.3, §5.1).

The package splits the gain machinery into focused modules:

* :mod:`.config` — :class:`GainConfig` and the mode/method registries.
* :mod:`.estimator` — :class:`GainEstimator` itself and the
  marginal-entropy candidate ranking.  A hypothetical label is a row of
  starting marginals plus a held mask, never a change to the session's
  claim state.
"""

from repro.guidance.gain.config import (
    ENTROPY_METHODS,
    INFERENCE_MODES,
    GainConfig,
)
from repro.guidance.gain.estimator import GainEstimator, marginal_entropy_ranking

__all__ = [
    "ENTROPY_METHODS",
    "GainConfig",
    "GainEstimator",
    "INFERENCE_MODES",
    "marginal_entropy_ranking",
]
