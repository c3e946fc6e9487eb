"""Information-gain evaluation for user guidance (§4.2–§4.3, §5.1).

The package splits the gain machinery into focused modules:

* :mod:`.config` — :class:`GainConfig` and the mode/method registries.
* :mod:`.snapshot` — :class:`StateSnapshot` / :class:`HypotheticalView`,
  the read-only state captures that let hypothetical labels be evaluated
  without mutating the shared database.
* :mod:`.estimator` — :class:`GainEstimator` itself and the
  marginal-entropy candidate ranking.
"""

from repro.guidance.gain.config import (
    ENTROPY_METHODS,
    INFERENCE_MODES,
    GainConfig,
)
from repro.guidance.gain.estimator import GainEstimator, marginal_entropy_ranking
from repro.guidance.gain.snapshot import HypotheticalView, StateSnapshot

__all__ = [
    "ENTROPY_METHODS",
    "GainConfig",
    "GainEstimator",
    "HypotheticalView",
    "INFERENCE_MODES",
    "StateSnapshot",
    "marginal_entropy_ranking",
]
