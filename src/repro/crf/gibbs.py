"""Gibbs sampling over claim configurations (§3.2, E-step).

The E-step of iCRF estimates credibility probabilities as the fraction of
Gibbs samples in which each claim is credible (Eq. 7) and keeps the most
frequent sampled configuration for grounding instantiation (Eq. 10).

Two properties requested by the paper are built in:

* **Constraint handling** — user-labelled claims are pinned to their label
  during sampling, and the opposing-variable non-equality constraint
  (Eq. 3) is enforced structurally through stance signs (a refuting
  document contributes inverted evidence), so no sampled configuration can
  violate it.  What is held is an argument of :meth:`GibbsSampler.sample`
  (a start vector and the held claims — a session's probabilities and
  labels, or a hypothesis row), so the sampler never reads claim state
  of its own.
* **View maintenance / warm starts** — the sampler keeps its chain state
  across invocations, so iteration ``z`` of the validation process resumes
  from iteration ``z-1``'s state instead of re-mixing from scratch; this is
  the "maintaining a set of Gibbs samples over time" of §3.2.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Optional, TYPE_CHECKING, Union

import numpy as np

from repro.crf.model import CrfModel
from repro.errors import InferenceError
from repro.utils.rng import RandomState, ensure_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.inference.engine import InferenceEngine
    from repro.inference.engine.base import EngineFactory


@dataclass
class GibbsResult:
    """Outcome of one sampling pass.

    Attributes:
        marginals: Per-claim credibility estimates (Eq. 7); labelled claims
            carry their label value.
        mode_configuration: The most frequent sampled configuration — the
            sample-based argmax of Eq. 10.
        num_samples: Number of recorded samples.
        configuration_counts: Multiplicity of each sampled configuration,
            keyed by the packed byte representation.
    """

    marginals: np.ndarray
    mode_configuration: np.ndarray
    num_samples: int
    configuration_counts: Dict[bytes, int]


class GibbsSampler:
    """Sequential-scan Gibbs sampler with persistent chain state.

    Args:
        model: The CRF energy model.
        burn_in: Sweeps discarded before recording (fresh chains only; a
            warm-started chain re-burns ``max(1, burn_in // 2)`` sweeps).
        num_samples: Recorded samples per call.
        thin: Sweeps between recorded samples.
        seed: Seed or generator.
        engine: ``None`` (the model's memoised engine) or the test seam
            of :func:`~repro.inference.engine.create_engine` — an engine
            or an engine factory.
    """

    #: Not checkpointed (lint rule STATE001): the model and engine are
    #: rebuilt from the session spec on resume, and the sweep-schedule
    #: parameters are immutable configuration.  Chain state (``_spins``,
    #: ``_rng``) is what ``state_dict`` carries.
    _STATE_EXCLUDED = ("_model", "_engine", "_burn_in", "_num_samples", "_thin")

    def __init__(
        self,
        model: CrfModel,
        burn_in: int = 5,
        num_samples: int = 20,
        thin: int = 1,
        seed: RandomState = None,
        engine: Union[None, "InferenceEngine", "EngineFactory"] = None,
    ) -> None:
        if burn_in < 0:
            raise InferenceError(f"burn_in must be non-negative, got {burn_in}")
        if num_samples <= 0:
            raise InferenceError(f"num_samples must be positive, got {num_samples}")
        if thin <= 0:
            raise InferenceError(f"thin must be positive, got {thin}")
        from repro.inference.engine import create_engine

        self._model = model
        self._engine = create_engine(model, engine)
        self._burn_in = burn_in
        self._num_samples = num_samples
        self._thin = thin
        self._rng = ensure_rng(seed)
        self._spins: Optional[np.ndarray] = None

    @property
    def model(self) -> CrfModel:
        """The sampled CRF model."""
        return self._model

    @property
    def engine(self) -> "InferenceEngine":
        """The engine executing the sweeps."""
        return self._engine

    @property
    def state(self) -> Optional[np.ndarray]:
        """Current chain configuration as 0/1, or ``None`` before first use."""
        if self._spins is None:
            return None
        return ((self._spins > 0).astype(np.int8)).copy()

    def reset(self) -> None:
        """Discard the chain state; the next call starts a fresh chain."""
        self._spins = None

    def state_dict(self) -> dict:
        """Serialise chain state and RNG position for session checkpoints."""
        from repro.utils.rng import rng_state

        return {
            "spins": None if self._spins is None else self._spins.tolist(),
            "rng": rng_state(self._rng),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot bit-for-bit."""
        from repro.utils.rng import set_rng_state

        spins = state["spins"]
        self._spins = (
            None if spins is None else np.asarray(spins, dtype=float)
        )
        set_rng_state(self._rng, state["rng"])

    def sample(
        self,
        probabilities: np.ndarray,
        fixed: np.ndarray,
        claim_subset: Optional[np.ndarray] = None,
    ) -> GibbsResult:
        """Run the chain and collect samples.

        Args:
            probabilities: Starting marginals (not modified), such as a
                :class:`~repro.data.state.ClaimState`'s.  A fresh chain
                draws its first configuration from them.
            fixed: Claims held at their starting value (indices or a
                boolean mask), such as the state's labelled indices.  A
                held claim's spin is its starting value thresholded at
                0.5, so a hypothesis is a start vector with its pins set
                to 0/1 plus a held mask — the chain then consumes the
                generator exactly as it would on a state labelled that
                way.
            claim_subset: When given, only these claims are resampled and
                all others stay fixed — the localisation used for
                component-restricted inference (§5.1).  Defaults to all
                claims that are not held.

        Returns:
            A :class:`GibbsResult`; marginals of claims that are held or
            outside the subset are their starting values.
        """
        held = np.zeros(probabilities.size, dtype=bool)
        held[fixed] = True

        warm = self._spins is not None
        if self._spins is None or self._spins.size != probabilities.size:
            draws = self._rng.random(probabilities.size) < probabilities
            self._spins = np.where(draws, 1.0, -1.0)
        spins = self._spins
        spins[held] = np.where(probabilities[held] >= 0.5, 1.0, -1.0)

        if claim_subset is None:
            free_claims = np.flatnonzero(~held)
        else:
            claim_subset = np.asarray(claim_subset, dtype=np.intp)
            free_claims = claim_subset[~held[claim_subset]]

        marginals = np.array(probabilities, dtype=float)

        if free_claims.size == 0:
            configuration = (spins > 0).astype(np.int8)
            return GibbsResult(
                marginals=marginals,
                mode_configuration=configuration,
                num_samples=1,
                configuration_counts={configuration.tobytes(): 1},
            )

        stats = self._model.source_statistics(spins)
        burn_in = max(1, self._burn_in // 2) if warm else self._burn_in
        for _ in range(burn_in):
            self._sweep(free_claims, spins, stats)

        counts = np.zeros(free_claims.size)
        configurations: Counter = Counter()
        for _ in range(self._num_samples):
            for _ in range(self._thin):
                self._sweep(free_claims, spins, stats)
            counts += spins[free_claims] > 0
            configurations[(spins > 0).astype(np.int8).tobytes()] += 1

        marginals[free_claims] = counts / self._num_samples
        mode_bytes, _ = configurations.most_common(1)[0]
        mode_configuration = np.frombuffer(mode_bytes, dtype=np.int8).copy()
        return GibbsResult(
            marginals=marginals,
            mode_configuration=mode_configuration,
            num_samples=self._num_samples,
            configuration_counts=dict(configurations),
        )

    def _sweep(
        self, free_claims: np.ndarray, spins: np.ndarray, stats: np.ndarray
    ) -> None:
        """One random-order sequential scan over the free claims."""
        self._engine.sweep(free_claims, spins, stats, self._rng)
