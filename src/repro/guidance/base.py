"""Strategy interface for claim selection (step 1 of the process, §2.3).

A :class:`SelectionStrategy` picks the next claim for which user input
shall be sought.  Strategies receive a :class:`SelectionContext` holding
everything the paper's selectors use: the claim state, the gain estimator,
the hybrid score ``z_{i-1}`` (Eq. 23), and a random generator for
tie-breaking / roulette decisions.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.data.state import ClaimState
from repro.errors import GuidanceError
from repro.guidance.gain import GainEstimator, marginal_entropy_ranking


@dataclass
class SelectionContext:
    """Inputs available to a selection strategy at one iteration.

    Attributes:
        state: The session's probabilities and labels.
        gains: Information-gain estimator bound to the current model.
        rng: Random generator (roulette wheel, tie breaking).
        hybrid_score: ``z_{i-1}`` of Eq. 23 — probability of choosing the
            source-driven strategy this iteration.
        iteration: 1-based index of the current validation iteration.
        candidate_limit: When set, gain-based strategies evaluate only the
            top-``limit`` unlabelled claims by marginal entropy (a
            practical pool restriction; ``None`` scans all of C^U as in
            the paper's definitions).
        deterministic_ties: Break score ties by lowest claim index instead
            of uniformly at random — used by experiments that compare
            validation orders across runs.
    """

    state: ClaimState
    gains: GainEstimator
    rng: np.random.Generator
    hybrid_score: float = 0.0
    iteration: int = 1
    candidate_limit: Optional[int] = None
    deterministic_ties: bool = False

    def candidates(self) -> np.ndarray:
        """The unlabelled claims a strategy may select from."""
        unlabelled = self.state.unlabelled_indices
        if unlabelled.size == 0:
            raise GuidanceError("no unlabelled claims remain")
        if self.candidate_limit is None or unlabelled.size <= self.candidate_limit:
            return unlabelled
        ranked = marginal_entropy_ranking(self.state, unlabelled)
        return ranked[: self.candidate_limit]


class SelectionStrategy(abc.ABC):
    """Base class of all claim-selection strategies."""

    #: Short name used in experiment outputs (matches the paper's legends).
    name: str = "base"

    @abc.abstractmethod
    def select(self, context: SelectionContext) -> int:
        """Return the index of the claim to validate next."""

    def rank(self, context: SelectionContext, count: int) -> Sequence[int]:
        """Return up to ``count`` claims, best first.

        The default implementation repeatedly calls :meth:`select` on a
        shrinking candidate set; strategies with a natural scoring
        override this with a direct ranking.  Used by the skipping
        simulation of §8.5 (validating the second-best claim).
        """
        scores = self.scores(context)
        if scores is None:
            raise GuidanceError(
                f"strategy {self.name!r} does not support ranking"
            )
        candidates, values = scores
        order = np.argsort(-np.asarray(values), kind="stable")
        return [int(candidates[i]) for i in order[:count]]

    def scores(self, context: SelectionContext):
        """Optional (candidates, scores) pair; ``None`` when undefined."""
        return None
