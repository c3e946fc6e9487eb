"""Validation goals Δ (§2.2).

The validation process halts when its goal is satisfied or the effort
budget is exhausted.  Goals are predicates over the current state; the
paper's example goal — the precision of the grounding — is provided in two
forms: evaluated against ground truth (how the experiments of §8 mimic the
user), and estimated via k-fold cross validation over the labelled claims
(the deployable variant, §6.1 "precision improvement rate").
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

from repro.utils.checks import check_probability

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.validation.process import ValidationProcess


class ValidationGoal(abc.ABC):
    """Predicate deciding whether the validation goal Δ is reached."""

    @abc.abstractmethod
    def satisfied(self, process: "ValidationProcess") -> bool:
        """Whether the process may stop because the goal is met."""

    def describe(self) -> str:
        """Human-readable description for traces."""
        return type(self).__name__


class NoGoal(ValidationGoal):
    """Never satisfied — the process runs until its budget or C^U empties."""

    def satisfied(self, process: "ValidationProcess") -> bool:
        return False

    def describe(self) -> str:
        return "none"


class TruePrecisionGoal(ValidationGoal):
    """Stop when the grounding's true precision reaches a threshold.

    Requires ground-truth labels on all claims; this is how §8 mimics the
    user and measures effort-to-precision.
    """

    def __init__(self, threshold: float) -> None:
        self.threshold = check_probability(threshold, "threshold")

    def satisfied(self, process: "ValidationProcess") -> bool:
        precision = process.current_precision()
        return precision is not None and precision >= self.threshold

    def describe(self) -> str:
        return f"true_precision>={self.threshold}"


class EstimatedPrecisionGoal(ValidationGoal):
    """Stop when the cross-validated precision estimate reaches a threshold.

    Uses the k-fold estimator of §6.1; requires no ground truth beyond the
    user's own labels, so it is usable in real deployments.
    """

    def __init__(self, threshold: float, folds: int = 5, min_labels: int = 10) -> None:
        self.threshold = check_probability(threshold, "threshold")
        if folds < 2:
            raise ValueError(f"folds must be at least 2, got {folds}")
        if min_labels < folds:
            raise ValueError("min_labels must be at least the number of folds")
        self.folds = folds
        self.min_labels = min_labels

    def satisfied(self, process: "ValidationProcess") -> bool:
        if process.state.num_labelled < self.min_labels:
            return False
        from repro.effort.crossval import estimate_precision

        estimate = estimate_precision(process, folds=self.folds)
        return estimate >= self.threshold

    def describe(self) -> str:
        return f"estimated_precision>={self.threshold} ({self.folds}-fold)"
