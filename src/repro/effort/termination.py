"""Early-termination criteria for the validation process (§6.1).

Four convergence indicators are defined by the paper; each is implemented
as a criterion object the process consults after every iteration, plus a
pure series function the Fig. 9 experiment uses to plot the indicator:

* **URR** — uncertainty reduction rate ``(H_C(Q_i) - H_C(Q_{i+1})) /
  H_C(Q_i)``; stop when it stays below a threshold.
* **CNG** — the amount of grounding changes ``|{c | g_i(c) ≠ g_{i+1}(c)}|``;
  stop when negligible over several consecutive iterations.
* **PRE** — the amount of validated predictions: stop when inference and
  user input agree for several consecutive iterations.
* **PIR** — the precision improvement rate of the k-fold cross-validated
  precision estimate; stop when it converges to zero.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.errors import ValidationProcessError
from repro.utils.checks import check_non_negative, check_positive_int
from repro.validation.session import IterationRecord, ValidationTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.validation.process import ValidationProcess


class TerminationCriterion(abc.ABC):
    """Interface of an early-termination criterion."""

    #: Identifier reported as the trace's stop reason.
    name: str = "criterion"

    @abc.abstractmethod
    def update(
        self,
        trace: ValidationTrace,
        record: IterationRecord,
        process: "ValidationProcess",
    ) -> Optional[str]:
        """Consume the newest record; return the stop reason if triggered."""


class UncertaintyReductionCriterion(TerminationCriterion):
    """Stop when the uncertainty reduction rate stays below a threshold."""

    name = "urr"

    def __init__(self, threshold: float = 0.02, patience: int = 3) -> None:
        self.threshold = check_non_negative(threshold, "threshold")
        self.patience = check_positive_int(patience, "patience")
        self._streak = 0
        self._previous_entropy: Optional[float] = None

    def update(self, trace, record, process) -> Optional[str]:
        previous = (
            self._previous_entropy
            if self._previous_entropy is not None
            else trace.initial_entropy
        )
        rate = 0.0 if previous <= 0 else (previous - record.entropy) / previous
        self._previous_entropy = record.entropy
        self._streak = self._streak + 1 if rate < self.threshold else 0
        if self._streak >= self.patience:
            return self.name
        return None


class GroundingChangeCriterion(TerminationCriterion):
    """Stop when consecutive groundings barely change (CNG)."""

    name = "cng"

    def __init__(self, max_changes: int = 0, patience: int = 3) -> None:
        self.max_changes = int(check_non_negative(max_changes, "max_changes"))
        self.patience = check_positive_int(patience, "patience")
        self._streak = 0

    def update(self, trace, record, process) -> Optional[str]:
        small = record.grounding_changes <= self.max_changes
        self._streak = self._streak + 1 if small else 0
        if self._streak >= self.patience:
            return self.name
        return None


class ValidatedPredictionCriterion(TerminationCriterion):
    """Stop when inference keeps agreeing with the user input (PRE)."""

    name = "pre"

    def __init__(self, patience: int = 5) -> None:
        self.patience = check_positive_int(patience, "patience")
        self._streak = 0

    def update(self, trace, record, process) -> Optional[str]:
        consistent = bool(record.predictions_matched) and all(
            record.predictions_matched
        )
        self._streak = self._streak + 1 if consistent else 0
        if self._streak >= self.patience:
            return self.name
        return None


class PrecisionImprovementCriterion(TerminationCriterion):
    """Stop when the cross-validated precision stops improving (PIR)."""

    name = "pir"

    def __init__(
        self,
        threshold: float = 0.01,
        patience: int = 3,
        folds: int = 5,
        check_every: int = 1,
        min_labels: int = 10,
    ) -> None:
        self.threshold = check_non_negative(threshold, "threshold")
        self.patience = check_positive_int(patience, "patience")
        self.folds = check_positive_int(folds, "folds")
        self.check_every = check_positive_int(check_every, "check_every")
        self.min_labels = check_positive_int(min_labels, "min_labels")
        self._streak = 0
        self._since_check = 0
        self._previous_estimate: Optional[float] = None

    def update(self, trace, record, process) -> Optional[str]:
        if process.state.num_labelled < max(self.min_labels, self.folds):
            return None
        self._since_check += 1
        if self._since_check < self.check_every:
            return None
        self._since_check = 0
        from repro.effort.crossval import estimate_precision

        estimate = estimate_precision(process, folds=self.folds)
        if self._previous_estimate is None:
            self._previous_estimate = estimate
            return None
        base = max(self._previous_estimate, 1e-9)
        rate = (estimate - self._previous_estimate) / base
        self._previous_estimate = estimate
        self._streak = self._streak + 1 if abs(rate) < self.threshold else 0
        if self._streak >= self.patience:
            return self.name
        return None


# ----------------------------------------------------------------------
# Pure indicator series (Fig. 9)
# ----------------------------------------------------------------------


def urr_series(trace: ValidationTrace) -> np.ndarray:
    """Uncertainty reduction rate per iteration."""
    entropies = np.concatenate(([trace.initial_entropy], trace.entropies()))
    previous = entropies[:-1]
    deltas = previous - entropies[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        rates = np.where(previous > 0, deltas / previous, 0.0)
    return rates


def cng_series(trace: ValidationTrace) -> np.ndarray:
    """Grounding changes per iteration, as a fraction of |C|."""
    return trace.grounding_change_counts() / trace.num_claims


def pre_series(trace: ValidationTrace, window: int = 5) -> np.ndarray:
    """Rolling fraction of validated predictions over a trailing window."""
    if window < 1:
        raise ValidationProcessError("window must be at least 1")
    flags: List[float] = []
    for record in trace.records:
        if record.predictions_matched:
            flags.append(float(np.mean(record.predictions_matched)))
        else:
            flags.append(0.0)
    values = np.asarray(flags)
    rolled = np.empty_like(values)
    for index in range(values.size):
        start = max(0, index - window + 1)
        rolled[index] = values[start : index + 1].mean()
    return rolled


def pir_series(estimates: np.ndarray) -> np.ndarray:
    """Precision improvement rate from a series of precision estimates."""
    estimates = np.asarray(estimates, dtype=float)
    if estimates.size < 2:
        return np.zeros(max(estimates.size - 1, 0))
    previous = np.maximum(estimates[:-1], 1e-9)
    return (estimates[1:] - estimates[:-1]) / previous
