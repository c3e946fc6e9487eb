"""Robustness against erroneous user input (§5.2).

The confirmation check exploits redundancy in the model: for every claim
``c`` validated so far, a grounding ``g_{i~c}`` is constructed from all
information *except* the validation of ``c`` (leave-one-out re-inference).
When ``g_{i~c}(c)`` disagrees with the stored user input, the input is
flagged as a potential mistake and re-elicited, which costs extra effort
(the "label+repair effort" axis of Fig. 7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.crf.model import CrfModel
from repro.crf.partition import ComponentIndex
from repro.errors import ValidationProcessError


@dataclass
class ConfirmationReport:
    """Outcome of one confirmation sweep.

    Attributes:
        checked: Claims examined (all labelled claims).
        suspects: Claims whose leave-one-out grounding disagreed with the
            stored user input.
    """

    checked: List[int]
    suspects: List[int]


class ConfirmationChecker:
    """Leave-one-out confirmation check over validated claims (§5.2).

    Args:
        interval: Trigger the check after this many validations (the paper
            uses every 1% of total validations; the process computes the
            concrete interval from it).
        meanfield_steps: Fixed-point iterations of the leave-one-out
            re-inference.
        damping: Mean-field damping in [0, 1).
    """

    def __init__(
        self, interval: int = 1, meanfield_steps: int = 4, damping: float = 0.2
    ) -> None:
        if interval < 1:
            raise ValidationProcessError("interval must be at least 1")
        if meanfield_steps < 1:
            raise ValidationProcessError("meanfield_steps must be at least 1")
        if not 0.0 <= damping < 1.0:
            raise ValidationProcessError("damping must lie in [0, 1)")
        self.interval = interval
        self._meanfield_steps = meanfield_steps
        self._damping = damping

    def due(self, validations_since_last: int) -> bool:
        """Whether a sweep should run now."""
        return validations_since_last >= self.interval

    def sweep(
        self,
        model: CrfModel,
        components: ComponentIndex,
    ) -> ConfirmationReport:
        """Check every labelled claim against its leave-one-out grounding."""
        database = model.database
        labelled = [int(c) for c in database.labelled_indices]
        suspects: List[int] = []
        for claim_index in labelled:
            stored = database.label_of(claim_index)
            assert stored is not None
            reinferred = self._leave_one_out_value(model, components, claim_index)
            if reinferred != stored:
                suspects.append(claim_index)
        return ConfirmationReport(checked=labelled, suspects=suspects)

    def _leave_one_out_value(
        self,
        model: CrfModel,
        components: ComponentIndex,
        claim_index: int,
    ) -> int:
        """``g_{i~c}(c)``: re-infer the claim without its own label.

        "All information except the validation of c" (§5.2) includes the
        model parameters: the weights are re-fitted without the held-out
        label (a warm-started TRON refit converges in a couple of Newton
        steps), otherwise a mistaken label could defend itself through the
        weights it distorted.
        """
        from repro.inference.mstep import MStepConfig, run_m_step

        database = model.database
        snapshot = database.clone_state()
        saved_weights = model.weights.copy()
        try:
            database.unlabel(claim_index)
            run_m_step(
                model,
                np.asarray(database.probabilities),
                MStepConfig(max_iterations=5),
            )
            marginals = model.mean_field(
                database.probabilities,
                steps=self._meanfield_steps,
                damping=self._damping,
                scope=components.component_of_claim(claim_index),
                fixed=database.labelled_indices,
            )
            return int(marginals[claim_index] >= 0.5)
        finally:
            database.restore_state(snapshot)
            model.set_weights(saved_weights)
