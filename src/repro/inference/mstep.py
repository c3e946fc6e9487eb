"""M-step of iCRF: fitting W by expected log-likelihood maximisation (Eq. 8).

With the expected sufficient statistics from the E-step (the per-claim
credibility estimates ``q``), maximising the expected log-likelihood of the
tied-weight log-linear model reduces to a *weighted* logistic regression:

* every labelled claim contributes one example with its user label and a
  boosted weight (user input is a first-class citizen, §3.2);
* every unlabelled claim contributes two fractional examples, target 1 with
  weight ``q(c)`` and target 0 with weight ``1 - q(c)``.

Feature rows are the aggregated clique features of each claim plus the
trust-signal column (the indirect relation), so the coupling weight γ is
learned jointly with the feature weights.  The optimiser is the TRON method
of :mod:`repro.inference.tron`, warm-started from the previous weights —
this is the incremental aspect: after one additional user label, the
previous optimum is an excellent starting point and TRON re-converges in a
couple of Newton steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

import numpy as np

from repro.crf.model import CrfModel
from repro.crf.weights import CrfWeights
from repro.errors import InferenceError
from repro.inference.tron import TronResult, WeightedLogisticLoss, tron_minimize

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.inference.engine import InferenceEngine
    from repro.inference.engine.base import EngineFactory


@dataclass
class MStepConfig:
    """Hyper-parameters of the M-step.

    Attributes:
        regularization: L2 strength λ of the TRON objective.
        labelled_weight: Sample-weight boost of user-labelled claims.
        max_iterations: Newton iteration cap per M-step.
        gradient_tolerance: Relative gradient stopping tolerance.
        min_coverage: Claims with fewer cliques than this are excluded from
            the design matrix (their aggregated features are all zero and
            only dilute the fit).
    """

    regularization: float = 1.0
    labelled_weight: float = 10.0
    max_iterations: int = 25
    gradient_tolerance: float = 1e-2
    min_coverage: int = 1

    def __post_init__(self) -> None:
        if self.regularization <= 0:
            raise InferenceError(
                "regularization must be positive", field="regularization"
            )
        if self.labelled_weight <= 0:
            raise InferenceError(
                "labelled_weight must be positive", field="labelled_weight"
            )
        if self.max_iterations <= 0:
            raise InferenceError(
                "max_iterations must be positive", field="max_iterations"
            )


def build_design_matrix(model: CrfModel, marginals: np.ndarray) -> np.ndarray:
    """Per-claim design matrix ``[aggregated clique features, trust signal]``.

    The dot product of row ``c`` with the full weight vector equals the
    claim's mean-field conditional logit, which ties the regression
    directly to the Gibbs conditionals it parameterises.
    """
    features = model.featurizer.claim_design_matrix()
    trust = model.trust_signals(marginals)
    return np.column_stack([features, trust])


def run_m_step(
    model: CrfModel,
    marginals: np.ndarray,
    config: MStepConfig = MStepConfig(),
    engine: Union[None, "InferenceEngine", "EngineFactory"] = None,
) -> TronResult:
    """Fit new weights from the current credibility estimates.

    Args:
        model: CRF model; its weights are the warm start and are *updated
            in place* on success.
        marginals: Per-claim credibility estimates from the E-step; entries
            of labelled claims must already equal their labels.
        config: Hyper-parameters.
        engine: ``None`` (the model's memoised engine, whose cached
            feature matrix is reused across EM rounds) or the test seam
            of :func:`~repro.inference.engine.create_engine`.

    Returns:
        The :class:`~repro.inference.tron.TronResult` of the fit.
    """
    database = model.database
    marginals = np.asarray(marginals, dtype=float)
    if marginals.shape != (database.num_claims,):
        raise InferenceError("marginals must cover every claim")

    from repro.inference.engine import create_engine

    engine = create_engine(model, engine)
    assembled = engine.assemble_mstep(marginals, config)
    if assembled is None:
        # Nothing to fit (e.g. no claim has any clique); keep weights.
        current = model.weights.values
        return TronResult(
            weights=current.copy(),
            objective=0.0,
            gradient_norm=0.0,
            iterations=0,
            converged=True,
        )

    design, targets, sample_weights = assembled
    loss = WeightedLogisticLoss(
        design=design,
        targets=targets,
        sample_weights=sample_weights,
        regularization=config.regularization,
    )
    result = tron_minimize(
        loss,
        initial=model.weights.values,
        max_iterations=config.max_iterations,
        gradient_tolerance=config.gradient_tolerance,
    )
    model.set_weights(CrfWeights(result.weights))
    return result
