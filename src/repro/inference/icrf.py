"""iCRF — incremental EM inference with user input (§3.2).

Each invocation of :meth:`ICrf.infer` corresponds to the inference step of
one validation-process iteration (Alg. 1, line 15).  It alternates:

* **E-step** — Gibbs sampling of the unlabelled claims under the current
  parameters (Eq. 6) and estimation of credibility probabilities as sample
  fractions (Eq. 7); user labels are pinned throughout.
* **M-step** — weighted logistic regression on the expected statistics,
  solved by the Trust-Region Newton Method (Eq. 8).

The *incremental* character ("view maintenance", §3.2) comes from three
warm starts that persist across invocations: the Gibbs chain state, the
model weights ``W_z^0 = W_{z-1}^{l_{z-1}}``, and the credibility
probabilities stored in the fact database.  After a single new user label
only a few EM iterations are needed, which is what keeps per-iteration
response times interactive (Fig. 2).

An unsupervised cold start is supported: with no labels at all, the initial
bias weight breaks the symmetry towards "supporting documents indicate
credibility", and self-training EM refines the feature weights from there —
this produces the non-trivial initial precision visible at 0% effort in the
paper's Fig. 6.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro._legacy import warn_legacy
from repro.crf.gibbs import GibbsResult, GibbsSampler
from repro.crf.model import CrfModel
from repro.crf.weights import CrfWeights
from repro.data.database import FactDatabase
from repro.errors import InferenceError
from repro.inference.decide import decide_grounding
from repro.inference.engine import InferenceEngine, create_engine
from repro.inference.engine.base import EngineFactory
from repro.inference.mstep import MStepConfig, run_m_step
from repro.inference.result import InferenceResult
from repro.utils.rng import RandomState, derive_rng, ensure_rng


class ICrf:
    """Incremental CRF inference engine bound to one fact database.

    Args:
        database: The probabilistic fact database Q.
        aggregation: Claim-evidence aggregation mode (see
            :class:`~repro.crf.potentials.CliqueFeaturizer`).
        coupling_enabled: Whether the indirect (source-consistency)
            relation participates; ablation knob.
        em_iterations: EM iterations per :meth:`infer` call.
        em_tolerance: Mean-absolute marginal change below which EM stops.
        burn_in / num_samples: Gibbs sampling schedule.
        initial_bias: Cold-start bias weight (symmetry breaking for the
            unsupervised first inference).
        mstep: M-step hyper-parameters.
        estep_mode: ``"gibbs"`` (default, the paper's sampling E-step) or
            ``"meanfield"`` — a deterministic damped fixed-point E-step.
            Mean-field trades the sample-based grounding of Eq. 10 for
            exact reproducibility and speed; experiments that compare
            validation *orders* across runs (Table 2) use it to remove
            sampling noise from the comparison.
        engine: ``None`` (the model's memoised engine) or the test seam
            of :func:`~repro.inference.engine.create_engine` — an engine
            or an engine factory.  The engine's cached evidence matrices
            are shared between the E-step sweeps and the M-step design
            assembly.
        seed: Seed or generator.
    """

    #: Supported E-step modes.
    ESTEP_MODES = ("gibbs", "meanfield")

    #: Not checkpointed (lint rule STATE001): the database is serialised
    #: by the owning process/session, the engine and EM configuration are
    #: rebuilt from the spec, and ``_last_gibbs`` is derived diagnostics
    #: recomputed by the next :meth:`infer`.  ``state_dict`` carries the
    #: learned model weights and the sampler chain.
    _STATE_EXCLUDED = (
        "_estep_mode",
        "_database",
        "_engine",
        "_em_iterations",
        "_em_tolerance",
        "_mstep_config",
        "_last_gibbs",
    )

    def __init__(
        self,
        database: FactDatabase,
        aggregation: str = "sqrt",
        coupling_enabled: bool = True,
        em_iterations: int = 3,
        em_tolerance: float = 5e-3,
        burn_in: int = 4,
        num_samples: int = 16,
        initial_bias: float = 1.0,
        mstep: Optional[MStepConfig] = None,
        estep_mode: str = "gibbs",
        engine: Union[None, InferenceEngine, EngineFactory] = None,
        seed: RandomState = None,
    ) -> None:
        warn_legacy(
            "ICrf(...) with keyword arguments",
            "ICrf.from_spec(database, InferenceSpec(...)) or "
            "repro.api.FactCheckSession",
        )
        if em_iterations <= 0:
            raise InferenceError("em_iterations must be positive")
        if em_tolerance < 0:
            raise InferenceError("em_tolerance must be non-negative")
        if estep_mode not in self.ESTEP_MODES:
            raise InferenceError(
                f"estep_mode must be one of {self.ESTEP_MODES}, "
                f"got {estep_mode!r}"
            )
        self._estep_mode = estep_mode
        rng = ensure_rng(seed)
        self._database = database
        weights = CrfWeights.zeros(
            database.document_features.shape[1],
            database.source_features.shape[1],
        )
        weights.values[0] = float(initial_bias)
        self._model = CrfModel(
            database,
            weights=weights,
            aggregation=aggregation,
            coupling_enabled=coupling_enabled,
        )
        self._engine = create_engine(self._model, engine)
        self._sampler = GibbsSampler(
            self._model,
            burn_in=burn_in,
            num_samples=num_samples,
            seed=derive_rng(rng, 0),
            engine=self._engine,
        )
        self._em_iterations = em_iterations
        self._em_tolerance = em_tolerance
        self._mstep_config = mstep if mstep is not None else MStepConfig()
        self._last_gibbs: Optional[GibbsResult] = None

    # ------------------------------------------------------------------

    @classmethod
    def from_spec(cls, database: FactDatabase, spec=None, seed: RandomState = None):
        """Construct from a declarative :class:`repro.api.InferenceSpec`.

        This is the non-deprecated constructor path; ``spec=None`` uses
        the spec defaults.
        """
        from repro.api.build import build_icrf

        return build_icrf(database, spec, seed=seed)

    def state_dict(self) -> dict:
        """Serialise weights and Gibbs-chain state for session checkpoints."""
        return {
            "weights": self._model.weights.values.tolist(),
            "sampler": self._sampler.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot bit-for-bit."""
        self._model.set_weights(
            CrfWeights(np.asarray(state["weights"], dtype=float))
        )
        self._sampler.load_state_dict(state["sampler"])

    @property
    def database(self) -> FactDatabase:
        """The bound fact database."""
        return self._database

    @property
    def model(self) -> CrfModel:
        """The CRF energy model (weights update in place)."""
        return self._model

    @property
    def sampler(self) -> GibbsSampler:
        """The persistent Gibbs sampler."""
        return self._sampler

    @property
    def engine(self) -> InferenceEngine:
        """The hot-path engine shared by E-step and M-step."""
        return self._engine

    @property
    def weights(self) -> CrfWeights:
        """Current model parameters W."""
        return self._model.weights

    def set_weights(self, weights: CrfWeights) -> None:
        """Install externally produced parameters.

        The streaming algorithm (Alg. 2, line 10) feeds its online-EM
        parameters back into the validation process through this hook.
        """
        self._model.set_weights(weights)

    @property
    def last_gibbs(self) -> Optional[GibbsResult]:
        """The Ω*_z sample set of the most recent inference, if any."""
        return self._last_gibbs

    # ------------------------------------------------------------------

    def infer(
        self,
        em_iterations: Optional[int] = None,
        claim_subset: Optional[np.ndarray] = None,
        update_weights: bool = True,
    ) -> InferenceResult:
        """Run EM and update the database's probabilities in place.

        Args:
            em_iterations: Override of the EM iteration budget.
            claim_subset: Restrict the E-step to these claims (§5.1 graph
                partitioning); marginals of other claims are unchanged.
            update_weights: When ``False`` the M-step is skipped — used by
                the light hypothetical inference of user guidance, where
                the model must not drift while evaluating candidates.

        Returns:
            An :class:`InferenceResult`; the database's ``P`` reflects the
            returned marginals.
        """
        budget = self._em_iterations if em_iterations is None else em_iterations
        if budget <= 0:
            raise InferenceError("em_iterations must be positive")

        previous = np.asarray(self._database.probabilities, dtype=float).copy()
        deltas = []
        converged = False
        gibbs_result: Optional[GibbsResult] = None
        performed = 0
        for _ in range(budget):
            if self._estep_mode == "meanfield":
                gibbs_result = self._mean_field_estep(claim_subset)
            else:
                gibbs_result = self._sampler.sample(claim_subset=claim_subset)
            marginals = gibbs_result.marginals
            self._database.set_probabilities(marginals)
            if update_weights:
                run_m_step(
                    self._model, marginals, self._mstep_config,
                    engine=self._engine,
                )
            delta = float(np.mean(np.abs(marginals - previous)))
            deltas.append(delta)
            previous = marginals.copy()
            performed += 1
            if delta <= self._em_tolerance:
                converged = True
                break

        assert gibbs_result is not None
        self._last_gibbs = gibbs_result
        grounding = decide_grounding(self._database, gibbs_result)
        return InferenceResult(
            marginals=np.asarray(self._database.probabilities).copy(),
            grounding=grounding,
            weights=self._model.weights.copy(),
            em_iterations=performed,
            converged=converged,
            marginal_deltas=deltas,
        )

    def reset_chain(self) -> None:
        """Drop the persistent Gibbs state (cold-start ablation)."""
        self._sampler.reset()

    def _mean_field_estep(
        self, claim_subset: Optional[np.ndarray], steps: int = 6,
        damping: float = 0.3,
    ) -> GibbsResult:
        """Deterministic damped fixed-point E-step.

        Produces the same result container as the Gibbs E-step; the mode
        configuration degenerates to thresholded marginals (the naive
        instantiation of §2.3).
        """
        database = self._database
        marginals = np.asarray(database.probabilities, dtype=float).copy()
        label_indices, label_values = database.label_arrays()
        if label_indices.size:
            marginals[label_indices] = label_values
        marginals = self._model.mean_field(
            marginals,
            steps=steps,
            damping=damping,
            scope=claim_subset,
            fixed=label_indices,
        )
        configuration = (marginals >= 0.5).astype(np.int8)
        if label_indices.size:
            configuration[label_indices] = label_values.astype(np.int8)
        return GibbsResult(
            marginals=marginals,
            mode_configuration=configuration,
            num_samples=1,
            configuration_counts={configuration.tobytes(): 1},
        )
