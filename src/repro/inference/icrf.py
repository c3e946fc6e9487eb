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
probabilities of its :class:`~repro.data.state.ClaimState`.  After a single new user label
only a few EM iterations are needed, which is what keeps per-iteration
response times interactive (Fig. 2).

An unsupervised cold start is supported: with no labels at all, the initial
bias weight breaks the symmetry towards "supporting documents indicate
credibility", and self-training EM refines the feature weights from there —
this produces the non-trivial initial precision visible at 0% effort in the
paper's Fig. 6.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from repro.crf.gibbs import GibbsResult, GibbsSampler
from repro.crf.model import CrfModel
from repro.crf.weights import CrfWeights
from repro.data.database import FactDatabase
from repro.data.state import ClaimState
from repro.errors import DataModelError, InferenceError
from repro.inference.decide import decide_grounding
from repro.inference.engine import InferenceEngine, create_engine
from repro.inference.engine.base import EngineFactory
from repro.inference.mstep import run_m_step
from repro.inference.result import InferenceResult
from repro.utils.rng import RandomState, derive_rng, ensure_rng

if TYPE_CHECKING:
    from repro.api.specs import InferenceSpec


class ICrf:
    """Incremental CRF inference over one fact database, owning one
    :class:`~repro.data.state.ClaimState`: it reads the labels from the
    state and writes its marginals into it.

    Args:
        database: The structure of the probabilistic fact database Q.
        spec: The :class:`~repro.api.specs.InferenceSpec` (EM and Gibbs
            schedule, model and M-step settings); ``None`` uses its
            defaults.
        seed: Seed or generator.
        engine: Test seam of :func:`~repro.inference.engine.create_engine`
            (an engine or an engine factory); ``None`` uses the model's
            memoised engine, shared by the E-step sweeps and the M-step
            design assembly.
        state: The claim state to infer over; a fresh one when omitted.
    """

    #: Not checkpointed (lint rule STATE001): the claim state is
    #: serialised by the owning process/session, the database, engine
    #: and spec are rebuilt on resume, and ``_last_gibbs`` is derived
    #: diagnostics recomputed by the next :meth:`infer`.  ``state_dict``
    #: carries the learned model weights and the sampler chain.
    _STATE_EXCLUDED = ("_spec", "_database", "_state", "_engine", "_last_gibbs")

    def __init__(
        self,
        database: FactDatabase,
        spec: Optional["InferenceSpec"] = None,
        seed: RandomState = None,
        engine: Union[None, InferenceEngine, EngineFactory] = None,
        state: Optional[ClaimState] = None,
    ) -> None:
        if spec is None:
            from repro.api.specs import InferenceSpec

            spec = InferenceSpec()
        rng = ensure_rng(seed)
        self._spec = spec
        self._database = database
        self._state = _covering(
            database, ClaimState.of(database) if state is None else state
        )
        weights = CrfWeights.zeros(
            database.document_features.shape[1],
            database.source_features.shape[1],
        )
        weights.values[0] = float(spec.initial_bias)
        self._model = CrfModel(
            database,
            weights=weights,
            aggregation=spec.aggregation,
            coupling_enabled=spec.coupling_enabled,
        )
        self._engine = create_engine(self._model, engine)
        self._sampler = GibbsSampler(
            self._model,
            burn_in=spec.burn_in,
            num_samples=spec.num_samples,
            seed=derive_rng(rng, 0),
            engine=self._engine,
        )
        self._last_gibbs: Optional[GibbsResult] = None

    # ------------------------------------------------------------------

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
    def state(self) -> ClaimState:
        """The claim state inference reads labels from and writes ``P`` to."""
        return self._state

    @state.setter
    def state(self, state: ClaimState) -> None:
        self._state = _covering(self._database, state)

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
        """Run EM and update the state's probabilities in place.

        Args:
            em_iterations: Override of the EM iteration budget.
            claim_subset: Restrict the E-step to these claims (§5.1 graph
                partitioning); marginals of other claims are unchanged.
            update_weights: When ``False`` the M-step is skipped — used by
                the light hypothetical inference of user guidance, where
                the model must not drift while evaluating candidates.

        Returns:
            An :class:`InferenceResult`; the state's ``P`` reflects the
            returned marginals.
        """
        budget = self._spec.em_iterations if em_iterations is None else em_iterations
        if budget <= 0:
            raise InferenceError("em_iterations must be positive")

        state = self._state
        previous = np.asarray(state.probabilities, dtype=float).copy()
        deltas = []
        converged = False
        gibbs_result: Optional[GibbsResult] = None
        performed = 0
        for _ in range(budget):
            if self._spec.estep_mode == "meanfield":
                gibbs_result = self._mean_field_estep(claim_subset)
            else:
                gibbs_result = self._sampler.sample(
                    state.probabilities, state.labelled_indices, claim_subset
                )
            marginals = gibbs_result.marginals
            state.set_probabilities(marginals)
            if update_weights:
                run_m_step(
                    self._model, state, self._spec.mstep, engine=self._engine
                )
            delta = float(np.mean(np.abs(marginals - previous)))
            deltas.append(delta)
            previous = marginals.copy()
            performed += 1
            if delta <= self._spec.em_tolerance:
                converged = True
                break

        assert gibbs_result is not None
        self._last_gibbs = gibbs_result
        grounding = decide_grounding(state, gibbs_result)
        return InferenceResult(
            marginals=np.asarray(state.probabilities).copy(),
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
        state = self._state
        marginals = np.asarray(state.probabilities, dtype=float).copy()
        label_indices, label_values = state.label_arrays()
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


def _covering(database: FactDatabase, state: ClaimState) -> ClaimState:
    """``state``, checked to cover exactly the database's claims."""
    if state.num_claims != database.num_claims:
        raise DataModelError(
            f"claim state covers {state.num_claims} claims, the database "
            f"{database.num_claims}"
        )
    return state
