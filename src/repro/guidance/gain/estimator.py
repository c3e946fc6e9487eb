"""Information-gain machinery for user guidance (§4.2–§4.3).

The benefit of validating claim ``c`` is the expected uncertainty reduction

    IG(c) = H(Q) - [ P(c) · H(Q+) + (1 - P(c)) · H(Q-) ]        (Eq. 14–15)

where ``Q+`` / ``Q-`` are the databases obtained by *hypothetically*
confirming / refuting ``c`` and re-running light credibility inference.
:class:`GainEstimator` implements this for both the claim-configuration
entropy ``H_C`` (information-driven guidance) and the source-trust entropy
``H_S`` (source-driven guidance), with the efficiency levers of the paper:

* **Scalable entropy** (§4.1) — the linear approximation of Eq. 13 instead
  of exact enumeration.
* **Graph partitioning** (§5.1) — hypothetical input on ``c`` can only
  affect claims in ``c``'s connected component, so inference and entropy
  differences are restricted to it.
* **Independent candidates** (§5.1) — every batched-gains call captures
  one :class:`~repro.guidance.gain.StateSnapshot`; each hypothesis reads
  a read-only :class:`~repro.guidance.gain.HypotheticalView` of it, so
  the shared database is never mutated and no candidate sees another's
  hypothesis.  (On a 2-core host, spreading candidates over 2 or 4
  threads measured slower than one thread in both inference modes, so
  they run in sequence.)

Hypothetical inference comes in two flavours: ``"meanfield"`` (default) —
a few steps of the model's damped mean-field operator
(:meth:`~repro.crf.model.CrfModel.mean_field`), deterministic and
vector-fast; ``"gibbs"`` — a short throwaway Gibbs chain, closer to the
paper's sampling-based estimate but noisier and slower (the ``origin``
configuration of Fig. 2).  Gibbs-mode candidate streams are pure
functions of one root entropy draw per batched-gains call, keyed by
``(candidate, hypothesis)`` — evaluation order cannot change any result.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.crf.entropy import (
    binary_entropy,
    component_entropy,
    MAX_EXACT_COMPONENT,
)
from repro.crf.gibbs import GibbsSampler
from repro.crf.model import CrfModel
from repro.crf.partition import ComponentIndex
from repro.data.database import FactDatabase
from repro.guidance.gain.config import GainConfig
from repro.guidance.gain.snapshot import HypotheticalView, StateSnapshot
from repro.utils.arrays import concat_ranges
from repro.utils.rng import RandomState, draw_entropy, ensure_rng, stream_rng

#: Stream-key prefixes of the per-call Gibbs generator tree: baseline
#: chains live under ``(_STREAM_BASELINE, component_key + 1)``,
#: hypothetical chains under ``(_STREAM_HYPOTHESIS, claim, value)``.
_STREAM_BASELINE = 1
_STREAM_HYPOTHESIS = 2


class _CallContext:
    """Shared state of one batched-gains call.

    Carries the snapshot every hypothesis overlays, the root entropy of
    the call's Gibbs stream tree, and the per-component baselines.
    """

    #: Call-scoped scratch structure, never checkpointed.
    _STATE_EXCLUDED = ("snapshot", "entropy", "baselines")

    def __init__(
        self, snapshot: StateSnapshot, entropy: Optional[int]
    ) -> None:
        self.snapshot = snapshot
        self.entropy = entropy
        self.baselines: Dict[int, np.ndarray] = {}


class GainEstimator:
    """Evaluates IG_C (Eq. 15) and IG_S (Eq. 20) for candidate claims.

    Args:
        model: The CRF model (weights are read, never modified).
        components: Component index for localisation.
        config: Evaluation configuration.
        seed: Seed or generator (only Gibbs mode consumes randomness).
    """

    #: Rebuilt from the session spec on resume (STATE001); the generator
    #: ``_rng`` is the only checkpointed attribute and is carried by
    #: :meth:`ValidationProcess.state_dict`.
    _STATE_EXCLUDED = ("_model", "_database", "_config", "_components")

    def __init__(
        self,
        model: CrfModel,
        components: Optional[ComponentIndex] = None,
        config: Optional[GainConfig] = None,
        seed: RandomState = None,
    ) -> None:
        self._model = model
        self._database = model.database
        self._config = config if config is not None else GainConfig()
        self._components = (
            components if components is not None else ComponentIndex(self._database)
        )
        self._rng = ensure_rng(seed)

    @property
    def config(self) -> GainConfig:
        """The active configuration."""
        return self._config

    @property
    def components(self) -> ComponentIndex:
        """Connected-component index used for localisation."""
        return self._components

    # ------------------------------------------------------------------
    # Public gains
    # ------------------------------------------------------------------

    def information_gain(self, claim_index: int) -> float:
        """IG_C(c): expected claim-entropy reduction of validating ``c``."""
        return float(self._gains([claim_index], source_driven=False)[0])

    def source_gain(self, claim_index: int) -> float:
        """IG_S(c): expected source-entropy reduction of validating ``c``."""
        return float(self._gains([claim_index], source_driven=True)[0])

    def information_gains(self, claim_indices: Sequence[int]) -> np.ndarray:
        """Vector of IG_C over candidates."""
        return self._gains(claim_indices, source_driven=False)

    def source_gains(self, claim_indices: Sequence[int]) -> np.ndarray:
        """Vector of IG_S over candidates."""
        return self._gains(claim_indices, source_driven=True)

    def mean_field(self, scope: np.ndarray, view: HypotheticalView) -> np.ndarray:
        """Mean-field light inference over ``scope`` on a view's state.

        The view's labels and pins stay fixed; the iteration count and
        damping come from the configuration.
        """
        return self._model.mean_field(
            view.probabilities,
            steps=self._config.meanfield_steps,
            damping=self._config.damping,
            scope=scope,
            fixed=view.labelled_indices,
        )

    def _gains(
        self, claim_indices: Sequence[int], source_driven: bool
    ) -> np.ndarray:
        # One root entropy draw per call keys the whole Gibbs stream tree;
        # every chain seed is a pure function of (root, candidate, value),
        # so gains do not depend on evaluation order.  Mean-field mode is
        # deterministic and consumes nothing.
        entropy = (
            draw_entropy(self._rng)
            if self._config.inference_mode == "gibbs"
            else None
        )
        context = _CallContext(StateSnapshot.capture(self._database), entropy)
        return np.asarray(
            [self._gain(int(c), source_driven, context) for c in claim_indices]
        )

    # ------------------------------------------------------------------
    # Core computation
    # ------------------------------------------------------------------

    def _component_key(self, claim_index: int) -> int:
        """Baseline/stream key of the candidate's component (−1 = global)."""
        if self._config.localize:
            return int(self._components.component_of(claim_index))
        return -1

    def _scope(self, claim_index: int) -> np.ndarray:
        """Claims whose probabilities hypothetical input on ``c`` may move."""
        if self._config.localize:
            return self._components.component_of_claim(claim_index)
        return np.arange(self._database.num_claims, dtype=np.intp)

    def _gain(
        self, claim_index: int, source_driven: bool, context: _CallContext
    ) -> float:
        if claim_index in context.snapshot.labels:
            return 0.0
        scope = self._scope(claim_index)
        # The baseline H(Q) must be measured after the *same* light
        # inference operator as H(Q+)/H(Q-), only without the hypothetical
        # label — otherwise the inference's smoothing of the marginals
        # masquerades as (negative) information gain for every candidate.
        base = self._baseline_marginals(claim_index, scope, context)
        p = float(base[claim_index])

        positive = self._hypothetical_marginals(claim_index, 1, scope, context)
        negative = self._hypothetical_marginals(claim_index, 0, scope, context)

        entropy = self._source_entropy if source_driven else self._claim_entropy
        current = entropy(base, scope, context.snapshot)
        plus = entropy(positive, scope, context.snapshot)
        minus = entropy(negative, scope, context.snapshot)
        conditional = p * plus + (1.0 - p) * minus
        return float(current - conditional)

    def _baseline_marginals(
        self, claim_index: int, scope: np.ndarray, context: _CallContext
    ) -> np.ndarray:
        """Label-free light inference over the candidate's scope.

        Computed at most once per component per batched-gains call: the
        result is identical for all candidates of a component.
        """
        key = self._component_key(claim_index)
        if key not in context.baselines:
            # Offset the key into non-negative spawn-key space: the
            # non-localised global key −1 maps to stream 0.
            context.baselines[key] = self._infer(
                scope,
                HypotheticalView(context.snapshot),
                context,
                (_STREAM_BASELINE, key + 1),
            )
        return context.baselines[key]

    def _hypothetical_marginals(
        self,
        claim_index: int,
        value: int,
        scope: np.ndarray,
        context: _CallContext,
    ) -> np.ndarray:
        """Marginals of ``Q+`` / ``Q-`` under light inference."""
        return self._infer(
            scope,
            HypotheticalView(context.snapshot, {claim_index: value}),
            context,
            (_STREAM_HYPOTHESIS, claim_index, value),
        )

    def _infer(
        self,
        scope: np.ndarray,
        view: HypotheticalView,
        context: _CallContext,
        stream_key: Tuple[int, ...],
    ) -> np.ndarray:
        """Light inference over ``scope`` on ``view``.

        A Gibbs chain draws from the call's stream ``stream_key``.
        """
        if self._config.inference_mode == "meanfield":
            return self.mean_field(scope, view)
        sampler = GibbsSampler(
            self._model,
            burn_in=self._config.gibbs_burn_in,
            num_samples=self._config.gibbs_samples,
            seed=stream_rng(context.entropy, *stream_key),
        )
        return sampler.sample(claim_subset=scope, overlay=view).marginals

    # ------------------------------------------------------------------
    # Entropy restricted to a scope
    # ------------------------------------------------------------------

    #: Enumeration cap of the exact-entropy path.  Tighter than the global
    #: :data:`~repro.crf.entropy.MAX_EXACT_COMPONENT` because the gain
    #: estimator enumerates once per candidate and hypothesis (2 × |C^U|
    #: times per iteration), not once per database.
    _EXACT_ENTROPY_CAP = 12

    def _claim_entropy(
        self, marginals: np.ndarray, scope: np.ndarray, snapshot: StateSnapshot
    ) -> float:
        """H_C over the scope (entropy outside cancels in differences)."""
        if self._config.entropy_method == "exact":
            free = scope[~np.isin(scope, snapshot.label_indices)]
            if 0 < free.size <= min(self._EXACT_ENTROPY_CAP, MAX_EXACT_COMPONENT):
                # component_entropy thresholds the supplied marginals
                # directly — the database is never touched, so exact
                # entropies of different candidates run concurrently.
                return component_entropy(
                    self._model, free, probabilities=marginals
                )
        return float(binary_entropy(marginals[scope]).sum())

    def _source_entropy(
        self, marginals: np.ndarray, scope: np.ndarray, snapshot: StateSnapshot
    ) -> float:
        """H_S over sources touching the scope (Eq. 18, Eq. 17).

        Source trust is estimated from the thresholded marginals — the
        light-inference surrogate of the grounding of Eq. 17.  Fully
        vectorised over the cached claim–source graph: one gather of the
        scope's source lists, one gather of those sources' claim lists,
        one segmented mean.
        """
        grounding = (marginals >= 0.5).astype(np.int8)
        label_indices, label_values = snapshot.label_arrays()
        if label_indices.size:
            grounding[label_indices] = label_values.astype(np.int8)
        graph = self._database.claim_source_graph()
        scope = np.asarray(scope, dtype=np.intp)
        starts = graph.claim_ptr[scope]
        counts = graph.claim_ptr[scope + 1] - starts
        touched = np.unique(graph.source[concat_ranges(starts, counts)])
        if touched.size == 0:
            return 0.0
        src_starts = graph.source_ptr[touched]
        src_counts = graph.source_ptr[touched + 1] - src_starts
        gathered = graph.claim[
            graph.source_rows[concat_ranges(src_starts, src_counts)]
        ]
        segment = np.repeat(np.arange(touched.size), src_counts)
        sums = np.bincount(
            segment,
            weights=grounding[gathered].astype(float),
            minlength=touched.size,
        )
        trust = sums / src_counts
        return float(binary_entropy(trust).sum())


def marginal_entropy_ranking(
    database: FactDatabase, candidates: Iterable[int]
) -> np.ndarray:
    """Candidates sorted by descending marginal entropy of ``P(c)``.

    Used by the *uncertainty* baseline of §8.4 and as a pre-filter when a
    candidate pool limit is configured.
    """
    candidates = np.asarray(list(candidates), dtype=np.intp)
    probabilities = np.asarray(database.probabilities)[candidates]
    entropies = binary_entropy(probabilities)
    order = np.argsort(-entropies, kind="stable")
    return candidates[order]
