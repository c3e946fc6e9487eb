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
  one :class:`~repro.guidance.gain.StateSnapshot` and never mutates the
  shared database.  The candidates of one component form one block of
  hypotheses — the baseline plus a ``Q+`` and a ``Q-`` row per candidate
  — whose rows never see each other's hypothesis, over the component's
  :class:`~repro.crf.partition.ScopePlan` (its touched pair rows and
  source claim lists, derived once per component).  (On a 2-core host,
  spreading candidates over 2 or 4 threads measured slower than one
  thread in both inference modes, so blocks run in sequence.)

Hypothetical inference comes in two flavours: ``"meanfield"`` (default) —
a few steps of the model's damped mean-field operator
(:meth:`~repro.crf.model.CrfModel.mean_field`), deterministic, one
operator call per block; ``"gibbs"`` — a short throwaway Gibbs chain per
row on a read-only :class:`~repro.guidance.gain.HypotheticalView`,
closer to the paper's sampling-based estimate but noisier and slower
(the ``origin`` configuration of Fig. 2).  Gibbs-mode candidate streams
are pure functions of one root entropy draw per batched-gains call,
keyed by ``(candidate, hypothesis)`` — evaluation order cannot change
any result.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.crf.entropy import (
    binary_entropy,
    component_entropy,
    MAX_EXACT_COMPONENT,
)
from repro.crf.gibbs import GibbsSampler
from repro.crf.model import CrfModel
from repro.crf.partition import ComponentIndex, ScopePlan
from repro.data.database import FactDatabase
from repro.guidance.gain.config import GainConfig
from repro.guidance.gain.snapshot import HypotheticalView, StateSnapshot
from repro.utils.rng import RandomState, draw_entropy, ensure_rng, stream_rng

#: Stream-key prefixes of the per-call Gibbs generator tree: baseline
#: chains live under ``(_STREAM_BASELINE, component_key + 1)``,
#: hypothetical chains under ``(_STREAM_HYPOTHESIS, claim, value)``.
_STREAM_BASELINE = 1
_STREAM_HYPOTHESIS = 2

#: Elements of a block's widest row-shaped array (claims or touched
#: sources per row) evaluated at once: 128 KiB of float64, which keeps
#: the peak resident memory within about a megabyte of one-candidate
#: evaluation.  Rows are independent, so splitting a component's block
#: only bounds its transient memory; larger blocks measured at most
#: ~10% faster at wiki ×1.
_BLOCK_ELEMENTS = 1 << 14


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
        snapshot = StateSnapshot.capture(self._database)
        claims = [int(c) for c in claim_indices]
        # Labelled candidates gain nothing; the rest are grouped by the
        # component their hypotheses can move.
        gains = np.zeros(len(claims))
        groups: Dict[int, List[int]] = {}
        for position, claim in enumerate(claims):
            if claim not in snapshot.labels:
                groups.setdefault(self._component_key(claim), []).append(
                    position
                )
        for key, positions in groups.items():
            candidates = np.asarray([claims[p] for p in positions], dtype=np.intp)
            gains[positions] = self._component_gains(
                key, candidates, source_driven, snapshot, entropy
            )
        return gains

    # ------------------------------------------------------------------
    # Core computation
    # ------------------------------------------------------------------

    def _component_key(self, claim_index: int) -> int:
        """Baseline/stream key of the candidate's component (−1 = global)."""
        if self._config.localize:
            return int(self._components.component_of(claim_index))
        return -1

    def _plan(self, key: int) -> ScopePlan:
        """Structure plan of a component key's scope."""
        return self._components.plan(key if key >= 0 else None)

    def _scope(self, claim_index: int) -> np.ndarray:
        """Claims whose probabilities hypothetical input on ``c`` may move."""
        return self._plan(self._component_key(claim_index)).claims

    def _component_gains(
        self,
        key: int,
        candidates: np.ndarray,
        source_driven: bool,
        snapshot: StateSnapshot,
        entropy: Optional[int],
    ) -> np.ndarray:
        """Gains of the unlabelled candidates of one component.

        Evaluates one block of hypotheses: row 0 is the label-free
        baseline, rows ``2i + 1`` / ``2i + 2`` pin candidate ``i`` to 1 / 0.
        The baseline must come from the *same* light inference as
        ``Q+``/``Q-``, only without the hypothetical label — otherwise the
        inference's smoothing of the marginals masquerades as (negative)
        information gain for every candidate.
        """
        plan = self._plan(key)
        pinned = np.concatenate(([-1], np.repeat(candidates, 2)))
        values = np.concatenate(([0.0], np.tile([1.0, 0.0], candidates.size)))
        width = max(snapshot.num_claims, plan.source_counts.size, 1)
        step = max(1, _BLOCK_ELEMENTS // width)
        entropies = np.empty(pinned.size)
        for start in range(0, pinned.size, step):
            rows = slice(start, start + step)
            block = self._infer_block(
                plan, key, pinned[rows], values[rows], snapshot, entropy
            )
            if start == 0:
                p = block[0, candidates]
            entropies[rows] = (
                self._source_entropy(block, plan, snapshot)
                if source_driven
                else self._claim_entropy(block, pinned[rows], plan, snapshot)
            )
        current, plus, minus = entropies[0], entropies[1::2], entropies[2::2]
        return current - (p * plus + (1.0 - p) * minus)

    def _infer_block(
        self,
        plan: ScopePlan,
        key: int,
        pinned: np.ndarray,
        values: np.ndarray,
        snapshot: StateSnapshot,
        entropy: Optional[int],
    ) -> np.ndarray:
        """Light inference over the plan's scope, one row per hypothesis.

        Row ``k`` starts from the snapshot with claim ``pinned[k]`` (none
        when negative) labelled ``values[k]``.  Mean field runs the whole
        block through one operator call; a Gibbs chain per row draws from
        the call's stream for that hypothesis.
        """
        if self._config.inference_mode == "meanfield":
            rows = np.flatnonzero(pinned >= 0)
            start = np.repeat(snapshot.probabilities[None, :], pinned.size, axis=0)
            start[rows, pinned[rows]] = values[rows]
            held = np.zeros(start.shape, dtype=bool)
            held[:, snapshot.label_indices] = True
            held[rows, pinned[rows]] = True
            return self._model.mean_field(
                start,
                steps=self._config.meanfield_steps,
                damping=self._config.damping,
                scope=plan.claims,
                fixed=held,
                pairs=plan.pairs,
            )
        chains = []
        for claim, value in zip(pinned.tolist(), values.tolist()):
            if claim < 0:
                # Offset the key into non-negative spawn-key space: the
                # non-localised global key −1 maps to stream 0.
                view = HypotheticalView(snapshot)
                stream = (_STREAM_BASELINE, key + 1)
            else:
                view = HypotheticalView(snapshot, {claim: int(value)})
                stream = (_STREAM_HYPOTHESIS, claim, int(value))
            sampler = GibbsSampler(
                self._model,
                burn_in=self._config.gibbs_burn_in,
                num_samples=self._config.gibbs_samples,
                seed=stream_rng(entropy, *stream),
            )
            chains.append(
                sampler.sample(claim_subset=plan.claims, overlay=view).marginals
            )
        return np.stack(chains)

    # ------------------------------------------------------------------
    # Entropy restricted to a scope, one value per block row
    # ------------------------------------------------------------------

    #: Enumeration cap of the exact-entropy path.  Tighter than the global
    #: :data:`~repro.crf.entropy.MAX_EXACT_COMPONENT` because the gain
    #: estimator enumerates once per candidate and hypothesis (2 × |C^U|
    #: times per iteration), not once per database.
    _EXACT_ENTROPY_CAP = 12

    def _claim_entropy(
        self,
        block: np.ndarray,
        pinned: np.ndarray,
        plan: ScopePlan,
        snapshot: StateSnapshot,
    ) -> np.ndarray:
        """H_C over the scope (entropy outside cancels in differences).

        The exact method enumerates each row's free claims: the scope
        minus the labels and minus the row's pinned claim, which the
        hypothesis holds like a label.
        """
        entropies = _row_sums(binary_entropy(np.take(block, plan.claims, axis=1)))
        if self._config.entropy_method == "exact":
            free = plan.claims[~np.isin(plan.claims, snapshot.label_indices)]
            cap = min(self._EXACT_ENTROPY_CAP, MAX_EXACT_COMPONENT)
            for row, claim in enumerate(pinned.tolist()):
                row_free = free[free != claim]
                if 0 < row_free.size <= cap:
                    # component_entropy thresholds the supplied marginals
                    # directly — the database is never touched.
                    entropies[row] = component_entropy(
                        self._model, row_free, probabilities=block[row]
                    )
        return entropies

    def _source_entropy(
        self, block: np.ndarray, plan: ScopePlan, snapshot: StateSnapshot
    ) -> np.ndarray:
        """H_S over sources touching the scope (Eq. 18, Eq. 17).

        Source trust is estimated from the thresholded marginals — the
        light-inference surrogate of the grounding of Eq. 17: one gather
        of the plan's source claim lists and one segmented sum per block.
        The sums count 0/1 groundings, so they are exact in any order.
        """
        if plan.source_counts.size == 0:
            return np.zeros(block.shape[0])
        grounding = (block >= 0.5).astype(np.int8)
        label_indices, label_values = snapshot.label_arrays()
        if label_indices.size:
            grounding[:, label_indices] = label_values.astype(np.int8)
        sums = np.add.reduceat(
            np.take(grounding, plan.source_claims, axis=1),
            plan.source_starts,
            axis=1,
            dtype=np.int64,
        )
        return _row_sums(binary_entropy(sums / plan.source_counts))


def _row_sums(values: np.ndarray) -> np.ndarray:
    """Per-row sums of a 2-D array, each bit-identical to ``row.sum()``.

    A C-contiguous row is summed pairwise like a 1-D array; another
    layout would be reduced in a different order.
    """
    return np.ascontiguousarray(values).sum(axis=1)


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
