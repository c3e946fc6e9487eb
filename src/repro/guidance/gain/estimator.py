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
* **Independent candidates** (§5.1) — every batched-gains call reads the
  database's probabilities and labels once and never mutates it.  A
  hypothesis is a row: starting marginals with its pins set, plus a
  held mask (the labels and the pins).  The candidates of one component
  form one block of such rows — the baseline plus a ``Q+`` and a ``Q-``
  row per candidate — that never see each other's hypothesis, over the
  component's
  :class:`~repro.crf.partition.ScopePlan` (its touched pair rows and
  source claim lists, derived once per component).  (On a 2-core host,
  spreading candidates over 2 or 4 threads measured slower than one
  thread in both inference modes, so blocks run in sequence.)

Hypothetical inference comes in two flavours: ``"meanfield"`` (default) —
a few steps of the model's damped mean-field operator
(:meth:`~repro.crf.model.CrfModel.mean_field`), deterministic, one
operator call per block; ``"gibbs"`` — a short throwaway Gibbs chain per
row, started from the row and holding its mask
(:meth:`~repro.crf.gibbs.GibbsSampler.sample`), closer to the paper's
sampling-based estimate but noisier and slower (the ``origin``
configuration of Fig. 2).  Gibbs-mode candidate streams
are pure functions of one root entropy draw per batched-gains call,
keyed by ``(candidate, hypothesis)`` — evaluation order cannot change
any result.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.crf.entropy import (
    binary_entropy,
    component_entropy,
    MAX_EXACT_COMPONENT,
)
from repro.crf.gibbs import GibbsSampler
from repro.crf.model import CouplingPairs, CrfModel
from repro.crf.partition import ComponentIndex, ScopePlan
from repro.data.database import FactDatabase
from repro.guidance.gain.config import GainConfig
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

    def pinned_entropies(
        self, scope: np.ndarray, claims: Sequence[int], configurations: np.ndarray
    ) -> np.ndarray:
        """H_C over ``scope`` after light inference under each configuration.

        Row ``k`` labels ``claims`` with ``configurations[k]`` — a pin
        overrides a label, as :meth:`FactDatabase.label` does — and runs
        mean field over ``scope`` (iteration count and damping from the
        configuration).  The exact batch benefit of §6.2 enumerates its
        configurations this way.
        """
        probabilities, labelled = self._state()
        configurations = np.asarray(configurations, dtype=float)
        pinned = np.broadcast_to(
            np.asarray(claims, dtype=np.intp), configurations.shape
        )
        entropies = np.empty(len(configurations))
        for rows, start, held in _hypothesis_blocks(
            probabilities, labelled, pinned, configurations, probabilities.size
        ):
            block = self._mean_field(start, held, scope)
            entropies[rows] = _row_sums(binary_entropy(np.take(block, scope, axis=1)))
        return entropies

    def _state(self) -> Tuple[np.ndarray, np.ndarray]:
        """The database's probabilities and label mask, read once per call.

        A labelled claim's probability is its label value (``label`` and
        ``set_probabilities`` keep it so), so the pair is the whole state.
        """
        probabilities = self._database.probabilities
        labelled = np.zeros(probabilities.size, dtype=bool)
        labelled[self._database.labelled_indices] = True
        return probabilities, labelled

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
        probabilities, labelled = self._state()
        claims = [int(c) for c in claim_indices]
        # Labelled candidates gain nothing; the rest are grouped by the
        # component their hypotheses can move.
        gains = np.zeros(len(claims))
        groups: Dict[int, List[int]] = {}
        for position, claim in enumerate(claims):
            if not labelled[claim]:
                groups.setdefault(self._component_key(claim), []).append(
                    position
                )
        for key, positions in groups.items():
            candidates = np.asarray([claims[p] for p in positions], dtype=np.intp)
            gains[positions] = self._component_gains(
                key, candidates, source_driven, probabilities, labelled, entropy
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
        probabilities: np.ndarray,
        labelled: np.ndarray,
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
        entropies = np.empty(pinned.size)
        width = max(probabilities.size, plan.source_counts.size)
        for rows, start, held in _hypothesis_blocks(
            probabilities, labelled, pinned[:, None], values[:, None], width
        ):
            block = self._infer_block(
                plan, key, start, held, pinned[rows], values[rows], entropy
            )
            if rows.start == 0:
                p = block[0, candidates]
            entropies[rows] = (
                self._source_entropy(block, plan)
                if source_driven
                else self._claim_entropy(block, held, plan)
            )
        current, plus, minus = entropies[0], entropies[1::2], entropies[2::2]
        return current - (p * plus + (1.0 - p) * minus)

    def _infer_block(
        self,
        plan: ScopePlan,
        key: int,
        start: np.ndarray,
        held: np.ndarray,
        pinned: np.ndarray,
        values: np.ndarray,
        entropy: Optional[int],
    ) -> np.ndarray:
        """Light inference over the plan's scope, one row per hypothesis.

        Row ``k`` starts from ``start[k]`` and holds ``held[k]``; it pins
        claim ``pinned[k]`` (none when negative) to ``values[k]``.  Mean
        field runs the whole block through one operator call; a Gibbs
        chain per row draws from the call's stream for that hypothesis.
        """
        if self._config.inference_mode == "meanfield":
            return self._mean_field(start, held, plan.claims, plan.pairs)
        chains = []
        for row, (claim, value) in enumerate(zip(pinned.tolist(), values.tolist())):
            # Offset the key into non-negative spawn-key space: the
            # non-localised global key −1 maps to stream 0.
            stream = (
                (_STREAM_BASELINE, key + 1)
                if claim < 0
                else (_STREAM_HYPOTHESIS, claim, int(value))
            )
            sampler = GibbsSampler(
                self._model,
                burn_in=self._config.gibbs_burn_in,
                num_samples=self._config.gibbs_samples,
                seed=stream_rng(entropy, *stream),
            )
            result = sampler.sample(
                claim_subset=plan.claims, probabilities=start[row], fixed=held[row]
            )
            chains.append(result.marginals)
        return np.stack(chains)

    def _mean_field(
        self,
        start: np.ndarray,
        held: np.ndarray,
        scope: np.ndarray,
        pairs: Optional[CouplingPairs] = None,
    ) -> np.ndarray:
        """The configured mean-field steps over ``scope`` on a block."""
        return self._model.mean_field(
            start,
            steps=self._config.meanfield_steps,
            damping=self._config.damping,
            scope=scope,
            fixed=held,
            pairs=pairs,
        )

    # ------------------------------------------------------------------
    # Entropy restricted to a scope, one value per block row
    # ------------------------------------------------------------------

    #: Enumeration cap of the exact-entropy path.  Tighter than the global
    #: :data:`~repro.crf.entropy.MAX_EXACT_COMPONENT` because the gain
    #: estimator enumerates once per candidate and hypothesis (2 × |C^U|
    #: times per iteration), not once per database.
    _EXACT_ENTROPY_CAP = 12

    def _claim_entropy(
        self, block: np.ndarray, held: np.ndarray, plan: ScopePlan
    ) -> np.ndarray:
        """H_C over the scope (entropy outside cancels in differences).

        The exact method enumerates each row's free claims: the scope
        minus the row's held claims (the labels and its pin).
        """
        entropies = _row_sums(binary_entropy(np.take(block, plan.claims, axis=1)))
        if self._config.entropy_method == "exact":
            cap = min(self._EXACT_ENTROPY_CAP, MAX_EXACT_COMPONENT)
            for row in range(block.shape[0]):
                free = plan.claims[~held[row, plan.claims]]
                if 0 < free.size <= cap:
                    # component_entropy thresholds the supplied marginals
                    # directly — the database is never touched.
                    entropies[row] = component_entropy(
                        self._model, free, probabilities=block[row]
                    )
        return entropies

    def _source_entropy(self, block: np.ndarray, plan: ScopePlan) -> np.ndarray:
        """H_S over sources touching the scope (Eq. 18, Eq. 17).

        Source trust is estimated from the thresholded marginals — the
        light-inference surrogate of the grounding of Eq. 17: one gather
        of the plan's source claim lists and one segmented sum per block.
        Held claims keep their 0/1 starting values, so labels and pins
        ground as themselves.  The sums count 0/1 groundings, so they are
        exact in any order.
        """
        if plan.source_counts.size == 0:
            return np.zeros(block.shape[0])
        grounding = (block >= 0.5).astype(np.int8)
        sums = np.add.reduceat(
            np.take(grounding, plan.source_claims, axis=1),
            plan.source_starts,
            axis=1,
            dtype=np.int64,
        )
        return _row_sums(binary_entropy(sums / plan.source_counts))


def _hypothesis_blocks(
    probabilities: np.ndarray,
    labelled: np.ndarray,
    pinned: np.ndarray,
    values: np.ndarray,
    width: int,
) -> Iterator[Tuple[slice, np.ndarray, np.ndarray]]:
    """Starting marginals and held masks of hypothesis rows, block by block.

    Row ``k`` is the state ``(probabilities, labelled)`` with each claim
    ``pinned[k, j] >= 0`` labelled ``values[k, j]``: it starts at that
    value and is held, like the labels.  A block takes as many rows as
    keep ``width`` elements per row (its widest row-shaped array) within
    the block cap; rows are independent, so the split only bounds
    transient memory.
    """
    step = max(1, _BLOCK_ELEMENTS // max(width, 1))
    for first in range(0, len(pinned), step):
        rows = slice(first, first + step)
        pins = pinned[rows]
        hit, column = np.nonzero(pins >= 0)
        claims = pins[hit, column]
        start = np.repeat(probabilities[None, :], len(pins), axis=0)
        start[hit, claims] = values[rows][hit, column]
        held = np.repeat(labelled[None, :], len(start), axis=0)
        held[hit, claims] = True
        yield rows, start, held


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
