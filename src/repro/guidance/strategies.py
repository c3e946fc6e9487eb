"""The five claim-selection strategies evaluated in §8.4.

* :class:`RandomStrategy` — the ``random`` baseline: uniform choice.
* :class:`UncertaintyStrategy` — the ``uncertainty`` baseline: the claim
  whose own credibility probability has maximal entropy.
* :class:`InformationGainStrategy` — ``info`` (§4.2, Eq. 16): maximal
  expected reduction of the claim-configuration entropy.
* :class:`SourceGainStrategy` — ``source`` (§4.3, Eq. 21): maximal
  expected reduction of the source-trust entropy.
* :class:`HybridStrategy` — ``hybrid`` (§4.4): roulette-wheel choice
  between the two gain-driven strategies using the score ``z_{i-1}``
  maintained by the validation process (Alg. 1, lines 7–9).
"""

from __future__ import annotations

import numpy as np

from repro.crf.entropy import binary_entropy
from repro.guidance.base import SelectionContext, SelectionStrategy


class RandomStrategy(SelectionStrategy):
    """Uniformly random selection among unlabelled claims."""

    name = "random"

    def select(self, context: SelectionContext) -> int:
        candidates = context.state.unlabelled_indices
        return int(context.rng.choice(candidates))

    def rank(self, context: SelectionContext, count: int):
        candidates = context.state.unlabelled_indices
        permuted = context.rng.permutation(candidates)
        return [int(c) for c in permuted[:count]]


class UncertaintyStrategy(SelectionStrategy):
    """Selects the most 'problematic' claim by marginal entropy (§8.4)."""

    name = "uncertainty"

    def scores(self, context: SelectionContext):
        candidates = context.state.unlabelled_indices
        probabilities = np.asarray(context.state.probabilities)[candidates]
        return candidates, binary_entropy(probabilities)

    def select(self, context: SelectionContext) -> int:
        candidates, values = self.scores(context)
        return int(candidates[_argmax(values, context)])


class InformationGainStrategy(SelectionStrategy):
    """Information-driven guidance: argmax IG_C (Eq. 16)."""

    name = "info"

    def scores(self, context: SelectionContext):
        candidates = context.candidates()
        return candidates, context.gains.information_gains(candidates, context.state)

    def select(self, context: SelectionContext) -> int:
        candidates, values = self.scores(context)
        return int(candidates[_argmax(values, context)])


class SourceGainStrategy(SelectionStrategy):
    """Source-driven guidance: argmax IG_S (Eq. 21)."""

    name = "source"

    def scores(self, context: SelectionContext):
        candidates = context.candidates()
        return candidates, context.gains.source_gains(candidates, context.state)

    def select(self, context: SelectionContext) -> int:
        candidates, values = self.scores(context)
        return int(candidates[_argmax(values, context)])


class HybridStrategy(SelectionStrategy):
    """Dynamic roulette-wheel mix of info- and source-driven guidance (§4.4).

    With probability ``z_{i-1}`` (Eq. 23) the source-driven strategy is
    used, otherwise the information-driven one — Alg. 1, lines 7–9.  The
    score itself is maintained by the validation process, which observes
    the error rate and the unreliable-source ratio.
    """

    name = "hybrid"

    def __init__(self) -> None:
        self._info = InformationGainStrategy()
        self._source = SourceGainStrategy()
        self.last_choice: str = ""

    def select(self, context: SelectionContext) -> int:
        use_source = context.rng.random() < context.hybrid_score
        strategy = self._source if use_source else self._info
        self.last_choice = strategy.name
        return strategy.select(context)

    def rank(self, context: SelectionContext, count: int):
        use_source = context.rng.random() < context.hybrid_score
        strategy = self._source if use_source else self._info
        self.last_choice = strategy.name
        return strategy.rank(context, count)


#: Registry keyed by the paper's legend names.
STRATEGIES = {
    "random": RandomStrategy,
    "uncertainty": UncertaintyStrategy,
    "info": InformationGainStrategy,
    "source": SourceGainStrategy,
    "hybrid": HybridStrategy,
}


def make_strategy(name: str) -> SelectionStrategy:
    """Instantiate a strategy by its paper legend name."""
    try:
        factory = STRATEGIES[name]
    except KeyError:
        known = ", ".join(sorted(STRATEGIES))
        raise ValueError(f"unknown strategy {name!r}; known: {known}") from None
    return factory()


def _argmax(values: np.ndarray, context: SelectionContext) -> int:
    """Argmax; ties break randomly (default) or by lowest position."""
    values = np.asarray(values, dtype=float)
    peak = values.max()
    ties = np.flatnonzero(values >= peak - 1e-12)
    if context.deterministic_ties:
        return int(ties[0])
    return int(context.rng.choice(ties))
