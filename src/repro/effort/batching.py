"""Batch selection of claims for joint validation (§6.2).

Validating a batch B of claims per iteration cuts the user's set-up costs.
The ideal batch maximises the expected uncertainty reduction (Eq. 24–25),
which is intractable, so the paper substitutes the utility

    F(B) = w Σ_{c∈B} q(c) IG(c)  -  Σ_{c,c'∈B} IG(c) M(c,c') IG(c')   (Eq. 27)

combining individual information gains with a redundancy penalty built on
the source-correlation matrix ``M(c, c') ∝ |{s | c ∈ C_s ∧ c' ∈ C_s}|``
and the importance weights ``q(c) = Σ_{c'} M(c, c') IG(c')``.  F is
monotone submodular, so the greedy algorithm implemented here enjoys the
classic (1 - 1/e) approximation guarantee; the marginal gain is updated
incrementally as in the paper:
``Δ_{i+1}(c) = Δ_i(c) - 2 IG(c*_i) M(c, c*_i) IG(c)``.

:func:`exact_batch_gain` evaluates the *exact* expected benefit of Eq. 24
by enumeration — one hypothesis row of light inference per configuration
of B, so exponential in |B| — for validating the greedy approximation on
small instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.crf.entropy import binary_entropy
from repro.data.database import FactDatabase
from repro.data.state import ClaimState
from repro.errors import GuidanceError
from repro.guidance.gain import GainEstimator, marginal_entropy_ranking


@dataclass
class BatchSelection:
    """Result of a batch-selection call.

    Attributes:
        claims: Selected claim indices, in greedy pick order.
        gains: IG_C of each selected claim.
        utility: F(B) of the selected batch.
    """

    claims: List[int]
    gains: List[float]
    utility: float


def correlation_matrix(
    database: FactDatabase, claims: Sequence[int]
) -> np.ndarray:
    """Source-correlation matrix M over the given claims (Eq. 26).

    ``M[i, j]`` counts the sources connected to both claims, normalised by
    the maximum count so all entries lie in [0, 1].  The diagonal counts a
    claim's own sources.
    """
    claims = list(claims)
    graph = database.claim_source_graph()
    source_sets = [
        set(graph.source[graph.claim_ptr[c] : graph.claim_ptr[c + 1]].tolist())
        for c in claims
    ]
    size = len(claims)
    matrix = np.zeros((size, size))
    for i in range(size):
        matrix[i, i] = len(source_sets[i])
        for j in range(i + 1, size):
            shared = len(source_sets[i] & source_sets[j])
            matrix[i, j] = shared
            matrix[j, i] = shared
    peak = matrix.max()
    if peak > 0:
        matrix /= peak
    return matrix


def batch_utility(
    gains: np.ndarray,
    correlation: np.ndarray,
    members: Sequence[int],
    utility_weight: float = 1.0,
) -> float:
    """F(B) of Eq. 27 for ``members`` (indices into ``gains``)."""
    members = list(members)
    if not members:
        return 0.0
    gains = np.asarray(gains, dtype=float)
    importance = correlation @ gains  # q(c) = Σ_c' M(c,c') IG(c')
    individual = float(np.sum(importance[members] * gains[members]))
    sub = correlation[np.ix_(members, members)]
    redundancy = float(gains[members] @ sub @ gains[members])
    return utility_weight * individual - redundancy


def greedy_topk_selection(
    database: FactDatabase,
    state: ClaimState,
    gains: GainEstimator,
    k: int,
    utility_weight: float = 1.0,
    candidate_limit: Optional[int] = None,
) -> BatchSelection:
    """Greedy top-k batch selection with incremental gain updates (§6.2).

    Args:
        database: The fact database (for the source correlation).
        state: The claim state the gains are evaluated at.
        gains: Information-gain estimator for IG_C.
        k: Batch size.
        utility_weight: The w of Eq. 27.
        candidate_limit: Restrict the candidate pool to the most uncertain
            claims (``None`` considers all of C^U).

    Returns:
        The selected batch with its utility value.

    Raises:
        GuidanceError: When no unlabelled claims remain or k < 1.
    """
    if k < 1:
        raise GuidanceError(f"batch size must be at least 1, got {k}")
    unlabelled = state.unlabelled_indices
    if unlabelled.size == 0:
        raise GuidanceError("no unlabelled claims remain")
    if candidate_limit is not None and unlabelled.size > candidate_limit:
        candidates = marginal_entropy_ranking(state, unlabelled)[:candidate_limit]
    else:
        candidates = unlabelled
    candidates = np.asarray(candidates, dtype=np.intp)
    k = min(k, candidates.size)

    gain_values = np.asarray(gains.information_gains(candidates, state), dtype=float)
    gain_values = np.maximum(gain_values, 0.0)
    correlation = correlation_matrix(database, candidates)
    importance = correlation @ gain_values

    # Initial marginal gain of each singleton: F({c}).
    delta = (
        utility_weight * importance * gain_values
        - np.diag(correlation) * gain_values**2
    )
    selected: List[int] = []
    selected_mask = np.zeros(candidates.size, dtype=bool)
    for _ in range(k):
        masked = np.where(selected_mask, -np.inf, delta)
        best = int(np.argmax(masked))
        if not np.isfinite(masked[best]):
            break
        selected.append(best)
        selected_mask[best] = True
        # Incremental update: Δ(c) -= 2 IG(c*) M(c, c*) IG(c).
        delta = delta - 2.0 * gain_values[best] * correlation[:, best] * gain_values

    members = selected
    utility = batch_utility(gain_values, correlation, members, utility_weight)
    return BatchSelection(
        claims=[int(candidates[i]) for i in members],
        gains=[float(gain_values[i]) for i in members],
        utility=utility,
    )


def exhaustive_topk_selection(
    database: FactDatabase,
    state: ClaimState,
    gains: GainEstimator,
    k: int,
    utility_weight: float = 1.0,
    candidate_limit: Optional[int] = 12,
) -> BatchSelection:
    """Exhaustive argmax of F(B) (Eq. 28) — exponential, for evaluation.

    Used by tests and the ablation benchmark to measure how close the
    greedy selection gets to the optimum on small candidate pools.
    """
    if k < 1:
        raise GuidanceError(f"batch size must be at least 1, got {k}")
    unlabelled = state.unlabelled_indices
    if unlabelled.size == 0:
        raise GuidanceError("no unlabelled claims remain")
    if candidate_limit is not None and unlabelled.size > candidate_limit:
        candidates = marginal_entropy_ranking(state, unlabelled)[:candidate_limit]
    else:
        candidates = unlabelled
    candidates = np.asarray(candidates, dtype=np.intp)
    k = min(k, candidates.size)

    gain_values = np.maximum(
        np.asarray(gains.information_gains(candidates, state), dtype=float), 0.0
    )
    correlation = correlation_matrix(database, candidates)
    best_members: tuple = ()
    best_utility = -np.inf
    for members in itertools.combinations(range(candidates.size), k):
        utility = batch_utility(gain_values, correlation, members, utility_weight)
        if utility > best_utility:
            best_utility = utility
            best_members = members
    return BatchSelection(
        claims=[int(candidates[i]) for i in best_members],
        gains=[float(gain_values[i]) for i in best_members],
        utility=float(best_utility),
    )


def exact_batch_gain(
    state: ClaimState,
    gains: GainEstimator,
    claims: Sequence[int],
) -> float:
    """Exact expected benefit of validating ``claims`` (Eq. 24–25).

    Enumerates all credibility configurations of the batch, weights each
    by its probability under the current (independent) marginals, runs the
    light hypothetical inference for each, and averages the resulting
    entropies.  Exponential in ``len(claims)``.

    The nonzero-weight configurations run as rows of one mean-field
    block (:meth:`GainEstimator.pinned_entropies`); ``state`` is never
    mutated.  A row starts each batch claim at its configured value and
    holds it, which is exactly what labelling the claim did — also for
    a claim that is already labelled.

    Raises:
        GuidanceError: With |B| > 12 or a claim index outside the state.
    """
    claims = [int(c) for c in claims]
    if not claims:
        return 0.0
    if len(claims) > 12:
        raise GuidanceError(
            "exact batch gain enumerates 2^|B| configurations; |B| > 12 "
            "is not supported"
        )
    outside = [c for c in claims if not 0 <= c < state.num_claims]
    if outside:
        raise GuidanceError(
            f"claim indices {outside} outside [0, {state.num_claims})"
        )
    probabilities = np.asarray(state.probabilities, dtype=float)
    scope = np.unique(
        np.concatenate([gains.components.component_of_claim(c) for c in claims])
    ).astype(np.intp)

    current_entropy = float(binary_entropy(probabilities[scope]).sum())
    weights = []
    configurations = []
    for values in itertools.product((0, 1), repeat=len(claims)):
        weight = 1.0
        for claim, value in zip(claims, values):
            p = float(probabilities[claim])
            weight *= p if value == 1 else (1.0 - p)
        if weight != 0.0:
            weights.append(weight)
            configurations.append(values)
    entropies = gains.pinned_entropies(
        scope, claims, np.reshape(configurations, (-1, len(claims))), state
    )
    conditional = 0.0
    for weight, entropy in zip(weights, entropies.tolist()):
        conditional += weight * entropy
    return current_entropy - conditional
