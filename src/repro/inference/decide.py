"""Grounding instantiation from Gibbs samples (§3.3, Eq. 10).

``decide`` labels a claim credible when the user confirmed it, or when the
claim is credible in the most frequent configuration of the last Gibbs
sample sequence — the sample-based surrogate for the maximum-joint-
probability configuration of Eq. 9, whose exact computation would be a
Boolean-satisfiability-like problem.
"""

from __future__ import annotations

import numpy as np

from repro.crf.gibbs import GibbsResult
from repro.data.grounding import Grounding
from repro.data.state import ClaimState
from repro.errors import InferenceError


def decide_grounding(state: ClaimState, result: GibbsResult) -> Grounding:
    """Instantiate the grounding g_z from the last sampling result.

    Args:
        state: Claim state holding the user labels C^L.
        result: Gibbs output whose mode configuration decides unlabelled
            claims.

    Returns:
        The grounding: labelled claims keep their user value, unlabelled
        claims take their value in the most frequent sampled configuration.
    """
    mode = np.asarray(result.mode_configuration)
    if mode.shape != (state.num_claims,):
        raise InferenceError(
            "mode configuration does not cover the state's claims"
        )
    values = mode.astype(np.int8).copy()
    label_indices, label_values = state.label_arrays()
    if label_indices.size:
        values[label_indices] = label_values.astype(np.int8)
    return Grounding(values)


def threshold_grounding(state: ClaimState, threshold: float = 0.5) -> Grounding:
    """The naive instantiation of §2.3: threshold the marginals.

    Used as a baseline and by light-weight re-inference paths that do not
    run a full Gibbs pass.
    """
    values = (np.asarray(state.probabilities) >= threshold).astype(np.int8)
    label_indices, label_values = state.label_arrays()
    if label_indices.size:
        values[label_indices] = label_values.astype(np.int8)
    return Grounding(values)
