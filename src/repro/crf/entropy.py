"""Uncertainty measures over probabilistic fact databases (§4.1).

Two estimators of the configuration entropy ``H_C(Q)`` are provided:

* :func:`approximate_entropy` — the linear-time approximation of Eq. 13,
  summing the Bernoulli entropies of the per-claim marginals.  This is the
  "scalable" variant of Fig. 2 and the default everywhere.
* :func:`exact_entropy` — exact computation by enumeration, done per CRF
  connected component (entropy is additive over independent components).
  The paper computes the partition function with Ising methods on its
  acyclic graphs; our coupled graphs are not acyclic in general, so we
  enumerate components up to a size cap and fall back to the approximation
  for larger ones.

Source-trustworthiness uncertainty ``H_S(Q)`` (Eq. 17–18) is estimated from
a grounding: the trust of a source is the fraction of its claims that the
grounding deems credible.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.crf.model import CrfModel
from repro.data.database import FactDatabase
from repro.data.grounding import Grounding
from repro.errors import InferenceError
from repro.utils.arrays import concat_ranges

#: Components larger than this are never enumerated exactly.
MAX_EXACT_COMPONENT = 18


def binary_entropy(probabilities: np.ndarray) -> np.ndarray:
    """Elementwise Bernoulli entropy in nats, with ``0 log 0 = 0``."""
    p = np.clip(np.asarray(probabilities, dtype=float), 0.0, 1.0)
    out = np.zeros_like(p)
    interior = (p > 0.0) & (p < 1.0)
    pi = p[interior]
    out[interior] = -(pi * np.log(pi) + (1.0 - pi) * np.log1p(-pi))
    return out


def approximate_entropy(probabilities: np.ndarray) -> float:
    """``H_C(Q)`` by the linear approximation of Eq. 13 (nats)."""
    return float(binary_entropy(probabilities).sum())


def exact_entropy(
    model: CrfModel,
    max_component: int = MAX_EXACT_COMPONENT,
    probabilities: Optional[np.ndarray] = None,
) -> float:
    """``H_C(Q)`` with exact per-component enumeration (Eq. 11–12).

    Claims in components of size ≤ ``max_component`` contribute their exact
    joint entropy (labelled claims are clamped); larger components fall
    back to the marginal approximation of Eq. 13.

    Args:
        model: The CRF model whose energy defines the distribution.
        max_component: Enumeration size cap.
        probabilities: Marginals used for the fallback; defaults to the
            database's current ``P``.

    Returns:
        Entropy in nats.
    """
    if max_component < 1:
        raise InferenceError(
            f"max_component must be positive, got {max_component}"
        )
    max_component = min(max_component, MAX_EXACT_COMPONENT)
    database = model.database
    if probabilities is None:
        probabilities = np.asarray(database.probabilities, dtype=float)
    labelled = set(int(i) for i in database.labelled_indices)

    total = 0.0
    for component in database.connected_components():
        free = np.asarray(
            [int(c) for c in component if int(c) not in labelled], dtype=np.intp
        )
        if free.size == 0:
            continue
        if free.size > max_component:
            total += approximate_entropy(probabilities[free])
            continue
        total += component_entropy(model, free)
    return total


def component_entropy(
    model: CrfModel,
    free_claims: np.ndarray,
    probabilities: Optional[np.ndarray] = None,
) -> float:
    """Exact joint entropy of the free claims of one component (nats).

    Enumerates all ``2^k`` configurations of the free claims with every
    other claim held at its maximum-marginal value, normalises the joint
    potentials, and returns the Shannon entropy.  The enumeration is
    vectorised: only the free claims' contributions to the linear term and
    to the involved sources' consistency statistics vary across
    configurations, so the whole batch of log-potentials is computed with
    a handful of matrix operations instead of ``2^k`` joint evaluations.

    Args:
        model: The CRF model supplying fields, couplings, and labels.
        free_claims: Claims enumerated over (all others held fixed).
        probabilities: Marginals the fixed claims are thresholded from;
            defaults to the database's current probabilities.  Gain
            evaluation passes its hypothetical marginals here so the
            database never has to be mutated to measure an entropy.
    """
    free_claims = np.asarray(free_claims, dtype=np.intp)
    k = free_claims.size
    if k == 0:
        return 0.0
    if k > MAX_EXACT_COMPONENT:
        raise InferenceError(
            f"component of {k} claims exceeds the enumeration cap "
            f"{MAX_EXACT_COMPONENT}"
        )
    database = model.database
    if probabilities is None:
        probabilities = database.probabilities
    base = (np.asarray(probabilities) >= 0.5).astype(float)
    label_indices, label_values = database.label_arrays()
    if label_indices.size:
        base[label_indices] = label_values

    local_fields = model.local_fields
    base_free = base[free_claims]
    lf_free = local_fields[free_claims]
    linear_rest = float(local_fields @ base) - float(lf_free @ base_free)

    gamma = model.weights.coupling if model.coupling_enabled else 0.0
    stance_matrix = None
    if gamma != 0.0:
        graph = model.graph
        spins_base = 2.0 * base - 1.0
        stats_base = model.source_statistics(spins_base)
        denom = np.maximum(graph.source_cliques, 1.0)
        quad_base = stats_base * stats_base / denom
        # Net-stance matrix of the free claims over the sources they touch.
        starts = graph.claim_ptr[free_claims]
        counts = graph.claim_ptr[free_claims + 1] - starts
        rows = concat_ranges(starts, counts)
        if rows.size:
            touched = np.unique(graph.source[rows])
            stance_matrix = np.zeros((k, touched.size))
            local_claim = np.repeat(np.arange(k), counts)
            column = np.searchsorted(touched, graph.source[rows])
            stance_matrix[local_claim, column] = graph.stance[rows]
            stats_touched = stats_base[touched]
            denom_touched = denom[touched]
            quad_rest = float(quad_base.sum() - quad_base[touched].sum())
        else:
            quad_rest = float(quad_base.sum())

    # Enumerate in mask chunks to bound the size of the bit matrices; row
    # m holds the 0/1 values of the free claims under enumeration mask m
    # (bit b ↔ free claim b, matching the scalar enumeration order).
    total = 2**k
    chunk = min(total, 1 << 14)
    log_potentials = np.empty(total)
    bit_columns = np.arange(k)[None, :]
    for start in range(0, total, chunk):
        masks = np.arange(start, min(start + chunk, total))
        bits = ((masks[:, None] >> bit_columns) & 1).astype(float)
        values = linear_rest + bits @ lf_free
        if gamma != 0.0:
            if stance_matrix is not None:
                spin_delta = 2.0 * (bits - base_free[None, :])
                stats_sub = (
                    stats_touched[None, :] + spin_delta @ stance_matrix
                )
                quad = (
                    (stats_sub * stats_sub / denom_touched).sum(axis=1)
                    + quad_rest
                )
            else:
                quad = quad_rest
            values = values + 0.5 * gamma * quad
        log_potentials[start : start + masks.size] = values

    log_z = _log_sum_exp(log_potentials)
    log_probs = log_potentials - log_z
    probs = np.exp(log_probs)
    return float(-(probs * log_probs).sum())


def _log_sum_exp(values: np.ndarray) -> float:
    peak = values.max()
    return float(peak + np.log(np.exp(values - peak).sum()))


def source_trust_from_grounding(
    database: FactDatabase, grounding: Grounding
) -> np.ndarray:
    """Source trustworthiness Pr(s) per Eq. 17.

    Pr(s) is the fraction of the source's claims the grounding deems
    credible.  Sources without claims get the neutral value 0.5.
    """
    values = np.asarray(grounding.values, dtype=float)
    graph = database.claim_source_graph()
    counts = np.diff(graph.source_ptr)
    # Grounding values are 0/1, so each per-source sum is exact in any
    # summation order.
    sums = np.bincount(
        graph.source, weights=values[graph.claim], minlength=database.num_sources
    )
    trust = np.full(database.num_sources, 0.5)
    covered = counts > 0
    trust[covered] = sums[covered] / counts[covered]
    return trust


def source_entropy(trust: np.ndarray) -> float:
    """``H_S(Q)`` — summed Bernoulli entropy of source trust (Eq. 18)."""
    return float(binary_entropy(trust).sum())


def unreliable_source_ratio(trust: np.ndarray) -> float:
    """``r_i = |{s | Pr(s) < 0.5}| / |S|`` (§4.4).

    Sources without claims carry the neutral trust 0.5 and therefore do
    not count as unreliable.
    """
    trust = np.asarray(trust, dtype=float)
    if trust.size == 0:
        return 0.0
    return float(np.count_nonzero(trust < 0.5) / trust.size)
