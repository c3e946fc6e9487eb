"""Per-row NumPy oracle of the CRF's mean-field operator.

:meth:`repro.crf.model.CrfModel.mean_field` iterates a K×n block of
marginals with the coupling sums in a compiled kernel (or one flat
NumPy ``bincount`` when no compiler is present).  These functions are
the operator as it was written for one row: the coupling sums over the
whole pair table with ``np.bincount`` and ``np.add.at``, the logits as
local field plus γ times the trust signal.  Each block row must equal
one call of :func:`mean_field` bit for bit.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.crf.model import CrfModel
from repro.crf.potentials import sigmoid


def trust_signals(model: CrfModel, probabilities: np.ndarray) -> np.ndarray:
    """``T_c = 2 Σ_s B_{s,c} A_s^{-c} / n_s`` at expected spins, one row."""
    graph = model.graph
    spins = 2.0 * np.asarray(probabilities, dtype=float) - 1.0
    stats = model.source_statistics(spins)
    own = graph.stance * spins[graph.claim]
    excluded = stats[graph.source] - own
    denom = np.maximum(graph.source_cliques[graph.source], 1.0)
    contributions = 2.0 * graph.stance * excluded / denom
    signals = np.zeros(model.database.num_claims)
    np.add.at(signals, graph.claim, contributions)
    if not model.coupling_enabled:
        signals[:] = 0.0
    return signals


def mean_field(
    model: CrfModel,
    probabilities: np.ndarray,
    *,
    steps: int,
    damping: float,
    scope: Optional[np.ndarray] = None,
    fixed: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The damped mean-field fixed point of one row of marginals."""
    marginals = np.asarray(probabilities, dtype=float).copy()
    free = (
        np.arange(marginals.size, dtype=np.intp)
        if scope is None
        else np.asarray(scope, dtype=np.intp)
    )
    if fixed is not None and len(fixed):
        held = np.zeros(marginals.size, dtype=bool)
        held[np.asarray(fixed, dtype=np.intp)] = True
        free = free[~held[free]]
    if free.size == 0:
        return marginals
    for _ in range(steps):
        logits = model.local_fields.copy()
        if model.coupling_enabled:
            logits = logits + model.weights.coupling * trust_signals(
                model, marginals
            )
        updated = sigmoid(logits[free])
        marginals[free] = damping * marginals[free] + (1.0 - damping) * updated
    return marginals
