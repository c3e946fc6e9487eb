"""Mutate-and-restore oracle for k-fold cross-validated precision (§6.1).

:func:`repro.effort.crossval.estimate_precision` runs every fold as one
row of a mean-field block and never touches the database.  This oracle
is the direct way, one fold at a time: unlabel the fold's claims in a
copy of the claim state, run the per-row NumPy mean field of
``tests/meanfield_oracle.py`` over the fold's components, compare the
re-inferred values with the held-out labels, drop the copy.  It shuffles the
folds with the same generator, so the two must agree exactly.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.crf.model import CrfModel
from repro.crf.partition import ComponentIndex
from repro.data.state import ClaimState
from repro.utils.rng import ensure_rng

from tests import meanfield_oracle


def oracle_precision(process, folds: int, meanfield_steps: int = 4, seed=17) -> float:
    """``A_i`` of ``process`` by unlabelling each fold in a state copy."""
    labelled = [int(c) for c in process.state.labelled_indices]
    rng = ensure_rng(seed)
    shuffled = list(labelled)
    rng.shuffle(shuffled)
    partitions: List[List[int]] = [shuffled[j::folds] for j in range(folds)]
    agreements = [
        _fold_agreement(
            process.icrf.model,
            process.state,
            process.components,
            partition,
            meanfield_steps,
        )
        for partition in partitions
    ]
    return float(np.mean(agreements))


def _fold_agreement(
    model: CrfModel,
    state: ClaimState,
    components: ComponentIndex,
    held_out: List[int],
    meanfield_steps: int,
) -> float:
    """Agreement of re-inferred values with held-out labels for one fold."""
    fold = state.copy()
    stored = {c: state.label_of(c) for c in held_out}
    scope: set = set()
    for claim_index in held_out:
        fold.unlabel(claim_index)
        scope.update(int(c) for c in components.component_of_claim(claim_index))
    marginals = meanfield_oracle.mean_field(
        model,
        fold.probabilities,
        steps=meanfield_steps,
        damping=0.2,
        scope=np.asarray(sorted(scope), dtype=np.intp),
        fixed=fold.labelled_indices,
    )
    hits = sum(
        1
        for claim_index in held_out
        if int(marginals[claim_index] >= 0.5) == stored[claim_index]
    )
    return hits / len(held_out)
