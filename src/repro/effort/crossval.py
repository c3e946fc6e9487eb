"""k-fold cross-validated precision estimation (§6.1).

The *precision improvement rate* criterion estimates model precision
without ground truth: the labelled claims are split into k folds; each
fold's labels are held out in turn, credibility is re-inferred from the
remaining information, and the re-inferred values are compared with the
held-out user input.  The mean agreement across folds is the precision
estimate ``A_i`` at step i.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

import numpy as np

from repro.crf.model import CrfModel
from repro.crf.partition import ComponentIndex
from repro.errors import ValidationProcessError
from repro.utils.rng import RandomState, ensure_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.validation.process import ValidationProcess


def estimate_precision(
    process: "ValidationProcess",
    folds: int = 5,
    meanfield_steps: int = 4,
    seed: RandomState = 17,
) -> float:
    """Estimate grounding precision by k-fold cross validation.

    Args:
        process: The running validation process (its database and model
            are used; all mutations are rolled back).
        folds: Number of partitions k.
        meanfield_steps: Light-inference iterations per fold.
        seed: Seed for the fold shuffle (fixed by default so successive
            estimates during one run are comparable).

    Returns:
        ``A_i`` — the mean held-out agreement, in [0, 1].

    Raises:
        ValidationProcessError: With fewer labelled claims than folds.
    """
    database = process.database
    labelled = [int(c) for c in database.labelled_indices]
    if len(labelled) < folds:
        raise ValidationProcessError(
            f"need at least {folds} labelled claims for {folds}-fold CV, "
            f"have {len(labelled)}"
        )
    rng = ensure_rng(seed)
    shuffled = list(labelled)
    rng.shuffle(shuffled)
    partitions: List[List[int]] = [shuffled[j::folds] for j in range(folds)]

    model = process.icrf.model
    components = process.components
    agreements = []
    for partition in partitions:
        if not partition:
            continue
        agreements.append(
            _fold_agreement(model, components, partition, meanfield_steps)
        )
    return float(np.mean(agreements)) if agreements else 0.0


def _fold_agreement(
    model: CrfModel,
    components: ComponentIndex,
    held_out: List[int],
    meanfield_steps: int,
) -> float:
    """Agreement of re-inferred values with held-out labels for one fold."""
    database = model.database
    snapshot = database.clone_state()
    stored = {c: database.label_of(c) for c in held_out}
    try:
        scope: set = set()
        for claim_index in held_out:
            database.unlabel(claim_index)
            scope.update(
                int(c) for c in components.component_of_claim(claim_index)
            )
        marginals = model.mean_field(
            database.probabilities,
            steps=meanfield_steps,
            damping=0.2,
            scope=np.asarray(sorted(scope), dtype=np.intp),
            fixed=database.labelled_indices,
        )
        hits = sum(
            1
            for claim_index in held_out
            if int(marginals[claim_index] >= 0.5) == stored[claim_index]
        )
        return hits / len(held_out)
    finally:
        database.restore_state(snapshot)
