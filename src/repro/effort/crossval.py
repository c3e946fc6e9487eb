"""k-fold cross-validated precision estimation (§6.1).

The *precision improvement rate* criterion estimates model precision
without ground truth: the labelled claims are split into k folds; each
fold's labels are held out in turn, credibility is re-inferred from the
remaining information, and the re-inferred values are compared with the
held-out user input.  The mean agreement across folds is the precision
estimate ``A_i`` at step i.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

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

    Each fold is one row of a mean-field block: its held-out claims start
    at the database prior and are free, together with the unlabelled
    claims of their components; every other claim is held.  The database
    is read, never mutated.

    Args:
        process: The running validation process (its database, model and
            component index are used).
        folds: Number of partitions k.
        meanfield_steps: Light-inference iterations per fold.
        seed: Seed for the fold shuffle (fixed by default so successive
            estimates during one run are comparable).

    Returns:
        ``A_i`` — the mean held-out agreement, in [0, 1].

    Raises:
        ValidationProcessError: With fewer than one fold or fewer labelled
            claims than folds.
    """
    if folds < 1:
        raise ValidationProcessError(f"folds must be positive, got {folds}")
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
    partitions = [
        np.asarray(shuffled[j::folds], dtype=np.intp) for j in range(folds)
    ]

    # A labelled claim's probability is its label value.
    probabilities = database.probabilities
    is_labelled = np.zeros(probabilities.size, dtype=bool)
    is_labelled[labelled] = True
    start = np.repeat(probabilities[None, :], folds, axis=0)
    held = np.ones(start.shape, dtype=bool)
    for row, fold in enumerate(partitions):
        scope = np.concatenate(
            [process.components.component_of_claim(c) for c in fold]
        )
        held[row, scope] = is_labelled[scope]
        held[row, fold] = False
        start[row, fold] = database.prior
    marginals = process.icrf.model.mean_field(
        start, steps=meanfield_steps, damping=0.2, fixed=held
    )
    agreements = [
        np.count_nonzero((marginals[row, fold] >= 0.5) == (probabilities[fold] >= 0.5))
        / fold.size
        for row, fold in enumerate(partitions)
    ]
    return float(np.mean(agreements))
