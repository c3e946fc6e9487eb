"""Mutate-and-restore oracle for information-gain evaluation.

The production :class:`~repro.guidance.gain.GainEstimator` answers "what
would inference say if claim ``c`` were labelled ``v``?" on read-only
views of one state snapshot, with Gibbs chains on the model's engine
(merge walk in the compiled kernel).  This oracle answers it the direct
way: label ``c`` in the live database, run the light inference against
the database with the merge walk in Python, restore.  It consumes the
estimator's generator and derives its chain streams exactly like the
estimator does, so the two must agree bit for bit — across the two
walks.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.crf.gibbs import GibbsSampler
from repro.guidance.gain import GainEstimator, StateSnapshot
from repro.guidance.gain.estimator import _STREAM_BASELINE, _STREAM_HYPOTHESIS
from repro.utils.rng import draw_entropy, stream_rng

from tests.reference_engine import PythonWalkEngine


def oracle_gains(
    estimator: GainEstimator,
    claims: Sequence[int],
    source_driven: bool = False,
) -> np.ndarray:
    """IG_C (or IG_S) of ``claims`` by labelling the live database."""
    config = estimator.config
    model = estimator._model
    database = model.database
    gibbs = config.inference_mode == "gibbs"
    entropy = draw_entropy(estimator._rng) if gibbs else None
    snapshot = StateSnapshot.capture(database)
    entropy_of = (
        estimator._source_entropy if source_driven else estimator._claim_entropy
    )

    def infer(scope, *stream_key):
        if not gibbs:
            return model.mean_field(
                database.probabilities,
                steps=config.meanfield_steps,
                damping=config.damping,
                scope=scope,
                fixed=database.labelled_indices,
            )
        sampler = GibbsSampler(
            model,
            burn_in=config.gibbs_burn_in,
            num_samples=config.gibbs_samples,
            seed=stream_rng(entropy, *stream_key),
            engine=PythonWalkEngine,
        )
        return sampler.sample(claim_subset=scope).marginals

    def hypothetical(claim, value, scope):
        state = database.clone_state()
        try:
            database.label(claim, value)
            return infer(scope, _STREAM_HYPOTHESIS, claim, value)
        finally:
            database.restore_state(state)

    gains = []
    baselines = {}
    for claim in (int(c) for c in claims):
        if database.is_labelled(claim):
            gains.append(0.0)
            continue
        scope = estimator._scope(claim)
        key = estimator._component_key(claim)
        if key not in baselines:
            baselines[key] = infer(scope, _STREAM_BASELINE, key + 1)
        base = baselines[key]
        p = float(base[claim])
        plus = entropy_of(hypothetical(claim, 1, scope), scope, snapshot)
        minus = entropy_of(hypothetical(claim, 0, scope), scope, snapshot)
        current = entropy_of(base, scope, snapshot)
        gains.append(float(current - (p * plus + (1.0 - p) * minus)))
    return np.asarray(gains)
