"""Mutate-and-restore oracle for information-gain evaluation.

The production :class:`~repro.guidance.gain.GainEstimator` answers "what
would inference say if claim ``c`` were labelled ``v``?" for all
candidates of a component at once: one K×n block of hypothesis rows
(starting marginals plus a held mask), mean field with its coupling sums
in the compiled kernel, Gibbs chains on the model's engine (merge walk in
the compiled kernel).  This oracle answers it the direct way, one
candidate and hypothesis at a time: label ``c`` in the live database, run
the light inference against the database — the per-row NumPy mean field
of ``tests/meanfield_oracle.py``, or a chain with the merge walk in
Python — measure the entropy, restore.  It consumes the estimator's
generator and derives its chain streams exactly like the estimator does,
so the two must agree bit for bit.  :func:`oracle_exact_batch_gain` does
the same for the exact batch benefit of §6.2, one configuration at a
time.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from repro.crf.entropy import MAX_EXACT_COMPONENT, binary_entropy, component_entropy
from repro.crf.gibbs import GibbsSampler
from repro.guidance.gain import GainEstimator
from repro.guidance.gain.estimator import _STREAM_BASELINE, _STREAM_HYPOTHESIS
from repro.utils.arrays import concat_ranges
from repro.utils.rng import draw_entropy, stream_rng

from tests import meanfield_oracle
from tests.reference_engine import PythonWalkEngine


def claim_entropy(estimator, marginals, scope) -> float:
    """H_C over ``scope`` with the live database's labels held."""
    database = estimator._model.database
    if estimator.config.entropy_method == "exact":
        free = scope[~np.isin(scope, database.labelled_indices)]
        cap = min(estimator._EXACT_ENTROPY_CAP, MAX_EXACT_COMPONENT)
        if 0 < free.size <= cap:
            return component_entropy(
                estimator._model, free, probabilities=marginals
            )
    return float(binary_entropy(marginals[scope]).sum())


def source_entropy(estimator, marginals, scope) -> float:
    """H_S over the sources touching ``scope`` (Eq. 17–18), one row."""
    database = estimator._model.database
    grounding = (marginals >= 0.5).astype(np.int8)
    label_indices, label_values = database.label_arrays()
    if label_indices.size:
        grounding[label_indices] = label_values.astype(np.int8)
    graph = database.claim_source_graph()
    starts = graph.claim_ptr[scope]
    counts = graph.claim_ptr[scope + 1] - starts
    touched = np.unique(graph.source[concat_ranges(starts, counts)])
    if touched.size == 0:
        return 0.0
    src_starts = graph.source_ptr[touched]
    src_counts = graph.source_ptr[touched + 1] - src_starts
    gathered = graph.claim[
        graph.source_rows[concat_ranges(src_starts, src_counts)]
    ]
    segment = np.repeat(np.arange(touched.size), src_counts)
    sums = np.bincount(
        segment,
        weights=grounding[gathered].astype(float),
        minlength=touched.size,
    )
    return float(binary_entropy(sums / src_counts).sum())


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
    entropy_of = source_entropy if source_driven else claim_entropy

    def infer(scope, *stream_key):
        if not gibbs:
            return meanfield_oracle.mean_field(
                model,
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
        """H of the scope with ``claim`` labelled ``value``."""
        state = database.clone_state()
        try:
            database.label(claim, value)
            marginals = infer(scope, _STREAM_HYPOTHESIS, claim, value)
            return entropy_of(estimator, marginals, scope)
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
        plus = hypothetical(claim, 1, scope)
        minus = hypothetical(claim, 0, scope)
        current = entropy_of(estimator, base, scope)
        gains.append(float(current - (p * plus + (1.0 - p) * minus)))
    return np.asarray(gains)


def oracle_exact_batch_gain(
    database, estimator: GainEstimator, claims: Sequence[int]
) -> float:
    """Eq. 24–25 by labelling each configuration of ``claims`` in turn."""
    config = estimator.config
    claims = [int(c) for c in claims]
    probabilities = np.asarray(database.probabilities, dtype=float).copy()
    scope: set = set()
    for claim in claims:
        scope.update(int(c) for c in estimator.components.component_of_claim(claim))
    scope_array = np.asarray(sorted(scope), dtype=np.intp)
    current = float(binary_entropy(probabilities[scope_array]).sum())
    conditional = 0.0
    for values in itertools.product((0, 1), repeat=len(claims)):
        weight = 1.0
        for claim, value in zip(claims, values):
            p = float(probabilities[claim])
            weight *= p if value == 1 else (1.0 - p)
        if weight == 0.0:
            continue
        state = database.clone_state()
        try:
            for claim, value in zip(claims, values):
                database.label(claim, value)
            marginals = meanfield_oracle.mean_field(
                estimator._model,
                database.probabilities,
                steps=config.meanfield_steps,
                damping=config.damping,
                scope=scope_array,
                fixed=database.labelled_indices,
            )
        finally:
            database.restore_state(state)
        conditional += weight * float(binary_entropy(marginals[scope_array]).sum())
    return current - conditional
