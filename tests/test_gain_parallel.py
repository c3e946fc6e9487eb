"""Read-only gain evaluation (§5.1) against its oracle.

The estimator evaluates every hypothesis as a row — starting marginals
plus a held mask — and never mutates the claim state; in Gibbs mode
its chains run on the model's engine (merge walk in the compiled kernel).
It must return exactly the gains of the mutate-and-restore oracle in
``tests/gain_oracle.py`` — label the candidate in a copy of the state,
run inference with the merge walk in Python — in
both inference modes, however the candidate pool is split into calls.
Gibbs-mode candidate streams are pure functions of ``(root entropy,
candidate, value)``, so evaluation order may not leak into a result
either.

Candidates are evaluated one after another.  The module and test names
still say "parallel" and "sequential" only so the test ids stay stable:
read them as "estimator" and "oracle".
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.crf.model import CrfModel
from repro.crf.partition import ComponentIndex
from repro.data.state import ClaimState
from repro.datasets import load_dataset
from repro.guidance.gain import GainConfig, GainEstimator

from tests.fixtures import build_micro_database
from tests.gain_oracle import oracle_gains


def make_estimator(state=None, database=None, seed=1, **config_kwargs):
    """An estimator over ``database`` and the state its gains are taken at."""
    database = database if database is not None else build_micro_database()
    model = CrfModel(database)
    config = GainConfig(**config_kwargs)
    estimator = GainEstimator(
        model, ComponentIndex(database), config=config, seed=seed
    )
    return estimator, state if state is not None else ClaimState.of(database)


def split(candidates, calls):
    """``candidates`` as ``calls`` interleaved batches."""
    return [candidates[start::calls] for start in range(calls)]


class TestParallelBitExact:
    @pytest.mark.parametrize("mode", ["meanfield", "gibbs"])
    @pytest.mark.parametrize("calls", [1, 2, 4])
    def test_parallel_equals_sequential(self, mode, calls):
        # The pool is evaluated as ``calls`` batched calls: estimator and
        # oracle must also agree on how each call consumes the generator.
        estimator, state = make_estimator(inference_mode=mode)
        oracle, _ = make_estimator(inference_mode=mode)
        estimator_src, _ = make_estimator(inference_mode=mode)
        oracle_src, _ = make_estimator(inference_mode=mode)
        for batch in split(list(range(state.num_claims)), calls):
            assert np.array_equal(
                estimator.information_gains(batch, state),
                oracle_gains(oracle, state, batch),
            )
            assert np.array_equal(
                estimator_src.source_gains(batch, state),
                oracle_gains(oracle_src, state, batch, source_driven=True),
            )

    @pytest.mark.parametrize("mode", ["meanfield", "gibbs"])
    def test_parallel_equals_sequential_exact_entropy(self, mode):
        estimator, state = make_estimator(
            inference_mode=mode, entropy_method="exact"
        )
        oracle, _ = make_estimator(inference_mode=mode, entropy_method="exact")
        candidates = list(range(state.num_claims))
        assert np.array_equal(
            estimator.information_gains(candidates, state),
            oracle_gains(oracle, state, candidates),
        )

    def test_gibbs_candidate_streams_are_order_independent(self):
        forward, state = make_estimator(inference_mode="gibbs")
        backward, _ = make_estimator(inference_mode="gibbs")
        candidates = list(range(state.num_claims))
        a = forward.information_gains(candidates, state)
        b = backward.information_gains(candidates[::-1], state)
        assert np.array_equal(a, b[::-1])

    def test_parallel_gibbs_leaves_database_untouched(self):
        estimator, state = make_estimator(inference_mode="gibbs")
        before_probs = np.asarray(state.probabilities).copy()
        before_labels = dict(state.labels)
        estimator.information_gains(list(range(state.num_claims)), state)
        estimator.source_gains(list(range(state.num_claims)), state)
        assert np.array_equal(before_probs, state.probabilities)
        assert state.labels == before_labels

    def test_parallel_with_labels_present(self):
        estimator, state = make_estimator(inference_mode="gibbs")
        oracle, _ = make_estimator(inference_mode="gibbs")
        state.label(0, 1)
        candidates = list(range(state.num_claims))
        a = estimator.information_gains(candidates, state)
        b = oracle_gains(oracle, state, candidates)
        assert a[0] == 0.0
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("mode", ["meanfield", "gibbs"])
    def test_equals_oracle_on_generated_corpus(self, mode):
        database = load_dataset("wiki", seed=42, scale=0.3)
        state = ClaimState.of(database)
        for claim in range(0, database.num_claims, 5):
            state.label(claim, claim % 2)
        estimator, _ = make_estimator(state, database, seed=4, inference_mode=mode)
        oracle, _ = make_estimator(state, database, seed=4, inference_mode=mode)
        candidates = list(range(database.num_claims))
        assert np.array_equal(
            estimator.information_gains(candidates, state),
            oracle_gains(oracle, state, candidates),
        )
        assert np.array_equal(
            estimator.source_gains(candidates, state),
            oracle_gains(oracle, state, candidates, source_driven=True),
        )

    @pytest.mark.parametrize("localize", [True, False])
    def test_parallel_equals_sequential_without_localization(self, localize):
        estimator, state = make_estimator(
            inference_mode="gibbs", localize=localize
        )
        oracle, _ = make_estimator(inference_mode="gibbs", localize=localize)
        candidates = list(range(state.num_claims))
        assert np.array_equal(
            estimator.information_gains(candidates, state),
            oracle_gains(oracle, state, candidates),
        )
