"""Read-only gain evaluation (§5.1) against its oracle.

The estimator evaluates every hypothesis as a row — starting marginals
plus a held mask — and never mutates the shared database; in Gibbs mode
its chains run on the model's engine (merge walk in the compiled kernel).
It must return exactly the gains of the mutate-and-restore oracle in
``tests/gain_oracle.py`` — label the candidate, run inference with the
merge walk in Python, restore — in
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
from repro.datasets import load_dataset
from repro.guidance.gain import GainConfig, GainEstimator

from tests.fixtures import build_micro_database
from tests.gain_oracle import oracle_gains


def make_estimator(database=None, seed=1, **config_kwargs):
    database = database if database is not None else build_micro_database()
    model = CrfModel(database)
    config = GainConfig(**config_kwargs)
    estimator = GainEstimator(
        model, ComponentIndex(database), config=config, seed=seed
    )
    return estimator, database


def split(candidates, calls):
    """``candidates`` as ``calls`` interleaved batches."""
    return [candidates[start::calls] for start in range(calls)]


class TestParallelBitExact:
    @pytest.mark.parametrize("mode", ["meanfield", "gibbs"])
    @pytest.mark.parametrize("calls", [1, 2, 4])
    def test_parallel_equals_sequential(self, mode, calls):
        # The pool is evaluated as ``calls`` batched calls: estimator and
        # oracle must also agree on how each call consumes the generator.
        estimator, db = make_estimator(inference_mode=mode)
        oracle, _ = make_estimator(inference_mode=mode)
        estimator_src, _ = make_estimator(inference_mode=mode)
        oracle_src, _ = make_estimator(inference_mode=mode)
        for batch in split(list(range(db.num_claims)), calls):
            assert np.array_equal(
                estimator.information_gains(batch),
                oracle_gains(oracle, batch),
            )
            assert np.array_equal(
                estimator_src.source_gains(batch),
                oracle_gains(oracle_src, batch, source_driven=True),
            )

    @pytest.mark.parametrize("mode", ["meanfield", "gibbs"])
    def test_parallel_equals_sequential_exact_entropy(self, mode):
        estimator, db = make_estimator(
            inference_mode=mode, entropy_method="exact"
        )
        oracle, _ = make_estimator(inference_mode=mode, entropy_method="exact")
        candidates = list(range(db.num_claims))
        assert np.array_equal(
            estimator.information_gains(candidates),
            oracle_gains(oracle, candidates),
        )

    def test_gibbs_candidate_streams_are_order_independent(self):
        forward, db = make_estimator(inference_mode="gibbs")
        backward, _ = make_estimator(inference_mode="gibbs")
        candidates = list(range(db.num_claims))
        a = forward.information_gains(candidates)
        b = backward.information_gains(candidates[::-1])
        assert np.array_equal(a, b[::-1])

    def test_parallel_gibbs_leaves_database_untouched(self):
        estimator, db = make_estimator(inference_mode="gibbs")
        before_probs = np.asarray(db.probabilities).copy()
        before_labels = dict(db.labels)
        estimator.information_gains(list(range(db.num_claims)))
        estimator.source_gains(list(range(db.num_claims)))
        assert np.array_equal(before_probs, db.probabilities)
        assert db.labels == before_labels

    def test_parallel_with_labels_present(self):
        estimator, db_a = make_estimator(inference_mode="gibbs")
        oracle, db_b = make_estimator(inference_mode="gibbs")
        db_a.label(0, 1)
        db_b.label(0, 1)
        candidates = list(range(db_a.num_claims))
        a = estimator.information_gains(candidates)
        b = oracle_gains(oracle, candidates)
        assert a[0] == 0.0
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("mode", ["meanfield", "gibbs"])
    def test_equals_oracle_on_generated_corpus(self, mode):
        def labelled_estimator():
            database = load_dataset("wiki", seed=42, scale=0.3)
            for claim in range(0, database.num_claims, 5):
                database.label(claim, claim % 2)
            return make_estimator(database, seed=4, inference_mode=mode)

        estimator, db = labelled_estimator()
        oracle, _ = labelled_estimator()
        candidates = list(range(db.num_claims))
        assert np.array_equal(
            estimator.information_gains(candidates),
            oracle_gains(oracle, candidates),
        )
        assert np.array_equal(
            estimator.source_gains(candidates),
            oracle_gains(oracle, candidates, source_driven=True),
        )

    @pytest.mark.parametrize("localize", [True, False])
    def test_parallel_equals_sequential_without_localization(self, localize):
        estimator, db = make_estimator(
            inference_mode="gibbs", localize=localize
        )
        oracle, _ = make_estimator(inference_mode="gibbs", localize=localize)
        candidates = list(range(db.num_claims))
        assert np.array_equal(
            estimator.information_gains(candidates),
            oracle_gains(oracle, candidates),
        )
