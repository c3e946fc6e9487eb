"""End-to-end warm-start semantics of the incremental inference paths.

§3.2's "view maintenance" rests on three carry-overs: the Gibbs chain
state, the model weights ``W``, and the credibility probabilities stored
in the fact database.  These tests pin down that each of them actually
persists — across :meth:`ICrf.infer` invocations and across streaming
arrivals — and that dropping them changes behaviour the way a cold start
should.
"""

from __future__ import annotations

import numpy as np

from repro.crf.weights import CrfWeights
from repro.datasets import load_dataset
from repro.inference.icrf import ICrf
from repro.streaming.process import StreamingFactChecker
from repro.streaming.stream import stream_from_database
from tests.fixtures import build_micro_database


def make_icrf(database, seed=13, **kwargs):
    kwargs.setdefault("em_iterations", 2)
    kwargs.setdefault("num_samples", 8)
    kwargs.setdefault("burn_in", 3)
    return ICrf(database, seed=seed, **kwargs)


class TestChainWarmStart:
    def test_chain_state_persists_across_infer(self):
        database = load_dataset("wiki", seed=42, scale=0.15)
        icrf = make_icrf(database)
        assert icrf.sampler.state is None
        icrf.infer()
        state_after_first = icrf.sampler.state
        assert state_after_first is not None
        icrf.infer()
        # Still a live chain covering every claim; labels still pinned.
        assert icrf.sampler.state.shape == state_after_first.shape

    def test_warm_and_cold_chains_diverge(self):
        """Resetting the chain must change the sampled trajectory."""
        database = load_dataset("wiki", seed=42, scale=0.15)
        state = database.clone_state()
        warm = make_icrf(database)
        warm.infer()
        warm_second = warm.infer().marginals.copy()

        database.restore_state(state)
        cold = make_icrf(database)
        cold.infer()
        cold.reset_chain()
        cold_second = cold.infer().marginals.copy()
        assert not np.array_equal(warm_second, cold_second)

    def test_chain_state_survives_new_labels(self):
        database = build_micro_database()
        icrf = make_icrf(database)
        icrf.infer()
        database.label(1, 0)
        icrf.infer()
        assert icrf.sampler.state[1] == 0

    def test_reset_chain_clears_state(self):
        database = build_micro_database()
        icrf = make_icrf(database)
        icrf.infer()
        icrf.reset_chain()
        assert icrf.sampler.state is None


class TestWeightWarmStart:
    def test_weights_persist_across_infer(self):
        database = load_dataset("wiki", seed=42, scale=0.15)
        icrf = make_icrf(database)
        first = icrf.infer()
        assert np.array_equal(icrf.weights.values, first.weights.values)
        second = icrf.infer()
        assert np.array_equal(icrf.weights.values, second.weights.values)

    def test_skipping_mstep_keeps_weights(self):
        database = load_dataset("wiki", seed=42, scale=0.15)
        icrf = make_icrf(database)
        icrf.infer()
        before = icrf.weights.values.copy()
        icrf.infer(update_weights=False)
        assert np.array_equal(icrf.weights.values, before)

    def test_external_weights_are_adopted(self):
        database = build_micro_database()
        icrf = make_icrf(database)
        external = CrfWeights(np.linspace(-0.5, 0.5, icrf.weights.size))
        icrf.set_weights(external)
        assert np.array_equal(icrf.weights.values, external.values)
        # The engine reads the refreshed local fields immediately.
        expected = icrf.model.featurizer.local_fields(
            external.feature_weights
        )
        assert np.array_equal(icrf.model.local_fields, expected)


class TestProbabilityWarmStart:
    def test_marginals_written_back_to_database(self):
        database = build_micro_database()
        icrf = make_icrf(database)
        result = icrf.infer()
        assert np.array_equal(
            np.asarray(database.probabilities), result.marginals
        )

    def test_second_inference_starts_from_previous_marginals(self):
        """With the chain dropped, the E-step re-initialises from the
        *database* probabilities, not from the prior — the probability
        carry-over of §3.2."""
        database = load_dataset("wiki", seed=42, scale=0.15)
        icrf = make_icrf(database)
        first = icrf.infer().marginals.copy()
        icrf.reset_chain()
        second = icrf.infer(em_iterations=1).marginals
        # One warm EM round moves marginals far less than the cold start:
        # the carried-over state keeps the chain near its previous mode.
        assert np.mean(np.abs(second - first)) < np.mean(np.abs(first - 0.5))


class TestStreamingWarmStart:
    def _arrivals(self):
        database = build_micro_database()
        return list(stream_from_database(database))

    def test_probabilities_persist_across_arrivals(self):
        arrivals = self._arrivals()
        checker = StreamingFactChecker(seed=5)
        checker.observe(arrivals[0])
        first_claim = checker.database.claims[0].claim_id
        before = checker.database.probabilities[
            checker.database.claim_position(first_claim)
        ]
        checker.observe(arrivals[1])
        after = checker.database.probabilities[
            checker.database.claim_position(first_claim)
        ]
        # The carried probability seeds the next E-step: it must start
        # from the previous estimate, not reset to the prior.
        assert before != checker.database.prior or after != checker.database.prior
        assert abs(after - before) < abs(before - checker.database.prior) + 0.5

    def test_labels_survive_rebuilds_and_future_claims(self):
        arrivals = self._arrivals()
        checker = StreamingFactChecker(seed=5)
        checker.observe(arrivals[0])
        labelled_id = checker.database.claims[0].claim_id
        checker.record_label(labelled_id, 1)
        for arrival in arrivals[1:]:
            checker.observe(arrival)
        position = checker.database.claim_position(labelled_id)
        assert checker.database.label_of(position) == 1
        assert checker.database.probabilities[position] == 1.0

    def test_label_recorded_before_claim_arrives(self):
        arrivals = self._arrivals()
        checker = StreamingFactChecker(allow_pending_labels=True, seed=5)
        checker.observe(arrivals[0])
        future_ids = {
            arrival.claim.claim_id for arrival in arrivals[1:]
            if arrival.claim is not None
        }
        target = sorted(future_ids)[0]
        checker.record_label(target, 0)
        assert checker.pending_labels == {target: 0}
        for arrival in arrivals[1:]:
            checker.observe(arrival)
        position = checker.database.claim_position(target)
        assert checker.database.label_of(position) == 0
        assert checker.pending_labels == {}

    def test_weights_blend_continuously(self):
        """W_t = W_{t-1} + γ_t(Ŵ_t - W_{t-1}) keeps a warm trajectory."""
        arrivals = self._arrivals()
        checker = StreamingFactChecker(seed=5)
        previous = None
        for arrival in arrivals:
            update = checker.observe(arrival)
            if previous is not None:
                gamma = update.step_size
                assert 0.0 < gamma <= 1.0
            previous = update.weights.values.copy()
        assert np.array_equal(checker.weights.values, previous)

    def test_validation_weights_feed_streaming(self):
        """Alg. 2 line 7: parameters handed over persist in the checker."""
        arrivals = self._arrivals()
        checker = StreamingFactChecker(seed=5)
        checker.observe(arrivals[0])
        external = CrfWeights(
            np.linspace(-0.2, 0.2, checker.weights.size)
        )
        checker.receive_weights(external)
        assert np.array_equal(checker.weights.values, external.values)
        update = checker.observe(arrivals[1])
        # The next online step starts from the received parameters.
        assert update.weights.size == external.size
