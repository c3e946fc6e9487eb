"""Tests for trace accessors, gain caching, and generator statistics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import InferenceSpec
from repro.crf.partition import ComponentIndex
from repro.data.grounding import Grounding
from repro.datasets import generate_dataset, get_profile
from repro.guidance.gain import GainConfig, GainEstimator
from repro.inference.icrf import ICrf
from repro.validation.session import IterationRecord, ValidationTrace

from tests.fixtures import build_micro_database


def record(iteration, claims, values, precision, repairs=0, entropy=1.0):
    return IterationRecord(
        iteration=iteration,
        claim_indices=list(claims),
        user_values=list(values),
        strategy_used="info",
        error_rate=0.1,
        hybrid_score=0.2,
        unreliable_ratio=0.1,
        entropy=entropy,
        precision=precision,
        grounding_changes=1,
        predictions_matched=[True] * len(claims),
        response_seconds=0.01,
        repairs=repairs,
    )


def make_trace():
    return ValidationTrace(
        num_claims=10,
        initial_precision=0.5,
        initial_entropy=4.0,
        records=[
            record(1, [0], [1], precision=0.6),
            record(2, [1, 2], [0, 1], precision=0.8, repairs=1),
            record(3, [3], [1], precision=0.95),
        ],
    )


class TestTraceAccessors:
    def test_total_validations_vs_effort(self):
        trace = make_trace()
        assert trace.total_validations() == 4
        assert trace.total_effort() == 5  # + one repair

    def test_efforts_with_and_without_repairs(self):
        trace = make_trace()
        plain = trace.efforts()
        with_repairs = trace.efforts(include_repairs=True)
        assert plain.tolist() == pytest.approx([0.1, 0.3, 0.4])
        assert with_repairs.tolist() == pytest.approx([0.1, 0.4, 0.5])

    def test_validated_claims_order(self):
        trace = make_trace()
        assert trace.validated_claims() == [0, 1, 2, 3]

    def test_effort_to_reach(self):
        trace = make_trace()
        assert trace.effort_to_reach(0.8) == pytest.approx(0.3)
        assert trace.effort_to_reach(0.99) is None

    def test_effort_to_reach_with_repairs(self):
        trace = make_trace()
        assert trace.effort_to_reach(0.8, include_repairs=True) == pytest.approx(0.4)

    def test_precision_improvements(self):
        trace = make_trace()
        improvements = trace.precision_improvements()
        # R = (P - 0.5) / 0.5
        assert improvements.tolist() == pytest.approx([0.2, 0.6, 0.9])

    def test_precision_improvements_without_truth(self):
        trace = make_trace()
        trace.initial_precision = None
        assert np.all(np.isnan(trace.precision_improvements()))

    def test_prediction_match_flags_flatten(self):
        trace = make_trace()
        assert trace.prediction_match_flags() == [True] * 4

    def test_final_grounding_roundtrip(self):
        trace = make_trace()
        trace.final_grounding = Grounding([1] * 10)
        assert trace.final_grounding.num_credible() == 10


class TestGainBaselineCache:
    def test_batched_gains_match_scalar_gains(self):
        """The per-component baseline cache must not change results."""
        db = build_micro_database()
        icrf = ICrf(db, InferenceSpec(estep_mode="meanfield"), seed=0)
        icrf.infer(update_weights=False)
        gains = GainEstimator(
            icrf.model,
            ComponentIndex(db),
            config=GainConfig(inference_mode="meanfield"),
            seed=1,
        )
        batched = gains.information_gains([0, 1, 2], icrf.state)
        singles = [gains.information_gain(i, icrf.state) for i in range(3)]
        assert np.allclose(batched, singles)

    def test_cache_cleared_between_calls(self):
        db = build_micro_database()
        icrf = ICrf(db, InferenceSpec(estep_mode="meanfield"), seed=0)
        icrf.infer(update_weights=False)
        gains = GainEstimator(
            icrf.model,
            ComponentIndex(db),
            config=GainConfig(inference_mode="meanfield"),
            seed=1,
        )
        first = gains.information_gains([0, 1, 2], icrf.state)
        # Mutating the state must be reflected in a later call (no stale
        # cache): label one claim and re-query.
        icrf.state.label(1, 0)
        second = gains.information_gains([0, 1, 2], icrf.state)
        assert second[1] == 0.0
        assert not np.allclose(first, second)

    def test_gain_at_maximum_uncertainty_bounded_by_log2_plus_propagation(self):
        db = build_micro_database()
        icrf = ICrf(db, InferenceSpec(estep_mode="meanfield"), seed=0)
        icrf.infer(update_weights=False)
        gains = GainEstimator(
            icrf.model,
            ComponentIndex(db),
            config=GainConfig(inference_mode="meanfield"),
            seed=1,
        )
        values = gains.information_gains([0, 1, 2], icrf.state)
        # Self-entropy reduction is at most log 2 per claim; with a
        # 3-claim component total gain cannot exceed 3 log 2.
        assert np.all(values <= 3 * np.log(2) + 1e-9)


class TestGeneratorStatistics:
    @pytest.fixture(scope="class")
    def snopes_replica(self):
        return generate_dataset(get_profile("snopes"), seed=13, scale=0.02)

    def test_claim_popularity_is_heavy_tailed(self, snopes_replica):
        counts = np.bincount(
            snopes_replica.clique_arrays()[0],
            minlength=snopes_replica.num_claims,
        )
        # Top 20% of claims should hold a disproportionate share of links.
        counts = np.sort(counts)[::-1]
        top = counts[: max(1, counts.size // 5)].sum()
        assert top / counts.sum() > 0.35

    def test_source_activity_is_heavy_tailed(self, snopes_replica):
        counts = snopes_replica.claim_source_graph().source_cliques
        counts = np.sort(counts)[::-1]
        top = counts[: max(1, counts.size // 10)].sum()
        assert top / max(counts.sum(), 1) > 0.2

    def test_difficulty_recorded_in_metadata(self, snopes_replica):
        difficulties = [
            c.metadata["difficulty"] for c in snopes_replica.claims
        ]
        assert all(0.0 <= d <= 1.0 for d in difficulties)
        assert np.std(difficulties) > 0.05

    def test_source_stances_are_self_consistent(self, snopes_replica):
        """A source's net stance towards a claim should rarely be torn:
        beliefs are decided once per (source, claim), so only the
        stance-extraction noise can split a pair's documents."""
        from collections import defaultdict

        votes = defaultdict(list)
        claim, _, source, signs = snopes_replica.clique_arrays()
        for c, s, sign in zip(claim.tolist(), source.tolist(), signs.tolist()):
            votes[(s, c)].append(sign)
        multi = {k: v for k, v in votes.items() if len(v) >= 3}
        if not multi:
            pytest.skip("no (source, claim) pair with 3+ documents")
        torn = sum(
            1 for signs in multi.values() if abs(sum(signs)) < len(signs) / 2
        )
        assert torn / len(multi) < 0.4

    def test_documents_per_claim_ratio_preserved(self):
        profile = get_profile("health")
        replica = generate_dataset(profile, seed=3, scale=0.01)
        ratio_full = profile.num_documents / profile.num_claims
        ratio_replica = replica.num_documents / replica.num_claims
        assert ratio_replica == pytest.approx(ratio_full, rel=0.25)
