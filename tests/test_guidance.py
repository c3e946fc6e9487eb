"""Tests for user guidance (§4): gains, strategies, hybrid score."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.api import GuidanceSpec
from repro.crf.partition import ComponentIndex
from repro.data.state import ClaimState
from repro.errors import GuidanceError, SpecError
from repro.guidance.base import SelectionContext
from repro.guidance.gain import GainConfig, GainEstimator, marginal_entropy_ranking
from repro.guidance.hybrid_score import error_rate, hybrid_score
from repro.guidance.strategies import (
    STRATEGIES,
    HybridStrategy,
    InformationGainStrategy,
    RandomStrategy,
    SourceGainStrategy,
    UncertaintyStrategy,
    make_strategy,
)
from repro.inference.icrf import ICrf

from tests.fixtures import build_micro_database
from tests.gain_oracle import oracle_gains


def make_estimator(mode="meanfield", localize=True, **kwargs):
    database = build_micro_database()
    icrf = ICrf(database, seed=0)
    icrf.infer()
    config = GainConfig(inference_mode=mode, localize=localize, **kwargs)
    estimator = GainEstimator(
        icrf.model, ComponentIndex(database), config=config, seed=1
    )
    return estimator, icrf.state, icrf


def make_context(state, estimator, hybrid=0.0, limit=None):
    return SelectionContext(
        state=state,
        gains=estimator,
        rng=np.random.default_rng(0),
        hybrid_score=hybrid,
        candidate_limit=limit,
    )


class TestGainConfig:
    def test_invalid_mode(self):
        with pytest.raises(GuidanceError):
            GainConfig(inference_mode="magic")

    def test_invalid_entropy(self):
        with pytest.raises(GuidanceError):
            GainConfig(entropy_method="fuzzy")

    def test_invalid_damping(self):
        with pytest.raises(GuidanceError):
            GainConfig(damping=1.0)

    def test_invalid_steps(self):
        with pytest.raises(GuidanceError):
            GainConfig(meanfield_steps=0)

    def test_invalid_gibbs_burn_in(self):
        with pytest.raises(GuidanceError):
            GainConfig(gibbs_burn_in=0)

    def test_invalid_gibbs_samples(self):
        with pytest.raises(GuidanceError):
            GainConfig(gibbs_samples=-1)

    def test_executor_knobs_are_not_config(self):
        # Threading, worker count and caching cannot change a gain, so
        # the estimator chooses them; neither config nor spec takes them.
        for knob in ("parallel", "max_workers", "cache_gains"):
            with pytest.raises(TypeError):
                GainConfig(**{knob: 1})
            with pytest.raises(SpecError) as excinfo:
                GuidanceSpec.from_dict({"gain": {knob: 1}})
            assert excinfo.value.field == f"gain.{knob}"
        for knob in ("parallel", "max_workers"):
            with pytest.raises(SpecError):
                GuidanceSpec.from_dict({knob: 1})


class TestGainEstimator:
    def test_labelled_claim_has_zero_gain(self):
        estimator, state, _ = make_estimator()
        state.label(0, 1)
        assert estimator.information_gain(0, state) == 0.0
        assert estimator.source_gain(0, state) == 0.0

    @pytest.mark.parametrize("mode", ["meanfield", "gibbs"])
    @pytest.mark.parametrize("source_driven", [False, True])
    def test_candidate_outside_database_rejected(self, mode, source_driven):
        # -1 would alias claim n-1 and n would index past the arrays.
        estimator, state, _ = make_estimator(mode=mode)
        gains = estimator.source_gains if source_driven else estimator.information_gains
        for candidates in ([-1, 2], [-1], [3]):
            with pytest.raises(GuidanceError, match="outside"):
                gains(candidates, state)
        assert np.all(np.isfinite(gains([0, 2], state)))

    def test_gain_leaves_database_unchanged(self):
        estimator, state, _ = make_estimator()
        before_probs = np.asarray(state.probabilities).copy()
        before_labels = dict(state.labels)
        estimator.information_gain(1, state)
        estimator.source_gain(1, state)
        assert np.allclose(before_probs, state.probabilities)
        assert state.labels == before_labels

    def test_gains_vector_matches_scalars(self):
        estimator, state, _ = make_estimator()
        vector = estimator.information_gains([0, 1, 2], state)
        for index in range(3):
            assert vector[index] == pytest.approx(
                estimator.information_gain(index, state)
            )

    def test_parallel_matches_serial(self):
        # Estimator equals the mutate-and-restore oracle; the name is kept
        # so the test id stays stable.
        estimator, state, _ = make_estimator()
        serial_oracle, _, _ = make_estimator()
        a = estimator.information_gains([0, 1, 2], state)
        b = oracle_gains(serial_oracle, state, [0, 1, 2])
        assert np.array_equal(a, b)

    def test_gibbs_mode_runs(self):
        estimator, state, _ = make_estimator(mode="gibbs")
        gain = estimator.information_gain(0, state)
        assert np.isfinite(gain)

    def test_exact_entropy_mode_runs(self):
        estimator, state, _ = make_estimator(entropy_method="exact")
        assert np.isfinite(estimator.information_gain(0, state))

    def test_uncertain_claim_gains_more_than_settled_claim(self):
        estimator, state, icrf = make_estimator()
        # Force one claim near certainty and one at maximum uncertainty.
        state.set_probabilities(np.asarray([0.99, 0.5, 0.99]))
        g_settled = estimator.information_gain(0, state)
        g_uncertain = estimator.information_gain(1, state)
        assert g_uncertain > g_settled

    def test_global_scope_without_localization(self):
        estimator, state, _ = make_estimator(localize=False)
        scope = estimator._scope(0)
        assert scope.size == state.num_claims

    def test_marginal_entropy_ranking(self):
        state = ClaimState.of(build_micro_database())
        state.set_probabilities(np.asarray([0.5, 0.9, 0.7]))
        ranked = marginal_entropy_ranking(state, [0, 1, 2])
        assert ranked.tolist() == [0, 2, 1]


class TestStrategies:
    def test_registry_names(self):
        assert set(STRATEGIES) == {
            "random", "uncertainty", "info", "source", "hybrid"
        }
        for name in STRATEGIES:
            assert make_strategy(name).name == name

    def test_make_strategy_unknown(self):
        with pytest.raises(ValueError):
            make_strategy("alchemy")

    def test_random_selects_unlabelled(self):
        estimator, state, _ = make_estimator()
        state.label(0, 1)
        context = make_context(state, estimator)
        for _ in range(10):
            assert RandomStrategy().select(context) in (1, 2)

    def test_uncertainty_selects_most_entropic(self):
        estimator, state, _ = make_estimator()
        state.set_probabilities(np.asarray([0.95, 0.52, 0.9]))
        context = make_context(state, estimator)
        assert UncertaintyStrategy().select(context) == 1

    def test_info_selects_argmax_gain(self):
        estimator, state, _ = make_estimator()
        context = make_context(state, estimator)
        strategy = InformationGainStrategy()
        chosen = strategy.select(context)
        candidates, scores = strategy.scores(context)
        best = candidates[int(np.argmax(scores))]
        assert estimator.information_gain(chosen, state) == pytest.approx(
            estimator.information_gain(int(best), state)
        )

    def test_source_strategy_runs(self):
        estimator, state, _ = make_estimator()
        context = make_context(state, estimator)
        assert SourceGainStrategy().select(context) in (0, 1, 2)

    def test_hybrid_routes_by_score(self):
        estimator, state, _ = make_estimator()
        strategy = HybridStrategy()
        context = make_context(state, estimator, hybrid=0.0)
        strategy.select(context)
        assert strategy.last_choice == "info"
        context = make_context(state, estimator, hybrid=1.0)
        strategy.select(context)
        assert strategy.last_choice == "source"

    def test_rank_returns_distinct_claims(self):
        estimator, state, _ = make_estimator()
        context = make_context(state, estimator)
        ranked = InformationGainStrategy().rank(context, 3)
        assert len(set(ranked)) == len(ranked)

    def test_random_rank_permutation(self):
        estimator, state, _ = make_estimator()
        context = make_context(state, estimator)
        ranked = RandomStrategy().rank(context, 3)
        assert sorted(ranked) == [0, 1, 2]

    def test_candidate_limit_restricts_pool(self):
        estimator, state, _ = make_estimator()
        state.set_probabilities(np.asarray([0.5, 0.99, 0.98]))
        context = make_context(state, estimator, limit=1)
        # Only the most uncertain claim (0) is in the pool.
        assert context.candidates().tolist() == [0]

    def test_no_unlabelled_raises(self):
        estimator, state, _ = make_estimator()
        for claim in range(3):
            state.label(claim, 1)
        context = make_context(state, estimator)
        with pytest.raises(GuidanceError):
            context.candidates()


class TestHybridScore:
    def test_error_rate_credible_grounding(self):
        # g_{i-1}(c) = 1 -> error = 1 - P_{i-1}(c)  (Eq. 22)
        assert error_rate(0.8, 1) == pytest.approx(0.2)

    def test_error_rate_noncredible_grounding(self):
        assert error_rate(0.8, 0) == pytest.approx(0.8)

    def test_error_rate_invalid_grounding(self):
        with pytest.raises(ValueError):
            error_rate(0.5, 2)

    def test_score_zero_when_no_signal(self):
        assert hybrid_score(0.0, 0.0, 0.5) == 0.0

    def test_score_increases_with_error(self):
        low = hybrid_score(0.1, 0.0, 0.0)
        high = hybrid_score(0.9, 0.0, 0.0)
        assert high > low

    def test_early_stage_dominated_by_error(self):
        # h -> 0: unreliable ratio has no influence.
        assert hybrid_score(0.5, 0.0, 0.0) == pytest.approx(
            hybrid_score(0.5, 1.0, 0.0)
        )

    def test_late_stage_dominated_by_sources(self):
        # h -> 1: error rate has no influence.
        assert hybrid_score(0.0, 0.5, 1.0) == pytest.approx(
            hybrid_score(1.0, 0.5, 1.0)
        )

    def test_closed_form(self):
        # z = 1 - exp(-(eps (1-h) + r h))
        eps, r, h = 0.3, 0.6, 0.4
        assert hybrid_score(eps, r, h) == pytest.approx(
            1.0 - math.exp(-(eps * (1 - h) + r * h))
        )

    def test_score_bounded(self):
        assert 0.0 <= hybrid_score(1.0, 1.0, 0.5) < 1.0
