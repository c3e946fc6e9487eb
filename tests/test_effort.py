"""Tests for effort reduction (§6): termination, cross-validation, batching."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import SessionSpec
from repro.crf.partition import ComponentIndex
from repro.effort.batching import (
    batch_utility,
    correlation_matrix,
    exact_batch_gain,
    exhaustive_topk_selection,
    greedy_topk_selection,
)
from repro.effort.cost import cost_saving, dynamic_batch_size, precision_degradation
from repro.effort.crossval import estimate_precision
from repro.effort.termination import (
    GroundingChangeCriterion,
    PrecisionImprovementCriterion,
    UncertaintyReductionCriterion,
    ValidatedPredictionCriterion,
    cng_series,
    pir_series,
    pre_series,
    urr_series,
)
from repro.errors import GuidanceError, ValidationProcessError
from repro.guidance.gain import GainConfig, GainEstimator
from repro.inference.icrf import ICrf
from repro.validation.oracle import SimulatedUser
from repro.validation.process import ValidationProcess
from repro.validation.session import IterationRecord, ValidationTrace


def make_record(**overrides) -> IterationRecord:
    defaults = dict(
        iteration=1,
        claim_indices=[0],
        user_values=[1],
        strategy_used="info",
        error_rate=0.1,
        hybrid_score=0.1,
        unreliable_ratio=0.1,
        entropy=1.0,
        precision=0.8,
        grounding_changes=0,
        predictions_matched=[True],
        response_seconds=0.01,
    )
    defaults.update(overrides)
    return IterationRecord(**defaults)


def make_trace(records, initial_entropy=2.0, num_claims=10):
    trace = ValidationTrace(
        num_claims=num_claims,
        initial_precision=0.5,
        initial_entropy=initial_entropy,
        records=list(records),
    )
    return trace


class TestTerminationCriteria:
    def test_urr_triggers_after_patience(self):
        criterion = UncertaintyReductionCriterion(threshold=0.1, patience=2)
        trace = make_trace([])
        # Entropy barely moves: rate below threshold twice -> trigger.
        r1 = make_record(entropy=1.99)
        assert criterion.update(trace, r1, None) is None
        r2 = make_record(entropy=1.98)
        assert criterion.update(trace, r2, None) == "urr"

    def test_urr_resets_on_large_drop(self):
        criterion = UncertaintyReductionCriterion(threshold=0.1, patience=2)
        trace = make_trace([])
        criterion.update(trace, make_record(entropy=1.99), None)
        # Big reduction resets the streak.
        assert criterion.update(trace, make_record(entropy=1.0), None) is None
        assert criterion.update(trace, make_record(entropy=0.99), None) is None

    def test_cng_triggers_on_stable_grounding(self):
        criterion = GroundingChangeCriterion(max_changes=0, patience=3)
        trace = make_trace([])
        for index in range(2):
            assert criterion.update(
                trace, make_record(grounding_changes=0), None
            ) is None
        assert criterion.update(
            trace, make_record(grounding_changes=0), None
        ) == "cng"

    def test_cng_resets_on_change(self):
        criterion = GroundingChangeCriterion(max_changes=0, patience=2)
        trace = make_trace([])
        criterion.update(trace, make_record(grounding_changes=0), None)
        assert criterion.update(
            trace, make_record(grounding_changes=3), None
        ) is None

    def test_pre_triggers_on_consistent_predictions(self):
        criterion = ValidatedPredictionCriterion(patience=2)
        trace = make_trace([])
        assert criterion.update(
            trace, make_record(predictions_matched=[True]), None
        ) is None
        assert criterion.update(
            trace, make_record(predictions_matched=[True, True]), None
        ) == "pre"

    def test_pre_resets_on_mismatch(self):
        criterion = ValidatedPredictionCriterion(patience=2)
        trace = make_trace([])
        criterion.update(trace, make_record(predictions_matched=[True]), None)
        assert criterion.update(
            trace, make_record(predictions_matched=[False]), None
        ) is None

    def test_validation_of_parameters(self):
        with pytest.raises(ValueError):
            UncertaintyReductionCriterion(threshold=-0.1)
        with pytest.raises(ValueError):
            GroundingChangeCriterion(patience=0)
        with pytest.raises(ValueError):
            PrecisionImprovementCriterion(folds=0)

    def test_process_stops_on_criterion(self):
        from repro.datasets import load_dataset

        db = load_dataset("wiki", seed=31, scale=0.1)
        spec = SessionSpec(
            guidance={"strategy": "uncertainty"},
            effort={
                "termination": [
                    {
                        "kind": "cng",
                        "params": {"max_changes": db.num_claims, "patience": 1},
                    }
                ]
            },
        )
        process = ValidationProcess(db, spec, user=SimulatedUser(seed=0), seed=0)
        trace = process.run()
        assert trace.stop_reason == "cng"
        assert trace.iterations == 1


class TestIndicatorSeries:
    def test_urr_series_definition(self):
        trace = make_trace(
            [make_record(entropy=1.0), make_record(entropy=0.5)],
            initial_entropy=2.0,
        )
        rates = urr_series(trace)
        assert rates[0] == pytest.approx(0.5)   # (2-1)/2
        assert rates[1] == pytest.approx(0.5)   # (1-0.5)/1

    def test_cng_series_normalised(self):
        trace = make_trace([make_record(grounding_changes=5)], num_claims=10)
        assert cng_series(trace)[0] == pytest.approx(0.5)

    def test_pre_series_window(self):
        records = [
            make_record(predictions_matched=[True]),
            make_record(predictions_matched=[False]),
        ]
        trace = make_trace(records)
        series = pre_series(trace, window=2)
        assert series[0] == pytest.approx(1.0)
        assert series[1] == pytest.approx(0.5)

    def test_pre_series_invalid_window(self):
        with pytest.raises(ValidationProcessError):
            pre_series(make_trace([]), window=0)

    def test_pir_series(self):
        rates = pir_series(np.asarray([0.5, 0.6, 0.6]))
        assert rates[0] == pytest.approx(0.2)
        assert rates[1] == pytest.approx(0.0)

    def test_pir_series_short_input(self):
        assert pir_series(np.asarray([0.5])).size == 0


class TestCrossValidation:
    def make_labelled_process(self, labels=10):
        from repro.datasets import load_dataset

        db = load_dataset("wiki", seed=33, scale=0.15)
        process = ValidationProcess(
            db,
            SessionSpec(guidance={"strategy": "uncertainty"}),
            user=SimulatedUser(seed=0),
            seed=0,
        )
        process.initialize()
        for _ in range(labels):
            process.step()
        return process

    def test_estimate_in_unit_interval(self):
        process = self.make_labelled_process()
        estimate = estimate_precision(process, folds=3)
        assert 0.0 <= estimate <= 1.0

    def test_estimate_high_for_oracle_labels(self):
        process = self.make_labelled_process(labels=12)
        estimate = estimate_precision(process, folds=3)
        assert estimate >= 0.5

    def test_estimate_deterministic(self):
        process = self.make_labelled_process()
        a = estimate_precision(process, folds=3, seed=5)
        b = estimate_precision(process, folds=3, seed=5)
        assert a == b

    def test_estimate_restores_state(self):
        process = self.make_labelled_process()
        labels_before = dict(process.database.labels)
        probs_before = np.asarray(process.database.probabilities).copy()
        estimate_precision(process, folds=3)
        assert process.database.labels == labels_before
        assert np.allclose(process.database.probabilities, probs_before)

    def test_too_few_labels_raises(self):
        process = self.make_labelled_process(labels=2)
        with pytest.raises(ValidationProcessError):
            estimate_precision(process, folds=5)


class TestCostModel:
    def test_cost_saving_k1_is_zero(self):
        assert cost_saving(1, 0.5) == 0.0

    def test_cost_saving_increases_with_k(self):
        values = [cost_saving(k, 0.5) for k in (1, 2, 5, 10, 20)]
        assert values == sorted(values)
        assert values[-1] < 1.0

    def test_cost_saving_closed_form(self):
        assert cost_saving(4, 0.5) == pytest.approx(1 - 1 / 2.0)

    def test_cost_saving_validation(self):
        with pytest.raises(ValueError):
            cost_saving(0, 0.5)
        with pytest.raises(ValueError):
            cost_saving(2, 0.0)

    def test_precision_degradation(self):
        assert precision_degradation(0.8, 0.6) == pytest.approx(0.25)

    def test_precision_degradation_clipped(self):
        assert precision_degradation(0.8, 0.9) == 0.0

    def test_precision_degradation_validation(self):
        with pytest.raises(ValueError):
            precision_degradation(0.0, 0.5)

    def test_dynamic_batch_size_schedule(self):
        assert dynamic_batch_size(0.0) == 1
        assert dynamic_batch_size(0.2) == 1
        assert dynamic_batch_size(1.0) == 20
        mid = dynamic_batch_size(0.6)
        assert 1 < mid < 20

    def test_dynamic_batch_size_validation(self):
        with pytest.raises(ValueError):
            dynamic_batch_size(1.5)
        with pytest.raises(ValueError):
            dynamic_batch_size(0.5, initial=5, maximum=2)


class TestBatching:
    def make_gain_setup(self):
        from repro.datasets import load_dataset

        db = load_dataset("wiki", seed=37, scale=0.1)
        icrf = ICrf(db, seed=0)
        icrf.infer()
        gains = GainEstimator(
            icrf.model, ComponentIndex(db), config=GainConfig(), seed=1
        )
        return db, gains

    def test_correlation_matrix_symmetric_normalised(self, micro_db):
        matrix = correlation_matrix(micro_db, [0, 1, 2])
        assert np.allclose(matrix, matrix.T)
        assert matrix.max() == pytest.approx(1.0)
        assert np.all(matrix >= 0)

    def test_correlation_counts_shared_sources(self, micro_db):
        matrix = correlation_matrix(micro_db, [0, 1, 2])
        # c1 and c2 share both sources; c1 and c3 share only s1.
        assert matrix[0, 1] > matrix[0, 2]

    def test_greedy_selects_k_distinct(self):
        db, gains = self.make_gain_setup()
        selection = greedy_topk_selection(db, gains, k=5)
        assert len(selection.claims) == 5
        assert len(set(selection.claims)) == 5

    def test_greedy_k_capped_by_unlabelled(self):
        db, gains = self.make_gain_setup()
        selection = greedy_topk_selection(db, gains, k=10_000)
        assert len(selection.claims) == db.num_claims

    def test_greedy_invalid_k(self):
        db, gains = self.make_gain_setup()
        with pytest.raises(GuidanceError):
            greedy_topk_selection(db, gains, k=0)

    def test_greedy_no_unlabelled(self):
        db, gains = self.make_gain_setup()
        for claim in range(db.num_claims):
            db.label(claim, 1)
        with pytest.raises(GuidanceError):
            greedy_topk_selection(db, gains, k=1)

    def test_greedy_near_optimal_utility(self):
        """Greedy must reach at least (1 - 1/e) of the exhaustive optimum."""
        db, gains = self.make_gain_setup()
        greedy = greedy_topk_selection(db, gains, k=3, candidate_limit=8)
        best = exhaustive_topk_selection(db, gains, k=3, candidate_limit=8)
        if best.utility > 0:
            assert greedy.utility >= (1 - 1 / np.e) * best.utility - 1e-9

    def test_utility_redundancy_dominates_at_small_weight(self):
        # With a small individual-benefit weight w, the redundancy penalty
        # dominates: independent claims are preferred.
        gains_vec = np.asarray([1.0, 1.0])
        correlated = np.asarray([[1.0, 1.0], [1.0, 1.0]])
        independent = np.asarray([[1.0, 0.0], [0.0, 1.0]])
        assert batch_utility(gains_vec, independent, [0, 1], 0.1) > batch_utility(
            gains_vec, correlated, [0, 1], 0.1
        )

    def test_utility_importance_rewards_connected_claims_at_large_weight(self):
        # With a large w the importance term dominates: claims from large
        # dependent groups are preferred (they propagate information).
        gains_vec = np.asarray([1.0, 1.0])
        correlated = np.asarray([[1.0, 1.0], [1.0, 1.0]])
        independent = np.asarray([[1.0, 0.0], [0.0, 1.0]])
        assert batch_utility(gains_vec, correlated, [0, 1], 5.0) > batch_utility(
            gains_vec, independent, [0, 1], 5.0
        )

    def test_exact_batch_gain_small(self, micro_db):
        icrf = ICrf(micro_db, seed=0)
        icrf.infer()
        gains = GainEstimator(
            icrf.model, ComponentIndex(micro_db), config=GainConfig(), seed=1
        )
        value = exact_batch_gain(micro_db, gains, [0, 1])
        assert np.isfinite(value)

    def test_exact_batch_gain_size_cap(self, micro_db):
        icrf = ICrf(micro_db, seed=0)
        icrf.infer()
        gains = GainEstimator(
            icrf.model, ComponentIndex(micro_db), config=GainConfig(), seed=1
        )
        with pytest.raises(GuidanceError):
            exact_batch_gain(micro_db, gains, list(range(13)))

    def test_exact_batch_gain_empty(self, micro_db):
        icrf = ICrf(micro_db, seed=0)
        gains = GainEstimator(
            icrf.model, ComponentIndex(micro_db), config=GainConfig(), seed=1
        )
        assert exact_batch_gain(micro_db, gains, []) == 0.0

    def test_batched_process_labels_k_per_iteration(self):
        from repro.datasets import load_dataset

        db = load_dataset("wiki", seed=39, scale=0.1)
        process = ValidationProcess(
            db,
            SessionSpec(guidance={"strategy": "info"}, effort={"batch_size": 3}),
            user=SimulatedUser(seed=0),
            seed=0,
        )
        process.initialize()
        record = process.step()
        assert len(record.claim_indices) == 3
        assert db.num_labelled == 3
