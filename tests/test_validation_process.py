"""Tests for the validation process (Alg. 1), users, goals, robustness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import SessionSpec
from repro.crf.partition import ComponentIndex
from repro.data.entities import Claim
from repro.errors import SpecError, ValidationProcessError
from repro.inference.icrf import ICrf
from repro.validation.goals import (
    EstimatedPrecisionGoal,
    NoGoal,
    TruePrecisionGoal,
)
from repro.validation.oracle import SimulatedUser
from repro.validation.process import ValidationProcess
from repro.validation.robustness import ConfirmationChecker

from tests.fixtures import build_micro_database


def make_process(db=None, strategy="uncertainty", seed=0, **effort):
    db = db if db is not None else build_micro_database()
    return ValidationProcess(
        db,
        SessionSpec(guidance={"strategy": strategy}, effort=effort),
        user=SimulatedUser(seed=seed),
        seed=seed,
    )


class TestSimulatedUser:
    def test_perfect_oracle(self):
        user = SimulatedUser(seed=0)
        assert user.validate(Claim("c", truth=True)) == 1
        assert user.validate(Claim("c", truth=False)) == 0
        assert user.mistakes == 0

    def test_requires_ground_truth(self):
        user = SimulatedUser(seed=0)
        with pytest.raises(ValidationProcessError):
            user.validate(Claim("c"))

    def test_error_probability_flips(self):
        user = SimulatedUser(error_probability=1.0, seed=0)
        assert user.validate(Claim("c", truth=True)) == 0
        assert user.mistakes == 1

    def test_skip_probability(self):
        user = SimulatedUser(skip_probability=1.0, seed=0)
        assert user.validate(Claim("c", truth=True)) is None
        assert user.skips == 1
        assert user.validations == 0

    def test_mistake_rate_statistical(self):
        user = SimulatedUser(error_probability=0.3, seed=1)
        flips = sum(
            1 for _ in range(500)
            if user.validate(Claim("c", truth=True)) == 0
        )
        assert 100 <= flips <= 200  # 0.3 * 500 = 150 expected

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError):
            SimulatedUser(error_probability=1.5)
        with pytest.raises(ValueError):
            SimulatedUser(skip_probability=-0.1)


class TestProcessBasics:
    def test_initialize_sets_baseline(self):
        process = make_process()
        trace = process.initialize()
        assert trace.initial_precision is not None
        assert trace.initial_entropy >= 0.0
        assert trace.iterations == 0

    def test_initialize_idempotent(self):
        process = make_process()
        trace_a = process.initialize()
        trace_b = process.initialize()
        assert trace_a is trace_b

    def test_step_labels_one_claim(self):
        process = make_process()
        process.initialize()
        record = process.step()
        assert len(record.claim_indices) == 1
        assert process.state.num_labelled == 1

    def test_step_records_metrics(self):
        process = make_process()
        process.initialize()
        record = process.step()
        assert 0.0 <= record.error_rate <= 1.0
        assert 0.0 <= record.hybrid_score < 1.0
        assert 0.0 <= record.unreliable_ratio <= 1.0
        assert record.response_seconds >= 0.0
        assert record.entropy >= 0.0

    def test_step_after_exhaustion_raises(self):
        process = make_process()
        process.initialize()
        for _ in range(3):
            process.step()
        with pytest.raises(ValidationProcessError):
            process.step()

    def test_user_input_matches_truth_with_oracle(self):
        db = build_micro_database()
        truth = db.truth_vector()
        process = make_process(db)
        process.initialize()
        record = process.step()
        claim = record.claim_indices[0]
        assert record.user_values[0] == truth[claim]

    def test_invalid_batch_size(self):
        with pytest.raises(SpecError) as excinfo:
            SessionSpec(effort={"batch_size": 0})
        assert excinfo.value.field == "effort.batch_size"

    def test_invalid_budget(self):
        with pytest.raises(SpecError) as excinfo:
            SessionSpec(effort={"budget": 0})
        assert excinfo.value.field == "effort.budget"


class TestRun:
    def test_runs_to_exhaustion_without_goal(self):
        process = make_process()
        trace = process.run()
        assert trace.stop_reason == "exhausted"
        assert process.state.num_labelled == 3

    def test_budget_stops_run(self):
        process = make_process(budget=2)
        trace = process.run()
        assert trace.stop_reason == "budget"
        assert process.state.num_labelled == 2

    def test_goal_stops_run(self):
        process = make_process(goal={"kind": "true_precision", "threshold": 0.0})
        trace = process.run()
        assert trace.stop_reason == "goal"
        assert trace.iterations == 0

    def test_max_iterations(self):
        process = make_process()
        trace = process.run(max_iterations=1)
        assert trace.stop_reason == "max_iterations"
        assert trace.iterations == 1

    def test_oracle_run_reaches_full_precision(self):
        process = make_process(goal={"kind": "true_precision", "threshold": 1.0})
        trace = process.run()
        assert trace.stop_reason in ("goal", "exhausted")
        assert process.current_precision() == 1.0

    def test_final_grounding_attached(self):
        process = make_process()
        trace = process.run()
        assert trace.final_grounding is not None

    def test_trace_efforts_monotone(self):
        process = make_process()
        trace = process.run()
        efforts = trace.efforts()
        assert np.all(np.diff(efforts) > 0)
        assert efforts[-1] == pytest.approx(1.0)


class TestSkipping:
    def test_always_skipping_user_still_progresses(self):
        db = build_micro_database()
        process = ValidationProcess(
            db,
            SessionSpec(guidance={"strategy": "uncertainty"}),
            user=SimulatedUser(skip_probability=1.0, seed=0),
            seed=0,
        )
        process.initialize()
        record = process.step()
        # Forced validation after exhausting skip attempts.
        assert len(record.claim_indices) == 1
        assert record.skipped >= 1

    def test_partial_skipping_selects_second_best(self):
        db = build_micro_database()
        process = ValidationProcess(
            db,
            SessionSpec(guidance={"strategy": "uncertainty"}),
            user=SimulatedUser(skip_probability=0.5, seed=3),
            seed=0,
        )
        trace = process.run()
        assert process.state.num_labelled == 3
        assert sum(r.skipped for r in trace.records) >= 0


class TestRobustness:
    def test_confirmation_detects_injected_mistakes(self):
        """Wrong labels among many correct ones should be flagged.

        Detection exploits redundancy across labelled claims (§5.2), so it
        needs a corpus where one mistake cannot dominate the fit — the
        generated wiki replica, not the 3-claim micro corpus.
        """
        from repro.datasets import load_dataset

        db = load_dataset("wiki", seed=21, scale=0.15)
        icrf = ICrf(db, seed=0)
        icrf.infer()
        truth = db.truth_vector()
        rng = np.random.default_rng(2)
        labelled = rng.choice(db.num_claims, size=db.num_claims // 2,
                              replace=False)
        wrong = int(labelled[0])
        for claim in labelled:
            claim = int(claim)
            value = int(truth[claim])
            icrf.state.label(claim, value if claim != wrong else 1 - value)
        icrf.infer()
        checker = ConfirmationChecker(interval=1)
        state, weights = icrf.state.to_dict(), icrf.weights.values.copy()
        report = checker.sweep(icrf.model, icrf.state, ComponentIndex(db))
        # The leave-one-out runs on copies: state and weights as found.
        assert icrf.state.to_dict() == state
        assert np.array_equal(icrf.weights.values, weights)
        assert wrong in report.suspects
        # Most correct labels are not flagged.
        correct_flagged = [c for c in report.suspects if c != wrong]
        assert len(correct_flagged) <= len(labelled) // 3

    def test_correct_labels_not_flagged(self):
        db = build_micro_database()
        icrf = ICrf(db, seed=0)
        icrf.infer()
        truth = db.truth_vector()
        for claim in range(3):
            icrf.state.label(claim, int(truth[claim]))
        icrf.infer()
        checker = ConfirmationChecker(interval=1)
        report = checker.sweep(icrf.model, icrf.state, ComponentIndex(db))
        assert report.suspects == []

    def test_process_repairs_mistakes(self):
        from repro.datasets import load_dataset

        db = load_dataset("wiki", seed=11, scale=0.15)
        process = ValidationProcess(
            db,
            SessionSpec(
                guidance={"strategy": "uncertainty"},
                effort={"confirmation_interval": 2},
            ),
            user=SimulatedUser(error_probability=0.3, seed=5),
            seed=0,
        )
        trace = process.run(max_iterations=10)
        stats = process.robustness_stats
        assert stats.sweeps >= 1
        assert stats.repairs == stats.flagged
        total_repairs = sum(r.repairs for r in trace.records)
        assert total_repairs == stats.repairs

    def test_checker_validation(self):
        with pytest.raises(ValidationProcessError):
            ConfirmationChecker(interval=0)
        with pytest.raises(ValidationProcessError):
            ConfirmationChecker(damping=1.0)

    def test_due(self):
        checker = ConfirmationChecker(interval=3)
        assert not checker.due(2)
        assert checker.due(3)


class TestGoals:
    def test_no_goal_never_satisfied(self):
        process = make_process()
        assert not NoGoal().satisfied(process)

    def test_true_precision_goal_validation(self):
        with pytest.raises(ValueError):
            TruePrecisionGoal(1.5)

    def test_estimated_goal_requires_labels(self):
        process = make_process()
        process.initialize()
        goal = EstimatedPrecisionGoal(0.5, folds=2, min_labels=2)
        assert not goal.satisfied(process)

    def test_estimated_goal_with_labels(self):
        from repro.datasets import load_dataset

        db = load_dataset("wiki", seed=11, scale=0.15)
        process = make_process(db)
        process.initialize()
        for _ in range(8):
            process.step()
        goal = EstimatedPrecisionGoal(0.0, folds=2, min_labels=4)
        assert goal.satisfied(process)

    def test_estimated_goal_validation(self):
        with pytest.raises(ValueError):
            EstimatedPrecisionGoal(0.5, folds=1)
        with pytest.raises(ValueError):
            EstimatedPrecisionGoal(0.5, folds=5, min_labels=3)

    def test_goal_descriptions(self):
        assert "0.9" in TruePrecisionGoal(0.9).describe()
        assert NoGoal().describe() == "none"
        assert "fold" in EstimatedPrecisionGoal(0.8).describe()


class TestHybridProcessIntegration:
    def test_hybrid_process_completes(self):
        from repro.datasets import load_dataset

        db = load_dataset("wiki", seed=13, scale=0.1)
        process = make_process(
            db,
            strategy="hybrid",
            seed=1,
            goal={"kind": "true_precision", "threshold": 0.9},
        )
        trace = process.run()
        assert trace.stop_reason in ("goal", "exhausted")
        assert process.current_precision() >= 0.9 or trace.stop_reason == "exhausted"

    def test_strategy_used_recorded(self):
        process = make_process(strategy="hybrid")
        process.initialize()
        record = process.step()
        assert record.strategy_used in ("info", "source")
