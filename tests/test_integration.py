"""End-to-end integration tests across the whole framework."""

from __future__ import annotations

import numpy as np

from repro import (
    ICrf,
    SimulatedUser,
    TruePrecisionGoal,
    ValidationProcess,
    load_dataset,
    make_strategy,
)
from repro.effort.termination import UncertaintyReductionCriterion
from repro.guidance.gain import GainConfig
from repro.streaming.process import StreamingFactChecker
from repro.streaming.stream import stream_from_database
from repro.validation.robustness import ConfirmationChecker


class TestGuidedValidationEndToEnd:
    def test_hybrid_reaches_high_precision_fast(self):
        """The headline behaviour: hybrid guidance reaches 0.9 precision
        with clearly less than full effort on the wiki replica."""
        db = load_dataset("wiki", seed=3, scale=0.2)
        process = ValidationProcess(
            db,
            strategy=make_strategy("hybrid"),
            user=SimulatedUser(seed=3),
            goal=TruePrecisionGoal(0.9),
            seed=3,
        )
        trace = process.run()
        assert process.current_precision() >= 0.9
        assert trace.efforts()[-1] < 0.95

    def test_guided_beats_random_on_average(self):
        """Across seeds, hybrid needs no more effort than random to 0.9.

        At this miniature scale (~31 claims) single-seed outcomes are
        noisy (the effort quantum is 1/31), so the comparison averages
        five seeds and allows a one-quantum-scale tolerance; the strict
        dominance claim is asserted at experiment scale by
        ``benchmarks/test_fig6_guidance.py``.
        """
        efforts = {"hybrid": [], "random": []}
        for seed in (1, 2, 3, 4, 5):
            for name in efforts:
                db = load_dataset("wiki", seed=100 + seed, scale=0.2)
                process = ValidationProcess(
                    db,
                    strategy=make_strategy(name),
                    user=SimulatedUser(seed=seed),
                    goal=TruePrecisionGoal(0.9),
                    seed=seed,
                )
                trace = process.run()
                reached = trace.effort_to_reach(0.9)
                efforts[name].append(reached if reached is not None else 1.0)
        assert np.mean(efforts["hybrid"]) <= np.mean(efforts["random"]) + 0.1

    def test_full_pipeline_with_all_features(self):
        """Robustness + termination + batching + erroneous user together."""
        db = load_dataset("wiki", seed=5, scale=0.2)
        process = ValidationProcess(
            db,
            strategy=make_strategy("hybrid"),
            user=SimulatedUser(error_probability=0.1, seed=5),
            goal=TruePrecisionGoal(0.95),
            robustness=ConfirmationChecker(interval=5),
            termination=[UncertaintyReductionCriterion(threshold=0.001,
                                                       patience=5)],
            batch_size=2,
            gain_config=GainConfig(localize=True),
            seed=5,
        )
        trace = process.run()
        assert trace.stop_reason in ("goal", "exhausted", "urr", "budget")
        assert trace.iterations > 0
        final_precision = process.current_precision()
        assert final_precision is not None and final_precision >= 0.5

    def test_trace_series_have_consistent_lengths(self):
        db = load_dataset("wiki", seed=7, scale=0.15)
        process = ValidationProcess(
            db,
            strategy=make_strategy("uncertainty"),
            user=SimulatedUser(seed=7),
            seed=7,
        )
        trace = process.run(max_iterations=5)
        n = trace.iterations
        assert len(trace.efforts()) == n
        assert len(trace.precisions()) == n
        assert len(trace.entropies()) == n
        assert len(trace.response_times()) == n
        assert len(trace.hybrid_scores()) == n


class TestStreamingIntegration:
    def test_stream_then_validate_matches_offline_claims(self):
        """Claims validated after a full stream replay are real claims of
        the original corpus and labels propagate back to the checker."""
        db = load_dataset("wiki", seed=9, scale=0.15)
        checker = StreamingFactChecker(seed=9)
        for arrival in stream_from_database(db):
            checker.observe(arrival)
        snapshot = checker.database
        icrf = ICrf(snapshot, seed=9)
        weights = checker.weights
        assert weights is not None
        icrf.set_weights(weights)
        process = ValidationProcess(
            snapshot,
            strategy=make_strategy("hybrid"),
            user=SimulatedUser(seed=9),
            icrf=icrf,
            seed=9,
        )
        process.initialize()
        record = process.step()
        claim_id = snapshot.claim_id(record.claim_indices[0])
        checker.record_label(claim_id, record.user_values[0])
        checker.receive_weights(icrf.weights)
        position = checker.database.claim_position(claim_id)
        assert checker.database.label_of(position) == record.user_values[0]

    def test_streaming_model_usable_for_grounding(self):
        db = load_dataset("wiki", seed=13, scale=0.1)
        checker = StreamingFactChecker(seed=13)
        for arrival in stream_from_database(db):
            checker.observe(arrival)
        probabilities = np.asarray(checker.database.probabilities)
        assert probabilities.shape == (db.num_claims,)
        assert np.all((probabilities >= 0) & (probabilities <= 1))


class TestPublicApi:
    def test_quickstart_from_docstring(self):
        """The quickstart in repro.__doc__ must actually work."""
        database = load_dataset("snopes", seed=7, scale=0.004)
        process = ValidationProcess(
            database,
            strategy=make_strategy("hybrid"),
            user=SimulatedUser(seed=7),
            goal=TruePrecisionGoal(0.9),
            seed=7,
        )
        trace = process.run()
        assert trace.stop_reason in ("goal", "exhausted")

    def test_version_exported(self):
        import repro

        assert repro.__version__
