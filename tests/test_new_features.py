"""Tests for the deterministic inference and ordering features.

Covers the mean-field E-step mode of iCRF, deterministic tie-breaking in
selection strategies, and the ablation experiment drivers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import InferenceSpec, SessionSpec
from repro.crf.partition import ComponentIndex
from repro.errors import SpecError
from repro.experiments import ablations
from repro.experiments.runner import ExperimentConfig
from repro.guidance.base import SelectionContext
from repro.guidance.gain import GainEstimator
from repro.guidance.strategies import UncertaintyStrategy
from repro.inference.icrf import ICrf

from tests.fixtures import build_micro_database

TINY = ExperimentConfig(
    seed=5, runs=1, scale_factor=0.4, datasets=("wiki",),
    em_iterations=1, gibbs_samples=8, candidate_limit=8,
)
MEANFIELD = InferenceSpec(estep_mode="meanfield")


class TestMeanFieldEStep:
    def test_invalid_mode_rejected(self):
        with pytest.raises(SpecError) as excinfo:
            InferenceSpec(estep_mode="variational")
        assert excinfo.value.field == "estep_mode"

    def test_meanfield_is_deterministic(self):
        results = []
        for seed in (1, 2):
            db = build_micro_database()
            icrf = ICrf(db, MEANFIELD, seed=seed)
            results.append(icrf.infer().marginals)
        assert np.allclose(results[0], results[1])

    def test_gibbs_mode_varies_with_seed(self):
        results = []
        for seed in (1, 2):
            db = build_micro_database()
            icrf = ICrf(db, InferenceSpec(estep_mode="gibbs"), seed=seed)
            results.append(icrf.infer().marginals)
        assert not np.allclose(results[0], results[1])

    def test_meanfield_respects_labels(self, micro_db):
        icrf = ICrf(micro_db, MEANFIELD, seed=0)
        micro_db.label(0, 0)
        result = icrf.infer()
        assert result.marginals[0] == 0.0
        assert result.grounding[0] == 0

    def test_meanfield_and_gibbs_agree_qualitatively(self):
        """With frozen weights, both E-steps must assign higher
        credibility to the claim with uncontested supporting evidence
        (c3) than to the contested c2.

        Weights are frozen (``update_weights=False``) because on a 3-claim
        corpus without labels the self-training M-step collapses towards
        uninformative weights, flattening all marginals.
        """
        db_a = build_micro_database()
        icrf_a = ICrf(
            db_a, InferenceSpec(estep_mode="gibbs", num_samples=200), seed=0
        )
        gibbs = icrf_a.infer(update_weights=False).marginals
        db_b = build_micro_database()
        icrf_b = ICrf(db_b, MEANFIELD, seed=0)
        meanfield = icrf_b.infer(update_weights=False).marginals
        c2 = db_b.claim_position("c2")
        c3 = db_b.claim_position("c3")
        assert gibbs[c3] > gibbs[c2]
        assert meanfield[c3] > meanfield[c2]

    def test_meanfield_subset_restriction(self, micro_db):
        icrf = ICrf(micro_db, MEANFIELD, seed=0)
        before = np.asarray(micro_db.probabilities).copy()
        icrf.infer(claim_subset=np.asarray([2]))
        after = np.asarray(micro_db.probabilities)
        assert after[0] == before[0]
        assert after[1] == before[1]


class TestDeterministicTies:
    def make_context(self, deterministic):
        db = build_micro_database()
        icrf = ICrf(db, MEANFIELD, seed=0)
        icrf.infer()
        # Force an exact tie between all claims.
        db.set_probabilities(np.full(3, 0.5))
        gains = GainEstimator(icrf.model, ComponentIndex(db), seed=1)
        return SelectionContext(
            database=db,
            gains=gains,
            rng=np.random.default_rng(123),
            deterministic_ties=deterministic,
        )

    def test_uncertainty_deterministic_tie(self):
        context = self.make_context(True)
        picks = {UncertaintyStrategy().select(context) for _ in range(5)}
        assert picks == {0}

    def test_uncertainty_random_tie_spreads(self):
        context = self.make_context(False)
        picks = {UncertaintyStrategy().select(context) for _ in range(30)}
        assert len(picks) > 1

    def test_info_strategy_deterministic_run(self):
        """Two processes with deterministic ties and mean-field inference
        produce identical validation orders."""
        from repro.datasets import load_dataset
        from repro.validation.oracle import SimulatedUser
        from repro.validation.process import ValidationProcess

        spec = SessionSpec(
            inference={"estep_mode": "meanfield"},
            guidance={"strategy": "info", "deterministic_ties": True},
        )
        orders = []
        for seed in (10, 20):  # different process seeds
            db = load_dataset("wiki", seed=1, scale=0.1)
            icrf = ICrf(db, spec.inference, seed=seed)
            process = ValidationProcess(
                db,
                spec,
                user=SimulatedUser(seed=seed),
                icrf=icrf,
                seed=seed,
            )
            trace = process.run(max_iterations=6)
            orders.append(trace.validated_claims())
        assert orders[0] == orders[1]


class TestAblations:
    def test_coupling_ablation_rows(self):
        result = ablations.coupling_ablation(TINY, dataset="wiki",
                                             effort_fraction=0.2)
        assert set(result.column("coupling")) == {"on", "off"}

    def test_aggregation_ablation_rows(self):
        result = ablations.aggregation_ablation(TINY, dataset="wiki",
                                                effort_fraction=0.2)
        assert set(result.column("aggregation")) == {"sum", "mean", "sqrt"}

    def test_warm_start_ablation_rows(self):
        result = ablations.warm_start_ablation(TINY, dataset="wiki",
                                               iterations=3)
        assert set(result.column("chain")) == {"warm", "cold"}
        for value in result.column("avg_infer_seconds"):
            assert value > 0

    def test_batch_selection_ablation_guarantee(self):
        result = ablations.batch_selection_ablation(
            TINY, dataset="wiki", k=2, candidate_limit=6
        )
        rows = {row[1]: row[2] for row in result.rows}
        if rows["exhaustive"] > 0:
            assert rows["greedy"] >= (1 - 1 / np.e) * rows["exhaustive"] - 1e-9
