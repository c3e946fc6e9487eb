"""Tests for iCRF incremental EM, M-step, and grounding decisions (§3.2-3.3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import InferenceSpec, SessionSpec
from repro.crf.gibbs import GibbsResult
from repro.errors import InferenceError, SpecError
from repro.inference.decide import decide_grounding, threshold_grounding
from repro.inference.icrf import ICrf
from repro.inference.mstep import MStepConfig, build_design_matrix, run_m_step

from tests.fixtures import build_micro_database


class TestMStep:
    def test_config_validation(self):
        with pytest.raises(InferenceError):
            MStepConfig(regularization=0.0)
        with pytest.raises(InferenceError):
            MStepConfig(labelled_weight=0.0)
        with pytest.raises(InferenceError):
            MStepConfig(max_iterations=0)

    def test_design_matrix_shape(self):
        db = build_micro_database()
        icrf = ICrf(db, seed=0)
        design = build_design_matrix(icrf.model, np.asarray(db.probabilities))
        assert design.shape == (3, icrf.model.featurizer.feature_dim + 1)

    def test_design_last_column_is_trust_signal(self):
        db = build_micro_database()
        icrf = ICrf(db, seed=0)
        marginals = np.asarray([0.9, 0.1, 0.6])
        design = build_design_matrix(icrf.model, marginals)
        assert np.allclose(
            design[:, -1], icrf.model.trust_signals(marginals)
        )

    def test_mstep_learns_positive_bias_from_positive_labels(self):
        db = build_micro_database()
        icrf = ICrf(db, InferenceSpec(initial_bias=0.0), seed=0)
        # Label everything with the truth; evidence aligns with stances.
        truth = db.truth_vector()
        for claim in range(3):
            db.label(claim, int(truth[claim]))
        marginals = np.asarray(db.probabilities)
        run_m_step(icrf.model, marginals)
        # Stance-signed evidence agrees with the labels -> positive bias.
        assert icrf.model.weights.bias > 0

    def test_mstep_updates_model_in_place(self):
        db = build_micro_database()
        icrf = ICrf(db, seed=0)
        before = icrf.model.weights.values.copy()
        db.label(0, 1)
        run_m_step(icrf.model, np.asarray(db.probabilities))
        assert not np.allclose(before, icrf.model.weights.values)

    def test_marginal_shape_validated(self):
        db = build_micro_database()
        icrf = ICrf(db, seed=0)
        with pytest.raises(InferenceError):
            run_m_step(icrf.model, np.asarray([0.5, 0.5]))


class TestICrf:
    def test_construction_validation(self):
        """The spec validates the EM settings ICrf reads."""
        for field, value in (
            ("em_iterations", 0),
            ("em_tolerance", -1.0),
            ("estep_mode", "exact"),
        ):
            with pytest.raises(SpecError) as excinfo:
                SessionSpec(inference={field: value})
            assert excinfo.value.field == f"inference.{field}"

    def test_infer_updates_database_probabilities(self):
        db = build_micro_database()
        icrf = ICrf(db, seed=0)
        before = np.asarray(db.probabilities).copy()
        result = icrf.infer()
        assert not np.allclose(before, db.probabilities)
        assert np.allclose(result.marginals, db.probabilities)

    def test_infer_returns_grounding_consistent_with_labels(self):
        db = build_micro_database()
        icrf = ICrf(db, seed=0)
        db.label(0, 0)
        result = icrf.infer()
        assert result.grounding[0] == 0

    def test_unsupervised_inference_beats_chance(self):
        """Cold-start EM should recover most truth from structure alone."""
        from repro.datasets import load_dataset

        db = load_dataset("wiki", seed=42, scale=0.15)
        icrf = ICrf(db, seed=1)
        result = icrf.infer()
        precision = result.grounding.precision(db.truth_vector())
        majority = max(db.truth_vector().mean(), 1 - db.truth_vector().mean())
        assert precision >= majority - 0.1

    def test_labels_improve_precision_on_average(self):
        from repro.datasets import load_dataset

        db = load_dataset("wiki", seed=7, scale=0.15)
        truth = db.truth_vector()
        icrf = ICrf(db, seed=1)
        base = icrf.infer().grounding.precision(truth)
        rng = np.random.default_rng(0)
        chosen = rng.choice(db.num_claims, size=db.num_claims // 2, replace=False)
        for claim in chosen:
            db.label(int(claim), int(truth[claim]))
        after = icrf.infer().grounding.precision(truth)
        assert after >= base

    def test_em_iteration_budget(self):
        db = build_micro_database()
        icrf = ICrf(db, InferenceSpec(em_iterations=2, em_tolerance=0.0), seed=0)
        result = icrf.infer()
        assert result.em_iterations <= 2
        assert len(result.marginal_deltas) == result.em_iterations

    def test_infer_rejects_bad_budget(self):
        db = build_micro_database()
        icrf = ICrf(db, seed=0)
        with pytest.raises(InferenceError):
            icrf.infer(em_iterations=0)

    def test_update_weights_false_freezes_model(self):
        db = build_micro_database()
        icrf = ICrf(db, seed=0)
        before = icrf.weights.values.copy()
        icrf.infer(update_weights=False)
        assert np.allclose(before, icrf.weights.values)

    def test_set_weights_roundtrip(self):
        db = build_micro_database()
        icrf = ICrf(db, seed=0)
        new = icrf.weights.copy()
        new.values[:] = 0.25
        icrf.set_weights(new)
        assert np.allclose(icrf.weights.values, 0.25)

    def test_last_gibbs_exposed(self):
        db = build_micro_database()
        icrf = ICrf(db, seed=0)
        assert icrf.last_gibbs is None
        icrf.infer()
        assert icrf.last_gibbs is not None

    def test_reset_chain(self):
        db = build_micro_database()
        icrf = ICrf(db, seed=0)
        icrf.infer()
        icrf.reset_chain()
        assert icrf.sampler.state is None


class TestDecide:
    def test_decide_prefers_mode_configuration(self, micro_db):
        result = GibbsResult(
            marginals=np.asarray([0.6, 0.4, 0.9]),
            mode_configuration=np.asarray([0, 1, 1], dtype=np.int8),
            num_samples=10,
            configuration_counts={},
        )
        grounding = decide_grounding(micro_db, result)
        assert list(grounding) == [0, 1, 1]

    def test_decide_overrides_with_labels(self, micro_db):
        micro_db.label(0, 1)
        result = GibbsResult(
            marginals=np.asarray([1.0, 0.4, 0.9]),
            mode_configuration=np.asarray([0, 1, 1], dtype=np.int8),
            num_samples=10,
            configuration_counts={},
        )
        grounding = decide_grounding(micro_db, result)
        assert grounding[0] == 1

    def test_decide_shape_check(self, micro_db):
        result = GibbsResult(
            marginals=np.asarray([0.5]),
            mode_configuration=np.asarray([1], dtype=np.int8),
            num_samples=1,
            configuration_counts={},
        )
        with pytest.raises(InferenceError):
            decide_grounding(micro_db, result)

    def test_threshold_grounding(self, micro_db):
        micro_db.set_probabilities(np.asarray([0.9, 0.2, 0.5]))
        grounding = threshold_grounding(micro_db)
        assert list(grounding) == [1, 0, 1]

    def test_threshold_grounding_respects_labels(self, micro_db):
        micro_db.set_probabilities(np.asarray([0.9, 0.2, 0.5]))
        micro_db.label(0, 0)
        grounding = threshold_grounding(micro_db)
        assert grounding[0] == 0
