"""Tests for the CRF substrate: weights, potentials, energy model (§3.1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.crf.model import CrfModel
from repro.crf.potentials import (
    AGGREGATION_MODES,
    CliqueFeaturizer,
    clique_feature_names,
    log_sigmoid,
    sigmoid,
)
from repro.crf.weights import CrfWeights
from repro.errors import InferenceError

from tests.fixtures import build_micro_database


def micro_model(coupling=1.0, aggregation="sqrt", coupling_enabled=True):
    db = build_micro_database()
    weights = CrfWeights.zeros(2, 2, coupling=coupling)
    weights.values[0] = 1.0  # bias
    return CrfModel(db, weights=weights, aggregation=aggregation,
                    coupling_enabled=coupling_enabled), db


class TestWeights:
    def test_layout(self):
        w = CrfWeights(np.asarray([0.5, 1.0, 2.0, 3.0]))
        assert w.bias == 0.5
        assert w.coupling == 3.0
        assert w.feature_weights.tolist() == [0.5, 1.0, 2.0]

    def test_zeros_factory(self):
        w = CrfWeights.zeros(2, 3, coupling=0.7)
        assert w.size == 2 + 2 + 3
        assert w.coupling == 0.7
        assert w.bias == 0.0

    def test_copy_is_independent(self):
        w = CrfWeights.zeros(1, 1)
        c = w.copy()
        c.values[0] = 5.0
        assert w.values[0] == 0.0

    def test_distance(self):
        a = CrfWeights(np.asarray([0.0, 0.0]))
        b = CrfWeights(np.asarray([3.0, 4.0]))
        assert a.distance(b) == pytest.approx(5.0)

    def test_distance_size_mismatch(self):
        with pytest.raises(InferenceError):
            CrfWeights(np.zeros(2)).distance(CrfWeights(np.zeros(3)))

    def test_nan_rejected(self):
        with pytest.raises(InferenceError):
            CrfWeights(np.asarray([0.0, float("nan")]))

    def test_too_short_rejected(self):
        with pytest.raises(InferenceError):
            CrfWeights(np.asarray([1.0]))


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(np.asarray(0.0)) == pytest.approx(0.5)

    def test_extremes_are_stable(self):
        values = sigmoid(np.asarray([-1000.0, 1000.0]))
        assert values[0] == pytest.approx(0.0, abs=1e-12)
        assert values[1] == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self):
        x = np.linspace(-5, 5, 11)
        assert np.allclose(sigmoid(x) + sigmoid(-x), 1.0)

    def test_log_sigmoid_matches_log_of_sigmoid(self):
        x = np.linspace(-10, 10, 21)
        assert np.allclose(log_sigmoid(x), np.log(sigmoid(x)), atol=1e-12)

    def test_log_sigmoid_no_overflow(self):
        assert np.isfinite(log_sigmoid(np.asarray([-1e6])))


class TestCliqueFeaturizer:
    def test_feature_dim(self, micro_db):
        feat = CliqueFeaturizer(micro_db)
        assert feat.feature_dim == 1 + 2 + 2  # bias + doc + src

    def test_invalid_aggregation(self, micro_db):
        with pytest.raises(InferenceError):
            CliqueFeaturizer(micro_db, aggregation="max")

    def test_stance_flips_feature_sign(self, micro_db):
        feat = CliqueFeaturizer(micro_db)
        for idx, sign in enumerate(micro_db.clique_arrays()[3]):
            # Bias column is 1 * stance sign.
            assert feat.signed_features[idx, 0] == sign

    def test_cliques_of_claim_matches_database(self, micro_db):
        feat = CliqueFeaturizer(micro_db)
        clique_claim = micro_db.clique_arrays()[0]
        for claim in range(micro_db.num_claims):
            via_feat = sorted(int(i) for i in feat.cliques_of_claim(claim))
            via_db = np.flatnonzero(clique_claim == claim).tolist()
            assert via_feat == via_db

    @pytest.mark.parametrize("mode", AGGREGATION_MODES)
    def test_local_fields_scaling(self, micro_db, mode):
        feat = CliqueFeaturizer(micro_db, aggregation=mode)
        weights = np.zeros(feat.feature_dim)
        weights[0] = 1.0  # only bias: evidence = sum of stance signs
        fields = feat.local_fields(weights)
        # c1: support + refute = 0 net evidence regardless of scaling.
        assert fields[0] == pytest.approx(0.0)
        # c3 has one supporting clique: evidence 1 under all modes.
        assert fields[2] == pytest.approx(1.0)

    def test_sum_vs_mean_scaling(self, micro_db):
        weights = np.zeros(5)
        weights[0] = 1.0
        sum_fields = CliqueFeaturizer(micro_db, "sum").local_fields(weights)
        mean_fields = CliqueFeaturizer(micro_db, "mean").local_fields(weights)
        # c2: one refute (s1) + one support (s2) -> sum 0, mean 0.
        assert sum_fields[1] == pytest.approx(0.0)
        assert mean_fields[1] == pytest.approx(0.0)

    def test_design_matrix_consistent_with_local_fields(self, micro_db):
        feat = CliqueFeaturizer(micro_db)
        weights = np.asarray([0.3, -0.2, 0.5, 0.1, -0.4])
        design = feat.claim_design_matrix()
        assert np.allclose(design @ weights, feat.local_fields(weights))

    def test_wrong_weight_size_rejected(self, micro_db):
        feat = CliqueFeaturizer(micro_db)
        with pytest.raises(InferenceError):
            feat.local_fields(np.zeros(3))

    def test_feature_names(self, micro_db):
        names = clique_feature_names(micro_db)
        assert names[0] == "bias"
        assert len(names) == 5


class TestCrfModel:
    def test_weight_size_validation(self, micro_db):
        with pytest.raises(InferenceError):
            CrfModel(micro_db, weights=CrfWeights(np.zeros(3)))

    def test_pair_table_collapses_cliques(self):
        model, db = micro_model()
        # 5 cliques but (claim, source) pairs: c1-s1, c1-s2, c2-s1, c2-s2,
        # c3-s1 -> 5 pairs here (no duplicate pairs in micro corpus).
        assert model.graph.claim.size == 5

    def test_source_statistics_alignment(self):
        model, db = micro_model()
        # All claims credible: spins +1.
        spins = np.ones(3)
        stats = model.source_statistics(spins)
        s1, s2 = db.source_position("s1"), db.source_position("s2")
        # s1: +1 (c1 support) -1 (c2 refute) +1 (c3 support) = 1
        assert stats[s1] == pytest.approx(1.0)
        # s2: +1 (c2 support) -1 (c1 refute) = 0
        assert stats[s2] == pytest.approx(0.0)

    def test_source_statistics_ground_truth_config(self):
        model, db = micro_model()
        truth_spins = np.asarray([1.0, -1.0, 1.0])  # c1 true, c2 false, c3 true
        stats = model.source_statistics(truth_spins)
        s1, s2 = db.source_position("s1"), db.source_position("s2")
        # s1 is consistently right: +1 +1 +1 = 3; s2 consistently wrong: -2.
        assert stats[s1] == pytest.approx(3.0)
        assert stats[s2] == pytest.approx(-2.0)

    def test_conditional_logit_rewards_consistency(self):
        model, db = micro_model(coupling=1.0)
        # Under the ground-truth configuration, flipping c3 should be
        # discouraged: its conditional logit must be positive (credible).
        spins = np.asarray([1.0, -1.0, 1.0])
        stats = model.source_statistics(spins)
        c3 = db.claim_position("c3")
        logit = model.conditional_logit(c3, spins, stats)
        assert logit > 0

    def test_coupling_disabled_drops_interaction(self):
        model, db = micro_model(coupling=1.0, coupling_enabled=False)
        spins = np.asarray([1.0, -1.0, 1.0])
        stats = model.source_statistics(spins)
        c3 = db.claim_position("c3")
        assert model.conditional_logit(c3, spins, stats) == pytest.approx(
            model.local_fields[c3]
        )

    def test_trust_signals_zero_at_max_entropy(self):
        model, db = micro_model()
        # All marginals 0.5 -> expected spins 0 -> no signal.
        signals = model.trust_signals(np.full(3, 0.5))
        assert np.allclose(signals, 0.0)

    def test_trust_signals_push_towards_truth(self):
        model, db = micro_model()
        # Marginals near truth: signal for c3 should be positive (s1 is
        # consistent), for c2 negative.
        signals = model.trust_signals(np.asarray([0.95, 0.05, 0.5]))
        assert signals[db.claim_position("c3")] > 0
        assert signals[db.claim_position("c2")] < 0

    def test_conditional_logit_matches_joint_difference(self):
        """The Gibbs conditional must equal the joint log-potential gap."""
        model, db = micro_model(coupling=0.8)
        rng = np.random.default_rng(0)
        for _ in range(10):
            config = rng.integers(0, 2, size=3).astype(np.int8)
            claim = int(rng.integers(0, 3))
            up = config.copy()
            up[claim] = 1
            down = config.copy()
            down[claim] = 0
            gap = model.joint_log_potential(up) - model.joint_log_potential(down)
            spins = 2.0 * config.astype(float) - 1.0
            stats = model.source_statistics(spins)
            logit = model.conditional_logit(claim, spins, stats)
            assert logit == pytest.approx(gap, abs=1e-9)

    def test_joint_log_potential_shape_check(self):
        model, db = micro_model()
        with pytest.raises(InferenceError):
            model.joint_log_potential(np.asarray([1, 0]))

    def test_set_weights_refreshes_local_fields(self):
        model, db = micro_model()
        before = model.local_fields.copy()
        new_weights = model.weights.copy()
        new_weights.values[0] = 5.0
        model.set_weights(new_weights)
        assert not np.allclose(before, model.local_fields)

    def test_mean_field_probabilities_bounded(self):
        model, db = micro_model()
        probs = model.mean_field(np.full(3, 0.5), steps=1, damping=0.0)
        assert np.all((probs >= 0) & (probs <= 1))

    def test_mean_field_holds_fixed_and_out_of_scope_claims(self):
        model, db = micro_model()
        start = np.asarray([0.2, 0.5, 0.7])
        probs = model.mean_field(
            start, steps=3, damping=0.3, scope=np.asarray([0, 1]), fixed=[0]
        )
        assert probs[0] == start[0] and probs[2] == start[2]
        assert probs[1] != start[1]
        assert np.array_equal(start, [0.2, 0.5, 0.7])
