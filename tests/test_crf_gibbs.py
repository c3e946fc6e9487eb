"""Tests for the Gibbs sampler (§3.2 E-step) and its constraint handling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.crf.gibbs import GibbsSampler
from repro.crf.model import CrfModel
from repro.crf.weights import CrfWeights
from repro.data.state import ClaimState
from repro.errors import InferenceError

from tests.fixtures import build_micro_database


def draw(sampler, state, claim_subset=None):
    """One ``sample`` call starting from, and holding the labels of, ``state``."""
    return sampler.sample(state.probabilities, state.labelled_indices, claim_subset)


def make_model(coupling=1.0, bias=1.0):
    db = build_micro_database()
    weights = CrfWeights.zeros(2, 2, coupling=coupling)
    weights.values[0] = bias
    return CrfModel(db, weights=weights), ClaimState.of(db)


class TestConstruction:
    def test_invalid_burn_in(self):
        model, _ = make_model()
        with pytest.raises(InferenceError):
            GibbsSampler(model, burn_in=-1)

    def test_invalid_num_samples(self):
        model, _ = make_model()
        with pytest.raises(InferenceError):
            GibbsSampler(model, num_samples=0)

    def test_invalid_thin(self):
        model, _ = make_model()
        with pytest.raises(InferenceError):
            GibbsSampler(model, thin=0)

    def test_state_none_before_first_sample(self):
        model, _ = make_model()
        assert GibbsSampler(model, seed=0).state is None


class TestSampling:
    def test_marginals_in_unit_interval(self):
        model, state = make_model()
        sampler = GibbsSampler(model, seed=0, num_samples=10)
        result = draw(sampler, state)
        assert np.all((result.marginals >= 0) & (result.marginals <= 1))

    def test_labels_are_pinned(self):
        model, state = make_model()
        state.label(0, 1)
        state.label(1, 0)
        sampler = GibbsSampler(model, seed=0, num_samples=10)
        result = draw(sampler, state)
        assert result.marginals[0] == 1.0
        assert result.marginals[1] == 0.0
        # Every sampled configuration respects the labels.
        for config_bytes in result.configuration_counts:
            config = np.frombuffer(config_bytes, dtype=np.int8)
            assert config[0] == 1
            assert config[1] == 0

    def test_mode_configuration_is_most_frequent(self):
        model, state = make_model()
        sampler = GibbsSampler(model, seed=0, num_samples=30)
        result = draw(sampler, state)
        counts = result.configuration_counts
        top = max(counts.values())
        assert counts[result.mode_configuration.tobytes()] == top

    def test_num_samples_honoured(self):
        model, state = make_model()
        sampler = GibbsSampler(model, seed=0, num_samples=12)
        result = draw(sampler, state)
        assert result.num_samples == 12
        assert sum(result.configuration_counts.values()) == 12

    def test_all_labelled_shortcut(self):
        model, state = make_model()
        for claim in range(state.num_claims):
            state.label(claim, 1)
        sampler = GibbsSampler(model, seed=0)
        result = draw(sampler, state)
        assert result.num_samples == 1
        assert result.marginals.tolist() == [1.0, 1.0, 1.0]

    def test_subset_restriction_freezes_outside(self):
        model, state = make_model()
        state.set_probabilities(np.asarray([0.9, 0.1, 0.5]))
        sampler = GibbsSampler(model, seed=0, num_samples=10)
        result = draw(sampler, state, claim_subset=np.asarray([2]))
        # Claims 0 and 1 were not resampled: marginals unchanged.
        assert result.marginals[0] == pytest.approx(0.9)
        assert result.marginals[1] == pytest.approx(0.1)

    def test_warm_start_persists_state(self):
        model, state = make_model()
        sampler = GibbsSampler(model, seed=0, num_samples=5)
        draw(sampler, state)
        spins = sampler.state
        assert spins is not None
        assert spins.shape == (state.num_claims,)

    def test_reset_clears_state(self):
        model, state = make_model()
        sampler = GibbsSampler(model, seed=0, num_samples=5)
        draw(sampler, state)
        sampler.reset()
        assert sampler.state is None

    def test_deterministic_given_seed(self):
        model_a, state_a = make_model()
        model_b, state_b = make_model()
        result_a = draw(GibbsSampler(model_a, seed=42, num_samples=8), state_a)
        result_b = draw(GibbsSampler(model_b, seed=42, num_samples=8), state_b)
        assert np.allclose(result_a.marginals, result_b.marginals)


class TestStartAndHeld:
    """A start vector and held mask stand for a labelled claim state."""

    @pytest.mark.parametrize("subset", [False, True])
    def test_equals_database_labelled_to_that_state(self, wiki_db, subset):
        model = CrfModel(wiki_db)
        n = wiki_db.num_claims
        state = ClaimState.of(wiki_db)
        state.set_probabilities(np.linspace(0.05, 0.95, n))
        state.label(0, 1)
        state.label(3, 0)
        # The pin on claim 0 overrides its label.
        pins = {0: 0, 5: 1, 7: 0}
        start = np.array(state.probabilities)
        held = np.zeros(n, dtype=bool)
        held[state.labelled_indices] = True
        for claim, value in pins.items():
            start[claim] = value
            held[claim] = True
        claim_subset = np.arange(n)[::-2] if subset else None

        pinned = GibbsSampler(model, seed=11, num_samples=6)
        # A warm second call must match too.
        rows = [pinned.sample(start, held, claim_subset) for _ in range(2)]
        labelled_state = state.copy()
        for claim, value in pins.items():
            labelled_state.label(claim, value)
        labelled = GibbsSampler(model, seed=11, num_samples=6)
        for row in rows:
            expected = draw(labelled, labelled_state, claim_subset)
            assert np.array_equal(row.marginals, expected.marginals)
            assert np.array_equal(
                row.mode_configuration, expected.mode_configuration
            )
            assert row.configuration_counts == expected.configuration_counts
        assert np.array_equal(pinned.state, labelled.state)
        assert rows[0].marginals[0] == 0.0 and rows[0].marginals[5] == 1.0


class TestDistributionalCorrectness:
    def test_strong_positive_field_pushes_marginal_up(self):
        """A claim with strong supporting evidence should sample credible."""
        model, state = make_model(coupling=0.0, bias=3.0)
        sampler = GibbsSampler(model, seed=1, burn_in=10, num_samples=50)
        result = draw(sampler, state)
        # c3 has a single supporting document: local field = +3.
        c3 = model.database.claim_position("c3")
        assert result.marginals[c3] > 0.8

    def test_zero_field_samples_near_half(self):
        model, state = make_model(coupling=0.0, bias=0.0)
        sampler = GibbsSampler(model, seed=1, burn_in=10, num_samples=200)
        result = draw(sampler, state)
        assert abs(result.marginals[0] - 0.5) < 0.15

    def test_matches_exact_conditional_on_chain_pair(self):
        """Empirical marginals track the exact enumeration distribution."""
        model, state = make_model(coupling=0.5, bias=1.0)
        # Exact marginals by enumerating all 8 configurations.
        configs = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
        log_potentials = np.asarray(
            [model.joint_log_potential(np.asarray(cfg, dtype=np.int8))
             for cfg in configs]
        )
        weights = np.exp(log_potentials - log_potentials.max())
        weights /= weights.sum()
        exact = np.zeros(3)
        for weight, cfg in zip(weights, configs):
            exact += weight * np.asarray(cfg)
        sampler = GibbsSampler(model, seed=3, burn_in=50, num_samples=600)
        result = draw(sampler, state)
        assert np.allclose(result.marginals, exact, atol=0.1)

    def test_label_propagates_through_coupling(self):
        """Labelling c1 credible should raise the marginal of c3 (same
        trustworthy source) relative to the unlabelled run."""
        model_a, state_a = make_model(coupling=1.5, bias=0.0)
        sampler_a = GibbsSampler(model_a, seed=5, burn_in=10, num_samples=100)
        base = draw(sampler_a, state_a).marginals

        model_b, state_b = make_model(coupling=1.5, bias=0.0)
        state_b.label(model_b.database.claim_position("c1"), 1)
        state_b.label(model_b.database.claim_position("c2"), 0)
        sampler_b = GibbsSampler(model_b, seed=5, burn_in=10, num_samples=100)
        labelled = draw(sampler_b, state_b).marginals

        c3 = model_b.database.claim_position("c3")
        assert labelled[c3] > base[c3] - 0.05
        assert labelled[c3] > 0.5
