"""Property-based tests of inference invariants on random corpora.

Hypothesis generates small random fact databases (random bipartite
structure, stances, features); the invariants under test are structural,
not statistical: probabilities stay in range, labels are respected by
every inference path, energy bookkeeping is exact, and snapshots restore
losslessly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import InferenceSpec
from repro.crf.gibbs import GibbsSampler
from repro.crf.model import CrfModel
from repro.crf.weights import CrfWeights
from repro.inference.icrf import ICrf
from tests.fixtures import random_databases


def random_weights(database, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    size = 2 + database.document_features.shape[1] + database.source_features.shape[1]
    return CrfWeights(scale * rng.normal(size=size))


class TestModelInvariants:
    @settings(max_examples=30, deadline=None)
    @given(random_databases(), st.integers(0, 1000))
    def test_conditional_equals_joint_gap(self, database, weight_seed):
        """For any structure and weights, the Gibbs conditional logit must
        equal the joint log-potential difference — the exactness property
        the sampler's correctness rests on."""
        model = CrfModel(database, weights=random_weights(database, weight_seed))
        rng = np.random.default_rng(weight_seed)
        config = rng.integers(0, 2, size=database.num_claims).astype(np.int8)
        claim = int(rng.integers(0, database.num_claims))
        up, down = config.copy(), config.copy()
        up[claim], down[claim] = 1, 0
        gap = model.joint_log_potential(up) - model.joint_log_potential(down)
        spins = 2.0 * config.astype(float) - 1.0
        stats = model.source_statistics(spins)
        logit = model.conditional_logit(claim, spins, stats)
        assert logit == pytest.approx(gap, abs=1e-8)

    @settings(max_examples=30, deadline=None)
    @given(random_databases())
    def test_trust_signals_zero_without_coupling(self, database):
        model = CrfModel(
            database,
            weights=random_weights(database, 1),
            coupling_enabled=False,
        )
        signals = model.trust_signals(np.full(database.num_claims, 0.7))
        assert np.allclose(signals, 0.0)

    @settings(max_examples=30, deadline=None)
    @given(random_databases())
    def test_components_partition_claims(self, database):
        components = database.connected_components()
        flattened = sorted(int(c) for comp in components for c in comp)
        assert flattened == list(range(database.num_claims))


class TestSamplerInvariants:
    @settings(max_examples=20, deadline=None)
    @given(random_databases(), st.integers(0, 100))
    def test_marginals_bounded_and_labels_pinned(self, database, seed):
        rng = np.random.default_rng(seed)
        label_count = int(rng.integers(0, database.num_claims))
        for claim in rng.choice(database.num_claims, size=label_count,
                                replace=False):
            database.label(int(claim), int(rng.integers(0, 2)))
        model = CrfModel(database, weights=random_weights(database, seed))
        sampler = GibbsSampler(model, burn_in=2, num_samples=5, seed=seed)
        result = sampler.sample()
        assert np.all((result.marginals >= 0) & (result.marginals <= 1))
        for claim, label in database.labels.items():
            assert result.marginals[claim] == float(label)
            assert result.mode_configuration[claim] == label

    @settings(max_examples=15, deadline=None)
    @given(random_databases(), st.integers(0, 100))
    def test_icrf_respects_labels_and_state_roundtrip(self, database, seed):
        icrf = ICrf(database, InferenceSpec(em_iterations=1, num_samples=5), seed=seed)
        snapshot = database.clone_state()
        result = icrf.infer()
        assert np.all((result.marginals >= 0) & (result.marginals <= 1))
        database.restore_state(snapshot)
        assert np.allclose(database.probabilities, snapshot.probabilities)

    @settings(max_examples=15, deadline=None)
    @given(random_databases())
    def test_grounding_respects_labels(self, database):
        rng = np.random.default_rng(0)
        claim = int(rng.integers(0, database.num_claims))
        value = int(rng.integers(0, 2))
        database.label(claim, value)
        icrf = ICrf(database, InferenceSpec(em_iterations=1, num_samples=5), seed=0)
        result = icrf.infer()
        assert result.grounding[claim] == value
