"""Tests for entropy estimators and the component index (§4.1, §5.1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.crf.entropy import (
    approximate_entropy,
    binary_entropy,
    component_entropy,
    exact_entropy,
    source_entropy,
    source_trust_from_grounding,
    unreliable_source_ratio,
)
from repro.crf.model import CrfModel
from repro.crf.partition import ComponentIndex
from repro.crf.weights import CrfWeights
from repro.data.grounding import Grounding
from repro.data.state import ClaimState
from repro.errors import InferenceError

from tests.fixtures import build_micro_database


class TestBinaryEntropy:
    def test_maximum_at_half(self):
        assert binary_entropy(np.asarray([0.5]))[0] == pytest.approx(np.log(2))

    def test_zero_at_extremes(self):
        values = binary_entropy(np.asarray([0.0, 1.0]))
        assert np.allclose(values, 0.0)

    def test_symmetry(self):
        p = np.linspace(0.01, 0.99, 25)
        assert np.allclose(binary_entropy(p), binary_entropy(1 - p))

    def test_clipping_out_of_range(self):
        # Defensive clipping: slightly out-of-range values do not produce NaN.
        values = binary_entropy(np.asarray([-1e-9, 1.0 + 1e-9]))
        assert np.all(np.isfinite(values))


class TestApproximateEntropy:
    def test_additivity(self):
        probs = np.asarray([0.3, 0.7, 0.5])
        assert approximate_entropy(probs) == pytest.approx(
            binary_entropy(probs).sum()
        )

    def test_all_certain_is_zero(self):
        assert approximate_entropy(np.asarray([0.0, 1.0, 1.0])) == 0.0

    def test_maximum_entropy(self):
        assert approximate_entropy(np.full(4, 0.5)) == pytest.approx(4 * np.log(2))


class TestExactEntropy:
    def make_model(self, coupling=0.0):
        db = build_micro_database()
        weights = CrfWeights.zeros(2, 2, coupling=coupling)
        return CrfModel(db, weights=weights), ClaimState.of(db)

    def test_uniform_model_matches_approximation(self):
        # With zero weights all configurations are equiprobable: exact
        # joint entropy = |C| log 2 = the approximation at p=0.5.
        model, state = self.make_model(coupling=0.0)
        exact = exact_entropy(model, state)
        assert exact == pytest.approx(3 * np.log(2), abs=1e-9)

    def test_coupled_model_has_lower_entropy(self):
        # Coupling concentrates mass on coherent configurations.
        model, state = self.make_model(coupling=1.0)
        assert exact_entropy(model, state) < 3 * np.log(2)

    def test_labelled_claims_are_clamped(self):
        model, state = self.make_model(coupling=0.0)
        state.label(0, 1)
        assert exact_entropy(model, state) == pytest.approx(2 * np.log(2), abs=1e-9)

    def test_component_entropy_empty(self):
        model, state = self.make_model()
        assert component_entropy(model, np.asarray([], dtype=np.intp), state.probabilities) == 0.0

    def test_component_entropy_cap(self):
        model, state = self.make_model()
        with pytest.raises(InferenceError):
            component_entropy(model, np.arange(25), state.probabilities)

    def test_invalid_max_component(self):
        model, state = self.make_model()
        with pytest.raises(InferenceError):
            exact_entropy(model, state, max_component=0)

    def test_fallback_to_approximation_for_large_components(self):
        model, state = self.make_model(coupling=0.0)
        # Force fallback by restricting enumeration to size 1 (the micro
        # corpus is one 3-claim component).
        value = exact_entropy(model, state, max_component=1)
        assert value == pytest.approx(approximate_entropy(state.probabilities))


class TestSourceEntropy:
    def test_trust_from_grounding(self, micro_db):
        grounding = Grounding([1, 0, 1])  # ground truth
        trust = source_trust_from_grounding(micro_db, grounding)
        s1 = micro_db.source_position("s1")
        s2 = micro_db.source_position("s2")
        # Eq. 17: fraction of the source's claims deemed credible.
        # s1 touches c1, c2, c3 -> (1 + 0 + 1)/3; s2 touches c1, c2 -> 1/2.
        assert trust[s1] == pytest.approx(2 / 3)
        assert trust[s2] == pytest.approx(1 / 2)

    def test_source_without_claims_gets_neutral_trust(self):
        from repro.data.database import FactDatabase
        from repro.data.entities import Claim, ClaimLink, Document, Source

        db = FactDatabase(
            sources=[Source("s1", features=[0.0]), Source("lurker", features=[0.0])],
            documents=[
                Document("d1", source_id="s1", features=[0.0],
                         claim_links=(ClaimLink("c1"),))
            ],
            claims=[Claim("c1")],
        )
        trust = source_trust_from_grounding(db, Grounding([1]))
        assert trust[db.source_position("lurker")] == 0.5

    def test_source_entropy_definition(self):
        trust = np.asarray([0.5, 1.0])
        assert source_entropy(trust) == pytest.approx(np.log(2))

    def test_unreliable_ratio(self):
        assert unreliable_source_ratio(np.asarray([0.2, 0.7, 0.4])) == pytest.approx(
            2 / 3
        )

    def test_unreliable_ratio_excludes_exact_half(self):
        assert unreliable_source_ratio(np.asarray([0.5, 0.5])) == 0.0

    def test_unreliable_ratio_empty(self):
        assert unreliable_source_ratio(np.asarray([])) == 0.0


class TestComponentIndex:
    def test_micro_single_component(self, micro_db):
        index = ComponentIndex(micro_db)
        assert index.num_components == 1
        assert index.component_of(0) == index.component_of(2)

    def test_component_of_claim_includes_self(self, micro_db):
        index = ComponentIndex(micro_db)
        members = index.component_of_claim(1)
        assert 1 in members.tolist()

    def test_sizes_sum_to_claims(self, wiki_db_session):
        index = ComponentIndex(wiki_db_session)
        assert index.sizes().sum() == wiki_db_session.num_claims

    def test_largest(self, wiki_db_session):
        index = ComponentIndex(wiki_db_session)
        assert index.largest().size == index.sizes().max()

    def test_members_returns_copy(self, micro_db):
        index = ComponentIndex(micro_db)
        members = index.members_of(0)
        members[0] = 99
        assert 99 not in index.members_of(0)
