"""Tests for the probabilistic fact database (§2.1, §3.2)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crf.entropy import source_trust_from_grounding
from repro.data.database import FactDatabase
from repro.data.entities import Claim, ClaimLink, Document, Source
from repro.data.grounding import Grounding
from repro.data.state import ClaimState
from repro.data.stance import Stance
from repro.errors import DataModelError
from repro.inference.icrf import ICrf

from tests.fixtures import build_micro_database, random_databases


class TestConstruction:
    def test_counts(self, micro_db):
        assert micro_db.num_sources == 2
        assert micro_db.num_documents == 4
        assert micro_db.num_claims == 3
        # One clique per (document, claim link): d1 has two links.
        assert micro_db.num_cliques == 5

    def test_duplicate_claim_ids_rejected(self):
        with pytest.raises(DataModelError, match="duplicate claim"):
            FactDatabase(
                sources=[Source("s1", features=[0.0])],
                documents=[],
                claims=[Claim("c1"), Claim("c1")],
            )

    def test_unknown_source_reference_rejected(self):
        with pytest.raises(DataModelError, match="unknown"):
            FactDatabase(
                sources=[Source("s1", features=[0.0])],
                documents=[
                    Document("d1", source_id="ghost", features=[0.0],
                             claim_links=(ClaimLink("c1"),))
                ],
                claims=[Claim("c1")],
            )

    def test_unknown_claim_reference_rejected(self):
        with pytest.raises(DataModelError, match="unknown"):
            FactDatabase(
                sources=[Source("s1", features=[0.0])],
                documents=[
                    Document("d1", source_id="s1", features=[0.0],
                             claim_links=(ClaimLink("ghost"),))
                ],
                claims=[Claim("c1")],
            )

    def test_no_claims_rejected(self):
        with pytest.raises(DataModelError):
            FactDatabase(sources=[], documents=[], claims=[])

    def test_inconsistent_feature_dims_rejected(self):
        with pytest.raises(DataModelError, match="dimensionality"):
            FactDatabase(
                sources=[
                    Source("s1", features=[0.0]),
                    Source("s2", features=[0.0, 1.0]),
                ],
                documents=[],
                claims=[Claim("c1")],
            )

    def test_prior_out_of_range_rejected(self):
        with pytest.raises(DataModelError):
            build_micro_database(prior=1.5)

    def test_strict_database_does_not_grow(self, micro_db):
        with pytest.raises(DataModelError, match="fixed"):
            micro_db.extend(claims=[Claim("c4")])
        assert micro_db.num_claims == 3
        assert not micro_db.clique_arrays()[0].flags.writeable

    def test_stance_signs_recorded(self, micro_db):
        signs = sorted(int(sign) for sign in micro_db.clique_arrays()[3])
        assert signs == [-1, -1, 1, 1, 1]


class TestIdentifierMapping:
    def test_claim_roundtrip(self, micro_db):
        for index in range(micro_db.num_claims):
            assert micro_db.claim_position(micro_db.claim_id(index)) == index

    def test_unknown_claim_raises(self, micro_db):
        with pytest.raises(DataModelError):
            micro_db.claim_position("ghost")

    def test_unknown_source_raises(self, micro_db):
        with pytest.raises(DataModelError):
            micro_db.source_position("ghost")

    def test_unknown_document_raises(self, micro_db):
        with pytest.raises(DataModelError):
            micro_db.document_position("ghost")


class TestAdjacency:
    def test_claims_of_source(self, micro_db):
        s1 = micro_db.source_position("s1")
        graph = micro_db.claim_source_graph()
        rows = graph.source_rows[graph.source_ptr[s1] : graph.source_ptr[s1 + 1]]
        claims = {micro_db.claim_id(int(i)) for i in graph.claim[rows]}
        assert claims == {"c1", "c2", "c3"}

    def test_sources_of_claim(self, micro_db):
        c1 = micro_db.claim_position("c1")
        graph = micro_db.claim_source_graph()
        rows = slice(graph.claim_ptr[c1], graph.claim_ptr[c1 + 1])
        sources = set(int(s) for s in graph.source[rows])
        assert sources == {
            micro_db.source_position("s1"),
            micro_db.source_position("s2"),
        }

    def test_cliques_of_claim_cover_all(self, micro_db):
        clique_claim = micro_db.clique_arrays()[0]
        total = sum(
            np.count_nonzero(clique_claim == c) for c in range(micro_db.num_claims)
        )
        assert total == micro_db.num_cliques

    def test_connected_components_single(self, micro_db):
        components = micro_db.connected_components()
        assert len(components) == 1
        assert sorted(int(c) for c in components[0]) == [0, 1, 2]

    def test_disconnected_claims_form_components(self):
        db = FactDatabase(
            sources=[Source("s1", features=[0.0]), Source("s2", features=[0.0])],
            documents=[
                Document("d1", source_id="s1", features=[0.0],
                         claim_links=(ClaimLink("c1"),)),
                Document("d2", source_id="s2", features=[0.0],
                         claim_links=(ClaimLink("c2"),)),
            ],
            claims=[Claim("c1"), Claim("c2"), Claim("c3")],
        )
        components = db.connected_components()
        sizes = sorted(len(c) for c in components)
        assert sizes == [1, 1, 1]

    def test_components_partition_claims(self, wiki_db_session):
        components = wiki_db_session.connected_components()
        seen = np.concatenate(components)
        assert sorted(seen.tolist()) == list(range(wiki_db_session.num_claims))


class TestClaimSourceGraph:
    def test_grown_graph_equals_fresh_build(self):
        sources = [Source("s1", features=[0.0]), Source("s2", features=[1.0])]
        documents = [
            # d1's link to c2 is parked until c2 arrives; it then lands
            # in front of d2's clique, in the middle of the arrays.
            Document("d1", source_id="s1", features=[0.0], claim_links=(
                ClaimLink("c1"), ClaimLink("c2", Stance.REFUTE),
            )),
            Document("d2", source_id="s2", features=[0.5], claim_links=(
                ClaimLink("c1", Stance.REFUTE),
            )),
            Document("d3", source_id="s1", features=[1.0], claim_links=(
                ClaimLink("c2"), ClaimLink("c1"),
            )),
        ]
        claims = [Claim("c1"), Claim("c2")]
        grown = FactDatabase(
            sources[:1], documents[:1], claims[:1], allow_pending_links=True
        )
        assert grown.claim_source_graph().claim.tolist() == [0]
        grown.extend(sources=sources[1:], documents=documents[1:2])
        assert grown.claim_source_graph().claim.tolist() == [0, 0]
        grown.extend(documents=documents[2:], claims=claims[1:])

        fresh = FactDatabase(sources, documents, claims)
        expected = vars(fresh.claim_source_graph())
        actual = vars(grown.claim_source_graph())
        assert expected.keys() == actual.keys()
        for name, array in expected.items():
            assert actual[name].dtype == array.dtype, name
            assert np.array_equal(actual[name], array), name
        assert expected["stance"].tolist() == [2.0, -1.0, 0.0]

    @settings(max_examples=40, deadline=None)
    @given(random_databases(), st.integers(0, 2**16))
    def test_components_and_trust_match_brute_force(self, database, seed):
        clique_claim, _, clique_source, _ = database.clique_arrays()
        claims_of = {s: set() for s in range(database.num_sources)}
        for claim, source in zip(clique_claim.tolist(), clique_source.tolist()):
            claims_of[source].add(claim)

        # Components: label every claim with the smallest claim it
        # reaches through shared sources.
        label = list(range(database.num_claims))
        changed = True
        while changed:
            changed = False
            for members in claims_of.values():
                low = min((label[c] for c in members), default=None)
                for claim in members:
                    if label[claim] != low:
                        label[claim], changed = low, True
        expected = [
            [c for c in range(database.num_claims) if label[c] == root]
            for root in sorted(set(label))
        ]
        components = database.connected_components()
        assert [members.tolist() for members in components] == expected

        values = np.random.default_rng(seed).integers(0, 2, database.num_claims)
        trust = source_trust_from_grounding(database, Grounding(values))
        for source, members in claims_of.items():
            expected_trust = (
                sum(int(values[c]) for c in members) / len(members)
                if members
                else 0.5
            )
            assert trust[source] == expected_trust


class TestProbabilisticState:
    @pytest.fixture
    def state(self, micro_db):
        return ClaimState.of(micro_db)

    def test_initial_probabilities_equal_prior(self):
        state = ClaimState.of(build_micro_database(prior=0.3))
        assert np.allclose(state.probabilities, 0.3)

    def test_probabilities_view_is_readonly(self, state):
        with pytest.raises(ValueError):
            state.probabilities[0] = 0.9

    def test_label_moves_claim_to_labelled(self, state):
        state.label(0, 1)
        assert state.is_labelled(0)
        assert 0 in state.labelled_indices
        assert 0 not in state.unlabelled_indices
        assert state.probability(0) == 1.0

    def test_relabel_allowed(self, state):
        state.label(0, 1)
        state.label(0, 0)
        assert state.label_of(0) == 0
        assert state.probability(0) == 0.0

    def test_unlabel_restores_prior(self, state):
        state.label(1, 0)
        state.unlabel(1)
        assert not state.is_labelled(1)
        assert state.probability(1) == state.prior

    def test_unlabel_of_unlabelled_is_noop(self, state):
        state.unlabel(2)
        assert state.label_of(2) is None

    def test_set_probabilities_respects_labels(self, state):
        state.label(0, 1)
        state.set_probabilities(np.asarray([0.1, 0.2, 0.3]))
        assert state.probability(0) == 1.0
        assert state.probability(1) == pytest.approx(0.2)

    def test_set_probabilities_validates_range(self, state):
        with pytest.raises(DataModelError):
            state.set_probabilities(np.asarray([0.1, 0.2, 1.3]))

    def test_set_probabilities_validates_shape(self, state):
        with pytest.raises(DataModelError):
            state.set_probabilities(np.asarray([0.1, 0.2]))

    def test_invalid_label_value_rejected(self, state):
        with pytest.raises(DataModelError):
            state.label(0, 2)

    def test_label_out_of_range_rejected(self, state):
        with pytest.raises(DataModelError):
            state.label(99, 1)

    def test_num_labelled_counts(self, state):
        state.label(0, 1)
        state.label(2, 0)
        assert state.num_labelled == 2
        assert state.unlabelled_indices.tolist() == [1]


class TestStateCopies:
    def test_copy_roundtrip(self, micro_db):
        state = ClaimState.of(micro_db)
        state.label(0, 1)
        saved = state.copy()
        state.label(1, 0)
        state.set_probabilities(np.asarray([1.0, 0.0, 0.9]))
        assert saved.labels == {0: 1}
        assert saved.probability(2) == pytest.approx(0.5)
        restored = ClaimState.from_dict(saved.to_dict(), prior=micro_db.prior)
        assert restored.labels == {0: 1}
        assert restored.probabilities.tolist() == saved.probabilities.tolist()

    def test_copy_is_independent(self, micro_db):
        state = ClaimState.of(micro_db)
        state.label(2, 1)
        twin = state.copy()
        twin.label(0, 0)
        twin.unlabel(2)
        twin.set_probabilities(np.asarray([0.9, 0.9, 0.9]))
        assert state.labels == {2: 1}
        assert state.probabilities.tolist() == [0.5, 0.5, 1.0]
        assert state.label_arrays()[0].tolist() == [2]
        assert twin.label_arrays()[0].tolist() == [0]

    def test_state_of_another_database_rejected(self, micro_db, wiki_db):
        icrf = ICrf(micro_db)
        with pytest.raises(DataModelError):
            icrf.state = ClaimState.of(wiki_db)
        with pytest.raises(DataModelError):
            ICrf(micro_db, state=ClaimState.of(wiki_db))


class TestTruthVector:
    def test_micro_truth(self, micro_db):
        assert micro_db.truth_vector().tolist() == [1, 0, 1]

    def test_missing_truth_raises(self):
        db = FactDatabase(
            sources=[Source("s1", features=[0.0])],
            documents=[],
            claims=[Claim("c1")],
        )
        with pytest.raises(DataModelError):
            db.truth_vector()
