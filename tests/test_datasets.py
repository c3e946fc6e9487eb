"""Tests for the dataset substrate (§8.1): profiles, generator, features, IO."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.data.stance import Stance
from repro.data.state import ClaimState
from repro.datasets import (
    HEALTHCARE,
    SNOPES,
    WIKIPEDIA,
    DatasetProfile,
    SourceKind,
    database_from_dict,
    database_to_dict,
    generate_dataset,
    get_profile,
    load_database,
    load_dataset,
    save_database,
)
from repro.datasets.textfeatures import (
    DOCUMENT_FEATURE_NAMES,
    FORUM_USER_FEATURE_NAMES,
    document_features,
    forum_user_features,
)
from repro.datasets.webgraph import (
    WEBSITE_FEATURE_NAMES,
    build_hyperlink_graph,
    website_features,
)
from repro.errors import DatasetError


class TestProfiles:
    def test_published_counts(self):
        assert (WIKIPEDIA.num_sources, WIKIPEDIA.num_documents,
                WIKIPEDIA.num_claims) == (1955, 3228, 157)
        assert (HEALTHCARE.num_sources, HEALTHCARE.num_documents,
                HEALTHCARE.num_claims) == (11206, 48083, 529)
        assert (SNOPES.num_sources, SNOPES.num_documents,
                SNOPES.num_claims) == (23260, 80421, 4856)

    def test_get_profile_by_name(self):
        assert get_profile("wiki") is WIKIPEDIA
        assert get_profile("health") is HEALTHCARE
        assert get_profile("snopes") is SNOPES

    def test_get_profile_unknown(self):
        with pytest.raises(DatasetError, match="unknown dataset"):
            get_profile("nope")

    def test_scaled_counts(self):
        scaled = SNOPES.scaled(0.01)
        assert scaled.num_claims == round(4856 * 0.01)
        assert scaled.num_sources == round(23260 * 0.01)

    def test_scaled_respects_minimums(self):
        scaled = WIKIPEDIA.scaled(1e-6)
        assert scaled.num_claims >= 4
        assert scaled.num_documents >= 6
        assert scaled.num_sources >= 3

    def test_scaled_invalid(self):
        with pytest.raises(DatasetError):
            WIKIPEDIA.scaled(0.0)

    def test_invalid_credible_ratio(self):
        with pytest.raises(DatasetError):
            DatasetProfile(
                name="x", num_sources=10, num_documents=10, num_claims=10,
                credible_ratio=1.0, untrustworthy_ratio=0.1,
                source_kind=SourceKind.WEBSITE,
            )

    def test_source_kinds(self):
        assert WIKIPEDIA.source_kind is SourceKind.WEBSITE
        assert HEALTHCARE.source_kind is SourceKind.FORUM_USER


class TestGenerator:
    @pytest.fixture(scope="class")
    def generated(self):
        return generate_dataset(WIKIPEDIA, seed=11, scale=0.1)

    def test_counts_match_scaled_profile(self, generated):
        profile = WIKIPEDIA.scaled(0.1)
        assert generated.num_sources == profile.num_sources
        assert generated.num_documents == profile.num_documents
        assert generated.num_claims == profile.num_claims

    def test_every_claim_has_truth(self, generated):
        truth = generated.truth_vector()
        assert truth.shape == (generated.num_claims,)

    def test_credible_ratio_approximate(self, generated):
        truth = generated.truth_vector()
        ratio = truth.mean()
        assert abs(ratio - WIKIPEDIA.credible_ratio) < 0.1

    def test_deterministic_given_seed(self):
        a = generate_dataset(WIKIPEDIA, seed=3, scale=0.05)
        b = generate_dataset(WIKIPEDIA, seed=3, scale=0.05)
        assert np.array_equal(a.truth_vector(), b.truth_vector())
        assert np.allclose(a.source_features, b.source_features)
        assert [d.claim_ids for d in a.documents] == [
            d.claim_ids for d in b.documents
        ]

    def test_seeds_differ(self):
        a = generate_dataset(WIKIPEDIA, seed=3, scale=0.05)
        b = generate_dataset(WIKIPEDIA, seed=4, scale=0.05)
        assert not np.allclose(a.source_features, b.source_features)

    def test_reliable_sources_mostly_support_truth(self):
        db = generate_dataset(WIKIPEDIA, seed=5, scale=0.2)
        truth = db.truth_vector()
        aligned = 0
        total = 0
        clique_claim, _, clique_source, signs = db.clique_arrays()
        for claim, source_index, sign in zip(clique_claim, clique_source, signs):
            source = db.sources[source_index]
            if source.metadata["reliability"] < 0.8:
                continue
            spin = 1 if truth[claim] else -1
            total += 1
            if sign * spin > 0:
                aligned += 1
        assert total > 0
        assert aligned / total > 0.7

    def test_every_document_has_links(self, generated):
        assert all(len(d.claim_links) >= 1 for d in generated.documents)

    def test_prior_propagates(self):
        db = generate_dataset(WIKIPEDIA, seed=3, scale=0.05, prior=0.4)
        assert np.allclose(ClaimState.of(db).probabilities, 0.4)

    def test_load_dataset_shortcut(self):
        db = load_dataset("wiki", seed=3, scale=0.05)
        assert db.num_claims == WIKIPEDIA.scaled(0.05).num_claims

    def test_forum_user_dataset_generates(self):
        db = load_dataset("health", seed=3, scale=0.01)
        assert db.num_claims == HEALTHCARE.scaled(0.01).num_claims
        assert db.source_features.shape[1] == len(FORUM_USER_FEATURE_NAMES)

    def test_website_dataset_feature_width(self, generated):
        assert generated.source_features.shape[1] == len(WEBSITE_FEATURE_NAMES)
        assert generated.document_features.shape[1] == len(DOCUMENT_FEATURE_NAMES)


class TestWebGraph:
    def test_graph_nodes_match_sources(self):
        graph = build_hyperlink_graph(np.asarray([0.9, 0.1, 0.5]), seed=1)
        assert set(graph.nodes) == {0, 1, 2}

    def test_no_self_links(self):
        reliability = np.linspace(0.1, 0.9, 20)
        graph = build_hyperlink_graph(reliability, seed=1)
        assert all(u != v for u, v in graph.edges)

    def test_reliable_nodes_attract_links(self):
        rng = np.random.default_rng(0)
        reliability = np.concatenate([np.full(30, 0.95), np.full(30, 0.05)])
        graph = build_hyperlink_graph(reliability, seed=rng,
                                      reliability_bias=5.0)
        reliable_in = np.mean([graph.in_degree(n) for n in range(30)])
        unreliable_in = np.mean([graph.in_degree(n) for n in range(30, 60)])
        assert reliable_in > unreliable_in

    def test_features_shape(self):
        features = website_features(np.asarray([0.9, 0.1, 0.5, 0.7]), seed=1)
        assert features.shape == (4, len(WEBSITE_FEATURE_NAMES))

    def test_features_standardised(self):
        features = website_features(np.linspace(0.05, 0.95, 50), seed=1)
        assert np.allclose(features.mean(axis=0), 0.0, atol=1e-9)

    def test_empty_input(self):
        assert website_features(np.asarray([])).shape == (0, 5)

    def test_single_node_graph(self):
        graph = build_hyperlink_graph(np.asarray([0.5]), seed=1)
        assert graph.number_of_edges() == 0


class TestTextFeatures:
    def test_document_feature_shape(self):
        features = document_features(np.linspace(0, 1, 10), seed=1)
        assert features.shape == (10, len(DOCUMENT_FEATURE_NAMES))

    def test_quality_correlates_with_objectivity(self):
        quality = np.linspace(0.0, 1.0, 400)
        features = document_features(quality, seed=1, noise_scale=0.1)
        objectivity = features[:, DOCUMENT_FEATURE_NAMES.index("objectivity")]
        assert np.corrcoef(quality, objectivity)[0, 1] > 0.5

    def test_sentiment_anticorrelates_with_quality(self):
        quality = np.linspace(0.0, 1.0, 400)
        features = document_features(quality, seed=1, noise_scale=0.1)
        sentiment = features[
            :, DOCUMENT_FEATURE_NAMES.index("sentiment_extremity")
        ]
        assert np.corrcoef(quality, sentiment)[0, 1] < -0.5

    def test_forum_features_shape(self):
        features = forum_user_features(
            np.asarray([0.2, 0.8]), np.asarray([3, 10]), seed=1
        )
        assert features.shape == (2, len(FORUM_USER_FEATURE_NAMES))

    def test_forum_features_misaligned_inputs(self):
        with pytest.raises(ValueError):
            forum_user_features(np.asarray([0.2]), np.asarray([3, 10]))

    def test_empty_documents(self):
        assert document_features(np.asarray([])).shape == (0, 6)


class TestIO:
    def test_roundtrip_preserves_structure(self, tmp_path):
        db = load_dataset("wiki", seed=9, scale=0.05)
        path = tmp_path / "db.json"
        save_database(db, path)
        loaded = load_database(path)
        assert loaded.num_sources == db.num_sources
        assert loaded.num_documents == db.num_documents
        assert loaded.num_claims == db.num_claims
        assert np.allclose(loaded.source_features, db.source_features)
        assert np.array_equal(loaded.truth_vector(), db.truth_vector())

    def test_roundtrip_preserves_stances(self, micro_db, tmp_path):
        path = tmp_path / "micro.json"
        save_database(micro_db, path)
        loaded = load_database(path)
        def stances(db):
            claim, _, _, signs = db.clique_arrays()
            return list(zip(claim.tolist(), signs.tolist()))

        original = stances(micro_db)
        restored = stances(loaded)
        assert original == restored

    def test_dict_roundtrip(self, micro_db):
        payload = database_to_dict(micro_db)
        loaded = database_from_dict(payload)
        assert loaded.num_claims == micro_db.num_claims

    def test_bad_version_rejected(self, micro_db):
        payload = database_to_dict(micro_db)
        payload["version"] = 99
        with pytest.raises(DatasetError, match="version"):
            database_from_dict(payload)

    def test_malformed_payload_rejected(self):
        with pytest.raises(DatasetError):
            database_from_dict({"version": 1, "sources": [{}], "documents": [],
                                "claims": []})

    def test_state_not_serialised(self, micro_db, tmp_path):
        path = tmp_path / "micro.json"
        save_database(micro_db, path)
        payload = json.loads(path.read_text())
        assert not {"probabilities", "labels"} & set(payload)
        loaded = load_database(path)
        assert ClaimState.of(loaded).probabilities.tolist() == [micro_db.prior] * 3

    def test_stance_enum_roundtrip(self, micro_db):
        payload = database_to_dict(micro_db)
        doc = payload["documents"][0]
        stances = {link["stance"] for link in doc["claims"]}
        assert stances <= {Stance.SUPPORT.name, Stance.REFUTE.name}
