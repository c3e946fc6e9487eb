"""Tests for streaming fact checking (§7): stream, schedule, online EM."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import SessionSpec
from repro.datasets import load_dataset
from repro.errors import StreamingError
from repro.streaming.process import StreamingFactChecker
from repro.streaming.schedule import RobbinsMonroSchedule
from repro.streaming.stream import stream_from_database

from tests.fixtures import REJECTION_CASES, rejected_arrivals
from tests.stream_rebuild_oracle import RebuildingFactChecker

#: Spec of a checker that parks labels for claims yet to arrive.
PENDING = SessionSpec(stream={"allow_pending_labels": True})


class TestSchedule:
    def test_first_step_is_scale_capped(self):
        assert RobbinsMonroSchedule(beta=0.7, scale=1.0).step_size(1) == 1.0
        assert RobbinsMonroSchedule(beta=0.7, scale=2.0).step_size(1) == 1.0

    def test_decreasing(self):
        schedule = RobbinsMonroSchedule(beta=0.7)
        steps = [schedule.step_size(t) for t in range(1, 20)]
        assert steps == sorted(steps, reverse=True)

    def test_robbins_monro_beta_bounds(self):
        with pytest.raises(StreamingError):
            RobbinsMonroSchedule(beta=0.5)
        with pytest.raises(StreamingError):
            RobbinsMonroSchedule(beta=1.1)

    def test_invalid_scale(self):
        with pytest.raises(StreamingError):
            RobbinsMonroSchedule(scale=0.0)

    def test_invalid_t(self):
        with pytest.raises(StreamingError):
            RobbinsMonroSchedule().step_size(0)

    def test_closed_form(self):
        schedule = RobbinsMonroSchedule(beta=0.8, scale=0.5)
        assert schedule.step_size(16) == pytest.approx(0.5 / 16**0.8)


class TestStream:
    def test_every_claim_arrives_exactly_once(self, micro_db):
        arrivals = list(stream_from_database(micro_db))
        claim_ids = [a.claim.claim_id for a in arrivals if a.claim is not None]
        assert sorted(claim_ids) == ["c1", "c2", "c3"]

    def test_documents_delivered_once(self, micro_db):
        arrivals = list(stream_from_database(micro_db))
        doc_ids = [d.document_id for a in arrivals for d in a.documents]
        assert sorted(doc_ids) == ["d1", "d2", "d3", "d4"]

    def test_sources_delivered_before_their_documents(self, micro_db):
        seen_sources = set()
        for arrival in stream_from_database(micro_db):
            for source in arrival.sources:
                seen_sources.add(source.source_id)
            for document in arrival.documents:
                assert document.source_id in seen_sources

    def test_posting_order(self, micro_db):
        arrivals = list(stream_from_database(micro_db))
        # d1 references c1 and c2 -> both arrive before c3 (first in d2).
        order = [a.claim.claim_id for a in arrivals if a.claim is not None]
        assert order.index("c1") < order.index("c3")
        assert order.index("c2") < order.index("c3")

    def test_orphan_claims_emitted_last(self):
        from repro.data.database import FactDatabase
        from repro.data.entities import Claim, ClaimLink, Document, Source

        db = FactDatabase(
            sources=[Source("s1", features=[0.0])],
            documents=[
                Document("d1", source_id="s1", features=[0.0],
                         claim_links=(ClaimLink("c1"),))
            ],
            claims=[Claim("c1"), Claim("orphan")],
        )
        arrivals = list(stream_from_database(db))
        assert arrivals[-1].claim.claim_id == "orphan"
        assert arrivals[-1].documents == []

    def test_wiki_stream_covers_corpus(self):
        db = load_dataset("wiki", seed=42, scale=0.1)
        arrivals = list(stream_from_database(db))
        claims = sum(1 for a in arrivals if a.claim is not None)
        assert claims == db.num_claims
        docs = sum(len(a.documents) for a in arrivals)
        assert docs == db.num_documents

    def test_trailing_evidence_event_delivers_backlog(self, micro_db):
        arrivals = list(stream_from_database(micro_db))
        trailing = [a for a in arrivals if a.claim is None]
        # d3/d4 only reference already-arrived claims -> one trailing event.
        assert len(trailing) == 1
        delivered = {d.document_id for d in trailing[0].documents}
        assert delivered == {"d3", "d4"}


class TestStreamingFactChecker:
    def test_observe_grows_entities(self, micro_db):
        checker = StreamingFactChecker(seed=0)
        updates = [checker.observe(a) for a in stream_from_database(micro_db)]
        final = updates[-1]
        assert final.num_claims == 3
        assert final.num_documents == 4
        assert final.num_sources == 2

    def test_database_before_arrivals_raises(self):
        with pytest.raises(StreamingError):
            StreamingFactChecker(seed=0).database

    def test_step_sizes_follow_schedule(self, micro_db):
        schedule = RobbinsMonroSchedule(beta=0.8, scale=0.5)
        spec = SessionSpec(stream={"schedule_beta": 0.8, "schedule_scale": 0.5})
        checker = StreamingFactChecker(spec, seed=0)
        updates = [checker.observe(a) for a in stream_from_database(micro_db)]
        for update in updates:
            assert update.step_size == pytest.approx(
                schedule.step_size(update.arrival_index)
            )

    def test_duplicate_arrival_rejected(self, micro_db):
        checker = StreamingFactChecker(seed=0)
        arrivals = list(stream_from_database(micro_db))
        checker.observe(arrivals[0])
        with pytest.raises(StreamingError):
            checker.observe(arrivals[0])

    def test_probabilities_carried_across_arrivals(self, micro_db):
        checker = StreamingFactChecker(seed=0)
        arrivals = list(stream_from_database(micro_db))
        checker.observe(arrivals[0])
        first_claim = arrivals[0].claim.claim_id
        db = checker.database
        p_before = checker.state.probability(db.claim_position(first_claim))
        checker.observe(arrivals[1])
        db = checker.database
        p_after = checker.state.probability(db.claim_position(first_claim))
        # Not reset to the prior: the previous estimate was reused as the
        # starting point (it may move a little through new inference).
        assert abs(p_after - p_before) < 0.45

    def test_labels_survive_rebuilds(self, micro_db):
        checker = StreamingFactChecker(seed=0)
        arrivals = list(stream_from_database(micro_db))
        checker.observe(arrivals[0])
        claim_id = arrivals[0].claim.claim_id
        checker.record_label(claim_id, 1)
        for arrival in arrivals[1:]:
            checker.observe(arrival)
        db = checker.database
        assert checker.state.label_of(db.claim_position(claim_id)) == 1

    def test_invalid_label_rejected(self, micro_db):
        checker = StreamingFactChecker(seed=0)
        with pytest.raises(StreamingError):
            checker.record_label("c1", 5)

    def test_weights_exchange(self, micro_db):
        checker = StreamingFactChecker(seed=0)
        arrivals = list(stream_from_database(micro_db))
        checker.observe(arrivals[0])
        weights = checker.weights
        assert weights is not None
        weights.values[:] = 0.1
        checker.receive_weights(weights)
        assert np.allclose(checker.weights.values, 0.1)

    def test_full_replay_tracks_offline_inference(self):
        """Online EM over the whole stream must approximate the offline
        model: streaming marginals correlate with iCRF marginals on the
        same corpus, and precision lands in the same band."""
        from repro.inference import ICrf

        db = load_dataset("wiki", seed=42, scale=0.2)
        checker = StreamingFactChecker(seed=0)
        for arrival in stream_from_database(db):
            checker.observe(arrival)
        snapshot = checker.database

        reference = load_dataset("wiki", seed=42, scale=0.2)
        icrf = ICrf(reference, seed=0)
        offline_precision = icrf.infer().grounding.precision(
            reference.truth_vector()
        )

        streaming_by_id = {
            claim.claim_id: float(checker.state.probabilities[index])
            for index, claim in enumerate(snapshot.claims)
        }
        offline_by_id = {
            reference.claim_id(index): float(icrf.state.probabilities[index])
            for index in range(reference.num_claims)
        }
        ids = sorted(streaming_by_id)
        correlation = np.corrcoef(
            [streaming_by_id[i] for i in ids],
            [offline_by_id[i] for i in ids],
        )[0, 1]
        assert correlation > 0.3

        truth_by_id = {c.claim_id: int(bool(c.truth)) for c in db.claims}
        predictions = (np.asarray(checker.state.probabilities) >= 0.5).astype(int)
        hits = sum(
            1
            for index, claim in enumerate(snapshot.claims)
            if predictions[index] == truth_by_id[claim.claim_id]
        )
        assert hits / len(truth_by_id) >= offline_precision - 0.25

    def test_update_is_linear_time_shape(self):
        """Per-arrival update time must not explode over the stream."""
        db = load_dataset("wiki", seed=42, scale=0.1)
        checker = StreamingFactChecker(seed=0)
        times = [
            checker.observe(arrival).elapsed_seconds
            for arrival in stream_from_database(db)
        ]
        first_half = np.mean(times[: len(times) // 2])
        second_half = np.mean(times[len(times) // 2 :])
        # Quadratic blow-up would give ratios far above this bound.
        assert second_half < max(first_half * 25, 0.05)


class TestRejectedArrivals:
    """A rejected arrival leaves the checker as if it never came."""

    @pytest.mark.parametrize("case", REJECTION_CASES)
    def test_rejection_leaves_checker_unchanged(self, micro_db, case):
        arrivals = list(stream_from_database(micro_db))
        position, bad = rejected_arrivals(arrivals)[case]
        checker = StreamingFactChecker(seed=3)
        clean = StreamingFactChecker(seed=3)
        for arrival in arrivals[:position]:
            checker.observe(arrival)
            clean.observe(arrival)
        with pytest.raises(StreamingError):
            checker.observe(bad)
        assert checker.arrivals == position
        for arrival in arrivals[position:]:
            assert np.array_equal(
                checker.observe(arrival).weights.values,
                clean.observe(arrival).weights.values,
            )
        assert checker.state_dict() == clean.state_dict()
        assert checker.entities == clean.entities


class TestIncrementalGrowth:
    """In-place growth against the rebuild-per-arrival oracle.

    :class:`~tests.stream_rebuild_oracle.RebuildingFactChecker` keeps the
    historical rebuild-everything path as a reference implementation; the
    in-place growth must match it bit for bit at every arrival — including
    across mid-stream labels and parameter exchanges — on the Python walk
    and the scalar oracle.
    """

    @pytest.mark.parametrize("engine", ("numpy", "reference"), indirect=True)
    def test_micro_stream_matches_rebuild_bit_for_bit(self, engine, micro_db):
        arrivals = list(stream_from_database(micro_db))
        grown = StreamingFactChecker(seed=3)
        rebuilt = RebuildingFactChecker(seed=3)
        for index, arrival in enumerate(arrivals):
            a = grown.observe(arrival)
            b = rebuilt.observe(arrival)
            assert np.array_equal(a.weights.values, b.weights.values)
            assert np.array_equal(
                np.asarray(grown.state.probabilities),
                np.asarray(rebuilt.state.probabilities),
            )
            for left, right in zip(
                grown.database.clique_arrays(), rebuilt.database.clique_arrays()
            ):
                assert np.array_equal(left, right)
            if index == 0:
                # Mid-stream interventions must not break the equivalence.
                claim_id = arrival.claim.claim_id
                grown.record_label(claim_id, 1)
                rebuilt.record_label(claim_id, 1)
                exchanged = grown.weights
                exchanged.values[:] = 0.05
                grown.receive_weights(exchanged)
                rebuilt.receive_weights(exchanged)

    @pytest.mark.parametrize("engine", ("numpy", "reference"), indirect=True)
    def test_wiki_stream_matches_rebuild_bit_for_bit(self, engine):
        db = load_dataset("wiki", seed=42, scale=0.15)
        arrivals = list(stream_from_database(db))
        grown = StreamingFactChecker(seed=3)
        rebuilt = RebuildingFactChecker(seed=3)
        for arrival in arrivals:
            a = grown.observe(arrival)
            b = rebuilt.observe(arrival)
            assert np.array_equal(a.weights.values, b.weights.values)
        assert np.array_equal(
            np.asarray(grown.state.probabilities),
            np.asarray(rebuilt.state.probabilities),
        )


class TestDocumentlessSources:
    """Sources that never published a document still reach the stream."""

    @staticmethod
    def _corpus_with_lonely_source():
        from repro.data.database import FactDatabase
        from repro.data.entities import Claim, ClaimLink, Document, Source

        return FactDatabase(
            sources=[
                Source("s1", features=[1.0]),
                Source("lurker", features=[-1.0]),
            ],
            documents=[
                Document(
                    "d1",
                    source_id="s1",
                    features=[0.5],
                    claim_links=(ClaimLink("c1"),),
                )
            ],
            claims=[Claim("c1", text="one", truth=True)],
        )

    def test_lonely_source_delivered_with_trailing_event(self):
        arrivals = list(stream_from_database(self._corpus_with_lonely_source()))
        delivered = [s.source_id for a in arrivals for s in a.sources]
        assert sorted(delivered) == ["lurker", "s1"]
        trailing = arrivals[-1]
        assert trailing.claim is None
        assert [s.source_id for s in trailing.sources] == ["lurker"]

    def test_stream_end_state_matches_batch_corpus(self):
        corpus = self._corpus_with_lonely_source()
        checker = StreamingFactChecker(seed=0)
        for arrival in stream_from_database(corpus):
            checker.observe(arrival)
        snapshot = checker.database
        assert {s.source_id for s in snapshot.sources} == {
            s.source_id for s in corpus.sources
        }
        assert {d.document_id for d in snapshot.documents} == {
            d.document_id for d in corpus.documents
        }
        assert {c.claim_id for c in snapshot.claims} == {
            c.claim_id for c in corpus.claims
        }


class TestPendingLabels:
    """record_label on claims that have not arrived yet."""

    def test_unknown_claim_rejected_by_default(self, micro_db):
        checker = StreamingFactChecker(seed=0)
        arrivals = list(stream_from_database(micro_db))
        checker.observe(arrivals[0])
        with pytest.raises(StreamingError, match="has not arrived") as excinfo:
            checker.record_label("no-such-claim", 1)
        assert "stream.allow_pending_labels" in str(excinfo.value)

    def test_pending_label_parked_then_promoted(self, micro_db):
        checker = StreamingFactChecker(PENDING, seed=0)
        arrivals = list(stream_from_database(micro_db))
        future = [a.claim.claim_id for a in arrivals if a.claim is not None][-1]
        checker.record_label(future, 1)
        assert checker.pending_labels == {future: 1}
        for arrival in arrivals:
            checker.observe(arrival)
        assert checker.pending_labels == {}
        db = checker.database
        assert checker.state.label_of(db.claim_position(future)) == 1
        assert checker.state.probability(db.claim_position(future)) == 1.0

    def test_pending_labels_survive_state_roundtrip(self, micro_db):
        checker = StreamingFactChecker(PENDING, seed=0)
        arrivals = list(stream_from_database(micro_db))
        checker.observe(arrivals[0])
        future = [a.claim.claim_id for a in arrivals if a.claim is not None][-1]
        checker.record_label(future, 0)
        clone = StreamingFactChecker(PENDING, seed=0)
        clone.load_state_dict(checker.state_dict(), checker.entities)
        assert clone.pending_labels == {future: 0}
        for arrival in arrivals[1:]:
            clone.observe(arrival)
        assert clone.pending_labels == {}
        db = clone.database
        assert clone.state.label_of(db.claim_position(future)) == 0
