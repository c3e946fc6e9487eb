"""Tests for the unified session façade (repro.api.session)."""

from __future__ import annotations

import pytest

from repro.api import FactCheckSession, SessionResult, SessionSpec
from repro.errors import SessionError
from repro.streaming import stream_from_database
from repro.validation.oracle import User

from tests.fixtures import build_micro_database


def micro_spec(**overrides) -> SessionSpec:
    base = dict(
        seed=3,
        guidance={"strategy": "info", "candidate_limit": 5},
        effort={"goal": {"kind": "true_precision", "threshold": 1.0}},
    )
    base.update(overrides)
    return SessionSpec(**base)


class TestLifecycle:
    def test_open_initializes_batch_trace(self, micro_db):
        session = FactCheckSession(micro_spec(), database=micro_db).open()
        trace = session.trace
        assert trace.iterations == 0
        assert trace.initial_precision is not None
        assert session.status == "open"

    def test_methods_require_open(self, micro_db):
        session = FactCheckSession(micro_spec(), database=micro_db)
        with pytest.raises(SessionError):
            session.step()
        with pytest.raises(SessionError):
            session.trace

    def test_close_returns_result_and_freezes(self, micro_db):
        session = FactCheckSession(micro_spec(), database=micro_db).open()
        result = session.close()
        assert isinstance(result, SessionResult)
        assert session.status == "closed"
        assert session.close() is result  # idempotent
        with pytest.raises(SessionError):
            session.step()

    def test_context_manager_closes(self, micro_db):
        with FactCheckSession(micro_spec(), database=micro_db) as session:
            session.step()
        assert session.status == "closed"

    def test_mode_guards(self, micro_db):
        batch = FactCheckSession(micro_spec(), database=micro_db).open()
        with pytest.raises(SessionError):
            batch.observe(None)
        with pytest.raises(SessionError):
            batch.validate()
        streaming = FactCheckSession(micro_spec(mode="streaming")).open()
        with pytest.raises(SessionError):
            streaming.step()

    def test_spec_dataset_materialises_corpus(self):
        spec = micro_spec(
            dataset={"name": "wiki", "seed": 42, "scale": 0.1},
            effort={"budget": 2},
        )
        with FactCheckSession(spec) as session:
            assert session.database.num_claims > 0


class TestBatchRun:
    def test_run_reaches_goal_with_stop_reason(self, micro_db):
        spec = micro_spec()
        result = FactCheckSession(spec, database=micro_db).run()
        assert result.mode == "batch"
        assert result.stop_reason in ("goal", "exhausted")
        assert result.trace.stop_reason == result.stop_reason
        assert result.trace.final_grounding is not None
        # Claims are reported by their stable identifiers.
        claim_ids = {c.claim_id for c in micro_db.claims}
        assert set(result.validated_claim_ids) <= claim_ids

    def test_run_respects_budget(self, micro_db):
        spec = micro_spec(effort={"budget": 1, "goal": {"kind": "none"}})
        result = FactCheckSession(spec, database=micro_db).run()
        assert result.stop_reason == "budget"
        assert result.num_labelled == 1

    def test_run_max_iterations(self, micro_db):
        spec = micro_spec(effort={"goal": {"kind": "none"}})
        result = FactCheckSession(spec, database=micro_db).run(max_iterations=1)
        assert result.stop_reason == "max_iterations"
        assert result.trace.iterations == 1

    def test_advance_slices_the_run_and_keeps_the_session_open(self, micro_db):
        spec = micro_spec(effort={"budget": 2, "goal": {"kind": "none"}})
        golden = FactCheckSession(spec, database=micro_db).run()
        session = FactCheckSession(spec, database=build_micro_database()).open()
        first = session.advance(1)
        assert len(first) == 1
        assert session.trace.stop_reason == "unfinished"
        rest = session.advance(5)  # the budget stops it after one more
        assert session.status == "open"
        assert session.progress() == {
            "num_claims": micro_db.num_claims,
            "num_labelled": 2,
            "iterations": 2,
        }
        assert session.close().stop_reason == golden.stop_reason == "budget"
        assert [r.claim_ids for r in first + rest] == [
            r.claim_ids for r in golden.trace.records
        ]

    def test_advance_needs_a_positive_count_and_a_stream_source(self, micro_db):
        session = FactCheckSession(micro_spec(), database=micro_db).open()
        with pytest.raises(SessionError, match="at least 1"):
            session.advance(0)
        stream = FactCheckSession(streaming_spec()).open()
        with pytest.raises(SessionError, match="spec.stream.source"):
            stream.advance(1)

    def test_run_exhausts_database(self, micro_db):
        spec = micro_spec(effort={"goal": {"kind": "none"}})
        result = FactCheckSession(spec, database=micro_db).run()
        assert result.stop_reason == "exhausted"
        assert result.num_labelled == micro_db.num_claims

    def test_on_iteration_callback_sees_every_record(self, micro_db):
        seen = []
        spec = micro_spec(effort={"goal": {"kind": "none"}})
        result = FactCheckSession(spec, database=micro_db).run(
            on_iteration=seen.append
        )
        assert len(seen) == result.trace.iterations
        assert all(record.claim_ids for record in seen)

    def test_early_termination_reason_recorded(self, micro_db):
        spec = micro_spec(
            effort={
                "goal": {"kind": "none"},
                "termination": [
                    {"kind": "cng", "params": {"patience": 1,
                                               "max_changes": 3}}
                ],
            }
        )
        result = FactCheckSession(spec, database=micro_db).run()
        assert result.stop_reason == "cng"

    def test_record_label_accepts_id_and_index(self, micro_db):
        session = FactCheckSession(micro_spec(), database=micro_db).open()
        session.record_label("c1", 1)
        session.record_label(1, 0)
        assert session.state.label_of(0) == 1
        assert session.state.label_of(1) == 0
        assert session.claim_index("c3") == 2
        assert session.claim_id(2) == "c3"

    def test_external_labels_reported_and_checkpointed(self, micro_db, tmp_path):
        session = FactCheckSession(micro_spec(), database=micro_db).open()
        session.record_label("c1", 1)
        path = tmp_path / "ckpt.json"
        session.save(path)
        resumed = FactCheckSession.load(path)
        assert session.close().validated_claim_ids == ["c1"]
        assert resumed.result().validated_claim_ids == ["c1"]


def streaming_spec(**overrides) -> SessionSpec:
    return micro_spec(
        mode="streaming", effort={"goal": {"kind": "none"}}, **overrides
    )


class TestStreaming:
    def test_observe_and_validate(self, micro_db):
        spec = streaming_spec()
        session = FactCheckSession(spec).open()
        for arrival in stream_from_database(micro_db):
            update = session.observe(arrival)
        assert update.num_claims == micro_db.num_claims
        records = session.validate(2)
        assert 1 <= len(records) <= 2
        result = session.close()
        assert result.mode == "streaming"
        assert result.stop_reason == "stream_end"
        assert len(result.stream_updates) > 0
        assert result.validated_claim_ids
        assert result.trace.records == records

    def test_streaming_session_rejects_a_database(self, micro_db, tmp_path):
        with pytest.raises(SessionError, match="take no database"):
            FactCheckSession(streaming_spec(), database=micro_db)
        session = FactCheckSession(streaming_spec()).open()
        session.ingest(stream_from_database(micro_db))
        path = tmp_path / "stream.json"
        session.save(path)
        with pytest.raises(SessionError, match="take no database"):
            FactCheckSession.load(path, database=micro_db)

    def test_run_interleaves_validation(self, micro_db):
        spec = streaming_spec(stream={"validation_every": 1})
        arrivals = list(stream_from_database(micro_db))
        result = FactCheckSession(spec).run(arrivals=arrivals)
        assert len(result.validated_claim_ids) >= 1
        assert result.num_claims == micro_db.num_claims

    def test_streaming_record_label_by_index(self, micro_db):
        spec = streaming_spec()
        session = FactCheckSession(spec).open()
        for arrival in stream_from_database(micro_db):
            session.observe(arrival)
        index = session.database.claim_position("c2")
        session.record_label(index, 0)
        assert session.state.label_of(index) == 0
        assert "c2" in session.result().validated_claim_ids

    def test_final_precision_computed_from_truth(self, micro_db):
        spec = streaming_spec(stream={"validation_every": 1})
        arrivals = list(stream_from_database(micro_db))
        result = FactCheckSession(spec).run(arrivals=arrivals)
        assert result.final_precision is not None
        assert 0.0 <= result.final_precision <= 1.0


class TestCustomUser:
    class AlwaysTrue(User):
        def validate(self, claim):
            return 1

    def test_custom_user_drives_session(self, micro_db):
        spec = micro_spec(effort={"budget": 2, "goal": {"kind": "none"}})
        session = FactCheckSession(
            spec, database=micro_db, user=self.AlwaysTrue()
        )
        result = session.run()
        assert result.num_labelled == 2
        assert all(
            value == 1
            for record in result.trace.records
            for value in record.user_values
        )

    def test_custom_user_without_state_cannot_checkpoint(self, micro_db, tmp_path):
        from repro.errors import CheckpointError

        session = FactCheckSession(
            micro_spec(), database=micro_db, user=self.AlwaysTrue()
        ).open()
        with pytest.raises(CheckpointError):
            session.save(tmp_path / "ckpt.json")

    class StatefulUser(AlwaysTrue):
        def state_dict(self):
            return {}

        def load_state_dict(self, state):
            pass

    def test_custom_user_checkpoint_requires_user_on_load(
        self, micro_db, tmp_path
    ):
        from repro.errors import CheckpointError

        session = FactCheckSession(
            micro_spec(), database=micro_db, user=self.StatefulUser()
        ).open()
        path = tmp_path / "ckpt.json"
        session.save(path)
        with pytest.raises(CheckpointError):
            FactCheckSession.load(path)  # would rebuild a SimulatedUser
        with pytest.raises(CheckpointError):
            FactCheckSession.load(path, user=self.AlwaysTrue())  # wrong type
        resumed = FactCheckSession.load(path, user=self.StatefulUser())
        assert resumed.status == "open"

    def test_save_after_close_resumes_final_state(self, micro_db, tmp_path):
        session = FactCheckSession(micro_spec(), database=micro_db)
        result = session.run()
        path = tmp_path / "final.json"
        session.save(path)
        resumed = FactCheckSession.load(path)
        assert resumed.trace.iterations == result.trace.iterations
        assert resumed.run().stop_reason == result.stop_reason
