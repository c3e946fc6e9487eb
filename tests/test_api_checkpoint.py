"""Bit-for-bit checkpoint/resume tests (repro.api.checkpoint).

Golden-fixture style: the uninterrupted run *is* the golden reference —
the same spec is run once to completion, and once interrupted mid-run,
checkpointed, reloaded, and continued.  Every trace field except
wall-clock time, the final weights, the final probabilities, and the
onward RNG streams must match exactly, in both session modes and, for
the resume tests, on every merge walk of the engine.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.api import FactCheckSession, SessionSpec
from repro.errors import CheckpointError
from repro.streaming import stream_from_database

from tests.fixtures import ENGINE_WALKS, build_micro_database

def batch_spec() -> SessionSpec:
    return SessionSpec(
        seed=11,
        dataset={"name": "wiki", "seed": 42, "scale": 0.15},
        inference={"em_iterations": 2, "num_samples": 8},
        guidance={"strategy": "hybrid", "candidate_limit": 10},
        user={"error_probability": 0.1, "skip_probability": 0.1},
        effort={
            "goal": {"kind": "none"},
            "budget": 8,
            "confirmation_interval": 3,
            "termination": [
                {"kind": "urr", "params": {"threshold": 0.001, "patience": 6}}
            ],
        },
    )


def streaming_spec() -> SessionSpec:
    return SessionSpec(
        mode="streaming",
        seed=5,
        inference={"em_iterations": 2, "num_samples": 8},
        guidance={"strategy": "hybrid", "candidate_limit": 10},
        effort={"goal": {"kind": "none"}},
        stream={"validation_every": 4},
    )


def assert_records_identical(golden, resumed):
    """Record-level equality, excluding wall-clock response times."""
    assert len(golden) == len(resumed)
    for a, b in zip(golden, resumed):
        assert a.iteration == b.iteration
        assert a.claim_indices == b.claim_indices
        assert a.claim_ids == b.claim_ids
        assert a.user_values == b.user_values
        assert a.strategy_used == b.strategy_used
        assert a.error_rate == b.error_rate
        assert a.hybrid_score == b.hybrid_score
        assert a.unreliable_ratio == b.unreliable_ratio
        assert a.entropy == b.entropy
        assert a.precision == b.precision
        assert a.grounding_changes == b.grounding_changes
        assert a.predictions_matched == b.predictions_matched
        assert a.skipped == b.skipped
        assert a.repairs == b.repairs


@pytest.mark.parametrize("engine", ENGINE_WALKS, indirect=True)
class TestBatchResume:
    def test_resumed_run_matches_uninterrupted(self, engine, tmp_path):
        golden = FactCheckSession(batch_spec()).run()

        interrupted = FactCheckSession(batch_spec()).open()
        for _ in range(3):
            interrupted.step()
        path = tmp_path / "batch.json"
        interrupted.save(path)

        resumed_session = FactCheckSession.load(path)
        assert resumed_session.trace.iterations == 3
        resumed = resumed_session.run()

        assert golden.stop_reason == resumed.stop_reason
        assert_records_identical(golden.trace.records, resumed.trace.records)
        assert golden.validated_claim_ids == resumed.validated_claim_ids
        assert np.array_equal(golden.weights.values, resumed.weights.values)
        assert golden.final_precision == resumed.final_precision
        assert golden.trace.final_grounding == resumed.trace.final_grounding

    def test_resume_restores_database_state(self, engine, tmp_path):
        session = FactCheckSession(batch_spec()).open()
        session.step()
        session.step()
        path = tmp_path / "state.json"
        session.save(path)
        resumed = FactCheckSession.load(path)
        original = session.database
        restored = resumed.database
        assert np.array_equal(
            np.asarray(original.probabilities), np.asarray(restored.probabilities)
        )
        assert original.labels == restored.labels
        # The corpus structure itself round-trips through the checkpoint.
        assert [c.claim_id for c in original.claims] == [
            c.claim_id for c in restored.claims
        ]


@pytest.mark.parametrize("engine", ENGINE_WALKS, indirect=True)
class TestStreamingResume:
    def test_resumed_stream_matches_uninterrupted(self, engine, tmp_path):
        database = build_database()
        arrivals = list(stream_from_database(database))
        cut = len(arrivals) // 2

        golden = FactCheckSession(streaming_spec()).run(arrivals=arrivals)

        interrupted = FactCheckSession(streaming_spec()).open()
        every = 4
        for arrival in arrivals[:cut]:
            interrupted.observe(arrival)
            if interrupted._since_validation >= every:
                interrupted.validate(every)
        path = tmp_path / "stream.json"
        interrupted.save(path)

        resumed_session = FactCheckSession.load(path)
        resumed = resumed_session.run(arrivals=arrivals[cut:])

        assert len(golden.stream_updates) == len(resumed.stream_updates)
        for a, b in zip(golden.stream_updates, resumed.stream_updates):
            assert a.arrival_index == b.arrival_index
            assert a.step_size == b.step_size
            assert np.array_equal(a.weights.values, b.weights.values)
            assert a.num_claims == b.num_claims
        assert golden.validated_claim_ids == resumed.validated_claim_ids
        assert_records_identical(golden.trace.records, resumed.trace.records)
        assert np.array_equal(golden.weights.values, resumed.weights.values)
        assert golden.final_precision == resumed.final_precision


def build_database():
    """Small multi-source corpus for the streaming resume test."""
    from repro.datasets import load_dataset

    return load_dataset("health", seed=5, scale=0.02)


class TestAutoCheckpoint:
    """Periodic auto-checkpointing inside ``FactCheckSession.run``."""

    def test_batch_autocheckpoint_resumes_bit_for_bit(self, tmp_path):
        golden = FactCheckSession(batch_spec()).run()

        path = tmp_path / "auto.json.gz"
        crashed = FactCheckSession(batch_spec())
        with pytest.raises(RuntimeError, match="simulated crash"):

            def crash(record):
                if record.iteration == 4:
                    raise RuntimeError("simulated crash")

            crashed.run(checkpoint_every=2, checkpoint_path=path, on_iteration=crash)

        resumed_session = FactCheckSession.load(path)
        # The last auto-checkpoint landed after iteration 2 (the crash at
        # iteration 4 pre-empted the one due at 4).
        assert resumed_session.trace.iterations == 2
        resumed = resumed_session.run()
        assert golden.stop_reason == resumed.stop_reason
        assert_records_identical(golden.trace.records, resumed.trace.records)
        assert np.array_equal(golden.weights.values, resumed.weights.values)

    def test_streaming_autocheckpoint_counts_arrivals(self, tmp_path):
        database = build_database()
        arrivals = list(stream_from_database(database))
        golden = FactCheckSession(streaming_spec()).run(arrivals=arrivals)

        path = tmp_path / "stream-auto.json"
        seen = [0]

        def crash(update):
            seen[0] += 1
            if seen[0] == 7:
                raise RuntimeError("simulated crash")

        crashed = FactCheckSession(streaming_spec())
        with pytest.raises(RuntimeError, match="simulated crash"):
            crashed.run(
                arrivals=arrivals,
                checkpoint_every=3,
                checkpoint_path=path,
                on_iteration=crash,
            )

        resumed_session = FactCheckSession.load(path)
        done = len(resumed_session._updates)  # arrivals checkpointed so far
        assert done == 6
        resumed = resumed_session.run(arrivals=arrivals[done:])
        assert len(golden.stream_updates) == len(resumed.stream_updates)
        for a, b in zip(golden.stream_updates, resumed.stream_updates):
            assert np.array_equal(a.weights.values, b.weights.values)
        assert golden.validated_claim_ids == resumed.validated_claim_ids
        assert np.array_equal(golden.weights.values, resumed.weights.values)

    def test_run_final_checkpoint_reflects_completion(self, tmp_path):
        path = tmp_path / "final.json"
        result = FactCheckSession(batch_spec()).run(
            checkpoint_every=100, checkpoint_path=path
        )
        restored = FactCheckSession.load(path)
        assert restored.trace.iterations == result.trace.iterations

    def test_checkpoint_every_requires_path(self):
        from repro.errors import SessionError

        with pytest.raises(SessionError, match="checkpoint_path"):
            FactCheckSession(batch_spec()).run(checkpoint_every=2)


class TestCheckpointFormat:
    def test_checkpoint_is_json_with_headers(self, tmp_path):
        session = FactCheckSession(
            SessionSpec(seed=1), database=build_micro_database()
        ).open()
        path = tmp_path / "ckpt.json"
        session.save(path)
        payload = json.loads(path.read_text())
        assert payload["format"] == "repro-session-checkpoint"
        assert payload["version"] == 3
        assert payload["mode"] == "batch"
        assert "spec" in payload and "state" in payload
        # An explicitly supplied corpus cannot be regenerated from the
        # spec, so it stays embedded.
        assert "database" in payload

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(CheckpointError):
            FactCheckSession.load(path)

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            FactCheckSession.load(tmp_path / "absent.json")

    def test_loaded_session_is_open_and_steppable(self, tmp_path):
        database = build_micro_database()
        session = FactCheckSession(
            SessionSpec(seed=1, effort={"goal": {"kind": "none"}}),
            database=database,
        ).open()
        session.step()
        path = tmp_path / "ckpt.json"
        session.save(path)
        resumed = FactCheckSession.load(path)
        assert resumed.status == "open"
        record = resumed.step()
        assert record.iteration == 2


class TestCheckpointCompaction:
    """gzip compression and corpus-elision for spec-described datasets."""

    def test_gzip_checkpoint_roundtrips(self, tmp_path):
        session = FactCheckSession(batch_spec()).open()
        session.step()
        plain = tmp_path / "ckpt.json"
        packed = tmp_path / "ckpt.json.gz"
        session.save(plain)
        session.save(packed)
        assert packed.read_bytes()[:2] == b"\x1f\x8b"
        assert packed.stat().st_size < plain.stat().st_size
        resumed = FactCheckSession.load(packed)
        golden = FactCheckSession.load(plain)
        assert_records_identical(
            golden.trace.records, resumed.trace.records
        )
        assert golden.step().claim_ids == resumed.step().claim_ids

    def test_dataset_sessions_omit_corpus_structure(self, tmp_path):
        session = FactCheckSession(batch_spec()).open()
        session.step()
        path = tmp_path / "compact.json"
        session.save(path)
        payload = json.loads(path.read_text())
        assert "database" not in payload
        fingerprint = payload["database_fingerprint"]
        assert fingerprint["num_claims"] == session.database.num_claims
        resumed = FactCheckSession.load(path)
        assert resumed.database.num_claims == session.database.num_claims
        # A re-save of the regenerated session stays compact.
        again = tmp_path / "again.json"
        resumed.save(again)
        assert "database" not in json.loads(again.read_text())

    def test_compact_checkpoint_is_smaller_than_embedded(self, tmp_path):
        spec = batch_spec()
        compact_session = FactCheckSession(spec).open()
        embedded_session = FactCheckSession(
            spec, database=spec.dataset.load()
        ).open()
        compact = tmp_path / "compact.json"
        embedded = tmp_path / "embedded.json"
        compact_session.save(compact)
        embedded_session.save(embedded)
        assert compact.stat().st_size < embedded.stat().st_size / 2

    def test_fingerprint_mismatch_is_rejected(self, tmp_path):
        session = FactCheckSession(batch_spec()).open()
        path = tmp_path / "compact.json"
        session.save(path)
        payload = json.loads(path.read_text())
        payload["database_fingerprint"]["num_claims"] += 1
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="does not match"):
            FactCheckSession.load(path)

    def test_fingerprint_catches_same_shape_different_seed_corpus(self, tmp_path):
        from repro.datasets import load_dataset

        session = FactCheckSession(batch_spec()).open()
        path = tmp_path / "compact.json"
        session.save(path)
        # Same profile and scale, different seed: counts and positional
        # claim ids coincide, but the truth pattern differs — the content
        # digest must reject the swap.
        impostor = load_dataset("wiki", seed=43, scale=0.15)
        assert impostor.num_claims == session.database.num_claims
        with pytest.raises(CheckpointError, match="does not match"):
            FactCheckSession.load(path, database=impostor)

    def test_version_1_checkpoint_with_embedded_corpus_loads(self, tmp_path):
        session = FactCheckSession(batch_spec()).open()
        session.step()
        path = tmp_path / "v2.json"
        session.save(path)
        payload = json.loads(path.read_text())
        # Rewrite as a v1-style checkpoint: corpus embedded, no fingerprint.
        from repro.datasets.io import database_to_dict

        payload["version"] = 1
        payload.pop("database_fingerprint", None)
        payload["database"] = database_to_dict(session.database)
        legacy = tmp_path / "v1.json"
        legacy.write_text(json.dumps(payload))
        resumed = FactCheckSession.load(legacy)
        assert resumed.trace.iterations == 1
        assert resumed.step().iteration == 2


class TestRetiredSpecKeys:
    """Checkpoints whose spec names the removed gain-executor knobs.

    The golden file was saved by the release that still had
    ``guidance.parallel``/``max_workers`` and
    ``guidance.gain.parallel``/``max_workers``/``cache_gains``, together
    with how that run continued.
    """

    GOLDEN = Path(__file__).parent / "golden" / "checkpoint_v3_gain_executor_knobs.json"
    #: Retired knobs as the golden checkpoint's spec stores them.
    SAVED_KNOBS = {"guidance": {"parallel": True, "max_workers": 2}}

    def _write_checkpoint(self, path):
        golden = json.loads(self.GOLDEN.read_text())
        path.write_text(json.dumps(golden["checkpoint"]))
        return golden

    def test_loads_and_continues_like_the_saving_release(self, tmp_path):
        path = tmp_path / "old.json"
        golden = self._write_checkpoint(path)
        for section, knobs in self.SAVED_KNOBS.items():
            saved = golden["checkpoint"]["spec"][section]
            assert {key: saved[key] for key in knobs} == knobs
        resumed = FactCheckSession.load(path)
        assert resumed.trace.iterations == 2
        assert [resumed.step().claim_ids for _ in golden["continuation"]] == (
            golden["continuation"]
        )
        assert resumed.result().weights.values.tolist() == golden["weights"]

    def test_service_restores_spool_entry(self, tmp_path):
        from repro.service import ServiceConfig, SessionManager

        spool = tmp_path / "spool"
        spool.mkdir()
        self._write_checkpoint(spool / "old.json.gz")
        manager = SessionManager(ServiceConfig(spool_dir=spool, workers=1))
        try:
            assert manager.restore() == ["old"]
            assert manager.restore_errors == []
            assert manager.summary("old")["iterations"] == 2
        finally:
            manager.shutdown(checkpoint=False)

    def test_user_specs_still_reject_the_knobs(self):
        from repro.errors import SpecError

        with pytest.raises(SpecError):
            SessionSpec.from_dict({"guidance": {"parallel": True}})
        with pytest.raises(SpecError):
            SessionSpec.from_dict({"guidance": {"gain": {"cache_gains": True}}})


class TestRetiredEngineKeys(TestRetiredSpecKeys):
    """Checkpoints whose spec names the removed engine backend knobs.

    The golden file was saved by the release that still had
    ``inference.engine`` and ``inference.num_shards`` (set to
    ``"sharded"`` and 2, a forked two-worker pool), together with how
    that run continued.
    """

    GOLDEN = Path(__file__).parent / "golden" / "checkpoint_v3_engine_backend_knobs.json"
    SAVED_KNOBS = {"inference": {"engine": "sharded", "num_shards": 2}}

    def test_user_specs_still_reject_the_knobs(self):
        from repro.errors import SpecError

        for key, value in self.SAVED_KNOBS["inference"].items():
            with pytest.raises(SpecError) as excinfo:
                SessionSpec.from_dict({"inference": {key: value}})
            assert excinfo.value.field == f"inference.{key}"


class TestRetiredStreamKey:
    """Streaming checkpoints whose spec names the removed ``incremental``.

    The golden file was saved by the release that still had
    ``stream.incremental``, set to ``false`` (the rebuild-per-arrival
    path), together with how that run continued: the weights after each
    following arrival and the claim probabilities and labels at the end.
    """

    GOLDEN = (
        Path(__file__).parent / "golden" / "checkpoint_v3_stream_incremental_knob.json"
    )

    def _write_checkpoint(self, path):
        golden = json.loads(self.GOLDEN.read_text())
        path.write_text(json.dumps(golden["checkpoint"]))
        return golden

    def test_loads_and_continues_like_the_saving_release(self, tmp_path):
        path = tmp_path / "old.json"
        golden = self._write_checkpoint(path)
        assert golden["checkpoint"]["spec"]["stream"]["incremental"] is False
        resumed = FactCheckSession.load(path)
        updates = resumed.ingest_from_source(len(golden["continuation"]))
        assert [u.weights.values.tolist() for u in updates] == golden["continuation"]
        snapshot = resumed.database
        probabilities = np.asarray(snapshot.probabilities)
        assert {
            claim.claim_id: float(probabilities[index])
            for index, claim in enumerate(snapshot.claims)
        } == golden["probabilities"]
        assert sorted(
            snapshot.claim_id(int(index)) for index in snapshot.labelled_indices
        ) == golden["labelled"]

    def test_service_restores_spool_entry(self, tmp_path):
        from repro.service import ServiceConfig, SessionManager

        spool = tmp_path / "spool"
        spool.mkdir()
        golden = self._write_checkpoint(spool / "old.json.gz")
        manager = SessionManager(ServiceConfig(spool_dir=spool, workers=1))
        try:
            assert manager.restore() == ["old"]
            assert manager.restore_errors == []
            summary = manager.summary("old")
            assert summary["arrivals"] == golden["checkpoint"]["state"][
                "stream_position"
            ]
        finally:
            manager.shutdown(checkpoint=False)

    def test_user_specs_still_reject_the_knobs(self):
        from repro.errors import SpecError

        with pytest.raises(SpecError) as excinfo:
            SessionSpec.from_dict({"stream": {"incremental": False}})
        assert excinfo.value.field == "stream.incremental"


def sourced_streaming_spec() -> SessionSpec:
    """Streaming spec whose arrivals come from a declared replayable source."""
    return SessionSpec(
        mode="streaming",
        seed=5,
        inference={"em_iterations": 2, "num_samples": 8},
        guidance={"strategy": "hybrid", "candidate_limit": 10},
        effort={"goal": {"kind": "none"}},
        stream={
            "validation_every": 4,
            "source": {"dataset": {"name": "health", "seed": 5, "scale": 0.02}},
        },
    )


class TestMidStreamResumeWithForwardLinks:
    def test_resume_at_truncated_forward_link_matches_uninterrupted(
        self, tmp_path
    ):
        """Checkpoint taken while a document's forward link is truncated.

        The first micro-corpus arrival delivers d1, which also references
        the not-yet-arrived claim c2 — at the cut the snapshot holds the
        document with that link parked (only the d1→c1 clique exists).
        Resuming must rebuild exactly that truncated structure and then
        continue bit-for-bit.
        """
        database = build_micro_database()
        arrivals = list(stream_from_database(database))

        golden = FactCheckSession(streaming_spec()).run(arrivals=arrivals)

        interrupted = FactCheckSession(streaming_spec()).open()
        interrupted.observe(arrivals[0])
        snapshot = interrupted.database
        assert snapshot.num_claims == 1
        assert snapshot.num_documents == 1
        assert snapshot.num_cliques == 1  # d1→c2 parked, not materialised
        path = tmp_path / "forward-cut.json"
        interrupted.save(path)

        resumed_session = FactCheckSession.load(path)
        restored = resumed_session.database
        assert restored.num_cliques == 1
        resumed = resumed_session.run(arrivals=arrivals[1:])

        assert len(golden.stream_updates) == len(resumed.stream_updates)
        for a, b in zip(golden.stream_updates, resumed.stream_updates):
            assert a.arrival_index == b.arrival_index
            assert np.array_equal(a.weights.values, b.weights.values)
        assert np.array_equal(golden.weights.values, resumed.weights.values)


class TestCompactStreamingCheckpoint:
    """Source-backed sessions checkpoint as fingerprint + position (v3)."""

    def test_mid_stream_compact_resume_matches_uninterrupted(
        self, tmp_path
    ):
        golden = FactCheckSession(sourced_streaming_spec()).run()

        interrupted = FactCheckSession(sourced_streaming_spec()).open()
        interrupted.ingest_from_source(count=7)
        path = tmp_path / "compact-stream.json"
        interrupted.save(path)

        payload = json.loads(path.read_text())
        assert payload["state"]["stream_position"] == 7
        assert "stream_fingerprint" in payload
        # Compact form: the checker state carries no entity lists.
        for key in ("sources", "documents", "claims"):
            assert key not in payload["state"]["checker"]

        resumed_session = FactCheckSession.load(path)
        resumed = resumed_session.run()

        assert len(golden.stream_updates) == len(resumed.stream_updates)
        for a, b in zip(golden.stream_updates, resumed.stream_updates):
            assert a.arrival_index == b.arrival_index
            assert a.step_size == b.step_size
            assert np.array_equal(a.weights.values, b.weights.values)
        assert golden.validated_claim_ids == resumed.validated_claim_ids
        assert_records_identical(golden.trace.records, resumed.trace.records)
        assert np.array_equal(golden.weights.values, resumed.weights.values)

    def test_compact_is_smaller_than_embedded_checkpoint(self, tmp_path):
        sourced = FactCheckSession(sourced_streaming_spec()).open()
        sourced.ingest_from_source(count=10)
        compact = tmp_path / "compact.json"
        sourced.save(compact)

        embedded_session = FactCheckSession(streaming_spec()).open()
        source = sourced_streaming_spec().stream.source
        from itertools import islice

        embedded_session.ingest(islice(source.arrivals(), 10))
        embedded = tmp_path / "embedded.json"
        embedded_session.save(embedded)
        assert compact.stat().st_size < embedded.stat().st_size / 2

    def test_stream_fingerprint_mismatch_rejected(self, tmp_path):
        session = FactCheckSession(sourced_streaming_spec()).open()
        session.ingest_from_source(count=5)
        path = tmp_path / "tampered.json"
        session.save(path)
        payload = json.loads(path.read_text())
        payload["stream_fingerprint"]["entities_digest"] = "0" * 16
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="does not match"):
            FactCheckSession.load(path)


class TestExternalArrivalsFallback:
    def test_out_of_band_arrival_forces_embedded_checkpoint(self, tmp_path):
        from itertools import islice

        spec = sourced_streaming_spec()
        session = FactCheckSession(spec).open()
        session.ingest_from_source(count=3)
        # An arrival observed outside the declared source makes the
        # stream position meaningless: the checkpoint must fall back to
        # embedding the full entity state.
        extra = next(islice(spec.stream.source.arrivals(), 3, 4))
        session.observe(extra)
        path = tmp_path / "external.json"
        session.save(path)
        payload = json.loads(path.read_text())
        assert "stream_position" not in payload["state"]
        assert "stream_fingerprint" not in payload
        assert "claims" in payload["state"]["checker"]

        resumed = FactCheckSession.load(path)
        with pytest.raises(Exception, match="outside its declared"):
            resumed.ingest_from_source(count=1)

    def test_ingest_from_source_requires_declared_source(self):
        from repro.errors import SessionError

        session = FactCheckSession(streaming_spec()).open()
        with pytest.raises(SessionError, match="spec.stream.source"):
            session.ingest_from_source(count=1)
