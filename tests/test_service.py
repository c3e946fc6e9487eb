"""Tests of the multi-session service layer (``repro.service``).

Covers the session registry (create/drive/checkpoint/evict/restore), the
concurrency discipline (disjoint sessions in parallel and interleaved
requests against one session stay bit-for-bit identical to single-threaded
runs), the HTTP surface with its structured errors, and the end-to-end
durability story: create over HTTP, stream claims and labels, checkpoint,
kill the server, restart on the same spool directory, finish — the final
result must match an uninterrupted in-process run exactly.
"""

from __future__ import annotations

import threading
from pathlib import Path

import numpy as np
import pytest

from repro.api import FactCheckSession, SessionResult, SessionSpec
from repro.errors import ServiceError, SessionNotFoundError, StreamingError
from repro.service import (
    ReproServiceServer,
    ServiceClient,
    ServiceConfig,
    ServiceRequestError,
    SessionManager,
)
from repro.service.wire import (
    LabelsRequest,
    StepRequest,
    result_to_dict,
)
from repro.streaming import stream_from_database

from repro.utils.ckernel import load_kernel
from tests.fixtures import MALFORMED_SPECS, REJECTION_CASES, rejected_arrivals


def batch_spec(seed: int = 11, budget: int = 6) -> SessionSpec:
    return SessionSpec(
        seed=seed,
        dataset={"name": "wiki", "seed": 42, "scale": 0.15},
        inference={"em_iterations": 2, "num_samples": 8},
        guidance={"strategy": "hybrid", "candidate_limit": 10},
        user={"error_probability": 0.1, "skip_probability": 0.1},
        effort={"goal": {"kind": "none"}, "budget": budget},
    )


def streaming_spec(seed: int = 5) -> SessionSpec:
    return SessionSpec(
        mode="streaming",
        seed=seed,
        inference={"em_iterations": 2, "num_samples": 8},
        guidance={"strategy": "hybrid", "candidate_limit": 10},
        effort={"goal": {"kind": "none"}},
        stream={"validation_every": 4},
    )


def health_arrivals():
    from repro.datasets import load_dataset

    return list(stream_from_database(load_dataset("health", seed=5, scale=0.02)))


def scrub(result_dict: dict) -> dict:
    """Drop wall-clock fields; everything else must match bit-for-bit."""
    import copy

    scrubbed = copy.deepcopy(result_dict)
    for update in scrubbed.get("stream_updates", []):
        update["elapsed_seconds"] = 0.0
        update["ingest_seconds"] = 0.0
        update["update_seconds"] = 0.0
    trace = scrubbed.get("trace")
    if trace:
        for record in trace["records"]:
            record["response_seconds"] = 0.0
    return scrubbed


@pytest.fixture
def manager(tmp_path):
    manager = SessionManager(ServiceConfig(spool_dir=tmp_path / "spool", workers=4))
    yield manager
    manager.shutdown(checkpoint=False)


@pytest.fixture
def service(manager):
    server = ReproServiceServer(manager)
    server.serve_in_background()
    yield ServiceClient(server.url)
    server.shutdown()
    server.server_close()


class TestSessionManager:
    def test_create_requires_dataset_for_batch(self, manager):
        with pytest.raises(ServiceError, match="dataset"):
            manager.create(SessionSpec(seed=1))

    def test_create_rejects_duplicate_and_bad_ids(self, manager):
        manager.create(batch_spec(), session_id="dup")
        with pytest.raises(ServiceError, match="already exists"):
            manager.create(batch_spec(), session_id="dup")
        with pytest.raises(ServiceError, match="invalid session id"):
            manager.create(batch_spec(), session_id="a/b")

    def test_unknown_session_raises(self, manager):
        with pytest.raises(SessionNotFoundError):
            manager.summary("ghost")

    def test_run_matches_inprocess_session(self, manager):
        summary = manager.create(batch_spec(), session_id="one")
        assert summary["status"] == "open"
        response = manager.step("one", StepRequest(run=True))
        golden = FactCheckSession(batch_spec()).run()
        assert scrub(response["result"]) == scrub(result_to_dict(golden))

    def test_stepwise_drive_matches_run(self, manager):
        manager.create(batch_spec(), session_id="steps")
        total = 0
        while True:
            response = manager.step("steps", StepRequest(count=2))
            total += len(response["records"])
            if not response["records"]:
                break
        golden = FactCheckSession(batch_spec()).run()
        assert total == len(golden.trace.records)
        assert scrub(manager.result("steps")) == scrub(result_to_dict(golden))

    def test_labels_and_delete(self, manager, tmp_path):
        manager.create(batch_spec(), session_id="lbl")
        response = manager.record_labels(
            "lbl", LabelsRequest.from_payload({"labels": [{"claim": 0, "value": 1}]})
        )
        assert response["summary"]["num_labelled"] == 1
        spool_file = tmp_path / "spool" / "lbl.json.gz"
        assert spool_file.exists()
        manager.delete("lbl")
        assert not spool_file.exists()
        with pytest.raises(SessionNotFoundError):
            manager.summary("lbl")

    def test_restore_skips_corrupt_spool_entries(self, tmp_path):
        spool = tmp_path / "spool"
        first = SessionManager(ServiceConfig(spool_dir=spool, workers=2))
        first.create(batch_spec(), session_id="good")
        first.shutdown(checkpoint=True)
        # A torn/garbage checkpoint must not block the healthy sessions.
        (spool / "bad.json.gz").write_bytes(b"\x1f\x8btorn-by-a-crash")
        second = SessionManager(ServiceConfig(spool_dir=spool, workers=2))
        assert second.restore() == ["good"]
        assert [entry[0] for entry in second.restore_errors] == ["bad"]
        second.shutdown(checkpoint=False)

    def test_deleted_session_is_not_respooled_by_inflight_ops(self, tmp_path, manager):
        manager.create(batch_spec(), session_id="gone")
        managed = manager._get("gone")
        manager.delete("gone")
        spool_file = tmp_path / "spool" / "gone.json.gz"
        assert not spool_file.exists()
        # An operation that held a reference from before the eviction must
        # not write the spool entry back.
        manager._record_events(managed, 10)
        assert not spool_file.exists()

    def test_result_polling_does_not_rewrite_spool(self, manager, tmp_path):
        manager.create(batch_spec(budget=2), session_id="poll")
        manager.step("poll", StepRequest(run=True))
        spool_file = tmp_path / "spool" / "poll.json.gz"
        manager.result("poll")
        first_mtime = spool_file.stat().st_mtime_ns
        manager.result("poll")
        manager.result("poll")
        assert spool_file.stat().st_mtime_ns == first_mtime

    def test_result_is_a_snapshot_that_keeps_the_session_drivable(self, manager):
        manager.create(batch_spec(budget=4), session_id="peek")
        manager.step("peek", StepRequest(count=1))
        snapshot = manager.result("peek")
        assert snapshot["stop_reason"] == "unfinished"
        assert len(snapshot["trace"]["records"]) == 1
        # Polling the result must not have closed the session.
        response = manager.step("peek", StepRequest(count=1))
        assert len(response["records"]) == 1
        assert manager.summary("peek")["status"] == "open"

    def test_streaming_result_is_an_unfinished_snapshot(self, manager):
        manager.create(streaming_spec(), session_id="peek")
        arrivals = health_arrivals()
        manager.stream_claims("peek", arrivals[:2])
        snapshot = manager.result("peek")
        assert snapshot["stop_reason"] == "unfinished"
        assert snapshot["trace"]["stop_reason"] == "unfinished"
        assert len(snapshot["stream_updates"]) == 2
        # Polling the result must not have closed the session.
        response = manager.stream_claims("peek", arrivals[2:3])
        assert response["summary"]["arrivals"] == 3
        assert manager.summary("peek")["status"] == "open"

    def test_inflight_op_on_deleted_session_is_rejected(self, manager):
        manager.create(batch_spec(), session_id="stale")
        managed = manager._get("stale")
        manager.delete("stale")
        # A request that resolved its reference before the delete must be
        # turned away under the lock, not resurrect the session.
        with pytest.raises(SessionNotFoundError):
            manager._run(managed, lambda: managed.session.save("/dev/null"))

    def test_checkpoint_leaves_no_staging_file(self, manager, tmp_path):
        manager.create(batch_spec(), session_id="atomic")
        manager.checkpoint("atomic")
        leftovers = list((tmp_path / "spool").glob("*.tmp"))
        assert leftovers == []

    def test_restore_rebuilds_registry(self, tmp_path):
        spool = tmp_path / "spool"
        first = SessionManager(ServiceConfig(spool_dir=spool, workers=2))
        first.create(batch_spec(), session_id="a")
        first.step("a", StepRequest(count=2))
        # Unclean stop: no final checkpoint — durability rests on the
        # per-event auto-checkpoint policy.
        first.shutdown(checkpoint=False)

        second = SessionManager(ServiceConfig(spool_dir=spool, workers=2))
        assert second.restore() == ["a"]
        assert second.summary("a")["iterations"] == 2
        golden = FactCheckSession(batch_spec()).run()
        assert scrub(second.result("a"))["validated_claim_ids"][:2] == [
            r for rec in golden.trace.records[:2] for r in rec.claim_ids
        ]
        second.shutdown(checkpoint=False)


class TestConcurrency:
    def test_disjoint_sessions_in_parallel_match_single_threaded(self, manager):
        seeds = [11, 23, 37, 51]
        for seed in seeds:
            manager.create(batch_spec(seed=seed), session_id=f"s{seed}")
        results: dict = {}
        errors: list = []

        def drive(seed: int) -> None:
            try:
                results[seed] = manager.step(f"s{seed}", StepRequest(run=True))
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=drive, args=(seed,)) for seed in seeds]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for seed in seeds:
            golden = FactCheckSession(batch_spec(seed=seed)).run()
            assert scrub(results[seed]["result"]) == scrub(result_to_dict(golden))

    def test_interleaved_steps_on_one_session_match_single_threaded(self, manager):
        manager.create(batch_spec(budget=8), session_id="shared")
        errors: list = []

        def hammer() -> None:
            try:
                for _ in range(2):
                    manager.step("shared", StepRequest(count=1))
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

        # Eight single-step requests exhaust the budget of 8, landing in
        # exactly the state an uninterrupted run() reaches.
        golden = FactCheckSession(batch_spec(budget=8)).run()
        assert golden.stop_reason == "budget"
        assert scrub(manager.result("shared")) == scrub(result_to_dict(golden))

    def test_interleaved_claims_and_labels_on_one_streaming_session(self, manager):
        arrivals = health_arrivals()
        manager.create(streaming_spec(), session_id="stream")
        # Deliver the stream in order but from alternating threads, with a
        # label registered in between: per-session locking serialises the
        # operations, so the result matches the same single-threaded
        # sequence exactly.
        barrier = threading.Barrier(2)
        half = len(arrivals) // 2
        errors: list = []

        def first_half() -> None:
            try:
                barrier.wait()
                manager.stream_claims("stream", arrivals[:half])
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        thread = threading.Thread(target=first_half)
        thread.start()
        barrier.wait()
        thread.join()  # ordered delivery: second chunk follows the first
        label_claim = arrivals[0].claim.claim_id
        manager.record_labels(
            "stream",
            LabelsRequest.from_payload(
                {"labels": [{"claim": label_claim, "value": 1}]}
            ),
        )
        manager.stream_claims("stream", arrivals[half:])

        golden_session = FactCheckSession(streaming_spec()).open()
        every = streaming_spec().stream.validation_every
        for arrival in arrivals[:half]:
            golden_session.observe(arrival)
            if golden_session._driver.since_validation >= every:
                golden_session.validate(every)
        golden_session.record_label(label_claim, 1)
        for arrival in arrivals[half:]:
            golden_session.observe(arrival)
            if golden_session._driver.since_validation >= every:
                golden_session.validate(every)
        # The service result is a snapshot of an open session.
        golden = golden_session.result_snapshot()
        assert scrub(manager.result("stream")) == scrub(result_to_dict(golden))


class TestRejectedArrivals:
    @pytest.mark.parametrize("case", REJECTION_CASES)
    def test_rejection_leaves_session_and_spool_unchanged(
        self, manager, tmp_path, case
    ):
        arrivals = health_arrivals()[:10]
        position, bad = rejected_arrivals(arrivals)[case]
        manager.create(streaming_spec(), session_id="s")
        if position:
            manager.stream_claims("s", arrivals[:position])
        with pytest.raises(StreamingError):
            manager.stream_claims("s", [bad])
        assert manager.summary("s")["arrivals"] == position
        manager.stream_claims("s", arrivals[position:])

        golden = FactCheckSession(streaming_spec()).open()
        golden.ingest(arrivals)
        snapshot = golden.result_snapshot()
        assert scrub(manager.result("s")) == scrub(result_to_dict(snapshot))
        # The spool entry written after the rejection restores the live
        # session exactly.
        restarted = SessionManager(
            ServiceConfig(spool_dir=tmp_path / "spool", workers=1)
        )
        assert restarted.restore() == ["s"]
        assert scrub(restarted.result("s")) == scrub(manager.result("s"))
        restarted.shutdown(checkpoint=False)


class TestHTTPService:
    def test_create_step_result_over_http(self, service):
        summary = service.create_session(batch_spec(), session_id="http-batch")
        assert summary["id"] == "http-batch"
        response = service.step("http-batch", run=True)
        golden = FactCheckSession(batch_spec()).run()
        assert scrub(response["result"]) == scrub(result_to_dict(golden))
        result = service.result("http-batch")
        assert result.stop_reason == golden.stop_reason
        assert np.array_equal(result.weights.values, golden.weights.values)

    def test_healthz_reports_whether_the_kernel_loaded(self, service, monkeypatch):
        # A failed build caches None: the probe must say so rather than
        # let the uncompiled fallbacks run unnoticed.
        monkeypatch.setattr("repro.utils.ckernel._KERNEL", None)
        health = service.health()
        assert health["kernel"] is False
        assert health["status"] == "ok"
        monkeypatch.undo()
        if load_kernel() is not None:
            assert service.health()["kernel"] is True

    def test_spec_validation_error_carries_field_path(self, service):
        with pytest.raises(ServiceRequestError) as excinfo:
            service.create_session({"inference": {"estep_mode": "x"}})
        assert excinfo.value.status == 400
        assert excinfo.value.error_type == "SpecError"
        assert excinfo.value.field == "inference.estep_mode"

    @pytest.mark.parametrize("payload, field", MALFORMED_SPECS)
    def test_malformed_spec_is_400_with_field(self, service, manager, payload, field):
        with pytest.raises(ServiceRequestError) as excinfo:
            service.create_session(payload)
        assert excinfo.value.status == 400
        assert excinfo.value.error_type == "SpecError"
        assert excinfo.value.field == field
        assert service.list_sessions() == []
        assert list(Path(manager.config.spool_dir).iterdir()) == []

    def test_unknown_session_is_404(self, service):
        with pytest.raises(ServiceRequestError) as excinfo:
            service.summary("ghost")
        assert excinfo.value.status == 404
        assert excinfo.value.error_type == "SessionNotFoundError"

    def test_mode_misuse_is_409(self, service):
        service.create_session(streaming_spec(), session_id="misuse")
        with pytest.raises(ServiceRequestError) as excinfo:
            service.step("misuse")
        assert excinfo.value.status == 409

    def test_bad_json_is_400(self, service):
        import urllib.request

        request = urllib.request.Request(
            f"{service.base_url}/sessions",
            data=b"not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_trace_and_listing(self, service):
        service.create_session(batch_spec(), session_id="traced")
        service.step("traced", count=1)
        trace = service.trace("traced")
        assert len(trace["records"]) == 1
        ids = [entry["id"] for entry in service.list_sessions()]
        assert "traced" in ids
        service.delete_session("traced")
        assert "traced" not in [e["id"] for e in service.list_sessions()]

    def test_keepalive_responses_are_not_held_back(self, service):
        # Headers and body leave in two sends; without TCP_NODELAY each
        # body waits for the client's delayed ACK (~40 ms on Linux).
        import http.client
        import json
        import statistics
        import time
        from urllib.parse import urlsplit

        service.create_session(batch_spec(), session_id="loopback")
        url = urlsplit(service.base_url)
        connection = http.client.HTTPConnection(url.hostname, url.port, timeout=30)
        try:
            for path in ("/healthz", "/sessions/loopback/result"):
                elapsed_ms = []
                for _ in range(10):
                    start = time.perf_counter()
                    connection.request("GET", path)
                    response = connection.getresponse()
                    body = response.read()
                    elapsed_ms.append((time.perf_counter() - start) * 1e3)
                    assert response.status == 200
                    json.loads(body)
                assert statistics.median(elapsed_ms) < 20.0, (path, elapsed_ms)
        finally:
            connection.close()


class TestEndToEndDurability:
    """The acceptance-criterion scenario: checkpoint, kill, restart, equal."""

    def test_service_restart_is_bit_for_bit_invisible(self, tmp_path):
        spool = tmp_path / "spool"
        arrivals = health_arrivals()
        half = len(arrivals) // 2
        label_claim = arrivals[0].claim.claim_id

        # Periodic auto-checkpointing off: durability must come from the
        # explicit POST /checkpoint, like a deliberate pre-deploy save.
        config = ServiceConfig(spool_dir=spool, workers=2, checkpoint_every=None)
        manager = SessionManager(config)
        server = ReproServiceServer(manager)
        server.serve_in_background()
        client = ServiceClient(server.url)

        spec_document = streaming_spec().to_dict()
        client.create_session(spec_document, session_id="durable")
        client.stream_claims("durable", arrivals[:half], chunk_size=3)
        client.record_labels("durable", [{"claim": label_claim, "value": 1}])
        client.checkpoint("durable")

        # Kill the server without any graceful checkpointing.
        server.shutdown()
        server.server_close()
        manager.shutdown(checkpoint=False)

        # Restart on the same spool directory; the registry is restored.
        manager2 = SessionManager(config)
        assert manager2.restore() == ["durable"]
        server2 = ReproServiceServer(manager2)
        server2.serve_in_background()
        client2 = ServiceClient(server2.url)

        client2.stream_claims("durable", arrivals[half:], chunk_size=4)
        restarted = client2.result_dict("durable")

        server2.shutdown()
        server2.server_close()
        manager2.shutdown(checkpoint=False)

        # The uninterrupted in-process run of the same spec and sequence.
        session = FactCheckSession(streaming_spec()).open()
        every = streaming_spec().stream.validation_every
        for arrival in arrivals[:half]:
            session.observe(arrival)
            if session._driver.since_validation >= every:
                session.validate(every)
        session.record_label(label_claim, 1)
        for arrival in arrivals[half:]:
            session.observe(arrival)
            if session._driver.since_validation >= every:
                session.validate(every)
        # The service result is a snapshot of an open session.
        golden = session.result_snapshot()

        assert scrub(restarted) == scrub(result_to_dict(golden))
        # Round-trip through the typed result confirms full fidelity.
        parsed = SessionResult.from_dict(restarted)
        assert parsed.validated_claim_ids == golden.validated_claim_ids
        assert np.array_equal(parsed.weights.values, golden.weights.values)


class TestServeCommand:
    """``python -m repro serve`` as a real process: the CI smoke path."""

    def test_serve_boots_answers_and_shuts_down_cleanly(self, tmp_path):
        import os
        import signal as signal_module
        import subprocess
        import sys
        import time
        from pathlib import Path

        repo_root = Path(__file__).resolve().parent.parent
        port_file = tmp_path / "port.txt"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo_root / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--port-file", str(port_file),
                "--spool-dir", str(tmp_path / "spool"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=repo_root,
        )
        try:
            deadline = time.monotonic() + 30
            while not port_file.exists() and time.monotonic() < deadline:
                time.sleep(0.1)
            assert port_file.exists(), "server never wrote its port file"
            client = ServiceClient(f"http://127.0.0.1:{port_file.read_text().strip()}")
            assert client.health()["status"] == "ok"
            process.send_signal(signal_module.SIGTERM)
            output, _ = process.communicate(timeout=30)
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup
                process.kill()
                process.communicate()
        assert process.returncode == 0, output
        assert "shutdown complete" in output


class TestWireModel:
    def test_step_request_validation(self):
        assert StepRequest.from_payload(None) == StepRequest()
        assert StepRequest.from_payload({"count": 3}).count == 3
        with pytest.raises(ServiceError):
            StepRequest.from_payload({"count": 0})
        with pytest.raises(ServiceError):
            StepRequest.from_payload({"bogus": 1})
        assert StepRequest.from_payload({"run": True}).run is True
        for body in (
            {"run": "false"},
            {"run": 1},
            {"count": True},
            {"max_iterations": True},
        ):
            with pytest.raises(ServiceError):
                StepRequest.from_payload(body)

    def test_labels_request_validation(self):
        with pytest.raises(ServiceError):
            LabelsRequest.from_payload({"labels": []})
        for entry in (
            {"claim": "c1", "value": 2},
            {"claim": True, "value": 1},
            {"claim": "c1", "value": 1.0},
            {"claim": "c1", "value": True},
            {"claim": 1.5, "value": 1},
        ):
            with pytest.raises(ServiceError):
                LabelsRequest.from_payload({"labels": [entry]})
        request = LabelsRequest.from_payload(
            {"labels": [{"claim": "c1", "value": 1}, {"claim": 4, "value": 0}]}
        )
        assert [entry.claim for entry in request.labels] == ["c1", 4]

    def test_result_roundtrip(self):
        golden = FactCheckSession(batch_spec()).run()
        parsed = SessionResult.from_dict(result_to_dict(golden))
        assert parsed.stop_reason == golden.stop_reason
        assert parsed.validated_claim_ids == golden.validated_claim_ids
        assert np.array_equal(parsed.weights.values, golden.weights.values)
        assert len(parsed.trace.records) == len(golden.trace.records)


class TestSourceBackedStreaming:
    """Streaming sessions driven from their declared stream source."""

    @staticmethod
    def sourced_spec(seed: int = 5) -> SessionSpec:
        return SessionSpec(
            mode="streaming",
            seed=seed,
            inference={"em_iterations": 2, "num_samples": 8},
            guidance={"strategy": "hybrid", "candidate_limit": 10},
            effort={"goal": {"kind": "none"}},
            stream={
                "validation_every": 4,
                "source": {
                    "dataset": {"name": "health", "seed": 5, "scale": 0.02}
                },
            },
        )

    def test_stepping_the_source_matches_inprocess_run(self, manager):
        golden = FactCheckSession(self.sourced_spec()).run()

        manager.create(self.sourced_spec(), session_id="sourced")
        delivered = 0
        while True:
            response = manager.step("sourced", StepRequest(count=5))
            assert response["completed"] is False
            if not response["updates"]:
                break
            delivered += len(response["updates"])
        assert delivered == len(golden.stream_updates)
        final = manager.step("sourced", StepRequest(run=True))
        assert final["completed"] is True
        assert scrub(final["result"]) == scrub(result_to_dict(golden))

    def test_step_without_source_or_run_is_rejected(self, manager):
        from repro.errors import SessionError

        manager.create(streaming_spec(), session_id="plain")
        with pytest.raises(SessionError, match="spec.stream.source"):
            manager.step("plain", StepRequest(count=1))
