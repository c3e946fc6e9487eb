"""The process-wide corpus store (:mod:`repro.datasets.corpus`).

Sessions on one name-based dataset spec share one generated corpus, which
is built on first use and freed with the last session holding it.  These
tests count calls to the generator, so every spec here uses a dataset seed
no other test uses: a corpus another test still holds would otherwise be
shared and hide a generation.
"""

from __future__ import annotations

import gc
import json
import sys
import threading
import time

import numpy as np
import pytest

from repro.api import DatasetSpec, FactCheckSession, SessionSpec
from repro.datasets import generator, load_dataset, save_database, shared_corpus
from repro.service.manager import ServiceConfig, SessionManager
from repro.streaming.stream import arrival_to_dict, stream_from_database
from tests.fixtures import build_micro_database


@pytest.fixture
def generations(monkeypatch):
    """Counts corpus generations: ``generations[0]`` after each call."""
    count = [0]
    generate = generator.generate_entities

    def counting(*args, **kwargs):
        count[0] += 1
        return generate(*args, **kwargs)

    gc.collect()
    monkeypatch.setattr(generator, "generate_entities", counting)
    return count


def batch_spec(dataset_seed: int) -> SessionSpec:
    return SessionSpec(
        seed=3,
        dataset={"name": "wiki", "seed": dataset_seed, "scale": 0.05},
        inference={"em_iterations": 1, "num_samples": 4},
        guidance={"strategy": "hybrid", "candidate_limit": 4},
        effort={"budget": 4},
    )


def stream_spec(dataset_seed: int, seed: int = 5) -> SessionSpec:
    return SessionSpec(
        mode="streaming",
        seed=seed,
        inference={"em_iterations": 1, "num_samples": 4},
        guidance={"strategy": "hybrid", "candidate_limit": 4},
        stream={
            "validation_every": 3,
            "source": {
                "dataset": {"name": "health", "seed": dataset_seed, "scale": 0.02}
            },
        },
    )


def scrub(result: dict) -> dict:
    """A result dict without its wall-clock fields."""
    for update in result["stream_updates"]:
        update["elapsed_seconds"] = update["ingest_seconds"] = 0.0
        update["update_seconds"] = 0.0
    for record in result["trace"]["records"]:
        record["response_seconds"] = 0.0
    return result


def result_of(session: FactCheckSession) -> dict:
    return scrub(session.result_snapshot().to_dict())


class TestSharedGeneration:
    def test_batch_sessions_on_one_spec_generate_once(self, generations):
        sessions = [FactCheckSession(batch_spec(9101)).open() for _ in range(4)]
        assert generations[0] == 1
        # One structure over one set of entities, and a state per session.
        assert len({id(session.database) for session in sessions}) == 1
        assert len({id(session.state) for session in sessions}) == 4

    def test_source_streams_generate_once_across_requests(self, generations):
        sessions = [
            FactCheckSession(stream_spec(9102, seed=seed)).open() for seed in range(4)
        ]
        for call in range(20):
            sessions[call % 4].ingest_from_source(count=2)
        assert generations[0] == 1
        assert [session.progress()["arrivals"] for session in sessions] == [10] * 4

    def test_restoring_spool_entries_on_one_spec_generates_once(
        self, tmp_path, generations
    ):
        spool = tmp_path / "spool"
        first = SessionManager(ServiceConfig(spool_dir=spool, workers=2))
        spec = batch_spec(9103)
        for index in range(3):
            first.create(spec, session_id=f"b{index}")
        first.shutdown()
        del first
        gc.collect()
        generations[0] = 0

        second = SessionManager(ServiceConfig(spool_dir=spool, workers=2))
        try:
            assert second.restore() == ["b0", "b1", "b2"]
            assert generations[0] == 1
        finally:
            second.shutdown(checkpoint=False)

    def test_concurrent_opens_generate_once_and_match_sequential_runs(
        self, monkeypatch, generations
    ):
        counting = generator.generate_entities

        def slow(*args, **kwargs):
            # Long enough that the second open arrives mid-generation.
            time.sleep(0.2)
            return counting(*args, **kwargs)

        monkeypatch.setattr(generator, "generate_entities", slow)
        spec = batch_spec(9104)
        barrier = threading.Barrier(2)
        results = [None, None]

        def open_and_run(slot: int) -> None:
            session = FactCheckSession(spec)
            barrier.wait()
            session.open()
            session.advance(3)
            results[slot] = result_of(session)

        threads = [threading.Thread(target=open_and_run, args=(i,)) for i in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert generations[0] == 1

        sequential = FactCheckSession(spec).open()
        sequential.advance(3)
        assert results[0] == results[1] == result_of(sequential)

    def test_threads_racing_for_new_keys_generate_each_key_once(self):
        keys = [f"test-stress-corpus-{index}" for index in range(200)]
        counts = dict.fromkeys(keys, 0)
        counts_lock = threading.Lock()

        def generate_for(key):
            def generate():
                with counts_lock:
                    counts[key] += 1
                database = build_micro_database()
                return database.sources, database.documents, database.claims

            return generate

        got = [[] for _ in range(8)]
        barrier = threading.Barrier(8)

        def worker(slot: int) -> None:
            barrier.wait()
            # All workers race for each new key at once.
            for key in keys:
                got[slot].append((key, shared_corpus(key, generate_for(key))))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        # Every worker holds its corpora, so none was freed and rebuilt.
        assert counts == dict.fromkeys(keys, 1)
        for key in keys:
            corpora = {id(corpus) for entries in got for k, corpus in entries if k == key}
            assert len(corpora) == 1

    def test_entry_is_freed_with_its_last_session(self, generations):
        spec = batch_spec(9105)
        sessions = [FactCheckSession(spec).open() for _ in range(2)]
        assert generations[0] == 1
        del sessions
        gc.collect()
        FactCheckSession(spec).open()
        assert generations[0] == 2

    def test_equal_specs_share_one_weakly_held_corpus(self, generations):
        spec = DatasetSpec(name="health", seed=9106, scale=0.02)
        corpus = spec.corpus()
        assert spec.corpus() is corpus
        assert DatasetSpec.from_dict(spec.to_dict()).corpus() is corpus
        del corpus
        gc.collect()
        spec.corpus()
        assert generations[0] == 2
        whole = DatasetSpec(name="wiki", seed=9106, scale=1).corpus()
        assert DatasetSpec(name="wiki", seed=9106, scale=1.0).corpus() is whole
        assert generations[0] == 3

    def test_failed_generation_is_retried(self):
        attempts = []

        def flaky():
            attempts.append(len(attempts))
            if len(attempts) == 1:
                raise RuntimeError("generator failed")
            database = build_micro_database()
            return database.sources, database.documents, database.claims

        with pytest.raises(RuntimeError):
            shared_corpus("test-flaky-corpus", flaky)
        corpus = shared_corpus("test-flaky-corpus", flaky)
        assert len(attempts) == 2
        assert corpus.database().num_claims == build_micro_database().num_claims

    def test_sessions_keep_their_own_state(self, generations):
        spec = batch_spec(9108)
        first = FactCheckSession(spec).open()
        second = FactCheckSession(spec).open()
        probabilities = second.state.probabilities.copy()
        first.record_label(first.database.claim_id(0), 1)
        first.advance(2)
        assert first.state.num_labelled > 1
        assert second.state.num_labelled == 0
        assert np.array_equal(second.state.probabilities, probabilities)

        streams = [FactCheckSession(stream_spec(9108)).open() for _ in range(2)]
        streams[0].ingest_from_source(count=4)
        streams[1].ingest_from_source(count=4)
        probabilities = streams[1].state.probabilities.copy()
        labels = dict(streams[1].state.labels)
        target = int(streams[0].state.unlabelled_indices[0])
        streams[0].record_label(streams[0].database.claim_id(target), 0)
        assert streams[0].state.label_of(target) == 0
        assert dict(streams[1].state.labels) == labels
        assert np.array_equal(streams[1].state.probabilities, probabilities)
        assert generations[0] == 2


def interactive_spec(dataset_seed: int, seed: int = 3, scale: float = 0.05):
    """A batch spec whose every step evaluates gains over a scope plan."""
    return SessionSpec(
        seed=seed,
        dataset={"name": "wiki", "seed": dataset_seed, "scale": scale},
        inference={"em_iterations": 1, "num_samples": 4},
        guidance={"strategy": "info", "candidate_limit": 6},
        effort={"budget": 6},
    )


class TestSharedStructure:
    """Every session on a spec reads one read-only :class:`FactDatabase`."""

    def test_warm_open_builds_no_structure(self, monkeypatch, generations):
        from repro.data.database import FactDatabase

        spec = interactive_spec(9110, scale=1.0)
        first = FactCheckSession(spec).open()
        builds = {}
        names = ("_build_cliques", "_build_claim_source_graph", "connected_components")
        for name in names:
            original = getattr(FactDatabase, name)

            def counting(self, *args, _name=name, _original=original, **kwargs):
                builds[_name] = builds.get(_name, 0) + 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(FactDatabase, name, counting)
        second = FactCheckSession(spec).open()
        second.advance(1)
        assert builds == {}
        assert second.database is first.database
        assert second.state is not first.state
        assert generations[0] == 1

    def test_threads_share_one_structure_and_match_sequential_runs(
        self, generations
    ):
        seeds = [11, 12, 13, 14]
        sequential = []
        for seed in seeds:
            session = FactCheckSession(
                interactive_spec(9111, seed=seed, scale=0.3)
            ).open()
            session.advance(4)
            sequential.append(result_of(session))
        del session
        gc.collect()
        # A fresh corpus, so the threads race the lazy graph, component
        # and scope-plan builds of its structure.
        sessions = [
            FactCheckSession(interactive_spec(9111, seed=seed, scale=0.3))
            for seed in seeds
        ]
        results = [None] * len(seeds)
        barrier = threading.Barrier(len(seeds))

        def open_and_step(slot: int) -> None:
            barrier.wait()
            sessions[slot].open()
            sessions[slot].advance(4)
            results[slot] = result_of(sessions[slot])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=open_and_step, args=(slot,))
                for slot in range(len(seeds))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert generations[0] == 2
        assert len({id(session.database) for session in sessions}) == 1
        assert all(len(result["trace"]["records"]) == 4 for result in results)
        assert results == sequential

    def test_spooled_sessions_restore_onto_one_structure(self, tmp_path):
        spool = tmp_path / "spool"
        spec = interactive_spec(9112)
        first = SessionManager(ServiceConfig(spool_dir=spool, workers=2))
        for index in range(2):
            first.create(spec, session_id=f"s{index}")
        first.step("s0")
        states = {
            name: managed.session.state.to_dict()
            for name, managed in first._sessions.items()
        }
        assert states["s0"] != states["s1"]
        first.shutdown()
        del first
        gc.collect()

        second = SessionManager(ServiceConfig(spool_dir=spool, workers=2))
        try:
            assert second.restore() == ["s0", "s1"]
            restored = {name: m.session for name, m in second._sessions.items()}
            assert restored["s0"].database is restored["s1"].database
            for name, session in restored.items():
                assert session.state.to_dict() == states[name]
        finally:
            second.shutdown(checkpoint=False)


class TestArrivalSequence:
    def test_stored_arrivals_equal_a_fresh_replay(self):
        spec = DatasetSpec(name="health", seed=9201, scale=0.02)
        stored = spec.corpus().arrivals()
        fresh = list(
            stream_from_database(load_dataset("health", seed=9201, scale=0.02))
        )
        assert isinstance(stored, tuple)
        assert len(stored) == len(fresh)
        for ours, theirs in zip(stored, fresh):
            assert arrival_to_dict(ours) == arrival_to_dict(theirs)

    @pytest.mark.parametrize("where", ["start", "first", "mid", "end"])
    def test_resume_at_any_position_equals_an_uninterrupted_run(
        self, tmp_path, where
    ):
        spec = stream_spec(9202)
        total = len(spec.stream.source.arrivals())
        position = {"start": 0, "first": 1, "mid": total // 2, "end": total}[where]

        golden = FactCheckSession(spec).run()

        session = FactCheckSession(spec).open()
        if position:
            session.ingest_from_source(count=position)
        path = tmp_path / "at.json"
        session.save(path)
        resumed = FactCheckSession.load(path).run()

        assert scrub(resumed.to_dict()) == scrub(golden.to_dict())

    def test_path_sourced_stream_reads_its_file_once(self, tmp_path, monkeypatch):
        import repro.datasets as datasets

        path = tmp_path / "corpus.json"
        save_database(load_dataset("health", seed=9203, scale=0.02), path)
        reads = [0]
        load_database = datasets.load_database

        def counting(file):
            reads[0] += 1
            return load_database(file)

        monkeypatch.setattr(datasets, "load_database", counting)
        spec = SessionSpec.from_dict(
            {
                **json.loads(stream_spec(0).to_json()),
                "stream": {"source": {"dataset": {"path": str(path)}}},
            }
        )
        session = FactCheckSession(spec).open()
        for _ in range(5):
            session.ingest_from_source(count=2)
        assert reads[0] == 1
        assert session.progress()["arrivals"] == 10
