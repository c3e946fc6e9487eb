"""The four traffic mixes the benchmark sends (``BENCHMARK.json`` says why).

Every workload is a fixed script of requests, which a run plays
``REPEATS`` times.  ``--seconds`` sets the script's length through the
workload's nominal pace, so a run's timed phases take about that long on
the reference host while the script, and therefore every session's result,
stays the same on every commit: a faster program finishes the same script
sooner instead of doing different work.  ``--seed S`` generates the
corpora with seed ``42 + S`` and gives the sessions seeds ``S, S+1, ...``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Dict, List

#: Corpus seed of ``--seed 0``; the seed-42 wiki replica is the one the
#: repository's other benchmarks use.
DATASET_SEED_BASE = 42
#: Times a run plays the script, each on a fresh server with fresh
#: sessions.  Neighbours on a shared host slow the program in bursts of
#: seconds, by up to a half; a request's faster repetition is the one
#: they left alone, so a run reports each request at its fastest.
REPEATS = 2
#: Mutating requests per workload under ``--quick`` (the smoke test).
QUICK_REQUESTS = 5
#: Open-loop arrivals and result polls per second on ``stream-push``.  At
#: 6/s the per-arrival checkpoint, which grows with the stream, stays
#: inside its period for the first ~150 arrivals on a 2-core host.
PUSH_RATE = 6.0
READ_RATE = 4.0


@dataclass
class Plan:
    """The script of one run.

    Attributes:
        sessions: ``POST /sessions`` payloads, created in order in set-up.
        requests: Closed loop: mutating requests per session, sent
            round-robin over the sessions.
        step_body: Closed-loop body of ``POST /sessions/{id}/step``.
        arrivals: Open-loop ``POST /sessions/{id}/claims`` bodies, one
            arrival each, encoded before timing starts.
        rate / read_rate: Open-loop arrivals and ``GET /result`` polls per
            second.
    """

    sessions: List[dict]
    requests: List[int]
    step_body: bytes = b""
    arrivals: List[bytes] = field(default_factory=list)
    rate: float = 0.0
    read_rate: float = 0.0


@dataclass(frozen=True)
class Workload:
    """One named traffic mix.

    Attributes:
        name: Name on the command line and in ``BENCHMARK.json``.
        loop: ``"closed"`` (send after the previous response) or ``"open"``
            (send on a schedule).
        pace: Nominal mutating requests per second; sizes the script from
            ``--seconds``, which its repetitions share.
        build: ``(seed, request count, session count) -> Plan``.
        sessions: Session count of a full (non-quick) run.
    """

    name: str
    loop: str
    pace: float
    build: Callable[[int, int, int], Plan]
    sessions: int

    def request_count(self, seconds: float, quick: bool = False) -> int:
        """Mutating requests of the script (all sessions) in a run of
        ``seconds``."""
        if quick:
            return QUICK_REQUESTS
        return max(1, round(seconds * self.pace / REPEATS))

    def plan(self, seed: int, seconds: float, quick: bool = False) -> Plan:
        sessions = 1 if quick else self.sessions
        return self.build(seed, self.request_count(seconds, quick), sessions)


def _split(total: int, parts: int) -> List[int]:
    """``total`` as ``parts`` near-equal counts, larger ones first."""
    base, extra = divmod(total, parts)
    return [base + (1 if index < extra else 0) for index in range(parts)]


def _dataset(seed: int, scale: float) -> dict:
    return {"name": "wiki", "seed": DATASET_SEED_BASE + seed, "scale": scale}


def _interactive(scale: float, guidance: dict) -> Callable[[int, int, int], Plan]:
    def build(seed: int, count: int, sessions: int) -> Plan:
        specs = [
            {"mode": "batch", "seed": seed + index,
             "dataset": _dataset(seed, scale), "guidance": dict(guidance)}
            for index in range(sessions)
        ]
        return Plan(specs, _split(count, sessions),
                    step_body=json.dumps({"count": 1}).encode())

    return build


def _stream_replay(seed: int, count: int, sessions: int) -> Plan:
    specs = [
        {"mode": "streaming", "seed": seed + index,
         "stream": {"validation_every": 10,
                    "source": {"dataset": _dataset(seed, 0.4)}}}
        for index in range(sessions)
    ]
    return Plan(specs, _split(count, sessions),
                step_body=json.dumps({"count": 2}).encode())


def _stream_push(seed: int, count: int, sessions: int) -> Plan:
    # The client generates the stream with the program's own corpus
    # generator, the way a feed would deliver it, and pre-encodes it.
    from repro.datasets import load_dataset
    from repro.streaming.stream import arrival_to_dict, stream_from_database

    corpus = load_dataset("wiki", seed=DATASET_SEED_BASE + seed, scale=1.0)
    arrivals = [
        json.dumps({"arrivals": [arrival_to_dict(arrival)]}).encode()
        for arrival in islice(stream_from_database(corpus), count)
    ]
    return Plan([{"mode": "streaming", "seed": seed}], [],
                arrivals=arrivals, rate=PUSH_RATE, read_rate=READ_RATE)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(name="interactive-small", loop="closed", pace=6.0,
                 build=_interactive(1.0, {}), sessions=4),
        Workload(name="interactive-large", loop="closed", pace=6.0,
                 build=_interactive(5.0, {"candidate_limit": 10}), sessions=1),
        Workload(name="stream-push", loop="open", pace=PUSH_RATE,
                 build=_stream_push, sessions=1),
        Workload(name="stream-replay", loop="closed", pace=6.0,
                 build=_stream_replay, sessions=4),
    )
}
