"""End-to-end benchmark of the fact-checking service.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload interactive-small --seed 0 --seconds 14 --trace 0

Boots ``python -m repro serve`` from the checkout's ``src/``, creates the
workload's sessions (set-up), sends its scripted traffic over HTTP (the
timed phase), fetches every session's result, and checks it.  A run does
this twice, each time on a fresh server, and reports every request, and
every stretch between two requests, at its faster repetition; one more
server is only set up, so that ``setup_s`` is a median of three.  Prints
each metric with its unit, then one JSON line ``{"correct", "attempted",
"failed", "metrics"}``: the end-to-end metrics of ``BENCHMARK.json``, or
with ``--trace 1`` its per-layer metrics from one repetition on a server
started through :mod:`bench.traced_serve`.  Exits non-zero when any
request fails, any result fails a check, or the repetitions' results
differ from each other or from the digests recorded in
``bench/digests.json``.  Everything it writes lives in a temporary
directory under ``.bench_build/`` and is removed before it exits.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import signal
import statistics
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench.layers import TracedRun, per_layer_metrics  # noqa: E402
from bench.service import BenchError, Connection, Request, Server  # noqa: E402
from bench.spans import Span  # noqa: E402
from bench.stats import digest_mismatches, percentile, result_digest  # noqa: E402
from bench.workloads import REPEATS, WORKLOADS, Plan, Workload  # noqa: E402

#: Set-ups per untraced run: ``setup_s`` is their median.  The first only
#: boots a server and creates the sessions; the ``REPEATS`` after it also
#: play the script.
SETUPS = 3
DIGESTS_PATH = ROOT / "bench" / "digests.json"
WORK_DIR = ROOT / ".bench_build"


@dataclass
class Repetition:
    """Everything one repetition of the script measured."""

    setup_s: float
    requests: List[Request]
    timed: List[Request]
    finals: List[Request]
    #: (time, server CPU seconds) at fixed points of the script: after each
    #: closed-loop response, at each open-loop arrival's slot, and at the
    #: end of the timed phase.
    marks: List[Tuple[float, float]]
    rss_mb: float
    claims: int
    results: List[Optional[dict]]
    spans: List[Span] = field(default_factory=list)
    span_cost_s: float = 0.0

    def latencies(self, kind: str) -> List[float]:
        """Latencies of this kind of request, in script order; the result
        reads that end the sessions come last."""
        return [r.latency for r in self.timed + self.finals if r.kind == kind]

    def segments(self) -> List[Tuple[float, float]]:
        """Wall and server CPU seconds between consecutive marks."""
        return [(t1 - t0, c1 - c0)
                for (t0, c0), (t1, c1) in zip(self.marks, self.marks[1:])]

    @property
    def wall_s(self) -> float:
        return self.marks[-1][0] - self.marks[0][0]


def _sleep_until(instant: float) -> None:
    delay = instant - time.perf_counter()
    if delay > 0:
        time.sleep(delay)


def _claims(reply: dict, labelled: int) -> int:
    """Arrivals ingested plus claims newly labelled by one mutating reply."""
    return len(reply.get("updates", ())) + reply["summary"]["num_labelled"] - labelled


def closed_loop(
    server: Server, connection: Connection, sessions: List[dict], plan: Plan
) -> tuple:
    """One client stepping the sessions round-robin, so every stretch of
    the run mixes all sessions alike."""
    timed: List[Request] = []
    claims = 0
    labelled = [session["num_labelled"] for session in sessions]
    order = [index for turn in range(max(plan.requests))
             for index, count in enumerate(plan.requests) if turn < count]
    marks = [(time.perf_counter(), server.cpu_seconds())]
    for index in order:
        request = connection.call("POST", f"/sessions/{sessions[index]['id']}/step",
                                  plan.step_body, kind="mutate", ready=marks[-1][0])
        timed.append(request)
        marks.append((request.done, server.cpu_seconds()))
        if request.ok:
            reply = json.loads(request.body)
            claims += _claims(reply, labelled[index])
            labelled[index] = reply["summary"]["num_labelled"]
    return timed, claims, marks


def open_loop(server: Server, ids: Iterator[int], session: dict,
              plan: Plan) -> tuple:
    """Arrivals pushed on a fixed schedule while a second thread polls the
    result on its own schedule; each request is timed from its slot."""
    path = f"/sessions/{session['id']}"
    start = time.perf_counter() + 0.05
    duration = len(plan.arrivals) / plan.rate
    reads: List[Request] = []

    def poll() -> None:
        connection = Connection(server.port, ids)
        try:
            for index in range(int(duration * plan.read_rate)):
                due = start + (index + 0.5) / plan.read_rate
                _sleep_until(due)
                reads.append(connection.call("GET", f"{path}/result",
                                             kind="read", due=due))
        finally:
            connection.close()

    reader = threading.Thread(target=poll, name="bench-reader")
    reader.start()
    pushes: List[Request] = []
    marks: List[Tuple[float, float]] = []
    connection = Connection(server.port, ids)
    try:
        for index, body in enumerate(plan.arrivals):
            due = start + index / plan.rate
            _sleep_until(due)
            marks.append((due, server.cpu_seconds()))
            pushes.append(connection.call("POST", f"{path}/claims", body,
                                          kind="mutate", due=due))
    finally:
        connection.close()
        reader.join()
    marks.append((time.perf_counter(), server.cpu_seconds()))
    claims = sum(len(json.loads(r.body)["updates"]) for r in pushes if r.ok)
    return pushes + reads, claims, marks


def _scratch_dir() -> tempfile.TemporaryDirectory:
    """A new temporary directory under ``WORK_DIR``, which runs share."""
    for _ in range(10):
        WORK_DIR.mkdir(exist_ok=True)
        try:
            return tempfile.TemporaryDirectory(prefix="run-", dir=WORK_DIR)
        except FileNotFoundError:
            continue  # a finishing run removed WORK_DIR between the two calls
    raise BenchError(f"could not create a directory under {WORK_DIR}")


def execute(workload: Workload, plan: Plan, traced: bool, setups: int,
            repeats: int) -> Tuple[List[float], List[Repetition]]:
    """Set up ``setups`` servers, the last ``repeats`` of which also play
    the script; return every set-up's seconds and the repetitions."""
    try:
        with _scratch_dir() as scratch:
            setup_s: List[float] = []
            repetitions: List[Repetition] = []
            for index in range(setups):
                # A server restores every session it finds in its spool, so
                # each one gets its own directory.
                run_dir = Path(scratch) / f"server-{index}"
                run_dir.mkdir()
                if index < setups - repeats:
                    setup_s.append(_set_up_only(plan, traced, run_dir))
                else:
                    repetitions.append(_repeat(workload, plan, traced, run_dir))
                    setup_s.append(repetitions[-1].setup_s)
            return setup_s, repetitions
    finally:
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run is using it


def _set_up(server: Server, plan: Plan,
            ids: Iterator[int]) -> Tuple[float, Connection, List[Request]]:
    """Boot ``server`` and create the plan's sessions.

    Returns the seconds from spawning the server to the last session
    created, the connection that created them (the caller closes it) and
    the creation requests.
    """
    begun = time.perf_counter()
    server.start()
    connection = Connection(server.port, ids)
    created = [connection.call("POST", "/sessions", json.dumps(spec).encode())
               for spec in plan.sessions]
    for request in created:
        if not request.ok:
            connection.close()
            raise BenchError(f"creating a session failed with HTTP "
                             f"{request.status}: {request.body[:500]!r}")
    return created[-1].done - begun, connection, created


def _set_up_only(plan: Plan, traced: bool, run_dir: Path) -> float:
    """Seconds to set up a server that then stops unused."""
    server = Server(ROOT, run_dir, traced)
    try:
        seconds, connection, _ = _set_up(server, plan, itertools.count(1))
        connection.close()
        return seconds
    finally:
        server.stop(graceful=False)


def _repeat(workload: Workload, plan: Plan, traced: bool,
            run_dir: Path) -> Repetition:
    """Set up, drive and stop one server."""
    server = Server(ROOT, run_dir, traced)
    ids = itertools.count(1)
    connection: Optional[Connection] = None
    try:
        setup_s, connection, requests = _set_up(server, plan, ids)
        sessions = [json.loads(created.body) for created in requests]

        if workload.loop == "open":
            timed, claims, marks = open_loop(server, ids, sessions[0], plan)
        else:
            timed, claims, marks = closed_loop(server, connection, sessions, plan)
        rss_mb = server.peak_rss_mb()
        finals = [connection.call("GET", f"/sessions/{session['id']}/result",
                                  kind="read")
                  for session in sessions]
        requests += timed + finals
        results = [json.loads(final.body) if final.ok else None for final in finals]
    except BaseException:
        sys.stderr.write(server.log_tail() + "\n")
        raise
    finally:
        if connection is not None:
            connection.close()
        # Only the traced server has to shut down cleanly: it writes its
        # spans on the way out.
        server.stop(graceful=traced)
    repetition = Repetition(setup_s, requests, timed, finals, marks, rss_mb,
                            claims, results)
    if traced:
        recorded = json.loads(server.spans_path.read_text())
        repetition.spans = [Span(*entry) for entry in recorded["spans"]]
        repetition.span_cost_s = recorded["span_cost_s"]
    return repetition


def check_results(
    workload: Workload, plan: Plan, repetition: Repetition,
    expected: Optional[List[str]],
) -> Tuple[List[str], List[str]]:
    """Digest each session's result; return (digests, problems)."""
    problems: List[str] = []
    digests: List[str] = []
    mutating = [r for r in repetition.timed if r.kind == "mutate"]
    for index, result in enumerate(repetition.results):
        if result is None:
            digests.append("")
            continue
        digests.append(result_digest(result))
        weights = result["weights"] or []
        if not all(math.isfinite(w) for w in weights):
            problems.append(f"session {index}: non-finite weights")
        validated = result["validated_claim_ids"]
        if len(set(validated)) != len(validated):
            problems.append(f"session {index}: a claim was validated twice")
        if plan.sessions[index]["mode"] == "batch" and \
                len(validated) != plan.requests[index]:
            problems.append(f"session {index}: {len(validated)} claims validated "
                            f"by {plan.requests[index]} steps")
        if workload.loop == "open" and \
                len(result["stream_updates"]) != sum(r.ok for r in mutating):
            problems.append(f"session {index}: {len(result['stream_updates'])} "
                            f"stream updates for {len(mutating)} arrivals")
    if expected is not None:
        for index in digest_mismatches(expected, digests):
            problems.append(f"session {index}: result digest differs from "
                            f"{DIGESTS_PATH.name}")
    return digests, problems


def _fastest(repetitions: Sequence[Repetition], kind: str) -> List[float]:
    """Each request's lowest latency over the repetitions of the script."""
    return [min(column)
            for column in zip(*(rep.latencies(kind) for rep in repetitions))]


def end_to_end_metrics(setup_s: Sequence[float],
                       repetitions: Sequence[Repetition]) -> Dict[str, float]:
    mutating = _fastest(repetitions, "mutate")
    # The timed phase with each stretch between two marks at its fastest.
    wall_s = cpu_s = 0.0
    for segment in zip(*(rep.segments() for rep in repetitions)):
        wall_s += min(seconds for seconds, _ in segment)
        cpu_s += min(used for _, used in segment)
    claims = repetitions[0].claims
    return {
        "setup_s": statistics.median(setup_s),
        "latency_p50_ms": 1e3 * statistics.median(mutating),
        "latency_p75_ms": 1e3 * percentile(mutating, 75),
        "claims_per_s": claims / wall_s,
        "read_p50_ms": 1e3 * statistics.median(_fastest(repetitions, "read")),
        "cpu_ms_per_claim": 1e3 * cpu_s / claims,
        "server_rss_mb": statistics.median(rep.rss_mb for rep in repetitions),
    }


def expected_digests(workload: str, seed: int, seconds: float,
                     quick: bool) -> Optional[List[str]]:
    """Recorded digests for this script, if any were recorded."""
    if quick or not DIGESTS_PATH.exists():
        return None
    recorded = json.loads(DIGESTS_PATH.read_text())
    if recorded["seconds"] != seconds:
        return None
    return recorded["workloads"].get(workload, {}).get(str(seed))


def parse_args(argv: Optional[List[str]], run_seconds: int) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="bench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=run_seconds,
                        help="run length; sizes the workload's request script")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced server")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: one repetition, one session, a few requests")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="append this run's full record (JSON line) to FILE, "
                             "for `python -m bench compare`")
    return parser.parse_args(argv)


def _exit_on_sigterm(signum, frame) -> None:
    # Unwinds through every ``finally``, which stops the servers.
    sys.exit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, declared["run_seconds"])
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    metric_units = {
        entry["name"]: entry["unit"]
        for entry in declared["per_layer" if args.trace else "end_to_end"]
    }
    workload = WORKLOADS[args.workload]
    single = args.quick or args.trace
    plan = workload.plan(args.seed, args.seconds, args.quick)
    try:
        setup_s, repetitions = execute(
            workload, plan, traced=bool(args.trace),
            setups=1 if single else SETUPS, repeats=1 if single else REPEATS)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    if not any(r.ok for rep in repetitions for r in rep.timed) or \
            not any(r.ok for rep in repetitions for r in rep.finals):
        print("bench: no timed request succeeded; nothing to measure",
              file=sys.stderr)
        return 1
    expected = expected_digests(args.workload, args.seed, args.seconds, args.quick)
    failed = sum(not r.ok for rep in repetitions for r in rep.requests)
    problems: List[str] = []
    digests: List[str] = []
    for index, repetition in enumerate(repetitions):
        found, trouble = check_results(workload, plan, repetition, expected)
        if digests and found != digests:
            trouble.append("result digests differ from the first repetition's")
        if repetition.claims != repetitions[0].claims:
            trouble.append(f"{repetition.claims} claims processed, the first "
                           f"repetition {repetitions[0].claims}")
        digests = digests or found
        problems += [f"repetition {index}: {line}" for line in trouble]
    failed += len(problems)
    if args.trace:
        traced = TracedRun(repetitions[0].spans,
                           repetitions[0].timed + repetitions[0].finals)
        metrics = per_layer_metrics(traced, repetitions[0].span_cost_s)
    else:
        metrics = end_to_end_metrics(setup_s, repetitions)
    if set(metrics) != set(metric_units):
        raise RuntimeError(f"computed metrics {sorted(metrics)} do not match "
                           f"BENCHMARK.json {sorted(metric_units)}")

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}: {len(repetitions)} x "
          f"{sum(r.kind == 'mutate' for r in repetitions[0].timed)} timed requests, "
          f"{repetitions[0].claims} claims each, in "
          f"{', '.join(f'{rep.wall_s:.2f}' for rep in repetitions)} s; "
          f"digests {'checked' if expected is not None else 'not recorded'}")
    for problem in problems:
        print(f"# FAILED: {problem}")
    for name, unit in metric_units.items():
        print(f"{name:<28} {metrics[name]:>14.4f} {unit}")
    summary = {
        "correct": failed == 0,
        "attempted": sum(len(rep.requests) for rep in repetitions),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in metric_units.items()},
    }
    if args.out is not None:
        record = dict(summary, workload=args.workload, seed=args.seed,
                      seconds=args.seconds, trace=args.trace, quick=args.quick,
                      digests=digests)
        if args.trace:
            record["shares"] = traced.self_shares()
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
