"""Smoke and unit tests of the end-to-end benchmark (about 15 s).

The smoke test runs every workload with ``--quick`` against a real
``repro serve``, traced and untraced, and checks the printed result line
against ``BENCHMARK.json``; the unit tests cover the percentile rule, the
self-time arithmetic and digest checking.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from bench.report import compare, verdict
from bench.spans import Span, self_times
from bench.stats import digest_mismatches, percentile, result_digest
from bench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tree_state(root: Path) -> dict:
    """Every path under ``root`` (except ``.git``) with its size and mtime."""
    state = {}
    for directory, subdirs, files in os.walk(root):
        subdirs[:] = [d for d in subdirs if not (directory == str(root) and d == ".git")]
        for name in subdirs + files:
            path = Path(directory, name)
            stat = path.lstat()
            state[str(path.relative_to(root))] = (stat.st_size, stat.st_mtime_ns)
    return state


def _quick_run(workload: str, trace: int, out: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--quick",
         "--trace", str(trace), "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )


def test_quick_runs_report_every_metric_and_write_nothing(tmp_path):
    before = _tree_state(ROOT)
    jobs = [(workload, trace) for workload in WORKLOADS for trace in (0, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = list(pool.map(
            lambda job: _quick_run(*job, tmp_path / f"{job[0]}-{job[1]}.jsonl"),
            jobs,
        ))
    for (workload, trace), run in zip(jobs, runs):
        assert run.returncode == 0, f"{workload} trace={trace}:\n{run.stderr}"
        result = json.loads(run.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        declared = DECLARED["per_layer" if trace else "end_to_end"]
        assert {name: entry["unit"] for name, entry in result["metrics"].items()} \
            == {entry["name"]: entry["unit"] for entry in declared}
        for line in run.stdout.splitlines()[:-1]:
            assert not line.startswith("# FAILED"), line
    assert _tree_state(ROOT) == before


def test_percentile_rule():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50.5
    assert percentile(values, 90) == 90.9
    assert percentile([7.0], 90) == 7.0
    # Every full-length script keeps at least ten samples beyond its p75.
    for workload in WORKLOADS.values():
        count = workload.request_count(DECLARED["run_seconds"])
        assert count * (100 - 75) / 100 >= 10, workload.name


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(1, None, 7, "http.handle", 0.0, 10.0),
        Span(2, 1, 7, "manager.step", 1.0, 4.0),
        Span(3, 1, 7, "api.save", 3.0, 6.0),       # overlaps its sibling
        Span(4, 2, 7, "validation.step", 2.0, 3.0),
        Span(5, 1, 7, "api.save", 9.0, 12.0),      # outlives its parent
    ]
    assert self_times(spans) == {1: 4.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 3.0}


def test_tampered_result_fails_its_digest():
    result = {
        "validated_claim_ids": ["c1", "c7"],
        "weights": [0.25, -1.5],
        "trace": {"records": [{"response_seconds": 0.1}]},
    }
    expected = [result_digest(result)]
    retimed = dict(result, trace={"records": [{"response_seconds": 0.2}]})
    assert digest_mismatches(expected, [result_digest(retimed)]) == []
    tampered = dict(result, weights=[0.25, -1.5000000000000002])
    assert digest_mismatches(expected, [result_digest(tampered)]) == [0]
    assert digest_mismatches(expected, []) == [0]

    def run(seed, digests):
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
                   for m in DECLARED["end_to_end"]}
        return {"workload": "stream-push", "seed": seed, "trace": 0,
                "metrics": metrics, "digests": digests}

    table, ok = compare([run(0, expected)], [run(0, expected)], DECLARED)
    assert ok and "equal on 1 common seed" in table
    table, ok = compare([run(0, expected)], [run(0, ["0" * 64])], DECLARED)
    assert not ok and "DIFFER on seeds [0]" in table


def test_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(steady, [v * 1.2 for v in steady], "lower", 0.1)[1] == "worse"
    assert verdict(steady, [v * 1.2 for v in steady], "higher", 0.1)[1] == "better"
    assert verdict(steady, [v * 1.01 for v in steady], "lower", 0.1)[1] == "same"
    noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
    assert verdict(noisy, [v * 1.05 for v in noisy], "lower", 0.1)[1] == "unresolved"
    assert verdict(noisy, [v * 1.05 for v in noisy], "higher", 0.1)[1] == "unresolved"
    # Too noisy for the bound, but every run of one set beats every other.
    assert verdict(noisy, [v * 0.3 for v in noisy], "higher", 0.1)[1] == "worse"
    assert verdict(noisy, [v * 0.3 for v in noisy], "lower", 0.1)[1] == "better"
