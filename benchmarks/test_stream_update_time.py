"""Benchmark E12 — §8.8 streaming update time, promoted to a regression gate.

Two parts share this module:

* the **experiment table** (E12): replays each reduced-scale corpus as a
  stream and reports the per-arrival cost, now split into the ingest
  phase (structure growth, Alg. 2 lines 2–6) and the online-EM phase
  (lines 8–9);
* the **regression benchmark**: replays the wiki corpus at benchmark
  scale twice — once with the default incremental engine growth and once
  with ``incremental=False`` (the historical rebuild-per-arrival path,
  kept as the reference oracle) — asserts the two runs are bit-for-bit
  identical (per-arrival weights and final probabilities), and asserts
  the incremental path is at least ``HARD_FLOOR``× faster per arrival.
  ``benchmarks/perf_baseline.json`` records the measured speedups
  (``stream_*`` keys) next to the inference hot-path ones.

Modes
-----
* default — full measurement at ``SCALE`` (wiki ×8), hard floor 5×
  total and 5× ingest-phase speedup, plus the baseline-relative bound.
* ``PERF_SMOKE=1`` — reduced scale (wiki ×2) with relaxed floors, for
  CI runners.
* ``PERF_RECORD=1`` — re-records the ``stream_*`` keys of
  ``benchmarks/perf_baseline.json`` from the current measurement (use
  after intentional streaming hot-path changes)::

      PERF_RECORD=1 PYTHONPATH=src python -m pytest \
          benchmarks/test_stream_update_time.py

Every run prints the experiment table and the raw regression numbers;
``PERF_RECORD=1`` also writes them to
``benchmarks/results/stream_update_time.txt``.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.experiments import stream_update_time
from repro.streaming.process import StreamingFactChecker
from repro.streaming.stream import stream_from_database

BASELINE_PATH = Path(__file__).parent / "perf_baseline.json"
RESULTS_PATH = Path(__file__).parent / "results" / "stream_update_time.txt"

DATASET_SEED = 42
CHECKER_SEED = 5

SMOKE = bool(os.environ.get("PERF_SMOKE"))
RECORD = bool(os.environ.get("PERF_RECORD"))
#: Corpus scale of the regression measurement.  The rebuild path pays
#: O(corpus) per arrival, so the contrast (and the measurement's noise
#: margin) grows with scale; smoke mode trades margin for runtime.
SCALE = 2.0 if SMOKE else 8.0
#: Hard floor on the per-arrival speedup (acceptance: ≥ 5× full mode).
HARD_FLOOR = 1.6 if SMOKE else 5.0
#: Hard floor on the ingest-phase speedup — the structural cost the
#: incremental engine eliminates; wider margin than the total.
INGEST_FLOOR = 2.0 if SMOKE else 5.0
#: Fraction of the recorded baseline speedup that must be retained.
BASELINE_FRACTION = 0.5


def _replay(arrivals, incremental: bool):
    """One full stream replay; returns timings and the oracle trail."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        checker = StreamingFactChecker(
            incremental=incremental, seed=CHECKER_SEED
        )
    ingest = update = 0.0
    weight_trail = []
    started = time.perf_counter()
    for arrival in arrivals:
        result = checker.observe(arrival)
        ingest += result.ingest_seconds
        update += result.update_seconds
        weight_trail.append(result.weights.values)
    total = time.perf_counter() - started
    return {
        "total": total,
        "ingest": ingest,
        "update": update,
        "weights": weight_trail,
        "probabilities": np.asarray(checker.database.probabilities).copy(),
    }


def _measure():
    database = load_dataset("wiki", seed=DATASET_SEED, scale=SCALE)
    arrivals = list(stream_from_database(database))
    incremental = _replay(arrivals, incremental=True)
    rebuild = _replay(arrivals, incremental=False)
    if rebuild["total"] / incremental["total"] < HARD_FLOOR * 1.15:
        # Marginal result: re-measure once and keep the best of the two
        # trials per path, rejecting transient load spikes on the host.
        second_inc = _replay(arrivals, incremental=True)
        second_reb = _replay(arrivals, incremental=False)
        for key in ("total", "ingest", "update"):
            incremental[key] = min(incremental[key], second_inc[key])
            rebuild[key] = min(rebuild[key], second_reb[key])
    equivalent = {
        "weights": all(
            np.array_equal(a, b)
            for a, b in zip(incremental["weights"], rebuild["weights"])
        )
        and len(incremental["weights"]) == len(rebuild["weights"]),
        "probabilities": np.array_equal(
            incremental["probabilities"], rebuild["probabilities"]
        ),
    }
    return {
        "arrivals": len(arrivals),
        "num_cliques": database.num_cliques,
        "incremental": {k: incremental[k] for k in ("total", "ingest", "update")},
        "rebuild": {k: rebuild[k] for k in ("total", "ingest", "update")},
        "total_speedup": rebuild["total"] / incremental["total"],
        "ingest_speedup": rebuild["ingest"] / incremental["ingest"],
        "equivalent": equivalent,
    }


@pytest.fixture(scope="module")
def measurements(bench_config):
    data = _measure()
    table = _format_results(
        stream_update_time.run(bench_config).format_table(), data
    )
    print(table)
    if RECORD:
        RESULTS_PATH.parent.mkdir(exist_ok=True)
        RESULTS_PATH.write_text(table, encoding="utf-8")
        _record_baseline(data)
    return data


def _format_results(table: str, data) -> str:
    n = data["arrivals"]
    lines = [
        table,
        "",
        "Incremental-vs-rebuild regression "
        f"(wiki scale={SCALE}, seed={DATASET_SEED}, {n} arrivals, "
        f"{data['num_cliques']} cliques{', smoke' if SMOKE else ''})",
        "",
        f"{'per arrival':<22}{'rebuild':>12}{'incremental':>14}{'speedup':>10}",
        f"{'total':<22}"
        f"{data['rebuild']['total'] / n * 1e3:>10.2f}ms"
        f"{data['incremental']['total'] / n * 1e3:>12.2f}ms"
        f"{data['total_speedup']:>9.2f}x",
        f"{'ingest phase':<22}"
        f"{data['rebuild']['ingest'] / n * 1e3:>10.2f}ms"
        f"{data['incremental']['ingest'] / n * 1e3:>12.2f}ms"
        f"{data['ingest_speedup']:>9.2f}x",
        f"{'online-EM phase':<22}"
        f"{data['rebuild']['update'] / n * 1e3:>10.2f}ms"
        f"{data['incremental']['update'] / n * 1e3:>12.2f}ms",
        "",
        "bit-for-bit equivalence: "
        f"weights={'ok' if data['equivalent']['weights'] else 'FAIL'} "
        f"probabilities={'ok' if data['equivalent']['probabilities'] else 'FAIL'}",
        "",
    ]
    return "\n".join(lines)


def _record_baseline(data) -> None:
    payload = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    payload.update(
        {
            "stream_scale": SCALE,
            "stream_arrivals": data["arrivals"],
            "stream_total_speedup": round(data["total_speedup"], 2),
            "stream_ingest_speedup": round(data["ingest_speedup"], 2),
            "stream_re_record": "PERF_RECORD=1 PYTHONPATH=src python -m "
            "pytest benchmarks/test_stream_update_time.py",
        }
    )
    BASELINE_PATH.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )


def _baseline():
    if not BASELINE_PATH.exists():
        pytest.fail(f"{BASELINE_PATH} missing; record it with PERF_RECORD=1")
    return json.loads(BASELINE_PATH.read_text(encoding="utf-8"))


def _floor(hard: float, baseline_key: str) -> float:
    """Required speedup: in smoke mode only the relaxed hard floor
    applies (CI runners are too noisy for baseline-relative bounds, and
    the smoke scale differs from the recorded one)."""
    if SMOKE:
        return hard
    recorded = _baseline().get(baseline_key)
    if recorded is None:
        return hard
    return max(hard, recorded * BASELINE_FRACTION)


def test_experiment_table_reports_phases(bench_config, measurements):
    """E12 sanity: the table carries the phase split and sane values."""
    result = stream_update_time.run(bench_config)
    for avg, ingest, update in zip(
        result.column("avg_seconds"),
        result.column("avg_ingest"),
        result.column("avg_update"),
    ):
        assert avg >= 0.0 and ingest >= 0.0 and update >= 0.0
        assert avg == pytest.approx(ingest + update, abs=1e-9)


class TestStreamingOracle:
    def test_incremental_matches_rebuild_bit_for_bit(self, measurements):
        assert measurements["equivalent"]["weights"]
        assert measurements["equivalent"]["probabilities"]


class TestStreamUpdateRegression:
    def test_per_arrival_speedup(self, measurements):
        floor = _floor(HARD_FLOOR, "stream_total_speedup")
        assert measurements["total_speedup"] >= floor, (
            f"per-arrival speedup {measurements['total_speedup']:.2f}x "
            f"fell below {floor:.2f}x"
        )

    def test_ingest_phase_speedup(self, measurements):
        floor = _floor(INGEST_FLOOR, "stream_ingest_speedup")
        assert measurements["ingest_speedup"] >= floor, (
            f"ingest-phase speedup {measurements['ingest_speedup']:.2f}x "
            f"fell below {floor:.2f}x"
        )
