"""Performance-regression benchmark of batched gain evaluation (§5.1).

The batch-selection hot path evaluates IG(c) for every candidate of a
guidance round — two hypothetical inference runs per candidate plus a
shared per-component baseline.  The estimator evaluates one snapshot per
call and the candidates of a component as one block of hypotheses: in
mean-field mode one K×n operator call with its coupling sums in the
compiled kernel, in Gibbs mode one throwaway chain per row on the
model's engine, merge walk in the compiled kernel.  It must beat the
mutate-and-restore oracle (``tests/gain_oracle.py``: label the candidate
in the live database, run the per-row NumPy mean field of
``tests/meanfield_oracle.py`` or sweep with the merge walk in Python,
restore) by the recorded margin on the full candidate pool in both
modes — the gain round must keep the kernels' speedups.

Modes
-----
* default — full measurement (best of 3), asserts the hard floors (2×
  Gibbs, 3× mean field) and the baseline-relative bounds.
* ``PERF_SMOKE=1`` — 2 repetitions and relaxed floors, for CI.
* ``PERF_RECORD=1`` — re-records the ``gain_oracle_*`` keys of
  ``benchmarks/perf_baseline.json`` (use after intentional changes) and
  writes ``benchmarks/results/perf_gain.txt``.

Every run prints the measured table, and always cross-checks that the estimator and the oracle
produce *identical* gains in both inference modes — a perf win that
changes results would be a bug, not a win.

The test names still say "parallel" only so their ids stay stable; no
candidate is evaluated in parallel.  "Parallel" reads as "estimator"
and "sequential" as "oracle".
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.crf.model import CrfModel
from repro.crf.partition import ComponentIndex
from repro.crf.weights import CrfWeights
from repro.datasets import load_dataset
from repro.guidance.gain import GainConfig, GainEstimator

from tests.gain_oracle import oracle_gains

BASELINE_PATH = Path(__file__).parent / "perf_baseline.json"
RESULTS_PATH = Path(__file__).parent / "results" / "perf_gain.txt"

#: Guidance-round scale: large enough that hypothetical chains dominate
#: the round (the regime batch selection actually runs in).
SCALE = 2.0
DATASET_SEED = 42
GAIN_SEED = 1

SMOKE = bool(os.environ.get("PERF_SMOKE"))
RECORD = bool(os.environ.get("PERF_RECORD"))
REPEATS = 2 if SMOKE else 3
#: Hard floor on the Gibbs-mode speedup over the oracle (acceptance: ≥ 2×).
HARD_FLOOR = 1.2 if SMOKE else 2.0
#: Hard floor on the mean-field speedup over the oracle (acceptance: ≥ 3×).
MEANFIELD_FLOOR = 1.5 if SMOKE else 3.0
#: Fraction of the recorded baseline speedup that must be retained.
BASELINE_FRACTION = 0.5


def _best_of(callable_, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return best


def _nontrivial_weights(database) -> CrfWeights:
    rng = np.random.default_rng(17)
    size = 2 + database.document_features.shape[1] \
        + database.source_features.shape[1]
    values = 0.4 * rng.normal(size=size)
    values[-1] = 0.3  # non-zero coupling exercises the coupled sweep path
    return CrfWeights(values)


def _gain_round(mode: str, oracle: bool):
    """Timed unit: IG_C over the full candidate pool of one round."""
    database = load_dataset("wiki", seed=DATASET_SEED, scale=SCALE)
    model = CrfModel(database, weights=_nontrivial_weights(database))
    estimator = GainEstimator(
        model,
        ComponentIndex(database),
        config=GainConfig(inference_mode=mode),
        seed=GAIN_SEED,
    )
    candidates = database.unlabelled_indices
    if oracle:
        def evaluate():
            return oracle_gains(estimator, candidates)
    else:
        def evaluate():
            return estimator.information_gains(candidates)
    evaluate()  # warm-up: caches + engines
    elapsed = _best_of(evaluate)
    return elapsed, evaluate()


@pytest.fixture(scope="module")
def measurements():
    gibbs_oracle, gains_gibbs_oracle = _gain_round("gibbs", oracle=True)
    gibbs, gains_gibbs = _gain_round("gibbs", oracle=False)
    mf_oracle, gains_mf_oracle = _gain_round("meanfield", oracle=True)
    mf, gains_mf = _gain_round("meanfield", oracle=False)
    data = {
        "gibbs": {"oracle": gibbs_oracle, "estimator": gibbs,
                  "speedup": gibbs_oracle / gibbs},
        "meanfield": {"oracle": mf_oracle, "estimator": mf,
                      "speedup": mf_oracle / mf},
        "num_candidates": int(gains_gibbs.size),
        "equivalent": {
            "gibbs": bool(np.array_equal(gains_gibbs_oracle, gains_gibbs)),
            "meanfield": bool(np.array_equal(gains_mf_oracle, gains_mf)),
        },
    }
    table = _format_results(data)
    print(table)
    if RECORD:
        RESULTS_PATH.parent.mkdir(exist_ok=True)
        RESULTS_PATH.write_text(table, encoding="utf-8")
        _record_baseline(data)
    return data


def _format_results(data) -> str:
    lines = [
        "Batched gain-evaluation benchmark "
        f"(wiki scale={SCALE}, seed={DATASET_SEED}, "
        f"{data['num_candidates']} candidates, best of {REPEATS}"
        f"{', smoke' if SMOKE else ''})",
        "",
        f"{'unit':<28}{'oracle':>12}{'estimator':>12}{'speedup':>10}",
        f"{'gibbs gain round':<28}"
        f"{data['gibbs']['oracle'] * 1e3:>10.2f}ms"
        f"{data['gibbs']['estimator'] * 1e3:>10.2f}ms"
        f"{data['gibbs']['speedup']:>9.2f}x",
        f"{'meanfield gain round':<28}"
        f"{data['meanfield']['oracle'] * 1e3:>10.2f}ms"
        f"{data['meanfield']['estimator'] * 1e3:>10.2f}ms"
        f"{data['meanfield']['speedup']:>9.2f}x",
        "",
        "bit-for-bit equivalence: "
        f"gibbs={'ok' if data['equivalent']['gibbs'] else 'FAIL'} "
        f"meanfield={'ok' if data['equivalent']['meanfield'] else 'FAIL'}",
        "",
        "(oracle = mutate-and-restore, per-row NumPy mean field or merge",
        " walk in Python; estimator = one snapshot, a block of hypotheses",
        " per component: one mean-field call with compiled coupling sums,",
        " or Gibbs chains on the compiled merge kernel.  Both floors are",
        " guarded.)",
        "",
    ]
    return "\n".join(lines)


def _record_baseline(data) -> None:
    # Merge into the shared baseline file: the inference and streaming
    # benchmarks keep their keys there too, and re-recording one
    # benchmark must not drop the others' records.
    payload = (
        json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
        if BASELINE_PATH.exists()
        else {}
    )
    payload.update(
        {
            "gain_oracle_scale": SCALE,
            "gain_oracle_candidates": data["num_candidates"],
            "gain_oracle_speedup": round(data["gibbs"]["speedup"], 2),
            "gain_oracle_meanfield_speedup": round(
                data["meanfield"]["speedup"], 2
            ),
            "gain_re_record": "PERF_RECORD=1 PYTHONPATH=src python -m "
                              "pytest benchmarks/test_perf_gain.py",
        }
    )
    BASELINE_PATH.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )


def _baseline():
    if not BASELINE_PATH.exists():
        pytest.fail(
            f"{BASELINE_PATH} missing; record it with PERF_RECORD=1"
        )
    return json.loads(BASELINE_PATH.read_text(encoding="utf-8"))


def _floor(baseline_speedup: float, hard_floor: float = HARD_FLOOR) -> float:
    """Required speedup: in smoke mode only the relaxed hard floor
    applies (CI runners are too noisy for baseline-relative bounds)."""
    if SMOKE:
        return hard_floor
    return max(hard_floor, baseline_speedup * BASELINE_FRACTION)


class TestBitForBitEquivalence:
    def test_parallel_gains_identical_to_sequential(self, measurements):
        assert measurements["equivalent"]["gibbs"]
        assert measurements["equivalent"]["meanfield"]


class TestGainParallelRegression:
    def test_gibbs_parallel_speedup(self, measurements):
        """Acceptance criterion: gibbs-mode estimator ≥ 2× the oracle."""
        floor = _floor(_baseline()["gain_oracle_speedup"])
        assert measurements["gibbs"]["speedup"] >= floor, (
            f"gibbs gain-round speedup "
            f"{measurements['gibbs']['speedup']:.2f}x fell below "
            f"{floor:.2f}x"
        )

    def test_meanfield_speedup(self, measurements):
        """Acceptance criterion: mean-field estimator ≥ 3× the oracle."""
        floor = _floor(
            _baseline()["gain_oracle_meanfield_speedup"], MEANFIELD_FLOOR
        )
        assert measurements["meanfield"]["speedup"] >= floor, (
            f"meanfield gain-round speedup "
            f"{measurements['meanfield']['speedup']:.2f}x fell below "
            f"{floor:.2f}x"
        )
