"""Performance-regression micro-benchmarks of the inference hot path.

Speed is a tested property: the engine
(:class:`~repro.inference.engine.SpeculativeEngine`) must beat the scalar
oracle (``tests/reference_engine.py``, the seed implementation) by at
least the recorded margin on the two hot-path units — a full Gibbs sampling pass (the E-step) and one
full EM iteration (E-step + TRON M-step) — at the seed benchmark scale.
Because absolute wall-clock depends on the machine, the guarded quantity
is the *relative* speedup measured on the same host in the same process,
which is stable across hardware; ``benchmarks/perf_baseline.json`` holds
the recorded values.

A second, big-corpus tier (wiki scale 5) pits the engine's compiled
merge-walk kernel against its Python fallback walk, with its own
recorded floor (``kernel_sweep_speedup``, the median over
:data:`BIG_ROUNDS` interleaved rounds).

Modes
-----
* default — full measurement (best of 5), asserts the hard floor (3×)
  and the baseline-relative bound.
* ``PERF_SMOKE=1`` — 2 repetitions and a relaxed floor, for CI.
* ``PERF_RECORD=1`` — re-records ``perf_baseline.json`` from the current
  measurement (use after intentional hot-path changes) and writes
  ``benchmarks/results/perf_inference.txt``.

Every run prints the measured table, and always cross-checks that the
compared implementations produce *identical* marginals — a perf win that
changes results would be a bug, not a win.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.crf.gibbs import GibbsSampler
from repro.crf.model import CrfModel
from repro.crf.weights import CrfWeights
from repro.datasets import load_dataset
from repro.inference.engine import SpeculativeEngine
from repro.inference.icrf import ICrf
from tests.reference_engine import PythonWalkEngine, ReferenceEngine

BASELINE_PATH = Path(__file__).parent / "perf_baseline.json"
RESULTS_PATH = Path(__file__).parent / "results" / "perf_inference.txt"

#: Seed benchmark scale — matches the reduced-corpus scale of the
#: experiment benchmarks (see ``bench_config`` in ``conftest.py``).
SCALE = 0.6
#: Big-corpus tier: the merge walk's cost grows with claim count, so the
#: kernel's floor is measured on a large corpus.
BIG_SCALE = 5.0
#: Interleaved kernel/Python rounds of the big tier; the median speedup
#: is reported, asserted and recorded.
BIG_ROUNDS = 3
DATASET_SEED = 42

SMOKE = bool(os.environ.get("PERF_SMOKE"))
RECORD = bool(os.environ.get("PERF_RECORD"))
REPEATS = 2 if SMOKE else 5
#: Hard floor on the measured speedups (acceptance: ≥ 3× full mode).
HARD_FLOOR = 2.0 if SMOKE else 3.0
#: Fraction of the recorded baseline speedup that must be retained.
BASELINE_FRACTION = 0.5


def _best_of(callable_, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return best


def _bench_database():
    return load_dataset("wiki", seed=DATASET_SEED, scale=SCALE)


def _nontrivial_weights(database) -> CrfWeights:
    rng = np.random.default_rng(17)
    size = 2 + database.document_features.shape[1] \
        + database.source_features.shape[1]
    values = 0.4 * rng.normal(size=size)
    values[-1] = 0.3  # non-zero coupling exercises the coupled sweep path
    return CrfWeights(values)


def _sampler(database, engine) -> GibbsSampler:
    """Warmed-up sampler: chain initialised, engine caches built."""
    model = CrfModel(database, weights=_nontrivial_weights(database))
    sampler = GibbsSampler(
        model, burn_in=5, num_samples=15, seed=9, engine=engine
    )
    sampler.sample()
    return sampler


def _sampling_pass(engine):
    """Timed unit: one full Gibbs sampling pass (burn-in + samples)."""
    sampler = _sampler(_bench_database(), engine)
    elapsed = _best_of(sampler.sample)
    return elapsed, sampler.sample().marginals


def _big_sampling_passes():
    """Timed unit: one Gibbs pass on the big corpus, kernel vs Python walk.

    Both walks run the same chain from the same seed, so they must stay
    bit-identical and the timing comparison is apples to apples.  The
    two are timed in :data:`BIG_ROUNDS` interleaved rounds, so a burst of
    host noise cannot land on one walk only.
    """
    database = load_dataset("wiki", seed=DATASET_SEED, scale=BIG_SCALE)
    kernel = _sampler(database, SpeculativeEngine)
    python = _sampler(database, PythonWalkEngine)
    rounds = [
        (_best_of(python.sample), _best_of(kernel.sample))
        for _ in range(BIG_ROUNDS)
    ]
    python_s, kernel_s = (float(np.median(times)) for times in zip(*rounds))
    speedup = float(np.median([py / kr for py, kr in rounds]))
    identical = np.array_equal(
        kernel.sample().marginals, python.sample().marginals
    )
    return python_s, kernel_s, speedup, identical


def _em_iteration(engine):
    """Timed unit: one full EM iteration (Gibbs E-step + TRON M-step)."""
    database = _bench_database()
    state = database.clone_state()

    def run():
        database.restore_state(state)
        icrf = ICrf(
            database, em_iterations=1, num_samples=12, burn_in=4,
            engine=engine, seed=123,
        )
        icrf.infer()

    elapsed = _best_of(run)
    database.restore_state(state)
    icrf = ICrf(
        database, em_iterations=1, num_samples=12, burn_in=4,
        engine=engine, seed=123,
    )
    return elapsed, icrf.infer().marginals


@pytest.fixture(scope="module")
def measurements():
    sweep_ref, marg_sweep_ref = _sampling_pass(ReferenceEngine)
    sweep_eng, marg_sweep_eng = _sampling_pass(None)
    em_ref, marg_em_ref = _em_iteration(ReferenceEngine)
    em_eng, marg_em_eng = _em_iteration(None)
    big_py, big_kernel, big_speedup, big_identical = _big_sampling_passes()
    data = {
        "sweep": {"reference": sweep_ref, "engine": sweep_eng,
                  "speedup": sweep_ref / sweep_eng},
        "em": {"reference": em_ref, "engine": em_eng,
               "speedup": em_ref / em_eng},
        "combined_speedup": (sweep_ref + em_ref) / (sweep_eng + em_eng),
        "kernel": {"python": big_py, "kernel": big_kernel,
                   "speedup": big_speedup},
        "equivalent": {
            "sweep": bool(np.array_equal(marg_sweep_ref, marg_sweep_eng)),
            "em": bool(np.array_equal(marg_em_ref, marg_em_eng)),
            "kernel": bool(big_identical),
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
        "Inference hot-path micro-benchmark "
        f"(wiki scale={SCALE}, seed={DATASET_SEED}, "
        f"best of {REPEATS}{', smoke' if SMOKE else ''})",
        "",
        f"{'unit':<28}{'reference':>12}{'engine':>12}{'speedup':>10}",
        f"{'gibbs sampling pass':<28}"
        f"{data['sweep']['reference'] * 1e3:>10.2f}ms"
        f"{data['sweep']['engine'] * 1e3:>10.2f}ms"
        f"{data['sweep']['speedup']:>9.2f}x",
        f"{'full EM iteration':<28}"
        f"{data['em']['reference'] * 1e3:>10.2f}ms"
        f"{data['em']['engine'] * 1e3:>10.2f}ms"
        f"{data['em']['speedup']:>9.2f}x",
        f"{'sweep + EM combined':<28}{'':>12}{'':>12}"
        f"{data['combined_speedup']:>9.2f}x",
        "",
        f"Big-corpus tier (wiki scale={BIG_SCALE}): merge walk in Python vs "
        f"compiled kernel (median of {BIG_ROUNDS} rounds)",
        "",
        f"{'unit':<28}{'python':>12}{'kernel':>12}{'speedup':>10}",
        f"{'gibbs sampling pass':<28}"
        f"{data['kernel']['python'] * 1e3:>10.2f}ms"
        f"{data['kernel']['kernel'] * 1e3:>10.2f}ms"
        f"{data['kernel']['speedup']:>9.2f}x",
        "",
        "numerical equivalence: "
        f"sweep={'ok' if data['equivalent']['sweep'] else 'FAIL'} "
        f"em={'ok' if data['equivalent']['em'] else 'FAIL'} "
        f"kernel={'ok' if data['equivalent']['kernel'] else 'FAIL'}",
        "",
    ]
    return "\n".join(lines)


def _record_baseline(data) -> None:
    # Merge into the shared baseline file: the streaming benchmark keeps
    # its ``stream_*`` keys there too, and re-recording one benchmark
    # must not drop the other's record.
    payload = (
        json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
        if BASELINE_PATH.exists()
        else {}
    )
    payload.update(
        {
            "description": "Recorded speedups of the inference and "
                           "streaming hot paths; regression tests assert "
                           "the current speedup stays above "
                           "baseline_fraction of these and above the "
                           "hard floor.",
            "dataset": "wiki",
            "scale": SCALE,
            "dataset_seed": DATASET_SEED,
            "sweep_speedup": round(data["sweep"]["speedup"], 2),
            "em_speedup": round(data["em"]["speedup"], 2),
            "combined_speedup": round(data["combined_speedup"], 2),
            "kernel_scale": BIG_SCALE,
            "kernel_sweep_speedup": round(data["kernel"]["speedup"], 2),
            "baseline_fraction": BASELINE_FRACTION,
            "re_record": "PERF_RECORD=1 PYTHONPATH=src python -m pytest "
                         "benchmarks/test_perf_inference.py",
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


def _floor(baseline_speedup: float) -> float:
    """Required speedup: in smoke mode only the relaxed hard floor
    applies (CI runners are too noisy for baseline-relative bounds)."""
    if SMOKE:
        return HARD_FLOOR
    return max(HARD_FLOOR, baseline_speedup * BASELINE_FRACTION)


class TestNumericalEquivalence:
    def test_engines_produce_identical_marginals(self, measurements):
        assert measurements["equivalent"]["sweep"]
        assert measurements["equivalent"]["em"]

    def test_kernel_matches_python_walk_on_big_corpus(self, measurements):
        assert measurements["equivalent"]["kernel"]


class TestThroughputRegression:
    def test_sampling_pass_speedup(self, measurements):
        floor = _floor(_baseline()["sweep_speedup"])
        assert measurements["sweep"]["speedup"] >= floor, (
            f"gibbs pass speedup {measurements['sweep']['speedup']:.2f}x "
            f"fell below {floor:.2f}x"
        )

    def test_em_iteration_speedup(self, measurements):
        floor = _floor(_baseline()["em_speedup"])
        assert measurements["em"]["speedup"] >= floor, (
            f"EM iteration speedup {measurements['em']['speedup']:.2f}x "
            f"fell below {floor:.2f}x"
        )

    def test_combined_speedup_meets_acceptance(self, measurements):
        """Acceptance criterion: sweep + one full EM iteration ≥ 3×."""
        floor = _floor(_baseline()["combined_speedup"])
        assert measurements["combined_speedup"] >= floor

    def test_kernel_big_corpus_speedup(self, measurements):
        """The compiled merge walk beats the Python walk ≥ 3× at big scale."""
        floor = _floor(_baseline()["kernel_sweep_speedup"])
        assert measurements["kernel"]["speedup"] >= floor, (
            f"kernel big-corpus speedup "
            f"{measurements['kernel']['speedup']:.2f}x fell below "
            f"{floor:.2f}x"
        )
