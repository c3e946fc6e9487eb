"""Golden-value regression tests for the inference hot path.

Seed-RNG outputs of :class:`~repro.inference.icrf.ICrf` and
:class:`~repro.crf.gibbs.GibbsSampler` are frozen under ``tests/golden/``
and three engines must reproduce them:

* ``reference`` — the scalar oracle (``tests/reference_engine.py``)
  guards the seed semantics against accidental change;
* ``numpy`` — the engine with its merge walk in Python (the fallback of
  hosts without a C compiler);
* ``sharded`` — the engine as it runs in production, merge walk in the
  compiled kernel.

The last two ids are the names of the retired backends that ran those
walks, kept so test ids stay stable.  Both document that the engine is
numerically equivalent to the seed path — identical marginals,
groundings, and chain states for identical seeds.

Marginals, groundings and chain states are compared **exactly**.  Weights
come out of TRON matrix algebra whose last-ulp rounding can differ across
BLAS builds, so they carry a documented tolerance of 1e-8.

To re-record after an intentional semantic change::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_inference.py

Fixtures are always recorded from the ``reference`` oracle.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.api import InferenceSpec
from repro.crf.gibbs import GibbsSampler
from repro.crf.model import CrfModel
from repro.crf.weights import CrfWeights
from repro.data.state import ClaimState
from repro.datasets import load_dataset
from repro.inference.engine import SpeculativeEngine
from repro.inference.icrf import ICrf
from tests.fixtures import build_micro_database
from tests.reference_engine import PythonWalkEngine, ReferenceEngine

GOLDEN_DIR = Path(__file__).parent / "golden"
WEIGHT_TOLERANCE = 1e-8

#: Engine factories passed through the ``engine=`` test seam.
BACKENDS = {
    "reference": ReferenceEngine,
    "numpy": PythonWalkEngine,
    "sharded": SpeculativeEngine,
}


def _micro_icrf_outputs(backend: str) -> dict:
    """Two chained ICrf inferences on the micro corpus (cold + warm)."""
    database = build_micro_database()
    icrf = ICrf(
        database,
        InferenceSpec(em_iterations=3, num_samples=12, burn_in=4),
        seed=7,
        engine=BACKENDS[backend],
    )
    first = icrf.infer()
    icrf.state.label(0, 1)
    second = icrf.infer()
    return {
        "first_marginals": first.marginals.tolist(),
        "first_grounding": first.grounding.values.tolist(),
        "first_weights": first.weights.values.tolist(),
        "second_marginals": second.marginals.tolist(),
        "second_grounding": second.grounding.values.tolist(),
        "second_weights": second.weights.values.tolist(),
        "chain_state": icrf.sampler.state.tolist(),
    }


def _wiki_icrf_outputs(backend: str) -> dict:
    """One EM round at reduced wiki scale."""
    database = load_dataset("wiki", seed=42, scale=0.3)
    icrf = ICrf(
        database,
        InferenceSpec(em_iterations=2, num_samples=10, burn_in=3),
        seed=123,
        engine=BACKENDS[backend],
    )
    result = icrf.infer()
    return {
        "marginals": result.marginals.tolist(),
        "grounding": result.grounding.values.tolist(),
        "weights": result.weights.values.tolist(),
    }


def _wiki_gibbs_outputs(backend: str) -> dict:
    """Raw sampler pass with non-trivial weights, cold then warm."""
    database = load_dataset("wiki", seed=42, scale=0.3)
    state = ClaimState.of(database)
    state.label(1, 1)
    state.label(4, 0)
    rng = np.random.default_rng(3)
    size = 2 + database.document_features.shape[1] \
        + database.source_features.shape[1]
    weights = CrfWeights(0.5 * rng.normal(size=size))
    model = CrfModel(database, weights=weights)
    sampler = GibbsSampler(
        model, burn_in=4, num_samples=12, seed=11,
        engine=BACKENDS[backend],
    )
    cold = sampler.sample(state.probabilities, state.labelled_indices)
    warm = sampler.sample(state.probabilities, state.labelled_indices)
    return {
        "cold_marginals": cold.marginals.tolist(),
        "cold_mode": cold.mode_configuration.tolist(),
        "warm_marginals": warm.marginals.tolist(),
        "warm_mode": warm.mode_configuration.tolist(),
        "chain_state": sampler.state.tolist(),
    }


GOLDEN_CASES = {
    "micro_icrf": _micro_icrf_outputs,
    "wiki_icrf": _wiki_icrf_outputs,
    "wiki_gibbs": _wiki_gibbs_outputs,
}

#: Keys compared with the documented weight tolerance instead of exactly.
TOLERANT_KEYS = ("first_weights", "second_weights", "weights")


def _fixture_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


@pytest.fixture(scope="module", autouse=True)
def regenerate_if_requested():
    if os.environ.get("REGEN_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        for name, compute in GOLDEN_CASES.items():
            payload = compute("reference")
            _fixture_path(name).write_text(
                json.dumps(payload, indent=2) + "\n", encoding="utf-8"
            )


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
@pytest.mark.parametrize("backend", BACKENDS)
def test_golden(name, backend):
    path = _fixture_path(name)
    if not path.exists():
        pytest.fail(
            f"golden fixture {path} missing; record it with REGEN_GOLDEN=1"
        )
    expected = json.loads(path.read_text(encoding="utf-8"))
    actual = GOLDEN_CASES[name](backend)
    assert set(actual) == set(expected)
    for key, value in expected.items():
        produced = np.asarray(actual[key])
        recorded = np.asarray(value)
        if key in TOLERANT_KEYS:
            assert np.allclose(produced, recorded, rtol=0.0,
                               atol=WEIGHT_TOLERANCE), key
        else:
            assert np.array_equal(produced, recorded), (
                f"{name}/{key} diverged from the golden fixture"
            )
