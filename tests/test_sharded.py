"""Tests of the engine's compiled-kernel walk, from the sharded-backend era.

The file and its test ids are named after the retired ``sharded``
backend, whose one-shard configuration was the in-process compiled
kernel walk that :class:`~repro.inference.engine.SpeculativeEngine` now
always runs; they are kept so test ids stay stable.  Three contracts:

* **Config** — the shard count is no longer a spec field.
* **Exactness** — the kernel walk reproduces the Python walk and the
  scalar oracle bit for bit, including on an unsorted claim subset of a
  wiki corpus.
* **Gain chains** — the gain estimator's throwaway Gibbs chains run on
  the model's one memoised engine.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.specs import InferenceSpec
from repro.crf.gibbs import GibbsSampler
from repro.crf.model import CrfModel
from repro.data.state import ClaimState
from repro.errors import SpecError
from repro.inference.engine import SpeculativeEngine, create_engine
from repro.inference.mstep import MStepConfig
from tests.fixtures import build_micro_database, random_databases
from tests.reference_engine import PythonWalkEngine, ReferenceEngine
from tests.test_engine import apply_random_labels, random_weights


def wiki_model(scale=1.0, seed_weights=3):
    from repro.datasets import load_dataset

    database = load_dataset("wiki", seed=42, scale=scale)
    state = ClaimState.of(database)
    state.label(1, 1)
    state.label(4, 0)
    weights = random_weights(database, seed=seed_weights, scale=0.5)
    return database, state, weights


class TestConfig:
    def test_spec_validates_num_shards(self):
        """``num_shards`` is not a spec field; naming it is a SpecError."""
        with pytest.raises(SpecError) as excinfo:
            InferenceSpec.from_dict({"num_shards": 2})
        assert excinfo.value.field == "num_shards"
        assert "num_shards" not in InferenceSpec().to_dict()


class TestOneShardEquivalence:
    """Kernel walk (the old 1-shard engine) == Python walk, bit for bit."""

    @settings(max_examples=25, deadline=None)
    @given(random_databases(), st.integers(0, 10_000))
    def test_chains_identical(self, database, seed):
        state = apply_random_labels(database, seed)
        held = state.labelled_indices
        weights = random_weights(database, seed)
        model_py = CrfModel(database, weights=weights)
        model_kernel = CrfModel(database, weights=weights)
        python_walk = GibbsSampler(
            model_py, burn_in=3, num_samples=8, seed=seed,
            engine=PythonWalkEngine,
        )
        kernel_walk = GibbsSampler(
            model_kernel, burn_in=3, num_samples=8, seed=seed
        )
        result_py = python_walk.sample(state.probabilities, held)
        result_kernel = kernel_walk.sample(state.probabilities, held)
        assert np.array_equal(result_py.marginals, result_kernel.marginals)
        assert np.array_equal(python_walk.state, kernel_walk.state)
        # Warm-started second pass stays in lockstep too.
        assert np.array_equal(
            python_walk.sample(state.probabilities, held).marginals,
            kernel_walk.sample(state.probabilities, held).marginals,
        )

    def test_mstep_identical(self):
        """Wiki-scale M-step assembly == the oracle's, bit for bit."""
        database, state, weights = wiki_model(scale=0.3)
        model = CrfModel(database, weights=weights)
        state.set_probabilities(np.random.default_rng(5).random(database.num_claims))
        for min_coverage in (1, 3):
            config = MStepConfig(min_coverage=min_coverage)
            reference = ReferenceEngine(model).assemble_mstep(state, config)
            assembled = create_engine(model).assemble_mstep(state, config)
            for reference_part, assembled_part in zip(reference, assembled):
                assert np.array_equal(reference_part, assembled_part)


class TestMultiShardEquivalence:
    def test_unsorted_claim_subset_falls_back_inline(self):
        """Both walks match the oracle on an unsorted wiki claim subset."""
        database, state, weights = wiki_model(scale=0.3)
        subset = [7, 2, 11, 5, 3]
        chains = {}
        for name, factory in (
            ("reference", ReferenceEngine),
            ("python", PythonWalkEngine),
            ("kernel", SpeculativeEngine),
        ):
            model = CrfModel(database, weights=weights)
            sampler = GibbsSampler(
                model, burn_in=2, num_samples=6, seed=5, engine=factory
            )
            chains[name] = (
                sampler.sample(
                    state.probabilities, state.labelled_indices, subset
                ).marginals,
                sampler.state,
            )
        for name in ("python", "kernel"):
            assert np.array_equal(chains["reference"][0], chains[name][0])
            assert np.array_equal(chains["reference"][1], chains[name][1])


class TestGainParallelConstruction:
    """Gain estimator construction and its Gibbs-chain engine.

    Names say "parallel" only so the test ids stay stable; candidates
    are evaluated one after another.
    """

    def test_parallel_does_not_warn_in_either_mode(self):
        import warnings as warnings_module

        from repro.guidance.gain import GainConfig, GainEstimator

        for mode in ("meanfield", "gibbs"):
            model = CrfModel(build_micro_database())
            with warnings_module.catch_warnings():
                warnings_module.simplefilter("error")
                GainEstimator(model, config=GainConfig(inference_mode=mode))

    def test_parallel_gibbs_leases_sharded_worker_engines(self):
        """The throwaway chains run on the model's one memoised engine."""
        from repro.guidance.gain import GainConfig, GainEstimator

        database = build_micro_database()
        model = CrfModel(database)
        estimator = GainEstimator(
            model, config=GainConfig(inference_mode="gibbs"), seed=3
        )
        estimator.information_gains(
            list(range(database.num_claims)), ClaimState.of(database)
        )
        engines = list(model._engine_cache.values())
        assert engines == [create_engine(model)]
        assert type(engines[0]) is SpeculativeEngine
