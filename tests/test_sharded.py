"""Tests of the sharded multi-core inference backend.

Three contracts, in rising order of machinery:

* **Config** — ``num_shards`` plumbs through :class:`EngineConfig` and
  :class:`InferenceSpec` with field-level validation, and shard counts
  memoise as distinct engines per model.
* **Exactness** — any shard count reproduces the reference/numpy chain
  and M-step assembly bit-for-bit: a 1-shard engine (compiled merge
  kernel, no pool) on arbitrary hypothesis corpora, and real 2/3-worker
  pools on a corpus big enough to split.
* **Lifecycle** — worker death mid-call surfaces a structured
  :class:`InferenceError` with the chain untouched, the pool self-heals
  on the next call, and session close / service eviction shut pools
  down.
"""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import FactCheckSession, SessionSpec
from repro.api.specs import InferenceSpec
from repro.crf.gibbs import GibbsSampler
from repro.crf.model import CrfModel
from repro.errors import InferenceError, SpecError
from repro.inference.engine import (
    ENGINE_BACKENDS,
    EngineConfig,
    NumpyEngine,
    ReferenceEngine,
    ShardedEngine,
    create_engine,
)
from repro.inference.engine.sharded import _FORK_AVAILABLE, _partition_claims
from repro.inference.mstep import MStepConfig
from tests.fixtures import build_micro_database, random_databases
from tests.test_engine import apply_random_labels, random_weights

needs_fork = pytest.mark.skipif(
    not _FORK_AVAILABLE, reason="fork start method unavailable"
)


def wiki_model(scale=1.0, seed_weights=3):
    from repro.datasets import load_dataset

    database = load_dataset("wiki", seed=42, scale=scale)
    database.label(1, 1)
    database.label(4, 0)
    weights = random_weights(database, seed=seed_weights, scale=0.5)
    return database, weights


class TestConfig:
    def test_registry_has_sharded(self):
        assert ENGINE_BACKENDS["sharded"] is ShardedEngine

    def test_num_shards_requires_sharded_backend(self):
        with pytest.raises(InferenceError):
            EngineConfig(backend="numpy", num_shards=2)
        with pytest.raises(InferenceError):
            EngineConfig(backend="sharded", num_shards=0)
        assert EngineConfig(backend="sharded", num_shards=2).cache_key == "sharded[2]"

    def test_spec_validates_num_shards(self):
        with pytest.raises(SpecError) as excinfo:
            InferenceSpec(engine="numpy", num_shards=2)
        assert excinfo.value.field == "num_shards"
        with pytest.raises(SpecError):
            InferenceSpec(engine="sharded", num_shards=0)
        spec = InferenceSpec(engine="sharded", num_shards=3)
        config = spec.engine_config()
        assert config.backend == "sharded" and config.num_shards == 3
        assert InferenceSpec.from_dict(spec.to_dict()) == spec

    def test_shard_counts_memoise_separately(self):
        model = CrfModel(build_micro_database())
        one = create_engine(model, EngineConfig("sharded", num_shards=1))
        two = create_engine(model, EngineConfig("sharded", num_shards=2))
        assert one is not two
        assert one is create_engine(model, EngineConfig("sharded", num_shards=1))

    def test_partition_covers_and_balances(self):
        ptr = np.array([0, 3, 3, 10, 12, 12, 20], dtype=np.intp)
        ranges = _partition_claims(ptr, 3)
        assert ranges[0][0] == 0 and ranges[-1][1] == 6
        for (_, hi), (lo, _) in zip(ranges[:-1], ranges[1:]):
            assert hi == lo
        assert _partition_claims(ptr, 100)[-1][1] == 6


class TestOneShardEquivalence:
    """1-shard sharded (compiled kernel, no pool) == numpy, bit for bit."""

    @settings(max_examples=25, deadline=None)
    @given(random_databases(), st.integers(0, 10_000))
    def test_chains_identical(self, database, seed):
        apply_random_labels(database, seed)
        weights = random_weights(database, seed)
        model_np = CrfModel(database, weights=weights)
        model_sh = CrfModel(database, weights=weights)
        vec = GibbsSampler(
            model_np, burn_in=3, num_samples=8, seed=seed,
            engine=NumpyEngine(model_np),
        )
        sharded = GibbsSampler(
            model_sh, burn_in=3, num_samples=8, seed=seed,
            engine=ShardedEngine(model_sh, EngineConfig("sharded", num_shards=1)),
        )
        result_vec = vec.sample()
        result_sh = sharded.sample()
        assert np.array_equal(result_vec.marginals, result_sh.marginals)
        assert np.array_equal(vec.state, sharded.state)
        # Warm-started second pass stays in lockstep too.
        assert np.array_equal(vec.sample().marginals, sharded.sample().marginals)

    @settings(max_examples=25, deadline=None)
    @given(random_databases(), st.integers(0, 10_000))
    def test_mstep_identical(self, database, seed):
        apply_random_labels(database, seed)
        model = CrfModel(database, weights=random_weights(database, seed))
        marginals = np.random.default_rng(seed).random(database.num_claims)
        label_idx, label_val = database.label_arrays()
        marginals[label_idx] = label_val
        config = MStepConfig()
        vec = NumpyEngine(model).assemble_mstep(marginals, config)
        sharded = ShardedEngine(
            model, EngineConfig("sharded", num_shards=1)
        ).assemble_mstep(marginals, config)
        if vec is None:
            assert sharded is None
            return
        for vector_part, sharded_part in zip(vec, sharded):
            assert np.array_equal(vector_part, sharded_part)


@needs_fork
class TestMultiShardEquivalence:
    """Real worker pools reproduce the reference chain bit for bit."""

    @pytest.mark.parametrize("num_shards", [2, 3])
    def test_chains_and_mstep_match_reference(self, num_shards):
        database, weights = wiki_model()
        model_ref = CrfModel(database, weights=weights)
        model_sh = CrfModel(database, weights=weights)
        ref = GibbsSampler(
            model_ref, burn_in=4, num_samples=10, seed=11,
            engine=ReferenceEngine(model_ref),
        )
        engine = ShardedEngine(
            model_sh, EngineConfig("sharded", num_shards=num_shards)
        )
        sharded = GibbsSampler(
            model_sh, burn_in=4, num_samples=10, seed=11, engine=engine
        )
        result_ref = ref.sample()
        result_sh = sharded.sample()
        assert engine._pool is not None  # workers really dispatched
        assert np.array_equal(result_ref.marginals, result_sh.marginals)
        assert np.array_equal(ref.state, sharded.state)
        config = MStepConfig()
        ref_parts = ReferenceEngine(model_ref).assemble_mstep(
            result_ref.marginals, config
        )
        sh_parts = engine.assemble_mstep(result_sh.marginals, config)
        for reference_part, sharded_part in zip(ref_parts, sh_parts):
            assert np.array_equal(reference_part, sharded_part)
        engine.close()
        assert engine._pool is None

    def test_unsorted_claim_subset_falls_back_inline(self):
        database, weights = wiki_model(scale=0.3)
        model_a = CrfModel(database, weights=weights)
        model_b = CrfModel(database, weights=weights)
        subset = [7, 2, 11, 5, 3]
        sampler_np = GibbsSampler(
            model_a, burn_in=2, num_samples=6, seed=5,
            engine=NumpyEngine(model_a),
        )
        engine = ShardedEngine(model_b, EngineConfig("sharded", num_shards=2))
        sampler_sh = GibbsSampler(
            model_b, burn_in=2, num_samples=6, seed=5, engine=engine
        )
        result_np = sampler_np.sample(claim_subset=subset)
        result_sh = sampler_sh.sample(claim_subset=subset)
        assert not engine._can_dispatch(
            np.asarray(subset, dtype=np.intp)
        )
        assert np.array_equal(result_np.marginals, result_sh.marginals)
        engine.close()


@needs_fork
class TestCrashSafety:
    def test_worker_death_raises_structured_error_and_heals(self):
        database, weights = wiki_model()
        model = CrfModel(database, weights=weights)
        engine = ShardedEngine(model, EngineConfig("sharded", num_shards=2))
        sampler = GibbsSampler(model, burn_in=2, num_samples=6, seed=7, engine=engine)
        sampler.sample()  # spawn the pool
        pool = engine._pool
        assert pool is not None and len(pool._workers) >= 2

        snapshot = sampler.state_dict()
        spins_before = sampler.state.copy()
        os.kill(pool._workers[0].process.pid, signal.SIGKILL)
        pool._workers[0].process.join(timeout=5.0)
        with pytest.raises(InferenceError, match="died mid-call"):
            sampler.sample()
        # The failed call touched no chain state and dropped the pool.
        assert np.array_equal(sampler.state, spins_before)
        assert engine._pool is None

        # Reference twin restored from the same snapshot proves the
        # rebuilt pool continues the exact chain.
        model_ref = CrfModel(database, weights=weights)
        reference = GibbsSampler(
            model_ref, burn_in=2, num_samples=6, seed=7,
            engine=ReferenceEngine(model_ref),
        )
        reference.load_state_dict(snapshot)
        sampler.load_state_dict(snapshot)
        result_sh = sampler.sample()
        result_ref = reference.sample()
        assert engine._pool is not None
        assert np.array_equal(result_ref.marginals, result_sh.marginals)
        engine.close()

    def test_worker_exception_reports_traceback(self):
        database, weights = wiki_model(scale=0.3)
        model = CrfModel(database, weights=weights)
        engine = ShardedEngine(model, EngineConfig("sharded", num_shards=2))
        sampler = GibbsSampler(model, burn_in=1, num_samples=3, seed=3, engine=engine)
        sampler.sample()
        pool = engine._pool
        with pytest.raises(InferenceError, match="failed"):
            pool._request(("no-such-kind",))
        assert pool._workers == []  # structured failure shuts the pool down
        engine.close()


class TestLifecycle:
    def test_session_close_releases_pool(self):
        spec = SessionSpec(
            inference=InferenceSpec(
                engine="sharded", num_shards=2, em_iterations=1,
                num_samples=4, burn_in=2,
            ),
            seed=5,
        )
        database, _ = wiki_model(scale=0.3)
        session = FactCheckSession(spec, database=database)
        session.open()
        session.step()
        engine = session.process.icrf.engine
        assert isinstance(engine, ShardedEngine)
        session.close()
        assert engine._pool is None

    def test_close_is_idempotent_and_engine_stays_usable(self):
        database, weights = wiki_model(scale=0.3)
        model = CrfModel(database, weights=weights)
        engine = ShardedEngine(model, EngineConfig("sharded", num_shards=2))
        sampler = GibbsSampler(model, burn_in=1, num_samples=3, seed=9, engine=engine)
        first = sampler.sample()
        engine.close()
        engine.close()
        assert first.marginals.size == database.num_claims
        again = sampler.sample()  # pool rebuilds lazily
        assert again.marginals.size == database.num_claims
        engine.close()


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
        from repro.guidance.gain import GainConfig, GainEstimator

        database = build_micro_database()
        model = CrfModel(database)
        estimator = GainEstimator(
            model, config=GainConfig(inference_mode="gibbs"), seed=3
        )
        estimator.information_gains(list(range(database.num_claims)))
        # The throwaway chains ran on the in-process kernel engine,
        # memoised on the model (so session close releases it).
        engines = list(model._engine_cache.values())
        assert len(engines) == 1
        assert isinstance(engines[0], ShardedEngine)
        assert engines[0]._num_shards == 1
        assert engines[0]._pool is None
