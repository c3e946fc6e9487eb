"""The block mean-field operator and block gain evaluation vs their oracles.

:meth:`~repro.crf.model.CrfModel.mean_field` iterates a K×n block of
marginals with the coupling sums in the compiled ``trust_signals`` kernel,
or in one flat NumPy ``bincount`` on hosts without a compiler.  Every
block row must equal one call of the per-row oracle in
``tests/meanfield_oracle.py`` bit for bit, on both paths.  The gain
estimator evaluates each component's candidates as one such block; it
must equal the mutate-and-restore oracle of ``tests/gain_oracle.py`` on
the edge cases of the operator, and stay exact when two threads share it.
"""

from __future__ import annotations

import sys
import threading
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crf.entropy import component_entropy
from repro.crf.model import CrfModel
from repro.crf.partition import ComponentIndex, ScopePlan
from repro.crf.weights import CrfWeights
from repro.data.database import FactDatabase
from repro.data.entities import Claim, ClaimLink, Document, Source
from repro.data.state import ClaimState
from repro.data.stance import Stance
from repro.datasets import load_dataset
from repro.guidance.gain import GainConfig, GainEstimator
from repro.utils.ckernel import load_kernel
from tests import meanfield_oracle
from tests.fixtures import build_micro_database, random_databases
from tests.gain_oracle import oracle_gains

#: The two coupling-sum paths: the compiled kernel and the NumPy block.
PATHS = ("kernel", "numpy")


def on_path(path: str):
    """Context in which the model's coupling sums run on ``path``."""
    if path == "numpy":
        return mock.patch("repro.crf.model.load_kernel", return_value=None)
    if load_kernel() is None:
        pytest.skip("no C compiler: only the NumPy block runs here")
    return nullcontext()


def random_weights(database, rng, gamma):
    size = 2 + database.document_features.shape[1] \
        + database.source_features.shape[1]
    values = rng.normal(size=size)
    values[-1] = gamma
    return CrfWeights(values)


def with_isolated_claims(database: FactDatabase) -> FactDatabase:
    """``database`` plus a claim with no sources and a one-source singleton."""
    sources = list(database.sources) + [Source("s-solo", features=[0.3, -0.2])]
    claims = list(database.claims) + [
        Claim("c-unlinked", truth=True),
        Claim("c-solo", truth=False),
    ]
    documents = list(database.documents) + [
        Document(
            "d-solo",
            source_id="s-solo",
            features=[0.4, 0.1],
            claim_links=(ClaimLink("c-solo", Stance.SUPPORT),),
        )
    ]
    return FactDatabase(sources, documents, claims)


class TestBlockOperator:
    @pytest.mark.parametrize("path", PATHS)
    @settings(max_examples=40, deadline=None)
    @given(
        database=random_databases(),
        seed=st.integers(0, 2**16),
        rows=st.integers(1, 5),
        gamma=st.sampled_from([0.0, 0.4, -1.3]),
        coupling=st.booleans(),
        scoped=st.sampled_from(["all", "subset", "empty"]),
        restrict=st.booleans(),
    )
    def test_block_rows_equal_per_row_oracle(
        self, path, database, seed, rows, gamma, coupling, scoped, restrict
    ):
        rng = np.random.default_rng(seed)
        model = CrfModel(
            database,
            weights=random_weights(database, rng, gamma),
            coupling_enabled=coupling,
        )
        n = database.num_claims
        block = rng.random((rows, n))
        held = rng.random((rows, n)) < 0.3
        scope = {
            "all": None,
            "subset": np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)),
                                         replace=False)),
            "empty": np.empty(0, dtype=np.intp),
        }[scoped]
        pairs = None
        if restrict and scope is not None:
            pairs = ScopePlan.build(database.claim_source_graph(), scope).pairs
        with on_path(path):
            result = model.mean_field(
                block, steps=3, damping=0.3, scope=scope, fixed=held,
                pairs=pairs,
            )
            signals = model.trust_signals(block)
        for k in range(rows):
            expected = meanfield_oracle.mean_field(
                model, block[k], steps=3, damping=0.3, scope=scope,
                fixed=np.flatnonzero(held[k]),
            )
            assert np.array_equal(result[k], expected)
            assert np.array_equal(
                signals[k], meanfield_oracle.trust_signals(model, block[k])
            )

    @pytest.mark.parametrize("path", PATHS)
    def test_one_row_call_is_the_k1_case(self, path):
        database = with_isolated_claims(build_micro_database())
        model = CrfModel(database, weights=random_weights(
            database, np.random.default_rng(3), 0.7))
        start = np.full(database.num_claims, 0.5)
        with on_path(path):
            vector = model.mean_field(start, steps=4, damping=0.2, fixed=[1])
            block = model.mean_field(
                start[None, :], steps=4, damping=0.2, fixed=[1]
            )
        expected = meanfield_oracle.mean_field(
            model, start, steps=4, damping=0.2, fixed=[1]
        )
        assert vector.shape == start.shape
        assert np.array_equal(vector, expected)
        assert np.array_equal(block[0], expected)

    def test_empty_scope_returns_the_start(self):
        model = CrfModel(build_micro_database())
        start = np.asarray([[0.2, 0.7, 0.4], [0.9, 0.1, 0.6]])
        result = model.mean_field(
            start, steps=3, damping=0.3, scope=np.empty(0, dtype=np.intp)
        )
        assert np.array_equal(result, start)
        assert result is not start


def estimator_pair(database_factory, weights_seed=11, gamma=0.5,
                   coupling=True, labelled=False, **config):
    """An estimator and an oracle estimator over equal fresh databases,
    and the state to take gains at (``labelled``: claim 0's component
    labelled, see :func:`labelled_component`)."""
    pair = []
    for _ in range(2):
        database = database_factory()
        model = CrfModel(
            database,
            weights=random_weights(
                database, np.random.default_rng(weights_seed), gamma
            ),
            coupling_enabled=coupling,
        )
        pair.append(GainEstimator(
            model, ComponentIndex(database), config=GainConfig(**config),
            seed=5,
        ))
    state = ClaimState.of(database)
    if labelled:
        labelled_component(database, state)
    return pair[0], pair[1], state


def labelled_component(database, state):
    """Label every claim of claim 0's component in ``state``."""
    for claim in ComponentIndex(database).component_of_claim(0):
        state.label(int(claim), int(claim) % 2)


#: Gain configurations at the operator's edges: (name, factory, options).
EDGE_CASES = {
    "isolated-claims": (
        lambda: with_isolated_claims(build_micro_database()), {}),
    "gamma-zero": (
        lambda: load_dataset("wiki", seed=42, scale=0.15), {"gamma": 0.0}),
    "coupling-off": (
        lambda: load_dataset("wiki", seed=42, scale=0.15),
        {"coupling": False}),
    "no-localize": (
        lambda: with_isolated_claims(build_micro_database()),
        {"localize": False}),
    "labelled-component": (
        lambda: with_isolated_claims(build_micro_database()),
        {"labelled": True}),
}


class TestBlockGains:
    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    @pytest.mark.parametrize("entropy_method", ["approx", "exact"])
    def test_gains_equal_oracle(self, path, case, entropy_method):
        factory, options = EDGE_CASES[case]
        estimator, oracle, state = estimator_pair(
            factory, entropy_method=entropy_method, **options
        )
        candidates = list(range(state.num_claims))
        with on_path(path):
            for source_driven in (False, True):
                assert np.array_equal(
                    estimator._gains(candidates, state, source_driven),
                    oracle_gains(oracle, state, candidates, source_driven),
                )

    def test_blocks_split_without_changing_gains(self, monkeypatch):
        whole, split, state = estimator_pair(
            lambda: load_dataset("wiki", seed=42, scale=0.3)
        )
        candidates = list(range(state.num_claims))
        expected = whole.information_gains(candidates, state)
        # One row per block: every hypothesis runs through its own call.
        monkeypatch.setattr(
            "repro.guidance.gain.estimator._BLOCK_ELEMENTS", 1
        )
        assert np.array_equal(split.information_gains(candidates, state), expected)

    def test_concurrent_gains_equal_sequential(self):
        """Threads sharing one estimator (and its plan cache) get the
        sequential gains: no scratch buffer is shared between calls."""
        estimator, _, state = estimator_pair(
            lambda: load_dataset("wiki", seed=42, scale=0.3)
        )
        candidates = list(range(state.num_claims))
        expected = {
            False: estimator.information_gains(candidates, state),
            True: estimator.source_gains(candidates, state),
        }
        # A fresh index, so the threads also race to build the plans.
        estimator._components = ComponentIndex(estimator._model.database)
        flags = [False, True, False, True]
        results = [[] for _ in flags]
        barrier = threading.Barrier(len(flags))

        def run(slot, source_driven):
            barrier.wait()
            for _ in range(3):
                results[slot].append(
                    estimator._gains(candidates, state, source_driven)
                )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=run, args=(slot, flag))
                for slot, flag in enumerate(flags)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for slot, flag in enumerate(flags):
            assert len(results[slot]) == 3
            for gains in results[slot]:
                assert np.array_equal(gains, expected[flag])


class TestExactEntropyGain:
    def test_singleton_gain_is_its_exact_entropy(self):
        """Validating a singleton removes all its uncertainty: its exact
        IG is the claim's exact entropy under the baseline inference."""
        database = with_isolated_claims(build_micro_database())
        model = CrfModel(database, weights=random_weights(
            database, np.random.default_rng(2), 0.5))
        config = GainConfig(entropy_method="exact")
        estimator = GainEstimator(model, config=config, seed=1)
        for claim_id in ("c-unlinked", "c-solo"):
            claim = database.claim_position(claim_id)
            assert estimator.components.component_of_claim(claim).size == 1
            baseline = model.mean_field(
                np.full(database.num_claims, database.prior),
                steps=config.meanfield_steps,
                damping=config.damping,
                scope=[claim],
            )
            expected = component_entropy(model, np.asarray([claim]), baseline)
            gain = estimator.information_gain(claim, ClaimState.of(database))
            assert gain > 0.0
            assert gain == expected
