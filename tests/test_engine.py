"""Property-based tests of the inference engine.

The central contract is *exact equivalence*: both merge walks of
:class:`~repro.inference.engine.SpeculativeEngine` — the compiled kernel
it runs in production and the Python walk it falls back to without a C
compiler — must reproduce the scalar oracle (``tests/reference_engine.py``)
bit-for-bit on arbitrary models and free sets, because all three
implement the same sequential-scan semantics over the same pre-drawn
random stream.  On top of that, the classic sampler invariants are
checked on random corpora: pinned labels never flip, marginals stay in
[0, 1], and the vectorised potential computations agree with naive
scalar re-implementations.
"""

from __future__ import annotations

import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import InferenceSpec
from repro.crf.gibbs import GibbsSampler
from repro.crf.model import CrfModel
from repro.crf.weights import CrfWeights
from repro.errors import InferenceError
from repro.inference.engine import SpeculativeEngine, create_engine
from repro.inference.engine.ckernel import load_kernel
from repro.inference.icrf import ICrf
from repro.inference.mstep import MStepConfig
from tests.fixtures import build_micro_database, random_databases
from tests.reference_engine import PythonWalkEngine, ReferenceEngine

#: The engine's two merge walks, as engine factories for the test seam.
WALKS = {"kernel": SpeculativeEngine, "python": PythonWalkEngine}


def random_weights(database, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    size = 2 + database.document_features.shape[1] + database.source_features.shape[1]
    return CrfWeights(scale * rng.normal(size=size))


def apply_random_labels(database, seed):
    rng = np.random.default_rng(seed)
    count = int(rng.integers(0, database.num_claims))
    for claim in rng.choice(database.num_claims, size=count, replace=False):
        database.label(int(claim), int(rng.integers(0, 2)))


@st.composite
def free_sets(draw, num_claims):
    """``None`` (every unlabelled claim) or an unsorted claim subset."""
    if draw(st.booleans()):
        return None
    return draw(
        st.permutations(range(num_claims)).flatmap(
            lambda order: st.integers(1, num_claims).map(
                lambda size: list(order[:size])
            )
        )
    )


def run_chain(factory, database, weights, seed, subset=None):
    """Cold then warm sampling pass on a fresh model over ``database``."""
    model = CrfModel(database, weights=weights)
    sampler = GibbsSampler(
        model, burn_in=3, num_samples=8, seed=seed, engine=factory
    )
    cold = sampler.sample(claim_subset=subset)
    warm = sampler.sample(claim_subset=subset)
    return cold, warm, sampler.state


class TestEngineConfig:
    def test_default_engine_is_the_speculative_engine(self):
        model = CrfModel(build_micro_database())
        assert type(create_engine(model)) is SpeculativeEngine

    def test_engine_factory_seam(self):
        model = CrfModel(build_micro_database())
        oracle = create_engine(model, ReferenceEngine)
        assert isinstance(oracle, ReferenceEngine)
        assert create_engine(model, ReferenceEngine) is oracle
        assert create_engine(model) is not oracle
        assert create_engine(model, oracle) is oracle

    def test_unknown_backend_rejected(self):
        """Backend names are gone: only engines or factories are accepted."""
        model = CrfModel(build_micro_database())
        with pytest.raises(InferenceError):
            create_engine(model, "cuda")

    def test_engines_memoised_per_model(self):
        db = build_micro_database()
        model = CrfModel(db)
        assert create_engine(model) is create_engine(model)
        other = CrfModel(build_micro_database())
        assert create_engine(model) is not create_engine(other)

    def test_sampler_rejects_foreign_engine(self):
        model_a = CrfModel(build_micro_database())
        model_b = CrfModel(build_micro_database())
        engine_b = create_engine(model_b)
        with pytest.raises(InferenceError):
            GibbsSampler(model_a, engine=engine_b)

    @pytest.mark.skipif(
        not any(shutil.which(cc) for cc in ("cc", "gcc", "clang")),
        reason="no C compiler: the engine runs the Python walk",
    )
    def test_kernel_builds_with_the_host_compiler(self):
        assert load_kernel() is not None


class TestBackendEquivalence:
    """Kernel walk == Python walk == scalar oracle, bit for bit.

    The class name predates the single engine; it is kept so test ids
    stay stable.
    """

    @settings(max_examples=40, deadline=None)
    @given(random_databases(), st.integers(0, 10_000), st.data())
    def test_sampler_chains_identical(self, database, seed, data):
        apply_random_labels(database, seed)
        weights = random_weights(database, seed)
        subset = data.draw(free_sets(database.num_claims))
        oracle = run_chain(ReferenceEngine, database, weights, seed, subset)
        for name, factory in WALKS.items():
            walked = run_chain(factory, database, weights, seed, subset)
            for expected, actual in zip(oracle[:2], walked[:2]):
                assert np.array_equal(expected.marginals, actual.marginals), name
                assert np.array_equal(
                    expected.mode_configuration, actual.mode_configuration
                ), name
                assert (
                    expected.configuration_counts
                    == actual.configuration_counts
                ), name
            assert np.array_equal(oracle[2], walked[2]), name

    @settings(max_examples=40, deadline=None)
    @given(random_databases(), st.integers(0, 10_000))
    def test_mstep_assembly_identical(self, database, seed):
        apply_random_labels(database, seed)
        model = CrfModel(database, weights=random_weights(database, seed))
        marginals = np.random.default_rng(seed).random(database.num_claims)
        label_idx, label_val = database.label_arrays()
        marginals[label_idx] = label_val
        config = MStepConfig()
        ref = ReferenceEngine(model).assemble_mstep(marginals, config)
        vec = SpeculativeEngine(model).assemble_mstep(marginals, config)
        if ref is None:
            assert vec is None
            return
        for reference_part, vector_part in zip(ref, vec):
            assert np.array_equal(reference_part, vector_part)

    @settings(max_examples=15, deadline=None)
    @given(random_databases(), st.integers(0, 1000))
    def test_full_icrf_em_identical(self, database, seed):
        apply_random_labels(database, seed)
        state = database.clone_state()
        spec = InferenceSpec(em_iterations=2, num_samples=6)
        ref = ICrf(database, spec, seed=seed, engine=ReferenceEngine)
        result_ref = ref.infer()
        marginals_ref = result_ref.marginals.copy()
        weights_ref = result_ref.weights.values.copy()
        grounding_ref = result_ref.grounding.values.copy()
        database.restore_state(state)
        vec = ICrf(database, spec, seed=seed)
        result_vec = vec.infer()
        assert np.array_equal(marginals_ref, result_vec.marginals)
        assert np.array_equal(weights_ref, result_vec.weights.values)
        assert np.array_equal(grounding_ref, result_vec.grounding.values)


class TestSamplerInvariants:
    @settings(max_examples=25, deadline=None)
    @given(random_databases(), st.integers(0, 10_000))
    def test_pinned_labels_never_flip(self, database, seed):
        apply_random_labels(database, seed)
        model = CrfModel(database, weights=random_weights(database, seed))
        sampler = GibbsSampler(model, burn_in=2, num_samples=6, seed=seed)
        result = sampler.sample()
        state = sampler.state
        for claim, label in database.labels.items():
            assert result.marginals[claim] == float(label)
            assert result.mode_configuration[claim] == label
            assert state[claim] == label
            for packed in result.configuration_counts:
                sample = np.frombuffer(packed, dtype=np.int8)
                assert sample[claim] == label

    @settings(max_examples=25, deadline=None)
    @given(random_databases(), st.integers(0, 10_000))
    def test_marginals_in_unit_interval(self, database, seed):
        apply_random_labels(database, seed)
        model = CrfModel(database, weights=random_weights(database, seed))
        sampler = GibbsSampler(model, burn_in=2, num_samples=6, seed=seed)
        result = sampler.sample()
        assert np.all(result.marginals >= 0.0)
        assert np.all(result.marginals <= 1.0)

    @settings(max_examples=20, deadline=None)
    @given(random_databases(), st.integers(0, 10_000))
    def test_stats_stay_consistent_with_spins(self, database, seed):
        """A_s must equal its definition after any number of sweeps."""
        model = CrfModel(database, weights=random_weights(database, seed))
        engine = SpeculativeEngine(model)
        rng = np.random.default_rng(seed)
        spins = np.where(rng.random(database.num_claims) < 0.5, 1.0, -1.0)
        stats = model.source_statistics(spins)
        free = database.unlabelled_indices
        for _ in range(3):
            engine.sweep(free, spins, stats, rng)
        assert np.array_equal(stats, model.source_statistics(spins))


class TestVectorisedPotentials:
    """Vectorised potential computations vs naive scalar references."""

    @settings(max_examples=25, deadline=None)
    @given(random_databases(), st.integers(0, 1000))
    def test_local_fields_match_scalar_sum(self, database, seed):
        weights = random_weights(database, seed)
        model = CrfModel(database, weights=weights)
        featurizer = model.featurizer
        scale = featurizer.aggregation_scale()
        expected = np.zeros(database.num_claims)
        for claim in range(database.num_claims):
            total = 0.0
            for clique_idx in featurizer.cliques_of_claim(claim):
                total += float(
                    featurizer.signed_features[clique_idx]
                    @ weights.feature_weights
                )
            expected[claim] = total * scale[claim]
        assert np.allclose(model.local_fields, expected, atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(random_databases(), st.integers(0, 1000))
    def test_design_matrix_matches_scalar_aggregation(self, database, seed):
        model = CrfModel(database, weights=random_weights(database, seed))
        featurizer = model.featurizer
        scale = featurizer.aggregation_scale()
        matrix = featurizer.claim_design_matrix()
        for claim in range(database.num_claims):
            expected = np.zeros(featurizer.feature_dim)
            for clique_idx in featurizer.cliques_of_claim(claim):
                expected += featurizer.signed_features[clique_idx]
            assert np.allclose(
                matrix[claim], expected * scale[claim], atol=1e-10
            )

    @settings(max_examples=25, deadline=None)
    @given(random_databases(), st.integers(0, 1000))
    def test_trust_signals_match_scalar_sum(self, database, seed):
        model = CrfModel(database, weights=random_weights(database, seed))
        rng = np.random.default_rng(seed)
        probabilities = rng.random(database.num_claims)
        signals = model.trust_signals(probabilities)
        spins = 2.0 * probabilities - 1.0
        stats = model.source_statistics(spins)
        for claim in range(database.num_claims):
            expected = 0.0
            for row in model.pairs_of_claim(claim):
                source = model.pair_source[row]
                stance = model.pair_stance[row]
                excluded = stats[source] - stance * spins[claim]
                denom = max(model.source_clique_count[source], 1.0)
                expected += 2.0 * stance * excluded / denom
            assert signals[claim] == pytest.approx(expected, abs=1e-10)
