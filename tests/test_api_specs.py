"""Tests for the declarative session specs (repro.api.specs)."""

from __future__ import annotations

import pytest

from repro.api import (
    DatasetSpec,
    EffortSpec,
    GoalSpec,
    GuidanceSpec,
    InferenceSpec,
    SessionSpec,
    StreamSpec,
    TerminationSpec,
    UserSpec,
)
from repro.errors import SpecError
from repro.guidance.gain import GainConfig
from repro.inference.mstep import MStepConfig
from repro.validation.goals import (
    EstimatedPrecisionGoal,
    NoGoal,
    TruePrecisionGoal,
)

from tests.fixtures import MALFORMED_SPECS


class TestRoundTrips:
    def test_default_spec_round_trips_through_json(self):
        spec = SessionSpec()
        assert SessionSpec.from_json(spec.to_json()) == spec

    def test_fully_populated_spec_round_trips_through_json(self):
        spec = SessionSpec(
            mode="streaming",
            seed=13,
            dataset=DatasetSpec(name="wiki", seed=4, scale=0.3),
            user=UserSpec(error_probability=0.1, skip_probability=0.2),
            inference=InferenceSpec(
                aggregation="mean",
                coupling_enabled=False,
                em_iterations=2,
                em_tolerance=1e-4,
                burn_in=3,
                num_samples=9,
                initial_bias=0.5,
                estep_mode="meanfield",
                mstep=MStepConfig(max_iterations=7, labelled_weight=5.0),
            ),
            guidance=GuidanceSpec(
                strategy="info",
                candidate_limit=12,
                deterministic_ties=True,
                gain=GainConfig(inference_mode="gibbs", entropy_method="exact"),
            ),
            effort=EffortSpec(
                goal=GoalSpec(kind="estimated_precision", threshold=0.8, folds=3),
                budget=17,
                batch_size=2,
                batch_utility_weight=0.5,
                max_skip_attempts=2,
                confirmation_interval=4,
                termination=(
                    TerminationSpec(kind="urr", params={"threshold": 0.05}),
                    TerminationSpec(kind="cng", params={"patience": 2}),
                ),
            ),
            stream=StreamSpec(
                schedule_beta=0.9,
                schedule_scale=0.5,
                meanfield_steps=2,
                prior=0.4,
                online_mstep_iterations=3,
                validation_every=6,
            ),
        )
        restored = SessionSpec.from_json(spec.to_json())
        assert restored == spec
        # Embedded configs survive as typed objects, not dicts.
        assert isinstance(restored.inference.mstep, MStepConfig)
        assert isinstance(restored.guidance.gain, GainConfig)
        assert isinstance(restored.effort.termination[0], TerminationSpec)

    def test_component_specs_round_trip_individually(self):
        for spec in (
            DatasetSpec(name="snopes", seed=1, scale=0.02),
            UserSpec(error_probability=0.3),
            InferenceSpec(estep_mode="meanfield"),
            GuidanceSpec(strategy="random"),
            GoalSpec(kind="true_precision", threshold=0.75),
            EffortSpec(budget=5),
            StreamSpec(validation_every=3),
            TerminationSpec(kind="pre", params={"patience": 4}),
        ):
            assert type(spec).from_dict(spec.to_dict()) == spec

    def test_nested_mappings_are_coerced(self):
        spec = SessionSpec(
            inference={"estep_mode": "meanfield", "mstep": {"max_iterations": 3}},
            guidance={"strategy": "source", "gain": {"meanfield_steps": 5}},
            effort={"goal": {"kind": "true_precision"}, "budget": 9},
        )
        assert spec.inference.estep_mode == "meanfield"
        assert spec.inference.mstep.max_iterations == 3
        assert spec.guidance.gain.meanfield_steps == 5
        assert spec.effort.goal.kind == "true_precision"
        assert spec.effort.budget == 9


class TestValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(SpecError):
            SessionSpec(mode="interactive")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SpecError):
            GuidanceSpec(strategy="oracle")

    def test_unknown_engine_rejected(self):
        """The engine is not configurable: ``engine`` is an unknown key."""
        with pytest.raises(SpecError) as excinfo:
            InferenceSpec.from_dict({"engine": "cuda"})
        assert excinfo.value.field == "engine"

    def test_unknown_estep_mode_rejected(self):
        with pytest.raises(SpecError):
            InferenceSpec(estep_mode="variational")

    def test_dataset_needs_exactly_one_source(self):
        with pytest.raises(SpecError):
            DatasetSpec()
        with pytest.raises(SpecError):
            DatasetSpec(name="wiki", path="corpus.json")

    def test_goal_kind_validated(self):
        with pytest.raises(SpecError):
            GoalSpec(kind="recall")

    def test_termination_kind_and_params_validated(self):
        with pytest.raises(SpecError):
            TerminationSpec(kind="entropy")
        with pytest.raises(SpecError):
            TerminationSpec(kind="urr", params={"no_such_param": 1})

    def test_unknown_payload_keys_rejected(self):
        with pytest.raises(SpecError):
            SessionSpec.from_dict({"mode": "batch", "extra": 1})
        with pytest.raises(SpecError):
            InferenceSpec.from_dict({"engines": "numpy"})

    def test_stream_schedule_validated(self):
        with pytest.raises(SpecError):
            StreamSpec(schedule_beta=0.4)
        with pytest.raises(SpecError):
            StreamSpec(prior=1.5)

    def test_user_probabilities_validated(self):
        with pytest.raises(SpecError):
            UserSpec(error_probability=1.5)

    def test_invalid_json_rejected(self):
        with pytest.raises(SpecError):
            SessionSpec.from_json("{not json")
        with pytest.raises(SpecError):
            SessionSpec.from_json("[1, 2]")


class TestFieldPaths:
    """Validation errors name the failing field as a dotted path."""

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"mode": "bad"}, "mode"),
            ({"inference": {"engine": "cuda"}}, "inference.engine"),
            ({"inference": {"estep_mode": "x"}}, "inference.estep_mode"),
            ({"guidance": {"strategy": "oracle"}}, "guidance.strategy"),
            ({"effort": {"goal": {"kind": "recall"}}}, "effort.goal.kind"),
            ({"effort": {"budget": 0}}, "effort.budget"),
            (
                {"effort": {"termination": [{"kind": "urr"}, {"kind": "bad"}]}},
                "effort.termination[1].kind",
            ),
            (
                {"effort": {"termination": [{"kind": "urr", "params": {"x": 1}}]}},
                "effort.termination[0].params",
            ),
            ({"stream": {"prior": 2}}, "stream.prior"),
            ({"dataset": {"name": "wiki", "scale": -1}}, "dataset.scale"),
            ({"user": {"error_probability": 7}}, "user.error_probability"),
            ({"guidance": {"strategee": "hybrid"}}, "guidance.strategee"),
            ({"bogus_top_level": 1}, "bogus_top_level"),
        ],
    )
    def test_from_json_reports_field_path(self, payload, field):
        import json

        with pytest.raises(SpecError) as excinfo:
            SessionSpec.from_json(json.dumps(payload))
        assert excinfo.value.field == field
        assert str(excinfo.value).startswith(f"{field}: ")

    def test_direct_construction_reports_leaf_field(self):
        with pytest.raises(SpecError) as excinfo:
            InferenceSpec(estep_mode="variational")
        assert excinfo.value.field == "estep_mode"

    def test_nested_construction_prefixes_path(self):
        with pytest.raises(SpecError) as excinfo:
            SessionSpec(inference={"estep_mode": "variational"})
        assert excinfo.value.field == "inference.estep_mode"


class TestTypedDecoding:
    """Wrong-typed values and invalid nested configs name their path."""

    @pytest.mark.parametrize("payload, field", MALFORMED_SPECS)
    def test_malformed_value_raises_spec_error_with_path(self, payload, field):
        with pytest.raises(SpecError) as excinfo:
            SessionSpec.from_dict(payload)
        assert excinfo.value.field == field
        assert str(excinfo.value).startswith(f"{field}: ")


class TestBuilders:
    def test_goal_spec_builds_each_kind(self):
        assert isinstance(GoalSpec(kind="none").build(), NoGoal)
        assert isinstance(
            GoalSpec(kind="true_precision", threshold=0.8).build(),
            TruePrecisionGoal,
        )
        assert isinstance(
            GoalSpec(kind="estimated_precision").build(), EstimatedPrecisionGoal
        )

    def test_termination_spec_builds_fresh_instances(self):
        spec = TerminationSpec(kind="cng", params={"patience": 2})
        first, second = spec.build(), spec.build()
        assert first is not second
        assert first.patience == 2

    def test_dataset_spec_loads_named_profile(self):
        database = DatasetSpec(name="wiki", seed=42, scale=0.1).load()
        assert database.num_claims > 0

    def test_replace_produces_modified_copy(self):
        spec = SessionSpec(seed=1)
        other = spec.replace(seed=2)
        assert other.seed == 2 and spec.seed == 1
        assert other.inference == spec.inference


class TestStreamSourceSpec:
    def test_requires_a_dataset(self):
        from repro.api import StreamSourceSpec

        with pytest.raises(SpecError, match="dataset"):
            StreamSourceSpec()

    def test_only_posting_order_is_defined(self):
        from repro.api import StreamSourceSpec

        with pytest.raises(SpecError, match="posting"):
            StreamSourceSpec(
                dataset={"name": "wiki", "seed": 1, "scale": 0.1},
                order="shuffled",
            )

    def test_round_trips_and_coerces_nested_dataset(self):
        from repro.api import StreamSourceSpec

        spec = StreamSourceSpec(dataset={"name": "wiki", "seed": 1, "scale": 0.1})
        assert isinstance(spec.dataset, DatasetSpec)
        assert StreamSourceSpec.from_dict(spec.to_dict()) == spec

    def test_stream_spec_with_source_round_trips_through_json(self):
        spec = SessionSpec(
            mode="streaming",
            stream={
                "source": {"dataset": {"name": "health", "seed": 2, "scale": 0.05}}
            },
        )
        restored = SessionSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.stream.source.dataset.name == "health"

    def test_arrivals_replays_the_declared_corpus(self):
        from repro.api import StreamSourceSpec
        from repro.datasets import load_dataset

        spec = StreamSourceSpec(dataset={"name": "wiki", "seed": 3, "scale": 0.05})
        replayed = [a.claim.claim_id for a in spec.arrivals() if a.claim is not None]
        corpus = load_dataset("wiki", seed=3, scale=0.05)
        assert sorted(replayed) == sorted(c.claim_id for c in corpus.claims)
        # A second call starts a fresh iterator, not a drained one.
        assert len(list(spec.arrivals())) == len(list(spec.arrivals()))
