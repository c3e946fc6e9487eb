"""Declarative session configuration — typed, validated, JSON-serialisable.

A :class:`SessionSpec` fully determines a fact-checking run: which corpus,
which inference settings, which guidance strategy, which effort policy, and
— for streaming sessions — the online-EM schedule.  The runtime classes
(``ICrf``, ``ValidationProcess``, ``StreamingFactChecker``) take these specs
as their only configuration, and the composable dataclasses round-trip
through JSON, so a run can be version-controlled, shipped to a service, or
resumed from a checkpoint with identical semantics.

Layout::

    SessionSpec
    ├── dataset:   DatasetSpec     (optional; corpus provenance)
    ├── user:      UserSpec        (simulated-oracle parameters)
    ├── inference: InferenceSpec   (iCRF EM + M-step)
    ├── guidance:  GuidanceSpec    (strategy + gain evaluation)
    ├── effort:    EffortSpec      (goal, budget, batching, termination)
    └── stream:    StreamSpec      (online EM; streaming sessions only)

Every spec validates on construction and exposes ``to_dict`` /
``from_dict``; :class:`SessionSpec` adds ``to_json`` / ``from_json``.
``GainConfig`` and ``MStepConfig`` — already dataclasses with validation —
are embedded directly rather than mirrored.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple, Type, TypeVar

from repro.errors import SpecError
from repro.guidance.gain import GainConfig
from repro.guidance.strategies import STRATEGIES
from repro.inference.mstep import MStepConfig

#: Session modes understood by the façade.
SESSION_MODES = ("batch", "streaming")

#: Goal kinds buildable from a :class:`GoalSpec`.
GOAL_KINDS = ("none", "true_precision", "estimated_precision")

#: Termination-criterion kinds buildable from a :class:`TerminationSpec`.
TERMINATION_KINDS = ("urr", "cng", "pre", "pir")

#: E-step modes of the iCRF engine.
ESTEP_MODES = ("gibbs", "meanfield")

_S = TypeVar("_S")


def _check_fields(cls: Type[_S], payload: Mapping[str, Any]) -> None:
    """Reject payload keys that are not fields of ``cls``."""
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(payload) - known
    if unknown:
        raise SpecError(
            f"{cls.__name__} does not accept {sorted(unknown)}; "
            f"known fields: {sorted(known)}",
            field=sorted(unknown)[0],
        )


def _build_config(cls: Type[_S], payload: Any, what: str) -> _S:
    """Coerce ``payload`` (instance or mapping) into a config dataclass."""
    if isinstance(payload, cls):
        return payload
    if payload is None:
        return cls()
    if not isinstance(payload, Mapping):
        raise SpecError(f"{what} must be a {cls.__name__} or a mapping", field=what)
    try:
        _check_fields(cls, payload)
        return cls(**payload)
    except SpecError as exc:
        raise exc.with_prefix(what) from None


@dataclass(frozen=True)
class DatasetSpec:
    """Provenance of the corpus a session runs on.

    Attributes:
        name: Profile name of a synthetic replica (``wiki`` / ``health`` /
            ``snopes``); mutually exclusive with ``path``.
        path: JSON corpus file (the :mod:`repro.datasets.io` format).
        seed: Generation seed when ``name`` is used.
        scale: Generation scale when ``name`` is used.
    """

    name: Optional[str] = None
    path: Optional[str] = None
    seed: int = 0
    scale: float = 1.0

    def __post_init__(self) -> None:
        if (self.name is None) == (self.path is None):
            raise SpecError(
                "DatasetSpec needs exactly one of 'name' (synthetic profile) "
                "or 'path' (JSON corpus file)"
            )
        if self.scale <= 0:
            raise SpecError(f"scale must be positive, got {self.scale}", field="scale")

    def load(self):
        """Materialise the corpus this spec describes."""
        from repro.datasets import load_database, load_dataset

        if self.path is not None:
            return load_database(self.path)
        return load_dataset(self.name, seed=self.seed, scale=self.scale)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DatasetSpec":
        _check_fields(cls, payload)
        return cls(**payload)


@dataclass(frozen=True)
class UserSpec:
    """Parameters of the validating user simulated from ground truth.

    Attributes:
        kind: ``"simulated"`` (the §8.1 oracle) — custom :class:`User`
            objects are passed to the session directly and override this.
        error_probability: Chance of flipping the correct answer (§8.5).
        skip_probability: Chance of declining to validate a claim (§8.5).
    """

    kind: str = "simulated"
    error_probability: float = 0.0
    skip_probability: float = 0.0

    def __post_init__(self) -> None:
        if self.kind != "simulated":
            raise SpecError(
                f"unknown user kind {self.kind!r}; pass a custom User object "
                f"to the session for non-simulated users",
                field="kind",
            )
        for name in ("error_probability", "skip_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise SpecError(f"{name} must lie in [0, 1], got {value}", field=name)

    def build(self, seed=None):
        """Instantiate the :class:`~repro.validation.oracle.SimulatedUser`."""
        from repro.validation.oracle import SimulatedUser

        return SimulatedUser(
            error_probability=self.error_probability,
            skip_probability=self.skip_probability,
            seed=seed,
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "UserSpec":
        _check_fields(cls, payload)
        return cls(**payload)


@dataclass(frozen=True)
class InferenceSpec:
    """iCRF inference settings (§3.2).

    Attributes:
        aggregation: Claim-evidence aggregation mode of the CRF.
        coupling_enabled: Whether the indirect relation participates.
        em_iterations: EM iterations per inference call.
        em_tolerance: Mean-absolute marginal change below which EM stops.
        burn_in / num_samples: Gibbs sampling schedule of the E-step.
        initial_bias: Cold-start bias weight (symmetry breaking).
        estep_mode: ``"gibbs"`` (the paper's sampling E-step) or
            ``"meanfield"`` — a deterministic damped fixed-point E-step
            that trades the sample-based grounding of Eq. 10 for exact
            reproducibility and speed (Table 2 uses it to remove sampling
            noise from comparisons of validation orders).
        mstep: M-step hyper-parameters (embedded
            :class:`~repro.inference.mstep.MStepConfig`).
    """

    aggregation: str = "sqrt"
    coupling_enabled: bool = True
    em_iterations: int = 3
    em_tolerance: float = 5e-3
    burn_in: int = 4
    num_samples: int = 16
    initial_bias: float = 1.0
    estep_mode: str = "gibbs"
    mstep: MStepConfig = field(default_factory=MStepConfig)

    def __post_init__(self) -> None:
        if self.estep_mode not in ESTEP_MODES:
            raise SpecError(
                f"estep_mode must be one of {ESTEP_MODES}, "
                f"got {self.estep_mode!r}",
                field="estep_mode",
            )
        if self.em_iterations <= 0:
            raise SpecError("em_iterations must be positive", field="em_iterations")
        if self.em_tolerance < 0:
            raise SpecError("em_tolerance must be non-negative", field="em_tolerance")
        if self.burn_in < 0:
            raise SpecError("burn_in must be non-negative", field="burn_in")
        if self.num_samples <= 0:
            raise SpecError("num_samples must be positive", field="num_samples")
        object.__setattr__(
            self, "mstep", _build_config(MStepConfig, self.mstep, "mstep")
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "InferenceSpec":
        _check_fields(cls, payload)
        return cls(**payload)


@dataclass(frozen=True)
class GuidanceSpec:
    """Claim-selection settings (§4).

    Attributes:
        strategy: Paper legend name from
            :data:`repro.guidance.strategies.STRATEGIES`.
        candidate_limit: Candidate-pool cap for gain-based strategies
            (``None`` scans all unlabelled claims).
        deterministic_ties: Break selection-score ties by claim index.
        gain: Information-gain evaluation settings (embedded
            :class:`~repro.guidance.gain.GainConfig`).
    """

    strategy: str = "hybrid"
    candidate_limit: Optional[int] = None
    deterministic_ties: bool = False
    gain: GainConfig = field(default_factory=GainConfig)

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise SpecError(
                f"unknown strategy {self.strategy!r}; "
                f"known: {sorted(STRATEGIES)}",
                field="strategy",
            )
        if self.candidate_limit is not None and self.candidate_limit < 1:
            raise SpecError(
                "candidate_limit must be at least 1 (or None)",
                field="candidate_limit",
            )
        object.__setattr__(
            self, "gain", _build_config(GainConfig, self.gain, "gain")
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "GuidanceSpec":
        _check_fields(cls, payload)
        return cls(**payload)


@dataclass(frozen=True)
class GoalSpec:
    """Validation goal Δ (§2.2) in declarative form.

    Attributes:
        kind: ``"none"``, ``"true_precision"`` (ground-truth precision,
            the §8 protocol), or ``"estimated_precision"`` (k-fold
            cross-validated estimate, deployable without truth).
        threshold: Precision threshold for the precision goals.
        folds / min_labels: Cross-validation parameters of the estimated
            goal.
    """

    kind: str = "none"
    threshold: float = 0.9
    folds: int = 5
    min_labels: int = 10

    def __post_init__(self) -> None:
        if self.kind not in GOAL_KINDS:
            raise SpecError(
                f"goal kind must be one of {GOAL_KINDS}, got {self.kind!r}",
                field="kind",
            )
        if not 0.0 <= self.threshold <= 1.0:
            raise SpecError(
                f"threshold must lie in [0, 1], got {self.threshold}",
                field="threshold",
            )

    def build(self):
        """Instantiate the :class:`~repro.validation.goals.ValidationGoal`."""
        from repro.validation.goals import (
            EstimatedPrecisionGoal,
            NoGoal,
            TruePrecisionGoal,
        )

        if self.kind == "none":
            return NoGoal()
        if self.kind == "true_precision":
            return TruePrecisionGoal(self.threshold)
        return EstimatedPrecisionGoal(
            self.threshold, folds=self.folds, min_labels=self.min_labels
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "GoalSpec":
        _check_fields(cls, payload)
        return cls(**payload)


@dataclass(frozen=True)
class TerminationSpec:
    """One early-termination criterion (§6.1) in declarative form.

    Attributes:
        kind: ``"urr"``, ``"cng"``, ``"pre"``, or ``"pir"``.
        params: Keyword arguments of the criterion constructor (thresholds,
            patience, …); validated eagerly by instantiating once.
    """

    kind: str = "urr"
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in TERMINATION_KINDS:
            raise SpecError(
                f"termination kind must be one of {TERMINATION_KINDS}, "
                f"got {self.kind!r}",
                field="kind",
            )
        object.__setattr__(self, "params", dict(self.params))
        try:
            self.build()
        except SpecError:
            raise
        except Exception as exc:
            raise SpecError(
                f"invalid parameters for termination criterion "
                f"{self.kind!r}: {exc}",
                field="params",
            ) from exc

    def build(self):
        """Instantiate a fresh criterion (criteria carry run state)."""
        from repro.effort.termination import (
            GroundingChangeCriterion,
            PrecisionImprovementCriterion,
            UncertaintyReductionCriterion,
            ValidatedPredictionCriterion,
        )

        registry = {
            "urr": UncertaintyReductionCriterion,
            "cng": GroundingChangeCriterion,
            "pre": ValidatedPredictionCriterion,
            "pir": PrecisionImprovementCriterion,
        }
        return registry[self.kind](**self.params)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TerminationSpec":
        _check_fields(cls, payload)
        return cls(**payload)


@dataclass(frozen=True)
class EffortSpec:
    """Effort policy: goal, budget, batching, robustness, termination.

    Attributes:
        goal: Declarative validation goal.
        budget: User-effort budget b (max validations); ``None`` = |C|.
        batch_size: Claims validated per iteration (k of §6.2).
        batch_utility_weight: The w of Eq. 27.
        max_skip_attempts: Next-best candidates offered on skips (§8.5).
        confirmation_interval: Run the §5.2 confirmation check after this
            many validations; ``None`` disables it.
        termination: Early-termination criteria consulted per iteration.
    """

    goal: GoalSpec = field(default_factory=GoalSpec)
    budget: Optional[int] = None
    batch_size: int = 1
    batch_utility_weight: float = 1.0
    max_skip_attempts: int = 5
    confirmation_interval: Optional[int] = None
    termination: Tuple[TerminationSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "goal", _build_config(GoalSpec, self.goal, "goal")
        )
        if self.budget is not None and self.budget < 1:
            raise SpecError("budget must be at least 1 (or None)", field="budget")
        if self.batch_size < 1:
            raise SpecError("batch_size must be at least 1", field="batch_size")
        if self.max_skip_attempts < 0:
            raise SpecError(
                "max_skip_attempts must be non-negative", field="max_skip_attempts"
            )
        if self.confirmation_interval is not None and self.confirmation_interval < 1:
            raise SpecError(
                "confirmation_interval must be at least 1 (or None)",
                field="confirmation_interval",
            )
        object.__setattr__(
            self, "termination", _build_termination(self.termination)
        )

    def to_dict(self) -> dict:
        return {
            "goal": self.goal.to_dict(),
            "budget": self.budget,
            "batch_size": self.batch_size,
            "batch_utility_weight": self.batch_utility_weight,
            "max_skip_attempts": self.max_skip_attempts,
            "confirmation_interval": self.confirmation_interval,
            "termination": [entry.to_dict() for entry in self.termination],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "EffortSpec":
        _check_fields(cls, payload)
        data = dict(payload)
        if "goal" in data and isinstance(data["goal"], Mapping):
            data["goal"] = _build_config(GoalSpec, data["goal"], "goal")
        if "termination" in data:
            data["termination"] = _build_termination(data["termination"])
        return cls(**data)


@dataclass(frozen=True)
class StreamSourceSpec:
    """Replayable provenance of a claim stream.

    Declares *where the arrivals come from* so they need not be embedded
    anywhere: a session whose arrivals all came from its declared source
    checkpoints as a stream fingerprint plus position (compact streaming
    checkpoints, format version 3), and resuming replays the source up to
    that position instead of deserialising every entity.

    Attributes:
        dataset: Corpus provenance; the stream replays this corpus via
            :func:`repro.streaming.stream.stream_from_database`.
        order: Arrival-order policy.  Only ``"posting"`` (document index
            order, the §8.8 protocol) is defined.
    """

    dataset: Optional[DatasetSpec] = None
    order: str = "posting"

    def __post_init__(self) -> None:
        if self.dataset is None:
            raise SpecError(
                "StreamSourceSpec needs a 'dataset' describing the corpus "
                "the stream replays",
                field="dataset",
            )
        if not isinstance(self.dataset, DatasetSpec):
            object.__setattr__(
                self, "dataset", _build_spec(DatasetSpec, self.dataset, "dataset")
            )
        if self.order != "posting":
            raise SpecError(
                f"unknown stream order {self.order!r}; only 'posting' is "
                f"defined",
                field="order",
            )

    def arrivals(self):
        """Replay the declared corpus as a fresh arrival iterator."""
        from repro.streaming.stream import stream_from_database

        return stream_from_database(self.dataset.load())

    def to_dict(self) -> dict:
        return {"dataset": self.dataset.to_dict(), "order": self.order}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "StreamSourceSpec":
        _check_fields(cls, payload)
        return cls(**payload)


@dataclass(frozen=True)
class StreamSpec:
    """Online-EM settings for streaming sessions (§7, Alg. 2).

    Attributes:
        schedule_beta / schedule_scale: Robbins–Monro step sizes
            ``γ_t = scale / t^beta``.
        meanfield_steps: E-step fixed-point iterations per arrival.
        prior: Credibility prior of newly arrived claims.
        online_mstep_iterations: Newton-iteration cap of the online M-step.
        validation_every: Interleave a validation burst (Alg. 1 on the
            current snapshot) after this many arrivals, validating the same
            number of claims; ``None`` disables interleaving in ``run``.
        source: Replayable stream provenance.  When set, ``run()`` and
            ``ingest_from_source()`` can drive the session without an
            explicit arrival iterable, and checkpoints store a compact
            fingerprint + position instead of embedding the entities.
        allow_pending_labels: Park labels recorded for claims that have
            not arrived yet instead of rejecting them.
    """

    schedule_beta: float = 0.7
    schedule_scale: float = 1.0
    meanfield_steps: int = 3
    prior: float = 0.5
    online_mstep_iterations: int = 5
    validation_every: Optional[int] = None
    source: Optional[StreamSourceSpec] = None
    allow_pending_labels: bool = False

    def __post_init__(self) -> None:
        if self.source is not None and not isinstance(
            self.source, StreamSourceSpec
        ):
            object.__setattr__(
                self, "source", _build_spec(StreamSourceSpec, self.source, "source")
            )
        if not 0.5 < self.schedule_beta <= 1.0:
            raise SpecError(
                f"schedule_beta must lie in (0.5, 1], got {self.schedule_beta}",
                field="schedule_beta",
            )
        if self.schedule_scale <= 0:
            raise SpecError("schedule_scale must be positive", field="schedule_scale")
        if self.meanfield_steps < 1:
            raise SpecError("meanfield_steps must be at least 1", field="meanfield_steps")
        if not 0.0 <= self.prior <= 1.0:
            raise SpecError(f"prior must lie in [0, 1], got {self.prior}", field="prior")
        if self.online_mstep_iterations < 1:
            raise SpecError(
                "online_mstep_iterations must be at least 1",
                field="online_mstep_iterations",
            )
        if self.validation_every is not None and self.validation_every < 1:
            raise SpecError(
                "validation_every must be at least 1 (or None)",
                field="validation_every",
            )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "StreamSpec":
        _check_fields(cls, payload)
        return cls(**payload)


@dataclass(frozen=True)
class SessionSpec:
    """Complete declarative description of one fact-checking session.

    Attributes:
        mode: ``"batch"`` (Alg. 1 validation) or ``"streaming"`` (Alg. 2
            online EM with optional interleaved validation).
        seed: Root seed; every stochastic component derives deterministic
            children from it, so the spec fully determines the run.
        dataset: Corpus provenance; optional when the database object is
            handed to the session directly.
        user / inference / guidance / effort / stream: Component specs.
    """

    mode: str = "batch"
    seed: int = 0
    dataset: Optional[DatasetSpec] = None
    user: UserSpec = field(default_factory=UserSpec)
    inference: InferenceSpec = field(default_factory=InferenceSpec)
    guidance: GuidanceSpec = field(default_factory=GuidanceSpec)
    effort: EffortSpec = field(default_factory=EffortSpec)
    stream: StreamSpec = field(default_factory=StreamSpec)

    def __post_init__(self) -> None:
        if self.mode not in SESSION_MODES:
            raise SpecError(
                f"mode must be one of {SESSION_MODES}, got {self.mode!r}",
                field="mode",
            )
        if self.dataset is not None and not isinstance(self.dataset, DatasetSpec):
            object.__setattr__(
                self, "dataset", _build_spec(DatasetSpec, self.dataset, "dataset")
            )
        object.__setattr__(self, "user", _build_config(UserSpec, self.user, "user"))
        object.__setattr__(
            self,
            "inference",
            _build_spec(InferenceSpec, self.inference, "inference"),
        )
        object.__setattr__(
            self, "guidance", _build_spec(GuidanceSpec, self.guidance, "guidance")
        )
        object.__setattr__(
            self, "effort", _build_spec(EffortSpec, self.effort, "effort")
        )
        object.__setattr__(
            self, "stream", _build_spec(StreamSpec, self.stream, "stream")
        )

    def replace(self, **overrides) -> "SessionSpec":
        """Copy with selected top-level fields replaced."""
        return dataclasses.replace(self, **overrides)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "seed": self.seed,
            "dataset": None if self.dataset is None else self.dataset.to_dict(),
            "user": self.user.to_dict(),
            "inference": self.inference.to_dict(),
            "guidance": self.guidance.to_dict(),
            "effort": self.effort.to_dict(),
            "stream": self.stream.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SessionSpec":
        _check_fields(cls, payload)
        data = dict(payload)
        converters = {
            "dataset": DatasetSpec,
            "user": UserSpec,
            "inference": InferenceSpec,
            "guidance": GuidanceSpec,
            "effort": EffortSpec,
            "stream": StreamSpec,
        }
        for name, spec_cls in converters.items():
            value = data.get(name)
            if isinstance(value, Mapping):
                data[name] = _build_spec(spec_cls, value, name)
        return cls(**data)

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialise the spec to a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, document: str) -> "SessionSpec":
        """Parse a spec from :meth:`to_json` output."""
        try:
            payload = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SpecError(f"invalid session-spec JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise SpecError("session-spec JSON must be an object")
        return cls.from_dict(payload)


def _build_spec(cls: Type[_S], payload: Any, what: str) -> _S:
    """Coerce ``payload`` (spec instance or mapping) into a spec class.

    Validation failures inside the nested spec are re-raised with ``what``
    prepended to their field path, so errors surfacing from
    :meth:`SessionSpec.from_json` name the full dotted location
    (``inference.estep_mode``, ``effort.goal.kind``, …).
    """
    if isinstance(payload, cls):
        return payload
    if payload is None:
        return cls()
    if not isinstance(payload, Mapping):
        raise SpecError(f"{what} must be a {cls.__name__} or a mapping", field=what)
    try:
        return cls.from_dict(payload)
    except SpecError as exc:
        raise exc.with_prefix(what) from None


def _build_termination(entries) -> Tuple[TerminationSpec, ...]:
    """Coerce a termination sequence, indexing errors per entry."""
    criteria = []
    for index, entry in enumerate(entries):
        if isinstance(entry, TerminationSpec):
            criteria.append(entry)
            continue
        try:
            criteria.append(TerminationSpec.from_dict(entry))
        except SpecError as exc:
            raise exc.with_prefix(f"termination[{index}]") from None
    return tuple(criteria)
