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
``from_dict`` from :class:`repro.codec.JsonRecord`, which type-checks each
value and names the dotted path of the first bad one in the
:class:`~repro.errors.SpecError` it raises; :class:`SessionSpec` adds
``to_json`` / ``from_json``.  ``GainConfig`` and ``MStepConfig`` — already
dataclasses with validation — are embedded directly rather than mirrored.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.codec import JsonRecord, coerce_fields
from repro.datasets.profiles import PROFILES
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

@dataclass(frozen=True)
class DatasetSpec(JsonRecord):
    """Provenance of the corpus a session runs on.

    Attributes:
        name: Profile name of a synthetic replica (``wiki`` / ``health`` /
            ``snopes``); mutually exclusive with ``path``.
        path: JSON corpus file (the :mod:`repro.datasets.io` format).
        seed: Generation seed when ``name`` is used; non-negative.
        scale: Generation scale when ``name`` is used; finite and positive.
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
        if self.name is not None and self.name not in PROFILES:
            raise SpecError(
                f"unknown dataset {self.name!r}; known: {sorted(PROFILES)}",
                field="name",
            )
        if self.seed < 0:
            raise SpecError(
                f"seed must be non-negative, got {self.seed}", field="seed"
            )
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise SpecError(
                f"scale must be finite and positive, got {self.scale}",
                field="scale",
            )

    def load(self):
        """The read-only :class:`~repro.data.database.FactDatabase` this
        spec describes; a session over it keeps its own
        :class:`~repro.data.state.ClaimState`.

        A name-based spec returns the database every holder of an equal
        spec shares: it is generated on first use and freed with its last
        holder.  A path-based spec reads its file anew on every call, since
        the file may change on disk.
        """
        from repro.datasets import generator, load_database, shared_database

        if self.path is not None:
            return load_database(self.path)
        # "scale": 1 and "scale": 1.0 describe one corpus.
        key = dict(self.to_dict(), scale=float(self.scale))
        return shared_database(
            json.dumps(key, sort_keys=True),
            lambda: generator.generate_dataset(
                PROFILES[self.name], seed=self.seed, scale=self.scale
            ),
        )


@dataclass(frozen=True)
class UserSpec(JsonRecord):
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


@dataclass(frozen=True)
class InferenceSpec(JsonRecord):
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
        coerce_fields(self)
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


@dataclass(frozen=True)
class GuidanceSpec(JsonRecord):
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
        coerce_fields(self)
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


@dataclass(frozen=True)
class GoalSpec(JsonRecord):
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


@dataclass(frozen=True)
class TerminationSpec(JsonRecord):
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



@dataclass(frozen=True)
class EffortSpec(JsonRecord):
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
        coerce_fields(self)
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


@dataclass(frozen=True)
class StreamSourceSpec(JsonRecord):
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
        coerce_fields(self)
        if self.dataset is None:
            raise SpecError(
                "StreamSourceSpec needs a 'dataset' describing the corpus "
                "the stream replays",
                field="dataset",
            )
        if self.order != "posting":
            raise SpecError(
                f"unknown stream order {self.order!r}; only 'posting' is "
                f"defined",
                field="order",
            )

    def arrivals(self) -> tuple:
        """The declared corpus replayed in posting order: ``dataset.load()``
        through :func:`~repro.streaming.stream.stream_from_database`."""
        from repro.streaming.stream import stream_from_database

        return tuple(stream_from_database(self.dataset.load()))


@dataclass(frozen=True)
class StreamSpec(JsonRecord):
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
        coerce_fields(self)
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


@dataclass(frozen=True)
class SessionSpec(JsonRecord):
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
        coerce_fields(self)

    def replace(self, **overrides) -> "SessionSpec":
        """Copy with selected top-level fields replaced."""
        return dataclasses.replace(self, **overrides)

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

