"""The complete validation process — Algorithm 1 of the paper (§5.1).

:class:`ValidationProcess` wires together all framework pieces: per
iteration it (1) selects a claim — or a batch (§6.2) — using the configured
strategy, (2) elicits (simulated) user input with skip handling (§8.5),
(3) infers the implications with iCRF, and (4) instantiates a grounding;
it then updates the hybrid-strategy score z_i from the error rate and the
unreliable-source ratio (Eq. 22–23), optionally sweeps the confirmation
check of §5.2, and evaluates goal, budget, and the early-termination
criteria of §6.1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.crf.entropy import (
    approximate_entropy,
    source_trust_from_grounding,
    unreliable_source_ratio,
)
from repro.crf.partition import ComponentIndex
from repro.data.database import FactDatabase
from repro.data.grounding import Grounding
from repro.errors import ValidationProcessError
from repro.guidance.base import SelectionContext
from repro.guidance.gain import GainEstimator
from repro.guidance.hybrid_score import error_rate as compute_error_rate
from repro.guidance.hybrid_score import hybrid_score
from repro.guidance.strategies import make_strategy
from repro.inference.icrf import ICrf
from repro.validation.oracle import User
from repro.validation.robustness import ConfirmationChecker
from repro.validation.session import IterationRecord, ValidationTrace
from repro.utils.rng import RandomState, derive_rng, ensure_rng

if TYPE_CHECKING:
    from repro.api.specs import SessionSpec


@dataclass
class RobustnessStats:
    """Bookkeeping of the confirmation check (§5.2, Table 1).

    Attributes:
        sweeps: Confirmation sweeps performed.
        flagged: Labels flagged as suspicious.
        true_detections: Flagged labels that were in fact wrong.
        false_flags: Flagged labels that were actually correct.
        repairs: Re-elicited labels (adds to user effort).
    """

    sweeps: int = 0
    flagged: int = 0
    true_detections: int = 0
    false_flags: int = 0
    repairs: int = 0
    flagged_claims: List[int] = field(default_factory=list)


class ValidationProcess:
    """Interactive fact-checking driver (Alg. 1).

    Args:
        database: The probabilistic fact database Q.
        spec: The :class:`~repro.api.specs.SessionSpec` whose ``guidance``
            (strategy, candidate pool, gain evaluation, tie breaking) and
            ``effort`` (goal, budget, batching, confirmation check,
            termination, skip handling) configure the loop.
        user: The validating user (step 2); defaults to the simulated
            oracle of ``spec.user``, unseeded — pass one for determinism.
        icrf: Inference engine; built from ``spec.inference`` when
            omitted, seeded from the process seed.
        seed: Seed or generator for the process (strategy roulette, tie
            breaks, skip fallbacks) and — when built here — the iCRF chain.
    """

    #: Not checkpointed (lint rule STATE001): strategy/goal/robustness
    #: objects and the scalar knobs are immutable configuration rebuilt
    #: from the session spec; ``_truth`` is simulation-only ground truth
    #: owned by the database.  Mutable progress — database, iCRF, RNG,
    #: gains, user counters, trace, termination state — is what
    #: ``state_dict`` carries.
    _STATE_EXCLUDED = (
        "strategy",
        "goal",
        "budget",
        "components",
        "candidate_limit",
        "batch_size",
        "batch_utility_weight",
        "robustness",
        "max_skip_attempts",
        "deterministic_ties",
        "_truth",
    )

    def __init__(
        self,
        database: FactDatabase,
        spec: "SessionSpec",
        user: Optional[User] = None,
        icrf: Optional[ICrf] = None,
        seed: RandomState = None,
    ) -> None:
        rng = ensure_rng(seed)
        guidance = spec.guidance
        effort = spec.effort
        self.database = database
        self.strategy = make_strategy(guidance.strategy)
        self.user = user if user is not None else spec.user.build()
        self.goal = effort.goal.build()
        self.budget = (
            effort.budget if effort.budget is not None else database.num_claims
        )
        self.icrf = (
            icrf
            if icrf is not None
            else ICrf(database, spec.inference, seed=derive_rng(rng, 0))
        )
        self.components = ComponentIndex(database)
        self.gains = GainEstimator(
            self.icrf.model,
            components=self.components,
            config=guidance.gain,
            seed=derive_rng(rng, 1),
        )
        self.candidate_limit = guidance.candidate_limit
        self.batch_size = effort.batch_size
        self.batch_utility_weight = effort.batch_utility_weight
        self.robustness = (
            ConfirmationChecker(interval=effort.confirmation_interval)
            if effort.confirmation_interval is not None
            else None
        )
        self.termination = [entry.build() for entry in effort.termination]
        self.max_skip_attempts = effort.max_skip_attempts
        self.deterministic_ties = guidance.deterministic_ties
        self._rng = derive_rng(rng, 2)

        self._truth: Optional[np.ndarray] = None
        try:
            self._truth = database.truth_vector()
        except Exception:
            self._truth = None

        self._trace: Optional[ValidationTrace] = None
        self._grounding: Optional[Grounding] = None
        self._hybrid_score = 0.0
        self._iteration = 0
        self._validations_since_check = 0
        self.robustness_stats = RobustnessStats()

    # ------------------------------------------------------------------
    # Checkpoint state
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Serialise the complete mutable run state (JSON-compatible).

        Covers database labels and probabilities, model weights, the Gibbs
        chain, every RNG position, the trace, and the auxiliary counters —
        everything needed so :meth:`load_state_dict` on an identically
        configured process reproduces the uninterrupted run bit-for-bit.
        The structure of the database is *not* included; checkpoints store
        it separately (see :mod:`repro.api.checkpoint`).
        """
        from dataclasses import asdict

        from repro.utils.rng import rng_state

        user_state = None
        if hasattr(self.user, "state_dict"):
            user_state = self.user.state_dict()
        return {
            "database": {
                "probabilities": np.asarray(self.database.probabilities).tolist(),
                "labels": {
                    str(index): int(value)
                    for index, value in self.database.labels.items()
                },
            },
            "icrf": self.icrf.state_dict(),
            "rng": {
                "process": rng_state(self._rng),
                "gains": rng_state(self.gains._rng),
            },
            "user": user_state,
            "hybrid_score": self._hybrid_score,
            "iteration": self._iteration,
            "validations_since_check": self._validations_since_check,
            "robustness_stats": asdict(self.robustness_stats),
            "termination": [
                {key: value for key, value in criterion.__dict__.items()}
                for criterion in self.termination
            ],
            "grounding": (
                None if self._grounding is None else self._grounding.values.tolist()
            ),
            "trace": None if self._trace is None else self._trace.to_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot onto this process.

        The process must have been constructed with the same configuration
        (same database structure, strategy, goal and termination criteria)
        — typically by rebuilding it from the same
        :class:`~repro.api.SessionSpec`.
        """
        from repro.data.database import FactDatabaseState
        from repro.utils.rng import set_rng_state

        self.database.restore_state(
            FactDatabaseState(
                probabilities=np.asarray(
                    state["database"]["probabilities"], dtype=float
                ),
                labels={
                    int(index): int(value)
                    for index, value in state["database"]["labels"].items()
                },
            )
        )
        self.icrf.load_state_dict(state["icrf"])
        set_rng_state(self._rng, state["rng"]["process"])
        set_rng_state(self.gains._rng, state["rng"]["gains"])
        if state.get("user") is not None and hasattr(self.user, "load_state_dict"):
            self.user.load_state_dict(state["user"])
        self._hybrid_score = float(state["hybrid_score"])
        self._iteration = int(state["iteration"])
        self._validations_since_check = int(state["validations_since_check"])
        self.robustness_stats = RobustnessStats(**state["robustness_stats"])
        for criterion, criterion_state in zip(
            self.termination, state["termination"]
        ):
            criterion.__dict__.update(criterion_state)
        grounding = state.get("grounding")
        self._grounding = None if grounding is None else Grounding(grounding)
        trace = state.get("trace")
        self._trace = None if trace is None else ValidationTrace.from_dict(trace)

    # ------------------------------------------------------------------
    # State accessors
    # ------------------------------------------------------------------

    @property
    def trace(self) -> ValidationTrace:
        """The session trace (initialises the process on first access)."""
        if self._trace is None:
            self.initialize()
        assert self._trace is not None
        return self._trace

    @property
    def grounding(self) -> Grounding:
        """The current grounding g_i."""
        if self._grounding is None:
            self.initialize()
        assert self._grounding is not None
        return self._grounding

    def current_precision(self) -> Optional[float]:
        """True precision of the current grounding, when truth is known."""
        if self._truth is None or self._grounding is None:
            return None
        return self._grounding.precision(self._truth)

    def current_entropy(self) -> float:
        """H_C(Q) by the scalable estimator (Eq. 13)."""
        return approximate_entropy(self.database.probabilities)

    # ------------------------------------------------------------------
    # Lines 1–4 of Alg. 1
    # ------------------------------------------------------------------

    def initialize(self) -> ValidationTrace:
        """Initial inference on the unlabelled database (Alg. 1 lines 1–4)."""
        if self._trace is not None:
            return self._trace
        result = self.icrf.infer()
        self._grounding = result.grounding
        self._hybrid_score = 0.0
        self._iteration = 0
        self._trace = ValidationTrace(
            num_claims=self.database.num_claims,
            initial_precision=self.current_precision(),
            initial_entropy=self.current_entropy(),
        )
        return self._trace

    # ------------------------------------------------------------------
    # One iteration (Alg. 1 lines 6–19)
    # ------------------------------------------------------------------

    def step(self) -> IterationRecord:
        """Execute one iteration of the validation loop."""
        if self._trace is None:
            self.initialize()
        assert self._trace is not None and self._grounding is not None
        if self.database.unlabelled_indices.size == 0:
            raise ValidationProcessError("all claims are already validated")

        self._iteration += 1
        started = time.perf_counter()

        # (1) Select claim(s) to validate.
        context = SelectionContext(
            database=self.database,
            gains=self.gains,
            rng=self._rng,
            hybrid_score=self._hybrid_score,
            iteration=self._iteration,
            candidate_limit=self.candidate_limit,
            deterministic_ties=self.deterministic_ties,
        )
        if self.batch_size == 1:
            selected = self._select_single(context)
        else:
            selected = self._select_batch(context)
        selection_seconds = time.perf_counter() - started

        # (2) Elicit user input, with skip handling.
        claims, values, skipped = self._elicit(selected, context)

        # Error rate ε_i against the previous model state (Eq. 22).
        previous_probabilities = np.asarray(self.database.probabilities)
        errors = [
            compute_error_rate(
                float(previous_probabilities[claim]), self._grounding[claim]
            )
            for claim in claims
        ]
        matched = [self._grounding[c] == v for c, v in zip(claims, values)]

        # (3) Incorporate input and infer (Alg. 1 lines 14–15).
        inference_started = time.perf_counter()
        for claim, value in zip(claims, values):
            self.database.label(claim, value)
        result = self.icrf.infer()
        inference_seconds = time.perf_counter() - inference_started

        # (4) Decide on the grounding (line 16).
        previous_grounding = self._grounding
        self._grounding = result.grounding
        grounding_changes = self._grounding.differences(previous_grounding)

        # Lines 17–18: unreliable-source ratio and hybrid score.
        trust = source_trust_from_grounding(self.database, self._grounding)
        unreliable = unreliable_source_ratio(trust)
        mean_error = float(np.mean(errors)) if errors else 0.0
        input_ratio = min(self.database.num_labelled / self.database.num_claims, 1.0)
        self._hybrid_score = hybrid_score(mean_error, unreliable, input_ratio)

        # §5.2 confirmation check.
        repairs = 0
        self._validations_since_check += len(claims)
        if self.robustness is not None and self.robustness.due(
            self._validations_since_check
        ):
            repairs = self._confirmation_sweep()
            self._validations_since_check = 0

        record = IterationRecord(
            iteration=self._iteration,
            claim_indices=list(claims),
            claim_ids=[self.database.claim_id(int(c)) for c in claims],
            user_values=list(values),
            strategy_used=getattr(self.strategy, "last_choice", "")
            or self.strategy.name,
            error_rate=mean_error,
            hybrid_score=self._hybrid_score,
            unreliable_ratio=unreliable,
            entropy=self.current_entropy(),
            precision=self.current_precision(),
            grounding_changes=grounding_changes,
            predictions_matched=matched,
            response_seconds=selection_seconds + inference_seconds,
            skipped=skipped,
            repairs=repairs,
        )
        self._trace.records.append(record)
        return record

    # ------------------------------------------------------------------
    # Full run
    # ------------------------------------------------------------------

    def run(
        self,
        max_iterations: Optional[int] = None,
        on_iteration=None,
        after_iteration=None,
        cap_stop_reason: Optional[str] = "max_iterations",
    ) -> ValidationTrace:
        """Run Alg. 1 until goal, budget, exhaustion, or early termination.

        Args:
            max_iterations: Hard cap on total trace iterations (counting
                iterations restored from a checkpoint).
            on_iteration: Optional callable invoked with every new
                :class:`IterationRecord` — progress reporting hook used by
                the session façade and the CLI.
            after_iteration: Optional callable invoked with the record
                *after* the termination criteria have consumed it (and only
                when none fired).  This is the point at which the complete
                mutable state — criteria included — reflects the iteration,
                so it is where the session façade takes periodic
                checkpoints: resuming from one replays the remaining run
                bit-for-bit.
            cap_stop_reason: What hitting ``max_iterations`` records as
                the trace's stop reason.  Pass ``None`` to leave the trace
                unfinished instead — for callers (the session service)
                that drive the loop in bounded slices and must not stamp a
                final reason on a merely-paused run.
        """
        trace = self.initialize()
        while True:
            if self.goal.satisfied(self):
                trace.stop_reason = "goal"
                break
            if self.database.unlabelled_indices.size == 0:
                trace.stop_reason = "exhausted"
                break
            if self.database.num_labelled >= self.budget:
                trace.stop_reason = "budget"
                break
            if max_iterations is not None and trace.iterations >= max_iterations:
                if cap_stop_reason is not None:
                    trace.stop_reason = cap_stop_reason
                break
            record = self.step()
            if on_iteration is not None:
                on_iteration(record)
            reason = self._check_termination(record)
            if reason is not None:
                trace.stop_reason = reason
                break
            if after_iteration is not None:
                after_iteration(record)
        trace.final_grounding = self._grounding
        return trace

    def _check_termination(self, record: IterationRecord) -> Optional[str]:
        for criterion in self.termination:
            reason = criterion.update(self.trace, record, self)
            if reason is not None:
                return reason
        return None

    # ------------------------------------------------------------------
    # Selection helpers
    # ------------------------------------------------------------------

    def _select_single(self, context: SelectionContext) -> List[int]:
        return [self.strategy.select(context)]

    def _select_batch(self, context: SelectionContext) -> List[int]:
        from repro.effort.batching import greedy_topk_selection

        unlabelled = context.database.unlabelled_indices
        k = min(self.batch_size, unlabelled.size)
        selection = greedy_topk_selection(
            database=self.database,
            gains=self.gains,
            k=k,
            utility_weight=self.batch_utility_weight,
            candidate_limit=self.candidate_limit,
        )
        return selection.claims

    def _elicit(
        self, selected: List[int], context: SelectionContext
    ) -> tuple:
        """Obtain user input for the selection, handling skips (§8.5)."""
        claims: List[int] = []
        values: List[int] = []
        skipped = 0
        for claim_index in selected:
            value = self.user.validate(self.database.claims[claim_index])
            if value is not None:
                claims.append(claim_index)
                values.append(value)
                continue
            # The user skipped: offer the next-best candidates.
            skipped += 1
            replacement = self._next_best(claim_index, context)
            attempts = 0
            value = None
            while replacement is not None and attempts < self.max_skip_attempts:
                value = self.user.validate(self.database.claims[replacement])
                if value is not None:
                    break
                skipped += 1
                attempts += 1
                replacement = self._next_best(replacement, context, offset=attempts + 1)
            if replacement is None:
                replacement = claim_index
            if value is None:
                # Everyone was skipped: force input on the last candidate.
                truth = self.database.claims[replacement].truth
                value = 1 if truth else 0
            claims.append(replacement)
            values.append(value)
        return claims, values, skipped

    def _next_best(
        self, excluded: int, context: SelectionContext, offset: int = 1
    ) -> Optional[int]:
        """The next-ranked candidate differing from already chosen ones."""
        try:
            ranked = self.strategy.rank(context, count=offset + 1)
        except Exception:
            candidates = [
                int(c)
                for c in self.database.unlabelled_indices
                if int(c) != excluded
            ]
            if not candidates:
                return None
            return int(self._rng.choice(candidates))
        for candidate in ranked:
            if candidate != excluded:
                return int(candidate)
        return None

    # ------------------------------------------------------------------
    # Robustness (§5.2)
    # ------------------------------------------------------------------

    def _confirmation_sweep(self) -> int:
        """Run the confirmation check and repair suspicious labels."""
        assert self.robustness is not None
        report = self.robustness.sweep(self.icrf.model, self.components)
        stats = self.robustness_stats
        stats.sweeps += 1
        repairs = 0
        relabelled = False
        for claim_index in report.suspects:
            stats.flagged += 1
            stats.flagged_claims.append(claim_index)
            stored = self.database.label_of(claim_index)
            truth = self.database.claims[claim_index].truth
            if truth is not None and stored is not None and stored != int(truth):
                stats.true_detections += 1
            else:
                stats.false_flags += 1
            # Re-elicit input for the suspicious claim.
            value = self.user.validate(self.database.claims[claim_index])
            repairs += 1
            stats.repairs += 1
            if value is not None and value != stored:
                self.database.label(claim_index, value)
                relabelled = True
        if relabelled:
            result = self.icrf.infer(em_iterations=1)
            self._grounding = result.grounding
        return repairs
